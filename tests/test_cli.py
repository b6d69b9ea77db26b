import json

import pytest

from semistruct.cli import main


def _run(*argv):
    return main(list(argv))


def _synth_blobs(tmp_path, name="data", **over):
    out = tmp_path / name
    args = {
        "--space": "multiclass",
        "--classes": "4",
        "--per-class": "10",
        "--dim": "3",
        "--spread": "0.5",
        "--seed": "1",
        "--out": str(out),
    }
    args.update(over)
    flat = [v for kv in args.items() for v in kv]
    assert _run("synth", *flat) == 0
    return out / "data.jsonl"


def test_synth_fit_predict_round_trip(tmp_path):
    data = _synth_blobs(tmp_path)
    fit_out = tmp_path / "fit"
    code = _run(
        "fit", "--data", str(data), "--space", "multiclass",
        "--c1", "1", "--c2", "4", "--eta", "0.05", "--iters", "5",
        "--k", "3", "--seed", "1", "--out", str(fit_out),
    )
    assert code == 0
    assert (fit_out / "model.json").exists()
    trace = (fit_out / "trace.csv").read_text().strip().split("\n")
    assert len(trace) == 7  # header + init + 5 iterations

    pred_out = tmp_path / "pred"
    code = _run(
        "predict", "--model", str(fit_out / "model.json"),
        "--data", str(data), "--out", str(pred_out),
    )
    assert code == 0
    lines = (pred_out / "predictions.jsonl").read_text().strip().split("\n")
    assert len(lines) == 40
    rec = json.loads(lines[0])
    assert set(rec) == {"id", "y"}
    assert 0 <= rec["y"] < 4


def test_fit_writes_graph_dump_on_request(tmp_path):
    data = _synth_blobs(tmp_path)
    out = tmp_path / "fit"
    assert _run(
        "fit", "--data", str(data), "--space", "multiclass", "--iters", "2",
        "--k", "2", "--seed", "1", "--dump-graph", "--out", str(out),
    ) == 0
    header = (out / "graph.csv").read_text().split("\n", 1)[0]
    assert header == "i,j,omega"


def test_cv_runs_are_byte_identical(tmp_path):
    data = _synth_blobs(tmp_path)
    outs = []
    for name in ("cv1", "cv2"):
        out = tmp_path / name
        code = _run(
            "cv", "--data", str(data), "--space", "multiclass",
            "--c1", "1", "--c2", "4", "--eta", "0.05", "--iters", "4",
            "--k", "3", "--seed", "7", "--out", str(out),
        )
        assert code == 0
        outs.append(out)
    for name in ["report.json", "folds.csv"] + [f"trace_fold{i}.csv" for i in range(10)]:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_baseline_command(tmp_path):
    data = _synth_blobs(tmp_path)
    out = tmp_path / "base"
    code = _run(
        "baseline", "--data", str(data), "--space", "multiclass",
        "--iters", "4", "--c2", "4", "--eta", "0.05", "--seed", "7",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "supervised-baseline"
    assert len(report["folds"]) == 10


def test_sweep_command(tmp_path):
    data = _synth_blobs(tmp_path)
    out = tmp_path / "sweep"
    code = _run(
        "sweep", "--param", "c1", "--values", "0.5,5",
        "--data", str(data), "--space", "multiclass",
        "--iters", "3", "--c2", "4", "--eta", "0.05", "--k", "3",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0] == "c1,mean_test_asl,error"
    assert len(lines) == 3


def test_taxonomy_synth_and_fit(tmp_path):
    out = tmp_path / "taxo"
    assert _run(
        "synth", "--space", "taxonomy", "--per-leaf", "4", "--dim", "3",
        "--spread", "0.2", "--seed", "2", "--out", str(out),
    ) == 0
    fit_out = tmp_path / "taxo_fit"
    code = _run(
        "fit", "--data", str(out / "data.jsonl"), "--space", "taxonomy",
        "--taxonomy", str(out / "taxonomy.json"),
        "--iters", "3", "--c2", "4", "--eta", "0.05", "--k", "3",
        "--seed", "2", "--out", str(fit_out),
    )
    assert code == 0


def test_chain_synth_and_fit(tmp_path):
    out = tmp_path / "chain"
    assert _run(
        "synth", "--space", "chain", "--alphabet", "3", "--count", "20",
        "--min-len", "4", "--max-len", "4", "--dim", "2",
        "--seed", "3", "--out", str(out),
    ) == 0
    fit_out = tmp_path / "chain_fit"
    code = _run(
        "fit", "--data", str(out / "data.jsonl"), "--space", "chain",
        "--loss", "hamming", "--iters", "3", "--c2", "4", "--eta", "0.05",
        "--k", "2", "--seed", "3", "--out", str(fit_out),
    )
    assert code == 0


def test_predict_accepts_fully_unlabeled_data(tmp_path):
    data = _synth_blobs(tmp_path)
    fit_out = tmp_path / "fit"
    assert _run(
        "fit", "--data", str(data), "--space", "multiclass", "--iters", "3",
        "--k", "3", "--seed", "1", "--out", str(fit_out),
    ) == 0
    unlabeled = tmp_path / "unlabeled.jsonl"
    unlabeled.write_text(
        '{"id": 0, "x": [0.1, 0.2, 0.3], "y": null}\n'
        '{"id": 1, "x": [1.0, 0.0, 0.5], "y": null}\n'
    )
    pred_out = tmp_path / "pred_unlabeled"
    assert _run(
        "predict", "--model", str(fit_out / "model.json"),
        "--data", str(unlabeled), "--out", str(pred_out),
    ) == 0
    lines = (pred_out / "predictions.jsonl").read_text().strip().split("\n")
    assert len(lines) == 2


def test_validation_error_exit_code(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"id": 0, "x": [1, 2], "y": 9}\n{"id": 0, "x": [1, 2], "y": 0}\n')
    code = _run(
        "fit", "--data", str(bad), "--space", "multiclass", "--classes", "2",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1


def test_unlabeled_data_cannot_be_fit(tmp_path):
    bad = tmp_path / "unlabeled.jsonl"
    bad.write_text('{"id": 0, "x": [1, 2], "y": null}\n{"id": 1, "x": [0, 1], "y": null}\n')
    code = _run(
        "fit", "--data", str(bad), "--space", "multiclass", "--classes", "2",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1


def test_divergence_exit_code(tmp_path):
    data = _synth_blobs(tmp_path)
    code = _run(
        "fit", "--data", str(data), "--space", "multiclass",
        "--eta", "1e200", "--iters", "50", "--k", "3",
        "--seed", "1", "--out", str(tmp_path / "div"),
    )
    assert code == 2


@pytest.mark.parametrize("command", ["cv", "baseline"])
def test_all_folds_diverged_exit_code(tmp_path, capsys, command):
    data = _synth_blobs(tmp_path)
    out = tmp_path / command
    code = _run(command, "--data", str(data), "--space", "multiclass",
                "--eta", "1e200", "--iters", "5", "--seed", "1", "--out", str(out))
    assert code == 2
    assert "diverged: all 10 folds diverged" in capsys.readouterr().err
    assert json.loads((out / "report.json").read_text())["folds_diverged"] == 10
    assert (out / "folds.csv").exists()


@pytest.mark.parametrize("flag", ["--data", "--model", "--taxonomy"])
def test_missing_input_file_is_a_validation_error(tmp_path, capsys, flag):
    data = str(_synth_blobs(tmp_path))
    missing = str(tmp_path / "missing.json")
    argv = {
        "--data": ["fit", "--data", missing, "--space", "multiclass"],
        "--model": ["predict", "--model", missing, "--data", data],
        "--taxonomy": ["fit", "--data", data, "--space", "taxonomy", "--taxonomy", missing],
    }[flag]
    assert _run(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and missing in err


def test_truncated_record_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "truncated.jsonl"
    bad.write_text('{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [0, 1], "y"\n')
    code = _run("fit", "--data", str(bad), "--space", "multiclass",
                "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"error: {bad}:2: invalid JSON" in capsys.readouterr().err


def test_record_without_input_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "no_x.jsonl"
    bad.write_text('{"id": 0, "y": 0}\n{"id": 1, "x": [0, 1], "y": 1}\n')
    code = _run("cv", "--data", str(bad), "--space", "multiclass",
                "--out", str(tmp_path / "out"))
    assert code == 1
    assert f"error: {bad}:1: record needs 'id' and 'x' fields" in capsys.readouterr().err
