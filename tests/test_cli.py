import json
import re

import pytest

from semistruct import DataFormatError
from semistruct.cli import main
from semistruct.data_io import load_dataset
from semistruct.solver import load_model


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


@pytest.mark.parametrize("z_init", ["nearest-labeled", "uniform-random"])
@pytest.mark.parametrize("command", ["fit", "cv"])
def test_graph_edge_across_sequence_lengths_is_a_configuration_error(
        tmp_path, capsys, command, z_init):
    out = tmp_path / "chain"
    assert _run(
        "synth", "--space", "chain", "--alphabet", "3", "--count", "40",
        "--min-len", "4", "--max-len", "6", "--dim", "3",
        "--seed", "0", "--out", str(out),
    ) == 0
    capsys.readouterr()
    code = _run(
        command, "--data", str(out / "data.jsonl"), "--space", "chain",
        "--z-init", z_init, "--iters", "2", "--seed", "0", "--out", str(tmp_path / command),
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "error: graph edge " in err
    assert "joins inputs of lengths " in err


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


def _fit_model(tmp_path, data, *space_flags):
    out = tmp_path / "fit"
    assert _run("fit", "--data", str(data), *space_flags, "--iters", "2", "--k", "3",
                "--seed", "1", "--out", str(out)) == 0
    return out / "model.json"


@pytest.mark.parametrize("command", ["fit", "predict"])
@pytest.mark.parametrize("case", ["overflow", "digits", "bytes", "nesting"])
def test_malformed_numbers_and_bytes_are_validation_errors(tmp_path, capsys, command, case):
    data = _synth_blobs(tmp_path)
    model = _fit_model(tmp_path, data, "--space", "multiclass")
    second = {
        "overflow": b'{"id": 1, "x": [1' + b"0" * 400 + b', 1.0, 2.0], "y": 1}',
        "digits": b'{"id": 1, "x": [' + b"7" * 5000 + b', 1.0, 2.0], "y": 1}',
        "bytes": b'{"id": 1, "x": [1.0, \xff 2.0, 3.0], "y": 1}',
        "nesting": b"[" * 100_000,
    }[case]
    bad = tmp_path / f"{case}.jsonl"
    bad.write_bytes(b'{"id": 0, "x": [1.0, 2.0, 3.0], "y": 0}\n' + second + b"\n")
    argv = {
        "fit": ["fit", "--data", str(bad), "--space", "multiclass"],
        "predict": ["predict", "--model", str(model), "--data", str(bad)],
    }[command]
    capsys.readouterr()
    assert _run(*argv, "--out", str(tmp_path / "out")) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}:2: ")
    assert {
        "overflow": "x holds a number too large for a float",
        "digits": "invalid JSON (Exceeds the limit",
        "bytes": "not utf-8 text",
        "nesting": "invalid JSON (maximum recursion depth",
    }[case] in err


@pytest.mark.parametrize("case", ["invalid-json", "bad-bytes", "non-object", "no-space",
                                  "no-weights", "space-missing-key", "bad-weights"])
def test_corrupt_model_is_a_validation_error(tmp_path, capsys, case):
    data = _synth_blobs(tmp_path)
    good = json.loads(_fit_model(tmp_path, data, "--space", "multiclass").read_text())
    model = tmp_path / "corrupt.json"
    if case == "invalid-json":
        model.write_text('{"format": ')
    elif case == "bad-bytes":
        model.write_bytes(b'{"format": "\xff"}')
    elif case == "non-object":
        model.write_text("[1, 2]")
    else:
        doc = dict(good)
        if case == "no-space":
            del doc["space"]
        elif case == "no-weights":
            del doc["weights"]
        elif case == "space-missing-key":
            doc["space"] = {"kind": "multiclass", "input_dim": 3}
        else:
            doc["weights"] = ["a"] * len(good["weights"])
        model.write_text(json.dumps(doc))
    with pytest.raises(DataFormatError, match=f"^{re.escape(str(model))}: "):
        load_model(model)
    assert _run("predict", "--model", str(model), "--data", str(data),
                "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.startswith(f"error: {model}: ")


@pytest.mark.parametrize("space", ["multiclass", "chain", "chain-labeled"])
def test_predict_on_inputs_of_the_wrong_dimension_names_file_and_point(tmp_path, capsys,
                                                                       space):
    if space == "multiclass":
        model = _fit_model(tmp_path, _synth_blobs(tmp_path), "--space", "multiclass")
        x, y = "[1.0, 2.0]", "null"
    else:
        data = _synth_blobs(tmp_path, **{"--space": "chain", "--alphabet": "2", "--count": "30",
                                         "--min-len": "4", "--max-len": "4"})
        model = _fit_model(tmp_path, data, "--space", "chain")
        x, y = "[[1.0, 2.0], [3.0, 4.0]]", "[0, 1]" if space == "chain-labeled" else "null"
    narrow = tmp_path / "narrow.jsonl"
    narrow.write_text(f'{{"id": 0, "x": {x}, "y": {y}}}\n')
    capsys.readouterr()
    assert _run("predict", "--model", str(model), "--data", str(narrow),
                "--out", str(tmp_path / "out")) == 1
    if space == "chain-labeled":  # the output is checked against its input first
        expected = f"{narrow}:1: bad input: sequence input has shape (2, 2), expected (T, 3)"
    else:
        expected = f"{narrow}: id 0: input dimension 2 differs from 3"
    assert capsys.readouterr().err == f"error: {expected}\n"


@pytest.mark.parametrize("space", ["multiclass", "taxonomy", "chain"])
def test_predictions_equal_one_json_dumps_per_record(tmp_path, space):
    if space == "chain":  # fit on equal lengths, predict on lengths 1 to 6
        chains = {"--space": "chain", "--alphabet": "3", "--count": "40"}
        train = _synth_blobs(tmp_path, "train", **chains, **{"--min-len": "4", "--max-len": "4"})
        data = _synth_blobs(tmp_path, **chains, **{"--min-len": "1"})
        flags = ["--space", "chain"]
    elif space == "taxonomy":
        train = data = _synth_blobs(tmp_path, **{"--space": "taxonomy", "--per-leaf": "3"})
        flags = ["--space", "taxonomy", "--taxonomy", str(data.parent / "taxonomy.json")]
    else:
        train = data = _synth_blobs(tmp_path)
        flags = ["--space", "multiclass"]
    model = _fit_model(tmp_path, train, *flags)
    out = tmp_path / "pred"
    assert _run("predict", "--model", str(model), "--data", str(data), "--out", str(out)) == 0
    w, sp, _ = load_model(model)
    ds = load_dataset(data, sp)
    expected = "".join(json.dumps({"id": p.id, "y": sp.encode(y)}) + "\n"
                       for p, y in zip(ds.points, sp.argmax_score_all(w, ds.inputs).tolist()))
    assert len({line.split('"y": ')[1] for line in expected.splitlines()}) > 1
    assert (out / "predictions.jsonl").read_text() == expected
