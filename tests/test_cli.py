import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import semistruct
from semistruct import ChainSequenceSpace, DataFormatError, cli
from semistruct.cli import main
from semistruct.data_io import load_dataset
from semistruct.solver import load_model

SRC = Path(semistruct.__file__).resolve().parent.parent


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


def test_a_deep_taxonomy_synthesizes_fits_and_loads(tmp_path):
    """A path-shaped tree 3 000 nodes deep, one more leaf at its root: no
    step walks it by recursion."""
    depth = 3000
    nodes = [{"id": i, "parent": i - 1 if i else None} for i in range(depth)]
    tree = tmp_path / "deep.json"
    tree.write_text(json.dumps({"nodes": [*nodes, {"id": depth, "parent": 0}]}))
    out = tmp_path / "deep"
    assert _run("synth", "--space", "taxonomy", "--taxonomy", str(tree), "--per-leaf", "4",
                "--dim", "2", "--out", str(out)) == 0
    assert _run("fit", "--data", str(out / "data.jsonl"), "--space", "taxonomy",
                "--taxonomy", str(out / "taxonomy.json"), "--iters", "2", "--k", "3",
                "--out", str(tmp_path / "fit")) == 0
    _, space, _ = load_model(tmp_path / "fit" / "model.json")
    assert space.tree.heights[space.tree.root] == depth - 1
    assert space.loss_matrix.tolist() == [[0.0, depth - 1], [depth - 1, 0.0]]


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


def test_zero_one_cv_runs_on_long_chains(tmp_path):
    # 2**13 = 8192 candidate sequences per chain
    data = _synth_blobs(tmp_path, **{"--space": "chain", "--alphabet": "2", "--count": "30",
                                     "--min-len": "13", "--max-len": "13", "--dim": "2"})
    assert _run("cv", "--data", str(data), "--space", "chain", "--loss", "zero-one",
                "--iters", "3", "--k", "3", "--out", str(tmp_path / "cv")) == 0


_BAD_SYNTH = {
    "chain-dim-0": (["--space", "chain", "--dim", "0"], "need dim >= 1, got 0"),
    "per-class--1": (["--space", "multiclass", "--per-class", "-1"],
                     "need per_class >= 1, got -1"),
    "per-leaf--2": (["--space", "taxonomy", "--per-leaf", "-2"], "need per_leaf >= 1, got -2"),
    "count--1": (["--space", "chain", "--count", "-1"], "need count >= 1, got -1"),
    "chain-spread-nan": (["--space", "chain", "--spread", "nan"],
                         "spread must be finite and >= 0, got nan"),
    "multiclass-spread-inf": (["--space", "multiclass", "--spread", "inf"],
                              "spread must be finite and >= 0, got inf"),
    "taxonomy-spread--1": (["--space", "taxonomy", "--spread", "-1"],
                           "spread must be finite and >= 0, got -1.0"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("args, message", _BAD_SYNTH.values(), ids=_BAD_SYNTH.keys())
def test_synth_refuses_bad_sizes_before_writing(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert _run("synth", *args, "--out", str(out)) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(out.iterdir()) == []


def test_chain_synth_reads_spread(tmp_path):
    space = ChainSequenceSpace(3, 10)
    made = []
    for spread in ("0.1", "2.0"):
        out = tmp_path / spread
        assert _run("synth", "--space", "chain", "--spread", spread, "--out", str(out)) == 0
        made.append(load_dataset(out / "data.jsonl", space))
    # the same labels, their emissions scaled by the spread
    assert made[0].outputs == made[1].outputs
    assert [x.tolist() for x in made[0].inputs] != [x.tolist() for x in made[1].inputs]


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


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--c1", "--c2", "--eta", "--sigma"])
def test_non_finite_hyperparameters_are_validation_errors(tmp_path, capsys, flag, value):
    data = _synth_blobs(tmp_path)
    out = tmp_path / "out"
    code = _run("fit", "--data", str(data), "--space", "multiclass", "--k", "3",
                flag, value, "--out", str(out))
    assert code == 1
    name = flag[2:]
    assert capsys.readouterr().err == f"error: {name} must be positive and finite, got {value}\n"
    assert not (out / "trace.csv").exists()


_SEEDED = {
    "synth": ["--space", "chain"],
    "fit-uniform-random": ["--z-init", "uniform-random", "--k", "3"],
    "fit-nearest-labeled": ["--k", "3"],
    "cv": ["--k", "3"],
    "baseline": [],
    "sweep": ["--param", "c1", "--values", "0.5,5", "--k", "3"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, flags", _SEEDED.items(), ids=_SEEDED.keys())
def test_a_negative_seed_is_a_validation_error(tmp_path, capsys, command, flags):
    data = [] if command == "synth" else ["--data", str(_synth_blobs(tmp_path)),
                                          "--space", "multiclass", "--iters", "2"]
    capsys.readouterr()
    code = _run(command.split("-")[0], *data, *flags, "--seed", "-1",
                "--out", str(tmp_path / "out"))
    assert code == 1
    assert capsys.readouterr().err == "error: seed must be a non-negative integer, got -1\n"


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


# model space fields of the wrong type: no count is cut to an int
_BAD_SPACES = {
    "num-classes-str": {"kind": "multiclass", "num_classes": "3", "input_dim": 3},
    "input-dim-null": {"kind": "multiclass", "num_classes": 4, "input_dim": None},
    "input-dim-bool": {"kind": "multiclass", "num_classes": 4, "input_dim": True},
    "num-labels-float": {"kind": "chain", "num_labels": 2.5, "input_dim": 3},
    "nodes-int": {"kind": "taxonomy", "input_dim": 3, "nodes": 5},
    "parent-str": {"kind": "taxonomy", "input_dim": 3,
                   "nodes": [{"id": 0, "parent": None}, {"id": 1, "parent": "x"}]},
    "id-str": {"kind": "taxonomy", "input_dim": 3,
               "nodes": [{"id": "0", "parent": None}, {"id": 1, "parent": 0}]},
}


@pytest.mark.parametrize("case", ["invalid-json", "bad-bytes", "non-object", "no-space",
                                  "no-weights", "space-missing-key", "bad-weights",
                                  "bad-format", "short-weights", *_BAD_SPACES])
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
        elif case in _BAD_SPACES:
            doc["space"] = _BAD_SPACES[case]
        elif case == "bad-format":
            doc["format"] = "semistruct-model/0"
        elif case == "short-weights":
            doc["weights"] = good["weights"][:-1]
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
                       for p, y in zip(ds.points, sp.from_codes(sp.argmax_score_all(w, ds.inputs))))
    assert len({line.split('"y": ')[1] for line in expected.splitlines()}) > 1
    assert (out / "predictions.jsonl").read_text() == expected


def _fresh(argv):
    """``main(argv)`` as the first call of a new interpreter, warnings as errors."""
    return subprocess.run([sys.executable, "-W", "error", "-m", "semistruct.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"})


def _files(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_one_process_runs_a_sequence_as_fresh_processes_do(tmp_path, capsys, monkeypatch):
    """Every call of a sequence sharing one parser writes what the same
    command writes as the first call of a new process."""
    monkeypatch.setenv("COLUMNS", "80")
    data = _synth_blobs(tmp_path)
    sigmas = []

    def graph_spy(*args):
        g = build(*args)
        sigmas.append(g.sigma)
        return g

    build = cli.build_knn_graph
    monkeypatch.setattr(cli, "build_knn_graph", graph_spy)
    flags = ["--data", str(data), "--space", "multiclass", "--iters", "3", "--k", "3",
             "--seed", "1"]
    model = str(tmp_path / "in0" / "model.json")
    steps = [
        ["fit", *flags, "--dump-graph"],
        ["fit", *flags],
        ["fit", *flags, "--sigma", "0.5", "--dump-graph"],
        ["fit", *flags, "--dump-graph"],
        ["fit", *flags, "--bogus"],
        ["predict", "--model", model, "--data", str(data)],
        ["cv", *flags],
        ["predict", "--help"],
    ]
    for i, argv in enumerate(steps):
        capsys.readouterr()
        if "--bogus" in argv or "--help" in argv:
            with pytest.raises(SystemExit) as stop:
                main(argv)
            fresh = _fresh(argv)
            assert stop.value.code == fresh.returncode == (2 if "--bogus" in argv else 0)
            assert capsys.readouterr() == (fresh.stdout, fresh.stderr)
            continue
        assert main([*argv, "--out", str(tmp_path / f"in{i}")]) == 0
        fresh = _fresh([*argv, "--out", str(tmp_path / f"fresh{i}")])
        assert fresh.returncode == 0, fresh.stderr
        assert _files(tmp_path / f"in{i}") == _files(tmp_path / f"fresh{i}"), argv
    assert not (tmp_path / "in1" / "graph.csv").exists()
    assert (tmp_path / "in3" / "graph.csv").read_bytes() == (
        tmp_path / "in0" / "graph.csv").read_bytes()
    median = sigmas[0]
    assert median != 0.5 and sigmas == [median, median, 0.5, median]
    assert (tmp_path / "in6" / "report.json").exists()


def test_predict_in_a_new_process_writes_the_in_process_bytes(tmp_path):
    data = _synth_blobs(tmp_path)
    model = _fit_model(tmp_path, data, "--space", "multiclass")
    argv = ["predict", "--model", str(model), "--data", str(data)]
    assert main([*argv, "--out", str(tmp_path / "here")]) == 0
    fresh = _fresh([*argv, "--out", str(tmp_path / "cold")])
    assert fresh.returncode == 0, fresh.stderr
    assert (tmp_path / "here" / "predictions.jsonl").read_bytes() == (
        tmp_path / "cold" / "predictions.jsonl").read_bytes()


def test_main_builds_its_parser_once(tmp_path, monkeypatch):
    data = _synth_blobs(tmp_path)  # a first main call
    parser = cli._parser()
    monkeypatch.setattr(cli, "build_parser", lambda: pytest.fail("parser built again"))
    assert _run("fit", "--data", str(data), "--space", "multiclass", "--iters", "1",
                "--k", "3", "--out", str(tmp_path / "fit")) == 0
    assert cli._parser() is parser


def _parsers(parser):
    """``parser`` and every subcommand parser under it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def test_the_reused_parser_keeps_no_state_between_calls():
    """One parser serves every call, so no action may add to a value a
    namespace shares with the parser: no append or extend action, and no
    list or dict default."""
    parsers = list(_parsers(cli._parser()))
    assert [p.prog for p in parsers] == ["semistruct"] + [
        f"semistruct {name}" for name in ("synth", "fit", "predict", "cv", "baseline", "sweep")]
    for p in parsers:
        for action in p._actions:
            assert not isinstance(action, (argparse._AppendAction, argparse._AppendConstAction)), (
                p.prog, action.dest)
            assert not isinstance(action.default, (list, dict, set)), (p.prog, action.dest)
        assert not any(isinstance(v, (list, dict, set)) for v in p._defaults.values()), p.prog


def _partly_labeled_taxonomy(tmp_path):
    """``fit`` flags for a small taxonomy file whose odd ids are unlabeled."""
    data = _synth_blobs(tmp_path, "taxo", **{"--space": "taxonomy", "--per-leaf": "4"})
    records = [json.loads(line) for line in data.read_text().splitlines()]
    data.write_text("".join(json.dumps({**r, "y": None if r["id"] % 2 else r["y"]}) + "\n"
                            for r in records))
    return ["--data", str(data), "--space", "taxonomy",
            "--taxonomy", str(data.parent / "taxonomy.json"), "--iters", "3", "--k", "3"]


@pytest.mark.parametrize("sigma", ["1e-320", "1e-300"])
def test_a_sigma_that_zeroes_every_edge_weight_is_a_validation_error(tmp_path, capsys, sigma):
    flags = _partly_labeled_taxonomy(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run("fit", *flags, "--sigma", sigma, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: sigma {sigma} is too small: every edge weight ")
    assert not (out / "trace.csv").exists()


def test_a_huge_c1_diverges_without_an_overflow_warning(tmp_path, capsys):
    flags = _partly_labeled_taxonomy(tmp_path)
    capsys.readouterr()
    assert _run("fit", *flags, "--c1", "1e308", "--out", str(tmp_path / "out")) == 2
    assert capsys.readouterr().err == (
        "diverged: non-finite objective at iteration 0 (c1 or c2 too large?)\n")


@pytest.mark.parametrize("command", ["fit", "cv"])
def test_a_non_finite_objective_diverges_before_its_trace_row_is_written(tmp_path, capsys,
                                                                         command):
    flags = _partly_labeled_taxonomy(tmp_path)
    out = tmp_path / "out"
    capsys.readouterr()
    assert _run(command, *flags, "--c1", "1e307", "--c2", "1e307", "--out", str(out)) == 2
    err = capsys.readouterr().err
    message = "non-finite objective at iteration 0 (c1 or c2 too large?)"
    if command == "fit":
        assert err == f"diverged: {message}\n"
        assert not (out / "trace.csv").exists()
        return
    assert err == "diverged: all 10 folds diverged\n"
    report = json.loads((out / "report.json").read_text())
    assert [(f["diverged"], f["error"]) for f in report["folds"]] == [(True, message)] * 10
    for name in report["trace_paths"]:
        assert (out / name).read_text() == "iteration,manifold,loss,regularizer,objective\n"
