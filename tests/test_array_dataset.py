"""Datasets read from files carry stacked inputs and build no points; cross
validation scores partially labeled files; no command imports numpy.ma."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import semistruct
from semistruct import DataPoint, Dataset, MulticlassSpace, SolverConfig, build_knn_graph, fit
from semistruct.cli import main
from semistruct.data_io import load_dataset, make_folds, mask_labels, save_dataset, synth_blobs
from semistruct.solver import SolverState, save_model

SRC = Path(semistruct.__file__).resolve().parent.parent


def test_load_and_predict_build_no_points(tmp_path, monkeypatch):
    space = MulticlassSpace(8, 8)
    ds = synth_blobs(8, 1250, 8, 0.6, seed=0)
    ds = Dataset(tuple(DataPoint(p.id, p.x, p.y if p.id % 20 == 0 else None)
                       for p in ds.points), "multiclass")
    data, model = tmp_path / "pool.jsonl", tmp_path / "model.json"
    save_dataset(ds, data, space)
    w = np.random.default_rng(0).standard_normal(space.dim)
    save_model(model, SolverState(w=w, z=[], upsilon=[]), space, SolverConfig())
    built = []
    init = DataPoint.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(DataPoint, "__init__", counting)
    DataPoint(0, np.zeros(1))
    assert len(built) == 1  # the counter counts
    got = load_dataset(data, space)
    assert len(got) == 10_000 and got.inputs.shape == (10_000, 8)
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--out", str(tmp_path / "pred")]) == 0
    assert len(built) == 1
    lines = (tmp_path / "pred" / "predictions.jsonl").read_text().splitlines()
    assert [json.loads(line)["id"] for line in lines] == list(range(10_000))


def _partially_labeled(tmp_path):
    """40 points in four classes; a third unlabeled, and every point of the
    test fold of run 3 (under seed 1) as well."""
    ds = synth_blobs(4, 10, 3, 0.5, seed=1)
    unscored = set(np.flatnonzero(np.asarray(make_folds(ds, 1).fold_of) == 3).tolist())
    ds = Dataset(tuple(DataPoint(p.id, p.x, None if p.id % 3 == 1 or p.id in unscored else p.y)
                       for p in ds.points), "multiclass")
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path, MulticlassSpace(4, 3))
    return path


@pytest.mark.parametrize("command", ["cv", "baseline"])
def test_cv_scores_the_labeled_test_points_of_a_partially_labeled_file(tmp_path, command):
    path = _partially_labeled(tmp_path)
    flags = ["--space", "multiclass", "--c1", "1", "--c2", "4", "--eta", "0.05",
             "--iters", "4", "--seed", "1"] + (["--k", "3"] if command == "cv" else [])
    assert main([command, "--data", str(path), *flags, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())

    space = MulticlassSpace(4, 3)
    ds = load_dataset(path, space)
    cfg = SolverConfig(c1=1.0, c2=4.0, eta=0.05, max_iters=4, seed=1)
    plan = make_folds(ds, 1)
    scores = []
    for run, fold in enumerate(report["folds"]):
        split = mask_labels(ds, plan, run)
        train = split.train
        if command == "cv":
            g = build_knn_graph(train, 3)
        else:
            labeled = [p for p in train.points if p.y is not None]
            train = Dataset([DataPoint(i, p.x, p.y) for i, p in enumerate(labeled)])
            g = semistruct.NeighborGraph.empty(len(train))
        w = fit(train, g, space, cfg).w
        labeled = [p for p in split.test.points if p.y is not None]
        if not labeled:
            assert fold["test_asl"] is None
            continue
        want = sum(space.delta(space.argmax_score(w, p.x), p.y) for p in labeled) / len(labeled)
        assert fold["test_asl"] == want
        scores.append(fold["test_asl"])
    assert report["folds"][3]["test_asl"] is None and len(scores) == 9
    assert report["mean_test_asl"] == pytest.approx(sum(scores) / 9)


@pytest.mark.parametrize("kind", ["multiclass", "taxonomy", "chain"])
def test_no_command_imports_numpy_ma(tmp_path, kind):
    assert main(["synth", "--space", kind, "--classes", "3", "--per-class", "8",
                 "--per-leaf", "2", "--count", "30", "--min-len", "3", "--max-len", "3",
                 "--dim", "2", "--seed", "0", "--out", str(tmp_path)]) == 0
    data = str(tmp_path / "data.jsonl")
    flags = ["--data", data, "--space", kind, "--iters", "2", "--k", "3", "--seed", "0"]
    if kind == "taxonomy":
        flags += ["--taxonomy", str(tmp_path / "taxonomy.json")]
    script = (
        "import sys\n"
        "from semistruct.cli import main\n"
        f"flags, out = {flags!r}, {str(tmp_path)!r}\n"
        "assert main(['fit', *flags, '--out', out + '/fit']) == 0\n"
        "assert main(['cv', *flags, '--out', out + '/cv']) == 0\n"
        "assert main(['predict', '--model', out + '/fit/model.json', '--data', flags[1],\n"
        "             '--out', out + '/pred']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("command", ["cv", "baseline"])
def test_folds_without_a_labeled_training_point_are_recorded(tmp_path, command):
    """100 points in four classes, 5 of them labeled: some folds keep no
    labeled point in their two labeled folds, and the run goes on."""
    ds = synth_blobs(4, 25, 3, 0.5, seed=2)
    ds = Dataset(tuple(DataPoint(p.id, p.x, p.y if p.id % 20 == 0 else None)
                       for p in ds.points), "multiclass")
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path, MulticlassSpace(4, 3))
    flags = ["--space", "multiclass", "--c1", "1", "--c2", "4", "--eta", "0.05",
             "--iters", "4", "--seed", "1"] + (["--k", "3"] if command == "cv" else [])
    out = tmp_path / "out"
    assert main([command, "--data", str(path), *flags, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())

    plan = make_folds(ds, 1)
    bare = [not mask_labels(ds, plan, run).train.labeled.any() for run in range(10)]
    assert 0 < sum(bare) < 10
    assert report["folds_diverged"] == 0
    for run, fold in enumerate(report["folds"]):
        trace = (out / f"trace_fold{run}.csv").read_text().splitlines()
        if bare[run]:
            assert fold == {"fold": run, "test_asl": None, "transductive_asl": None,
                            "diverged": False,
                            "error": "no labeled point in the training split"}
            assert trace == ["iteration,manifold,loss,regularizer,objective"]
        else:
            assert fold["error"] is None
            assert len(trace) == 6
