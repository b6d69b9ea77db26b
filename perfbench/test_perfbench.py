"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the
repository root."""

import io
import json
import re
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

import semistruct  # noqa: E402
from semistruct import cli, evaluate, solver  # noqa: E402
from semistruct.spaces import MulticlassSpace  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# --- self time ----------------------------------------------------------------


def test_self_time_of_nested_spans():
    tree = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("a.child", 2.0, 3.0, 1, "r"),
        Span("b", 5.0, 7.0, 0, "r"),
    ]
    assert self_times(tree) == [5.0, 2.0, 1.0, 2.0]
    assert sum(self_times(tree)) == 10.0


def test_self_time_counts_overlapping_children_once():
    tree = [
        Span("root", 0.0, 10.0, None, "r"),
        Span("a", 1.0, 4.0, 0, "r"),
        Span("b", 3.0, 6.0, 0, "r"),  # overlaps a by one second
        Span("c", 9.0, 12.0, 0, "r"),  # runs past its parent's end
    ]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_of_separate_roots():
    tree = [
        Span("x", 0.0, 2.0, None, "one"),
        Span("y", 3.0, 4.0, None, "two"),
        Span("z", 3.5, 3.75, 1, "two"),
    ]
    assert self_times(tree) == [2.0, 0.75, 0.25]


# --- workload inputs ------------------------------------------------------------


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_inputs_are_deterministic_per_seed(workload, tmp_path):
    inputs.write_inputs(workload, 3, tmp_path / "a")
    inputs.write_inputs(workload, 3, tmp_path / "b")
    inputs.write_inputs(workload, 4, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a.keys() == c.keys()
    assert a["train.jsonl"] != c["train.jsonl"]
    assert a["heldout.jsonl"] != c["heldout.jsonl"]


def test_inputs_match_their_spec(tmp_path):
    spec = inputs.WORKLOADS["tx-fit"]
    inputs.write_inputs("tx-fit", 0, tmp_path)
    train = [json.loads(line) for line in (tmp_path / "train.jsonl").read_text().splitlines()]
    heldout = [json.loads(line)
               for line in (tmp_path / "heldout.jsonl").read_text().splitlines()]
    truth = json.loads((tmp_path / "truth.json").read_text())
    assert len(train) == spec.train
    assert sum(r["y"] is not None for r in train) == spec.labeled
    assert len(heldout) == len(truth) == spec.heldout
    assert all(r["y"] is None for r in heldout)


# --- metric declarations ------------------------------------------------------------


def test_declared_metrics_are_well_formed():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e, layers = doc["end_to_end"], doc["per_layer"]
    assert 1 <= len(e2e) <= 16
    assert 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(m["bound"] for m in e2e)} in e2e
    assert set(w["name"] for w in doc["workloads"]) == set(inputs.WORKLOADS)


def test_layer_metrics_cover_the_declared_set():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    emitted = run.layer_metrics(Tracer(), 1.0, 2.0)
    assert set(emitted) == {m["name"] for m in doc["per_layer"]}


# --- the tracer on a real run -----------------------------------------------------


def _small_run(tmp_path):
    ds = semistruct.data_io.synth_blobs(3, 10, 2, 0.3, 0)
    space = MulticlassSpace(3, 2)
    semistruct.data_io.save_dataset(ds, tmp_path / "data.jsonl", space)
    with redirect_stdout(io.StringIO()):
        assert cli.main(["fit", "--data", str(tmp_path / "data.jsonl"),
                         "--space", "multiclass", "--iters", "2", "--k", "3",
                         "--out", str(tmp_path / "fit")]) == 0
        assert cli.main(["predict", "--model", str(tmp_path / "fit" / "model.json"),
                         "--data", str(tmp_path / "data.jsonl"),
                         "--out", str(tmp_path / "pred")]) == 0


def test_tracer_records_layers_and_removes_every_wrapper(tmp_path):
    originals = (cli.fit, evaluate.fit, solver.update_slack,
                 MulticlassSpace.__dict__["delta"])
    tracer = Tracer()
    with tracer:
        assert spans.installed_wrappers()
        assert cli.fit is evaluate.fit is solver.fit is semistruct.fit
        _small_run(tmp_path)
    assert spans.installed_wrappers() == []
    assert (cli.fit, evaluate.fit, solver.update_slack,
            MulticlassSpace.__dict__["delta"]) == originals

    by_name = tracer.by_name()
    assert by_name["cli.main"][0] == 2
    assert by_name["solver.fit"][0] == 1
    assert by_name["solver.update_slack"][0] == 2
    assert by_name["spaces.argmax_score"][0] == 30
    assert tracer.counts["spaces.delta"] > 0
    assert tracer.stats["solver.fit.point_iters"] == 60
    assert tracer.stats["graph.build_knn_graph.edges"] == 90
    assert not tracer.absent
    own = sum(self_times(tracer.spans))
    assert own == pytest.approx(tracer.root_seconds(""), rel=1e-9)


def test_tracer_is_removed_when_the_run_raises():
    with pytest.raises(RuntimeError):
        with Tracer():
            raise RuntimeError("boom")
    assert spans.installed_wrappers() == []


def test_missing_names_are_reported_absent(monkeypatch):
    monkeypatch.delattr(solver, "update_upsilon")
    with Tracer() as tracer:
        pass
    assert "solver.update_upsilon" in tracer.absent
    assert spans.installed_wrappers() == []
