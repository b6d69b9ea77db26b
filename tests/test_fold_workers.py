"""The fold loop of ``cv``, ``baseline`` and ``sweep`` on forked workers.

Every test forces the worker count (``evaluate._workers``), so the forked
path runs on a one-CPU machine too, and compares it with the serial path.
"""

import os
import pickle
import signal
import threading
import time

import numpy as np
import pytest

import semistruct.evaluate as ev
from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    Dataset,
    MulticlassSpace,
    SolverConfig,
    TaxonomySpace,
    three_level_taxonomy,
)
from semistruct.data_io import make_folds, synth_blobs, synth_chains, synth_taxonomy_blobs

SEED = 23


def _far_point(ds, fold):
    """``ds`` with the first point of ``fold`` moved to 1e150 on every axis."""
    fold_of = np.asarray(make_folds(ds, SEED).fold_of)
    X = np.array(ds.inputs)
    X[np.flatnonzero(fold_of == fold)[0]] = 1e150
    return Dataset.from_arrays(X, ds.outputs)


def _labeled_in(ds, folds):
    """``ds`` with only the points of ``folds`` labeled."""
    fold_of = make_folds(ds, SEED).fold_of
    return Dataset.from_arrays(ds.inputs, [y if fold_of[i] in folds else None
                                           for i, y in enumerate(ds.outputs)], ds.space_id)


def _cases():
    """``(name, dataset, space, cfg, k)``."""
    cfg = SolverConfig(c1=1.0, c2=4.0, eta=0.05, max_iters=3, seed=SEED)
    blobs = synth_blobs(classes=3, per_class=10, dim=2, spread=0.6, seed=SEED)
    chains = synth_chains(3, (4, 4), 40, 2, seed=SEED)
    tree = three_level_taxonomy()
    taxo = synth_taxonomy_blobs(tree, 3, 2, 0.8, seed=SEED)
    return [
        ("multiclass", blobs, MulticlassSpace(3, 2), cfg, 3),
        # folds 4, 6 and 9 diverge, in the first run and in later ones
        ("diverging-folds", _far_point(blobs, 7), MulticlassSpace(3, 2),
         SolverConfig(c1=1.0, c2=4.0, eta=1e5, max_iters=3, seed=SEED), 3),
        ("unlabeled-training-splits", _labeled_in(blobs, {0, 8}), MulticlassSpace(3, 2), cfg, 3),
        ("chain-hamming", chains, ChainSequenceSpace(3, 2), cfg, 4),
        ("taxonomy", taxo, TaxonomySpace(tree, 2), cfg, 3),
    ]


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _outputs(ds, space, cfg, k):
    """The report and trace files of ``cv`` and ``baseline``, and a sweep's CSV."""
    out = []
    for report in (ev.run_cv(ds, space, cfg, k=k, seed=SEED),
                   ev.run_baseline_supervised(ds, space, cfg, seed=SEED)):
        out += [ev.report_json(report), ev.folds_csv(report)]
        out += [ev.trace_csv(trace) for trace in report.traces]
    rows = ev.sweep("c2", [2.0, 4.0], ds, space, cfg, k=k, seed=SEED)
    return out + [ev.sweep_csv("c2", rows)]


def _spy_forks(monkeypatch):
    """The runs handed to forked children, as the parent forks them."""
    runs, fork = [], ev._fork

    def spying(one_fold, run):
        runs.append(run)
        return fork(one_fold, run)

    monkeypatch.setattr(ev, "_fork", spying)
    return runs


@pytest.mark.parametrize("name, ds, space, cfg, k", _cases(), ids=lambda v: v if
                         isinstance(v, str) else "")
@pytest.mark.parametrize("workers", [2, 3])
def test_forked_folds_write_the_serial_bytes(name, ds, space, cfg, k, workers, monkeypatch):
    monkeypatch.setattr(ev, "_workers", lambda count: 1)
    want = _outputs(ds, space, cfg, k)
    monkeypatch.setattr(ev, "_workers", lambda count: workers)
    runs = _spy_forks(monkeypatch)
    assert _outputs(ds, space, cfg, k) == want
    _assert_no_children()
    # two fold loops and two sweep values, each forking the later runs
    later = [run.tolist() for run in np.array_split(np.arange(1, 10), workers)[1:]]
    assert runs == later * 4


def test_the_cases_hold_diverging_folds_and_folds_without_a_labeled_point():
    cases = {name: (ds, space, cfg, k) for name, ds, space, cfg, k in _cases()}
    ds, space, cfg, k = cases["diverging-folds"]
    report = ev.run_cv(ds, space, cfg, k=k, seed=SEED)
    assert [f.fold for f in report.folds if f.diverged] == [4, 6, 9]
    ds, space, cfg, k = cases["unlabeled-training-splits"]
    report = ev.run_cv(ds, space, cfg, k=k, seed=SEED)
    unfit = [f.fold for f in report.folds if f.error]
    assert any(f <= 5 for f in unfit) and any(f >= 6 for f in unfit)
    _assert_no_children()


def _blob_run():
    ds = synth_blobs(classes=3, per_class=10, dim=2, spread=0.6, seed=SEED)
    return ds, MulticlassSpace(3, 2), SolverConfig(c1=1.0, c2=4.0, eta=0.05, max_iters=3,
                                                    seed=SEED)


def _fail_at(monkeypatch, failing, error):
    """``mask_labels`` raising ``error`` at the fold ``failing``."""
    real = ev.mask_labels

    def mask(ds, plan, run):
        if run == failing:
            raise error(f"fold {run} refused")
        return real(ds, plan, run)

    monkeypatch.setattr(ev, "mask_labels", mask)


@pytest.mark.parametrize("failing", [0, 2, 7])
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_an_error_in_a_fold_propagates_as_in_the_serial_run(failing, workers, monkeypatch):
    ds, space, cfg = _blob_run()
    _fail_at(monkeypatch, failing, ContractViolation)
    monkeypatch.setattr(ev, "_workers", lambda count: workers)
    with pytest.raises(ContractViolation, match=f"^fold {failing} refused$"):
        ev.run_cv(ds, space, cfg, k=3, seed=SEED)
    _assert_no_children()
    rows = ev.sweep("c1", [1.0, 2.0], ds, space, cfg, k=3, seed=SEED)
    assert [r.error for r in rows] == [f"fold {failing} refused"] * 2
    _assert_no_children()


def test_an_error_outside_the_package_stops_a_sweep_in_any_fold(monkeypatch):
    ds, space, cfg = _blob_run()
    _fail_at(monkeypatch, 8, RuntimeError)
    monkeypatch.setattr(ev, "_workers", lambda count: 2)
    with pytest.raises(RuntimeError, match="^fold 8 refused$"):
        ev.sweep("c1", [1.0, 2.0], ds, space, cfg, k=3, seed=SEED)
    _assert_no_children()


@pytest.mark.parametrize("how", ["exits 1", "is killed", "writes a short pickle",
                                 "writes one result too few", "writes no list",
                                 "exits 1 after writing"])
def test_a_failed_child_has_its_folds_fitted_again(how, monkeypatch):
    ds, space, cfg = _blob_run()
    monkeypatch.setattr(ev, "_workers", lambda count: 1)
    want = ev.report_json(ev.run_cv(ds, space, cfg, k=3, seed=SEED))
    parent, fitted = os.getpid(), []
    real = ev.mask_labels

    def mask(ds, plan, run):
        if os.getpid() == parent:
            fitted.append(run)
        elif how == "exits 1":
            os._exit(1)
        elif how == "is killed":
            os.kill(os.getpid(), signal.SIGKILL)
        return real(ds, plan, run)

    def bad_dump(results, out, protocol):
        data = pickle.dumps({"writes one result too few": results[:-1],
                             "writes no list": tuple(results)}.get(how, results), protocol)
        out.write(data[: len(data) // 2] if how == "writes a short pickle" else data)
        if how == "exits 1 after writing":
            out.flush()
            os._exit(1)

    monkeypatch.setattr(ev, "mask_labels", mask)
    monkeypatch.setattr(pickle, "dump", bad_dump)
    monkeypatch.setattr(ev, "_workers", lambda count: 2)
    runs = _spy_forks(monkeypatch)
    assert ev.report_json(ev.run_cv(ds, space, cfg, k=3, seed=SEED)) == want
    assert runs == [[6, 7, 8, 9]]
    assert fitted == list(range(10))  # the child's folds again, in the parent
    _assert_no_children()


def test_an_interrupt_in_the_parent_leaves_no_child(monkeypatch):
    ds, space, cfg = _blob_run()
    _fail_at(monkeypatch, 2, KeyboardInterrupt)
    monkeypatch.setattr(ev, "_workers", lambda count: 3)
    runs = _spy_forks(monkeypatch)
    with pytest.raises(KeyboardInterrupt):
        ev.run_cv(ds, space, cfg, k=3, seed=SEED)
    assert runs == [[4, 5, 6], [7, 8, 9]]
    _assert_no_children()


def test_an_error_after_the_children_finished_propagates(monkeypatch):
    ds, space, cfg = _blob_run()
    parent, real = os.getpid(), ev.mask_labels

    def mask(ds, plan, run):
        if run == 4 and os.getpid() == parent:
            deadline = time.monotonic() + 60
            # until the child has exited, left unreaped
            while os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOWAIT | os.WNOHANG) is None:
                assert time.monotonic() < deadline, "the child did not finish"
                time.sleep(0.001)
            raise ContractViolation("fold 4 refused")
        return real(ds, plan, run)

    monkeypatch.setattr(ev, "mask_labels", mask)
    monkeypatch.setattr(ev, "_workers", lambda count: 2)
    with pytest.raises(ContractViolation, match="^fold 4 refused$"):
        ev.run_cv(ds, space, cfg, k=3, seed=SEED)
    _assert_no_children()


def test_a_failed_fork_leaves_the_folds_to_the_parent(monkeypatch):
    ds, space, cfg = _blob_run()
    want = ev.report_json(ev.run_cv(ds, space, cfg, k=3, seed=SEED))

    def no_fork():
        raise OSError("no process")

    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(ev, "_workers", lambda count: 3)
    assert ev.report_json(ev.run_cv(ds, space, cfg, k=3, seed=SEED)) == want
    _assert_no_children()


def test_the_loop_stays_serial_while_another_thread_runs():
    assert 1 <= ev._workers(10) <= 10
    assert ev._workers(1) == 1
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert ev._workers(10) == 1
    finally:
        stop.set()
        waiter.join(timeout=10)
    assert not waiter.is_alive()
