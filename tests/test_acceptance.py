"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
complete. The synthetic-data criteria share one fixed dataset: 8 Gaussian
blobs with unit-separated means, 400 points in 8 dimensions, seed 42.
"""

import time

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    MulticlassSpace,
    SolverConfig,
    TaxonomySpace,
    build_knn_graph,
    three_level_taxonomy,
)
import semistruct.evaluate as ev
from semistruct.cli import main as cli_main
from semistruct.core import DataPoint, Dataset
from semistruct.data_io import synth_blobs
from semistruct.graph import neighbor_terms
from semistruct.solver import (
    fit,
    initialize,
    update_slack,
    update_upsilon,
    update_weights,
)

from . import oracles
from .conftest import random_chain_instance

DATA_SEED = 42
SPREAD = 0.22
DIM = 8
K = 10
BASE = dict(c1=0.05, c2=10.0, eta=0.01, seed=DATA_SEED)


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number}] {status} {description} {detail}")
    assert ok, f"criterion {number} failed: {description} {detail}"


def _blobs():
    return synth_blobs(classes=8, per_class=50, dim=DIM, spread=SPREAD, seed=DATA_SEED)


def _mask_fraction(ds, frac, seed):
    rng = np.random.default_rng((seed, 999))
    keep = set(rng.permutation(len(ds.points))[: int(round(frac * len(ds.points)))].tolist())
    points = tuple(
        DataPoint(p.id, p.x, p.y if p.id in keep else None) for p in ds.points
    )
    return Dataset(points, ds.space_id)


def _assert_labeled_pinned(ds, state):
    for p in ds.points:
        if p.y is not None:
            assert state.z[p.id] == p.y, f"labeled constraint broken at id {p.id}"


def test_criterion_1_bound_sandwich():
    rng = np.random.default_rng(1001)
    spaces = [
        MulticlassSpace(6, 5),
        TaxonomySpace(three_level_taxonomy(), 4),
        ChainSequenceSpace(3, 2, loss="hamming"),
    ]
    start = time.perf_counter()
    checked = 0
    for space in spaces:
        for _ in range(1000):
            if space.kind == "chain":
                x = rng.standard_normal((int(rng.integers(1, 6)), space.input_dim))
            else:
                x = rng.standard_normal(space.input_dim)
            w = rng.standard_normal(space.dim)
            z = space.random_output(x, rng)
            _, value = space.argmax_loss_augmented(w, x, z)
            best = space.argmax_score(w, x)
            floor = space.delta(best, z)
            assert value >= floor >= 0.0
            checked += 1
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "loss-augmented value at the maximizer bounds the prediction loss",
        checked == 3000 and elapsed < 10.0,
        f"({checked} triples in {elapsed:.1f}s)",
    )


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_criterion_2_chain_oracles_match_enumeration(loss):
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    for _ in range(200):
        space, x = random_chain_instance(rng, max_labels=3, max_len=5, loss=loss)
        w = rng.standard_normal(space.dim)
        z = space.random_output(x, rng)
        assert space.argmax_score(w, x) == oracles.brute_argmax_score(space, w, x)
        assert space.argmax_loss_augmented(w, x, z) == (
            oracles.brute_argmax_loss_augmented(space, w, x, z)
        )
        upsilon = space.random_output(x, rng)
        neighbors = [
            (float(rng.uniform(0.1, 1.0)), space.random_output(x, rng))
            for _ in range(int(rng.integers(0, 4)))
        ]
        c1 = float(rng.uniform(0.2, 3.0))
        assert oracles.argmin_slack(space, w, x, upsilon, neighbors, c1) == (
            oracles.brute_argmin_slack(space, w, x, upsilon, neighbors, c1)
        )
    elapsed = time.perf_counter() - start
    _criterion(
        2,
        f"chain dynamic programs equal exhaustive enumeration ({loss} loss)",
        elapsed < 30.0,
        f"(200 instances in {elapsed:.1f}s)",
    )


def test_criterion_3_gradient_matches_finite_differences():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(20):
        c = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        space = MulticlassSpace(c, d)
        points = [DataPoint(i, rng.standard_normal(d), None) for i in range(n)]
        ups = [int(v) for v in rng.integers(c, size=n)]
        z = [int(v) for v in rng.integers(c, size=n)]
        w = rng.standard_normal(space.dim)
        c1 = float(rng.uniform(0.5, 3.0))
        c2 = float(rng.uniform(0.5, 3.0))
        analytic = c2 * w
        for p, u, zi in zip(points, ups, z):
            analytic = analytic + c1 * (space.phi(p.x, u) - space.phi(p.x, zi))
        numeric = oracles.central_difference_gradient(
            lambda v: oracles.weight_subproblem_value(space, points, ups, z, v, c1, c2),
            w,
        )
        rel = float(np.linalg.norm(analytic - numeric)) / max(
            float(np.linalg.norm(analytic)), 1e-12
        )
        worst = max(worst, rel)
    _criterion(
        3,
        "analytic weight gradient matches central differences",
        worst < 1e-6,
        f"(worst relative error {worst:.2e})",
    )


class _DescentValues:
    """Criterion 4's objectives, bit-equal to ``oracles.slack_objective_value``
    and ``oracles.weight_subproblem_value``: the same float operations in the
    same order, with every point's ``phi`` rows, the loss table and the
    neighbor terms built once instead of per call. Multiclass labels are
    their own rows."""

    def __init__(self, ds, g, space):
        self.phi = [[oracles.phi(space, p.x, y) for y in space.labels] for p in ds.points]
        self.loss = [[oracles.delta(space, y, z) for z in space.labels] for y in space.labels]
        self.free = [p.id for p in ds.points if p.y is None]
        owner, neighbor, weight = neighbor_terms(g, self.free)
        ends = np.searchsorted(owner, np.arange(len(self.free) + 1)).tolist()
        neighbor, weight = neighbor.tolist(), weight.tolist()
        self.terms = [list(zip(weight[a:b], neighbor[a:b])) for a, b in zip(ends, ends[1:])]

    def slack(self, w, k, upsilon, z_nb, c1, y):
        """Slack objective of the ``k``-th unlabeled point at ``y``, its
        neighbors holding ``z_nb``."""
        acc = 0.0
        for omega, j in self.terms[k]:
            acc += omega * self.loss[y][z_nb[j]]
        i = self.free[k]
        return acc + c1 * (-float(np.dot(w, self.phi[i][y])) + self.loss[upsilon][y])

    def weight(self, w, upsilon, z, c1, c2):
        total = 0.0
        for rows, ups, zi in zip(self.phi, upsilon, z):
            total += float(np.dot(w, rows[ups] - rows[zi])) + self.loss[ups][zi]
        return c1 * total + 0.5 * c2 * float(np.dot(w, w))


def test_criterion_4_descent_properties():
    ds = _mask_fraction(_blobs(), 0.20, DATA_SEED)
    space = MulticlassSpace(8, DIM)
    g = build_knn_graph(ds, k=K)
    cfg = SolverConfig(c1=0.05, c2=10.0, eta=None, max_iters=50, seed=DATA_SEED)
    assert cfg.step_size == 1.0 / cfg.c2

    state = initialize(ds, g, space, cfg)
    values = _DescentValues(ds, g, space)
    slack_checks = weight_checks = 0
    for t in range(cfg.max_iters):
        state.upsilon = update_upsilon(state, ds, space, cfg)
        z_prev = list(state.z)
        state.z = update_slack(state, ds, g, space, cfg)
        for k, i in enumerate(values.free):
            before, after = (values.slack(state.w, k, state.upsilon[i], z_prev, cfg.c1, y)
                             for y in (z_prev[i], state.z[i]))
            assert after <= before
            slack_checks += 1
            if slack_checks % 50 == 0:  # a sample against the per-call reference
                neighbors = [(w_, z_prev[j]) for w_, j in oracles.neighbor_terms_for(g, i)]
                assert [before, after] == [
                    oracles.slack_objective_value(state.w, ds.points[i].x, state.upsilon[i],
                                                  neighbors, cfg.c1, y, space)
                    for y in (z_prev[i], state.z[i])]
        w_prev = state.w
        state.w = update_weights(state, ds, space, cfg)
        before, after = (values.weight(w, state.upsilon, state.z, cfg.c1, cfg.c2)
                         for w in (w_prev, state.w))
        assert after <= before
        if t % 10 == 0:
            assert [before, after] == [
                oracles.weight_subproblem_value(space, ds.points, state.upsilon, state.z, w,
                                                cfg.c1, cfg.c2)
                for w in (w_prev, state.w)]
        weight_checks += 1
        state.iteration += 1
        _assert_labeled_pinned(ds, state)
    _criterion(
        4,
        "per-point slack updates and weight steps never increase their objectives",
        slack_checks == 16000 and weight_checks == 50,
        f"({slack_checks} slack updates, {weight_checks} weight steps)",
    )


def test_criterion_5_convergence_shape():
    ds = _mask_fraction(_blobs(), 0.20, DATA_SEED)
    space = MulticlassSpace(8, DIM)
    g = build_knn_graph(ds, k=K)
    cfg = SolverConfig(max_iters=100, **BASE)
    start = time.perf_counter()
    seen = []
    state = fit(ds, g, space, cfg,
                on_iteration=lambda s: seen.append(_assert_labeled_pinned(ds, s)))
    elapsed = time.perf_counter() - start
    totals = [row.total for row in state.trace]
    assert len(totals) == 101
    tail = totals[-11:]
    rel_change = (max(tail) - min(tail)) / max(abs(totals[-1]), 1e-12)
    assert totals[0] > totals[-1]  # the bound actually came down
    _criterion(
        5,
        "objective trace flattens by iteration 100",
        rel_change < 1e-3 and elapsed < 60.0,
        f"(tail relative change {rel_change:.2e}, {elapsed:.1f}s)",
    )


def test_criterion_6_semi_supervised_benefit():
    ds = _blobs()
    space = MulticlassSpace(8, DIM)
    cfg = SolverConfig(max_iters=60, **BASE)
    start = time.perf_counter()
    semi = ev.run_cv(ds, space, cfg, k=K, seed=DATA_SEED)
    supervised = ev.run_baseline_supervised(ds, space, cfg, seed=DATA_SEED)
    elapsed = time.perf_counter() - start
    assert semi.folds_diverged == 0 and supervised.folds_diverged == 0
    wins = sum(
        1
        for a, b in zip(semi.folds, supervised.folds)
        if a.test_asl < b.test_asl
    )
    ok = (
        semi.mean_test_asl <= supervised.mean_test_asl
        and wins >= 7
        and elapsed < 300.0
    )
    _criterion(
        6,
        "graph-regularized runs beat the labeled-only baseline fold-wise",
        ok,
        f"(mean {semi.mean_test_asl:.3f} vs {supervised.mean_test_asl:.3f}, "
        f"{wins}/10 fold wins, {elapsed:.0f}s)",
    )


def test_criterion_7_tradeoff_sweep_stability():
    ds = _blobs()
    space = MulticlassSpace(8, DIM)
    base_cfg = SolverConfig(max_iters=40, **BASE)
    rows = ev.sweep(
        "c1", [0.1, 1.0, 10.0, 100.0, 1000.0], ds, space, base_cfg, k=K, seed=DATA_SEED
    )
    values = [r.mean_test_asl for r in rows]
    ok = (
        len(rows) == 5
        and all(r.error is None for r in rows)
        and all(0.0 <= v <= 1.0 for v in values)
        and max(values) - min(values) < 0.15
    )
    _criterion(
        7,
        "five-point tradeoff sweep completes with a narrow score band",
        ok,
        f"(ASL {['%.3f' % v for v in values]}, spread {max(values) - min(values):.3f})",
    )


def test_criterion_8_cv_runs_are_byte_identical(tmp_path):
    data_dir = tmp_path / "data"
    assert cli_main([
        "synth", "--space", "multiclass", "--classes", "4", "--per-class", "15",
        "--dim", "4", "--spread", "0.3", "--seed", "11", "--out", str(data_dir),
    ]) == 0
    flags = [
        "cv", "--data", str(data_dir / "data.jsonl"), "--space", "multiclass",
        "--c1", "0.1", "--c2", "10", "--eta", "0.01", "--iters", "5",
        "--k", "3", "--seed", "11",
    ]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(flags + ["--out", str(out_a)]) == 0
    assert cli_main(flags + ["--out", str(out_b)]) == 0
    names = ["report.json", "folds.csv"] + [f"trace_fold{i}.csv" for i in range(10)]
    identical = all(
        (out_a / name).read_bytes() == (out_b / name).read_bytes() for name in names
    )
    _criterion(
        8,
        "repeated cv runs produce byte-identical reports and traces",
        identical,
        f"({len(names)} files compared)",
    )


def test_criterion_9_labeled_outputs_pinned_everywhere(monkeypatch):
    ds = _blobs()
    space = MulticlassSpace(8, DIM)
    cfg = SolverConfig(max_iters=15, **BASE)
    violations = []
    real_fit = ev.fit

    def instrumented_fit(train_ds, g, sp, c, **kw):
        def check(state):
            for p in train_ds.points:
                if p.y is not None and state.z[p.id] != p.y:
                    violations.append((state.iteration, p.id))

        return real_fit(train_ds, g, sp, c, on_iteration=check, **kw)

    monkeypatch.setattr(ev, "fit", instrumented_fit)
    ev.run_cv(ds, space, cfg, k=K, seed=DATA_SEED)
    ev.run_baseline_supervised(ds, space, cfg, seed=DATA_SEED)
    _criterion(
        9,
        "labeled slack outputs equal their true outputs at every iteration",
        violations == [],
        f"({len(violations)} violations across 20 instrumented runs)",
    )
