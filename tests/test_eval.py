from dataclasses import replace

import numpy as np
import pytest

import semistruct.evaluate as ev
from semistruct import (
    ContractViolation,
    Dataset,
    MulticlassSpace,
    SolverConfig,
    TaxonomySpace,
    asl,
    build_knn_graph,
    fit,
    three_level_taxonomy,
)
from semistruct import graph
from semistruct.data_io import make_folds, synth_blobs
from semistruct.graph import NeighborGraph


@pytest.fixture(scope="module")
def blob_setup():
    ds = synth_blobs(classes=4, per_class=10, dim=3, spread=0.6, seed=21)
    space = MulticlassSpace(4, 3)
    cfg = SolverConfig(c1=1.0, c2=4.0, eta=0.05, max_iters=8, seed=21)
    return ds, space, cfg


def test_asl_all_correct_is_zero(multiclass_space):
    assert asl([0, 1, 2], [0, 1, 2], multiclass_space) == 0.0


def test_asl_zero_one_mean(multiclass_space):
    preds, truths = [0, 0, 1, 1], [0, 1, 0, 1]
    assert asl(preds, truths, multiclass_space) == 0.5


def test_asl_taxonomy_mean_of_tree_losses():
    space = TaxonomySpace(three_level_taxonomy(), 2)
    # losses 1 (same branch) and 2 (cross branch) average to 1.5
    assert asl([5, 9], [4, 4], space) == 1.5


def test_asl_rejects_empty_and_mismatched(multiclass_space):
    with pytest.raises(ContractViolation):
        asl([], [], multiclass_space)
    with pytest.raises(ContractViolation):
        asl([0], [0, 1], multiclass_space)


# --- run_cv ------------------------------------------------------------------------


def test_run_cv_produces_ten_folds(blob_setup):
    ds, space, cfg = blob_setup
    report = ev.run_cv(ds, space, cfg, k=3, seed=21)
    assert [f.fold for f in report.folds] == list(range(10))
    assert report.folds_diverged == 0
    for f in report.folds:
        assert 0.0 <= f.test_asl <= 1.0
        assert 0.0 <= f.transductive_asl <= 1.0
    assert len(report.traces) == 10
    assert all(len(t) == cfg.max_iters + 1 for t in report.traces)


def test_run_cv_report_is_deterministic(blob_setup):
    ds, space, cfg = blob_setup
    a = ev.run_cv(ds, space, cfg, k=3, seed=21)
    b = ev.run_cv(ds, space, cfg, k=3, seed=21)
    assert ev.report_json(a) == ev.report_json(b)
    assert a.traces == b.traces


def test_run_cv_never_hands_masked_truth_to_the_solver(blob_setup, monkeypatch):
    ds, space, cfg = blob_setup
    plan = make_folds(ds, seed=21)
    solver_views = []
    real_fit = ev.fit

    def spying_fit(train_ds, g, sp, c, **kw):
        solver_views.append(train_ds)
        return real_fit(train_ds, g, sp, c, **kw)

    monkeypatch.setattr(ev, "fit", spying_fit)
    monkeypatch.setattr(ev, "_workers", lambda count: 1)  # every fit in this process
    ev.run_cv(ds, space, cfg, k=3, seed=21)

    assert len(solver_views) == 10
    for run, train_ds in enumerate(solver_views):
        keep = set(plan.labeled_folds[run])
        expected_labeled = [
            p.y for p in ds.points
            if plan.fold_of[p.id] != run and plan.fold_of[p.id] in keep
        ]
        got_labeled = [p.y for p in train_ds.points if p.y is not None]
        assert got_labeled == expected_labeled
        masked = [p for p in train_ds.points if p.y is None]
        assert masked, "every run must contain masked points"
        assert all(p.y is None for p in masked)


def test_run_cv_requires_valid_dataset(blob_setup):
    _, space, cfg = blob_setup
    bad = synth_blobs(4, 10, 3, 0.5, seed=1)
    bad = type(bad)(bad.points, space_id="taxonomy")
    with pytest.raises(ContractViolation):
        ev.run_cv(bad, space, cfg)


def test_an_invalid_dataset_error_names_five_problems_and_counts_the_rest(blob_setup):
    _, _, cfg = blob_setup  # 40 points of width 3 against a width-2 space
    with pytest.raises(ContractViolation) as e:
        ev.run_cv(synth_blobs(4, 10, 3, 0.5, seed=1), MulticlassSpace(4, 2), cfg)
    assert str(e.value) == "invalid dataset: " + "; ".join(
        [f"id {i}: input dimension 3 differs from 2" for i in range(5)] + ["and 35 more"])


def test_run_cv_records_divergence_and_continues(blob_setup):
    ds, space, _ = blob_setup
    cfg = SolverConfig(eta=1e200, max_iters=30, seed=21)
    report = ev.run_cv(ds, space, cfg, k=3, seed=21)
    assert report.folds_diverged == 10
    assert all(f.test_asl is None for f in report.folds)
    assert report.mean_test_asl is None
    assert report.failure == "all 10 folds diverged"
    # partial traces still recorded
    assert all(len(t) >= 1 for t in report.traces)


# --- baseline ---------------------------------------------------------------------


def test_baseline_report_shape_matches_cv(blob_setup):
    ds, space, cfg = blob_setup
    a = ev.run_cv(ds, space, cfg, k=3, seed=21)
    b = ev.run_baseline_supervised(ds, space, cfg, seed=21)
    assert set(a.to_dict()) == set(b.to_dict())
    assert [f.fold for f in b.folds] == list(range(10))
    for f in b.folds:
        assert f.test_asl >= 0.0
        assert f.transductive_asl >= 0.0


def test_manifold_term_does_not_move_fully_labeled_fit(blob_setup):
    # on fully labeled data the slack outputs are pinned, so the edge terms
    # are a constant shift and the learned weights must coincide
    ds, space, cfg = blob_setup
    g = build_knn_graph(ds, k=3)
    with_graph = fit(ds, g, space, cfg)
    without = fit(ds, NeighborGraph.empty(len(ds.points)), space, cfg)
    assert np.array_equal(with_graph.w, without.w)
    xs = [p.x for p in ds.points]
    assert [space.argmax_score(with_graph.w, x) for x in xs] == [
        space.argmax_score(without.w, x) for x in xs
    ]


def test_baseline_trains_on_labeled_folds_only(blob_setup, monkeypatch):
    ds, space, cfg = blob_setup
    seen = []
    real_fit = ev.fit

    def spying_fit(train_ds, g, sp, c, **kw):
        seen.append((len(train_ds.points), len(g.src)))
        return real_fit(train_ds, g, sp, c, **kw)

    monkeypatch.setattr(ev, "fit", spying_fit)
    monkeypatch.setattr(ev, "_workers", lambda count: 1)  # every fit in this process
    ev.run_baseline_supervised(ds, space, cfg, seed=21)
    assert len(seen) == 10
    for n_points, n_edges in seen:
        assert n_edges == 0
        assert n_points == 8  # two folds of four from the 40-point set


# --- sweep and trace export ----------------------------------------------------------


def test_sweep_emits_one_row_per_value(blob_setup):
    ds, space, cfg = blob_setup
    rows = ev.sweep("c1", [0.1, 1.0, 10.0], ds, space, cfg, k=3, seed=21)
    assert [r.value for r in rows] == [0.1, 1.0, 10.0]
    assert all(r.error is None for r in rows)
    assert all(0.0 <= r.mean_test_asl <= 1.0 for r in rows)


def test_sweep_single_value_equals_run_cv(blob_setup):
    ds, space, cfg = blob_setup
    rows = ev.sweep("c2", [cfg.c2], ds, space, cfg, k=3, seed=21)
    direct = ev.run_cv(ds, space, cfg, k=3, seed=21)
    assert rows[0].mean_test_asl == direct.mean_test_asl


def test_sweep_records_per_value_failures(blob_setup):
    ds, space, cfg = blob_setup
    rows = ev.sweep("c1", [-1.0, 1.0], ds, space, cfg, k=3, seed=21)
    assert rows[0].error is not None
    assert rows[0].mean_test_asl is None
    assert rows[1].error is None


def test_sweep_records_all_diverged_value(blob_setup):
    ds, space, cfg = blob_setup
    rows = ev.sweep("c1", [1.0], ds, space, replace(cfg, eta=1e200), k=3, seed=21)
    assert rows[0].mean_test_asl is None
    assert rows[0].error == "all 10 folds diverged"


def test_sweep_rejects_unknown_parameter(blob_setup):
    ds, space, cfg = blob_setup
    with pytest.raises(ContractViolation):
        ev.sweep("eta", [0.1], ds, space, cfg)
    with pytest.raises(ContractViolation):
        ev.sweep("c1", [], ds, space, cfg)


def test_a_bad_seed_or_too_few_points_fails_the_whole_sweep(blob_setup):
    ds, space, cfg = blob_setup
    with pytest.raises(ContractViolation, match="^seed must be a non-negative integer, got -1$"):
        ev.sweep("c1", [0.5, 5.0], ds, space, cfg, k=3, seed=-1)
    few = synth_blobs(classes=2, per_class=3, dim=space.input_dim, spread=0.5, seed=0)
    with pytest.raises(ContractViolation, match="^need at least 10 points, got 6$"):
        ev.sweep("c1", [0.5, 5.0], few, MulticlassSpace(2, space.input_dim), cfg, k=2)


def test_trace_csv_rows_and_component_sum(blob_setup):
    ds, space, cfg = blob_setup
    g = build_knn_graph(ds, k=3)
    masked = type(ds)(
        tuple(
            type(p)(p.id, p.x, p.y if p.id % 2 == 0 else None) for p in ds.points
        ),
        ds.space_id,
    )
    state = fit(masked, g, space, cfg)
    text = ev.trace_csv(state.trace)
    lines = text.strip().split("\n")
    assert lines[0] == "iteration,manifold,loss,regularizer,objective"
    assert len(lines) == cfg.max_iters + 2  # header + init row + one per iteration
    for line in lines[1:]:
        it, m, l, r, o = line.split(",")
        assert abs(float(o) - (float(m) + cfg.c1 * float(l) + cfg.c2 * float(r))) < 1e-9


def test_report_json_excludes_timing(blob_setup):
    ds, space, cfg = blob_setup
    report = ev.run_cv(ds, space, cfg, k=3, seed=21)
    assert "seconds" not in ev.report_json(report)


def test_perfect_predictor_scores_zero_on_every_space(hamming_chain_space):
    rng = np.random.default_rng(97)
    taxo = TaxonomySpace(three_level_taxonomy(), 2)
    multi = MulticlassSpace(5, 2)
    for space in (multi, taxo, hamming_chain_space):
        truths = []
        for _ in range(20):
            x = (
                rng.standard_normal((3, 1))
                if space.kind == "chain"
                else rng.standard_normal(2)
            )
            truths.append(space.random_output(x, rng))
        assert asl(truths, list(truths), space) == 0.0


def test_run_cv_on_fixed_length_chains():
    from semistruct import ChainSequenceSpace
    from semistruct.data_io import synth_chains

    ds = synth_chains(2, (3, 3), count=30, dim=2, seed=31)
    space = ChainSequenceSpace(2, 2, loss="hamming")
    cfg = SolverConfig(c1=0.2, c2=4.0, eta=0.05, max_iters=3, seed=31)
    report = ev.run_cv(ds, space, cfg, k=2, seed=31)
    assert report.folds_diverged == 0
    assert len(report.folds) == 10
    for f in report.folds:
        assert f.test_asl >= 0.0
        assert f.transductive_asl >= 0.0


def test_run_cv_on_taxonomy_blobs():
    from semistruct.data_io import synth_taxonomy_blobs

    tree = three_level_taxonomy()
    ds = synth_taxonomy_blobs(tree, per_leaf=3, dim=3, spread=0.2, seed=33)
    space = TaxonomySpace(tree, 3)
    cfg = SolverConfig(c1=0.2, c2=4.0, eta=0.05, max_iters=3, seed=33)
    report = ev.run_cv(ds, space, cfg, k=3, seed=33)
    assert report.folds_diverged == 0
    root_height = tree.heights[tree.root]
    for f in report.folds:
        assert 0.0 <= f.test_asl <= root_height


def test_sweep_propagates_programming_errors(blob_setup, monkeypatch):
    ds, space, cfg = blob_setup

    def broken_fit(*args, **kwargs):
        raise TypeError("a bug, not a bad setting")

    monkeypatch.setattr(ev, "fit", broken_fit)
    with pytest.raises(TypeError):
        ev.sweep("c1", [1.0], ds, space, cfg)


def test_cv_and_a_sweep_search_the_whole_set_once(blob_setup, monkeypatch):
    ds, space, cfg = blob_setup
    searches = []
    search = graph.k_nearest

    def counted(Q, R, k, skip_self=False):
        if skip_self:
            searches.append((len(Q), k))
        return search(Q, R, k, skip_self)

    monkeypatch.setattr(graph, "k_nearest", counted)
    monkeypatch.setattr(ev, "_workers", lambda count: 1)  # every fit in this process
    ev.run_cv(ds, space, cfg, k=3, seed=21)
    assert searches == [(len(ds), 6)]
    searches.clear()
    rows = ev.sweep("c1", [0.5, 1.0, 2.0], ds, space, cfg, k=3, seed=21)
    assert searches == [(len(ds), 6)] and len(rows) == 3


class _PerFoldGraphs:
    """Fold graphs as one ``build_knn_graph`` per training split."""

    def __init__(self, inputs, k):
        self.k = k

    def graph(self, ids, sub, sigma=None):
        return build_knn_graph(sub, self.k, sigma)


def _cv_cases():
    """``(name, dataset, k, sigma)``: a valid set, a set holding a point too
    far for squared distances in the first test fold and in a later one,
    ``k = 0`` and a ``sigma`` too small for any edge weight."""
    base = synth_blobs(classes=3, per_class=10, dim=2, spread=0.6, seed=23)
    fold_of = np.asarray(make_folds(base, 23).fold_of)
    cases = [("blobs", base, 3, None)]
    for name, fold in (("far-point-first-test-fold", 0), ("far-point-later-fold", 6)):
        X = np.array(base.inputs)
        X[np.flatnonzero(fold_of == fold)[0]] = 1e200
        cases.append((name, Dataset.from_arrays(X, base.outputs), 3, None))
    return cases + [("k=0", base, 0, None), ("tiny-sigma", base, 3, 1e-300)]


@pytest.mark.parametrize("name, ds, k, sigma", _cv_cases(), ids=lambda v: v if
                         isinstance(v, str) else "")
def test_cv_and_sweep_answer_as_with_one_search_per_fold(name, ds, k, sigma, monkeypatch):
    space = MulticlassSpace(3, 2)
    cfg = SolverConfig(c1=1.0, c2=4.0, eta=0.05, max_iters=3, seed=23)

    def outcome():
        try:
            report = ev.report_json(ev.run_cv(ds, space, cfg, k=k, sigma=sigma, seed=23))
        except ContractViolation as e:
            report = f"{type(e).__name__}: {e}"
        rows = ev.sweep("c2", [2.0, 4.0], ds, space, cfg, k=k, sigma=sigma, seed=23)
        return report, ev.sweep_csv("c2", rows)

    got = outcome()
    monkeypatch.setattr(ev, "SubsetGraphs", _PerFoldGraphs)
    assert got == outcome()
