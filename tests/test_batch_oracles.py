"""Whole-array oracles and sums against the per-point brute-force references.

Covers both finite label spaces on seeded random batches, on exact ties the
tie rule must settle (zero weights, equal-weight neighbors on two labels,
sibling leaves without neighbor mass) and on every pass of a short fit, and
the chain space, under both losses, on batches that mix sequence lengths and
on exact ties.
"""

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataPoint,
    Dataset,
    MulticlassSpace,
    SolverConfig,
    TaxonomySpace,
    UnsupportedConfiguration,
    build_knn_graph,
    initialize,
    manifold_term,
    three_level_taxonomy,
    update_slack,
    update_upsilon,
    update_weights,
)
from semistruct.data_io import synth_blobs, synth_taxonomy_blobs
from semistruct.graph import neighbor_terms_for

from . import oracles


def _spaces():
    return [MulticlassSpace(5, 3), TaxonomySpace(three_level_taxonomy(), 2)]


def _flatten(neighbors):
    """Per-point ``(weight, output)`` lists as the ``(owner, weight, outputs)``
    triple of the whole-array slack oracle."""
    owner = [i for i, nb in enumerate(neighbors) for _ in nb]
    weight = [omega for nb in neighbors for omega, _ in nb]
    outputs = [z for nb in neighbors for _, z in nb]
    return owner, weight, outputs


def _check_oracles(space, w, X, zs, ups, neighbors, c1):
    assert space.argmax_score_all(w, X).tolist() == [
        oracles.brute_argmax_score(space, w, x) for x in X
    ]
    assert space.argmax_loss_augmented_all(w, X, zs).tolist() == [
        oracles.brute_argmax_loss_augmented(space, w, x, z)[0] for x, z in zip(X, zs)
    ]
    assert space.argmin_slack_all(w, X, ups, _flatten(neighbors), c1).tolist() == [
        oracles.brute_argmin_slack(space, w, x, u, nb, c1)
        for x, u, nb in zip(X, ups, neighbors)
    ]


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: s.kind)
def test_whole_array_oracles_match_brute_force(space):
    rng = np.random.default_rng(211)
    labels = list(space.outputs())

    def draw(size):
        return [labels[int(i)] for i in rng.integers(len(labels), size=size)]

    for _ in range(30):
        n = int(rng.integers(1, 12))
        X = rng.standard_normal((n, space.input_dim))
        w = rng.standard_normal(space.dim)
        neighbors = [
            list(zip(rng.uniform(0.1, 1.0, size=m).tolist(), draw(m)))
            for m in rng.integers(0, 5, size=n)
        ]
        c1 = float(rng.uniform(0.2, 3.0))
        _check_oracles(space, w, X, draw(n), draw(n), neighbors, c1)


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: s.kind)
def test_whole_array_sums_match_brute_force(space):
    rng = np.random.default_rng(223)
    labels = list(space.outputs())
    n = 25
    points = [DataPoint(i, rng.standard_normal(space.input_dim)) for i in range(n)]
    X = np.stack([p.x for p in points])
    ups = [labels[int(i)] for i in rng.integers(len(labels), size=n)]
    z = [labels[int(i)] for i in rng.integers(len(labels), size=n)]
    z[:5] = ups[:5]  # some equal pairs
    w = rng.standard_normal(space.dim)

    diff = space.phi_diff_sum(X, ups, z)
    looped = sum(space.phi(x, u) - space.phi(x, zi) for x, u, zi in zip(X, ups, z))
    assert np.allclose(diff, looped, rtol=0.0, atol=1e-12)
    bound = float(np.dot(w, diff)) + space.delta_sum(ups, z)
    assert 2.0 * bound + 0.75 * float(np.dot(w, w)) == pytest.approx(
        oracles.weight_subproblem_value(space, points, ups, z, w, 2.0, 1.5), rel=1e-12
    )

    g = build_knn_graph(Dataset(tuple(points)), k=4)
    assert manifold_term(g, z, space) == pytest.approx(
        oracles.naive_manifold_term(g, z, space), rel=1e-12
    )


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: s.kind)
def test_zero_weights_break_ties_toward_the_first_label(space):
    rng = np.random.default_rng(227)
    labels = list(space.outputs())
    X = rng.standard_normal((len(labels), space.input_dim))
    w = np.zeros(space.dim)
    assert space.argmax_score_all(w, X).tolist() == [labels[0]] * len(labels)
    # every label as the reference and as upsilon, without neighbors
    _check_oracles(space, w, X, labels, labels, [[] for _ in labels], 1.0)


def test_equal_weight_neighbors_on_two_labels_tie():
    # with upsilon on a third label and a small c1, the two neighbor labels
    # tie for the minimum and the smaller one wins, whatever the term order
    tree = three_level_taxonomy()
    cases = [
        (MulticlassSpace(5, 3), 1, 3, 4),
        (TaxonomySpace(tree, 2), 4, 5, 9),  # siblings 4 and 5; 9 in another branch
    ]
    for space, a, b, ups in cases:
        x = np.ones(space.input_dim)
        w = np.zeros(space.dim)
        for nb in ([(0.5, a), (0.5, b)], [(0.5, b), (0.5, a)]):
            assert oracles.brute_argmin_slack(space, w, x, ups, nb, 0.25) == a
            _check_oracles(space, w, x[None], [ups], [ups], [nb], 0.25)
            assert space.argmin_slack(w, x, ups, nb, 0.25) == a


def test_sibling_leaves_without_neighbor_mass_tie():
    # weights only on the root and branch blocks: leaves under one branch
    # score alike, and with neighbor mass only under another branch they
    # stay tied in the slack cost too
    tree = three_level_taxonomy()
    space = TaxonomySpace(tree, 2)
    d = space.input_dim
    x = np.array([1.0, 0.5])
    w = np.zeros(space.dim)
    w[:d] = 0.3  # root
    w[d : 2 * d] = 2.0  # branch 0 (node 1)
    w[2 * d : 3 * d] = -1.0  # branch 1 (node 2)
    branch0 = [leaf for leaf in tree.leaves if tree.parents[leaf] == 1]
    branch2 = [leaf for leaf in tree.leaves if tree.parents[leaf] == 3]
    neighbors = [(0.25, branch2[1]), (0.25, branch2[3])]
    assert space.argmax_score(w, x) == branch0[0]
    assert space.argmin_slack(w, x, branch2[0], neighbors, 1.0) == branch0[0]
    _check_oracles(space, w, x[None], [branch2[0]], [branch2[0]], [neighbors], 1.0)
    _check_oracles(space, w, np.stack([x, -x]), branch0[:2], branch2[:2],
                   [neighbors, []], 0.5)


def _masked(ds, every):
    return Dataset(
        tuple(DataPoint(p.id, p.x, p.y if p.id % every == 0 else None) for p in ds.points),
        ds.space_id,
    )


@pytest.mark.parametrize("kind", ["multiclass", "taxonomy"])
def test_fit_passes_match_brute_force_every_iteration(kind):
    if kind == "multiclass":
        ds = _masked(synth_blobs(classes=4, per_class=12, dim=3, spread=0.5, seed=3), 4)
        space = MulticlassSpace(4, 3)
    else:
        tree = three_level_taxonomy()
        ds = _masked(synth_taxonomy_blobs(tree, 4, 3, 0.8, seed=4), 3)
        space = TaxonomySpace(tree, 3)
    g = build_knn_graph(ds, k=4)
    cfg = SolverConfig(c1=0.5, c2=4.0, eta=0.05, max_iters=6, seed=1)
    state = initialize(ds, g, space, cfg)
    for _ in range(cfg.max_iters):
        state.upsilon = update_upsilon(state, ds, space, cfg)
        assert state.upsilon.tolist() == [
            oracles.brute_argmax_loss_augmented(space, state.w, p.x, state.z[p.id])[0]
            for p in ds.points
        ]
        z = update_slack(state, ds, g, space, cfg)
        for p in ds.points:
            if p.y is not None:
                assert z[p.id] == p.y
                continue
            neighbors = [(omega, state.z[j]) for omega, j in neighbor_terms_for(g, p.id)]
            assert z[p.id] == oracles.brute_argmin_slack(
                space, state.w, p.x, state.upsilon[p.id], neighbors, cfg.c1
            )
        state.z = z
        state.w = update_weights(state, ds, space, cfg)
        state.iteration += 1


def _chain_draw(rng, space, length):
    return tuple(int(v) for v in rng.integers(space.num_labels, size=length))


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_chain_whole_array_oracles_match_brute_force(loss):
    # lengths 1-5 interleaved, so every batch spans several length groups
    rng = np.random.default_rng(229)
    space = ChainSequenceSpace(3, 2, loss=loss)
    for _ in range(6):
        lengths = rng.integers(1, 6, size=int(rng.integers(1, 10)))
        X = [rng.standard_normal((int(t), space.input_dim)) for t in lengths]
        w = rng.standard_normal(space.dim)
        zs = [_chain_draw(rng, space, len(x)) for x in X]
        ups = [_chain_draw(rng, space, len(x)) for x in X]
        neighbors = [
            [(float(rng.uniform(0.1, 1.0)), _chain_draw(rng, space, len(x)))
             for _ in range(int(rng.integers(0, 4)))]
            for x in X
        ]
        _check_oracles(space, w, X, zs, ups, neighbors, 0.7)


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_chain_ties_break_toward_the_smallest_sequence(loss):
    space = ChainSequenceSpace(3, 1, loss=loss)
    w = np.zeros(space.dim)
    X = [np.ones((t, 1)) for t in (3, 1, 2, 3)]
    assert space.argmax_score_all(w, X).tolist() == [(0,) * len(x) for x in X]
    # every candidate ties in score; without neighbors only upsilon and z decide
    zs = [(2, 1, 0), (1,), (0, 0), (1, 1, 1)]
    _check_oracles(space, w, X, zs, zs, [[] for _ in X], 1.0)
    # equal-weight neighbors on two outputs and upsilon on a third label: the
    # two neighbor outputs tie (under Hamming loss, their labels tie at every
    # position) and the smaller wins, whatever the term order
    a, b, ups = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    smallest = (0, 1, 0) if loss == "hamming" else a
    for nb in ([(0.5, a), (0.5, b)], [(0.5, b), (0.5, a)]):
        assert space.argmin_slack(w, X[0], ups, nb, 0.25) == smallest
        _check_oracles(space, w, X[:1] * 2, [ups, a], [ups, ups], [nb, nb[::-1]], 0.25)


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_chain_whole_array_forms_reject_wrong_lengths(loss):
    space = ChainSequenceSpace(2, 1, loss=loss)
    w = np.zeros(space.dim)
    X = [np.zeros((3, 1)), np.zeros((2, 1))]
    good = [(0, 1, 0), (1, 1)]
    assert len(space.argmax_loss_augmented_all(w, X, good)) == 2
    assert len(space.argmin_slack_all(w, X, good, ([0, 1], [0.5, 0.5], good), 1.0)) == 2
    with pytest.raises(ContractViolation):
        space.argmax_loss_augmented_all(w, X, [(0, 1, 0), (1, 1, 0)])
    with pytest.raises(ContractViolation):
        space.argmin_slack_all(w, X, [(0, 1), (1, 1)], ([], [], []), 1.0)
    with pytest.raises(ContractViolation):
        space.argmin_slack_all(w, X, good, ([0, 1], [0.5, 0.5], [(0, 1, 0), (1, 1, 0)]), 1.0)
    with pytest.raises(ContractViolation):
        space.argmin_slack_all(w, X, good, ([], [], []), 0.0)


def test_chain_zero_one_whole_array_forms_reject_above_cap():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    w = np.zeros(space.dim)
    X = [np.zeros((2, 1)), np.zeros((13, 1))]  # 4 and 8192 candidates
    ys = [(0, 0), (0,) * 13]
    with pytest.raises(UnsupportedConfiguration):
        space.argmax_loss_augmented_all(w, X, ys)
    with pytest.raises(UnsupportedConfiguration):
        space.argmin_slack_all(w, X, ys, ([], [], []), 1.0)
    assert space.argmax_score_all(w, X).tolist() == [(0, 0), (0,) * 13]
