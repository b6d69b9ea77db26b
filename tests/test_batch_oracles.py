"""Whole-array oracles and sums against the per-point brute-force references.

Covers both finite label spaces on seeded random batches, on exact ties the
tie rule must settle (zero weights, equal-weight neighbors on two labels,
sibling leaves without neighbor mass) and on every pass of a short fit, and
the chain space, under both losses, on batches that mix sequence lengths and
on exact ties.
"""

import tracemalloc

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
    build_knn_graph,
    initialize,
    manifold_term,
    three_level_taxonomy,
    update_slack,
    update_upsilon,
    update_weights,
)
from semistruct.data_io import synth_blobs, synth_taxonomy_blobs

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
    assert space.from_codes(space.argmax_score_all(w, X)) == [
        oracles.brute_argmax_score(space, w, x) for x in X
    ]
    brute = [oracles.brute_argmax_loss_augmented(space, w, x, z) for x, z in zip(X, zs)]
    assert space.from_codes(space.argmax_loss_augmented_all(w, X, zs)) == [y for y, _ in brute]
    # the value at the answer, also through the space's loss
    assert [space.argmax_loss_augmented(w, x, z) for x, z in zip(X, zs)] == brute
    assert space.from_codes(space.argmin_slack_all(w, X, ups, _flatten(neighbors), c1)) == [
        oracles.brute_argmin_slack(space, w, x, u, nb, c1)
        for x, u, nb in zip(X, ups, neighbors)
    ]


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: s.kind)
def test_whole_array_oracles_match_brute_force(space):
    rng = np.random.default_rng(211)
    labels = list(space.labels)

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
    labels = list(space.labels)
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
    labels = list(space.labels)
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
            assert oracles.argmin_slack(space, w, x, ups, nb, 0.25) == a


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
    assert oracles.argmin_slack(space, w, x, branch2[0], neighbors, 1.0) == branch0[0]
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
            neighbors = [(omega, state.z[j]) for omega, j in oracles.neighbor_terms_for(g, p.id)]
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
def test_chain_slack_answers_inputs_longer_than_every_neighbor_output(loss):
    # only the short chain has neighbor terms, so the neighbor codes are
    # narrower than the long chain
    rng = np.random.default_rng(239)
    space = ChainSequenceSpace(3, 2, loss=loss)
    X = [rng.standard_normal((t, 2)) for t in (2, 5)]
    w = rng.standard_normal(space.dim)
    ups = [_chain_draw(rng, space, len(x)) for x in X]
    neighbors = [[(0.5, _chain_draw(rng, space, 2)), (0.25, _chain_draw(rng, space, 2))], []]
    _check_oracles(space, w, X, ups, ups, neighbors, 0.7)


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_chain_ties_break_toward_the_smallest_sequence(loss):
    space = ChainSequenceSpace(3, 1, loss=loss)
    w = np.zeros(space.dim)
    X = [np.ones((t, 1)) for t in (3, 1, 2, 3)]
    assert space.from_codes(space.argmax_score_all(w, X)) == [(0,) * len(x) for x in X]
    # every candidate ties in score; without neighbors only upsilon and z decide
    zs = [(2, 1, 0), (1,), (0, 0), (1, 1, 1)]
    _check_oracles(space, w, X, zs, zs, [[] for _ in X], 1.0)
    # equal-weight neighbors on two outputs and upsilon on a third label: the
    # two neighbor outputs tie (under Hamming loss, their labels tie at every
    # position) and the smaller wins, whatever the term order
    a, b, ups = (0, 1, 2), (1, 2, 0), (2, 0, 1)
    smallest = (0, 1, 0) if loss == "hamming" else a
    for nb in ([(0.5, a), (0.5, b)], [(0.5, b), (0.5, a)]):
        assert oracles.argmin_slack(space, w, X[0], ups, nb, 0.25) == smallest
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


def test_chain_zero_one_whole_array_forms_answer_long_chains():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    w = np.zeros(space.dim)
    X = [np.zeros((2, 1)), np.zeros((13, 1))]  # 4 and 8192 candidates
    ys = [(0, 0), (0,) * 13]
    assert space.from_codes(space.argmax_loss_augmented_all(w, X, ys)) == [
        (0, 1), (0,) * 12 + (1,)]
    assert space.from_codes(space.argmin_slack_all(w, X, ys, ([], [], []), 1.0)) == ys
    assert space.from_codes(space.argmax_score_all(w, X)) == ys


_SLACK_SPACES = [MulticlassSpace(3, 2), ChainSequenceSpace(3, 2, loss="hamming"),
                 ChainSequenceSpace(3, 2, loss="zero-one")]


@pytest.mark.parametrize("bad", [3, -1], ids=["past-the-end", "negative"])
@pytest.mark.parametrize("space", _SLACK_SPACES,
                         ids=["multiclass", "chain-hamming", "chain-zero-one"])
def test_slack_refuses_a_neighbor_owner_outside_the_points(space, bad):
    rng = np.random.default_rng(233)
    shape = (3, 2) if space.kind == "multiclass" else (3, 4, 2)
    xs = rng.standard_normal(shape)
    ys = [space.random_output(x, rng) for x in xs]
    w = rng.standard_normal(space.dim)
    terms = ([0, bad, 1, 2 - bad], [0.5] * 4, ys + ys[:1])  # bad, then the other bad owner
    with pytest.raises(ContractViolation, match=f"^neighbor term owner {bad} is not an index"):
        space.argmin_slack_all(w, xs, ys, terms, 1.0)
    with pytest.raises(ContractViolation, match=f"owner {bad} "):
        space.argmin_slack_all(w, list(xs), ys, terms, 1.0)


def _mismatched_sums():
    """``(space, sum form, arguments, the two lengths)`` where the lengths
    differ; ``zip`` would truncate and numpy broadcast them."""
    mc, chain = MulticlassSpace(2, 2), ChainSequenceSpace(2, 2)
    X = np.zeros((2, 2))
    chains, X3 = [(0, 1), (1, 1)], np.zeros((2, 2, 2))
    cases = [
        (mc, "delta_sum", ([0, 1], [0]), (2, 1), "outputs"),
        (mc, "delta_sum", ([0, 1], [0, 1], [1.0]), (1, 2), "weights"),
        (mc, "phi_diff_sum", (X, [0], [1, 0]), (2, 1), "inputs"),
        (mc, "phi_diff_sum", (X, [0, 1], [1]), (2, 1), "outputs"),
        (chain, "delta_sum", (chains, [(0, 0)]), (2, 1), "outputs"),
        (chain, "delta_sum", (chains, chains, [1.0]), (1, 2), "weights"),
        (chain, "phi_diff_sum", (X3, chains[:1], chains), (2, 1), "inputs"),
        (chain, "phi_diff_sum", (X3, chains, chains[:1]), (2, 1), "outputs"),
    ]
    return [pytest.param(*case[:4], id=f"{case[0].kind}-{case[1]}-{case[4]}") for case in cases]


@pytest.mark.parametrize("space, form, args, lengths", _mismatched_sums())
def test_sums_refuse_lists_of_different_lengths(space, form, args, lengths):
    with pytest.raises(ContractViolation, match=r"have lengths {} and {}$".format(*lengths)):
        getattr(space, form)(*args)
    outputs_at = {"delta_sum": (0, 1), "phi_diff_sum": (1, 2)}[form]
    codes = [space.as_codes(a) if i in outputs_at else a for i, a in enumerate(args)]
    with pytest.raises(ContractViolation, match=r"have lengths {} and {}$".format(*lengths)):
        getattr(space, form)(*codes)


@pytest.mark.parametrize("space", _SLACK_SPACES,
                         ids=["multiclass", "chain-hamming", "chain-zero-one"])
def test_slack_refuses_neighbor_terms_of_different_lengths(space):
    rng = np.random.default_rng(251)
    shape = (3, 2) if space.kind == "multiclass" else (3, 4, 2)
    xs = rng.standard_normal(shape)
    ys = [space.random_output(x, rng) for x in xs]
    w = rng.standard_normal(space.dim)
    for terms, what, lengths in [
        (([0, 1], [0.5, 0.5], ys[:1]), "outputs", (2, 1)),  # one output for two terms
        (([0, 1], [0.5], ys[:2]), "weights", (2, 1)),  # one weight for two terms
        (([0], [0.5, 0.5], ys[:1]), "weights", (1, 2)),
        (([0, 1, 2], [0.5] * 3, ys[:2] + ys), "outputs", (3, 5)),
    ]:
        for inputs in (xs, list(xs)):
            with pytest.raises(ContractViolation,
                               match=r"^neighbor term owners and {} have lengths {} and {}$"
                               .format(what, *lengths)):
                space.argmin_slack_all(w, inputs, ys, terms, 1.0)


@pytest.mark.parametrize("space", _spaces(), ids=lambda s: s.kind)
def test_finite_loss_augmented_inference_refuses_references_of_another_length(space):
    rng = np.random.default_rng(257)
    X = rng.standard_normal((3, space.input_dim))
    zs = [space.labels[0], space.labels[-1], space.labels[0]]
    w = rng.standard_normal(space.dim)
    assert len(space.argmax_loss_augmented_all(w, X, zs)) == 3
    for short in (zs[:1], zs[:2], zs + zs[:1]):
        message = rf"^inputs and reference outputs have lengths 3 and {len(short)}$"
        with pytest.raises(ContractViolation, match=message):
            space.argmax_loss_augmented_all(w, X, short)


def _tie_batch(rng, space, case, equal=False):
    """A mixed-length chain batch: inputs, weights, ``c1``, upsilons, slack
    outputs and neighbor terms in shuffled owner order. ``integer-ties``
    draws small integers, so that costs tie exactly; ``w=0`` zeroes the
    weights; ``c1=1e300`` takes the costs past the float range. With
    ``equal`` every chain has one length and the inputs are one ``(n, T, d)``
    float stack, so no label matrix is padded."""
    ties = case != "random"
    if equal:
        lengths = np.full(int(rng.integers(1, 12)), rng.integers(1, 7))
    else:
        lengths = rng.integers(1, 7, size=int(rng.integers(1, 12)))
    X = [(rng.integers(-1, 2, (int(t), space.input_dim)).astype(float) if ties
          else rng.standard_normal((int(t), space.input_dim))) for t in lengths]
    if equal:
        X = np.stack(X)
    w = (np.zeros(space.dim) if case == "w=0"
         else rng.integers(-1, 2, space.dim).astype(float) if ties
         else rng.standard_normal(space.dim))
    c1 = {"c1=1e300": 1e300, "random": 0.7}.get(case, 1.0)
    ups = [_chain_draw(rng, space, len(x)) for x in X]
    zs = [_chain_draw(rng, space, len(x)) if rng.random() < 0.7 else u for x, u in zip(X, ups)]
    owner = rng.integers(len(X), size=int(rng.integers(0, 4 * len(X))))
    weight = (rng.integers(1, 3, len(owner)) / 2.0 if ties
              else rng.uniform(0.1, 1.0, len(owner)))
    outputs = [_chain_draw(rng, space, len(X[o])) for o in owner.tolist()]
    return X, w, c1, ups, zs, (owner, weight, outputs)


def _split_case(case):
    """``(case, equal)`` of a test case id: ``equal-lengths`` draws the
    ``random`` case as one stack of one length, ``equal-lengths-<case>`` so
    draws ``<case>``."""
    if not case.startswith("equal-lengths"):
        return case, False
    return case.removeprefix("equal-lengths").removeprefix("-") or "random", True


@pytest.mark.parametrize("case", ["random", "integer-ties", "w=0", "c1=1e300", "equal-lengths"])
def test_chain_hamming_slack_equals_the_per_slot_reference(case):
    rng = np.random.default_rng(263)
    space = ChainSequenceSpace(3, 2)
    for _ in range(60):
        X, w, c1, ups, _, terms = _tie_batch(rng, space, *_split_case(case))
        want = oracles.per_slot_hamming_slack(space, w, X, ups, terms, c1)
        got = space.argmin_slack_all(w, X, ups, terms, c1)
        assert got.tobytes() == want.tobytes()
        assert got.dtype == want.dtype


# costs that near-tie within this fraction of their size may be ordered either way
_ROUNDING = 1e-9


def test_chain_hamming_slack_matches_enumeration_on_random_weights():
    """Random real weights of both signs, added in another order than the
    enumeration's: the slack agrees with it at every point whose best cost
    beats the second best by more than the rounding bound, which is most."""
    rng = np.random.default_rng(311)
    space = ChainSequenceSpace(3, 2)
    counted = total = 0
    for _ in range(12):
        X, w, c1, ups, _, (owner, _, outputs) = _tie_batch(rng, space, "random")
        # at most 81 outputs to enumerate
        X, ups, outputs = ([y[:4] for y in ys] for ys in (X, ups, outputs))
        weight = rng.uniform(-0.5, 1.0, len(owner))
        got = space.from_codes(space.argmin_slack_all(w, X, ups, (owner, weight, outputs), c1))
        for i, (x, u) in enumerate(zip(X, ups)):
            nb = [(omega, z) for o, omega, z in zip(owner.tolist(), weight, outputs) if o == i]
            cands, vals = oracles.slack_costs(space, w, x, u, nb, c1)
            best, second = np.sort(vals)[:2]
            total += 1
            if second - best > _ROUNDING * (1.0 + np.abs(vals).max()):
                counted += 1
                assert got[i] == cands[int(np.argmin(vals))]  # brute_argmin_slack's answer
    assert counted >= 0.9 * total > 0, (counted, total)


@pytest.mark.parametrize("case", ["random", "integer-ties", "equal-lengths"])
def test_chain_feature_sum_equals_the_two_pass_reference(case):
    rng = np.random.default_rng(269)
    space = ChainSequenceSpace(3, 2)
    for _ in range(60):
        X, _, _, ups, zs, _ = _tie_batch(rng, space, *_split_case(case))
        want = oracles.two_pass_phi_diff_sum(space, X, ups, zs)
        assert space.phi_diff_sum(X, ups, zs).tobytes() == want.tobytes()
        same = [i for i, x in enumerate(X) if len(x) == len(X[0])]  # a stack of one length
        stack = np.stack([X[i] for i in same])
        ups, zs = [ups[i] for i in same], [zs[i] for i in same]
        assert (space.phi_diff_sum(stack, ups, zs).tobytes()
                == oracles.two_pass_phi_diff_sum(space, stack, ups, zs).tobytes())


_ALL_SLACK_SPACES = [MulticlassSpace(3, 2), TaxonomySpace(three_level_taxonomy(), 2),
                     ChainSequenceSpace(3, 2, loss="hamming"),
                     ChainSequenceSpace(3, 2, loss="zero-one")]
_ALL_SLACK_IDS = ["multiclass", "taxonomy", "chain-hamming", "chain-zero-one"]


def _slack_batch(space):
    rng = np.random.default_rng(271)
    xs = rng.standard_normal((3, 2) if space.kind != "chain" else (3, 4, 2))
    ys = [space.random_output(x, rng) for x in xs]
    return rng.standard_normal(space.dim), xs, ys


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("c1", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("space", _ALL_SLACK_SPACES, ids=_ALL_SLACK_IDS)
def test_slack_refuses_a_non_finite_c1(space, c1):
    w, xs, ys = _slack_batch(space)
    with pytest.raises(ContractViolation, match=rf"^c1 must be positive and finite, got {c1}$"):
        space.argmin_slack_all(w, xs, ys, ([0, 1], [0.5, 0.5], ys[:2]), c1)
    assert len(space.argmin_slack_all(w, xs, ys, ([0, 1], [0.5, 0.5], ys[:2]), 1e308)) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("space", _ALL_SLACK_SPACES, ids=_ALL_SLACK_IDS)
def test_slack_refuses_a_non_finite_neighbor_weight(space, bad):
    w, xs, ys = _slack_batch(space)
    terms = ([0, 1, 2, 0], [0.5, bad, 0.25, np.nan], ys + ys[:1])  # bad, then nan
    with pytest.raises(ContractViolation, match=rf"^neighbor term weight {bad} is not finite$"):
        space.argmin_slack_all(w, xs, ys, terms, 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("space", _ALL_SLACK_SPACES, ids=_ALL_SLACK_IDS)
def test_prediction_names_the_first_input_whose_scores_are_not_finite(space):
    _, xs, _ = _slack_batch(space)
    xs[1:] = 1e308  # d * 1e308 overflows
    with pytest.raises(ContractViolation, match=r"^the scores of input 1 are not finite "):
        space.argmax_score_all(np.ones(space.dim), xs)
    assert len(space.argmax_score_all(np.ones(space.dim), xs[:1])) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loss", ChainSequenceSpace.LOSS_MODES)
def test_prediction_names_the_first_chain_whose_best_path_leaves_the_float_range(loss):
    """Every position's scores are finite; chain 1's best path sums past
    them. Prediction refuses it; the fit's oracles still answer."""
    space, w = ChainSequenceSpace(2, 1, loss=loss), [0.0, 0.0, 0.0, 0.0, 1.0, 0.5]
    xs = np.stack([np.full((3, 1), 0.5), np.full((3, 1), 1e308)])
    with pytest.raises(ContractViolation, match=r"^the scores of input 1 are not finite "):
        space.argmax_score_all(w, xs)
    assert space.from_codes(space.argmax_score_all(w, xs[:1])) == [(0, 0, 0)]
    zs = [(0, 0, 0), (1, 1, 1)]
    assert len(space.argmax_loss_augmented_all(w, xs, zs)) == 2
    assert len(space.argmin_slack_all(w, xs, zs, ([0, 1], [1.0, 1.0], zs[::-1]), 1.0)) == 2


@pytest.mark.parametrize("space", _ALL_SLACK_SPACES, ids=_ALL_SLACK_IDS)
def test_slack_answers_depend_only_on_each_points_own_term_order(space):
    """A graph's neighbor terms come in edge order, so the terms of different
    points interleave. Any interleaving that keeps each point's own order
    answers what the terms grouped by point answer, byte for byte."""
    rng = np.random.default_rng(311)
    n = 40
    xs = rng.standard_normal((n, 2) if space.kind != "chain" else (n, 4, 2))
    ups = space.as_codes([space.random_output(x, rng) for x in xs])
    owner = np.repeat(np.arange(n), rng.integers(0, 8, n))  # grouped, point by point
    weight = rng.uniform(0.1, 1.0, len(owner))
    outputs = space.as_codes([space.random_output(xs[i], rng) for i in owner.tolist()])
    for _ in range(5):
        w = rng.standard_normal(space.dim)
        want = space.argmin_slack_all(w, xs, ups, (owner, weight, outputs), 0.3)
        # slot s of a random interleaving takes the next term of point mixed[s]
        mixed = rng.permutation(owner)
        at = np.empty(len(owner), dtype=int)
        at[np.argsort(mixed, kind="stable")] = np.arange(len(owner))
        assert (owner[at] == mixed).all() and (mixed != owner).any()
        got = space.argmin_slack_all(w, xs, ups, (mixed, weight[at], outputs[at]), 0.3)
        assert got.tobytes() == want.tobytes()


def _row_major(unary):
    return np.ascontiguousarray(unary.transpose(2, 0, 1))


@pytest.mark.parametrize("case", ["random", "integer-ties", "T=1", "n=0", "c1=1e300",
                                  "equal-lengths", "equal-lengths-c1=1e300"])
def test_label_major_dynamic_programs_equal_the_row_major_references(case):
    rng = np.random.default_rng(277)
    space = ChainSequenceSpace(3, 2)
    case, equal = _split_case(case)
    for _ in range(60):
        X, w, c1, _, zs, _ = _tie_batch(rng, space, "random" if case in ("T=1", "n=0")
                                        else case, equal)
        if case == "T=1":
            X = [x[:1] for x in X]
            zs = [z[:1] for z in zs]
        elif case == "n=0":
            X, zs = [], []
        unary, pairwise, lengths = space._unary(w, X)
        Z = oracles.cut(*space._labels(zs), lengths, unary.shape[0], "reference output")
        aug = unary + 1.0
        aug[np.arange(unary.shape[0])[:, None], Z.T, np.arange(len(X))] -= 1.0
        if case == "c1=1e300":  # +-inf tables, and nan where two infinities meet
            with np.errstate(over="ignore"):
                unary, aug, pairwise = unary * 1e10 * c1, aug * -1e10 * c1, c1 * pairwise
            assert np.isinf(unary).any()
        with np.errstate(invalid="ignore"):
            for table in (unary, aug):
                want = oracles.row_major_best_paths(_row_major(table), pairwise, lengths)
                got, _ = space._best_paths(table, pairwise, lengths)
                assert got.shape == want.shape == (len(X), unary.shape[0])
                assert np.array_equal(got, want)
            want = oracles.row_major_best_paths_off(_row_major(unary), pairwise, Z, lengths)
            assert np.array_equal(space._best_paths_off(unary, pairwise, Z, lengths), want)


def test_bincount_features_equal_the_indexed_add():
    rng = np.random.default_rng(281)
    space = ChainSequenceSpace(3, 2)
    values = np.array([-0.0, 0.0, 1e300, -1e300, 1.5, -2.25, 0.1])
    for _ in range(60):
        m, length = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        lengths = rng.integers(1, length + 1, size=m)
        X = rng.choice(values, size=(m, length, space.input_dim))
        X[rng.random(X.shape) < 0.3] = rng.standard_normal()
        Y = rng.integers(space.num_labels, size=(m, length))
        Y[np.arange(length) >= lengths[:, None]] = -1
        with np.errstate(over="ignore", invalid="ignore"):
            want = oracles.indexed_add_features(space, X, Y)
            got = [space.phi(x[:n], tuple(y[:n])) for x, y, n in zip(X, Y.tolist(), lengths)]
        assert np.array(got).tobytes() == want.tobytes()


def _hub_terms(rng, space, X):
    """Neighbor terms in shuffled owner order: one hub owns ``3n + 2`` and
    the other points 0, 1, 2, ... each, so that the owners of every slot
    are prefixes of every length and the points' term counts all differ."""
    n = len(X)
    counts = rng.permutation(n)
    counts[rng.integers(n)] = 3 * n + 2  # the hub
    owner = rng.permutation(np.repeat(np.arange(n), counts))
    weight = rng.integers(1, 3, len(owner)) / 2.0
    outputs = [_chain_draw(rng, space, len(X[o])) for o in owner.tolist()]
    return owner, weight, outputs


def test_chain_hamming_slack_equals_the_per_slot_reference_around_a_hub():
    rng = np.random.default_rng(283)
    space = ChainSequenceSpace(3, 2)
    for _ in range(20):
        X, w, c1, ups, _, _ = _tie_batch(rng, space, str(rng.choice(["random", "integer-ties"])))
        terms = _hub_terms(rng, space, X)
        want = oracles.per_slot_hamming_slack(space, w, X, ups, terms, c1)
        assert space.argmin_slack_all(w, X, ups, terms, c1).tobytes() == want.tobytes()


@pytest.mark.parametrize("case", ["random", "integer-ties", "c1=1e300", "equal-lengths"])
def test_chain_zero_one_slack_matches_enumeration_around_a_hub(case):
    """Every point's candidates are its best path, its upsilon and its own
    terms' outputs, however many; a point with no terms has two."""
    rng = np.random.default_rng(293)
    space = ChainSequenceSpace(3, 2, loss="zero-one")
    case, equal = _split_case(case)
    bare = 0
    for _ in range(12):
        X, w, c1, ups, _, _ = _tie_batch(rng, space, case, equal)
        # at most 81 outputs to enumerate
        X, ups = X[:, :4] if equal else [x[:4] for x in X], [u[:4] for u in ups]
        owner, weight, outputs = _hub_terms(rng, space, X)
        if case == "random":
            weight = rng.uniform(0.1, 1.0, len(owner))
        neighbors = [[(omega, z) for o, omega, z in zip(owner.tolist(), weight, outputs) if o == i]
                     for i in range(len(X))]
        bare += sum(not nb for nb in neighbors)
        got = space.argmin_slack_all(w, X, ups, (owner, weight, outputs), c1)
        assert space.from_codes(got) == [oracles.brute_argmin_slack(space, w, x, u, nb, c1)
                                         for x, u, nb in zip(X, ups, neighbors)]
    assert bare > 0


def test_chain_zero_one_slack_memory_follows_each_points_own_terms():
    """A hub with a term per point: the traced peak follows the sum over the
    points of (2 + terms) * terms, about 41 000 pairs, not n * (2 + the
    hub's terms)**2, about 8.2 million."""
    rng = np.random.default_rng(307)
    space = ChainSequenceSpace(3, 2, loss="zero-one")
    n = 200
    X = rng.standard_normal((n, 4, 2))
    w = rng.standard_normal(space.dim)
    ups = space.as_codes([space.random_output(x, rng) for x in X])
    owner = np.concatenate((np.zeros(n, dtype=int), np.arange(1, n)))
    outputs = space.as_codes([space.random_output(X[i], rng) for i in owner.tolist()])
    terms = (owner, rng.uniform(0.1, 1.0, len(owner)), outputs)
    tracemalloc.start()
    try:
        space.argmin_slack_all(w, X, ups, terms, 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, f"{peak / 2**20:.1f} MiB"
