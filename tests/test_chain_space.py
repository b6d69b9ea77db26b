import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataPoint,
    Dataset,
    SolverConfig,
    UnsupportedConfiguration,
    build_knn_graph,
    fit,
)
from semistruct.data_io import synth_chains
from semistruct.spaces import space_from_config

from . import oracles
from .conftest import random_chain_instance


def test_phi_counts_transitions_and_sums_emissions(hamming_chain_space):
    x = np.array([[1.0], [2.0]])
    phi = hamming_chain_space.phi(x, (0, 1))
    # one 0->1 transition; emissions 1 under label 0 and 2 under label 1
    assert np.array_equal(phi, [0.0, 1.0, 0.0, 0.0, 1.0, 2.0])


def test_phi_rejects_length_mismatch(hamming_chain_space):
    with pytest.raises(ContractViolation):
        hamming_chain_space.phi(np.array([[1.0], [2.0]]), (0, 1, 0))


def test_hamming_loss_counts_differing_positions(hamming_chain_space):
    assert hamming_chain_space.delta((0, 1, 1), (0, 0, 1)) == 1.0
    assert hamming_chain_space.delta((0, 1, 1), (0, 1, 1)) == 0.0
    assert hamming_chain_space.delta((0, 0, 0), (1, 1, 1)) == 3.0


def test_zero_one_loss_whole_sequence():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    assert space.delta((0, 1), (0, 1)) == 0.0
    assert space.delta((0, 1), (0, 0)) == 1.0


def test_loss_rejects_length_mismatch():
    for loss in ("hamming", "zero-one"):
        space = ChainSequenceSpace(2, 1, loss=loss)
        with pytest.raises(ContractViolation):
            space.delta((0, 1), (0, 1, 0))


def test_loss_symmetry_random_pairs():
    rng = np.random.default_rng(101)
    for loss in ("hamming", "zero-one"):
        for _ in range(100):
            space, x = random_chain_instance(rng, loss=loss)
            y1 = space.random_output(x, rng)
            y2 = space.random_output(x, rng)
            assert space.delta(y1, y2) == space.delta(y2, y1)


def test_argmax_score_matches_enumeration_small():
    space = ChainSequenceSpace(2, 1)
    rng = np.random.default_rng(43)
    x = rng.standard_normal((3, 1))
    w = rng.standard_normal(space.dim)
    assert space.argmax_score(w, x) == oracles.brute_argmax_score(space, w, x)


def test_argmax_score_zero_weights_is_all_zeros(hamming_chain_space):
    assert hamming_chain_space.argmax_score(
        np.zeros(hamming_chain_space.dim), np.zeros((4, 1))
    ) == (0, 0, 0, 0)


def test_argmax_score_beyond_cap_still_works():
    # score decomposes along the chain, so the cap never applies to it
    space = ChainSequenceSpace(3, 2)
    rng = np.random.default_rng(47)
    x = rng.standard_normal((10, 2))  # 3**10 candidates, above the cap of 4096
    y = space.argmax_score(rng.standard_normal(space.dim), x)
    assert len(y) == 10


def test_loss_augmented_zero_weights_flips_everything(hamming_chain_space):
    z = (0, 1, 0, 1)
    y, value = hamming_chain_space.argmax_loss_augmented(
        np.zeros(hamming_chain_space.dim), np.zeros((4, 1)), z
    )
    assert y == (1, 0, 1, 0)
    assert value == 4.0


def test_dp_oracles_match_enumeration():
    rng = np.random.default_rng(53)
    for _ in range(60):
        space, x = random_chain_instance(rng)
        w = rng.standard_normal(space.dim)
        z = space.random_output(x, rng)
        assert space.argmax_score(w, x) == oracles.brute_argmax_score(space, w, x)
        got_y, got_v = space.argmax_loss_augmented(w, x, z)
        exp_y, exp_v = oracles.brute_argmax_loss_augmented(space, w, x, z)
        assert got_y == exp_y
        assert got_v == pytest.approx(exp_v, abs=1e-9)
        upsilon = space.random_output(x, rng)
        neighbors = [
            (float(rng.uniform(0.1, 1.0)), space.random_output(x, rng))
            for _ in range(int(rng.integers(0, 4)))
        ]
        c1 = float(rng.uniform(0.2, 3.0))
        assert oracles.argmin_slack(space, w, x, upsilon, neighbors, c1) == (
            oracles.brute_argmin_slack(space, w, x, upsilon, neighbors, c1)
        )


def test_zero_one_oracles_match_enumeration_under_cap():
    rng = np.random.default_rng(59)
    for _ in range(30):
        space, x = random_chain_instance(rng, loss="zero-one")
        w = rng.standard_normal(space.dim)
        z = space.random_output(x, rng)
        assert space.argmax_loss_augmented(w, x, z) == (
            oracles.brute_argmax_loss_augmented(space, w, x, z)
        )
        upsilon = space.random_output(x, rng)
        neighbors = [(0.5, space.random_output(x, rng))]
        assert oracles.argmin_slack(space, w, x, upsilon, neighbors, 1.0) == (
            oracles.brute_argmin_slack(space, w, x, upsilon, neighbors, 1.0)
        )


def test_zero_one_oracles_reject_above_cap():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    x = np.zeros((13, 1))  # 8192 candidates, above the cap of 4096
    w = np.zeros(space.dim)
    with pytest.raises(UnsupportedConfiguration):
        space.argmax_loss_augmented(w, x, (0,) * 13)
    with pytest.raises(UnsupportedConfiguration):
        oracles.argmin_slack(space, w, x, (0,) * 13, [], 1.0)


def test_hamming_slack_rejects_mismatched_neighbor_lengths(hamming_chain_space):
    x = np.zeros((3, 1))
    with pytest.raises(ContractViolation):
        oracles.argmin_slack(
            hamming_chain_space, np.zeros(hamming_chain_space.dim), x, (0, 0, 0),
            [(0.5, (0, 1))], 1.0
        )


def test_contains_checks_alphabet_and_length(hamming_chain_space):
    x = np.zeros((2, 1))
    assert hamming_chain_space.contains((0, 1), x=x)
    assert not hamming_chain_space.contains((0, 1, 1), x=x)
    assert not hamming_chain_space.contains((0, 5))
    assert not hamming_chain_space.contains(())
    assert not hamming_chain_space.contains([0, 1])


def test_encode_decode_round_trip(hamming_chain_space):
    y = (0, 1, 1, 0)
    assert hamming_chain_space.decode(hamming_chain_space.encode(y)) == y
    with pytest.raises(ContractViolation):
        hamming_chain_space.decode([0, 9])
    with pytest.raises(ContractViolation):
        hamming_chain_space.decode("01")


def test_config_round_trip():
    space = ChainSequenceSpace(3, 2, loss="zero-one")
    rebuilt = space_from_config(space.config())
    assert rebuilt.num_labels == 3
    assert rebuilt.loss == "zero-one"
    assert rebuilt.dim == space.dim
    # model files written before the cap became a constant still load
    assert space_from_config({**space.config(), "enumeration_cap": 100}).dim == space.dim


def _draws(space, xs, rng):
    """Reference outputs, upsilons and neighbor terms (0 to 2 per point)
    for the inputs ``xs``."""
    zs = [space.random_output(x, rng) for x in xs]
    ups = [space.random_output(x, rng) for x in xs]
    owner = np.repeat(np.arange(len(xs)), rng.integers(0, 3, size=len(xs)))
    terms = (owner, rng.uniform(0.1, 1.0, size=len(owner)),
             [space.random_output(xs[i], rng) for i in owner.tolist()])
    return zs, ups, terms


def _codes(space, w, xs, zs, ups, terms):
    """The three oracles' outputs for the inputs ``xs``, as lists."""
    return [space.argmax_score_all(w, xs).tolist(),
            space.argmax_loss_augmented_all(w, xs, zs).tolist(),
            space.argmin_slack_all(w, xs, ups, terms, 0.7).tolist()]


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_oracles_read_a_stack_as_its_list_of_inputs(loss, monkeypatch):
    rng = np.random.default_rng(61)
    space = ChainSequenceSpace(3, 2, loss=loss)
    w = rng.standard_normal(space.dim)
    X = rng.standard_normal((9, 4, 2))
    with monkeypatch.context() as m:  # a stack is read as it is, not input by input
        m.setattr(space, "_as_seq_input", None)
        space.argmax_score_all(w, X)
    draws = _draws(space, X, rng)
    from_stack = _codes(space, w, X, *draws)
    assert from_stack == _codes(space, w, list(X), *draws)
    assert all(len(y) == 4 for codes in from_stack for y in codes)


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_a_mixed_length_list_answers_as_one_stack_per_input(loss):
    rng = np.random.default_rng(67)
    space = ChainSequenceSpace(3, 2, loss=loss)
    w = rng.standard_normal(space.dim)
    xs = [rng.standard_normal((length, 2)) for length in (3, 5, 3, 2, 5, 4)]
    zs, ups, (owner, weight, outputs) = _draws(space, xs, rng)
    got = _codes(space, w, xs, zs, ups, (owner, weight, outputs))
    for i, x in enumerate(xs):
        mine = np.flatnonzero(owner == i)
        terms = (np.zeros(len(mine), dtype=int), weight[mine], [outputs[e] for e in mine])
        alone = _codes(space, w, x[None], [zs[i]], [ups[i]], terms)
        assert alone == [[codes[i]] for codes in got]


def test_a_stack_of_the_wrong_width_is_refused_as_a_list_is():
    space = ChainSequenceSpace(3, 2)
    w = np.zeros(space.dim)
    for xs in (np.zeros((4, 3, 5)), list(np.zeros((4, 3, 5)))):
        with pytest.raises(ContractViolation, match=r"expected \(T, 2\)"):
            space.argmax_score_all(w, xs)


def test_a_huge_c1_leaks_no_overflow_from_the_slack_oracle():
    """Costs past the float range read +-inf without a RuntimeWarning."""
    rng = np.random.default_rng(71)
    space = ChainSequenceSpace(3, 2)
    w = 500.0 * rng.standard_normal(space.dim)
    X = rng.standard_normal((5, 4, 2))
    ups = [space.random_output(x, rng) for x in X]
    terms = ([0, 3], [0.5, 0.25], [space.random_output(X[0], rng),
                                   space.random_output(X[3], rng)])
    codes = space.argmin_slack_all(w, X, ups, terms, 1e308).tolist()
    assert all(space.contains(y, x=x) for y, x in zip(codes, X))


def _reference_delta(space, y1, y2):
    """The chain loss from its definition."""
    if space.loss == "zero-one":
        return float(y1 != y2)
    return float(sum(a != b for a, b in zip(y1, y2)))


@pytest.mark.parametrize("as_codes", [False, True], ids=["lists", "codes"])
@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_sums_equal_the_per_pair_reference(loss, as_codes):
    rng = np.random.default_rng(73)
    space = ChainSequenceSpace(3, 2, loss=loss)
    ds = synth_chains(3, (4, 4), 30, 2, seed=5)
    X = ds.inputs
    z = [space.random_output(x, rng) for x in X]
    ups = [space.random_output(x, rng) for x in X]
    ups[:6] = z[:6]  # some equal pairs
    g = build_knn_graph(ds, k=4)
    src, dst = [z[i] for i in g.src.tolist()], [z[i] for i in g.dst.tolist()]
    looped_phi = np.zeros(space.dim)
    for x, u, zi in zip(X, ups, z):
        if u != zi:
            looped_phi += space.phi(x, u) - space.phi(x, zi)
    unweighted = float(sum(1.0 * _reference_delta(space, u, zi) for u, zi in zip(ups, z)))
    weighted = float(sum(c * _reference_delta(space, a, b)
                         for c, a, b in zip(g.weight, src, dst)))
    if as_codes:
        z, ups, src, dst = map(space.as_codes, (z, ups, src, dst))
    assert space.delta_sum(ups, z) == unweighted
    assert space.delta_sum(src, dst, g.weight) == weighted
    assert np.array_equal(space.phi_diff_sum(X, ups, z), looped_phi)
    assert np.array_equal(space.phi_diff_sum(list(X), ups, z), looped_phi)


@pytest.mark.parametrize("dtype", [np.uint8, np.int8])
def test_sums_of_narrow_int_labels_equal_the_per_pair_loop(dtype):
    """Labels of a narrow numpy type give the features of the same ints:
    ``19 * 20`` would wrap in ``uint8`` and pick a wrong transition."""
    rng = np.random.default_rng(11)
    space = ChainSequenceSpace(20, 2)
    X = rng.standard_normal((6, 5, 2))
    ys = [tuple(dtype(v) for v in rng.integers(15, 20, size=5)) for _ in X]
    zs = [tuple(dtype(v) for v in rng.integers(15, 20, size=5)) for _ in X]
    looped_phi = np.zeros(space.dim)
    for x, y, z in zip(X, ys, zs):
        looped_phi += space.phi(x, y) - space.phi(x, z)
    looped_delta = float(sum(space.delta(y, z) for y, z in zip(ys, zs)))
    assert np.array_equal(space.phi_diff_sum(X, ys, zs), looped_phi)
    assert space.delta_sum(ys, zs) == looped_delta
    assert all(type(v) is int for y in space.as_codes(ys) for v in y)


_BAD_OUTPUTS = {
    "bool label": (True, 0),
    "label past the alphabet": (0, 2),
    "a list": [0, 1],
    "another length": (0, 1, 0),
}


@pytest.mark.parametrize("bad", _BAD_OUTPUTS.values(), ids=_BAD_OUTPUTS.keys())
@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_checked_forms_refuse_a_bad_output(loss, bad):
    space = ChainSequenceSpace(2, 1, loss=loss)
    x, good = np.zeros((2, 1)), (1, 1)
    calls = [
        lambda: space.delta(bad, good),
        lambda: space.delta(good, bad),
        lambda: space.delta_sum([good, bad], [good, good]),
        lambda: space.delta_sum([good, good], [good, bad], [0.5, 0.5]),
        lambda: space.phi(x, bad),
        lambda: space.phi_diff_sum([x, x], [good, bad], [good, good]),
        lambda: space.phi_diff_sum([x, x], [good, good], [good, bad]),
    ]
    for call in calls:
        with pytest.raises(ContractViolation):
            call()


def test_a_fit_checks_membership_as_often_at_every_k(monkeypatch):
    """Lists are checked once, when encoded; codes are trusted after, so the
    per-edge loss sums check nothing and the count does not grow with k."""
    space = ChainSequenceSpace(3, 2)
    points = synth_chains(3, (5, 5), 40, 2, seed=9).points
    ds = Dataset(p if p.id % 4 == 0 else DataPoint(p.id, p.x) for p in points)
    cfg = SolverConfig(c1=0.5, c2=1.0, max_iters=3, seed=1)
    contains, calls = ChainSequenceSpace._contains, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return contains(self, *args, **kwargs)

    counts = []
    for k in (2, 8):
        g = build_knn_graph(ds, k=k)
        calls.clear()
        with monkeypatch.context() as m:
            m.setattr(ChainSequenceSpace, "_contains", counted)
            fit(ds, g, space, cfg)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0, counts


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_the_oracles_trust_codes_and_check_lists(loss, monkeypatch):
    """Codes reach the oracles unchecked; a list of outputs is checked, so a
    neighbor output of floats is refused instead of being cut to ints."""
    rng = np.random.default_rng(79)
    space = ChainSequenceSpace(3, 2, loss=loss)
    w = rng.standard_normal(space.dim)
    X = rng.standard_normal((6, 3, 2))
    zs, ups, (owner, weight, outputs) = _draws(space, X, rng)
    zs, ups, outputs = space.as_codes(zs), space.as_codes(ups), space.as_codes(outputs)
    contains, calls = ChainSequenceSpace._contains, []

    def counted(self, *args, **kwargs):
        calls.append(1)
        return contains(self, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(ChainSequenceSpace, "_contains", counted)
        space.argmax_loss_augmented_all(w, X, zs)
        space.argmin_slack_all(w, X, ups, (owner, weight, outputs), 0.7)
    assert calls == []
    bad = (0.5, 2.9, 1.0)
    with pytest.raises(ContractViolation):
        space.argmin_slack_all(w, X[:1], ups[:1], ([0], [1.0], [bad]), 0.7)
    with pytest.raises(ContractViolation):
        space.argmax_loss_augmented_all(w, X[:1], [bad])
