import sys

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataPoint,
    Dataset,
    SolverConfig,
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
    # score decomposes along the chain: no candidate is enumerated
    space = ChainSequenceSpace(3, 2)
    rng = np.random.default_rng(47)
    x = rng.standard_normal((10, 2))  # 3**10 candidates
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


def test_zero_one_oracles_answer_long_chains():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    x = np.zeros((13, 1))  # 8192 candidates, all scoring 0
    w = np.zeros(space.dim)
    # every other sequence gains the loss; the smallest of them is all zeros but one
    assert space.argmax_loss_augmented(w, x, (0,) * 13) == ((0,) * 12 + (1,), 1.0)
    assert oracles.argmin_slack(space, w, x, (0,) * 13, [], 1.0) == (0,) * 13


def test_zero_one_oracles_match_brute_force_on_integer_ties():
    # integer weights and inputs keep every score exact, so equal values are
    # true ties the rule toward the smallest sequence has to settle
    rng = np.random.default_rng(67)
    for case in range(200):
        space = ChainSequenceSpace(int(rng.integers(2, 4)), 1, loss="zero-one")
        x = rng.integers(-1, 2, size=(int(rng.integers(1, 6)), 1)).astype(float)
        w = rng.integers(-1, 2, size=space.dim).astype(float) * (case % 3 != 0)
        z, upsilon = space.random_output(x, rng), space.random_output(x, rng)
        assert space.argmax_loss_augmented(w, x, z) == (
            oracles.brute_argmax_loss_augmented(space, w, x, z))
        neighbors = [(float(rng.integers(0, 3)) / 2, space.random_output(x, rng))
                     for _ in range(int(rng.integers(0, 4)))]
        c1 = float(rng.choice([0.5, 1.0, 2.0]))
        assert oracles.argmin_slack(space, w, x, upsilon, neighbors, c1) == (
            oracles.brute_argmin_slack(space, w, x, upsilon, neighbors, c1))


def test_zero_one_slack_rejects_negative_neighbor_weights():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    x = np.zeros((2, 1))
    with pytest.raises(ContractViolation, match="weights >= 0"):
        oracles.argmin_slack(space, np.zeros(space.dim), x, (0, 0),
                             [(0.5, (1, 1)), (-0.25, (0, 1))], 1.0)


def test_zero_one_slack_past_the_float_range_picks_the_first_cheapest_candidate():
    # c1 * (delta - score) is -inf for every sequence: enumeration keeps the
    # first of all, the oracle the first of upsilon and the best-scoring path
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    x, w = np.ones((3, 1)), np.array([0.0, 0.0, 0.0, 0.0, 1.0, 2.0])
    assert space.argmax_score(w, x) == (1, 1, 1)
    assert oracles.brute_argmin_slack(space, w, x, (1, 0, 1), [], 1e308) == (0, 0, 0)
    assert oracles.argmin_slack(space, w, x, (1, 0, 1), [], 1e308) == (1, 0, 1)


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
    # model files that carry the old enumeration cap still load
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
    return [space.from_codes(space.argmax_score_all(w, xs)),
            space.from_codes(space.argmax_loss_augmented_all(w, xs, zs)),
            space.from_codes(space.argmin_slack_all(w, xs, ups, terms, 0.7))]


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
    codes = space.from_codes(space.argmin_slack_all(w, X, ups, terms, 1e308))
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
    # the codes hold the labels as int64 and decode to Python ints
    assert space._labels(ys)[0].dtype == np.int64
    decoded = space.from_codes(space.as_codes(ys))
    assert decoded == [tuple(int(v) for v in y) for y in ys]
    assert all(type(v) is int for y in decoded for v in y)


def _looped_sums(space, xs, ys, zs, weights):
    """``delta_sum`` and ``phi_diff_sum`` as per-pair loops, adding left to
    right from 0.0; as float64 bytes, so that -0.0 differs from 0.0."""
    delta = 0.0
    for c, y, z in zip(weights, ys, zs):
        delta += c * _reference_delta(space, y, z)
    phi = np.zeros(space.dim)
    for x, y, z in zip(xs, ys, zs):
        if y != z:
            phi += space.phi(x, y) - space.phi(x, z)
    return np.float64(delta).tobytes(), phi.tobytes()


def _sums(space, xs, ys, zs, weights):
    """The space's two sums, as :func:`_looped_sums` returns them."""
    return (np.float64(space.delta_sum(ys, zs, weights)).tobytes(),
            space.phi_diff_sum(xs, ys, zs).tobytes())


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_a_weighted_loss_sum_adds_left_to_right(loss):
    """1.0 then fifty 1e-16: each small term is lost when added to 1.0 in
    pair order, while numpy's pairwise sum keeps them."""
    space = ChainSequenceSpace(2, 1, loss=loss)
    weights = [1.0] + [1e-16] * 50
    ys, zs = [(0, 1)] * 51, [(1, 1)] * 51
    want = _looped_sums(space, [], ys, zs, weights)[0]
    assert np.frombuffer(want)[0] == 1.0 != np.sum(weights)
    assert np.float64(space.delta_sum(ys, zs, weights)).tobytes() == want
    # a negative weight on an equal pair gives -0.0, and 0.0 + -0.0 is 0.0
    got = space.delta_sum([(0, 1)], [(0, 1)], [-1.0])
    assert np.float64(got).tobytes() == np.float64(0.0).tobytes()


def test_feature_sums_add_positions_then_pairs_in_order():
    """Label 0 against label 1 at every position: 1.0 then 1e-16 inputs
    within one label block, and a first pair of 1.0 before fifty pairs of
    1e-16, so any other order of either sum gives other bits."""
    space = ChainSequenceSpace(2, 1)
    X = np.full((51, 3, 1), 1e-16)
    X[0, 0] = 1.0
    ys, zs = [(0, 0, 0)] * 51, [(1, 1, 1)] * 51
    want = _looped_sums(space, X, ys, zs, [1.0] * 51)[1]
    per_pair = np.array([space.phi(x, y) - space.phi(x, z) for x, y, z in zip(X, ys, zs)])
    assert per_pair[::-1].sum(axis=0).tobytes() != want  # pairs in reverse
    assert 1e-16 + 1e-16 + 1.0 != 1.0 + 1e-16 + 1e-16  # positions in reverse
    for xs in (X, list(X)):
        assert space.phi_diff_sum(xs, ys, zs).tobytes() == want


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_sums_of_mixed_lengths_and_of_nothing_equal_the_loops(loss):
    rng = np.random.default_rng(83)
    space = ChainSequenceSpace(4, 2, loss=loss)
    xs = [rng.standard_normal((length, 2)) for length in (3, 6, 1, 3, 5, 6, 2, 4)]
    ys = [space.random_output(x, rng) for x in xs]
    zs = [y if i % 3 == 0 else space.random_output(x, rng)
          for i, (x, y) in enumerate(zip(xs, ys))]
    weights = rng.uniform(-1.0, 1.0, size=len(xs))
    want = _looped_sums(space, xs, ys, zs, weights)
    assert _sums(space, xs, ys, zs, weights) == want
    assert _sums(space, xs, space.as_codes(ys), space.as_codes(zs), weights) == want
    assert space.delta_sum(ys, zs) == sum(_reference_delta(space, y, z) for y, z in zip(ys, zs))
    empty = (np.float64(0.0).tobytes(), np.zeros(space.dim).tobytes())
    for none in ([], np.zeros((0, 3, 2))):
        assert _sums(space, none, [], [], []) == empty
    assert space.delta_sum([], []) == 0.0
    assert _sums(space, xs[:2], ys[:2], ys[:2], [1.0, 1.0]) == empty


_X = np.zeros((2, 1))

# a call on ChainSequenceSpace(2, 1), given the form of its inputs; its message
_LENGTH_ERRORS = {
    "first unequal pair": (
        lambda s, form: s.delta_sum([(0,), (0, 1), (1, 1)], [(1,), (0, 1, 1), (1,)]),
        "cannot compare label sequences of lengths 2 and 3"),
    "weighted pair": (
        lambda s, form: s.delta_sum([(0,)], [(0, 1)], [0.5]),
        "cannot compare label sequences of lengths 1 and 2"),
    "output lists": (
        lambda s, form: s.delta_sum([(0,)], [(0,), (1,)]),
        "output lists have lengths 1 and 2"),
    "weights": (
        lambda s, form: s.delta_sum([(0,)], [(1,)], [1.0, 2.0]),
        "weights and outputs have lengths 2 and 1"),
    "first output against its input": (
        lambda s, form: s.phi_diff_sum(form([_X, _X]), [(0, 1), (0, 1, 1)], [(1, 1), (1, 1)]),
        "label sequence length 3 does not match input length 2"),
    "second output against its input": (
        lambda s, form: s.phi_diff_sum(form([_X, _X]), [(0, 1), (0, 1)], [(1, 1), (1,)]),
        "label sequence length 1 does not match input length 2"),
    "inputs and outputs": (
        lambda s, form: s.phi_diff_sum(form([_X]), [(0,), (1,)], [(1,), (0,)]),
        "inputs and outputs have lengths 1 and 2"),
    "feature output lists": (
        lambda s, form: s.phi_diff_sum(form([_X, _X]), [(0, 1), (1, 1)], [(1, 1)]),
        "output lists have lengths 2 and 1"),
    "a prefix of a longer output": (
        lambda s, form: s.delta_sum([(0, 1), (1, 0)], [(0, 1), (1, 0, 1)]),
        "cannot compare label sequences of lengths 2 and 3"),
    "a longer output with a matching prefix": (
        lambda s, form: s.phi_diff_sum(form([_X, _X]), [(0, 1), (1, 0)], [(0, 1), (1, 0, 0)]),
        "label sequence length 3 does not match input length 2"),
}


@pytest.mark.parametrize("form", [list, np.stack], ids=["list", "stack"])
@pytest.mark.parametrize("call, message", _LENGTH_ERRORS.values(), ids=_LENGTH_ERRORS.keys())
def test_sums_name_the_first_pair_of_other_lengths(call, message, form):
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        call(ChainSequenceSpace(2, 1), form)


class _EncodedApart(ChainSequenceSpace):
    """Encodes each list of outputs on its own before the sums read it, so
    the sums meet codes of different widths."""

    def delta_sum(self, ys1, ys2, weights=None):
        return super().delta_sum(self.as_codes(ys1), self.as_codes(ys2), weights)

    def phi_diff_sum(self, xs, ys, zs):
        return super().phi_diff_sum(xs, self.as_codes(ys), self.as_codes(zs))


@pytest.mark.parametrize("form", [list, np.stack], ids=["list", "stack"])
@pytest.mark.parametrize("call, message", _LENGTH_ERRORS.values(), ids=_LENGTH_ERRORS.keys())
def test_sums_of_codes_of_other_widths_name_the_same_pair(call, message, form):
    with pytest.raises(ContractViolation, match=f"^{message}$"):
        call(_EncodedApart(2, 1), form)


@pytest.mark.parametrize("ys", [[(0,), (1, 2, 0), (2, 2), (1, 2, 0)], [(1,), (0,), (2,)], []],
                         ids=["mixed-lengths", "length-1", "empty"])
def test_codes_decode_to_the_outputs_they_were_made_from(ys):
    space = ChainSequenceSpace(3, 1)
    codes = space.as_codes(ys)
    assert codes.shape == (len(ys),)
    assert space.from_codes(codes) == ys
    assert all(type(v) is int for y in space.from_codes(codes) for v in y)
    assert space.from_codes(codes[::-1]) == ys[::-1]
    for i in range(len(ys)):  # entries compare by value
        assert [bool(codes[i] == c) for c in codes] == [ys[i] == y for y in ys]


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_oracle_codes_take_the_width_of_their_longest_input(loss):
    """Every oracle returns codes as wide as its longest input, whatever the
    width of the codes it is given. Neighbor codes may be narrower: here the
    longest input has no neighbor terms."""
    rng = np.random.default_rng(97)
    space = ChainSequenceSpace(3, 2, loss=loss)
    w = rng.standard_normal(space.dim)
    xs = [rng.standard_normal((length, 2)) for length in (2, 3, 2)]
    zs, ups, terms = _draws(space, xs, rng)
    narrow, wide = space.as_codes(zs), space.as_codes(zs + [(0,) * 5])[:3]
    assert (narrow.dtype.itemsize, wide.dtype.itemsize) == (3 * 8, 5 * 8)
    owner, weight, outputs = terms
    short = (owner[owner != 1], weight[owner != 1],
             [z for i, z in zip(owner.tolist(), outputs) if i != 1])
    short_codes = (*short[:2], space.as_codes(short[2]))
    assert short_codes[2].dtype.itemsize == 2 * 8
    for ref in (narrow, wide):
        for nb in (terms, short_codes):
            for got in (space.argmax_loss_augmented_all(w, xs, ref),
                        space.argmin_slack_all(w, xs, ref, nb, 0.7)):
                assert got.dtype == narrow.dtype
    assert space.argmax_score_all(w, xs).dtype == narrow.dtype
    assert _codes(space, w, xs, wide, wide, terms) == _codes(space, w, xs, zs, zs, terms)
    assert (_codes(space, w, xs, wide, wide, short_codes)
            == _codes(space, w, xs, zs, zs, short))


def test_the_label_reader_cuts_to_a_view_and_pads_only_a_narrower_matrix():
    space = ChainSequenceSpace(3, 1)
    codes = space.as_codes([(0, 1), (2,), (1, 2, 0)])
    M, lengths = space._labels(codes)
    for width in (1, 2, 3, 5):
        got, got_lengths = space._labels(codes, width)
        assert np.array_equal(got, oracles.to_width(M, width))
        assert np.array_equal(got_lengths, lengths)  # the whole outputs' lengths
        assert np.shares_memory(got, codes) == (width <= 3)


@pytest.mark.parametrize("outputs, width", [
    ([(0, 1, 2), (2, 2, 2), (1, 0, 1)], None),  # no padding
    ([(0, 1), (2,), (1, 2, 0), (2, 1, 1)], None),  # some padded rows
    ([(0, 1), (2,), (1, 2)], 4),  # narrower than asked: padded to it
    ([(0, 1, 2), (1,), (2, 2, 2)], 2),  # wider than asked: cut
    ([(0, 1, 2), (2, 2, 2)], 1),  # unpadded and cut
    ([], None),  # an empty batch
    ([], 3),
    ([(0,), (2,), (1,)], None),  # width 1
], ids=["no-padding", "padded", "narrower", "wider", "unpadded-cut", "empty", "empty-width-3",
        "width-1"])
def test_the_label_reader_counts_each_outputs_labels(outputs, width):
    space = ChainSequenceSpace(3, 1)
    widest = max(map(len, outputs), default=1)
    rows = [list(y) + [-1] * (widest - len(y)) for y in outputs]
    M, lengths = space._labels(space.as_codes(outputs), width)
    assert np.array_equal(M, oracles.to_width(np.array(rows).reshape(len(rows), widest),
                                              widest if width is None else width))
    assert lengths.tolist() == [sum(v >= 0 for v in row) for row in rows]


def test_merged_codes_of_a_padded_and_an_unpadded_part_keep_every_length():
    space = ChainSequenceSpace(3, 1)
    padded, unpadded = [(0, 1, 2), (1,)], [(2, 2), (0, 1)]
    merged = space.merge_codes(4, ([0, 2], space.as_codes(padded)),
                               ([1, 3], space.as_codes(unpadded)))
    assert space.from_codes(merged) == [(0, 1, 2), (2, 2), (1,), (0, 1)]
    assert space._labels(merged)[1].tolist() == [3, 2, 1, 2]


def test_a_length_mismatch_names_the_first_output_that_differs_and_both_lengths():
    space = ChainSequenceSpace(3, 1)
    w = np.zeros(space.dim)
    xs = [np.zeros((2, 1)), np.zeros((3, 1)), np.zeros((1, 1))]
    fits, bad = [(0, 1), (0, 1, 2), (1,)], [(0, 1), (0, 1), (1, 2)]  # outputs 1 and 2 differ
    no_terms = ([], [], [])
    cases = [
        (lambda: space.argmax_loss_augmented_all(w, xs, bad),
         "reference output length does not match the input: "
         "reference output 1 has length 2, its input 3"),
        (lambda: space.argmax_loss_augmented_all(w, xs, fits[:2]),
         "reference output length does not match the input: 2 reference outputs for 3 inputs"),
        (lambda: space.argmin_slack_all(w, xs, bad, no_terms, 1.0),
         "upsilon length does not match the input: upsilon 1 has length 2, its input 3"),
        (lambda: oracles.per_slot_hamming_slack(space, w, xs, bad, no_terms, 1.0),
         "upsilon length does not match the input: upsilon 1 has length 2, its input 3"),
        (lambda: space.argmin_slack_all(w, xs, fits, ([2, 1], [1.0, 1.0], [(0,), (0,)]), 1.0),
         "neighbor output length does not match the input: "
         "neighbor output 1 has length 1, its input 3"),
    ]
    for call, message in cases:
        with pytest.raises(ContractViolation) as err:
            call()
        assert str(err.value) == message


def test_empty_batches_give_empty_codes():
    space = ChainSequenceSpace(3, 2)
    w = np.zeros(space.dim)
    for xs in ([], np.zeros((0, 4, 2))):
        for codes in (space.as_codes([]), space.argmax_score_all(w, xs),
                      space.argmax_loss_augmented_all(w, xs, []),
                      space.argmin_slack_all(w, xs, [], ([], [], []), 1.0)):
            assert codes.shape == (0,) and space.from_codes(codes) == []


def test_the_oracles_read_list_inputs_of_the_space_without_rechecking_them(monkeypatch):
    """``(T, d)`` float inputs in a list go to the dynamic programs as they
    are; any other input is still read, and so checked, by ``_as_seq_input``."""
    space = ChainSequenceSpace(3, 2)
    short = synth_chains(3, (4, 4), 20, 2, seed=11).points
    long = synth_chains(3, (6, 6), 20, 2, seed=12).points
    ds = Dataset(DataPoint(i, x, y if i % 3 == 0 else None) for i, (x, y) in
                 enumerate([(p.x, p.y) for p in short] + [(p.x + 100.0, p.y) for p in long]))
    assert type(ds.inputs) is list
    as_seq_input, callers = ChainSequenceSpace._as_seq_input, []

    def counted(self, x):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):  # a comprehension's own frame
            frame = frame.f_back
        callers.append(frame.f_code.co_name)
        return as_seq_input(self, x)

    with monkeypatch.context() as m:
        m.setattr(ChainSequenceSpace, "_as_seq_input", counted)
        fit(ds, build_knn_graph(ds, k=4), space, SolverConfig(c1=0.5, max_iters=3))
        assert "_stack" not in callers
        w = np.zeros(space.dim)
        assert space.from_codes(space.argmax_score_all(w, [[[0.0, 1.0]]])) == [(0,)]
        assert callers[-1] == "_stack"
        with pytest.raises(ContractViolation, match=r"expected \(T, 2\)"):
            space.argmax_score_all(w, [np.zeros((3, 2)), np.zeros((3, 3))])


def test_the_feature_sum_reads_each_differing_input_once(monkeypatch):
    """A nested-list input is read by ``_as_seq_input`` once if its pair
    differs and not at all if it does not; ``(T, d)`` float arrays in a list
    and a stack are not read input by input."""
    rng = np.random.default_rng(89)
    space = ChainSequenceSpace(3, 2)
    xs = [rng.standard_normal((length, 2)) for length in (3, 5, 3, 4, 5, 2)]
    ys = [space.random_output(x, rng) for x in xs]
    zs = list(ys)
    zs[1], zs[4] = space.random_output(xs[1], rng), space.random_output(xs[4], rng)
    assert zs[1] != ys[1] and zs[4] != ys[4]
    as_seq_input, calls = ChainSequenceSpace._as_seq_input, []

    def counted(self, x):
        calls.append(x)
        return as_seq_input(self, x)

    nested = [x.tolist() for x in xs]
    X = rng.standard_normal((6, 4, 2))
    Y, Z = ([space.random_output(x, rng) for x in X] for _ in range(2))
    with monkeypatch.context() as m:
        m.setattr(ChainSequenceSpace, "_as_seq_input", counted)
        got = space.phi_diff_sum(nested, ys, zs)
        assert calls == [nested[1], nested[4]]
        calls.clear()
        assert space.phi_diff_sum(xs, ys, zs).tobytes() == got.tobytes()
        assert calls == []
        space.phi_diff_sum(X, Y, Z)
        assert calls == []
    assert got.tobytes() == _looped_sums(space, xs, ys, zs, [1.0] * 6)[1]


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
    calls = []

    def counted(check):
        def call(self, *args, **kwargs):
            calls.append(1)
            return check(self, *args, **kwargs)
        return call

    counts = []
    for k in (2, 8):
        g = build_knn_graph(ds, k=k)
        calls.clear()
        with monkeypatch.context() as m:  # the batch check of a list, and the per-item one
            m.setattr(ChainSequenceSpace, "_flat", counted(ChainSequenceSpace._flat))
            m.setattr(ChainSequenceSpace, "_contains", counted(ChainSequenceSpace._contains))
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
