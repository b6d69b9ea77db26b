import numpy as np
import pytest

from semistruct import ChainSequenceSpace, ContractViolation, UnsupportedConfiguration
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
        assert space.argmin_slack(w, x, upsilon, neighbors, c1) == (
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
        assert space.argmin_slack(w, x, upsilon, neighbors, 1.0) == (
            oracles.brute_argmin_slack(space, w, x, upsilon, neighbors, 1.0)
        )


def test_zero_one_oracles_reject_above_cap():
    space = ChainSequenceSpace(2, 1, loss="zero-one")
    x = np.zeros((13, 1))  # 8192 candidates, above the cap of 4096
    w = np.zeros(space.dim)
    with pytest.raises(UnsupportedConfiguration):
        space.argmax_loss_augmented(w, x, (0,) * 13)
    with pytest.raises(UnsupportedConfiguration):
        space.argmin_slack(w, x, (0,) * 13, [], 1.0)
    with pytest.raises(UnsupportedConfiguration):
        list(space.outputs(x))


def test_hamming_slack_rejects_mismatched_neighbor_lengths(hamming_chain_space):
    x = np.zeros((3, 1))
    with pytest.raises(ContractViolation):
        hamming_chain_space.argmin_slack(
            np.zeros(hamming_chain_space.dim), x, (0, 0, 0), [(0.5, (0, 1))], 1.0
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
