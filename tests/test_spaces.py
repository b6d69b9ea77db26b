import time

import numpy as np
import pytest

from semistruct import (
    ContractViolation,
    MulticlassSpace,
    Taxonomy,
    TaxonomySpace,
    space_from_config,
    three_level_taxonomy,
)

from semistruct.spaces import FiniteLabelSpace

from . import oracles
from .conftest import random_flat_space


class _Labels(FiniteLabelSpace):
    kind = "labels"

    def config(self):
        return {}


@pytest.mark.parametrize("labels", [[-1, 0], [0, 0], [0, True], [0, 1.0], []],
                         ids=["negative", "duplicate", "bool", "float", "empty"])
def test_finite_label_space_rejects_bad_labels(labels):
    eye = np.eye(len(labels))
    with pytest.raises(ContractViolation, match="labels must be"):
        _Labels(labels, eye, 1.0 - eye, 2)


def test_finite_label_space_rejects_matrices_of_another_shape():
    eye = np.eye(2)
    need = "2 labels need one incidence row each and a 2 x 2 loss matrix"
    with pytest.raises(ContractViolation, match=need):
        _Labels([0, 1], np.eye(3), 1.0 - eye, 2)
    with pytest.raises(ContractViolation, match=need):
        _Labels([0, 1], np.ones(2), 1.0 - eye, 2)
    with pytest.raises(ContractViolation, match=need):
        _Labels([0, 1], eye, np.zeros((2, 3)), 2)


def test_finite_label_space_knows_only_its_labels():
    eye = np.eye(2)
    space = _Labels([np.int64(3), 0], eye, 1.0 - eye, 2)
    assert space.labels == (3, 0)
    assert [space.contains(y) for y in (3, 0, 1, 2, 4, 7, -1)] == [True, True] + [False] * 5


def test_multiclass_phi_block_structure():
    space = MulticlassSpace(2, 2)
    assert np.array_equal(space.phi(np.array([1.0, 2.0]), 1), [0.0, 0.0, 1.0, 2.0])


def test_multiclass_phi_sparsity():
    rng = np.random.default_rng(3)
    space = MulticlassSpace(5, 4)
    for _ in range(20):
        x = rng.standard_normal(4) + 3.0  # keep entries away from zero
        y = int(rng.integers(5))
        assert np.count_nonzero(space.phi(x, y)) == 4


def test_taxonomy_phi_marks_leaf_and_ancestors(small_tree):
    space = TaxonomySpace(small_tree, 1)
    # leaf 3 sits under inner node 1 under the root
    assert np.array_equal(space.phi(np.array([1.0]), 3), [1.0, 1.0, 0.0, 1.0, 0.0])


def test_taxonomy_phi_sparsity(taxonomy_space, scene_tree):
    rng = np.random.default_rng(5)
    d = taxonomy_space.input_dim
    for leaf in scene_tree.leaves:
        x = rng.standard_normal(d) + 2.0
        expected = len(oracles.path_to_root(scene_tree, leaf)) * d
        assert np.count_nonzero(taxonomy_space.phi(x, leaf)) == expected


def test_phi_rejects_non_member(multiclass_space, taxonomy_space):
    x2 = np.zeros(2)
    with pytest.raises(ContractViolation):
        multiclass_space.phi(x2, 3)
    with pytest.raises(ContractViolation):
        taxonomy_space.phi(x2, 0)  # root is not a leaf


def test_scene_tree_losses(taxonomy_space):
    # leaves 4 and 5 share branch node 1; leaf 9 lives under branch node 2
    assert taxonomy_space.delta(4, 5) == 1.0
    assert taxonomy_space.delta(4, 9) == 2.0
    assert taxonomy_space.delta(4, 4) == 0.0


def test_loss_symmetry_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(200):
        space, x = random_flat_space(rng)
        y1 = space.random_output(x, rng)
        y2 = space.random_output(x, rng)
        assert space.delta(y1, y2) == space.delta(y2, y1)


def test_taxonomy_loss_bounded_by_root_height(taxonomy_space, scene_tree):
    root_height = scene_tree.heights[scene_tree.root]
    for y1 in scene_tree.leaves:
        for y2 in scene_tree.leaves:
            loss = taxonomy_space.delta(y1, y2)
            assert loss <= root_height
            at_root = oracles.first_common_ancestor(scene_tree, y1, y2) == scene_tree.root
            assert (loss == root_height) == at_root


# --- argmax_score ----------------------------------------------------------------


def test_argmax_picks_best_class():
    space = MulticlassSpace(3, 1)
    # weights make the per-class scores (1, 3, 2)
    y = space.argmax_score(np.array([1.0, 3.0, 2.0]), np.array([1.0]))
    assert y == 1


def test_finite_spaces_refuse_inputs_of_another_dimension(multiclass_space):
    with pytest.raises(ContractViolation, match=r"^inputs must have shape \(2,\)$"):
        multiclass_space.argmax_score_all(np.zeros(multiclass_space.dim), np.zeros((2, 3)))


def test_argmax_zero_weights_tie_rule(multiclass_space, taxonomy_space):
    assert multiclass_space.argmax_score(np.zeros(multiclass_space.dim), np.ones(2)) == 0
    first_leaf = min(taxonomy_space.tree.leaves)
    assert (
        taxonomy_space.argmax_score(np.zeros(taxonomy_space.dim), np.ones(2))
        == first_leaf
    )


def test_argmax_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(100):
        space, x = random_flat_space(rng)
        w = rng.standard_normal(space.dim)
        assert space.argmax_score(w, x) == oracles.brute_argmax_score(space, w, x)


# --- argmax_loss_augmented ----------------------------------------------------------


def test_loss_augmented_zero_weights(multiclass_space):
    # only the loss term remains; smallest wrong class wins
    y, value = multiclass_space.argmax_loss_augmented(
        np.zeros(multiclass_space.dim), np.ones(2), 0
    )
    assert (y, value) == (1, 1.0)
    y, value = multiclass_space.argmax_loss_augmented(
        np.zeros(multiclass_space.dim), np.ones(2), 2
    )
    assert (y, value) == (0, 1.0)


def test_loss_augmented_matches_enumeration():
    rng = np.random.default_rng(29)
    for _ in range(100):
        space, x = random_flat_space(rng)
        w = rng.standard_normal(space.dim)
        z = space.random_output(x, rng)
        got = space.argmax_loss_augmented(w, x, z)
        assert got == oracles.brute_argmax_loss_augmented(space, w, x, z)


def test_loss_augmented_value_sandwich_sampled():
    rng = np.random.default_rng(31)
    for _ in range(200):
        space, x = random_flat_space(rng)
        w = rng.standard_normal(space.dim)
        z = space.random_output(x, rng)
        _, value = space.argmax_loss_augmented(w, x, z)
        best = space.argmax_score(w, x)
        assert value >= space.delta(best, z) >= 0.0


# --- argmin_slack --------------------------------------------------------------------


def test_slack_without_neighbors_returns_upsilon(multiclass_space):
    y = oracles.argmin_slack(
        multiclass_space, np.zeros(multiclass_space.dim), np.ones(2), 2, [], 1.0
    )
    assert y == 2


def test_slack_follows_heavy_neighbor():
    space = MulticlassSpace(3, 2)
    w = np.zeros(space.dim)
    x = np.ones(2)
    # candidate objectives with upsilon=0, neighbor k=2: y=0 -> omega,
    # y=1 -> omega + c1, y=2 -> c1; the neighbor wins when omega > c1
    assert oracles.argmin_slack(space, w, x, 0, [(5.0, 2)], 1.0) == 2
    assert oracles.argmin_slack(space, w, x, 0, [(0.5, 2)], 1.0) == 0


def test_slack_matches_enumeration():
    rng = np.random.default_rng(37)
    for _ in range(100):
        space, x = random_flat_space(rng)
        w = rng.standard_normal(space.dim)
        upsilon = space.random_output(x, rng)
        neighbors = [
            (float(rng.uniform(0.1, 1.0)), space.random_output(x, rng))
            for _ in range(int(rng.integers(0, 4)))
        ]
        c1 = float(rng.uniform(0.2, 3.0))
        got = oracles.argmin_slack(space, w, x, upsilon, neighbors, c1)
        assert got == oracles.brute_argmin_slack(space, w, x, upsilon, neighbors, c1)


def test_slack_objective_value_is_the_minimized_quantity(multiclass_space):
    rng = np.random.default_rng(41)
    w = rng.standard_normal(multiclass_space.dim)
    x = rng.standard_normal(2)
    neighbors = [(0.7, 1), (0.3, 2)]
    best = oracles.argmin_slack(multiclass_space, w, x, 0, neighbors, 2.0)
    values = [
        oracles.slack_objective_value(w, x, 0, neighbors, 2.0, y, multiclass_space)
        for y in range(3)
    ]
    assert oracles.slack_objective_value(
        w, x, 0, neighbors, 2.0, best, multiclass_space
    ) == min(values)


@pytest.mark.parametrize("space", [MulticlassSpace(3, 2),
                                   TaxonomySpace(three_level_taxonomy(), 2)],
                         ids=lambda s: s.kind)
def test_a_huge_c1_leaks_no_overflow_from_the_slack_oracle(space):
    """Costs past the float range read +-inf without a RuntimeWarning."""
    rng = np.random.default_rng(73)
    w = 500.0 * rng.standard_normal(space.dim)
    X = rng.standard_normal((5, 2))
    ups = [space.random_output(x, rng) for x in X]
    terms = ([0, 3], [0.5, 0.25], list(space.labels[:2]))
    codes = space.argmin_slack_all(w, X, ups, terms, 1e308).tolist()
    assert space.contains_all(codes).all()


def test_slack_rejects_nonpositive_c1(multiclass_space):
    with pytest.raises(ContractViolation):
        oracles.argmin_slack(multiclass_space, np.zeros(6), np.ones(2), 0, [], 0.0)


# --- structure validation and round trips --------------------------------------------


def test_taxonomy_rejects_two_roots():
    with pytest.raises(ContractViolation):
        Taxonomy((None, None, 0))


def test_taxonomy_rejects_cycle():
    with pytest.raises(ContractViolation):
        Taxonomy((None, 2, 1))


def _relabeled(rng, parents):
    """``parents`` with its node ids shuffled, so that ids follow no walk."""
    new = rng.permutation(len(parents))
    out = [None] * len(parents)
    for i, p in enumerate(parents):
        out[new[i]] = None if p is None else int(new[p])
    return tuple(out)


def _trees():
    rng = np.random.default_rng(19)
    yield "scene", three_level_taxonomy().parents
    for k in range(12):  # each node under a random earlier one
        q = int(rng.integers(2, 40))
        yield f"random-{k}", _relabeled(rng, [None] + [int(rng.integers(i)) for i in range(1, q)])
    yield "path", (None, *range(30), 0)  # 30 deep, one more leaf at the root
    yield "caterpillar", (None, 0, 0, *(i for j in range(1, 20) for i in (2 * j - 1,) * 2))
    yield "star", (None,) + (0,) * 30
    yield "star-relabeled", _relabeled(rng, (None,) + (0,) * 30)


@pytest.mark.parametrize("parents", [p for _, p in _trees()], ids=[k for k, _ in _trees()])
def test_taxonomy_matrices_equal_the_pairwise_reference(parents):
    tree = Taxonomy(parents)
    space = TaxonomySpace(tree, 2)
    A, L = oracles.pairwise_taxonomy_matrices(tree)
    assert space.incidence.tobytes() == A.astype(np.int8).tobytes()
    assert space.loss_matrix.shape == L.shape
    assert space.loss_matrix.tobytes() == L.tobytes()


def test_a_taxonomy_of_two_thousand_leaves_builds_fast():
    """A root, 30 branches and 2 000 leaves spread over them: the matrices
    come from one tree walk, not from a Python call per leaf pair."""
    parents = (None, *(0,) * 30, *(1 + i % 30 for i in range(2000)))
    start = time.perf_counter()
    space = TaxonomySpace(Taxonomy(parents), 4)
    assert time.perf_counter() - start < 0.5
    assert space.loss_matrix.shape == (2000, 2000)


def test_space_config_round_trip(multiclass_space, taxonomy_space):
    for space in (multiclass_space, taxonomy_space):
        rebuilt = space_from_config(space.config())
        assert rebuilt.dim == space.dim
        assert rebuilt.labels == space.labels


def test_multiclass_rejects_degenerate_sizes():
    with pytest.raises(ContractViolation):
        MulticlassSpace(1, 3)
    with pytest.raises(ContractViolation):
        MulticlassSpace(3, 0)
