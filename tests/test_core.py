import numpy as np
import pytest

import semistruct
from semistruct import (
    ContractViolation,
    DataPoint,
    Dataset,
    MulticlassSpace,
    OutputSpace,
    validate_dataset,
)

from . import oracles
from .conftest import random_chain_instance, random_flat_space


def test_public_surface_is_pinned():
    assert semistruct.__all__ == [
        "ChainSequenceSpace", "ContractViolation", "DataFormatError", "DataPoint", "Dataset",
        "Diverged", "EvalReport", "MulticlassSpace", "NeighborGraph", "OutputSpace",
        "SemistructError", "SolverConfig", "SolverState", "Taxonomy", "TaxonomySpace",
        "UnsupportedConfiguration", "ValidationReport", "asl", "build_knn_graph", "fit",
        "initialize", "load_model", "manifold_term", "objective", "run_baseline_supervised",
        "run_cv", "save_model", "space_from_config", "sweep", "three_level_taxonomy",
        "trace_csv", "update_slack", "update_upsilon", "update_weights", "validate_dataset",
    ]
    namespace = {}
    exec("from semistruct import *", namespace)
    assert set(semistruct.__all__) <= set(namespace)
    # a space implements the whole-array forms; the one-item forms are views
    assert OutputSpace.__abstractmethods__ == {
        "phi", "random_output", "config", "contains_all", "decode_all", "argmax_score_all",
        "argmax_loss_augmented_all", "argmin_slack_all", "delta_sum", "phi_diff_sum",
    }


def test_zero_weights_score_zero(multiclass_space):
    w = np.zeros(multiclass_space.dim)
    assert oracles.matching_score(w, np.array([1.0, -2.0]), 2, multiclass_space) == 0.0


def test_hand_expanded_block_score():
    # d=2, two classes, y = class 0: phi = (x, 0), so w=(1,1,0,0) gives 1*1 + 1*2
    space = MulticlassSpace(2, 2)
    w = np.array([1.0, 1.0, 0.0, 0.0])
    assert oracles.matching_score(w, np.array([1.0, 2.0]), 0, space) == 3.0


def test_score_depends_on_output_only_through_phi(multiclass_space):
    # zero input collapses every class block, so all scores coincide
    x = np.zeros(2)
    w = np.arange(multiclass_space.dim, dtype=float)
    scores = {oracles.matching_score(w, x, y, multiclass_space) for y in range(3)}
    assert scores == {0.0}


def test_score_linear_in_weights():
    rng = np.random.default_rng(7)
    for _ in range(50):
        space, x = random_flat_space(rng)
        y = oracles.enumerate_candidates(space, x)[0]
        w1 = rng.standard_normal(space.dim)
        w2 = rng.standard_normal(space.dim)
        a, b = rng.standard_normal(2)
        combined = oracles.matching_score(a * w1 + b * w2, x, y, space)
        split = (a * oracles.matching_score(w1, x, y, space)
                 + b * oracles.matching_score(w2, x, y, space))
        assert abs(combined - split) < 1e-9


def test_score_dimension_mismatch(multiclass_space):
    with pytest.raises(ContractViolation):
        multiclass_space.argmax_score(np.zeros(5), np.array([1.0, 2.0]))


def test_score_rejects_non_finite_weights(multiclass_space):
    w = np.zeros(multiclass_space.dim)
    w[0] = np.nan
    with pytest.raises(ContractViolation):
        multiclass_space.argmax_score(w, np.array([1.0, 2.0]))


def test_loss_zero_on_identical_outputs_full_enumeration(
    multiclass_space, taxonomy_space
):
    for space in (multiclass_space, taxonomy_space):
        for y in space.labels:
            assert space.delta(y, y) == 0.0


def test_loss_zero_on_identical_outputs_sampled_chains():
    rng = np.random.default_rng(11)
    for _ in range(100):
        space, x = random_chain_instance(rng)
        y = space.random_output(x, rng)
        assert space.delta(y, y) == 0.0


def test_phi_length_matches_declared_dimension():
    from semistruct import TaxonomySpace, three_level_taxonomy

    rng = np.random.default_rng(13)
    flat_spaces = [
        MulticlassSpace(int(rng.integers(2, 7)), int(rng.integers(1, 6))),
        TaxonomySpace(three_level_taxonomy(), int(rng.integers(1, 6))),
    ]
    for space in flat_spaces:
        for _ in range(100):
            x = rng.standard_normal(space.input_dim)
            y = space.random_output(x, rng)
            assert space.phi(x, y).shape == (space.dim,)
    for _ in range(100):
        space, x = random_chain_instance(rng)
        y = space.random_output(x, rng)
        assert space.phi(x, y).shape == (space.dim,)


# --- dataset validation -------------------------------------------------------


def _points(*specs):
    return tuple(DataPoint(i, np.asarray(x, float), y) for i, (x, y) in enumerate(specs))


def test_validate_well_formed(multiclass_space):
    ds = Dataset(
        _points(([0.0, 1.0], 0), ([1.0, 0.0], None), ([2.0, 2.0], 1)),
        space_id="multiclass",
    )
    assert validate_dataset(ds, multiclass_space).ok


def test_validate_output_not_in_space(multiclass_space):
    ds = Dataset(
        _points(([0.0, 1.0], 0), ([1.0, 0.0], 7), ([2.0, 2.0], 1)),
        space_id="multiclass",
    )
    report = validate_dataset(ds, multiclass_space)
    assert len(report.violations) == 1
    assert "id 1" in report.violations[0]


def test_validate_mixed_input_dimensions(multiclass_space):
    points = (
        DataPoint(0, np.zeros(3), 0),
        DataPoint(1, np.zeros(4), 1),
    )
    report = validate_dataset(Dataset(points, "multiclass"), multiclass_space)
    assert any("dimension" in v for v in report.violations)


def test_validate_requires_labeled_point(multiclass_space):
    ds = Dataset(_points(([0.0, 1.0], None), ([1.0, 0.0], None)), "multiclass")
    report = validate_dataset(ds, multiclass_space)
    assert any("no labeled" in v for v in report.violations)


def test_validate_non_contiguous_ids():
    points = (DataPoint(0, np.zeros(2), 0), DataPoint(2, np.zeros(2), 1))
    with pytest.raises(ContractViolation,
                       match="^point at position 1 has id 2; ids must be contiguous from 0$"):
        Dataset(points, "multiclass")


def test_validate_space_id_mismatch(multiclass_space):
    ds = Dataset(_points(([0.0, 1.0], 0)), space_id="taxonomy")
    report = validate_dataset(ds, multiclass_space)
    assert any("space_id" in v for v in report.violations)


def test_validate_non_finite_input(multiclass_space):
    ds = Dataset(_points(([np.inf, 1.0], 0), ([1.0, 0.0], 1)), "multiclass")
    report = validate_dataset(ds, multiclass_space)
    assert any("non-finite" in v for v in report.violations)
