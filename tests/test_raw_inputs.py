"""Hand-built sets are read the way files are: an input no float array can
hold is refused when ``Dataset(points)`` reads it, naming the point, so no
entry point meets it later as a raw numpy exception."""

import warnings

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataPoint,
    Dataset,
    MulticlassSpace,
    NeighborGraph,
    SolverConfig,
    build_knn_graph,
    fit,
    run_cv,
    validate_dataset,
)
from semistruct.data_io import synth_blobs, synth_chains

pytestmark = pytest.mark.filterwarnings("error")

BAD = 3  # the point whose input is replaced

# kind -> (space, a readable set of 12 points of it)
SETS = {
    "multiclass": (MulticlassSpace(3, 2), lambda: synth_blobs(3, 4, 2, 0.5, seed=0)),
    "chain": (ChainSequenceSpace(3, 2), lambda: synth_chains(3, (3, 3), 12, 2, seed=0)),
}

# name -> (multiclass x, chain x, the problem named)
INPUTS = {
    "non-numeric": (["a", "b"], [["a", "b"]] * 3, "ragged or non-numeric x"),
    "too-large": ([10**400, 1.0], [[1.0, 0.0], [10**400, 1.0], [0.0, 0.0]],
                  "x holds a number too large for a float"),
    "ragged": ([[1.0], [2.0, 3.0]], [[1.0, 2.0], [3.0], [4.0, 5.0]], "ragged or non-numeric x"),
    "complex": (np.array([1 + 2j, 0.0]), np.array([[1.0, 0.0], [1 + 2j, 0.0], [0.0, 0.0]]),
                "ragged or non-numeric x"),
}

CFG = SolverConfig(max_iters=2)

# entry point -> what it does with a hand-built set of ``space``
ENTRY_POINTS = {
    "Dataset": lambda ds, space: ds(),
    "validate_dataset": lambda ds, space: validate_dataset(ds(), space),
    "build_knn_graph": lambda ds, space: build_knn_graph(ds(), k=3),
    "fit": lambda ds, space: fit(ds(), NeighborGraph.empty(12), space, CFG),
    "run_cv": lambda ds, space: run_cv(ds(), space, CFG, k=3),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
@pytest.mark.parametrize("bad", sorted(INPUTS))
@pytest.mark.parametrize("kind", sorted(SETS))
def test_an_unreadable_hand_built_input_is_refused_naming_its_point(kind, bad, entry):
    space, make = SETS[kind]
    points = list(make().points)
    *xs, problem = INPUTS[bad]
    points[BAD] = DataPoint(BAD, xs[kind == "chain"], points[BAD].y)
    with pytest.raises(ContractViolation) as e:
        ENTRY_POINTS[entry](lambda: Dataset(points, kind), space)
    assert str(e.value) == f"point {BAD}: {problem}"



@pytest.mark.parametrize("x", [np.array([1 + 2j, 0.0]), np.array([1 + 0j, 0.0]),
                               np.complex128(1 + 2j)], ids=["complex", "real-valued", "scalar"])
def test_a_complex_input_is_refused_without_a_warning(x):
    """Not cast to its real part, also where warnings are not errors."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        with pytest.raises(ContractViolation, match="^point 0: ragged or non-numeric x$"):
            Dataset([DataPoint(0, x, 0)])
        with pytest.raises(ContractViolation, match="^point 1: ragged or non-numeric x$"):
            Dataset.from_arrays([np.zeros(2), x], [0, 1])
    assert seen == []


def test_arrays_of_other_inputs_are_read_as_hand_built_points_are():
    space = MulticlassSpace(2, 2)
    ds = Dataset.from_arrays([[1.0, 2.0], [3.0]], [0, 1])
    assert validate_dataset(ds, space).violations == ["id 1: input dimension 1 differs from 2"]
    with pytest.raises(ContractViolation, match="input dimension 1 differs from 2"):
        run_cv(ds, space, CFG, k=1)
    stacked = Dataset.from_arrays([[1.0, 2.0], [3, 4]], [0, 1]).inputs
    assert stacked.dtype == float and stacked.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    with pytest.raises(ContractViolation, match="^point 1: ragged or non-numeric x$"):
        Dataset.from_arrays([np.zeros(2), ["a", "b"]], [0, 1])


@pytest.mark.parametrize("inputs", [np.zeros((3, 2)), [np.zeros((2, 1)), np.zeros((3, 1))],
                                    [np.zeros(2), np.ones(2)]],
                         ids=["stack", "mixed-list", "equal-list"])
def test_float_arrays_are_stored_as_given(inputs):
    ds = Dataset.from_arrays(inputs, [0] * len(inputs))
    assert ds.inputs is inputs
