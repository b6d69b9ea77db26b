"""One storage for every dataset: generated files pinned byte for byte, and
the ``Dataset(points)`` adapter for hand-built points.

The generators use only seeded draws and elementwise arithmetic, so the
bytes ``save_dataset`` writes for them do not depend on the BLAS build.
"""

import hashlib

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataPoint,
    Dataset,
    MulticlassSpace,
    TaxonomySpace,
    three_level_taxonomy,
    validate_dataset,
)
from semistruct.data_io import save_dataset, synth_blobs, synth_chains, synth_taxonomy_blobs

from . import oracles

TREE = three_level_taxonomy()

# name -> (dataset, space, sha256 of the file save_dataset writes)
GENERATED = {
    "blobs": (lambda: synth_blobs(3, 5, 4, 0.5, seed=0), lambda: MulticlassSpace(3, 4),
              "714fca480eeac851520fc1cbb6113f548408ff9ec1427fa16feb5df42f2be5aa"),
    "ring-blobs": (lambda: synth_blobs(5, 3, 2, 0.3, seed=4), lambda: MulticlassSpace(5, 2),
                   "e9a0bac6d09d46c54b68b9b151f1016627b7df5e41f4c32443005bf704e3d584"),
    "taxonomy": (lambda: synth_taxonomy_blobs(TREE, 2, 3, 1.0, seed=1),
                 lambda: TaxonomySpace(TREE, 3),
                 "f5a894b132d0dc5210c76e6cf29aa76e7fbb791644fdd64fa50436340c5b25a7"),
    "chains": (lambda: synth_chains(3, (4, 4), 6, 2, seed=2), lambda: ChainSequenceSpace(3, 2),
               "6e53789b2303186c1c3c615040f54e636a737566e680b1e1e743453b986f0b7c"),
    "mixed-chains": (lambda: synth_chains(3, (2, 5), 8, 2, seed=3),
                     lambda: ChainSequenceSpace(3, 2),
                     "97e02d938cf267909b719c0e624d568a8c56424e40934a082f1838894d52c85d"),
}


@pytest.mark.parametrize("name", sorted(GENERATED))
def test_generated_files_keep_their_bytes(tmp_path, name):
    make_ds, make_space, digest = GENERATED[name]
    path = tmp_path / "data.jsonl"
    save_dataset(make_ds(), path, make_space())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_generators_stack_inputs_of_one_shape():
    assert synth_blobs(3, 5, 4, 0.5, seed=0).inputs.shape == (15, 4)
    assert synth_chains(3, (4, 4), 6, 2, seed=2).inputs.shape == (6, 4, 2)
    assert type(synth_chains(3, (2, 5), 8, 2, seed=3).inputs) is list


def test_hand_built_inputs_of_one_shape_become_one_float_matrix():
    xs = [[1, 2], np.array([3.0, 4.0]), (5, 6)]
    ds = Dataset([DataPoint(i, x, i % 2 or None) for i, x in enumerate(xs)], "multiclass")
    assert type(ds.inputs) is np.ndarray and ds.inputs.dtype == float
    assert ds.inputs.tolist() == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
    assert ds.outputs == [None, 1, None] and ds.labeled.tolist() == [False, True, False]
    assert [(p.id, p.x.tolist(), p.y) for p in ds.points] == [
        (0, [1.0, 2.0], None), (1, [3.0, 4.0], 1), (2, [5.0, 6.0], None)]


def test_hand_built_inputs_of_mixed_shapes_become_a_list_of_float_arrays(multiclass_space):
    points = (DataPoint(0, [1.0, 2.0], 0), DataPoint(1, np.array([np.nan, 1.0, 2.0]), None),
              DataPoint(2, (3,), 1))
    ds = Dataset(points, "multiclass")
    assert type(ds.inputs) is list
    assert all(type(x) is np.ndarray and x.dtype == float for x in ds.inputs)
    for x, want in zip(ds.inputs, ([1.0, 2.0], [np.nan, 1.0, 2.0], [3.0]), strict=True):
        assert np.array_equal(x, want, equal_nan=True)
    assert len(ds) == 3 and ds.outputs == [0, None, 1]
    assert validate_dataset(ds, multiclass_space).violations == [
        "id 1: input has non-finite entries",
        "id 1: input dimension 3 differs from 2",
        "id 2: input dimension 1 differs from 2",
    ]
    assert validate_dataset(ds, multiclass_space).violations == (
        oracles.validate_dataset(ds, multiclass_space).violations)


@pytest.mark.parametrize("x, problem", [
    (["a", "b"], "ragged or non-numeric x"),
    ([10**400, 1], "x holds a number too large for a float"),
], ids=["non-numeric", "too-large"])
def test_hand_built_unreadable_inputs_raise_at_construction(x, problem):
    with pytest.raises(ContractViolation) as e:
        Dataset([DataPoint(0, [1.0, 2.0], 0), DataPoint(1, x, 1)])
    assert str(e.value) == f"point 1: {problem}"


@pytest.mark.parametrize("ids, position, pid", [
    ((0, 2, 1), 1, 2),  # out of order
    ((0, 1, 1), 2, 1),  # duplicate
    ((1, 2, 3), 0, 1),  # not from 0
])
def test_hand_built_ids_out_of_order_raise_at_construction(ids, position, pid):
    points = [DataPoint(i, np.zeros(2), 0) for i in ids]
    with pytest.raises(ContractViolation) as e:
        Dataset(points, "multiclass")
    assert str(e.value) == (
        f"point at position {position} has id {pid}; ids must be contiguous from 0")
