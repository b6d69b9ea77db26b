"""The dataset read path against the per-record loops in ``tests/oracles.py``.

Every file of the corpus must give the same dataset (ids, input bytes,
outputs) or the same ``DataFormatError`` text through ``load_dataset`` as
through the reference ``read_records`` and ``dataset_from_records``.
"""

import tracemalloc

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataFormatError,
    DataPoint,
    Dataset,
    MulticlassSpace,
    TaxonomySpace,
    three_level_taxonomy,
    validate_dataset,
)
from semistruct import data_io
from semistruct.data_io import (
    load_dataset,
    save_dataset,
    synth_blobs,
    synth_chains,
    synth_taxonomy_blobs,
)

from . import oracles

SPACES = {
    "multiclass": lambda: MulticlassSpace(3, 2),
    "taxonomy": lambda: TaxonomySpace(three_level_taxonomy(), 2),
    "chain": lambda: ChainSequenceSpace(3, 2),
}

OK = '{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [0.5, 1e-3], "y": null}\n'

# (name, space, file bytes, require_labeled, expected: None for a dataset,
# else a fragment of the error text)
CORPUS = [
    ("blank-lines", "multiclass",
     b'\n{"id": 0, "x": [1, 2], "y": 0}\n   \n\t\n{"id": 1, "x": [3, 4], "y": null}\n\n',
     True, None),
    ("crlf", "multiclass", OK.replace("\n", "\r\n").encode(), True, None),
    ("lone-cr", "multiclass", OK.replace("\n", "\r").encode(), True, None),
    ("no-final-newline", "multiclass", OK.rstrip("\n").encode(), True, None),
    ("bom", "multiclass", b"\xef\xbb\xbf" + OK.encode(), True, "BOM"),
    ("u2028-in-string", "multiclass",
     '{"id": 0, "x": [1, 2], "y": 0, "note": "a\u2028b\u2029c\x85d"}\n'.encode(), True, None),
    ("separators-around-record", "multiclass",
     '\x0c{"id": 0, "x": [1, 2], "y": 0}\x1c\u2028\n'.encode(), True, None),
    ("control-char-in-string", "multiclass",
     '{"id": 0, "x": [1, 2], "y": 0, "note": "a\x1cb"}\n'.encode(), True, "invalid JSON"),
    ("trailing-garbage", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [3, 4], "y": 1} xyz\n', True,
     ":2: invalid JSON"),
    ("two-records-one-line", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": 0}{"id": 1, "x": [3, 4], "y": 1}\n', True, "Extra data"),
    ("broken", "multiclass", b'{"id": 0, "x": [1, 2], "y": 0}\n{broken\n', True, ":2: invalid"),
    ("bare-word", "multiclass", b"hello\n", True, "Expecting value"),
    ("not-an-object", "multiclass", b"[1, 2]\n", True, "needs 'id' and 'x'"),
    ("missing-x", "multiclass", b'{"id": 0, "y": 0}\n', True, "needs 'id' and 'x'"),
    ("only-blank", "multiclass", b"\n  \n", True, "no records"),
    ("nan-infinity-1e400", "multiclass",
     b'{"id": 0, "x": [NaN, 1], "y": 0}\n{"id": 1, "x": [Infinity, -Infinity], "y": 1}\n'
     b'{"id": 2, "x": [1e400, 2], "y": null}\n{"id": 3, "x": [1, 2], "y": null}\n',
     True, "id 2: input has non-finite entries"),
    ("null-in-x", "multiclass", b'{"id": 0, "x": [null, 1], "y": 0}\n', True, "non-finite"),
    ("string-numbers", "multiclass",
     b'{"id": 0, "x": ["1.5", "-2e3"], "y": 0}\n{"id": 1, "x": [" 7 ", 2], "y": 1}\n',
     True, None),
    ("string-word", "multiclass", b'{"id": 0, "x": ["abc", 1], "y": 0}\n', True,
     "ragged or non-numeric x"),
    ("object-in-x", "multiclass", b'{"id": 0, "x": [{}, 1], "y": 0}\n', True,
     "ragged or non-numeric x"),
    ("bool-id", "multiclass", b'{"id": true, "x": [1, 2], "y": 0}\n', True,
     "id must be an integer"),
    ("float-id", "multiclass", b'{"id": 0.0, "x": [1, 2], "y": 0}\n', True,
     "id must be an integer"),
    ("duplicate-id", "multiclass", b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 0, "x": [1, 2]}\n',
     True, "duplicate id 0"),
    ("id-gap", "multiclass", b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 2, "x": [1, 2]}\n',
     True, "contiguous"),
    ("ids-out-of-order", "multiclass",
     b'{"id": 1, "x": [1, 2], "y": 0}\n{"id": 0, "x": [5, 6], "y": 2}\n', True, None),
    ("mixed-dimensions", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [1, 2, 3], "y": 1}\n'
     b'{"id": 2, "x": [1], "y": null}\n{"id": 3, "x": [1, 2, 3]}\n',
     True, "id 1: input dimension 3 differs from 2; id 2: input dimension 1"),
    ("mixed-dimensions-and-non-finite", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [NaN, 2, 3], "y": 1}\n'
     b'{"id": 2, "x": [Infinity, 1], "y": null}\n',
     True, "id 1: input has non-finite entries; id 1: input dimension 3"),
    ("ragged-x", "multiclass", b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [[1, 2], [3]]}\n',
     True, ":2: ragged or non-numeric x"),
    ("nested-x", "multiclass", b'{"id": 0, "x": [[1, 2], [3, 4]], "y": 0}\n', True,
     ":1: x has 2 dimension(s), space expects 1"),
    ("scalar-x", "multiclass", b'{"id": 0, "x": 5, "y": 0}\n', True, "x has 0 dimension(s)"),
    ("empty-x", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": 0}\n{"id": 1, "x": [], "y": null}\n', True,
     "id 1: empty input"),
    ("no-labels-required", "multiclass", b'{"id": 0, "x": [1, 2], "y": null}\n', True,
     "no labeled points"),
    ("no-labels-allowed", "multiclass", b'{"id": 0, "x": [1, 2], "y": null}\n', False, None),
    ("empty-x-and-no-labels-required", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": null}\n{"id": 1, "x": [], "y": null}\n', True,
     "id 1: empty input; dataset has no labeled points"),
    ("empty-x-and-no-labels-allowed", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": null}\n{"id": 1, "x": [], "y": null}\n', False,
     "id 1: empty input"),
    ("output-out-of-range", "multiclass", b'{"id": 0, "x": [1, 2], "y": 7}\n', True,
     ":1: bad output"),
    ("bool-output", "multiclass", b'{"id": 0, "x": [1, 2], "y": true}\n', True, "bad output"),
    ("error-order", "multiclass",
     b'{"id": 0, "x": [1, 2], "y": 9}\n{"id": 1, "x": [[1, 2]], "y": 0}\n', True, ":1:"),
    ("taxonomy-leaves", "taxonomy",
     b'{"id": 0, "x": [1, 2], "y": 4}\n{"id": 1, "x": [3, 4], "y": 18}\n'
     b'{"id": 2, "x": [3, 4], "y": null}\n', True, None),
    ("taxonomy-inner-node", "taxonomy", b'{"id": 0, "x": [1, 2], "y": 2}\n', True,
     "bad output"),
    ("taxonomy-mixed-dimensions", "taxonomy",
     b'{"id": 0, "x": [1, 2], "y": 4}\n{"id": 1, "x": [3, 4, 5], "y": null}\n', True,
     "id 1: input dimension 3 differs from 2"),
    ("chain-mixed-lengths", "chain",
     b'{"id": 0, "x": [[1, 2]], "y": [2]}\n'
     b'{"id": 1, "x": [[1, 2], [3, 4], [5, 6]], "y": [0, 1, 2]}\n'
     b'{"id": 2, "x": [[1, 2], [3, 4]], "y": null}\n'
     b'{"id": 3, "x": [[0, 0], [1, 1]], "y": [1, 1]}\n',
     True, None),
    ("chain-length-mismatch", "chain",
     b'{"id": 0, "x": [[1, 2], [3, 4]], "y": [0, 1, 1]}\n', True, "not valid for this input"),
    ("chain-bad-label", "chain", b'{"id": 0, "x": [[1, 2], [3, 4]], "y": [0, 5]}\n', True,
     "bad output"),
    ("chain-output-not-a-list", "chain", b'{"id": 0, "x": [[1, 2]], "y": 1}\n', True,
     "bad output"),
    ("chain-flat-x", "chain", b'{"id": 0, "x": [1, 2], "y": null}\n', False,
     "x has 1 dimension(s), space expects 2"),
    ("chain-empty-x", "chain",
     b'{"id": 0, "x": [[1, 2]], "y": [0]}\n{"id": 1, "x": [[]], "y": null}\n', True,
     "id 1: empty input"),
    ("chain-mixed-dimensions", "chain",
     b'{"id": 0, "x": [[1, 2]], "y": [0]}\n{"id": 1, "x": [[1, 2, 3]], "y": null}\n'
     b'{"id": 2, "x": [[1, 2, 3], [4, 5, 6]], "y": null}\n', True,
     "id 1: input dimension 3 differs from 2; id 2: input dimension 3"),
    ("chain-non-finite", "chain",
     b'{"id": 0, "x": [[1, 2], [NaN, 4]], "y": [0, 1]}\n{"id": 1, "x": [[1, 2]], "y": null}\n'
     b'{"id": 2, "x": [[1, 2], [3, -Infinity]], "y": null}\n', True,
     "id 0: input has non-finite entries; id 2: input has non-finite entries"),
]


def _reference_load(path, space, require_labeled):
    records = oracles.read_records(path)
    return oracles.dataset_from_records(records, path, space, require_labeled)


def _outcome(load, path, space, require_labeled):
    try:
        ds = load(path, space, require_labeled)
    except DataFormatError as e:
        return str(e)
    return [(p.id, p.x.dtype.str, p.x.shape, p.x.tobytes(), p.y) for p in ds.points]


def _both(path, space, require_labeled):
    return (_outcome(_reference_load, path, space, require_labeled),
            _outcome(load_dataset, path, space, require_labeled))


@pytest.mark.parametrize("name, kind, content, require_labeled, expected", CORPUS,
                         ids=[case[0] for case in CORPUS])
def test_read_path_matches_per_record_reference(tmp_path, name, kind, content,
                                                require_labeled, expected):
    path = tmp_path / f"{name}.jsonl"
    path.write_bytes(content)
    ref, new = _both(path, SPACES[kind](), require_labeled)
    assert new == ref
    if expected is None:
        assert isinstance(new, list)
    else:
        assert isinstance(new, str) and expected in new


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_read_path_matches_reference_on_generated_files(tmp_path, kind):
    _check_generated_file(tmp_path, kind)


def _generated(kind):
    """A synthetic set of ``kind`` with every third point unlabeled."""
    if kind == "multiclass":
        ds = synth_blobs(3, 40, 2, 0.7, seed=3)
    elif kind == "taxonomy":
        ds = synth_taxonomy_blobs(three_level_taxonomy(), 8, 2, 0.7, seed=3)
    else:
        ds = synth_chains(3, (1, 5), 90, 2, seed=3)
    return Dataset(tuple(DataPoint(p.id, p.x, p.y if p.id % 3 else None) for p in ds.points),
                   ds.space_id)


def _check_generated_file(tmp_path, kind):
    ds = _generated(kind)
    space = SPACES[kind]()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path, space)
    ref, new = _both(path, space, True)
    assert isinstance(new, list) and len(new) == len(ds.points)
    assert new == ref


@pytest.mark.parametrize("kind", sorted(SPACES))
def test_a_file_read_asks_about_its_labeled_outputs_once(tmp_path, kind):
    """One ``contains_all`` call checks every labeled output against its
    input; the dataset made from them is not validated again."""
    space = SPACES[kind]()
    path = tmp_path / "data.jsonl"
    save_dataset(_generated(kind), path, space)
    asked, contains_all = [], space.contains_all

    def counted(ys, xs=None):
        if xs is not None:
            asked.append(len(ys))
        return contains_all(ys, xs)

    space.contains_all = counted
    ds = load_dataset(path, space, require_labeled=True)
    assert asked == [int(ds.labeled.sum())]


def test_labeled_chain_of_another_width_names_the_line(tmp_path):
    """The parent let ``contains``' ContractViolation escape here, naming
    neither file nor line."""
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"id": 0, "x": [[1, 2]], "y": [0]}\n{"id": 1, "x": [[1, 2, 3]], "y": [1]}\n')
    space = SPACES["chain"]()
    with pytest.raises(ContractViolation, match="sequence input has shape"):
        _reference_load(path, space, True)
    with pytest.raises(DataFormatError) as err:
        load_dataset(path, space)
    assert str(err.value) == (
        f"{path}:2: bad input: sequence input has shape (1, 3), expected (T, 2)"
    )


class _SignSpace(oracles.EnumeratingSpace):
    """A minimal custom space: outputs -1 and +1 on flat inputs."""

    kind = "sign"

    def __init__(self, input_dim=None):
        if input_dim is not None:
            self.input_dim = input_dim
            self.dim = input_dim

    def contains(self, y, x=None):
        return y in (-1, 1)

    def phi(self, x, y):
        return y * np.asarray(x, dtype=float)

    def delta(self, y1, y2):
        return float(y1 != y2)

    def outputs(self, x=None):
        return iter((-1, 1))

    def random_output(self, x, rng):
        return (-1, 1)[rng.integers(2)]

    def decode(self, value):
        if value not in (-1, 1):
            raise ContractViolation(f"not a sign: {value!r}")
        return value

    def config(self):
        return {"kind": self.kind, "input_dim": self.input_dim}


def test_custom_space_must_declare_input_dim(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"id": 0, "x": [1, 2], "y": 1}\n{"id": 1, "x": [3, 4], "y": null}\n')
    ds = load_dataset(path, _SignSpace(2))
    assert [p.y for p in ds.points] == [1, None]
    with pytest.raises(DataFormatError, match=r"id 0: input dimension 2 differs from 3"):
        load_dataset(path, _SignSpace(3))
    with pytest.raises(ContractViolation, match="_SignSpace must declare input_dim"):
        load_dataset(path, _SignSpace())
    with pytest.raises(ContractViolation, match="must declare input_dim"):
        validate_dataset(ds, _SignSpace(0))


def test_validate_dataset_matches_per_point_reference(multiclass_space):
    rng = np.random.default_rng(5)
    points = [
        DataPoint(0, [[1.0, 2.0]], 0),  # wrong number of dimensions
        DataPoint(1, rng.standard_normal(2), 1),
        DataPoint(2, [np.nan, 1.0, 2.0], 2),  # non-finite and wrong dimension
        DataPoint(3, np.zeros(0), None),  # empty
        DataPoint(4, np.array([1, 2]), 9),  # output outside the space
        DataPoint(5, np.array([np.inf, 0.0]), (0,)),
        DataPoint(6, np.array(3.0), None),  # scalar input
    ]
    points += [DataPoint(7 + i, x, None) for i, x in enumerate(rng.standard_normal((2100, 2)))]
    points[1500] = DataPoint(1500, np.array([0.0, np.nan]), None)  # in a later block
    points[2000] = DataPoint(2000, np.array([1.0, 2.0, 3.0]), None)  # wrong dimension, later
    for space_id in ("multiclass", "chain"):
        ds = Dataset(tuple(points), space_id)
        ref = oracles.validate_dataset(ds, multiclass_space).violations
        assert validate_dataset(ds, multiclass_space).violations == ref
        assert len(ref) >= 10


def test_read_path_memory_stays_bounded(tmp_path):
    """A 10 000 x 8 file: inputs are checked in blocks, not stacked whole,
    and no per-record float lists are kept until one conversion."""
    space = MulticlassSpace(8, 8)
    ds = synth_blobs(8, 1250, 8, 0.6, seed=0)
    ds = Dataset(tuple(DataPoint(p.id, p.x, p.y if p.id % 20 == 0 else None)
                       for p in ds.points), "multiclass")
    path = tmp_path / "pool.jsonl"
    save_dataset(ds, path, space)
    load_dataset(path, space)  # warm up lazily built state
    tracemalloc.start()
    try:
        load_dataset(path, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_chain_read_path_memory_stays_bounded(tmp_path):
    """A 1000 x (6, 6) unlabeled chain file, the shape of a held-out chain
    set: 128-record blocks keep the peak near 1 MiB; 1024-record ones held
    the float lists of the whole file at once (2.2 MiB)."""
    space = ChainSequenceSpace(4, 6)
    points = synth_chains(4, (6, 6), 1000, 6, seed=0).points
    path = tmp_path / "heldout.jsonl"
    save_dataset(Dataset(tuple(DataPoint(p.id, p.x) for p in points), "chain"), path, space)
    load_dataset(path, space)  # warm up lazily built state
    tracemalloc.start()
    try:
        ds = load_dataset(path, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.inputs.shape == (1000, 6, 6)
    assert peak < 1.5 * 2**20


@pytest.mark.parametrize("block", [1, 2, 3])
def test_read_path_matches_reference_in_small_blocks(tmp_path, monkeypatch, block):
    """Every corpus file and a generated file per space, with a failing
    record in a later conversion block than the first."""
    monkeypatch.setattr(data_io, "_BLOCK_RECORDS", block)
    for name, kind, content, require_labeled, _ in CORPUS:
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(content)
        ref, new = _both(path, SPACES[kind](), require_labeled)
        assert new == ref, name
    for kind in sorted(SPACES):
        _check_generated_file(tmp_path, kind)


GOOD = [b'{"id": %d, "x": [%d, 1], "y": %d}' % (i, i, i % 3) for i in range(9)]

# (lines replacing the good ones, by 0-based index; the line the error names)
LATE_ERRORS = [
    ({7: b'{"id": 7, "x": [[1, 2], [3]], "y": 0}'}, 8),  # ragged x
    ({7: b'{"id": 7, "x": [1, "a"], "y": 0}'}, 8),  # non-numeric x
    ({7: b'{"id": 7, "x": [1, 1e999999999999], "y": 0}'}, 8),  # parses as infinity: no error
    ({7: b'{"id": 7, "x": [1, %d], "y": 0}' % 10**400}, 8),  # too large for a float
    ({4: b'{"id": 4, "x": [1, "a"], "y": 0}', 5: b"{broken"}, 5),  # bad x before bad JSON
    ({4: b"{broken", 5: b'{"id": 5, "x": [1, "a"], "y": 0}'}, 5),  # bad JSON before bad x
    ({4: b'{"id": 4, "x": [1, "a"], "y": 0}', 8: b'{"id": 1, "x": [1, 2]}'}, 5),
    ({7: b'{"id": 7, "x": [1, 2], "y": true}'}, 8),  # bool output
    ({7: b'{"id": 7, "x": [[1, 2]], "y": 0}', 2: b'{"id": 2, "x": [1, 2], "y": 7}'}, 3),
    ({6: b'{"id": 6, "x": [[1, 2]], "y": 0}', 7: b'{"id": 7, "x": [1], "y": 7}'}, 7),
    ({7: b'{"id": 7, "x": [1, 2, 3], "y": 0}', 8: b'{"id": 8, "x": [], "y": 0}'}, None),
]


@pytest.mark.parametrize("block", [2, 3, 1024])
@pytest.mark.parametrize("case", range(len(LATE_ERRORS)))
def test_errors_in_later_blocks_read_as_the_reference(tmp_path, monkeypatch, block, case):
    monkeypatch.setattr(data_io, "_BLOCK_RECORDS", block)
    swaps, line = LATE_ERRORS[case]
    path = tmp_path / "data.jsonl"
    path.write_bytes(b"\n".join(swaps.get(i, g) for i, g in enumerate(GOOD)) + b"\n")
    space = SPACES["multiclass"]()
    try:
        ref = _outcome(_reference_load, path, space, True)
    except OverflowError:  # the reference leaves this error unworded
        ref = f"{path}:{line}: x holds a number too large for a float"
    new = _outcome(load_dataset, path, space, True)
    assert new == ref
    if line is None:
        assert new == f"{path}: id 7: input dimension 3 differs from 2; id 8: empty input"
    elif case == 2:
        assert isinstance(new, str) and "id 7: input has non-finite entries" in new
    else:
        assert isinstance(new, str) and new.startswith(f"{path}:{line}: ")


def test_reader_stacks_flat_inputs_into_one_matrix(tmp_path):
    ds = synth_blobs(3, 40, 4, 0.7, seed=3)
    space = MulticlassSpace(3, 4)
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path, space)
    # ids out of file order: the matrix is in id order
    lines = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(b"".join(lines[60:] + lines[:60]))
    got = load_dataset(path, space)
    assert type(got.inputs) is np.ndarray
    assert got.inputs.dtype == float and got.inputs.shape == (120, 4)
    ref = _reference_load(path, space, True)
    assert [row.tobytes() for row in got.inputs] == [p.x.tobytes() for p in ref.points]
    assert got.outputs == [p.y for p in ref.points]


def test_reader_lists_sequences_of_several_lengths(tmp_path):
    ds = synth_chains(3, (1, 5), 60, 2, seed=4)
    space = SPACES["chain"]()
    path = tmp_path / "data.jsonl"
    save_dataset(ds, path, space)
    got = load_dataset(path, space)
    assert type(got.inputs) is list
    assert [x.shape for x in got.inputs] == [p.x.shape for p in ds.points]
    assert {x.shape[0] for x in got.inputs} == {1, 2, 3, 4, 5}
