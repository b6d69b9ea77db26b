"""The whole-array membership checks against their scalar forms.

``contains_all`` and ``decode_all`` must answer exactly what one
``contains``/``decode`` call per value answers, for members and for every
kind of non-member, and a fit must not fall back to per-point scalar calls.
"""

import re

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataFormatError,
    MulticlassSpace,
    TaxonomySpace,
    three_level_taxonomy,
)
from semistruct import cli, data_io
from semistruct.core import Dataset
from semistruct.data_io import load_dataset, save_dataset, synth_blobs

from . import oracles

_ODD = [None, True, False, np.bool_(True), np.int64(1), np.int32(2), np.uint8(1), 1.0, 2.5,
        -1, -(2**70), 2**70, 2**63, "1", [1], (1,)]

_SPACES = {
    "multiclass": (lambda: MulticlassSpace(3, 2), [0, 1, 2], [3, 7]),
    "taxonomy": (lambda: TaxonomySpace(three_level_taxonomy(), 2),
                 list(three_level_taxonomy().leaves), [0, 1, 3, 19]),
    "chain": (lambda: ChainSequenceSpace(3, 2), [(0, 1, 2), (2, 2, 2), (0, 0, 0)],
              [(0, 1), (0, 1, 3), (0, 1, 2, 0), (), [0, 1, 2], (True, 0, 1), (1.0, 0, 1),
               (np.int64(1), 0, 1), (-1, 0, 0), (2**70, 0, 0)]),
}


def _values(kind):
    _, members, others = _SPACES[kind]
    return members + others + _ODD


def _decode_or_error(space, value):
    try:
        return space.decode(value)
    except ContractViolation:
        return ContractViolation


def _chain_inputs(count):
    return np.zeros((count, 3, 2))


@pytest.mark.parametrize("kind", list(_SPACES))
@pytest.mark.parametrize("with_inputs", [False, True])
def test_contains_all_equals_contains_per_value(kind, with_inputs):
    space = _SPACES[kind][0]()
    values = _values(kind)
    xs = _chain_inputs(len(values)) if with_inputs else None
    want = [space.contains(y) if xs is None else space.contains(y, x=x)
            for y, x in zip(values, xs if xs is not None else values)]
    got = space.contains_all(values, xs)
    assert got.dtype == bool and got.tolist() == want
    for i, y in enumerate(values):  # alone, and among members only
        one = None if xs is None else xs[i:i + 1]
        assert space.contains_all([y], one).tolist() == [want[i]]
    members = _SPACES[kind][1]
    xs = None if xs is None else _chain_inputs(len(members))
    assert space.contains_all(members, xs).tolist() == [True] * len(members)


@pytest.mark.parametrize("inputs", ["none", "stack", "list"])
def test_chain_lists_of_int_tuples_are_checked_in_one_pass(inputs, monkeypatch):
    space = ChainSequenceSpace(3, 2)
    values = [(0, 1, 2), (2, 2, 2), (0, 1), (), (0, 1, 3), (0, 1, 2, 0), (-1, 0, 0),
              (2**63 - 1, 0, 0), (-(2**63), 1, 2), (2, 0, 1), (1,)]
    xs = {"none": None, "stack": _chain_inputs(len(values)),
          "list": [np.zeros((t, 2)) for t in (3, 2, 2, 1, 3, 4, 3, 3, 3, 1, 1)]}[inputs]
    # the per-item check, one value at a time
    want = [space._contains(y, None if xs is None else xs[i]) for i, y in enumerate(values)]
    assert True in want and False in want
    monkeypatch.setattr(ChainSequenceSpace, "_contains", None)  # not called by the batch
    assert space.contains_all(values, xs).tolist() == want
    members = [y for y, ok in zip(values, want) if ok]
    assert space.from_codes(space.as_codes(members)) == members
    assert space.as_codes([]).shape == (0,)


def test_chain_encoding_names_the_first_non_member():
    space = ChainSequenceSpace(3, 2)
    for values, bad in [([(0, 1), (0, 3), (-1, 0)], (0, 3)), ([(1, 1), ()], ()),
                        ([(0, 1), (0, 2**70)], (0, 2**70)), ([(0,), (0, True)], (0, True)),
                        ([(0,), [0, 1]], [0, 1])]:
        with pytest.raises(ContractViolation,
                           match=re.escape(f"{bad!r} is not a label sequence over 3 labels")):
            space.as_codes(values)
    # members that are not all Python ints take the per-item path, to the same codes
    mixed = [(np.int64(1), 0), (2, np.uint8(1))]
    assert space.as_codes(mixed).tobytes() == space.as_codes([(1, 0), (2, 1)]).tobytes()


@pytest.mark.parametrize("kind", list(_SPACES))
def test_decode_all_equals_decode_per_value(kind):
    space = _SPACES[kind][0]()
    encoded = [space.encode(y) for y in _SPACES[kind][1]]
    values = encoded + _values(kind)
    for v in values:
        want = _decode_or_error(space, v)
        if want is ContractViolation:
            with pytest.raises(ContractViolation):
                space.decode_all([v])
            with pytest.raises(ContractViolation):
                space.decode_all(encoded + [v])
        else:
            assert space.decode_all([v]) == [want]
    decoded = space.decode_all(encoded)
    assert decoded == [space.decode(v) for v in encoded]
    assert [type(y) for y in decoded] == [type(space.decode(v)) for v in encoded]
    assert space.decode_all([]) == [] and space.contains_all([]).tolist() == []


def test_decode_all_raises_the_message_of_the_first_bad_value():
    space = MulticlassSpace(3, 2)
    with pytest.raises(ContractViolation) as batch:
        space.decode_all([0, 1, 5, True, 2])
    with pytest.raises(ContractViolation) as one:
        space.decode(5)
    assert str(batch.value) == str(one.value)


# --- file messages: the batch path names the first bad record --------------------


def _write_lines(path, records):
    path.write_text("".join(f"{r}\n" for r in records))
    return path


@pytest.mark.parametrize("bad, message", [
    ("7", "bad output: 7 is not a multiclass output"),
    ("true", "bad output: True is not a multiclass output"),
    ("1.0", "bad output: 1.0 is not a multiclass output"),
    ("-1", "bad output: -1 is not a multiclass output"),
    ("[1]", "bad output: [1] is not a multiclass output"),
    ("123456789012345678901234567890",
     "bad output: 123456789012345678901234567890 is not a multiclass output"),
])
def test_bad_label_in_a_later_block_is_named_by_path_and_line(tmp_path, monkeypatch, bad,
                                                             message):
    monkeypatch.setattr(data_io, "_BLOCK_RECORDS", 2)
    records = [f'{{"id": {i}, "x": [{i}, 1], "y": {i % 3 if i % 2 else "null"}}}'
               for i in range(9)]
    records[7] = f'{{"id": 7, "x": [7, 1], "y": {bad}}}'
    records[8] = '{"id": 8, "x": [8, 1], "y": 9}'  # a later bad label is not the one named
    path = _write_lines(tmp_path / "data.jsonl", records)
    space = MulticlassSpace(3, 2)
    with pytest.raises(DataFormatError) as e:
        load_dataset(path, space)
    assert str(e.value) == f"{path}:8: {message}"
    with pytest.raises(DataFormatError) as ref:
        oracles.dataset_from_records(oracles.read_records(path), path, space)
    assert str(ref.value) == str(e.value)


def test_chain_label_that_does_not_fit_its_input_names_its_line(tmp_path, monkeypatch):
    monkeypatch.setattr(data_io, "_BLOCK_RECORDS", 2)
    records = [f'{{"id": {i}, "x": [[0, 0], [1, 1]], "y": [0, 1]}}' for i in range(6)]
    records[4] = '{"id": 4, "x": [[0, 0], [1, 1]], "y": [0, 1, 1]}'
    records[5] = '{"id": 5, "x": [[0, 0], [1, 1]], "y": [0, 9]}'
    path = _write_lines(tmp_path / "chains.jsonl", records)
    with pytest.raises(DataFormatError) as e:
        load_dataset(path, ChainSequenceSpace(3, 2))
    assert str(e.value) == f"{path}:5: output [0, 1, 1] is not valid for this input"


# --- a fit makes no scalar membership call per point -----------------------------


def _multiclass_file(tmp_path, n):
    ds = synth_blobs(4, n // 4, 3, 0.5, seed=n)
    ys = [y if i % 5 == 0 else None for i, y in enumerate(ds.outputs)]
    path = tmp_path / f"blobs{n}.jsonl"
    save_dataset(Dataset.from_arrays(ds.inputs, ys, "multiclass"), path, MulticlassSpace(4, 3))
    return path


def _scalar_calls(monkeypatch, tmp_path, n):
    calls = []
    for name in ("contains", "decode"):
        scalar = getattr(MulticlassSpace, name)

        def counted(self, *args, _scalar=scalar, **kwargs):
            calls.append(1)
            return _scalar(self, *args, **kwargs)

        monkeypatch.setattr(MulticlassSpace, name, counted)
    data = _multiclass_file(tmp_path, n)
    code = cli.main(["fit", "--data", str(data), "--space", "multiclass", "--classes", "4",
                     "--k", "5", "--iters", "2", "--out", str(tmp_path / f"fit{n}")])
    monkeypatch.undo()
    assert code == 0
    return len(calls)


def test_fit_scalar_membership_calls_do_not_grow_with_points(monkeypatch, tmp_path, capsys):
    small = _scalar_calls(monkeypatch, tmp_path, 100)
    large = _scalar_calls(monkeypatch, tmp_path, 400)
    assert large == small
