"""Dataset and taxonomy files, synthetic generators, fold masking.

Dataset files are JSON Lines, one record per point:

    {"id": 0, "x": [0.5, -1.2], "y": 3}

``x`` is a flat list for vector inputs or a list of per-position lists for
sequence inputs; ``y`` uses the space encoding (int class, int leaf id, or
list of int labels) and is null for unlabeled points.

Reading checks each line once, and errors name it: one JSON parse with the
decoder's scanner (``json.loads`` runs only to word a parse error), the
``id``/``x`` fields and an integer id seen once. The ``x`` lists are
converted to floats in blocks of records by :func:`semistruct.core.read_inputs`,
as ``Dataset(points)`` converts its inputs: one ``np.array`` call per block;
only a block that call rejects (a bad ``x``, or sequences of several
lengths) is read record by record, to name the first bad ``x``'s line. The
inputs of a file end up stacked: one ``n x d`` float matrix for flat data,
one ``n x T x d`` array for sequences of one length, and a list of arrays
otherwise. Then each ``x``'s number of dimensions and each labeled output,
decoded and valid for its input, are checked, once. The inputs, put in id
order, are checked as one group, or once per group of equal shape (see
:func:`semistruct.core.input_violations`): empty inputs, the width against
the space's ``input_dim``, and finiteness over bounded blocks. The dataset
is made from the stack and the outputs (:meth:`Dataset.from_arrays`).

Taxonomy files are JSON documents ``{"nodes": [{"id": 0, "parent": null,
"name": "root"}, ...]}`` with exactly one null parent and ids contiguous
from 0.

The synthetic generators stand in for benchmark corpora at desk scale; all
of them are deterministic in their seed. They build their datasets from
arrays in the form the reader gives, and :func:`save_dataset` writes
``ds.inputs`` and ``ds.outputs`` back.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import Dataset, input_violations, join_problems, read_inputs, seeded_rng, take_inputs
from .errors import ContractViolation, DataFormatError
from .spaces import Taxonomy

_SEED_TAG_FOLDS = 211
_SEED_TAG_BLOBS = 223
_SEED_TAG_TAXO = 227
_SEED_TAG_CHAINS = 229

NUM_FOLDS = 10
NUM_LABELED_FOLDS = 2


# --- dataset files ----------------------------------------------------------


class Records(NamedTuple):
    """What :func:`read_records` found, in file order: every record's line
    number, id, input and raw output. ``inputs`` is one float array whose
    rows are the inputs when every ``x`` has one shape, else a list of
    arrays."""

    lines: list
    ids: list
    inputs: object
    ys: list


# records whose ``x`` lists one conversion reads; bounds the float lists held at once
_BLOCK_RECORDS = 128


def read_records(path) -> Records:
    """Parse a JSONL dataset file, checking all that needs no output space;
    errors name the line. The ``x`` lists are converted in blocks of
    ``_BLOCK_RECORDS`` records by :func:`read_inputs`; a block is converted
    before a later line's error is raised, so the first bad line is the one
    named."""
    lines, ids, ys = [], [], []
    seen = set()
    blocks, pending = [], []  # converted blocks; the x lists not converted yet

    def convert(xs):  # the inputs of the last len(xs) records read, from their x lists
        at = lines[-len(xs):]
        return read_inputs(xs, lambda i: f"{path}:{at[i]}", DataFormatError)

    error = None
    with open(path) as f:
        try:
            for ln, line in enumerate(f, 1):
                line = line.strip()
                if not line:
                    continue
                rec = _parse_line(line, path, ln)
                if not isinstance(rec, dict) or "id" not in rec or "x" not in rec:
                    raise DataFormatError(f"{path}:{ln}: record needs 'id' and 'x' fields")
                pid = rec["id"]
                if not isinstance(pid, int) or isinstance(pid, bool):
                    raise DataFormatError(f"{path}:{ln}: id must be an integer, got {pid!r}")
                if pid in seen:
                    raise DataFormatError(f"{path}:{ln}: duplicate id {pid}")
                seen.add(pid)
                lines.append(ln)
                ids.append(pid)
                ys.append(rec.get("y"))
                pending.append(rec["x"])
                if len(pending) == _BLOCK_RECORDS:
                    block, pending = pending, []
                    blocks.append(convert(block))
        except UnicodeDecodeError as e:
            error = DataFormatError(
                f"{path}:{_undecodable_line(path)}: not {f.encoding} text ({e.reason})")
        except DataFormatError as e:
            error = e
    if pending:
        blocks.append(convert(pending))
    if error is not None:
        raise error
    if not lines:
        raise DataFormatError(f"{path}: no records")
    if all(isinstance(b, np.ndarray) for b in blocks) and len({b.shape[1:] for b in blocks}) == 1:
        inputs = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    else:
        inputs = [x for b in blocks for x in b]
    return Records(lines, ids, inputs, ys)


_scan_once = json.JSONDecoder().scan_once


def _parse_line(line, path, ln):
    """The JSON value of one stripped line, read once by the decoder's
    scanner; ``json.loads`` runs only to word the error of a bad line.

    ``json.loads`` runs this same scanner (its default decoder is a plain
    ``JSONDecoder``) after skipping JSON whitespace and refusing a leading
    BOM. A stripped line has no such whitespace, and the scanner stops at a
    BOM, so whenever the scan takes the whole line both give one value."""
    try:
        value, end = _scan_once(line, 0)
        if end == len(line):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    try:
        return json.loads(line)  # raises the decoder's own message
    except (ValueError, RecursionError) as e:  # also integers over the digit limit
        raise DataFormatError(f"{path}:{ln}: invalid JSON ({e})") from None


def _undecodable_line(path) -> int:
    """Number of the first line of ``path`` holding bytes its encoding
    rejects; they read back as lone surrogates under ``surrogateescape``."""
    with open(path, errors="surrogateescape") as f:
        for ln, line in enumerate(f, 1):
            if any("\udc80" <= c <= "\udcff" for c in line):
                return ln


def dataset_from_records(records, path, space, require_labeled=False) -> Dataset:
    """Decode :func:`read_records` output into a validated dataset of
    ``space``. Errors name the first record, in file order, whose ``x`` has
    another number of dimensions than the space's or whose output is bad.
    ``require_labeled`` additionally demands at least one labeled point
    (prediction inputs may legitimately have none)."""
    lines, ids, inputs, raw_ys = records
    n = len(ids)
    if isinstance(inputs, np.ndarray):
        bad = 0 if inputs.ndim - 1 != space.input_ndim else n
    else:
        bad = next((i for i, x in enumerate(inputs) if x.ndim != space.input_ndim), n)
    labeled = [i for i, y in enumerate(raw_ys[:bad]) if y is not None]
    try:  # one batch call each; on a failure the loop below names the first bad record
        decoded = space.decode_all([raw_ys[i] for i in labeled])
        fits = space.contains_all(decoded, take_inputs(inputs, np.array(labeled, dtype=int)))
    except ContractViolation:
        fits = None
    ys = [None] * n
    if fits is not None and fits.all():
        for i, y in zip(labeled, decoded):
            ys[i] = y
    else:
        for i in labeled:
            where, raw_y = f"{path}:{lines[i]}", raw_ys[i]
            try:
                ys[i] = space.decode_all([raw_y])[0]
            except ContractViolation as e:
                raise DataFormatError(f"{where}: bad output: {e}") from None
            try:
                ok = space.contains_all([ys[i]], [inputs[i]])[0]
            except ContractViolation as e:
                raise DataFormatError(f"{where}: bad input: {e}") from None
            if not ok:
                raise DataFormatError(f"{where}: output {raw_y!r} is not valid for this input")
    if bad < n:
        raise DataFormatError(
            f"{path}:{lines[bad]}: x has {inputs[bad].ndim} dimension(s), "
            f"space expects {space.input_ndim}"
        )

    positions = list(range(n))
    if sorted(ids) != positions:
        missing = sorted(set(positions) - set(ids))[:5]
        raise DataFormatError(
            f"{path}: ids must be contiguous from 0 (missing {missing}, n={n})"
        )
    if ids != positions:  # put the records in id order
        at = np.empty(n, dtype=int)
        at[ids] = np.arange(n)
        inputs, ys = take_inputs(inputs, at), [ys[i] for i in at.tolist()]
    problems = [f"id {i}: {problem}" for i, problem in input_violations(inputs, space)]
    if require_labeled and not labeled:
        problems.append("dataset has no labeled points")
    if problems:
        raise DataFormatError(f"{path}: " + join_problems(problems))
    return Dataset.from_arrays(inputs, ys, space.kind)


def load_dataset(path, space, require_labeled=False) -> Dataset:
    """Parse and validate a JSONL dataset file; see :func:`read_records`
    and :func:`dataset_from_records`."""
    return dataset_from_records(read_records(path), path, space, require_labeled)


def save_dataset(ds: Dataset, path, space):
    """Write a dataset as JSONL; inverse of :func:`load_dataset`."""
    with open(path, "w") as f:
        for i, (x, y) in enumerate(zip(ds.inputs, ds.outputs)):
            rec = {
                "id": i,
                "x": np.asarray(x, dtype=float).tolist(),
                "y": None if y is None else space.encode(y),
            }
            f.write(json.dumps(rec) + "\n")


# --- taxonomy files -----------------------------------------------------------


def load_taxonomy(path) -> Taxonomy:
    with open(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # bad JSON or text, over-long integers
            raise DataFormatError(f"{path}: invalid JSON ({e})") from None
    nodes = doc.get("nodes") if isinstance(doc, dict) else None
    if not isinstance(nodes, list) or not nodes:
        raise DataFormatError(f"{path}: expected an object with a 'nodes' list")
    try:
        return Taxonomy.from_nodes(nodes)
    except (KeyError, TypeError):
        raise DataFormatError(f"{path}: each node needs 'id' and 'parent'") from None
    except ContractViolation as e:
        raise DataFormatError(f"{path}: {e}") from None


def save_taxonomy(tree: Taxonomy, path):
    with open(path, "w") as f:
        json.dump({"nodes": tree.to_nodes()}, f, indent=2)
        f.write("\n")


# --- synthetic generators ------------------------------------------------------


def _ring(count, radius, dim):
    """Evenly spaced centers on a circle in the first two dimensions."""
    out = np.zeros((count, dim))
    for i in range(count):
        angle = 2.0 * math.pi * i / count
        out[i, 0] = radius * math.cos(angle)
        out[i, 1] = radius * math.sin(angle)
    return out


def _check_draws(spread, **least):
    """ContractViolation unless every ``name=(value, minimum)`` has a value
    >= its minimum and the standard deviation ``spread`` is finite and >= 0."""
    for name, (value, minimum) in least.items():
        if value < minimum:
            raise ContractViolation(f"need {name} >= {minimum}, got {value}")
    if not 0 <= spread < math.inf:  # also false for nan
        raise ContractViolation(f"spread must be finite and >= 0, got {spread}")


def _noise(rng, spread, shape):
    """``spread`` times standard normal draws of ``shape``; ContractViolation
    when a draw takes it past the float range."""
    with np.errstate(over="ignore"):
        noise = spread * rng.standard_normal(shape)
    if not np.isfinite(noise).all():
        raise ContractViolation(f"spread {spread} takes a draw past the float range")
    return noise


def synth_blobs(classes, per_class, dim, spread, seed) -> Dataset:
    """Gaussian clusters with unit-separated means, one class per cluster.

    With ``dim >= classes`` the means sit on scaled coordinate axes, putting
    every pair of centers exactly unit distance apart; otherwise they sit on
    a circle in the first two dimensions with adjacent centers a unit apart.
    """
    if classes < 2:
        raise ContractViolation(f"need at least 2 classes, got {classes}")
    _check_draws(spread, dim=(dim, 2), per_class=(per_class, 1))
    rng = seeded_rng(seed, _SEED_TAG_BLOBS)
    if dim >= classes:
        means = np.zeros((classes, dim))
        means[np.arange(classes), np.arange(classes)] = 1.0 / math.sqrt(2.0)
    else:
        means = _ring(classes, 1.0 / (2.0 * math.sin(math.pi / classes)), dim)
    ys = np.repeat(np.arange(classes), per_class)
    xs = means[ys] + _noise(rng, spread, (len(ys), dim))
    return Dataset.from_arrays(xs, ys.tolist(), "multiclass")


def taxonomy_leaf_centers(tree: Taxonomy, dim) -> dict:
    """Deterministic leaf centers mirroring the tree metric.

    Children sit on a circle around their parent whose radius shrinks fast
    enough down the tree that leaves under one branch stay strictly closer
    to each other than to any leaf of another branch.
    """
    if dim < 2:
        raise ContractViolation(f"need dim >= 2, got {dim}")
    centers = {tree.root: np.zeros(dim)}
    queue = [(tree.root, 3.0)]
    while queue:
        node, radius = queue.pop(0)
        kids = tree.children[node]
        if not kids:
            continue
        offsets = _ring(len(kids), radius, dim)
        separation = (
            2.0 * radius * math.sin(math.pi / len(kids)) if len(kids) > 1 else radius
        )
        for j, kid in enumerate(kids):
            centers[kid] = centers[node] + offsets[j]
            queue.append((kid, separation / 10.0))
    return {leaf: centers[leaf] for leaf in tree.leaves}


def synth_taxonomy_blobs(tree: Taxonomy, per_leaf, dim, spread, seed) -> Dataset:
    """Gaussian cluster per leaf, sibling leaves closer than cross-branch."""
    _check_draws(spread, per_leaf=(per_leaf, 1))
    rng = seeded_rng(seed, _SEED_TAG_TAXO)
    centers = taxonomy_leaf_centers(tree, dim)
    means = np.array([centers[leaf] for leaf in tree.leaves]).repeat(per_leaf, axis=0)
    ys = np.repeat(tree.leaves, per_leaf)
    xs = means + _noise(rng, spread, (len(ys), dim))
    return Dataset.from_arrays(xs, ys.tolist(), "taxonomy")


def synth_chains(num_labels, length_range, count, dim, seed, spread=0.5) -> Dataset:
    """Label sequences from a sticky Markov chain with Gaussian emissions.

    ``length_range`` is an inclusive (lo, hi) pair. Each label stays with
    probability 0.6 and moves to each other label with equal probability.
    Emissions are Gaussian with standard deviation ``spread`` around label
    centers a unit apart along the first axis.
    """
    if num_labels < 2:
        raise ContractViolation(f"need at least 2 labels, got {num_labels}")
    lo, hi = length_range
    if lo < 1 or hi < lo:
        raise ContractViolation(f"bad length range {length_range}")
    _check_draws(spread, dim=(dim, 1), count=(count, 1))
    rng = seeded_rng(seed, _SEED_TAG_CHAINS)
    transition = np.full((num_labels, num_labels), 0.4 / (num_labels - 1))
    np.fill_diagonal(transition, 0.6)
    # Generator.choice(a, p=row) draws cdf.searchsorted(random(), side="right")
    # over the row's cumulative sum divided by its last entry: the same draws
    cdf = transition.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    # label emission centers a unit apart along the first axis
    means = np.zeros((num_labels, dim))
    means[:, 0] = np.arange(num_labels)

    xs, ys = [], []
    for _ in range(count):
        length = int(rng.integers(lo, hi + 1))
        labels = [int(rng.integers(num_labels))]
        for _ in range(length - 1):
            labels.append(int(cdf[labels[-1]].searchsorted(rng.random(), side="right")))
        xs.append(means[labels] + _noise(rng, spread, (length, dim)))
        ys.append(tuple(labels))
    return Dataset.from_arrays(read_inputs(xs, "chain {}".format, ContractViolation), ys, "chain")


# --- fold protocol ---------------------------------------------------------------


@dataclass(frozen=True)
class FoldPlan:
    """Ten-fold assignment plus, per run, which two train folds stay labeled.

    The labeled pair is drawn once per (seed, run) when the plan is built,
    so repeated runs of the same plan are identical.
    """

    fold_of: tuple
    labeled_folds: tuple

    @property
    def n(self):
        return len(self.fold_of)


def make_folds(ds: Dataset, seed) -> FoldPlan:
    """Random ten-fold partition with sizes differing by at most one."""
    n = len(ds)
    if n < NUM_FOLDS:
        raise ContractViolation(f"need at least {NUM_FOLDS} points, got {n}")
    rng = seeded_rng(seed, _SEED_TAG_FOLDS)
    perm = rng.permutation(n)
    fold_of = np.empty(n, dtype=int)
    for f, chunk in enumerate(np.array_split(perm, NUM_FOLDS)):
        fold_of[chunk] = f
    labeled_pairs = []
    for run in range(NUM_FOLDS):
        train_folds = [f for f in range(NUM_FOLDS) if f != run]
        pick = rng.choice(len(train_folds), size=NUM_LABELED_FOLDS, replace=False)
        labeled_pairs.append(tuple(sorted(train_folds[i] for i in pick)))
    return FoldPlan(tuple(int(f) for f in fold_of), tuple(labeled_pairs))


class MaskedSplit(NamedTuple):
    """Train set with 7 of 9 folds masked, the test fold, and the held-back
    outputs of the masked points keyed by train-local id (for transductive
    scoring only; never hand them to the solver)."""

    train: Dataset
    test: Dataset
    masked_truth: dict


def mask_labels(ds: Dataset, plan: FoldPlan, run_index) -> MaskedSplit:
    """Build the train/test datasets of one cross-validation run.

    The test fold keeps its outputs (they are the scoring truth); within the
    nine train folds only the two designated labeled folds keep theirs. The
    masked ground truth travels out-of-band. Inputs are never altered; both
    subsets keep the points' order and are numbered from 0.
    """
    if not 0 <= run_index < NUM_FOLDS:
        raise ContractViolation(f"run_index must be in 0..{NUM_FOLDS - 1}, got {run_index}")
    if plan.n != len(ds):
        raise ContractViolation("fold plan does not match this dataset")
    fold_of = np.asarray(plan.fold_of)
    test, train = np.flatnonzero(fold_of == run_index), np.flatnonzero(fold_of != run_index)
    keep = np.isin(fold_of[train], plan.labeled_folds[run_index]).tolist()
    ys = ds.outputs
    train_ys = [ys[i] if kept else None for i, kept in zip(train.tolist(), keep)]
    truth = {nid: ys[i] for nid, (i, kept) in enumerate(zip(train.tolist(), keep))
             if not kept and ys[i] is not None}
    return MaskedSplit(
        Dataset.from_arrays(take_inputs(ds.inputs, train), train_ys, ds.space_id),
        Dataset.from_arrays(take_inputs(ds.inputs, test), [ys[i] for i in test.tolist()],
                            ds.space_id),
        truth,
    )
