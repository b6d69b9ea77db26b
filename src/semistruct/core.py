"""Shared domain types and the output-space contract.

An :class:`OutputSpace` answers every question the learner asks over whole
arrays of points; its one-point forms are views of those. The enumerating
one-point references live in ``tests/oracles.py``.

Inputs are plain numpy arrays: a flat feature vector of length ``d`` for
vector-input tasks, or a ``(T, d)`` array of per-position features for
sequence tasks. Model weights and joint feature vectors are numpy arrays of
length ``m``, the joint representation dimension declared by the output
space. Structured outputs use a canonical per-space encoding (int class
index, int tree-node id, tuple of int labels) so equality and hashing are
trivial; indicator-vector views are derived inside each space.

A :class:`Dataset` has one storage: its inputs as one float array when they
share a shape (one ``n x d`` matrix for flat data), else a list, which the
spaces read as they are, and its outputs as one list, point ``i`` having id
``i``. :class:`DataPoint` objects are made only when ``points`` is read;
``Dataset(points)`` is the one adapter for hand-built points.

Batches of outputs travel as *codes*: a 1-D numpy array with one entry per
output, made by :meth:`OutputSpace.as_codes` and decoded only by
:meth:`OutputSpace.from_codes`: labels in an int array for the finite label
spaces, -1-padded label rows read as fixed-width records for chains, an
object array of the outputs by default. Membership is checked once, when
``as_codes`` makes the codes; a space trusts codes after that and checks
only what codes cannot promise, such as matching lengths.

All types here are immutable after construction and every operation is a
pure function, so instances can be shared freely across threads.
"""

from __future__ import annotations

import reprlib
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ContractViolation


@dataclass(frozen=True, eq=False)
class DataPoint:
    """One point of a :class:`Dataset`: its id (its position), input and
    output. ``y is None`` marks the point as unlabeled; there is no separate
    index set.
    """

    id: int
    x: np.ndarray
    y: object = None


class Dataset:
    """Ordered collection of points sharing one output space.

    Point ``i`` has id ``i``, input ``inputs[i]`` and output ``outputs[i]``
    (``None`` where unlabeled). ``inputs`` is one float array whose rows are
    the inputs when they share a shape (an ``n x d`` matrix for flat data),
    else a list; ``outputs`` is a list. :class:`DataPoint` objects are built
    only when ``points`` is first read. Use :func:`validate_dataset` to
    check the full contract.
    """

    def __init__(self, points, space_id=""):
        """The set of hand-built ``points``, whose ids must count from 0 in
        order; their inputs are stacked by :func:`stack_or_list`."""
        points = tuple(points)
        for pos, p in enumerate(points):
            if p.id != pos:
                raise ContractViolation(
                    f"point at position {pos} has id {p.id}; ids must be contiguous from 0"
                )
        self.inputs = stack_or_list([p.x for p in points])
        self.outputs = [p.y for p in points]
        self.space_id = space_id

    @classmethod
    def from_arrays(cls, inputs, outputs, space_id=""):
        """The set whose point ``i`` has input ``inputs[i]`` and output
        ``outputs[i]``; ``inputs`` and ``outputs`` are taken as they are."""
        ds = cls.__new__(cls)
        ds.inputs, ds.outputs, ds.space_id = inputs, outputs, space_id
        return ds

    def __len__(self):
        return len(self.outputs)

    @cached_property
    def points(self) -> tuple:
        return tuple(DataPoint(i, x, y) for i, (x, y) in enumerate(zip(self.inputs, self.outputs)))

    @cached_property
    def labeled(self) -> np.ndarray:
        """Bool array: which points have an output."""
        return np.fromiter((y is not None for y in self.outputs), dtype=bool, count=len(self))


def stack_or_list(xs):
    """The inputs ``xs`` as one float array whose rows are the inputs when
    they share a shape, else as a list (mixed shapes or non-numeric values)."""
    try:
        return np.array(xs, dtype=float)
    except (ValueError, TypeError, OverflowError):  # also ragged shapes
        return list(xs)


def take_inputs(inputs, idx):
    """The inputs at positions ``idx`` (an int array), in the same form."""
    if isinstance(inputs, np.ndarray):
        return inputs[idx]
    return [inputs[i] for i in idx.tolist()]


class OutputSpace(ABC):
    """Contract an output space must satisfy.

    A space bundles the joint feature map ``phi``, the structured loss and
    the three inference oracles the optimizer needs. Concrete spaces
    declare:

    ``kind``
        short identifier ("multiclass", "taxonomy", "chain")
    ``dim``
        length m of feature vectors returned by ``phi``
    ``input_ndim``
        1 for flat inputs, 2 for per-position sequence inputs
    ``input_dim``
        length d of a flat input, or of each position of a sequence input

    A space implements every question over whole arrays of points: the
    abstract methods below. The one-item forms ``contains``, ``decode``,
    ``delta``, ``argmax_score`` and ``argmax_loss_augmented`` are views that
    ask them about one point. The loss must satisfy ``delta(y, y) == 0`` and
    ``delta(y1, y2) >= 0``. Every argmax/argmin oracle breaks ties toward
    the smallest canonical encoding so results are deterministic. The
    whole-array oracles return codes (see the module docstring) and accept
    codes or lists of outputs; they take inputs as a :class:`Dataset` stores
    them, one float stack or a list.

    Spaces are immutable and all methods are pure, hence thread-safe.
    """

    kind: str = ""
    input_ndim: int = 1
    input_dim: int  # no default: every space must declare it
    dim: int = 0

    # --- the contract: features, draws, serialization ---------------------

    @abstractmethod
    def phi(self, x, y) -> np.ndarray:
        """Joint feature vector of length ``dim`` for the pair (x, y)."""

    @abstractmethod
    def random_output(self, x, rng):
        """Uniform draw from the output set for input ``x``."""

    @abstractmethod
    def config(self) -> dict:
        """JSON-compatible dict from which the space can be rebuilt."""

    # --- the contract: whole arrays ----------------------------------------

    @abstractmethod
    def contains_all(self, ys, xs=None) -> np.ndarray:
        """Bool array: whether each ``ys[i]`` is a member of the output set.

        When ``xs`` is given, also checks compatibility with the input
        ``xs[i]`` (sequence spaces require matching lengths).
        """

    @abstractmethod
    def decode_all(self, values) -> list:
        """Inverse of :meth:`encode` for every value, in order; raises
        ContractViolation naming the first bad one."""

    @abstractmethod
    def argmax_score_all(self, w, xs) -> np.ndarray:
        """Output maximizing the matching score ``w . phi(x, y)``, per input."""

    @abstractmethod
    def argmax_loss_augmented_all(self, w, xs, zs) -> np.ndarray:
        """Most violating output against each reference ``zs[i]``: the
        maximizer of ``w . (phi(x, y) - phi(x, z)) + delta(y, z)``."""

    @abstractmethod
    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1) -> np.ndarray:
        """Minimizer of the per-point slack objective ``sum_nb weight *
        delta(y, output) + c1 * (-w . phi(x, y) + delta(upsilon, y))`` of
        every point. ``neighbors`` is a triple ``(owner, weight, outputs)``:
        term ``e`` adds ``weight[e] * delta(y, outputs[e])`` to the objective
        of point ``owner[e]`` (an index into ``xs``). Each point's terms keep
        their order. ContractViolation unless ``c1 > 0``, every owner indexes
        ``xs`` and, for zero-one chains, every weight is >= 0. The first cheapest
        wins to within rounding of the per-point cost; costs past the float
        range (a huge ``c1``) may tie otherwise than an enumeration's."""

    @abstractmethod
    def delta_sum(self, ys1, ys2, weights=None) -> float:
        """``sum_i weights[i] * delta(ys1[i], ys2[i])``, unit weights if
        omitted, where ``delta(y1, y2)`` is the structured loss of predicting
        ``y2`` as ``y1`` (symmetric)."""

    @abstractmethod
    def phi_diff_sum(self, xs, ys, zs) -> np.ndarray:
        """``sum_i phi(xs[i], ys[i]) - phi(xs[i], zs[i])``."""

    # --- batches with defaults ---------------------------------------------

    def encode(self, y):
        """JSON-compatible encoding of an output."""
        return y

    def as_codes(self, ys) -> np.ndarray:
        """Codes of the outputs ``ys``; ContractViolation if one is not a
        member. An ndarray is taken to be codes already and returned as is.
        The default is an object array of the outputs."""
        if isinstance(ys, np.ndarray):
            return ys
        member = self.contains_all(ys)
        if not member.all():
            bad = ys[int(np.argmin(member))]
            raise ContractViolation(f"{reprlib.repr(bad)} is not a {self.kind} output")
        return np.fromiter(ys, dtype=object, count=len(ys))  # not np.array: tuples read as rows

    def from_codes(self, codes) -> list:
        """The outputs ``codes`` stand for, as a list; the default is ``codes.tolist()``."""
        return codes.tolist()

    def merge_codes(self, n, *parts) -> np.ndarray:
        """Codes of ``n`` outputs whose entries ``idx`` are ``codes``, for
        every ``(idx, codes)`` of ``parts``; the parts cover every entry."""
        out = np.empty(n, dtype=parts[0][1].dtype)
        for idx, codes in parts:
            out[idx] = codes
        return out

    # --- one-item views of the whole-array forms ---------------------------

    def contains(self, y, x=None) -> bool:
        """:meth:`contains_all` of one output (against ``x`` when given)."""
        return bool(self.contains_all([y], None if x is None else [x])[0])

    def decode(self, value):
        """:meth:`decode_all` of one value."""
        return self.decode_all([value])[0]

    def delta(self, y1, y2) -> float:
        """Structured loss of predicting ``y2`` as ``y1``: :meth:`delta_sum`
        of one pair."""
        return self.delta_sum([y1], [y2])

    def argmax_score(self, w, x):
        """:meth:`argmax_score_all` of one input."""
        return self.from_codes(self.argmax_score_all(w, [x]))[0]

    def argmax_loss_augmented(self, w, x, z):
        """:meth:`argmax_loss_augmented_all` of one input, with the objective
        value at it (the constant ``-w . phi(x, z)`` term included)."""
        y = self.from_codes(self.argmax_loss_augmented_all(w, [x], [z]))[0]
        w = as_weights(w, self.dim)
        return y, (float(np.dot(w, self.phi(x, y))) - float(np.dot(w, self.phi(x, z)))
                   + self.delta(y, z))


def as_weights(w, dim):
    """Coerce ``w`` to a finite 1-D float vector of length ``dim``."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1 or w.shape[0] != dim:
        raise ContractViolation(
            f"weight vector has shape {w.shape}, expected ({dim},)"
        )
    if not np.all(np.isfinite(w)):
        raise ContractViolation("weight vector contains non-finite entries")
    return w


def is_int(value) -> bool:
    """Whether ``value`` is an int or a numpy integer, and not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def check_seed(seed):
    """ContractViolation unless ``seed`` is an int >= 0."""
    if not is_int(seed) or seed < 0:
        raise ContractViolation(f"seed must be a non-negative integer, got {seed!r}")


def seeded_rng(seed, tag):
    """``default_rng((seed, tag))`` of a seed that passes :func:`check_seed`."""
    check_seed(seed)
    return np.random.default_rng((seed, tag))


@dataclass
class ValidationReport:
    """Outcome of :func:`validate_dataset`; empty violations means valid."""

    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_dataset(ds, space) -> ValidationReport:
    """Check a dataset against its space contract.

    Never raises for a fault of the data; all violations are collected into
    the returned report so callers can surface them at once, in point order.
    Inputs stacked in one array are checked as one group; a list of inputs
    is checked once per group of equal shape. Per group: the number of
    dimensions, emptiness, the last axis against ``space.input_dim``, and
    finiteness in blocks of at most 1024 inputs. A space that declares no
    positive integer ``input_dim`` raises ContractViolation.
    """
    report = ValidationReport()
    if len(ds) == 0:
        report.violations.append("dataset is empty")
        return report

    if ds.space_id and ds.space_id != space.kind:
        report.violations.append(
            f"dataset space_id {ds.space_id!r} does not match space kind {space.kind!r}"
        )

    report.violations.extend(f"id {i}: {problem}"
                             for i, problem in input_violations(ds.inputs, space))

    if not ds.labeled.any():
        report.violations.append("dataset has no labeled points")

    labeled = np.flatnonzero(ds.labeled)
    ys = [ds.outputs[i] for i in labeled.tolist()]
    try:
        fits = space.contains_all(ys, take_inputs(ds.inputs, labeled))
    except ContractViolation:  # an input the space cannot read: ask point by point
        fits = [_fits(space, y, ds.inputs[i]) for i, y in zip(labeled.tolist(), ys)]
    report.violations.extend(f"id {i}: output {y!r} is not in the output space"
                             for i, y, ok in zip(labeled.tolist(), ys, fits) if not ok)
    return report


def _fits(space, y, x) -> bool:
    """``space.contains_all`` of one point, False where it raises ContractViolation."""
    try:
        return bool(space.contains_all([y], [x])[0])
    except ContractViolation:
        return False


# inputs joined at once by the finiteness check; bounds its working memory
_FINITE_BLOCK_ROWS = 1024


def input_violations(xs, space) -> list:
    """``(position, problem)`` of every input violation of ``xs`` (one array
    whose rows are the inputs, or a list of inputs) in position order, each
    input's in the order non-finite, then dimension."""
    dim = getattr(space, "input_dim", None)
    if not is_int(dim) or dim < 1:
        raise ContractViolation(
            f"{type(space).__name__} must declare input_dim, a positive integer; got {dim!r}"
        )
    if isinstance(xs, np.ndarray):
        groups = {xs.shape[1:]: np.arange(len(xs))}
    else:
        xs = [x if isinstance(x, np.ndarray) else np.asarray(x) for x in xs]
        shapes = {}  # shape -> group number
        group = np.fromiter((shapes.setdefault(x.shape, len(shapes)) for x in xs),
                            dtype=np.intp, count=len(xs))
        groups = {shape: np.flatnonzero(group == number) for shape, number in shapes.items()}
    found = []  # (position, problem); a stable sort by position keeps each input's order
    for shape, members in groups.items():
        if len(shape) != space.input_ndim:
            problem = f"input has {len(shape)} dimension(s), space expects {space.input_ndim}"
        elif 0 in shape:
            problem = "empty input"
        else:
            for lo in range(0, len(members), _FINITE_BLOCK_ROWS):
                block = members[lo : lo + _FINITE_BLOCK_ROWS]
                joined = (xs[lo : lo + len(block)]  # a stack is one group: block == lo..
                          if isinstance(xs, np.ndarray)
                          else np.concatenate([xs[i] for i in block.tolist()]))
                finite = np.isfinite(joined).reshape(len(block), -1).all(axis=1)
                found += [(i, "input has non-finite entries") for i in block[~finite].tolist()]
            if shape[-1] == dim:
                continue
            problem = f"input dimension {shape[-1]} differs from {dim}"
        found += [(i, problem) for i in members.tolist()]
    found.sort(key=lambda item: item[0])
    return found
