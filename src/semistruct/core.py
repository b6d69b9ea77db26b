"""Shared domain types and the output-space contract.

Inputs are plain numpy arrays: a flat feature vector of length ``d`` for
vector-input tasks, or a ``(T, d)`` array of per-position features for
sequence tasks. Model weights and joint feature vectors are numpy arrays of
length ``m``, the joint representation dimension declared by the output
space. Structured outputs use a canonical per-space encoding (int class
index, int tree-node id, tuple of int labels) so equality and hashing are
trivial; indicator-vector views are derived inside each space.

A :class:`Dataset` holds its inputs stacked the way the spaces read them
(one ``n x d`` float matrix for flat data read from a file) and its outputs
as one list; :class:`DataPoint` objects are made only when ``points`` is
read.

Batches of outputs travel as *codes*: a 1-D numpy array with one entry per
output, made by :meth:`OutputSpace.as_codes`. Its entries are the outputs
themselves (ints in an int array for the finite label spaces, any object in
an object array otherwise), so ``codes[i] == y`` holds and
``codes.tolist()`` gives the outputs back.

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
    """One training or test point.

    ``y is None`` marks the point as unlabeled; a present output marks it as
    labeled. There is no separate index set.
    """

    id: int
    x: np.ndarray
    y: object = None

    @property
    def labeled(self) -> bool:
        return self.y is not None


class Dataset:
    """Ordered collection of points sharing one output space.

    ``inputs`` holds the inputs stacked the way the spaces read them and
    ``outputs`` the outputs, ``None`` where unlabeled. A set made by
    :meth:`from_arrays` numbers its points by position and builds
    :class:`DataPoint` objects only when ``points`` is first read; one made
    from points lists their inputs, outputs and ids. Ids must be unique and
    contiguous from 0, in list order. Use :func:`validate_dataset` to check
    the full contract.
    """

    def __init__(self, points, space_id=""):
        self.points = tuple(points)
        self.space_id = space_id

    @classmethod
    def from_arrays(cls, inputs, outputs, space_id=""):
        """The set whose point ``i`` has id ``i``, input ``inputs[i]`` and
        output ``outputs[i]``. ``inputs`` is one array whose rows are the
        inputs when they share a shape (an ``n x d`` float matrix for flat
        data), else a list of arrays; ``outputs`` is a list."""
        ds = cls.__new__(cls)
        ds.inputs, ds.outputs, ds.space_id = inputs, outputs, space_id
        ds.ids = range(len(outputs))
        return ds

    def __len__(self):
        return len(self.outputs)

    def __iter__(self):
        return iter(self.points)

    @cached_property
    def points(self) -> tuple:
        return tuple(DataPoint(i, x, y) for i, x, y in zip(self.ids, self.inputs, self.outputs))

    @cached_property
    def inputs(self) -> list:
        """All inputs in id order."""
        return [p.x for p in self.points]

    @cached_property
    def outputs(self) -> list:
        """All outputs in id order, ``None`` where unlabeled."""
        return [p.y for p in self.points]

    @cached_property
    def ids(self):
        """Point ids in order: a ``range`` for a set made from arrays."""
        return tuple(p.id for p in self.points)

    @cached_property
    def labeled(self) -> np.ndarray:
        """Bool array: which points have an output."""
        return np.fromiter((y is not None for y in self.outputs), dtype=bool, count=len(self))

    @property
    def labeled_ids(self):
        return [i for i, y in zip(self.ids, self.outputs) if y is not None]

    @property
    def unlabeled_ids(self):
        return [i for i, y in zip(self.ids, self.outputs) if y is None]


def take_inputs(inputs, idx):
    """The inputs at positions ``idx`` (an int array), in the same form."""
    if isinstance(inputs, np.ndarray):
        return inputs[idx]
    return [inputs[i] for i in idx.tolist()]


class OutputSpace(ABC):
    """Contract an output space must satisfy.

    A space bundles the joint feature map ``phi``, the structured loss
    ``delta`` and the three inference oracles the optimizer needs. Concrete
    spaces declare:

    ``kind``
        short identifier ("multiclass", "taxonomy", "chain")
    ``dim``
        length m of feature vectors returned by ``phi``
    ``input_ndim``
        1 for flat inputs, 2 for per-position sequence inputs
    ``input_dim``
        length d of a flat input, or of each position of a sequence input

    ``delta`` must satisfy ``delta(y, y) == 0`` and ``delta(y1, y2) >= 0``.
    Every argmax/argmin oracle breaks ties toward the smallest canonical
    encoding so results are deterministic. The whole-array oracles return
    codes (see the module docstring) and accept codes or lists of outputs.

    Spaces are immutable and all methods are pure, hence thread-safe.
    """

    kind: str = ""
    input_ndim: int = 1
    input_dim: int  # no default: every space must declare it
    dim: int = 0

    # --- loss and features -------------------------------------------------

    @abstractmethod
    def contains(self, y, x=None) -> bool:
        """Whether ``y`` is a member of the output set.

        When ``x`` is given, also checks compatibility with that input
        (sequence spaces require matching lengths).
        """

    @abstractmethod
    def phi(self, x, y) -> np.ndarray:
        """Joint feature vector of length ``dim`` for the pair (x, y)."""

    @abstractmethod
    def delta(self, y1, y2) -> float:
        """Structured loss of predicting ``y2`` as ``y1`` (symmetric)."""

    @abstractmethod
    def outputs(self, x=None):
        """Iterate candidate outputs in canonical (tie-break) order."""

    @abstractmethod
    def random_output(self, x, rng):
        """Uniform draw from the output set for input ``x``."""

    # --- serialization -----------------------------------------------------

    def encode(self, y):
        """JSON-compatible encoding of an output."""
        return y

    @abstractmethod
    def decode(self, value):
        """Inverse of :meth:`encode`; raises ContractViolation on bad input."""

    @abstractmethod
    def config(self) -> dict:
        """JSON-compatible dict from which the space can be rebuilt."""

    # --- batches ---------------------------------------------------------------

    def as_codes(self, ys) -> np.ndarray:
        """Codes of the outputs ``ys``; ContractViolation if one is not a
        member. An ndarray is taken to be codes already and returned as is.
        The default is an object array of the outputs."""
        if isinstance(ys, np.ndarray):
            return ys
        for y in ys:
            if not self.contains(y):
                raise ContractViolation(f"{reprlib.repr(y)} is not a {self.kind} output")
        return object_array(ys)

    def stack_inputs(self, xs):
        """The inputs ``xs`` in the form the oracles read fastest; indexing
        it with an id array selects those inputs. The default is an object
        array of the inputs."""
        return object_array(xs)

    # --- inference oracles -------------------------------------------------
    #
    # A space answers the whole-array forms; the solver calls only these, with
    # a stack of inputs and codes. The defaults do exhaustive search over
    # ``outputs(x)``, taking the first best candidate.

    def argmax_score_all(self, w, xs) -> np.ndarray:
        """Output maximizing the matching score ``w . phi(x, y)``, per input."""
        return object_array([max(self.outputs(x), key=lambda y: matching_score(w, x, y, self))
                             for x in xs])

    def argmax_loss_augmented_all(self, w, xs, zs) -> np.ndarray:
        """Most violating output against each reference ``zs[i]``: the
        maximizer of ``w . (phi(x, y) - phi(x, z)) + delta(y, z)``."""
        return object_array([
            max(self.outputs(x), key=lambda y: loss_augmented_value(w, x, z, y, self))
            for x, z in zip(xs, zs)])

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1) -> np.ndarray:
        """Minimizer of the per-point slack objective ``sum_nb weight *
        delta(y, output) + c1 * (-w . phi(x, y) + delta(upsilon, y))`` of
        every point. ``neighbors`` is a triple ``(owner, weight, outputs)``:
        term ``e`` adds ``weight[e] * delta(y, outputs[e])`` to the objective
        of point ``owner[e]`` (an index into ``xs``). Each point's terms keep
        their order."""
        if c1 <= 0:
            raise ContractViolation(f"c1 must be positive, got {c1}")
        terms = [[] for _ in xs]
        for i, omega, z in zip(*neighbors):
            terms[i].append((float(omega), z))
        return object_array([
            min(self.outputs(x),
                key=lambda y: slack_objective_value(w, x, upsilon, nb, c1, y, self))
            for x, upsilon, nb in zip(xs, upsilons, terms)
        ])

    def argmax_score(self, w, x):
        """:meth:`argmax_score_all` of one input."""
        return self.argmax_score_all(w, [x]).tolist()[0]

    def argmax_loss_augmented(self, w, x, z):
        """:meth:`argmax_loss_augmented_all` of one input, with the objective
        value at it (the constant ``-w . phi(x, z)`` term included)."""
        y = self.argmax_loss_augmented_all(w, [x], [z]).tolist()[0]
        return y, loss_augmented_value(w, x, z, y, self)

    def argmin_slack(self, w, x, upsilon, neighbors, c1):
        """:meth:`argmin_slack_all` of one input; ``neighbors`` is a list of
        ``(weight, output)`` pairs covering both edge directions."""
        terms = ([0] * len(neighbors), [o for o, _ in neighbors], [z for _, z in neighbors])
        return self.argmin_slack_all(w, [x], [upsilon], terms, c1).tolist()[0]

    def delta_sum(self, ys1, ys2, weights=None) -> float:
        """``sum_i weights[i] * delta(ys1[i], ys2[i])``, unit weights if omitted."""
        weights = [1.0] * len(ys1) if weights is None else weights
        return float(sum(c * self.delta(a, b) for c, a, b in zip(weights, ys1, ys2)))

    def phi_diff_sum(self, xs, ys, zs) -> np.ndarray:
        """``sum_i phi(xs[i], ys[i]) - phi(xs[i], zs[i])``."""
        acc = np.zeros(self.dim)
        for x, y, z in zip(xs, ys, zs):
            if y != z:  # the difference is exactly zero
                acc += self.phi(x, y) - self.phi(x, z)
        return acc


def object_array(items) -> np.ndarray:
    """1-D object array holding ``items``; numpy would read a list of
    equal-length tuples or arrays as one array with another axis."""
    return np.fromiter(items, dtype=object, count=len(items))


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


def matching_score(w, x, y, space) -> float:
    """Linear matching score ``w . phi(x, y)`` of an input-output pair."""
    w = as_weights(w, space.dim)
    return float(np.dot(w, space.phi(x, y)))


def loss_augmented_value(w, x, z, y, space) -> float:
    """Value of the loss-augmented objective at candidate ``y``."""
    return (
        matching_score(w, x, y, space)
        - matching_score(w, x, z, space)
        + space.delta(y, z)
    )


def slack_objective_value(w, x, upsilon, neighbors, c1, y, space) -> float:
    """Per-point slack objective at candidate ``y``.

    This is the quantity :meth:`OutputSpace.argmin_slack` minimizes; exposing
    it lets callers verify the per-point descent property directly.
    """
    acc = 0.0
    for omega, z_nb in neighbors:
        acc += omega * space.delta(y, z_nb)
    return acc + c1 * (-matching_score(w, x, y, space) + space.delta(upsilon, y))


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

    ids = ds.ids
    if not isinstance(ids, range):  # a set made from arrays is numbered by position
        for pos, pid in enumerate(ids):
            if pid != pos:
                report.violations.append(
                    f"point at position {pos} has id {pid}; ids must be contiguous from 0"
                )

    report.violations.extend(f"id {ids[i]}: {problem}"
                             for i, problem in _input_violations(ds.inputs, space))

    if not ds.labeled.any():
        report.violations.append("dataset has no labeled points")

    for i in np.flatnonzero(ds.labeled).tolist():
        y = ds.outputs[i]
        try:
            ok = space.contains(y, x=ds.inputs[i])
        except ContractViolation:
            ok = False
        if not ok:
            report.violations.append(f"id {ids[i]}: output {y!r} is not in the output space")
    return report


# inputs joined at once by the finiteness check; bounds its working memory
_FINITE_BLOCK_ROWS = 1024


def _input_violations(xs, space) -> list:
    """``(position, problem)`` of every input violation of ``xs`` (one array
    whose rows are the inputs, or a list of inputs) in position order, each
    input's in the order non-finite, then dimension."""
    dim = getattr(space, "input_dim", None)
    if not isinstance(dim, (int, np.integer)) or isinstance(dim, bool) or dim < 1:
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
