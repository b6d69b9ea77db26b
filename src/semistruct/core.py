"""Shared domain types and the output-space contract.

Inputs are plain numpy arrays: a flat feature vector of length ``d`` for
vector-input tasks, or a ``(T, d)`` array of per-position features for
sequence tasks. Model weights and joint feature vectors are numpy arrays of
length ``m``, the joint representation dimension declared by the output
space. Structured outputs use a canonical per-space encoding (int class
index, int tree-node id, tuple of int labels) so equality and hashing are
trivial; indicator-vector views are derived inside each space.

All types here are immutable after construction and every operation is a
pure function, so instances can be shared freely across threads.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Dataset:
    """Ordered collection of points sharing one output space.

    Ids must be unique and contiguous from 0, in list order. Use
    :func:`validate_dataset` to check the full contract.
    """

    points: tuple
    space_id: str = ""

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    @property
    def labeled_ids(self):
        return [p.id for p in self.points if p.y is not None]

    @property
    def unlabeled_ids(self):
        return [p.id for p in self.points if p.y is None]

    @cached_property
    def inputs(self) -> list:
        """All inputs in id order."""
        return [p.x for p in self.points]


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

    ``delta`` must satisfy ``delta(y, y) == 0`` and ``delta(y1, y2) >= 0``.
    Every argmax/argmin oracle breaks ties toward the smallest canonical
    encoding so results are deterministic.

    Spaces are immutable and all methods are pure, hence thread-safe.
    """

    kind: str = ""
    input_ndim: int = 1
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

    # --- inference oracles -------------------------------------------------
    #
    # A space answers the whole-array forms; the solver calls only these, with
    # lists of inputs and outputs. The defaults do exhaustive search over
    # ``outputs(x)``, taking the first best candidate.

    def argmax_score_all(self, w, xs) -> list:
        """Output maximizing the matching score ``w . phi(x, y)``, per input."""
        return [max(self.outputs(x), key=lambda y: matching_score(w, x, y, self)) for x in xs]

    def argmax_loss_augmented_all(self, w, xs, zs) -> list:
        """Most violating output against each reference ``zs[i]``: the
        maximizer of ``w . (phi(x, y) - phi(x, z)) + delta(y, z)``."""
        return [max(self.outputs(x), key=lambda y: loss_augmented_value(w, x, z, y, self))
                for x, z in zip(xs, zs)]

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1) -> list:
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
        return [
            min(self.outputs(x),
                key=lambda y: slack_objective_value(w, x, upsilon, nb, c1, y, self))
            for x, upsilon, nb in zip(xs, upsilons, terms)
        ]

    def argmax_score(self, w, x):
        """:meth:`argmax_score_all` of one input."""
        return self.argmax_score_all(w, [x])[0]

    def argmax_loss_augmented(self, w, x, z):
        """:meth:`argmax_loss_augmented_all` of one input, with the objective
        value at it (the constant ``-w . phi(x, z)`` term included)."""
        y = self.argmax_loss_augmented_all(w, [x], [z])[0]
        return y, loss_augmented_value(w, x, z, y, self)

    def argmin_slack(self, w, x, upsilon, neighbors, c1):
        """:meth:`argmin_slack_all` of one input; ``neighbors`` is a list of
        ``(weight, output)`` pairs covering both edge directions."""
        terms = ([0] * len(neighbors), [o for o, _ in neighbors], [z for _, z in neighbors])
        return self.argmin_slack_all(w, [x], [upsilon], terms, c1)[0]

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

    Never raises; all violations are collected into the returned report so
    callers can surface them at once.
    """
    report = ValidationReport()
    if len(ds.points) == 0:
        report.violations.append("dataset is empty")
        return report

    if ds.space_id and ds.space_id != space.kind:
        report.violations.append(
            f"dataset space_id {ds.space_id!r} does not match space kind {space.kind!r}"
        )

    for pos, p in enumerate(ds.points):
        if p.id != pos:
            report.violations.append(
                f"point at position {pos} has id {p.id}; ids must be contiguous from 0"
            )

    dim = None
    for p in ds.points:
        x = np.asarray(p.x)
        if x.ndim != space.input_ndim:
            report.violations.append(
                f"id {p.id}: input has {x.ndim} dimension(s), space expects {space.input_ndim}"
            )
            continue
        if x.shape[-1] < 1 or x.size == 0:
            report.violations.append(f"id {p.id}: empty input")
            continue
        if not np.all(np.isfinite(x)):
            report.violations.append(f"id {p.id}: input has non-finite entries")
        if dim is None:
            dim = x.shape[-1]
        elif x.shape[-1] != dim:
            report.violations.append(
                f"id {p.id}: input dimension {x.shape[-1]} differs from {dim}"
            )

    if not any(p.y is not None for p in ds.points):
        report.violations.append("dataset has no labeled points")

    for p in ds.points:
        if p.y is None:
            continue
        try:
            ok = space.contains(p.y, x=p.x)
        except ContractViolation:
            ok = False
        if not ok:
            report.violations.append(
                f"id {p.id}: output {p.y!r} is not in the output space"
            )
    return report
