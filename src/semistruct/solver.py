"""Alternating optimizer for graph-regularized structured prediction.

The objective couples three terms over model weights ``w`` and per-point
slack outputs ``z``:

    total = manifold + c1 * loss_bound + c2 * reg

where ``manifold`` sums edge-weighted structured losses between slack
outputs of neighboring points, ``loss_bound`` is the margin upper bound on
the prediction loss against the slack outputs (built from the per-point
most-violating outputs), and ``reg = 0.5 * ||w||^2``.

Each iteration refreshes the most-violating outputs, updates every slack
output by direct search (Jacobi style, reading only previous-iteration
neighbors), and takes one gradient step on ``w``. Slack outputs of labeled
points are pinned to their true outputs throughout.

A fit runs on arrays. :func:`initialize` encodes every output once into
codes (:meth:`OutputSpace.as_codes`; for chains, -1-padded label rows
read as fixed-width records), and builds once what no iteration changes
(:class:`FitArrays`): the labeled and unlabeled ids, the unlabeled inputs,
and the neighbor terms of the graph. The spaces read inputs as the dataset
stores them. Each step then gathers neighbor outputs and edge endpoints by
fancy indexing. Outputs are decoded (:meth:`OutputSpace.from_codes`) only
where they leave the solver: the state :func:`fit` returns, and so the
transductive outputs of cross validation, and predictions.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .core import check_seed, is_int, seeded_rng, take_inputs, total
from .errors import ContractViolation, DataFormatError, Diverged, UnsupportedConfiguration
from .graph import k_nearest, manifold_term, neighbor_terms, point_matrix
from .spaces import space_from_config

Z_INIT_STRATEGIES = ("nearest-labeled", "uniform-random")

_SEED_TAG_ZINIT = 101


@dataclass
class SolverConfig:
    """Knobs of the alternating optimizer.

    ``eta=None`` selects the step size ``1 / c2``, which lands on the
    minimizer of the weight subproblem while the most-violating outputs are
    held fixed; refreshing them can still raise the objective. Smaller
    values damp the update and keep a running average of past steps.
    """

    c1: float = 1.0
    c2: float = 1.0
    eta: float | None = None
    max_iters: int = 50
    seed: int = 0
    z_init: str = "nearest-labeled"

    @property
    def step_size(self) -> float:
        return self.eta if self.eta is not None else 1.0 / self.c2

    def validate(self):
        step = "eta" if self.eta is not None else "step size 1/c2"
        for name, attr in (("c1", "c1"), ("c2", "c2"), (step, "step_size")):
            value = getattr(self, attr)  # in turn: 1 / c2 is read once c2 > 0
            if not 0 < value < math.inf:  # also false for nan
                raise ContractViolation(f"{name} must be positive and finite, got {value}")
        if not is_int(self.max_iters):
            raise ContractViolation(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ContractViolation(f"max_iters must be >= 1, got {self.max_iters}")
        if self.z_init not in Z_INIT_STRATEGIES:
            raise ContractViolation(
                f"z_init must be one of {Z_INIT_STRATEGIES}, got {self.z_init!r}"
            )
        check_seed(self.seed)


class ObjectiveParts(NamedTuple):
    manifold: float
    loss: float
    reg: float
    total: float


class TraceRow(NamedTuple):
    iteration: int
    manifold: float
    loss: float
    reg: float
    total: float


@dataclass
class SolverState:
    """Mutable optimizer state.

    During a fit ``z`` and ``upsilon`` hold codes (see
    :meth:`OutputSpace.as_codes`) and ``fixed`` the arrays that stay the same
    between iterations; the state :func:`fit` returns holds lists of outputs
    again (:meth:`OutputSpace.from_codes`). The update steps also accept a
    state built by hand from lists.
    ``trace`` holds one row per completed iteration plus the initial row;
    each row reports the objective of the state at that point, with the
    most-violating outputs refreshed so the loss bound is consistent with
    the recorded ``(w, z)``.
    """

    w: np.ndarray
    z: object
    upsilon: object
    iteration: int = 0
    trace: list = field(default_factory=list)
    fixed: FitArrays | None = field(default=None, repr=False)


class FitArrays(NamedTuple):
    """What every iteration of one fit reads and no iteration changes.

    ``free`` and ``labeled``: the unlabeled and labeled ids; ``truth``: the
    codes of the labeled outputs; ``free_inputs``: the unlabeled inputs, in
    the form ``ds.inputs`` stores them (a float stack, or a list for
    mixed-length chains); ``terms``: ``neighbor_terms(g, free)``. ``ds``,
    ``g`` and ``space`` are what they were built from.
    """

    ds: object
    g: object
    space: object
    free: np.ndarray
    labeled: np.ndarray
    truth: np.ndarray
    free_inputs: object
    terms: tuple

    @classmethod
    def build(cls, ds, g, space):
        free, labeled = np.flatnonzero(~ds.labeled), np.flatnonzero(ds.labeled)
        truth = space.as_codes([ds.outputs[i] for i in labeled.tolist()])
        return cls(ds, g, space, free, labeled, truth, take_inputs(ds.inputs, free),
                   neighbor_terms(g, free))


def _fixed(state, ds, g, space) -> FitArrays:
    """``state.fixed`` when it was built from ``ds``, ``g`` and ``space``;
    else the same arrays built now, for a state made by hand."""
    f = state.fixed
    if f is not None and f.ds is ds and f.g is g and f.space is space:
        return f
    return FitArrays.build(ds, g, space)


def initialize(ds, g, space, cfg: SolverConfig) -> SolverState:
    """Zero weights plus a first guess for every slack output.

    Labeled points take their true output. Unlabeled points copy the output
    of the nearest labeled point (ties toward the smaller id; distances in
    ``g.points`` when the graph has them) or draw uniformly from the space,
    per ``cfg.z_init``. Each output is encoded once: the guesses here, the
    true outputs in ``FitArrays.build``. Raises
    UnsupportedConfiguration when a graph edge, or an unlabeled point and
    the labeled point it copies, join inputs of different lengths, and
    Diverged when the initial objective is not finite.
    """
    cfg.validate()
    if g.n != len(ds):
        raise ContractViolation(
            f"graph covers {g.n} nodes but the dataset has {len(ds)} points"
        )
    # the shipped losses compare outputs of one length only
    xs = ds.inputs
    length = (np.full(len(xs), xs.shape[1]) if isinstance(xs, np.ndarray)
              else np.array([len(x) for x in xs]))
    bad = np.flatnonzero(length[g.src] != length[g.dst])
    if len(bad):
        s, t = int(g.src[bad[0]]), int(g.dst[bad[0]])
        raise UnsupportedConfiguration(
            f"graph edge {s} -> {t} joins inputs of lengths {length[s]} and {length[t]}; "
            f"outputs of different lengths cannot be compared"
        )
    fixed = FitArrays.build(ds, g, space)
    free, labeled = fixed.free, fixed.labeled
    if not len(labeled):
        raise ContractViolation("cannot initialize without labeled points")

    if cfg.z_init == "nearest-labeled":
        donor = np.empty(0, dtype=int)  # position in ``labeled`` of each free point's donor
        if len(free):
            X = g.points if g.points is not None else point_matrix(xs)
            donor = k_nearest(X[free], X[labeled], 1)[0][:, 0]
            bad = np.flatnonzero(length[free] != length[labeled[donor]])
            if len(bad):
                raise UnsupportedConfiguration(
                    f"nearest-labeled init copied an output that does not fit "
                    f"point {free[bad[0]]} (sequence lengths differ?)"
                )
        guess = fixed.truth[donor]
    else:
        rng = seeded_rng(cfg.seed, _SEED_TAG_ZINIT)
        guess = space.as_codes([space.random_output(x, rng) for x in fixed.free_inputs])
    z = space.merge_codes(len(ds), (labeled, fixed.truth), (free, guess))

    state = SolverState(w=np.zeros(space.dim), z=z, upsilon=None, iteration=0, fixed=fixed)
    state.upsilon = update_upsilon(state, ds, space, cfg)
    state.trace.append(_trace_row(state, ds, g, space, cfg))
    return state


def update_upsilon(state, ds, space, cfg) -> np.ndarray:
    """Most-violating output for every point at the current ``(w, z)``, as codes.

    Runs loss-augmented inference for all points, labeled included; the
    loss bound sums over the whole training set. Independent of c1 and c2.
    """
    return space.argmax_loss_augmented_all(state.w, ds.inputs, space.as_codes(state.z))


def update_slack(state, ds, g, space, cfg) -> np.ndarray:
    """One sweep of slack-output updates, as codes.

    Labeled points keep their true output. Each unlabeled point minimizes
    its local objective against the neighbors' previous-iteration outputs;
    with none, the slack oracle is not called.
    """
    f = _fixed(state, ds, g, space)
    owner, neighbor, weight = f.terms
    z = space.as_codes(state.z)
    moved = space.argmin_slack_all(
        state.w, f.free_inputs, space.as_codes(state.upsilon)[f.free],
        (owner, weight, z[neighbor]), cfg.c1,
    ) if len(f.free) else f.truth[:0]
    return space.merge_codes(len(z), (f.labeled, f.truth), (f.free, moved))


def update_weights(state, ds, space, cfg) -> np.ndarray:
    """One gradient step on the weight subproblem.

    Applies ``w <- (1 - eta * c2) * w - eta * c1 * sum_i (phi(x_i, ups_i) -
    phi(x_i, z_i))`` with the most-violating and slack outputs held fixed.
    """
    eta = cfg.step_size
    acc = space.phi_diff_sum(ds.inputs, space.as_codes(state.upsilon), space.as_codes(state.z))
    with np.errstate(over="ignore", invalid="ignore"):
        w_new = (1.0 - eta * cfg.c2) * state.w - eta * cfg.c1 * acc
        # finite exactly when every weight is and ||w||^2 does not overflow
        norm2 = total(w_new * w_new)
    if not np.isfinite(norm2):
        raise Diverged(
            f"non-finite model weights at iteration {state.iteration + 1} "
            f"(step size too large?)",
            iteration=state.iteration + 1,
            state=state,
        )
    return w_new


def objective(state, ds, g, space, cfg) -> ObjectiveParts:
    """All objective components at the current state.

    The loss component is the margin upper bound on the prediction loss
    against the slack outputs, ``w . sum_i (phi(x_i, ups_i) - phi(x_i,
    z_i)) + sum_i delta(ups_i, z_i)``. It uses the most-violating outputs as
    stored on the state, so refresh them first when measuring a new
    ``(w, z)`` pair.
    """
    z, upsilon = space.as_codes(state.z), space.as_codes(state.upsilon)
    m = manifold_term(g, z, space)
    diff = space.phi_diff_sum(ds.inputs, upsilon, z)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite sum diverges
        l = total(state.w * diff) + space.delta_sum(upsilon, z)
        r = 0.5 * total(state.w * state.w)
    return ObjectiveParts(m, l, r, m + cfg.c1 * l + cfg.c2 * r)


def _trace_row(state, ds, g, space, cfg) -> TraceRow:
    """The trace row of ``state``; Diverged instead when a part is not finite."""
    row = TraceRow(state.iteration, *objective(state, ds, g, space, cfg))
    if not all(map(math.isfinite, row)):
        raise Diverged(f"non-finite objective at iteration {state.iteration} "
                       f"(c1 or c2 too large?)", iteration=state.iteration, state=state)
    return row


def fit(ds, g, space, cfg: SolverConfig, on_iteration=None) -> SolverState:
    """Run the full alternating optimization for ``cfg.max_iters`` rounds.

    Appends one trace row per iteration (plus the initial row) and returns
    the final state, its outputs decoded to lists. Deterministic given the
    config seed. A diverging weight step or a non-finite objective raises
    :class:`Diverged` with the partial state attached, decoded the same way;
    so does a non-finite initial objective, with the state :func:`initialize`
    built. ``on_iteration`` is called with the state (holding codes) after
    the initial row and after every completed iteration, for
    instrumentation.
    """
    state = None
    try:
        state = initialize(ds, g, space, cfg)
        if on_iteration is not None:
            on_iteration(state)
        for t in range(1, cfg.max_iters + 1):
            # entering iteration t, state.upsilon already reflects (w, z) of t-1
            state.z = update_slack(state, ds, g, space, cfg)
            state.w = update_weights(state, ds, space, cfg)
            state.iteration = t
            state.upsilon = update_upsilon(state, ds, space, cfg)
            state.trace.append(_trace_row(state, ds, g, space, cfg))
            if on_iteration is not None:
                on_iteration(state)
    except Diverged as e:  # from initialize too, with the state it built
        state = e.state
        raise
    finally:  # the outputs leave the solver
        if state is not None:
            state.z, state.upsilon = space.from_codes(state.z), space.from_codes(state.upsilon)
            state.fixed = None
    return state


MODEL_FORMAT = "semistruct-model/1"


def config_echo(cfg: SolverConfig) -> dict:
    return {**asdict(cfg), "eta_effective": cfg.step_size}


def save_model(path, state: SolverState, space, cfg: SolverConfig):
    """Write weights, space layout and config echo as a JSON document."""
    doc = {
        "format": MODEL_FORMAT,
        "space": space.config(),
        "weights": [float(v) for v in state.w],
        "iterations": state.iteration,
        "config": config_echo(cfg),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def load_model(path):
    """Read a model file back; returns (weights, space, raw document). A file
    that holds no valid model document raises DataFormatError naming it."""
    with open(path) as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # bad JSON or text, over-long integers
            raise DataFormatError(f"{path}: invalid JSON ({e})") from None
    if not isinstance(doc, dict):
        raise DataFormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    if doc.get("format") != MODEL_FORMAT:
        raise DataFormatError(f"{path}: unrecognized model format {doc.get('format')!r}")
    if not isinstance(doc.get("space"), dict) or "weights" not in doc:
        raise DataFormatError(f"{path}: model needs a 'space' object and 'weights'")
    try:
        space = space_from_config(doc["space"])
    except KeyError as e:
        raise DataFormatError(f"{path}: model space has no {e} field") from None
    except ContractViolation as e:
        raise DataFormatError(f"{path}: {e}") from None
    try:
        w = np.asarray(doc["weights"], dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise DataFormatError(f"{path}: model weights must be a list of numbers") from None
    if w.shape != (space.dim,):
        raise DataFormatError(f"{path}: model weights have shape {w.shape}, "
                              f"space expects ({space.dim},)")
    return w, space, doc
