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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractViolation, Diverged, UnsupportedConfiguration
from .graph import manifold_term, neighbor_terms, point_vector
from .spaces import space_from_config

Z_INIT_STRATEGIES = ("nearest-labeled", "uniform-random")

_SEED_TAG_ZINIT = 101


@dataclass
class SolverConfig:
    """Knobs of the alternating optimizer.

    ``eta=None`` selects the step size ``1 / c2``, which makes every weight
    step a guaranteed descent step on the weight subproblem (its curvature
    is ``c2`` in every direction). Smaller values damp the update and keep a
    running average of past steps.
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
        if self.c1 <= 0:
            raise ContractViolation(f"c1 must be positive, got {self.c1}")
        if self.c2 <= 0:
            raise ContractViolation(f"c2 must be positive, got {self.c2}")
        if self.eta is not None and self.eta <= 0:
            raise ContractViolation(f"eta must be positive, got {self.eta}")
        if self.max_iters < 1:
            raise ContractViolation(f"max_iters must be >= 1, got {self.max_iters}")
        if self.z_init not in Z_INIT_STRATEGIES:
            raise ContractViolation(
                f"z_init must be one of {Z_INIT_STRATEGIES}, got {self.z_init!r}"
            )


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

    ``trace`` holds one row per completed iteration plus the initial row;
    each row reports the objective of the state at that point, with the
    most-violating outputs refreshed so the loss bound is consistent with
    the recorded ``(w, z)``.
    """

    w: np.ndarray
    z: list
    upsilon: list
    iteration: int = 0
    trace: list = field(default_factory=list)


def initialize(ds, g, space, cfg: SolverConfig) -> SolverState:
    """Zero weights plus a first guess for every slack output.

    Labeled points take their true output. Unlabeled points copy the output
    of the nearest labeled point (ties toward the smaller id) or draw
    uniformly from the space, per ``cfg.z_init``.
    """
    cfg.validate()
    if g.n != len(ds.points):
        raise ContractViolation(
            f"graph covers {g.n} nodes but the dataset has {len(ds.points)} points"
        )
    labeled = [p.id for p in ds.points if p.y is not None]
    if not labeled:
        raise ContractViolation("cannot initialize without labeled points")

    z = [None] * len(ds.points)
    if cfg.z_init == "nearest-labeled":
        X = np.stack([point_vector(p.x) for p in ds.points])
        XL = X[labeled]
        for p in ds.points:
            if p.y is not None:
                z[p.id] = p.y
                continue
            d2 = ((XL - X[p.id]) ** 2).sum(axis=1)
            donor = ds.points[labeled[int(np.argmin(d2))]]
            if not space.contains(donor.y, x=p.x):
                raise UnsupportedConfiguration(
                    f"nearest-labeled init copied an output that does not fit "
                    f"point {p.id} (sequence lengths differ?)"
                )
            z[p.id] = donor.y
    else:
        rng = np.random.default_rng((cfg.seed, _SEED_TAG_ZINIT))
        for p in ds.points:
            z[p.id] = p.y if p.y is not None else space.random_output(p.x, rng)

    state = SolverState(w=np.zeros(space.dim), z=z, upsilon=[], iteration=0)
    state.upsilon = update_upsilon(state, ds, space, cfg)
    state.trace.append(TraceRow(0, *objective(state, ds, g, space, cfg)))
    return state


def update_upsilon(state, ds, space, cfg) -> list:
    """Most-violating output for every point at the current ``(w, z)``.

    Runs loss-augmented inference for all points, labeled included; the
    loss bound sums over the whole training set. Independent of c1 and c2.
    """
    return space.argmax_loss_augmented_all(state.w, ds.inputs, state.z)


def update_slack(state, ds, g, space, cfg) -> list:
    """One sweep of slack-output updates.

    Labeled points keep their true output. Each unlabeled point minimizes
    its local objective against the neighbors' previous-iteration outputs.
    """
    free = ds.unlabeled_ids
    owner, neighbor, weight = neighbor_terms(g, free)
    moved = space.argmin_slack_all(
        state.w,
        [ds.inputs[i] for i in free],
        [state.upsilon[i] for i in free],
        (owner, weight, [state.z[j] for j in neighbor]),
        cfg.c1,
    )
    new = list(state.z)
    for i in ds.labeled_ids:
        new[i] = ds.points[i].y
    for i, y in zip(free, moved):
        new[i] = y
    return new


def update_weights(state, ds, space, cfg) -> np.ndarray:
    """One gradient step on the weight subproblem.

    Applies ``w <- (1 - eta * c2) * w - eta * c1 * sum_i (phi(x_i, ups_i) -
    phi(x_i, z_i))`` with the most-violating and slack outputs held fixed.
    """
    eta = cfg.step_size
    acc = space.phi_diff_sum(ds.inputs, state.upsilon, state.z)
    with np.errstate(over="ignore", invalid="ignore"):
        w_new = (1.0 - eta * cfg.c2) * state.w - eta * cfg.c1 * acc
    if not np.all(np.isfinite(w_new)):
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
    m = manifold_term(g, state.z, space)
    diff = space.phi_diff_sum(ds.inputs, state.upsilon, state.z)
    l = float(np.dot(state.w, diff)) + space.delta_sum(state.upsilon, state.z)
    r = 0.5 * float(np.dot(state.w, state.w))
    return ObjectiveParts(m, l, r, m + cfg.c1 * l + cfg.c2 * r)


def fit(ds, g, space, cfg: SolverConfig, on_iteration=None) -> SolverState:
    """Run the full alternating optimization for ``cfg.max_iters`` rounds.

    Appends one trace row per iteration (plus the initial row) and returns
    the final state. Deterministic given the config seed. A diverging
    weight step raises :class:`Diverged` with the partial state attached.
    ``on_iteration`` is called with the state after the initial row and
    after every completed iteration, for instrumentation.
    """
    state = initialize(ds, g, space, cfg)
    if on_iteration is not None:
        on_iteration(state)
    for t in range(1, cfg.max_iters + 1):
        # entering iteration t, state.upsilon already reflects (w, z) of t-1
        state.z = update_slack(state, ds, g, space, cfg)
        state.w = update_weights(state, ds, space, cfg)
        state.iteration = t
        state.upsilon = update_upsilon(state, ds, space, cfg)
        state.trace.append(TraceRow(t, *objective(state, ds, g, space, cfg)))
        if on_iteration is not None:
            on_iteration(state)
    return state


def predict(w, x, space):
    """Highest-scoring output for a single input."""
    return space.argmax_score(w, x)


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
    """Read a model file back; returns (weights, space, raw document)."""
    with open(path) as f:
        doc = json.load(f)
    if doc.get("format") != MODEL_FORMAT:
        raise ContractViolation(f"unrecognized model format {doc.get('format')!r}")
    space = space_from_config(doc["space"])
    w = np.asarray(doc["weights"], dtype=float)
    if w.shape != (space.dim,):
        raise ContractViolation(
            f"model weights have length {w.shape}, space expects {space.dim}"
        )
    return w, space, doc
