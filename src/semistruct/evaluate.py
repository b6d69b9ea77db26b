"""Cross-validation harness, average-structured-loss scoring and sweeps.

The protocol: split into ten folds, rotate each fold out as the test set,
keep two random folds of the remaining nine labeled and mask the other
seven. Each run reports the inductive test score (predictions of the
learned weights on the held-out fold) and the transductive score (the final
slack outputs against the masked ground truth).

The folds' training splits are subsets of one point set, so one
neighbor search of that set serves every fold's graph
(:class:`~semistruct.graph.SubsetGraphs`), and a sweep shares it across all
its values.

Wall-clock timings live only on the in-memory report; serialized reports
and traces contain no volatile fields, so repeated seeded runs are
byte-identical.
"""

from __future__ import annotations

import io
import json
import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .core import Dataset, take_inputs, validate_dataset
from .data_io import NUM_FOLDS, make_folds, mask_labels
from .errors import ContractViolation, Diverged, SemistructError
from .graph import NeighborGraph, SubsetGraphs
from .solver import SolverConfig, config_echo, fit

SWEEP_PARAMS = ("c1", "c2")


def asl(predictions, truths, space) -> float:
    """Average structured loss of predictions against true outputs; either
    may be codes or a list of outputs."""
    if len(predictions) != len(truths):
        raise ContractViolation(
            f"got {len(predictions)} predictions for {len(truths)} truths"
        )
    if not len(predictions):
        raise ContractViolation("cannot average over an empty set")
    return space.delta_sum(predictions, truths) / len(predictions)


@dataclass
class FoldResult:
    fold: int
    test_asl: float = None
    transductive_asl: float = None
    diverged: bool = False
    error: str = None
    seconds: float = 0.0  # volatile; excluded from serialized reports


@dataclass
class EvalReport:
    """Aggregated outcome of a ten-fold run."""

    method: str
    space_kind: str
    seed: int
    solver: dict
    graph: dict
    folds: list = field(default_factory=list)
    traces: list = field(default_factory=list)  # per-fold objective traces
    trace_paths: list = None  # filled by callers that write traces to disk

    def _mean(self, attr):
        vals = [getattr(f, attr) for f in self.folds if getattr(f, attr) is not None]
        return sum(vals) / len(vals) if vals else None

    @property
    def mean_test_asl(self):
        return self._mean("test_asl")

    @property
    def mean_transductive_asl(self):
        return self._mean("transductive_asl")

    @property
    def folds_diverged(self):
        return sum(1 for f in self.folds if f.diverged)

    @property
    def failure(self):
        """Why the run has no mean score (every fold diverged), or None."""
        every = self.folds and self.folds_diverged == len(self.folds)
        return f"all {len(self.folds)} folds diverged" if every else None

    @property
    def total_seconds(self):
        return sum(f.seconds for f in self.folds)

    def to_dict(self) -> dict:
        """Deterministic JSON-ready view; timing deliberately left out."""
        return {
            "method": self.method,
            "space": self.space_kind,
            "seed": self.seed,
            "solver": self.solver,
            "graph": self.graph,
            "folds": [
                {k: v for k, v in asdict(f).items() if k != "seconds"} for f in self.folds
            ],
            "mean_test_asl": self.mean_test_asl,
            "mean_transductive_asl": self.mean_transductive_asl,
            "folds_diverged": self.folds_diverged,
            "trace_paths": self.trace_paths,
        }


def report_json(report: EvalReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


def folds_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    buf.write("fold,test_asl,transductive_asl,diverged\n")
    for f in report.folds:
        test = "" if f.test_asl is None else repr(f.test_asl)
        trans = "" if f.transductive_asl is None else repr(f.transductive_asl)
        buf.write(f"{f.fold},{test},{trans},{int(f.diverged)}\n")
    return buf.getvalue()


def trace_csv(trace) -> str:
    """Objective trace as CSV, one row per iteration including the initial
    row; the total column always equals manifold + c1 * loss + c2 * reg."""
    buf = io.StringIO()
    buf.write("iteration,manifold,loss,regularizer,objective\n")
    for row in trace:
        buf.write(
            f"{row.iteration},{row.manifold!r},{row.loss!r},{row.reg!r},{row.total!r}\n"
        )
    return buf.getvalue()


def _fold_loop(ds, space, cfg, seed, method, graph, prepare, transductive) -> EvalReport:
    """Ten-fold run shared by the learner and its baseline.

    Per fold, ``prepare(split, train)`` returns the training set and graph,
    ``train`` holding the ids of the training split's points, and
    ``transductive(state, split, ids)`` the fit's outputs for the masked
    train points ``ids``. The test score covers the labeled points of the
    test fold; a fold without one (or without a labeled masked point) has no
    score of that kind. A fold whose training split holds no labeled point
    is not fit: it is recorded with an error, no scores and an empty trace.
    A diverging fold is recorded and the run continues.
    """
    valid = validate_dataset(ds, space)
    if not valid.ok:
        raise ContractViolation("invalid dataset: " + "; ".join(valid.violations))
    plan = make_folds(ds, seed)
    fold_of = np.asarray(plan.fold_of)
    report = EvalReport(method, space.kind, seed, config_echo(cfg), graph)
    for run in range(NUM_FOLDS):
        split = mask_labels(ds, plan, run)
        if not split.train.labeled.any():
            report.folds.append(FoldResult(run, error="no labeled point in the training split"))
            report.traces.append([])
            continue
        masked_ids = sorted(split.masked_truth)
        start = time.perf_counter()
        fold = FoldResult(fold=run)
        try:
            train, g = prepare(split, np.flatnonzero(fold_of != run))
            state = fit(train, g, space, cfg)
        except Diverged as e:
            fold.diverged = True
            fold.error = str(e)
            report.traces.append(list(e.state.trace) if e.state else [])
        else:
            test = split.test
            scored = np.flatnonzero(test.labeled)
            if len(scored):
                fold.test_asl = asl(
                    space.argmax_score_all(state.w, take_inputs(test.inputs, scored)),
                    [test.outputs[i] for i in scored.tolist()],
                    space,
                )
            if masked_ids:
                fold.transductive_asl = asl(
                    transductive(state, split, masked_ids),
                    [split.masked_truth[i] for i in masked_ids],
                    space,
                )
            report.traces.append(list(state.trace))
        fold.seconds = time.perf_counter() - start
        report.folds.append(fold)
    return report


def run_cv(ds, space, cfg: SolverConfig, k=5, sigma=None, seed=0) -> EvalReport:
    """Ten-fold cross validation of the graph-regularized learner.

    Per fold: mask, take the neighbor graph over the train inputs, fit,
    then score the test fold inductively and the masked points
    transductively, by their final slack outputs. Each fold's graph is
    ``build_knn_graph(split.train, k, sigma)``, read off one search of the
    whole set, which runs at the first fold that needs a graph.
    """
    return _cv(ds, space, cfg, k, sigma, seed, SubsetGraphs(ds.inputs, k))


def _cv(ds, space, cfg, k, sigma, seed, graphs) -> EvalReport:
    """:func:`run_cv` with the fold graphs taken from ``graphs``."""
    return _fold_loop(
        ds, space, cfg, seed, "graph-regularized", {"k": k, "sigma": sigma},
        prepare=lambda split, train: (split.train, graphs.graph(train, split.train, sigma)),
        transductive=lambda state, split, ids: [state.z[i] for i in ids],
    )


def run_baseline_supervised(ds, space, cfg: SolverConfig, seed=0) -> EvalReport:
    """Labeled-only comparison arm under the identical fold plan.

    Drops the masked points and trains on the two labeled folds with an
    edge-free graph, which reduces the objective to the loss bound plus the
    weight penalty. The transductive column scores the learned weights'
    predictions on the dropped points, since no slack outputs exist for
    them.
    """

    def prepare(split, train):
        labeled = np.flatnonzero(split.train.labeled)
        train = Dataset.from_arrays(take_inputs(split.train.inputs, labeled),
                                    [split.train.outputs[i] for i in labeled.tolist()],
                                    split.train.space_id)
        return train, NeighborGraph.empty(len(labeled))

    def transductive(state, split, ids):
        return space.argmax_score_all(state.w, take_inputs(split.train.inputs, np.array(ids)))

    return _fold_loop(
        ds, space, cfg, seed, "supervised-baseline", {"k": None, "sigma": None},
        prepare, transductive,
    )


@dataclass
class SweepRow:
    value: float
    mean_test_asl: float = None
    error: str = None


def sweep(param, values, ds, space, base_cfg: SolverConfig,
          k=5, sigma=None, seed=0) -> list:
    """Cross-validated mean test score for each tradeoff value.

    ``param`` is "c1" or "c2". A value whose run fails with a package error
    (an invalid setting, say) is recorded and the sweep continues; any other
    exception propagates. Note a swept c2 also moves the default step
    size, which stays at 1 / c2 unless the base config pins eta. Every
    value's cross validation reads its fold graphs off one neighbor search.
    """
    if param not in SWEEP_PARAMS:
        raise ContractViolation(f"param must be one of {SWEEP_PARAMS}, got {param!r}")
    if not values:
        raise ContractViolation("sweep needs at least one value")
    rows, graphs = [], SubsetGraphs(ds.inputs, k)
    for v in values:
        cfg = replace(base_cfg, **{param: float(v)})
        try:
            rep = _cv(ds, space, cfg, k, sigma, seed, graphs)
            rows.append(SweepRow(float(v), rep.mean_test_asl, rep.failure))
        except SemistructError as e:  # keep sweeping past bad configurations
            rows.append(SweepRow(float(v), None, str(e)))
    return rows


def sweep_csv(param, rows) -> str:
    buf = io.StringIO()
    buf.write(f"{param},mean_test_asl,error\n")
    for r in rows:
        mean = "" if r.mean_test_asl is None else repr(r.mean_test_asl)
        err = "" if r.error is None else r.error.replace("\n", " ").replace(",", ";")
        buf.write(f"{r.value!r},{mean},{err}\n")
    return buf.getvalue()
