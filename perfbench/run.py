"""End-to-end benchmark of the ``semistruct`` command line.

Usage, from the root of a semistruct checkout::

    python3 perfbench/run.py --workload tx-fit --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from ``--seed`` (see ``inputs.py``) and
the package is driven the way users drive it, through
``semistruct.cli.main([...])``, in this process. Every CLI call is checked:
it must exit 0, its ``trace.csv`` rows must satisfy the objective identity,
its predictions must hold one in-space output per input id, and a seeded
sample of the final model's answers must match the brute-force references
in ``tests/oracles.py``.

``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics of ``BENCHMARK.json`` as medians over the repetitions,
with every time taken at the reference speed (see :class:`Timed`).
``--trace 1`` runs the workload once untraced and once under the span
recorder of ``spans.py``, and reports the per-layer metrics.

Stdout ends with one JSON line: ``correct``, ``attempted``, ``failed`` and
``metrics``. Metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from importlib import util as importlib_util
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 5
BRUTE_SAMPLES = 6
_SEED_TAG_SAMPLE = 401
# One BLAS thread keeps timings steady on a shared machine. main() sets these
# before numpy is first imported, which is why numpy is imported in functions.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Idle-machine wall time of reference_loop(); see Timed.
REFERENCE_S = 0.007


def reference_loop():
    """Wall time of a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    return time.perf_counter() - start


class Timed(NamedTuple):
    """Wall time of one call, and the same time at the reference speed.

    Neighbours on a shared machine slow every program by up to 2x, for
    stretches from seconds to minutes. ``scaled`` multiplies the wall time
    by REFERENCE_S over the reference loop's mean time just before and just
    after the call, which takes most of that slowdown out. A slower program
    still reads slower, because the reference loop does not run its code.
    """

    wall: float
    scaled: float


def timed(fn):
    """``(fn(), Timed)`` for one call of ``fn``."""
    before = reference_loop()
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    after = reference_loop()
    return result, Timed(wall, wall * 2 * REFERENCE_S / (before + after))


class Session:
    """Runs CLI calls and output checks, counting operations and failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(what)
        return ok

    def call(self, argv):
        """Run one CLI command; returns its :class:`Timed`, or None if it failed."""
        out = io.StringIO()

        def run():
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    return self.cli.main(argv)
            except SystemExit as e:  # argparse rejects bad arguments this way
                return e.code
            except Exception:  # a crash is a failed operation, not a failed benchmark
                return "exception\n" + traceback.format_exc()

        code, t = timed(run)
        ok = self.check(code == 0, f"{argv[0]} exited {code}: {out.getvalue()[-400:]}")
        return t if ok else None


# --- output checks -------------------------------------------------------------


def check_trace(s, path, iters, c1, c2):
    """Every row: objective == manifold + c1 * loss + c2 * regularizer."""
    lines = Path(path).read_text().splitlines()
    ok = lines[0] == "iteration,manifold,loss,regularizer,objective"
    ok = ok and len(lines) == iters + 2
    for line in lines[1:]:
        _, m, loss, reg, obj = (float(v) for v in line.split(","))
        parts = m + c1 * loss + c2 * reg
        scale = max(abs(obj), abs(m) + abs(c1 * loss) + abs(c2 * reg))
        ok = ok and abs(obj - parts) <= 1e-9 * scale
    s.check(ok, f"objective identity or row count broken in {path}")


def read_predictions(s, path, space, xs):
    """Decoded predictions in id order, or None when the file is malformed."""
    outputs = {}
    ok = True
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        pid = rec["id"]
        if pid in outputs or not 0 <= pid < len(xs):
            ok = False
            break
        y = space.decode(rec["y"])
        ok = ok and space.contains(y, x=xs[pid])
        outputs[pid] = y
    ok = ok and len(outputs) == len(xs)
    if not s.check(ok, f"{path} is not one in-space output per input id"):
        return None
    return [outputs[i] for i in range(len(xs))]


def check_brute(s, oracles, space, w, xs, truth, preds, seed):
    """A seeded sample of the model's answers against brute force."""
    import numpy as np

    rng = np.random.default_rng((seed, _SEED_TAG_SAMPLE))
    for i in rng.choice(len(xs), size=BRUTE_SAMPLES, replace=False):
        x, z = xs[i], truth[i]
        s.check(preds[i] == oracles.brute_argmax_score(space, w, x),
                f"prediction for held-out id {i} is not the brute-force argmax")
        y, v = space.argmax_loss_augmented(w, x, z)
        by, bv = oracles.brute_argmax_loss_augmented(space, w, x, z)
        s.check(y == by and abs(v - bv) <= 1e-9 * max(1.0, abs(bv)),
                f"loss-augmented answer for held-out id {i} differs from brute force")


# --- one repetition of a workload ------------------------------------------------


class Workload:
    """The CLI calls of one workload over its generated input directory."""

    def __init__(self, name, seed, work, session, modules):
        self.name, self.seed, self.work, self.s = name, seed, work, session
        self.inputs, self.solver, self.oracles = modules
        self.spec = self.inputs.WORKLOADS[name]
        self.xs = self.truth = None

    def _flags(self):
        spec, inputs = self.spec, self.inputs
        flags = ["--space", spec.space]
        if spec.space == "taxonomy":
            flags += ["--taxonomy", str(self.work / "taxonomy.json")]
        elif spec.space == "chain":
            flags += ["--alphabet", str(inputs.CHAIN_LABELS)]
        else:
            flags += ["--classes", str(inputs.MC_CLASSES)]
        return flags + [
            "--c1", repr(inputs.C1), "--c2", repr(inputs.C2), "--eta", repr(inputs.ETA),
            "--iters", str(spec.iters), "--k", str(spec.k), "--seed", str(self.seed),
        ]

    def load_heldout(self):
        import numpy as np

        lines = (self.work / "heldout.jsonl").read_text().splitlines()
        self.xs = [np.asarray(json.loads(line)["x"], dtype=float) for line in lines]
        self.truth = json.loads((self.work / "truth.json").read_text())

    def rep(self, on_call=None):
        """Run the workload's calls once; returns timings, or None on failure."""
        spec, work, s = self.spec, self.work, self.s
        data = str(work / "train.jsonl")
        timings = {"predict_s": []}

        def call(tag, argv):
            if on_call is not None:
                on_call(tag)
            return s.call(argv)

        if spec.cv:
            t = call("cv", ["cv", "--data", data, *self._flags(), "--out", str(work / "cv")])
            if t is None:
                return None
            timings["cv_s"] = t
            report = json.loads((work / "cv" / "report.json").read_text())
            for fold in report["folds"]:
                s.check(not fold["diverged"], f"cv fold {fold['fold']} diverged")
            for name in report["trace_paths"]:
                check_trace(s, work / "cv" / name, spec.iters, self.inputs.C1, self.inputs.C2)
            timings["transductive_asl"] = report["mean_transductive_asl"]

        t = call("fit", ["fit", "--data", data, *self._flags(), "--out", str(work / "fit")])
        if t is None:
            return None
        timings["fit_s"] = t
        check_trace(s, work / "fit" / "trace.csv", spec.iters, self.inputs.C1, self.inputs.C2)

        model = str(work / "fit" / "model.json")
        w, space, _ = self.solver.load_model(model)
        for i in range(spec.predict_repeats):
            t = call(f"predict{i}", ["predict", "--model", model,
                                     "--data", str(work / "heldout.jsonl"),
                                     "--out", str(work / "pred")])
            if t is None:
                return None
            timings["predict_s"].append(t)
        preds = read_predictions(s, work / "pred" / "predictions.jsonl", space, self.xs)
        if preds is None:
            return None
        truth = [space.decode(y) for y in self.truth]
        timings["test_asl"] = sum(map(space.delta, preds, truth)) / len(truth)
        timings["final"] = (space, w, truth, preds)
        return timings

    def check_final(self, timings):
        space, w, truth, preds = timings["final"]
        check_brute(self.s, self.oracles, space, w, self.xs, truth, preds, self.seed)

    def point_iters(self):
        """Training point-iterations of one ``fit`` and of one ``cv`` call."""
        spec = self.spec
        # the ten folds partition the data, so their train sets sum to 9 n
        return spec.train * spec.iters, 9 * spec.train * spec.iters


def cli_seconds(timings):
    """Wall time of all CLI calls of one repetition."""
    calls = [timings["fit_s"], *timings["predict_s"]]
    if "cv_s" in timings:
        calls.append(timings["cv_s"])
    return sum(t.wall for t in calls)


# --- the two kinds of run ------------------------------------------------------


def timed_setup(name, seed, work):
    """:class:`Timed` of a fresh process that imports the package and writes inputs."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def run():
        proc = subprocess.Popen([sys.executable, str(HERE / "inputs.py"), name, str(seed),
                                 str(work)], env=env)
        # wait() with a timeout polls every 50 ms; a timer kills a hung child instead
        watchdog = threading.Timer(120, proc.kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
        if code != 0:
            raise subprocess.CalledProcessError(code, proc.args)

    return timed(run)[1]


def end_to_end(wl, seconds):
    setup = [timed_setup(wl.name, wl.seed, wl.work) for _ in range(SETUP_REPEATS)]
    wl.load_heldout()
    reps, longest = [], 0.0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        r = wl.rep()
        if r is None:
            break
        reps.append(r)
        longest = max(longest, time.perf_counter() - t0)
        if time.perf_counter() - start + longest > seconds:
            break
    if not reps:
        return {}, {}
    wl.check_final(reps[-1])

    fit_pi, cv_pi = wl.point_iters()
    fit_t = [r["fit_s"] for r in reps]
    train_t = [r["cv_s"] for r in reps] if wl.spec.cv else fit_t
    train_pi = cv_pi if wl.spec.cv else fit_pi
    predict_t = [t for r in reps for t in r["predict_s"]]

    def median(ts, field="scaled"):
        return statistics.median(getattr(t, field) for t in ts)

    metrics = {
        "setup_s": median(setup),
        "train_point_iters_per_s": train_pi / median(train_t),
        "predict_points_per_s": wl.spec.heldout / median(predict_t),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "test_asl": reps[-1]["test_asl"],
    }
    extra = {
        "fit_point_iters_per_s": (fit_pi / median(fit_t), "1/s"),
        "wall_setup_s": (median(setup, "wall"), "s"),
        "wall_train_point_iters_per_s": (train_pi / median(train_t, "wall"), "1/s"),
        "wall_predict_points_per_s": (wl.spec.heldout / median(predict_t, "wall"), "1/s"),
        "setup_samples": (len(setup), "count"),
        "train_samples": (len(train_t), "count"),
        "predict_samples": (len(predict_t), "count"),
    }
    if wl.spec.cv:
        extra["cv_point_iters_per_s"] = (metrics["train_point_iters_per_s"], "1/s")
        extra["transductive_asl"] = (reps[-1]["transductive_asl"], "loss")
    return metrics, extra


def per_layer(wl, spans):
    tracer = spans.Tracer()
    tracer.run = "setup"
    with tracer:
        wl.inputs.write_inputs(wl.name, wl.seed, wl.work)
    wl.load_heldout()

    plain = wl.rep()
    if plain is None:
        return {}, {}

    runs = []

    def on_call(tag):
        tracer.run = tag
        runs.append(tag)

    with tracer:
        r = wl.rep(on_call)
    if r is None:
        return {}, {}
    wl.check_final(r)
    wl.s.check(not spans.installed_wrappers(), "tracer wrappers left installed")

    own = spans.self_times(tracer.spans)
    for run in runs:
        roots = tracer.root_seconds(run)
        total = sum(t for sp, t in zip(tracer.spans, own) if sp.run == run)
        wl.s.check(abs(total - roots) <= 1e-9 * roots + 1e-9,
                   f"self times of {run} do not sum to its root span")
    metrics = layer_metrics(tracer, cli_seconds(plain), cli_seconds(r))
    extra = {"absent": (sorted(tracer.absent), "names")}
    return metrics, extra


def layer_metrics(tracer, untraced_s, traced_s) -> dict:
    """Per-layer metrics from a finished traced run."""
    by_name = tracer.by_name()
    stats, counts = tracer.stats, tracer.counts

    def calls(name):
        return by_name.get(name, (0, 0.0))[0]

    def self_s(name):
        return by_name.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name in ("spaces.argmax_loss_augmented", "spaces.argmin_slack", "spaces.argmax_score",
                 "solver.initialize", "solver.update_upsilon", "solver.update_slack",
                 "solver.update_weights", "solver.objective", "solver.predict",
                 "graph.manifold_term", "data_io.load_dataset", "cli.main"):
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.self_s"] = self_s(name)
    for name in ("graph.build_knn_graph", "data_io.mask_labels", "data_io.save_dataset",
                 "core.validate_dataset", "evaluate.run_cv", "evaluate.asl"):
        m[f"{name}.self_s"] = self_s(name)
    for meth in ("delta", "phi", "contains"):
        m[f"spaces.{meth}.calls"] = counts[f"spaces.{meth}"]
    for stat in ("solver.fit.iterations", "solver.fit.point_iters",
                 "solver.update_slack.updated", "solver.update_upsilon.points",
                 "graph.build_knn_graph.edges", "graph.build_knn_graph.bytes_computed",
                 "data_io.load_dataset.records"):
        m[stat] = stats[stat]
    m["spaces.delta.calls_per_point_iter"] = ratio(
        counts["spaces.delta"], stats["solver.fit.point_iters"])
    m["solver.update_slack.changed_ratio"] = ratio(
        stats["solver.update_slack.changed"], stats["solver.update_slack.updated"])
    m["solver.update_upsilon.active_ratio"] = ratio(
        stats["solver.update_upsilon.active"], stats["solver.update_upsilon.points"])
    m["data_io.load_dataset.records_per_s"] = ratio(
        stats["data_io.load_dataset.records"],
        sum(s.end - s.start for s in tracer.spans if s.name == "data_io.load_dataset"))
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_ratio"] = ratio(traced_s, untraced_s)
    return m


# --- entry point ---------------------------------------------------------------


def _load_oracles():
    spec = importlib_util.spec_from_file_location(
        "semistruct_brute_oracles", ROOT / "tests" / "oracles.py")
    module = importlib_util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    bench = ROOT / "BENCHMARK.json"
    if not ((src / "semistruct" / "cli.py").is_file()
            and (ROOT / "tests" / "oracles.py").is_file() and bench.is_file()):
        print("error: run from the root of a semistruct checkout "
              "(needs src/semistruct, tests/oracles.py and BENCHMARK.json)",
              file=sys.stderr)
        return 2
    declared = json.loads(bench.read_text())
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in declared[kind]}

    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import inputs
    import spans
    import semistruct
    from semistruct import cli, solver

    if not Path(semistruct.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported semistruct from {semistruct.__file__}, not {src}",
              file=sys.stderr)
        return 2
    if args.workload not in inputs.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(inputs.WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    session = Session(cli)
    wl = Workload(args.workload, args.seed, work, session,
                  (inputs, solver, _load_oracles()))
    try:
        if args.trace:
            metrics, extra = per_layer(wl, spans)
        else:
            metrics, extra = end_to_end(wl, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if metrics and set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from "
              f"BENCHMARK.json", file=sys.stderr)
        return 2
    for err in session.errors:
        print(f"FAILED: {err}")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    for name, (value, unit) in extra.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_ops_frac {session.failed / session.attempted!r} ratio "
          f"({session.failed}/{session.attempted})")
    result = {
        "correct": session.failed == 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
