"""Time the Hamming chain ``fit`` and ``cv`` and the kNN graph build of two
source trees of semistruct on a size ladder.

Usage, from the root of a semistruct checkout::

    python3 tools/chain_ladder.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories (each holding a
``semistruct`` package), for example the ``src`` of a copy of the parent
commit made with ``git archive`` and this checkout's ``src``.

The ladder: ``synth_chains`` with 4 labels, length 6 and 6 input dimensions,
every fifth chain labeled (20%), a k = 8 graph, and 4 iterations of ``fit``
with the solver settings ``C1``, ``C2`` and ``ETA`` of ``perfbench/inputs.py``
(imported from this checkout, with ``NEW_SRC`` on the path), at n = 120,
1 200 and 12 000 chains. The cv ladder: ``run_cv`` with k = 8 and the same
solver settings on the same chains, every one labeled, at n = 120 (the shape
of the ``chain-cv`` workload) and 1 200. The graph ladder:
``build_knn_graph`` with k = 10 of the first n points of ``synth_blobs``
(8 classes, 8 input dimensions, spread 0.6, the multiclass generator of
``perfbench/inputs.py``), at n = 300 (one
reference a chunk, the size of the taxonomy workload's graph), 1 500, 8 000
and 20 000; and an outlier row, the same 8 000 points with point 4 000 moved
1e4 along the first axis, which sets the scale of the search's float32
screen for all the others. The read rows: ``load_dataset`` of two files,
written once per run with NEW's generators before the first round: a
20 000-line ``synth_blobs`` file (8 classes, 8 input dimensions, spread 0.6)
and a 12 000-line ``synth_chains`` file (4 labels, lengths 4 to 6, 6 input
dimensions), whose chains of several lengths take the reader's
record-by-record path.

Each of ``ROUNDS`` rounds starts one child process per tree, the two trees
taking turns at going first. A child generates every size's data with its
own tree, builds the graph, then times ``fit`` alone (graph excluded), the
fastest of ``max(3, 24000 // n)`` fits, and reports point-iterations per
second, ``n * 4 / seconds``, and a digest of the fitted ``w``, ``z`` and
trace. It times ``run_cv`` per cv row, the fastest of ``max(3, 2400 // n)``
calls, and reports its seconds and a digest of ``report_json`` and every
fold's trace CSV. It then times ``build_knn_graph`` per graph row, the
fastest of ``max(1, 20000 // n)`` calls, and reports its seconds and a digest
of the edges, weights and ``sigma``. It times ``load_dataset`` per read row,
the fastest of 5 reads, and reports its seconds and a digest of the
inputs and outputs read. The script prints, per row, each tree's
median, the ratio NEW / OLD, the interquartile range of OLD's values
(inclusive quartiles) and the rounds in which NEW was faster. A row shows a
gain under the claim rule of ``BENCH_19.json`` when NEW was faster in at
least 9 of 10 rounds and the medians differ by more than OLD's
interquartile range. The script exits 1 if any digest differs between the
two trees (or between rounds), else 0. Timings are wall-clock and need a
machine otherwise idle; numpy is held to one BLAS thread.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (120, 1_200, 12_000)
CV_SIZES = (120, 1_200)
GRAPH_SIZES = (300, 1_500, 8_000, 20_000)
OUTLIER_SIZE = 8_000
ROUNDS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# argv: src, then the fit sizes, cv sizes, graph sizes, outlier size, solver
# settings and the two data files as JSON. Prints one JSON
# object: per fit size, point-iterations per second and the digest of the
# fitted state; per cv, graph and read row, seconds and the digest of the
# report and traces, of the graph or of the dataset read.
_CHILD = r"""
import hashlib, json, sys, time
from pathlib import Path
import numpy as np
import semistruct
from semistruct import (ChainSequenceSpace, Dataset, MulticlassSpace, SolverConfig,
                        build_knn_graph, fit)
from semistruct.evaluate import report_json, run_cv, trace_csv
from semistruct.data_io import load_dataset, synth_blobs, synth_chains

src = Path(sys.argv[1]).resolve()
if not Path(semistruct.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported semistruct from {semistruct.__file__}, not {src}")
sizes, cv_sizes, graph_sizes, outlier, (c1, c2, eta), files = json.loads(sys.argv[2])
space = ChainSequenceSpace(4, 6)
cfg = SolverConfig(c1=c1, c2=c2, eta=eta, max_iters=4, seed=0)
out = {"fit": {}, "cv": {}, "graph": {}, "outlier": {}, "mc-read": {}, "ch-read": {}}
for n in sizes:
    full = synth_chains(4, (6, 6), n, 6, seed=n)
    ds = Dataset.from_arrays(full.inputs, [y if i % 5 == 0 else None
                                           for i, y in enumerate(full.outputs)], "chain")
    g = build_knn_graph(ds, k=8)
    seconds = []
    for _ in range(max(3, 24_000 // n)):
        start = time.perf_counter()
        state = fit(ds, g, space, cfg)
        seconds.append(time.perf_counter() - start)
    digest = hashlib.sha256(state.w.tobytes())
    digest.update(json.dumps(state.z).encode())
    digest.update(repr([tuple(row) for row in state.trace]).encode())
    out["fit"][n] = {"rate": n * cfg.max_iters / min(seconds), "digest": digest.hexdigest()}
for n in cv_sizes:
    full = synth_chains(4, (6, 6), n, 6, seed=n)
    seconds = []
    for _ in range(max(3, 2_400 // n)):
        start = time.perf_counter()
        report = run_cv(full, space, cfg, k=8)
        seconds.append(time.perf_counter() - start)
    digest = hashlib.sha256(report_json(report).encode())
    for trace in report.traces:
        digest.update(trace_csv(trace).encode())
    out["cv"][n] = {"seconds": min(seconds), "digest": digest.hexdigest()}
for ladder, n in [("graph", n) for n in graph_sizes] + [("outlier", outlier)]:
    blobs = synth_blobs(8, -(-n // 8), 8, 0.6, seed=n)
    xs = np.array(blobs.inputs[:n])
    if ladder == "outlier":
        xs[n // 2, 0] += 1e4
    ds = Dataset.from_arrays(xs, blobs.outputs[:n], "multiclass")
    seconds = []
    for _ in range(max(1, 20_000 // n)):
        start = time.perf_counter()
        g = build_knn_graph(ds, k=10)
        seconds.append(time.perf_counter() - start)
    seconds = min(seconds)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (g.src, g.dst, g.weight)))
    digest.update(repr(g.sigma).encode())
    out[ladder][n] = {"seconds": seconds, "digest": digest.hexdigest()}
for ladder, (n, path) in zip(("mc-read", "ch-read"), files):
    read_space = MulticlassSpace(8, 8) if ladder == "mc-read" else space
    seconds = []
    for _ in range(5):
        start = time.perf_counter()
        ds = load_dataset(path, read_space)
        seconds.append(time.perf_counter() - start)
    digest = hashlib.sha256(json.dumps(ds.outputs).encode())
    for x in [ds.inputs] if isinstance(ds.inputs, np.ndarray) else ds.inputs:
        digest.update(repr(x.shape).encode() + x.tobytes())
    out[ladder][n] = {"seconds": min(seconds), "digest": digest.hexdigest()}
print(json.dumps(out))
"""


def _settings():
    """``(C1, C2, ETA)`` of ``perfbench/inputs.py``."""
    spec = importlib.util.spec_from_file_location("chain_ladder_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module.C1, module.C2, module.ETA


def _write_files(folder) -> list:
    """``[(n, path)]`` of the read rows' two files, written into ``folder``."""
    from semistruct.data_io import save_dataset, synth_blobs, synth_chains
    from semistruct.spaces import ChainSequenceSpace, MulticlassSpace

    blobs, chains = folder / "blobs.jsonl", folder / "chains.jsonl"
    save_dataset(synth_blobs(8, 2_500, 8, 0.6, seed=0), blobs, MulticlassSpace(8, 8))
    save_dataset(synth_chains(4, (4, 6), 12_000, 6, seed=0), chains, ChainSequenceSpace(4, 6))
    return [(20_000, str(blobs)), (12_000, str(chains))]


def _run(src, settings, files) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src),
                           json.dumps([SIZES, CV_SIZES, GRAPH_SIZES, OUTLIER_SIZE, settings,
                                       files])],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the child process for {src} failed:\n{done.stderr}")
    return {(ladder, int(n)): row
            for ladder, rows in json.loads(done.stdout).items() for n, row in rows.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    sys.path.insert(0, str(trees["new"]))
    settings = _settings()
    rows = ([("fit", n) for n in SIZES] + [("cv", n) for n in CV_SIZES]
            + [("graph", n) for n in GRAPH_SIZES] + [("outlier", OUTLIER_SIZE)]
            + [("mc-read", 20_000), ("ch-read", 12_000)])
    values = {tag: {row: [] for row in rows} for tag in trees}
    digests = {row: set() for row in rows}
    with tempfile.TemporaryDirectory() as folder:
        files = _write_files(Path(folder))
        for r in range(ROUNDS):
            for tag in ("old", "new") if r % 2 == 0 else ("new", "old"):
                for row, got in _run(trees[tag], settings, files).items():
                    values[tag][row].append(got["rate" if row[0] == "fit" else "seconds"])
                    digests[row].add(got["digest"])
    for ladder, unit in (("fit", "point-iters/s"), ("cv", "s"), ("graph", "s"),
                         ("outlier", "s"), ("mc-read", "s"), ("ch-read", "s")):
        print(f"{ladder:>7} {'n':>7} {'old ' + unit:>18} {'new ' + unit:>18} {'new/old':>8}"
              f" {'old IQR':>10} {'new won':>8}")
        for row in (row for row in rows if row[0] == ladder):
            old, new = (statistics.median(values[tag][row]) for tag in ("old", "new"))
            q1, _, q3 = statistics.quantiles(values["old"][row], n=4, method="inclusive")
            # a fit row reads a rate, the others seconds
            won = sum(b > a if ladder == "fit" else b < a
                      for a, b in zip(values["old"][row], values["new"][row]))
            print(f"{ladder:>7} {row[1]:>7} {old:>18.4g} {new:>18.4g} {new / old:>8.3f}"
                  f" {q3 - q1:>10.3g} {f'{won}/{ROUNDS}':>8}")
    differ = [row for row in rows if len(digests[row]) > 1]
    for ladder, n in differ:
        what = {"fit": "the fitted w, z or trace", "cv": "the reports or traces",
                "mc-read": "the datasets read", "ch-read": "the datasets read"}.get(
                    ladder, "the graphs")
        print(f"{ladder} n = {n}: {what} differ between the trees")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
