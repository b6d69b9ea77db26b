"""Time the Hamming chain ``fit`` and the kNN graph build of two source trees
of semistruct on a size ladder.

Usage, from the root of a semistruct checkout::

    python3 tools/chain_ladder.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories (each holding a
``semistruct`` package), for example the ``src`` of a copy of the parent
commit made with ``git archive`` and this checkout's ``src``.

The ladder: ``synth_chains`` with 4 labels, length 6 and 6 input dimensions,
every fifth chain labeled (20%), a k = 8 graph, and 4 iterations of ``fit``
with the solver settings ``C1``, ``C2`` and ``ETA`` of ``perfbench/inputs.py``
(imported from this checkout, with ``NEW_SRC`` on the path), at n = 120,
1 200 and 12 000 chains. The graph ladder: ``build_knn_graph`` with k = 10 of
the first n points of ``synth_blobs`` (8 classes, 8 input dimensions, spread
0.6, the multiclass generator of ``perfbench/inputs.py``), at n = 300 (one
reference a chunk, the size of the taxonomy workload's graph), 1 500, 8 000
and 20 000; and an outlier row, the same 8 000 points with point 4 000 moved
1e4 along the first axis, which sets the scale of the search's float32
screen for all the others.

Each of ``ROUNDS`` rounds starts one child process per tree, the two trees
taking turns at going first. A child generates every size's data with its
own tree, builds the graph, then times ``fit`` alone (graph excluded), the
fastest of ``max(3, 24000 // n)`` fits, and reports point-iterations per
second, ``n * 4 / seconds``, and a digest of the fitted ``w``, ``z`` and
trace. It then times ``build_knn_graph`` per graph row, the fastest of
``max(1, 20000 // n)`` calls, and reports its seconds and a digest of the
edges, weights and ``sigma``. The script prints, per row, each tree's
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
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIZES = (120, 1_200, 12_000)
GRAPH_SIZES = (300, 1_500, 8_000, 20_000)
OUTLIER_SIZE = 8_000
ROUNDS = 10
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# argv: src, then the fit sizes, graph sizes, outlier size and solver
# settings as JSON. Prints one JSON object: per fit size, point-iterations per
# second and the digest of the fitted state; per graph row, seconds and the
# graph's digest.
_CHILD = r"""
import hashlib, json, sys, time
from pathlib import Path
import numpy as np
import semistruct
from semistruct import ChainSequenceSpace, Dataset, SolverConfig, build_knn_graph, fit
from semistruct.data_io import synth_blobs, synth_chains

src = Path(sys.argv[1]).resolve()
if not Path(semistruct.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported semistruct from {semistruct.__file__}, not {src}")
sizes, graph_sizes, outlier, (c1, c2, eta) = json.loads(sys.argv[2])
space = ChainSequenceSpace(4, 6)
cfg = SolverConfig(c1=c1, c2=c2, eta=eta, max_iters=4, seed=0)
out = {"fit": {}, "graph": {}, "outlier": {}}
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


def _run(src, settings) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), **{v: "1" for v in THREAD_VARS})
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src),
                           json.dumps([SIZES, GRAPH_SIZES, OUTLIER_SIZE, settings])],
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
    rows = ([("fit", n) for n in SIZES] + [("graph", n) for n in GRAPH_SIZES]
            + [("outlier", OUTLIER_SIZE)])
    values = {tag: {row: [] for row in rows} for tag in trees}
    digests = {row: set() for row in rows}
    for r in range(ROUNDS):
        for tag in ("old", "new") if r % 2 == 0 else ("new", "old"):
            for row, got in _run(trees[tag], settings).items():
                values[tag][row].append(got["rate" if row[0] == "fit" else "seconds"])
                digests[row].add(got["digest"])
    for ladder, unit in (("fit", "point-iters/s"), ("graph", "s"), ("outlier", "s")):
        print(f"{ladder:>7} {'n':>7} {'old ' + unit:>18} {'new ' + unit:>18} {'new/old':>8}"
              f" {'old IQR':>10} {'new won':>8}")
        for row in (row for row in rows if row[0] == ladder):
            old, new = (statistics.median(values[tag][row]) for tag in ("old", "new"))
            q1, _, q3 = statistics.quantiles(values["old"][row], n=4, method="inclusive")
            # a fit row reads a rate, a graph row seconds
            won = sum(b > a if ladder == "fit" else b < a
                      for a, b in zip(values["old"][row], values["new"][row]))
            print(f"{ladder:>7} {row[1]:>7} {old:>18.4g} {new:>18.4g} {new / old:>8.3f}"
                  f" {q3 - q1:>10.3g} {f'{won}/{ROUNDS}':>8}")
    differ = [row for row in rows if len(digests[row]) > 1]
    for ladder, n in differ:
        what = "the fitted w, z or trace" if ladder == "fit" else "the graphs"
        print(f"{ladder} n = {n}: {what} differ between the trees")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
