"""Time the Hamming chain ``fit`` of two source trees of semistruct on a size ladder.

Usage, from the root of a semistruct checkout::

    python3 tools/chain_ladder.py OLD_SRC NEW_SRC

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories (each holding a
``semistruct`` package), for example the ``src`` of a copy of the parent
commit made with ``git archive`` and this checkout's ``src``.

The ladder: ``synth_chains`` with 4 labels, length 6 and 6 input dimensions,
every fifth chain labeled (20%), a k = 8 graph, and 4 iterations of ``fit``
with the solver settings ``C1``, ``C2`` and ``ETA`` of ``perfbench/inputs.py``
(imported from this checkout, with ``NEW_SRC`` on the path), at n = 120,
1 200 and 12 000 chains.

Each of ``ROUNDS`` rounds starts one child process per tree, the two trees
taking turns at going first. A child generates every size's data with its
own tree, builds the graph, then times ``fit`` alone (graph excluded; one
untimed fit of the smallest size comes first) and reports point-iterations
per second, ``n * 4 / seconds``, and a digest of the fitted ``w``, ``z`` and
trace. The script prints each tree's median and the ratio NEW / OLD per
size, and exits 1 if any digest differs between the two trees (or between
rounds), else 0. Timings are wall-clock and need a machine otherwise idle;
numpy is held to one BLAS thread.
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
ROUNDS = 5
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# argv: src, sizes and solver settings as JSON. Prints one JSON object:
# per size, point-iterations per second and the digest of the fitted state.
_CHILD = r"""
import hashlib, json, sys, time
from pathlib import Path
import semistruct
from semistruct import ChainSequenceSpace, Dataset, SolverConfig, build_knn_graph, fit
from semistruct.data_io import synth_chains

src = Path(sys.argv[1]).resolve()
if not Path(semistruct.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported semistruct from {semistruct.__file__}, not {src}")
sizes, (c1, c2, eta) = json.loads(sys.argv[2])
space = ChainSequenceSpace(4, 6)
cfg = SolverConfig(c1=c1, c2=c2, eta=eta, max_iters=4, seed=0)
out = {}
for n in (sizes[0], *sizes):  # the first size twice: its first fit, untimed, warms up
    full = synth_chains(4, (6, 6), n, 6, seed=n)
    ds = Dataset.from_arrays(full.inputs, [y if i % 5 == 0 else None
                                           for i, y in enumerate(full.outputs)], "chain")
    g = build_knn_graph(ds, k=8)
    start = time.perf_counter()
    state = fit(ds, g, space, cfg)
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(state.w.tobytes())
    digest.update(json.dumps(state.z).encode())
    digest.update(repr([tuple(row) for row in state.trace]).encode())
    out[n] = {"rate": n * cfg.max_iters / seconds, "digest": digest.hexdigest()}
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
    done = subprocess.run([sys.executable, "-c", _CHILD, str(src), json.dumps([SIZES, settings])],
                          env=env, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"the child process for {src} failed:\n{done.stderr}")
    return {int(n): row for n, row in json.loads(done.stdout).items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    args = parser.parse_args(argv)
    trees = {"old": args.old_src.resolve(), "new": args.new_src.resolve()}
    sys.path.insert(0, str(trees["new"]))
    settings = _settings()
    rates = {tag: {n: [] for n in SIZES} for tag in trees}
    digests = {n: set() for n in SIZES}
    for r in range(ROUNDS):
        for tag in ("old", "new") if r % 2 == 0 else ("new", "old"):
            for n, row in _run(trees[tag], settings).items():
                rates[tag][n].append(row["rate"])
                digests[n].add(row["digest"])
    print(f"{'n':>7} {'old point-iters/s':>18} {'new point-iters/s':>18} {'new/old':>8}")
    for n in SIZES:
        old, new = (statistics.median(rates[tag][n]) for tag in ("old", "new"))
        print(f"{n:>7} {old:>18.0f} {new:>18.0f} {new / old:>8.3f}")
    differ = [n for n in SIZES if len(digests[n]) > 1]
    for n in differ:
        print(f"n = {n}: the fitted w, z or trace differ between the trees")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
