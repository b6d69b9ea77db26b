"""Check that two source trees of semistruct write the same fixed-seed outputs.

Usage, from the root of a semistruct checkout::

    python3 tools/same_outputs.py OLD_SRC NEW_SRC [--work DIR]
    python3 tools/same_outputs.py --write-manifest SRC

``OLD_SRC`` and ``NEW_SRC`` are ``src`` directories (each holding a
``semistruct`` package), for example this checkout's ``src`` and the ``src``
of a copy of the parent commit made with ``git archive``.

The inputs are written once, by this checkout's ``perfbench/inputs.py``
(imported as it is, with ``NEW_SRC`` on the path): the three benchmark
workloads for each of ``SEEDS`` (0, 1 and 2), plus four 60-point chain sets
per seed: one for the zero-one loss with every third point unlabeled; one
for the zero-one loss with half its inputs duplicated and two thirds of
its points unlabeled, so that its graphs have hubs (see
:func:`_write_zero_one_hub`); and one of chains of two lengths with every
third point unlabeled, read as a list of inputs and run under the Hamming
and the zero-one loss alike; one Hamming chain set of lengths 4 to 6
interleaved in id order, the shape of the default ``synth --space chain``
set, on which ``fit`` and ``cv`` refuse a graph edge joining two lengths,
so that ``predict`` finds no model, while ``baseline`` runs (see
:func:`_write_interleaved_lengths`); and one 60-point multiclass set with
duplicated inputs, on which ``cv`` and ``sweep`` need a fold graph that a
search of the whole set's ``2k`` nearest does not give (see
:func:`_write_duplicates`), run with ``--classes 3`` and again with
``--classes 7``, which adds four classes that no point has; and one
60-point taxonomy set on the scene tree with its node ids reversed, so that
every parent id is above its children's (see
:func:`_write_reversed_taxonomy`). Then, for
each source tree, one child process runs every command through
``semistruct.cli.main``: ``synth`` for each space with default flags; per
input set, ``fit --dump-graph``, ``cv`` and ``baseline`` with both
``--z-init`` values, and ``predict`` with each fitted model; and one
two-value ``sweep`` of ``c1`` on the first input set, on each duplicated
one and on each reversed taxonomy. Every file the commands write is
compared byte for byte, and so is each command's exit code, which the child
writes to ``exit_code.json`` in the command's ``--out`` directory. Stdout is
not compared, since it holds wall times.

Prints one line per difference and exits 1 if there is any, else prints the
number of identical files and exits 0.

``--write-manifest SRC`` runs only the seed-0 commands, importing
semistruct from ``SRC``, and writes ``tests/golden/outputs.sha256``: the
SHA-256 of every file they write (``report.json`` as canonical JSON, its
keys sorted), headed by the numpy version and machine it was written on. A
tier-1 test rewrites the files and compares their digests with it.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "golden" / "outputs.sha256"
SEEDS = (0, 1, 2)
Z_INITS = ("nearest-labeled", "uniform-random")
SPACES = ("multiclass", "taxonomy", "chain")

# Runs the JSON list of argv lists on stdin through cli.main in the current
# directory, writing each call's exit code to exit_code.json in its --out
# directory, so that a new call adds a file and moves no other.
_CHILD = r"""
import contextlib, io, json, sys
from pathlib import Path
import semistruct
from semistruct import cli

src = Path(sys.argv[1]).resolve()
if not Path(semistruct.__file__).resolve().is_relative_to(src):
    sys.exit(f"imported semistruct from {semistruct.__file__}, not {src}")
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
    out = Path(argv[argv.index("--out") + 1])
    out.mkdir(parents=True, exist_ok=True)
    (out / "exit_code.json").write_text(json.dumps(code) + "\n")
"""


def _load_inputs(new_src):
    """``perfbench/inputs.py`` as a module, importing semistruct from ``new_src``."""
    sys.path.insert(0, str(new_src))
    spec = importlib.util.spec_from_file_location(
        "same_outputs_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _write_zero_one_chains(seed, out):
    """60 training chains (every third unlabeled) and 20 held-out ones,
    3 labels, length 4, for the zero-one loss."""
    from semistruct import data_io
    from semistruct.core import DataPoint, Dataset
    from semistruct.spaces import ChainSequenceSpace

    space = ChainSequenceSpace(3, 3, loss="zero-one")
    points = data_io.synth_chains(3, (4, 4), 80, 3, seed).points
    train = Dataset(DataPoint(i, p.x, None if i % 3 == 2 else p.y)
                    for i, p in enumerate(points[:60]))
    heldout = Dataset(DataPoint(i, p.x) for i, p in enumerate(points[60:]))
    out.mkdir(parents=True, exist_ok=True)
    data_io.save_dataset(train, out / "train.jsonl", space)
    data_io.save_dataset(heldout, out / "heldout.jsonl", space)


def _write_zero_one_hub(seed, out):
    """60 training chains and 20 held-out ones, 3 labels, length 4, for the
    zero-one loss. Every even training chain shares the first one's input,
    and only every third chain is labeled. The lowest ids among the 30
    copies are then the nearest of every other copy: hubs whose neighbour
    terms far outnumber everyone else's."""
    from semistruct import data_io
    from semistruct.core import DataPoint, Dataset
    from semistruct.spaces import ChainSequenceSpace

    space = ChainSequenceSpace(3, 3, loss="zero-one")
    points = data_io.synth_chains(3, (4, 4), 80, 3, seed).points
    xs = [points[0].x if i % 2 == 0 else p.x for i, p in enumerate(points[:60])]
    train = Dataset(DataPoint(i, x, p.y if i % 3 == 0 else None)
                    for i, (x, p) in enumerate(zip(xs, points)))
    heldout = Dataset(DataPoint(i, p.x) for i, p in enumerate(points[60:]))
    out.mkdir(parents=True, exist_ok=True)
    data_io.save_dataset(train, out / "train.jsonl", space)
    data_io.save_dataset(heldout, out / "heldout.jsonl", space)


def _write_mixed_length_chains(seed, out):
    """60 training chains (every third unlabeled) and 20 held-out ones,
    3 labels, half of length 4 and half of length 6 with their inputs
    moved 10 away, so that no neighbour edge joins two lengths."""
    from semistruct import data_io
    from semistruct.core import DataPoint, Dataset
    from semistruct.spaces import ChainSequenceSpace

    space = ChainSequenceSpace(3, 3)
    short = data_io.synth_chains(3, (4, 4), 40, 3, seed).points
    long = data_io.synth_chains(3, (6, 6), 40, 3, seed + 100).points
    points = [(p.x, p.y) for p in short] + [(p.x + 10.0, p.y) for p in long]
    train = points[:30] + points[40:70]
    heldout = points[30:40] + points[70:]
    out.mkdir(parents=True, exist_ok=True)
    data_io.save_dataset(Dataset(DataPoint(i, x, None if i % 3 == 2 else y)
                                 for i, (x, y) in enumerate(train)),
                         out / "train.jsonl", space)
    data_io.save_dataset(Dataset(DataPoint(i, x) for i, (x, _) in enumerate(heldout)),
                         out / "heldout.jsonl", space)


def _write_interleaved_lengths(seed, out):
    """60 training chains (every third unlabeled) and 20 held-out ones, 3
    labels, of lengths 4 to 6 interleaved in id order, as ``synth --space
    chain`` writes them by default: neighbour edges join chains of two
    lengths."""
    from semistruct import data_io
    from semistruct.core import DataPoint, Dataset
    from semistruct.spaces import ChainSequenceSpace

    space = ChainSequenceSpace(3, 3)
    points = data_io.synth_chains(3, (4, 6), 80, 3, seed).points
    train = Dataset(DataPoint(i, p.x, None if i % 3 == 2 else p.y)
                    for i, p in enumerate(points[:60]))
    heldout = Dataset(DataPoint(i, p.x) for i, p in enumerate(points[60:]))
    out.mkdir(parents=True, exist_ok=True)
    data_io.save_dataset(train, out / "train.jsonl", space)
    data_io.save_dataset(heldout, out / "heldout.jsonl", space)


def _write_duplicates(seed, out):
    """60 training points (every third unlabeled) and 20 held-out ones, 3
    classes in 2-D. The six points of the first test fold of ``cv --seed
    seed`` share one input, and one point of another fold lies 1e-3 from it.
    At ``--k 5``, one less than the fold size, that point's ten nearest in
    the whole set hold all six, so in the first fold it has only four
    training neighbours among them."""
    from semistruct import data_io
    from semistruct.core import DataPoint, Dataset
    from semistruct.spaces import MulticlassSpace

    blobs = data_io.synth_blobs(3, 27, 2, 0.5, seed)
    X, ys = np.array(blobs.inputs[:80]), blobs.outputs[:80]
    fold_of = np.array(data_io.make_folds(Dataset.from_arrays(X[:60], ys[:60]), seed).fold_of)
    first, other = np.flatnonzero(fold_of == 0), np.flatnonzero(fold_of == 1)[0]
    X[first] = X[first[0]]
    X[other] = X[first[0]] + 1e-3
    out.mkdir(parents=True, exist_ok=True)
    space = MulticlassSpace(3, 2)
    data_io.save_dataset(Dataset(DataPoint(i, X[i], None if i % 3 == 2 else ys[i])
                                 for i in range(60)), out / "train.jsonl", space)
    data_io.save_dataset(Dataset(DataPoint(i, x) for i, x in enumerate(X[60:])),
                         out / "heldout.jsonl", space)


def _write_reversed_taxonomy(seed, out):
    """The scene tree with its node ids reversed, so that every parent id is
    above its children's and the leaves come first, in the other order; 45
    training points (every third unlabeled) and 15 held-out ones, 4 per
    leaf in 3-D."""
    from semistruct import data_io, three_level_taxonomy
    from semistruct.core import DataPoint, Dataset
    from semistruct.spaces import Taxonomy, TaxonomySpace

    scene = three_level_taxonomy()
    last = len(scene) - 1
    tree = Taxonomy(tuple(None if p is None else last - p for p in reversed(scene.parents)),
                    tuple(reversed(scene.names)))
    blobs = data_io.synth_taxonomy_blobs(tree, 4, 3, 0.5, seed)
    train = [(p.x, p.y) for i, p in enumerate(blobs.points) if i % 4 != 3]
    heldout = [p.x for i, p in enumerate(blobs.points) if i % 4 == 3]
    out.mkdir(parents=True, exist_ok=True)
    space = TaxonomySpace(tree, 3)
    data_io.save_taxonomy(tree, out / "taxonomy.json")
    data_io.save_dataset(Dataset(DataPoint(i, x, None if i % 3 == 2 else y)
                                 for i, (x, y) in enumerate(train)), out / "train.jsonl", space)
    data_io.save_dataset(Dataset(DataPoint(i, x) for i, x in enumerate(heldout)),
                         out / "heldout.jsonl", space)


def write_cases(inputs, data, seeds=SEEDS):
    """Write every input set of ``seeds`` under ``data``; returns ``(name,
    dir, flags, graph)`` per set, ``flags`` being the space and solver flags
    of its commands and ``graph`` the graph flags of those that build one."""
    cases = []
    for seed in seeds:
        for workload, spec in inputs.WORKLOADS.items():
            where = data / f"{workload}-{seed}"
            inputs.write_inputs(workload, seed, where)
            flags = ["--space", spec.space]
            if spec.space == "taxonomy":
                flags += ["--taxonomy", str(where / "taxonomy.json")]
            elif spec.space == "chain":
                flags += ["--alphabet", str(inputs.CHAIN_LABELS)]
            else:
                flags += ["--classes", str(inputs.MC_CLASSES)]
            flags += ["--c1", repr(inputs.C1), "--c2", repr(inputs.C2),
                      "--eta", repr(inputs.ETA), "--iters", str(spec.iters),
                      "--seed", str(seed)]
            cases.append((f"{workload}-{seed}", where, flags, ["--k", str(spec.k)]))
        where = data / f"zero-one-{seed}"
        _write_zero_one_chains(seed, where)
        cases.append((f"zero-one-{seed}", where, [
            "--space", "chain", "--alphabet", "3", "--loss", "zero-one", "--c1", "0.5",
            "--c2", "1.0", "--iters", "5", "--seed", str(seed)], ["--k", "4"]))
        where = data / f"zero-one-hub-{seed}"
        _write_zero_one_hub(seed, where)
        cases.append((f"zero-one-hub-{seed}", where, [
            "--space", "chain", "--alphabet", "3", "--loss", "zero-one", "--c1", "0.5",
            "--c2", "1.0", "--iters", "5", "--seed", str(seed)], ["--k", "5"]))
        where = data / f"mixed-lengths-{seed}"
        _write_mixed_length_chains(seed, where)
        flags = ["--space", "chain", "--alphabet", "3", "--c1", "0.5", "--c2", "1.0",
                 "--iters", "5", "--seed", str(seed)]
        cases.append((f"mixed-lengths-{seed}", where, flags, ["--k", "4"]))
        cases.append((f"mixed-lengths-zero-one-{seed}", where,
                      [*flags, "--loss", "zero-one"], ["--k", "4"]))
        where = data / f"interleaved-lengths-{seed}"
        _write_interleaved_lengths(seed, where)
        cases.append((f"interleaved-lengths-{seed}", where, flags, ["--k", "4"]))
        where = data / f"duplicates-{seed}"
        _write_duplicates(seed, where)
        for classes in (3, 7):  # 7: four classes that no point has
            cases.append((f"duplicates-{seed}" if classes == 3 else
                          f"duplicates-classes-{classes}-{seed}", where, [
                "--space", "multiclass", "--classes", str(classes), "--c1", "0.5", "--c2",
                "1.0", "--iters", "5", "--seed", str(seed)], ["--k", "5"]))
        where = data / f"reversed-taxonomy-{seed}"
        _write_reversed_taxonomy(seed, where)
        cases.append((f"reversed-taxonomy-{seed}", where, [
            "--space", "taxonomy", "--taxonomy", str(where / "taxonomy.json"), "--c1", "0.5",
            "--c2", "1.0", "--iters", "5", "--seed", str(seed)], ["--k", "4"]))
    return cases


def commands(cases):
    """Every CLI call, writing into output directories relative to the
    child's working directory."""
    calls = [["synth", "--space", space, "--out", f"synth/{space}"] for space in SPACES]
    for name, where, flags, graph in cases:
        train, heldout = str(where / "train.jsonl"), str(where / "heldout.jsonl")
        for z_init in Z_INITS:
            tag = f"{name}/{z_init}"
            both = [*flags, "--z-init", z_init]
            calls.append(["fit", "--data", train, *both, *graph, "--dump-graph",
                          "--out", f"{tag}/fit"])
            calls.append(["predict", "--model", f"{tag}/fit/model.json", "--data", heldout,
                          "--out", f"{tag}/predict"])
            calls.append(["cv", "--data", train, *both, *graph, "--out", f"{tag}/cv"])
            calls.append(["baseline", "--data", train, *both, "--out", f"{tag}/baseline"])
    for name, where, flags, graph in [cases[0], *(c for c in cases[1:] if c[0].startswith(
            ("duplicates-", "reversed-taxonomy-")))]:
        calls.append(["sweep", "--param", "c1", "--values", "0.5,2", "--data",
                      str(where / "train.jsonl"), *flags, *graph, "--out", f"{name}/sweep"])
    return calls


def run_side(src, calls, out):
    """Run ``calls`` in one child process importing semistruct from ``src``."""
    out.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", _CHILD, str(src)], input=json.dumps(calls),
                   text=True, cwd=out, env=env, check=True)


def _digest(path):
    if path.name == "report.json":  # hashed as canonical JSON, as the manifest was written
        data = json.dumps(json.loads(path.read_text()), sort_keys=True)
        return hashlib.sha256(data.encode()).hexdigest()
    return hashlib.sha256(path.read_bytes()).hexdigest()


def digests(root):
    """SHA-256 of every file under ``root`` by relative path (a POSIX
    string); ``report.json`` is hashed as canonical JSON."""
    return {p.relative_to(root).as_posix(): _digest(p)
            for p in sorted(root.rglob("*")) if p.is_file()}


def environment():
    """What the digests may depend on besides the code: the numpy build
    and the CPU, whose BLAS products may round otherwise. The BLAS thread
    count is not recorded, since no long float sum of semistruct follows
    it (``core.total``); the golden test runs at 1 and 2 threads."""
    return {"numpy": np.__version__, "machine": platform.machine()}


def seed_digests(src, work):
    """:func:`digests` of the seed-0 outputs of ``src``, written under ``work``."""
    calls = commands(write_cases(_load_inputs(src), work / "data", seeds=(0,)))
    run_side(src, calls, work / "out")
    return digests(work / "out")


def write_manifest(path, env, files):
    """Write ``env`` as ``# key value`` lines, then ``digest  path`` lines."""
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {k} {v}" for k, v in env.items()]
    lines += [f"{digest}  {name}" for name, digest in sorted(files.items())]
    path.write_text("\n".join(lines) + "\n")


def read_manifest(path):
    """``(env, files)`` as :func:`write_manifest` was given them."""
    env, files = {}, {}
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            env[key] = value
        else:
            digest, name = line.split("  ", 1)
            files[name] = digest
    return env, files


def compare(old, new):
    """``(differences, identical file count)`` of two output trees."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    others = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    diffs = [f"only in OLD: {p}" for p in sorted(files - others)]
    diffs += [f"only in NEW: {p}" for p in sorted(others - files)]
    diffs += [f"differs: {p}" for p in sorted(files & others)
              if (old / p).read_bytes() != (new / p).read_bytes()]
    return diffs, len(files & others) - sum(d.startswith("differs") for d in diffs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("srcs", type=Path, nargs="+", metavar="SRC",
                        help="OLD_SRC NEW_SRC, or one SRC with --write-manifest")
    parser.add_argument("--work", type=Path, default=None,
                        help="directory for inputs and outputs (default: a temporary one)")
    parser.add_argument("--write-manifest", action="store_true",
                        help=f"write {MANIFEST.relative_to(ROOT)} from one SRC's seed-0 outputs")
    args = parser.parse_args(argv)
    srcs = [src.resolve() for src in args.srcs]
    if len(srcs) != (1 if args.write_manifest else 2):
        parser.error("give OLD_SRC and NEW_SRC, or one SRC with --write-manifest")
    for src in srcs:
        if not (src / "semistruct" / "cli.py").is_file():
            parser.error(f"{src} holds no semistruct package")

    work = Path(tempfile.mkdtemp()) if args.work is None else args.work.resolve()
    if args.write_manifest:
        try:
            files = seed_digests(srcs[0], work)
        finally:
            if args.work is None:
                shutil.rmtree(work, ignore_errors=True)
        write_manifest(MANIFEST, environment(), files)
        print(f"{len(files)} digests written to {MANIFEST.relative_to(ROOT)}")
        return 0
    old_src, new_src = srcs
    try:
        inputs = _load_inputs(new_src)
        calls = commands(write_cases(inputs, work / "data"))
        run_side(old_src, calls, work / "old")
        run_side(new_src, calls, work / "new")
        diffs, same = compare(work / "old", work / "new")
    finally:
        if args.work is None:
            shutil.rmtree(work, ignore_errors=True)
    for line in diffs:
        print(line)
    print(f"{len(calls)} calls, {same} identical files, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
