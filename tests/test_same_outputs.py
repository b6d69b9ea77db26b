"""The output comparison of ``tools/same_outputs.py``."""

import argparse
import importlib.util
import json
from pathlib import Path

import pytest

from semistruct import cli

spec = importlib.util.spec_from_file_location(
    "same_outputs", Path(__file__).resolve().parent.parent / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(same_outputs)


def _tree(root, files):
    for name, text in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_text(text)
    return root


def _report(asl):
    return json.dumps({"folds": [{"fold": 0, "test_asl": asl}]})


def test_every_byte_of_every_file_counts(tmp_path):
    base = {"a/cv/report.json": _report(0.25), "a/fit/trace.csv": "t,total\n0,1.0\n"}
    old = _tree(tmp_path / "old", base)
    assert same_outputs.compare(old, _tree(tmp_path / "same", base)) == ([], 2)
    assert same_outputs.compare(old, _tree(tmp_path / "asl", {
        **base, "a/cv/report.json": _report(0.5)})) == (["differs: a/cv/report.json"], 1)
    assert same_outputs.compare(old, _tree(tmp_path / "trace", {
        **base, "a/fit/trace.csv": "t,total\n0,1.0 \n"})) == (["differs: a/fit/trace.csv"], 1)


def test_missing_and_extra_files_are_differences(tmp_path):
    old = _tree(tmp_path / "old", {"fit/model.json": "{}", "fit/graph.csv": ""})
    new = _tree(tmp_path / "new", {"fit/model.json": "{}", "fit/extra.csv": ""})
    assert same_outputs.compare(old, new) == (
        ["only in OLD: fit/graph.csv", "only in NEW: fit/extra.csv"], 1)


def test_the_commands_cover_every_subcommand():
    parser = cli.build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    case = ("case", Path("data"), ["--space", "chain"], ["--k", "3"])
    called = {argv[0] for argv in same_outputs.commands([case])}
    assert called == set(sub.choices)
    for argv in same_outputs.commands([case]):  # every call parses
        parser.parse_args(argv)


# the child process reads it from the environment; OpenBLAS splits a long
# dot product across its threads, so a float order that followed the thread
# count would show at one of these two
@pytest.mark.parametrize("blas_threads", ["1", "2"])
def test_fixed_seed_outputs_match_the_golden_manifest(tmp_path, monkeypatch, blas_threads):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas_threads)
    recorded_env, recorded = same_outputs.read_manifest(same_outputs.MANIFEST)
    env = same_outputs.environment()
    assert recorded_env == env, (
        f"the manifest was written with {recorded_env}, this run has {env}; rewrite it "
        f"with `python3 tools/same_outputs.py --write-manifest src` on a tree known to be good")
    got = same_outputs.seed_digests(same_outputs.ROOT / "src", tmp_path)
    differing = sorted(name for name in recorded.keys() | got.keys()
                       if recorded.get(name) != got.get(name))
    assert not differing, f"{len(differing)} seed-0 output files differ: {differing}"


def test_the_manifest_round_trips(tmp_path):
    env, files = {"numpy": "1.0", "machine": "m"}, {"a/b.csv": "0" * 64, "c d.json": "1" * 64}
    same_outputs.write_manifest(tmp_path / "m.sha256", env, files)
    assert same_outputs.read_manifest(tmp_path / "m.sha256") == (env, files)
