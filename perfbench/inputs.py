"""Input files of the benchmark workloads, generated from a seed.

Each workload writes, into one directory:

- ``train.jsonl``: the data the training command (``fit`` or ``cv``) reads;
- ``heldout.jsonl``: held-out points with their outputs removed, for
  ``predict``;
- ``truth.json``: the encoded outputs of the held-out points, in id order.
  Only the benchmark reads it; the program never sees it;
- ``taxonomy.json``: the tree, for the taxonomy workload only.

Everything is built with ``semistruct.data_io``'s synthetic generators and
written with ``save_dataset``, so the same seed gives byte-identical files.

Run as a script (``PYTHONPATH=src python3 perfbench/inputs.py WORKLOAD SEED
OUT_DIR``) it writes one workload's inputs; ``run.py`` times that whole
process, from interpreter start to exit, as ``setup_s``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from semistruct import data_io
from semistruct.core import DataPoint, Dataset
from semistruct.spaces import (
    ChainSequenceSpace,
    MulticlassSpace,
    TaxonomySpace,
    three_level_taxonomy,
)

# Mixed into the workload seed so the split draws differ from the draws the
# generators make with the same seed.
_SEED_TAG_SPLIT = 307

# Solver settings shared by every workload.
C1, C2, ETA = 0.05, 10.0, 0.01


@dataclass(frozen=True)
class Spec:
    """Sizes and settings of one workload."""

    space: str
    train: int  # points in train.jsonl
    labeled: int  # labeled among them
    heldout: int  # points in heldout.jsonl
    dim: int
    k: int
    iters: int
    spread: float = 0.0  # cluster spread of the vector generators
    cv: bool = False  # train with ``cv`` (then ``fit`` the final model)
    predict_repeats: int = 1  # ``predict`` calls per repetition


WORKLOADS = {
    "tx-fit": Spec("taxonomy", train=300, labeled=30, heldout=600,
                   dim=8, k=10, iters=3, spread=1.0, predict_repeats=3),
    "chain-cv": Spec("chain", train=120, labeled=120, heldout=1000,
                     dim=6, k=8, iters=4, cv=True, predict_repeats=3),
    "mc-pool": Spec("multiclass", train=1500, labeled=75, heldout=10000,
                    dim=8, k=10, iters=1, spread=0.6, predict_repeats=2),
}

CHAIN_LABELS = 4
CHAIN_LENGTH = 6
MC_CLASSES = 8


def _generate(workload, seed):
    """Generated points, their space and (taxonomy only) the tree."""
    spec = WORKLOADS[workload]
    total = spec.train + spec.heldout
    tree = None
    if spec.space == "taxonomy":
        tree = three_level_taxonomy()
        per_leaf = -(-total // len(tree.leaves))
        ds = data_io.synth_taxonomy_blobs(tree, per_leaf, spec.dim, spec.spread, seed)
        space = TaxonomySpace(tree, spec.dim)
    elif spec.space == "chain":
        ds = data_io.synth_chains(CHAIN_LABELS, (CHAIN_LENGTH, CHAIN_LENGTH),
                                  total, spec.dim, seed)
        space = ChainSequenceSpace(CHAIN_LABELS, spec.dim)
    else:
        per_class = -(-total // MC_CLASSES)
        ds = data_io.synth_blobs(MC_CLASSES, per_class, spec.dim, spec.spread, seed)
        space = MulticlassSpace(MC_CLASSES, spec.dim)
    return ds.points, space, tree


def write_inputs(workload, seed, out) -> None:
    """Write the input files of ``workload`` for ``seed`` into ``out``."""
    spec = WORKLOADS[workload]
    points, space, tree = _generate(workload, seed)
    rng = np.random.default_rng((seed, _SEED_TAG_SPLIT))
    order = rng.permutation(len(points))
    train_src = order[: spec.train]
    heldout_src = order[spec.train : spec.train + spec.heldout]
    keep = set(rng.choice(spec.train, size=spec.labeled, replace=False).tolist())

    train = Dataset(tuple(
        DataPoint(i, points[j].x, points[j].y if i in keep else None)
        for i, j in enumerate(train_src)
    ), space.kind)
    heldout = Dataset(tuple(
        DataPoint(i, points[j].x, None) for i, j in enumerate(heldout_src)
    ), space.kind)

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if tree is not None:
        data_io.save_taxonomy(tree, out / "taxonomy.json")
    data_io.save_dataset(train, out / "train.jsonl", space)
    data_io.save_dataset(heldout, out / "heldout.jsonl", space)
    truth = [space.encode(points[j].y) for j in heldout_src]
    (out / "truth.json").write_text(json.dumps(truth) + "\n")


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), sys.argv[3])
