"""The brute-force references as ``perfbench/run.py`` loads them.

The benchmark loads ``tests/oracles.py`` by its file path, outside the
``tests`` package, and checks sampled predictions against
``brute_argmax_score`` and ``brute_argmax_loss_augmented``. A relative
import or a renamed reference there would otherwise show only as a failed
benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from semistruct import ChainSequenceSpace, MulticlassSpace, TaxonomySpace, three_level_taxonomy

SPACES = {
    "multiclass": (lambda: MulticlassSpace(4, 3), (3,)),
    "taxonomy": (lambda: TaxonomySpace(three_level_taxonomy(), 3), (3,)),
    "chain-hamming": (lambda: ChainSequenceSpace(3, 2), (5, 2)),
    "chain-zero-one": (lambda: ChainSequenceSpace(3, 2, loss="zero-one"), (5, 2)),
}


def _load_by_path():
    spec = importlib.util.spec_from_file_location(
        "semistruct_brute_oracles", Path(__file__).with_name("oracles.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", SPACES)
def test_the_references_loaded_by_path_answer_as_the_space(name):
    oracles = _load_by_path()
    make, shape = SPACES[name]
    space = make()
    rng = np.random.default_rng(17)
    x, w = rng.standard_normal(shape), rng.standard_normal(space.dim)
    z = space.random_output(x, rng)
    assert oracles.brute_argmax_score(space, w, x) == space.argmax_score(w, x)
    assert oracles.brute_argmax_loss_augmented(space, w, x, z) == (
        space.argmax_loss_augmented(w, x, z))
