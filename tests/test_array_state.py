"""The array-native solver against the list-based steps it replaced.

Every fit here runs twice, once through the package and once through the
list-based reference in ``tests/oracles.py``, and each iteration's decoded
slack and most-violating outputs, weight bytes and trace row must agree.
"""

import numpy as np
import pytest

from semistruct import (
    ChainSequenceSpace,
    ContractViolation,
    DataPoint,
    Dataset,
    Diverged,
    MulticlassSpace,
    NeighborGraph,
    SolverConfig,
    TaxonomySpace,
    build_knn_graph,
    fit,
    three_level_taxonomy,
)
from semistruct.data_io import synth_blobs, synth_chains, synth_taxonomy_blobs
from semistruct.solver import (
    SolverState,
    initialize,
    objective,
    update_slack,
    update_upsilon,
    update_weights,
)

from . import oracles


class PairSpace(oracles.EnumeratingSpace):
    """Two binary labels per input; Hamming loss. Answers the whole-array
    contract by enumeration, and its outputs are tuples, which numpy would
    read as rows of a 2-D array."""

    kind = "pairs"

    def __init__(self, input_dim):
        self.input_dim = input_dim
        self.dim = 4 * input_dim

    def contains(self, y, x=None):
        return isinstance(y, tuple) and len(y) == 2 and all(v in (0, 1) for v in y)

    def phi(self, x, y):
        out = np.zeros((4, self.input_dim))
        out[y[0]] = x
        out[2 + y[1]] = x
        return out.ravel()

    def delta(self, y1, y2):
        return float((y1[0] != y2[0]) + (y1[1] != y2[1]))

    def outputs(self, x=None):
        return [(0, 0), (0, 1), (1, 0), (1, 1)]

    def random_output(self, x, rng):
        return self.outputs()[int(rng.integers(4))]

    def decode(self, value):
        return tuple(value)

    def config(self):
        return {"kind": self.kind, "input_dim": self.input_dim}


def _masked(ds, every):
    return Dataset(
        tuple(DataPoint(p.id, p.x, p.y if p.id % every == 0 else None) for p in ds.points),
        ds.space_id,
    )


def _grid_dataset():
    """Inputs on a 3 x 3 integer grid, so distances, edge weights and
    neighbor label sums tie exactly."""
    rng = np.random.default_rng(331)
    X = rng.integers(0, 3, (60, 2)).astype(float)
    ys = rng.integers(3, size=60)
    return _masked(Dataset(tuple(DataPoint(i, X[i], int(ys[i])) for i in range(60))), 4)


def _pair_dataset():
    rng = np.random.default_rng(337)
    X = rng.standard_normal((30, 2))
    ys = [(int(x[0] > 0), int(x[1] > 0)) for x in X]
    return _masked(Dataset(tuple(DataPoint(i, X[i], ys[i]) for i in range(30))), 3)


def _mixed_length_chains():
    """Chains of lengths 4 and 6, the second group moved 100 away so no graph
    edge joins two lengths; the inputs stay a list."""
    short = synth_chains(3, (4, 4), 20, 2, seed=11).points
    long = synth_chains(3, (6, 6), 20, 2, seed=12).points
    xs = [p.x for p in short] + [p.x + 100.0 for p in long]
    ys = [p.y for p in short + long]
    ds = _masked(Dataset(tuple(DataPoint(i, x, y) for i, (x, y) in enumerate(zip(xs, ys)))), 3)
    assert type(ds.inputs) is list
    return ds


def _case(name):
    """``(ds, g, space)`` of one named case."""
    if name == "multiclass":
        ds = _masked(synth_blobs(classes=4, per_class=15, dim=3, spread=0.6, seed=3), 3)
        return ds, build_knn_graph(ds, k=5), MulticlassSpace(4, 3)
    if name == "taxonomy":
        tree = three_level_taxonomy()
        ds = _masked(synth_taxonomy_blobs(tree, 4, 3, 0.8, seed=4), 3)
        return ds, build_knn_graph(ds, k=5), TaxonomySpace(tree, 3)
    if name == "chain-hamming":
        ds = _masked(synth_chains(3, (4, 4), 40, 3, seed=5), 3)
        return ds, build_knn_graph(ds, k=4), ChainSequenceSpace(3, 3)
    if name == "chain-mixed-lengths":
        ds = _mixed_length_chains()
        return ds, build_knn_graph(ds, k=4), ChainSequenceSpace(3, 2)
    if name == "chain-zero-one":  # 27 candidates per input, few enough to enumerate
        ds = _masked(synth_chains(3, (3, 3), 24, 2, seed=6), 3)
        return ds, build_knn_graph(ds, k=3), ChainSequenceSpace(3, 2, loss="zero-one")
    if name == "fully-labeled":
        ds = synth_blobs(classes=3, per_class=10, dim=2, spread=0.5, seed=7)
        return ds, build_knn_graph(ds, k=4), MulticlassSpace(3, 2)
    if name == "chain-fully-labeled":  # no free point: the slack oracle is never asked
        ds = synth_chains(3, (4, 4), 30, 3, seed=9)
        return ds, build_knn_graph(ds, k=4), ChainSequenceSpace(3, 3)
    if name == "empty-graph":
        ds = _masked(synth_blobs(classes=3, per_class=10, dim=2, spread=0.5, seed=8), 3)
        return ds, NeighborGraph.empty(len(ds)), MulticlassSpace(3, 2)
    if name == "integer-grid":
        ds = _grid_dataset()
        return ds, build_knn_graph(ds, k=6), MulticlassSpace(3, 2)
    assert name == "custom-space"
    ds = _pair_dataset()
    return ds, build_knn_graph(ds, k=4), PairSpace(2)


CASES = ("multiclass", "taxonomy", "chain-hamming", "chain-mixed-lengths", "chain-zero-one",
         "fully-labeled", "chain-fully-labeled", "empty-graph", "integer-grid", "custom-space")


def _snapshot(state, space):
    """Decoded outputs, weight bytes and last trace row of a state that holds
    either codes or lists."""
    as_list = lambda ys: space.from_codes(ys) if isinstance(ys, np.ndarray) else list(ys)
    return (as_list(state.z), as_list(state.upsilon), state.w.tobytes(), state.trace[-1])


@pytest.mark.parametrize("z_init", ["nearest-labeled", "uniform-random"])
@pytest.mark.parametrize("name", CASES)
def test_every_iteration_equals_the_list_based_solver(name, z_init):
    ds, g, space = _case(name)
    cfg = SolverConfig(c1=0.5, c2=4.0, eta=0.05, max_iters=5, seed=2, z_init=z_init)
    got, want = [], []
    state = fit(ds, g, space, cfg, on_iteration=lambda s: got.append(_snapshot(s, space)))
    ref = oracles.list_fit(ds, g, space, cfg,
                           on_iteration=lambda s: want.append(_snapshot(s, space)))
    assert len(got) == len(want) == cfg.max_iters + 1
    for t, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"iteration {t} differs"
    # the returned state holds lists of outputs again
    assert type(state.z) is list and type(state.upsilon) is list
    assert _snapshot(state, space) == _snapshot(ref, space)
    assert state.trace == ref.trace


@pytest.mark.parametrize("loss", ["hamming", "zero-one"])
def test_a_fit_whose_longest_chains_are_all_unlabeled_equals_the_list_based_solver(loss):
    """The true outputs are narrower than the random initial slack outputs;
    the slack step merges them at the wider width, so the slack and
    most-violating outputs share one width and decode unpadded."""
    short = synth_chains(3, (4, 4), 20, 2, seed=11).points
    long = synth_chains(3, (6, 6), 20, 2, seed=12).points
    points = [(p.x, p.y if p.id % 3 == 0 else None) for p in short]
    points += [(p.x + 100.0, None) for p in long]
    ds = Dataset(tuple(DataPoint(i, x, y) for i, (x, y) in enumerate(points)))
    g, space = build_knn_graph(ds, k=4), ChainSequenceSpace(3, 2, loss=loss)
    cfg = SolverConfig(c1=0.5, c2=4.0, eta=0.05, max_iters=5, seed=2, z_init="uniform-random")
    got, want, widths = [], [], set()

    def record(s):
        got.append(_snapshot(s, space))
        widths.update((s.z.dtype, s.upsilon.dtype))

    state = fit(ds, g, space, cfg, on_iteration=record)
    oracles.list_fit(ds, g, space, cfg, on_iteration=lambda s: want.append(_snapshot(s, space)))
    assert got == want and len(widths) == 1
    assert [len(y) for y in state.z] == [len(x) for x in ds.inputs]


def test_a_diverged_fit_carries_the_same_decoded_partial_state():
    ds, g, space = _case("multiclass")
    cfg = SolverConfig(eta=1e200, max_iters=50)
    with pytest.raises(Diverged) as got:
        fit(ds, g, space, cfg)
    with pytest.raises(Diverged) as want:
        oracles.list_fit(ds, g, space, cfg)
    assert str(got.value) == str(want.value)
    assert type(got.value.state.z) is list
    assert _snapshot(got.value.state, space) == _snapshot(want.value.state, space)
    assert got.value.state.trace == want.value.state.trace


def test_state_codes_are_label_ints_or_objects():
    ds, g, space = _case("multiclass")
    state = initialize(ds, g, space, SolverConfig())
    assert state.z.dtype.kind == "i" and state.upsilon.dtype.kind == "i"
    assert all(state.z[p.id] == p.y for p in ds.points if p.y is not None)
    ds, g, space = _case("custom-space")
    state = initialize(ds, g, space, SolverConfig())
    assert state.z.dtype == object and state.z.shape == (len(ds),)
    assert all(type(y) is tuple for y in state.z)


@pytest.mark.parametrize("name", ["taxonomy", "chain-hamming", "chain-fully-labeled"])
def test_a_hand_made_state_of_lists_steps_like_the_reference(name):
    ds, g, space = _case(name)
    cfg = SolverConfig(c1=0.5, eta=0.05)
    rng = np.random.default_rng(347)
    # every slack output drawn at random, labeled points included
    z = [space.random_output(p.x, rng) for p in ds.points]
    ups = [space.random_output(p.x, rng) for p in ds.points]
    w = rng.standard_normal(space.dim)
    state = SolverState(w=w, z=list(z), upsilon=list(ups))
    ref = oracles.ListState(w=w, z=list(z), upsilon=list(ups))
    assert space.from_codes(update_slack(state, ds, g, space, cfg)) == \
        oracles.list_update_slack(ref, ds, g, space, cfg)
    assert space.from_codes(update_upsilon(state, ds, space, cfg)) == \
        oracles.list_update_upsilon(ref, ds, space, cfg)
    assert update_weights(state, ds, space, cfg).tobytes() == \
        oracles.list_update_weights(ref, ds, space, cfg).tobytes()
    assert objective(state, ds, g, space, cfg) == oracles.list_objective(ref, ds, g, space, cfg)


@pytest.mark.parametrize("name", ["fully-labeled", "chain-fully-labeled"])
def test_a_fit_without_free_points_never_asks_the_slack_oracle(name, monkeypatch):
    ds, g, space = _case(name)
    calls = []
    monkeypatch.setattr(type(space), "argmin_slack_all", lambda *args: calls.append(args))
    state = fit(ds, g, space, SolverConfig(c1=0.5, c2=4.0, eta=0.05, max_iters=3))
    assert calls == [] and state.iteration == 3
    assert state.z == list(ds.outputs)


@pytest.mark.parametrize("bad", [[0, 7, 1], [0, -1, 1], [0, (1,), 1]])
def test_encoding_rejects_non_members_once_at_the_boundary(bad):
    space = MulticlassSpace(3, 1)
    ds = Dataset(tuple(DataPoint(i, np.array([float(i)]), y) for i, y in enumerate(bad)))
    with pytest.raises(ContractViolation):
        initialize(ds, build_knn_graph(ds, k=1), space, SolverConfig())
    with pytest.raises(ContractViolation):
        PairSpace(1).as_codes([(0, 1), (0, 2)])
