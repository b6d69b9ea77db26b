import re

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
    build_knn_graph,
    fit,
    initialize,
    load_model,
    objective,
    run_cv,
    save_model,
    update_slack,
    update_upsilon,
    update_weights,
)
from semistruct.data_io import synth_blobs, synth_chains
from semistruct.solver import Z_INIT_STRATEGIES, SolverState

from . import oracles


def _dataset(xs, ys):
    points = tuple(
        DataPoint(i, np.asarray(x, float), y) for i, (x, y) in enumerate(zip(xs, ys))
    )
    return Dataset(points, "multiclass")


@pytest.fixture
def tiny():
    """Four 2-d points, two labeled, plus the space and a 1-nn graph."""
    ds = _dataset(
        [[0.0, 0.0], [0.2, 0.0], [3.0, 3.0], [3.2, 3.0]],
        [0, None, 1, None],
    )
    space = MulticlassSpace(2, 2)
    g = build_knn_graph(ds, k=1)
    return ds, g, space


def test_initialize_fully_labeled_copies_outputs(tiny):
    _, _, space = tiny
    ds = _dataset([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0, 1, 0])
    g = build_knn_graph(ds, k=1)
    state = initialize(ds, g, space, SolverConfig())
    assert state.z.tolist() == [0, 1, 0]


def test_initialize_nearest_labeled(tiny):
    ds, g, space = tiny
    state = initialize(ds, g, space, SolverConfig(z_init="nearest-labeled"))
    assert state.z.tolist() == [0, 0, 1, 1]


def test_initialize_single_label_spreads_everywhere(tiny):
    _, _, space = tiny
    ds = _dataset([[0.0, 0.0], [5.0, 0.0], [9.0, 1.0]], [1, None, None])
    g = build_knn_graph(ds, k=1)
    state = initialize(ds, g, space, SolverConfig())
    assert state.z.tolist() == [1, 1, 1]


def test_initialize_random_is_seed_deterministic(tiny):
    ds, g, space = tiny
    cfg = SolverConfig(z_init="uniform-random", seed=9)
    a = initialize(ds, g, space, cfg)
    b = initialize(ds, g, space, cfg)
    assert a.z.tolist() == b.z.tolist()
    assert np.array_equal(a.w, b.w)
    assert a.trace == b.trace


def test_initialize_requires_a_label(tiny):
    _, _, space = tiny
    ds = _dataset([[0.0, 0.0], [1.0, 1.0]], [None, None])
    g = build_knn_graph(ds, k=1)
    with pytest.raises(ContractViolation):
        initialize(ds, g, space, SolverConfig())


def test_initialize_checks_graph_size(tiny):
    ds, _, space = tiny
    with pytest.raises(ContractViolation):
        initialize(ds, NeighborGraph.empty(3), space, SolverConfig())


def test_initialize_writes_one_trace_row(tiny):
    ds, g, space = tiny
    state = initialize(ds, g, space, SolverConfig())
    assert len(state.trace) == 1
    assert state.trace[0].iteration == 0


def test_initialize_rejects_copying_across_sequence_lengths():
    from semistruct import ChainSequenceSpace, UnsupportedConfiguration

    space = ChainSequenceSpace(2, 1)
    points = (
        DataPoint(0, np.zeros((2, 1)), (0, 1)),
        DataPoint(1, np.zeros((3, 1)), None),  # longer than its only donor
    )
    ds = Dataset(points, "chain")
    g = build_knn_graph(ds, k=1)
    with pytest.raises(UnsupportedConfiguration):
        initialize(ds, g, space, SolverConfig(z_init="nearest-labeled"))
    # per-position random init has no length problem, but mixed-length
    # sequences cannot be compared across edges, so drop the graph
    empty = NeighborGraph.empty(2)
    state = initialize(ds, empty, space, SolverConfig(z_init="uniform-random", seed=2))
    assert len(space.from_codes(state.z)[1]) == 3
    # the labeled output, shorter than the codes are wide, stays as it is, and
    # the unlabeled one keeps its length, also in a state built by hand from lists
    by_hand = SolverState(w=state.w, z=[(1, 1), (0, 0, 0)], upsilon=[(1, 0), (1, 1, 1)])
    for s in (state, by_hand):
        y0, y1 = space.from_codes(update_slack(s, ds, empty, space, SolverConfig()))
        assert y0 == (0, 1) and len(y1) == 3


def test_initialize_rejects_graph_edges_across_sequence_lengths():
    from semistruct import ChainSequenceSpace, UnsupportedConfiguration

    space = ChainSequenceSpace(2, 1)
    points = (
        DataPoint(0, np.zeros((2, 1)), (0, 1)),
        DataPoint(1, np.ones((2, 1)), None),
        DataPoint(2, np.full((3, 1), 5.0), (1, 1, 0)),
    )
    ds = Dataset(points, "chain")
    g = NeighborGraph(n=3, k=1, sigma=1.0, src=np.array([0, 1, 2]),
                      dst=np.array([1, 0, 1]), weight=np.ones(3))
    for z_init in Z_INIT_STRATEGIES:
        with pytest.raises(UnsupportedConfiguration, match=r"edge 2 -> 1 .* lengths 3 and 2"):
            initialize(ds, g, space, SolverConfig(z_init=z_init))


def test_initialize_rejects_a_donor_of_another_length_without_edges():
    from semistruct import ChainSequenceSpace, UnsupportedConfiguration

    space = ChainSequenceSpace(2, 1)
    points = (
        DataPoint(0, np.zeros((2, 1)), (0, 1)),
        DataPoint(1, np.zeros((2, 1)), None),
        DataPoint(2, np.zeros((3, 1)), None),
        DataPoint(3, np.full((3, 1), 9.0), (1, 1, 0)),
    )
    ds = Dataset(points, "chain")
    with pytest.raises(UnsupportedConfiguration, match="point 2 "):
        initialize(ds, NeighborGraph.empty(4), space, SolverConfig(z_init="nearest-labeled"))
    ds = Dataset([DataPoint(i, p.x, p.y) for i, p in enumerate(points[1:])], "chain")
    with pytest.raises(UnsupportedConfiguration) as err:  # one donor, of length 3
        initialize(ds, NeighborGraph.empty(3), space, SolverConfig())
    assert str(err.value) == ("nearest-labeled init copied an output that does not fit "
                              "point 0 (sequence lengths differ?)")


def test_a_labeled_output_that_does_not_fit_its_own_input_fails_in_initialize():
    """``fit`` does not validate a hand-built set. A labeled output shorter
    than its input, copied to a point of its donor's input length, passes
    the length rule and is refused by the space's own length check."""
    from semistruct import ChainSequenceSpace

    points = (DataPoint(0, np.zeros((3, 1)), (0, 1)), DataPoint(1, np.ones((3, 1)), None))
    with pytest.raises(ContractViolation, match="^reference output length does not match"):
        initialize(Dataset(points, "chain"), NeighborGraph.empty(2), ChainSequenceSpace(2, 1),
                   SolverConfig())


@pytest.mark.parametrize("grid", [False, True])
def test_nearest_labeled_donors_match_brute_argmin(grid):
    rng = np.random.default_rng(103)
    X = rng.integers(0, 3, (300, 3)).astype(float) if grid else rng.standard_normal((300, 3))
    labeled = set(rng.choice(300, 40, replace=False).tolist())
    # one class per labeled point, so each copied output names its donor
    cls = {i: c for c, i in enumerate(sorted(labeled))}
    ds = _dataset(X.tolist(), [cls.get(i) for i in range(300)])
    state = initialize(ds, NeighborGraph.empty(300), MulticlassSpace(40, 3), SolverConfig())
    donors = oracles.brute_nearest_labeled(ds)
    assert state.z.tolist() == [cls[donors.get(i, i)] for i in range(300)]


# --- the three update operations -----------------------------------------------


def test_upsilon_zero_weights_flips_binary_class(tiny):
    ds, g, space = tiny
    state = initialize(ds, g, space, SolverConfig())
    ups = update_upsilon(state, ds, space, SolverConfig())
    assert ups.tolist() == [1 - z for z in state.z]


def test_upsilon_stays_put_under_large_margin():
    # class-0 score 10 beats every rival plus its unit loss
    space = MulticlassSpace(3, 1)
    ds = _dataset([[1.0]], [0])
    state = SolverState(w=np.array([10.0, 0.0, 0.0]), z=[0], upsilon=[0])
    ups = update_upsilon(state, ds, space, SolverConfig())
    assert ups == [0]


def test_upsilon_ignores_tradeoff_parameters(tiny):
    ds, g, space = tiny
    state = initialize(ds, g, space, SolverConfig())
    a = update_upsilon(state, ds, space, SolverConfig(c1=0.01, c2=100.0))
    b = update_upsilon(state, ds, space, SolverConfig(c1=50.0, c2=0.1))
    assert a.tolist() == b.tolist()


def test_slack_no_edges_returns_upsilon(tiny):
    _, _, space = tiny
    ds = _dataset([[0.0, 0.0], [1.0, 1.0]], [0, None])
    g = NeighborGraph.empty(2)
    state = SolverState(w=np.zeros(space.dim), z=[0, 0], upsilon=[1, 1])
    z = update_slack(state, ds, g, space, SolverConfig())
    assert z[1] == 1


def test_slack_follows_heavy_neighbors():
    space = MulticlassSpace(3, 2)
    ds = _dataset([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]], [2, None, 2])
    g = NeighborGraph(
        n=3,
        k=1,
        sigma=1.0,
        src=np.array([1, 1]),
        dst=np.array([0, 2]),
        weight=np.array([3.0, 3.0]),
    )
    state = SolverState(w=np.zeros(space.dim), z=[2, 0, 2], upsilon=[0, 0, 0])
    z = update_slack(state, ds, g, space, SolverConfig(c1=1.0))
    assert z[1] == 2


def test_slack_never_moves_labeled_points(tiny):
    ds, g, space = tiny
    state = initialize(ds, g, space, SolverConfig())
    state.upsilon = [1, 1, 0, 0]
    z = update_slack(state, ds, g, space, SolverConfig())
    assert z[0] == 0 and z[2] == 1


def test_slack_reads_previous_iteration_neighbors():
    # chain of pulls 0 -> 1 -> 2: node 1 flips to its labeled neighbor's
    # output, but node 2 sees only node 1's value from before the sweep
    space = MulticlassSpace(2, 1)
    ds = _dataset([[0.0], [0.0], [0.0]], [1, None, None])
    g = NeighborGraph(
        n=3,
        k=1,
        sigma=1.0,
        src=np.array([1, 2]),
        dst=np.array([0, 1]),
        weight=np.array([5.0, 3.0]),
    )
    state = SolverState(w=np.zeros(space.dim), z=[1, 0, 0], upsilon=[0, 0, 0])
    assert update_slack(state, ds, g, space, SolverConfig(c1=1.0)).tolist() == [1, 1, 0]


def test_weight_update_shrinks_when_outputs_agree(tiny):
    ds, g, space = tiny
    cfg = SolverConfig(c1=2.0, c2=4.0, eta=0.1)
    state = SolverState(w=np.ones(space.dim), z=[0, 0, 1, 1], upsilon=[0, 0, 1, 1])
    w = update_weights(state, ds, space, cfg)
    assert np.allclose(w, (1.0 - 0.1 * 4.0) * np.ones(space.dim))


def test_weight_update_single_point_step():
    space = MulticlassSpace(2, 2)
    ds = _dataset([[1.0, 2.0]], [0])
    cfg = SolverConfig(c1=1.0, c2=1.0, eta=1.0)
    state = SolverState(w=np.zeros(space.dim), z=[0], upsilon=[1])
    w = update_weights(state, ds, space, cfg)
    expected = -(space.phi(np.array([1.0, 2.0]), 1) - space.phi(np.array([1.0, 2.0]), 0))
    assert np.array_equal(w, expected)


def test_weight_gradient_matches_central_differences():
    rng = np.random.default_rng(79)
    for _ in range(20):
        c = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 6))
        space = MulticlassSpace(c, d)
        points = [DataPoint(i, rng.standard_normal(d), None) for i in range(n)]
        ups = [int(v) for v in rng.integers(c, size=n)]
        z = [int(v) for v in rng.integers(c, size=n)]
        w = rng.standard_normal(space.dim)
        c1 = float(rng.uniform(0.5, 3.0))
        c2 = float(rng.uniform(0.5, 3.0))

        analytic = c2 * w
        for p, u, zi in zip(points, ups, z):
            analytic = analytic + c1 * (space.phi(p.x, u) - space.phi(p.x, zi))

        numeric = oracles.central_difference_gradient(
            lambda v: oracles.weight_subproblem_value(space, points, ups, z, v, c1, c2),
            w,
        )
        denom = max(float(np.linalg.norm(analytic)), 1e-12)
        assert float(np.linalg.norm(analytic - numeric)) / denom < 1e-6


def test_fit_diverges_on_huge_step(tiny):
    ds, g, space = tiny
    cfg = SolverConfig(eta=1e200, max_iters=50)
    with pytest.raises(Diverged) as exc:
        fit(ds, g, space, cfg)
    assert exc.value.state is not None
    assert exc.value.iteration == exc.value.state.iteration + 1
    # partial trace covers the iterations completed before the blow-up
    assert len(exc.value.state.trace) == exc.value.state.iteration + 1


@pytest.mark.parametrize("over, iteration", [({"c1": 1e308}, 0), ({"c2": 1e-300}, 1)],
                         ids=["initial-objective", "weight-step"])
def test_a_diverged_fit_hands_back_decoded_outputs(over, iteration):
    """The state a Diverged carries out of ``fit`` holds lists of outputs
    and no fit arrays, whether it diverged at once or after a step."""
    blobs = synth_blobs(3, 10, 2, 0.3, 0)
    ds = Dataset(DataPoint(p.id, p.x, None if p.id == 4 else p.y) for p in blobs.points)
    space = MulticlassSpace(3, 2)
    with pytest.raises(Diverged) as exc:
        fit(ds, build_knn_graph(ds, k=3), space, SolverConfig(**over))
    state = exc.value.state
    assert exc.value.iteration == iteration and state.fixed is None
    for outputs in (state.z, state.upsilon):
        assert type(outputs) is list and len(outputs) == len(ds)
        assert all(type(y) is int for y in outputs)
    assert state.z[:4] == ds.outputs[:4]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("loss", ChainSequenceSpace.LOSS_MODES)
def test_a_labeled_only_chain_fit_whose_emission_sums_overflow_diverges(loss):
    """No graph guards the inputs of a labeled-only fit: chain 1's emissions
    sum past the float range, and the objective diverges at once."""
    chains = synth_chains(3, (3, 3), 30, 2, 0)
    xs, ys = chains.inputs.copy(), list(chains.outputs)
    xs[1], ys[1] = 1e308, (0, 0, 0)
    ds = Dataset.from_arrays(xs, ys, "chain")
    with pytest.raises(Diverged, match="^non-finite objective at iteration 0 ") as exc:
        fit(ds, NeighborGraph.empty(30), ChainSequenceSpace(3, 2, loss=loss), SolverConfig())
    assert exc.value.iteration == 0


# --- objective --------------------------------------------------------------------


def test_objective_all_zero_state(tiny):
    ds, g, space = tiny
    state = SolverState(w=np.zeros(space.dim), z=[0, 0, 0, 0], upsilon=[0, 0, 0, 0])
    parts = objective(state, ds, g, space, SolverConfig())
    assert parts == (0.0, 0.0, 0.0, 0.0)


def test_objective_regularizer_value(tiny):
    ds, g, space = tiny
    state = SolverState(w=np.array([3.0, 4.0, 0.0, 0.0]), z=[0] * 4, upsilon=[0] * 4)
    parts = objective(state, ds, g, space, SolverConfig())
    assert parts.reg == 12.5


def test_objective_matches_naive_recomputation(tiny):
    ds, g, space = tiny
    rng = np.random.default_rng(83)
    cfg = SolverConfig(c1=1.7, c2=0.4)
    state = SolverState(
        w=rng.standard_normal(space.dim),
        z=[int(v) for v in rng.integers(2, size=4)],
        upsilon=[int(v) for v in rng.integers(2, size=4)],
    )
    got = objective(state, ds, g, space, cfg)
    exp = oracles.naive_objective(
        space, ds.points, g, state.z, state.upsilon, state.w, cfg.c1, cfg.c2
    )
    assert got == pytest.approx(exp, abs=1e-12)


# --- fit --------------------------------------------------------------------------


def test_fit_trace_starts_at_initialize_row(tiny):
    ds, g, space = tiny
    cfg = SolverConfig(max_iters=3, seed=1)
    init_row = initialize(ds, g, space, cfg).trace[0]
    state = fit(ds, g, space, cfg)
    assert state.trace[0] == init_row
    assert len(state.trace) == 4


def test_fit_fully_labeled_keeps_outputs_fixed():
    space = MulticlassSpace(2, 2)
    ds = _dataset([[0.0, 0.0], [0.5, 0.0], [3.0, 3.0], [3.5, 3.0]], [0, 0, 1, 1])
    g = build_knn_graph(ds, k=2)
    seen = []
    fit(ds, g, space, SolverConfig(max_iters=5), on_iteration=lambda s: seen.append(list(s.z)))
    assert all(z == [0, 0, 1, 1] for z in seen)


def test_fit_labeled_constraint_every_iteration(tiny):
    ds, g, space = tiny
    violations = []

    def check(state):
        for p in ds.points:
            if p.y is not None and state.z[p.id] != p.y:
                violations.append((state.iteration, p.id))

    fit(ds, g, space, SolverConfig(max_iters=10), on_iteration=check)
    assert violations == []


def test_fit_seeded_runs_bit_identical(tiny):
    ds, g, space = tiny
    cfg = SolverConfig(max_iters=8, seed=3, z_init="uniform-random")
    a = fit(ds, g, space, cfg)
    b = fit(ds, g, space, cfg)
    assert a.trace == b.trace
    assert np.array_equal(a.w, b.w)
    assert a.z == b.z


def test_fit_matches_manual_update_loop(tiny):
    ds, g, space = tiny
    cfg = SolverConfig(max_iters=6, c1=0.8, c2=2.0)
    state = initialize(ds, g, space, cfg)
    for _ in range(cfg.max_iters):
        state.upsilon = update_upsilon(state, ds, space, cfg)
        state.z = update_slack(state, ds, g, space, cfg)
        state.w = update_weights(state, ds, space, cfg)
        state.iteration += 1
    final = fit(ds, g, space, cfg)
    assert np.array_equal(final.w, state.w)
    assert final.z == state.z.tolist()


def test_fit_descent_properties_small_run():
    ds = synth_blobs(classes=3, per_class=10, dim=3, spread=0.4, seed=5)
    masked = Dataset(
        tuple(
            DataPoint(p.id, p.x, p.y if p.id % 3 == 0 else None) for p in ds.points
        ),
        ds.space_id,
    )
    space = MulticlassSpace(3, 3)
    g = build_knn_graph(masked, k=3)
    cfg = SolverConfig(c1=1.0, c2=2.0, max_iters=15)  # eta defaults to 1/c2
    state = initialize(masked, g, space, cfg)
    for _ in range(cfg.max_iters):
        state.upsilon = update_upsilon(state, masked, space, cfg)
        z_prev = list(state.z)
        state.z = update_slack(state, masked, g, space, cfg)
        for p in masked.points:
            if p.y is not None:
                continue
            neighbors = [(w_, z_prev[j]) for w_, j in oracles.neighbor_terms_for(g, p.id)]
            before = oracles.slack_objective_value(
                state.w, p.x, state.upsilon[p.id], neighbors, cfg.c1, z_prev[p.id], space
            )
            after = oracles.slack_objective_value(
                state.w, p.x, state.upsilon[p.id], neighbors, cfg.c1, state.z[p.id], space
            )
            assert after <= before
        w_prev = state.w
        state.w = update_weights(state, masked, space, cfg)
        before = oracles.weight_subproblem_value(
            space, masked.points, state.upsilon, state.z, w_prev, cfg.c1, cfg.c2
        )
        after = oracles.weight_subproblem_value(
            space, masked.points, state.upsilon, state.z, state.w, cfg.c1, cfg.c2
        )
        assert after <= before
        state.iteration += 1


def test_predict_invariant_under_positive_scaling(tiny):
    ds, g, space = tiny
    state = fit(ds, g, space, SolverConfig(max_iters=10, c2=4.0, eta=0.05))
    x = np.array([0.1, 0.1])
    assert space.argmax_score(state.w, x) == space.argmax_score(7.5 * state.w, x)


def test_trained_model_classifies_separable_labeled_points():
    ds = synth_blobs(classes=2, per_class=15, dim=2, spread=0.15, seed=11)
    space = MulticlassSpace(2, 2)
    g = build_knn_graph(ds, k=3)
    state = fit(ds, g, space, SolverConfig(c1=1.0, c2=10.0, eta=0.02, max_iters=40))
    preds = [space.argmax_score(state.w, p.x) for p in ds.points]
    assert preds == [p.y for p in ds.points]


def test_model_save_load_round_trip(tiny, tmp_path):
    ds, g, space = tiny
    cfg = SolverConfig(max_iters=4, c1=1.5, c2=2.5)
    state = fit(ds, g, space, cfg)
    path = tmp_path / "model.json"
    save_model(path, state, space, cfg)
    w, space2, doc = load_model(path)
    assert np.array_equal(w, state.w)
    assert space2.config() == space.config()
    assert doc["config"]["c1"] == 1.5
    assert doc["iterations"] == 4


def test_config_validation():
    with pytest.raises(ContractViolation):
        SolverConfig(c1=0.0).validate()
    with pytest.raises(ContractViolation):
        SolverConfig(c2=-1.0).validate()
    with pytest.raises(ContractViolation):
        SolverConfig(eta=0.0).validate()
    with pytest.raises(ContractViolation):
        SolverConfig(max_iters=0).validate()
    with pytest.raises(ContractViolation):
        SolverConfig(z_init="other").validate()
    assert SolverConfig(c2=4.0).step_size == 0.25


@pytest.mark.parametrize("bad", [-1, True, 1.0, "0", None], ids=repr)
@pytest.mark.parametrize("z_init", Z_INIT_STRATEGIES)
def test_a_bad_seed_is_refused_whether_or_not_it_is_drawn_from(bad, z_init):
    message = rf"^seed must be a non-negative integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ContractViolation, match=message):
        SolverConfig(seed=bad, z_init=z_init).validate()
    SolverConfig(seed=np.int64(3), z_init=z_init).validate()


@pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None], ids=repr)
def test_a_non_integer_max_iters_is_refused_by_fit_and_run_cv(tiny, bad):
    ds, g, space = tiny
    message = rf"^max_iters must be an integer, got {re.escape(repr(bad))}$"
    with pytest.raises(ContractViolation, match=message):
        fit(ds, g, space, SolverConfig(max_iters=bad))
    blobs = synth_blobs(classes=2, per_class=6, dim=2, spread=0.3, seed=3)
    with pytest.raises(ContractViolation, match=message):
        run_cv(blobs, space, SolverConfig(max_iters=bad), k=2, seed=0)


@pytest.mark.parametrize("good", [2, np.int64(2), np.int32(2)], ids=repr)
def test_integer_max_iters_of_any_integer_type_runs_that_many_iterations(tiny, good):
    ds, g, space = tiny
    assert fit(ds, g, space, SolverConfig(max_iters=good)).iteration == 2
