import math
import tracemalloc

import numpy as np
import pytest

from semistruct import (
    ContractViolation,
    DataPoint,
    Dataset,
    MulticlassSpace,
    NeighborGraph,
    build_knn_graph,
    manifold_term,
    neighbor_terms_for,
)
from semistruct import graph
from semistruct.graph import edges_csv, k_nearest, point_vector

from . import oracles


def _flat_dataset(xs, ys=None):
    ys = ys or [0] * len(xs)
    points = tuple(
        DataPoint(i, np.asarray(x, float), y) for i, (x, y) in enumerate(zip(xs, ys))
    )
    return Dataset(points, "multiclass")


def test_collinear_points_pick_expected_neighbors():
    ds = _flat_dataset([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    g = build_knn_graph(ds, k=1)
    assert set(zip(g.src.tolist(), g.dst.tolist())) == {(0, 1), (1, 0), (2, 1)}


def test_duplicate_points_weight_one():
    ds = _flat_dataset([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
    g = build_knn_graph(ds, k=1)
    by_pair = {(s, t): w for s, t, w in zip(g.src, g.dst, g.weight)}
    assert by_pair[(0, 1)] == 1.0
    assert by_pair[(1, 0)] == 1.0


def test_weight_at_twice_sigma_distance():
    # distance^2 between the pair is 4; sigma=2 puts it exactly at exp(-1)
    ds = _flat_dataset([[0.0, 0.0], [2.0, 0.0]])
    g = build_knn_graph(ds, k=1, sigma=2.0)
    assert g.weight[0] == pytest.approx(math.exp(-1.0), abs=1e-12)


def test_sigma_defaults_to_median_squared_edge_distance():
    ds = _flat_dataset([[0.0, 0.0], [1.0, 0.0], [3.0, 0.0]])
    g = build_knn_graph(ds, k=1)
    # selected edges 0->1, 1->0, 2->1 have squared distances 1, 1, 4
    assert g.sigma == 1.0


def test_sigma_zero_median_falls_back_to_one():
    ds = _flat_dataset([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
    g = build_knn_graph(ds, k=1)
    assert g.sigma == 1.0
    assert np.all(g.weight == 1.0)


def test_distance_ties_break_toward_smaller_id():
    ds = _flat_dataset([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
    g = build_knn_graph(ds, k=1)
    by_src = {int(s): int(t) for s, t in zip(g.src, g.dst)}
    assert by_src[0] == 1  # ids 1 and 2 are equally far from 0


def test_out_degree_invariant():
    rng = np.random.default_rng(61)
    ds = _flat_dataset(rng.standard_normal((12, 3)).tolist())
    for k in (1, 3, 11, 20):
        g = build_knn_graph(ds, k=k)
        expected = min(k, 11)
        counts = np.bincount(g.src, minlength=12)
        assert np.all(counts == expected)
        assert np.all(g.src != g.dst)


def test_weights_positive_bounded_and_recomputable():
    rng = np.random.default_rng(67)
    ds = _flat_dataset(rng.standard_normal((15, 4)).tolist())
    g = build_knn_graph(ds, k=4)
    assert np.all(g.weight > 0.0)
    assert np.all(g.weight <= 1.0)
    X = np.stack([p.x for p in ds.points])
    for s, t, w in zip(g.src, g.dst, g.weight):
        d2 = float(np.sum((X[s] - X[t]) ** 2))
        assert abs(w - math.exp(-d2 / (2.0 * g.sigma))) < 1e-12


def test_sequence_inputs_use_mean_emission_vector():
    x = np.array([[0.0, 2.0], [2.0, 0.0]])
    assert np.array_equal(point_vector(x), [1.0, 1.0])


def test_manifold_term_zero_when_outputs_agree():
    rng = np.random.default_rng(71)
    ds = _flat_dataset(rng.standard_normal((8, 2)).tolist())
    g = build_knn_graph(ds, k=2)
    space = MulticlassSpace(3, 2)
    assert manifold_term(g, [1] * 8, space) == 0.0


def test_manifold_term_two_node_example():
    space = MulticlassSpace(2, 2)
    g = NeighborGraph(
        n=2,
        k=1,
        sigma=1.0,
        src=np.array([0, 1]),
        dst=np.array([1, 0]),
        weight=np.array([0.5, 0.5]),
    )
    assert manifold_term(g, [0, 1], space) == 1.0


def test_manifold_term_empty_graph_is_zero():
    space = MulticlassSpace(2, 2)
    assert manifold_term(NeighborGraph.empty(2), [0, 1], space) == 0.0


def test_manifold_term_matches_double_loop():
    rng = np.random.default_rng(73)
    ds = _flat_dataset(rng.standard_normal((10, 3)).tolist())
    g = build_knn_graph(ds, k=3)
    space = MulticlassSpace(4, 3)
    z = [int(v) for v in rng.integers(4, size=10)]
    assert manifold_term(g, z, space) == pytest.approx(
        oracles.naive_manifold_term(g, z, space), abs=1e-12
    )


def test_manifold_term_wrong_length_rejected():
    space = MulticlassSpace(2, 2)
    with pytest.raises(ContractViolation):
        manifold_term(NeighborGraph.empty(3), [0, 1], space)


def test_neighbor_terms_cover_both_directions():
    g = NeighborGraph(
        n=3,
        k=1,
        sigma=1.0,
        src=np.array([0, 1, 2]),
        dst=np.array([1, 2, 0]),
        weight=np.array([0.3, 0.9, 0.7]),
    )
    assert neighbor_terms_for(g, 0) == [(0.3, 1), (0.7, 2)]
    # node 1: out-edge to 2, in-edge from 0
    assert neighbor_terms_for(g, 1) == [(0.9, 2), (0.3, 0)]


def test_neighbor_terms_mutual_pair_lists_both_weights():
    g = NeighborGraph(
        n=2,
        k=1,
        sigma=1.0,
        src=np.array([0, 1]),
        dst=np.array([1, 0]),
        weight=np.array([0.4, 0.6]),
    )
    assert neighbor_terms_for(g, 0) == [(0.4, 1), (0.6, 1)]


def test_neighbor_terms_isolated_direction():
    g = NeighborGraph(
        n=2,
        k=1,
        sigma=1.0,
        src=np.array([0]),
        dst=np.array([1]),
        weight=np.array([0.5]),
    )
    assert neighbor_terms_for(g, 0) == [(0.5, 1)]
    assert neighbor_terms_for(g, 1) == [(0.5, 0)]


def test_neighbor_terms_id_out_of_range():
    with pytest.raises(ContractViolation):
        neighbor_terms_for(NeighborGraph.empty(2), 2)


def test_build_rejects_degenerate_inputs():
    ds = _flat_dataset([[0.0, 0.0]])
    with pytest.raises(ContractViolation):
        build_knn_graph(ds, k=1)
    two = _flat_dataset([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(ContractViolation):
        build_knn_graph(two, k=0)
    with pytest.raises(ContractViolation):
        build_knn_graph(two, k=1, sigma=-1.0)


def test_edges_csv_layout():
    g = NeighborGraph(
        n=2,
        k=1,
        sigma=1.0,
        src=np.array([0]),
        dst=np.array([1]),
        weight=np.array([0.25]),
    )
    assert edges_csv(g) == "i,j,omega\n0,1,0.25\n"


# --- blocked search against the dense builder ----------------------------------


def _byte_equal(a, b):
    for name in ("src", "dst", "weight"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
    assert a.sigma == b.sigma and (a.n, a.k) == (b.n, b.k)


def _gaussian(rng, n=40):
    return rng.standard_normal((n, 5))


def _grid_duplicates(rng, n=40):
    # few distinct points, so most rows tie at the k-th distance
    return rng.integers(0, 3, (n, 3)).astype(float)


def _offset_grid(rng, n=40):
    # expanded-form distances lose most digits to cancellation here, and
    # grid steps of one length differ in their last bits
    return 1e6 + 0.1 * rng.integers(0, 4, (n, 4))


def _two_duplicates(rng):
    return np.array([[3.0, 1.0], [3.0, 1.0]])


def _seven_gaussian(rng):
    # an odd edge count for odd k, so the default sigma is one middle value
    return _gaussian(rng, n=7)


@pytest.mark.parametrize("make", [_gaussian, _grid_duplicates, _offset_grid, _two_duplicates,
                                  _seven_gaussian])
@pytest.mark.parametrize("k", ["1", "5", "n-1", "n+3"])
def test_blocked_builder_matches_dense_builder(make, k):
    rng = np.random.default_rng(83)
    X = make(rng)
    n = len(X)
    kk = {"1": 1, "5": 5, "n-1": n - 1, "n+3": n + 3}[k]
    ds = _flat_dataset(X.tolist())
    _byte_equal(build_knn_graph(ds, kk), oracles.brute_knn_graph(ds, kk))
    _byte_equal(build_knn_graph(ds, kk, sigma=0.5), oracles.brute_knn_graph(ds, kk, sigma=0.5))


def test_blocked_builder_matches_dense_builder_on_sequences():
    rng = np.random.default_rng(89)
    points = tuple(
        DataPoint(i, rng.integers(0, 3, (4, 2)).astype(float), (0, 1, 0, 1)) for i in range(30)
    )
    ds = Dataset(points, "chain")
    _byte_equal(build_knn_graph(ds, 6), oracles.brute_knn_graph(ds, 6))


@pytest.mark.parametrize("make", [_gaussian, _grid_duplicates, _offset_grid])
def test_blocked_builder_matches_dense_builder_across_blocks(monkeypatch, make):
    X = make(np.random.default_rng(97), n=150)
    # a few rows per block, and a last block that is cut short
    monkeypatch.setattr(graph, "_BLOCK_BYTES", 8 * len(X) * (3 * X.shape[1] + 8) * 7)
    ds = _flat_dataset(X.tolist())
    for k in (1, 5, 149):
        _byte_equal(build_knn_graph(ds, k), oracles.brute_knn_graph(ds, k))


def test_k_nearest_breaks_ties_at_the_kth_distance_toward_smaller_ids():
    R = np.array([[2.0], [-1.0], [1.0], [0.0], [-2.0], [1.0]])
    ids, d2 = k_nearest(np.array([[0.0]]), R, 3)
    assert ids.tolist() == [[3, 1, 2]]
    assert d2.tolist() == [[0.0, 1.0, 1.0]]
    ids, _ = k_nearest(R, R, 2, skip_self=True)
    assert ids[3].tolist() == [1, 2]
    assert np.all(ids != np.arange(len(R))[:, None])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 1e200])
def test_build_rejects_non_finite_point_vectors(bad):
    ds = _flat_dataset([[0.0, 0.0], [1.0, bad], [2.0, 2.0]])
    with pytest.raises(ContractViolation, match="point 1"):
        build_knn_graph(ds, k=1)


def test_non_finite_point_errors_name_the_point_id():
    points = (DataPoint(0, np.array([0.0, 0.0]), 0), DataPoint(1, np.array([2.0, 2.0]), 0),
              DataPoint(2, np.array([1.0, math.nan]), 0))
    with pytest.raises(ContractViolation) as e:
        build_knn_graph(Dataset(points, "multiclass"), k=1)
    assert str(e.value) == "point 2: vector is not finite or too large for squared distances"
    X = np.array([[0.0], [1e200], [1.0]])
    with pytest.raises(ContractViolation, match="^point 1: "):
        graph.point_matrix(X)
    with pytest.raises(ContractViolation, match="^point 0: "):
        graph.point_matrix([np.full((2, 1), np.inf), np.zeros((3, 1))])


def test_build_rejects_ragged_point_vectors():
    ds = _flat_dataset([[0.0, 0.0], [1.0, 1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ContractViolation, match="one length"):
        build_knn_graph(ds, k=1)


def test_build_memory_stays_blocked():
    # the dense builder holds the 2000 x 2000 x 8 difference tensor (256 MB)
    X = np.random.default_rng(101).standard_normal((2000, 8))
    ds = _flat_dataset(X.tolist())
    tracemalloc.start()
    try:
        build_knn_graph(ds, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
