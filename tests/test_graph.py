import math
import tracemalloc
from typing import NamedTuple

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
)
from semistruct import data_io, graph
from semistruct.data_io import make_folds, mask_labels, synth_chains
from semistruct.graph import SubsetGraphs, edges_csv, k_nearest, point_vector

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
    assert oracles.neighbor_terms_for(g, 0) == [(0.3, 1), (0.7, 2)]
    # node 1: out-edge to 2, in-edge from 0
    assert oracles.neighbor_terms_for(g, 1) == [(0.9, 2), (0.3, 0)]


def test_neighbor_terms_mutual_pair_lists_both_weights():
    g = NeighborGraph(
        n=2,
        k=1,
        sigma=1.0,
        src=np.array([0, 1]),
        dst=np.array([1, 0]),
        weight=np.array([0.4, 0.6]),
    )
    assert oracles.neighbor_terms_for(g, 0) == [(0.4, 1), (0.6, 1)]


def test_neighbor_terms_isolated_direction():
    g = NeighborGraph(
        n=2,
        k=1,
        sigma=1.0,
        src=np.array([0]),
        dst=np.array([1]),
        weight=np.array([0.5]),
    )
    assert oracles.neighbor_terms_for(g, 0) == [(0.5, 1)]
    assert oracles.neighbor_terms_for(g, 1) == [(0.5, 0)]


@pytest.mark.parametrize("n", [300, 1 << 16, (1 << 16) + 1])
def test_neighbor_terms_list_out_edges_then_in_edges_in_edge_order(n):
    # ids up to n - 1, so owner keys fill 16 bits at n = 2^16 and pass them at 2^16 + 1
    rng = np.random.default_rng(127)
    ends = np.concatenate([[0, 1, n - 2, n - 1], rng.integers(0, n, 96)])
    src, dst = rng.choice(ends, 2000), rng.choice(ends, 2000)
    g = NeighborGraph(n=n, k=1, sigma=1.0, src=src, dst=dst, weight=rng.random(2000))
    nodes = np.unique(np.concatenate([ends[:4], rng.choice(ends, 60)]))
    want = []
    for rank, i in enumerate(nodes):
        out, inc = np.flatnonzero(src == i), np.flatnonzero(dst == i)
        want += [(rank, dst[e], g.weight[e]) for e in out]
        want += [(rank, src[e], g.weight[e]) for e in inc]
    owner, neighbor, weight = graph.neighbor_terms(g, nodes)
    assert list(zip(owner.tolist(), neighbor.tolist(), weight.tolist())) == [
        (r, int(j), float(w)) for r, j, w in want]


def test_neighbor_terms_id_out_of_range():
    with pytest.raises(ContractViolation):
        oracles.neighbor_terms_for(NeighborGraph.empty(2), 2)


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


def _grid_of_scale(scale):
    def make(rng, n=40):
        # equal squared distances from different offsets (1 + 4 = 4 + 1) that
        # float32 rounds apart, at the ends of the float64 range
        return scale * rng.integers(0, 4, (n, 3))
    make.__name__ = f"_grid_times_{scale:g}"
    return make


def _identical(rng, n=40):
    # every centered coordinate is 0, so the screen's scale is 2^0
    return np.full((n, 4), 3.0)


@pytest.mark.parametrize("make", [_gaussian, _grid_duplicates, _offset_grid, _two_duplicates,
                                  _seven_gaussian, _grid_of_scale(1e-160),
                                  _grid_of_scale(1e150), _identical])
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


class _Block(NamedTuple):
    rows: int
    most: int  # the most candidates of one row
    width: int  # references per chunk
    empty_chunk: bool  # some row has a chunk of +inf only


def _count_blocks(monkeypatch):
    """Spy on ``graph._candidates``: one :class:`_Block` per block. Checks
    the per-pair rule: a chunk is kept exactly when it holds a candidate, a
    lowered value at most its row's threshold, and that threshold is at
    least the k-th smallest raised chunk minimum plus the row's margin in
    exact arithmetic (rounded up to float32, never to nearest)."""
    seen = []
    candidates = graph._candidates

    def spy(a, Rm2, low, kb2, margin, k, *rest):
        approx, kept, thr = candidates(a, Rm2, low, kb2, margin, k, *rest)
        below = approx <= thr[:, None, None]
        assert np.array_equal(kept, below.any(axis=1))
        raised = np.sort(approx.min(axis=1) + kb2, axis=1)[:, k - 1]
        assert thr.dtype == np.float32 and np.all(thr >= raised.astype(float) + margin)
        seen.append(_Block(len(approx), int(below.sum(axis=(1, 2)).max()), approx.shape[1],
                           bool(np.isinf(approx).all(axis=1).any())))
        return approx, kept, thr

    monkeypatch.setattr(graph, "_candidates", spy)
    return seen


def _budget(m, k, rows):
    """The ``_BLOCK_BYTES`` that gives blocks of ``rows`` query rows to a
    search of ``m`` references, by ``k_nearest``'s rule of ``4 nch`` bytes a
    row (``nch`` chunks of ``c = clip(m // (16 k), 1, 8)`` references)."""
    c = min(max(m // (16 * k), 1), 8)
    return 4 * -(-m // c) * rows


@pytest.mark.parametrize("make", [_gaussian, _grid_duplicates, _offset_grid])
def test_blocked_builder_matches_dense_builder_across_blocks(monkeypatch, make):
    X = make(np.random.default_rng(97), n=150)
    blocks = _count_blocks(monkeypatch)
    ds = _flat_dataset(X.tolist())
    for k in (1, 5, 149):
        # a few rows per block, and a last block that is cut short
        monkeypatch.setattr(graph, "_BLOCK_BYTES", _budget(len(X), k, 7))
        blocks.clear()
        _byte_equal(build_knn_graph(ds, k), oracles.brute_knn_graph(ds, k))
        rows = [b.rows for b in blocks]
        assert len(rows) >= 10 and rows[-1] < rows[0]


def _far_queries(rng):
    # references around 0, queries a thousand units away on one side
    R = rng.standard_normal((60, 3))
    return 1e3 + rng.standard_normal((25, 3)), R


def _grid_ties(rng):
    # integer grids with repeated points: equal distances at the k-th place
    R = rng.integers(0, 3, (80, 2)).astype(float)
    return rng.integers(-1, 4, (30, 2)).astype(float), R


def _square_centers(rng):
    # every query sits at the center of four references of one square
    R = np.array([[x, y] for x in range(5) for y in range(5)], dtype=float)
    return rng.integers(0, 4, (20, 2)) + 0.5, R


def _offset_both(rng):
    # both sets far from the origin and close to each other
    R = 1e6 + 0.1 * rng.integers(0, 4, (50, 4))
    return 1e6 + 0.1 * rng.integers(0, 4, (20, 4)) + 0.05, R


def _very_far_queries(rng):
    # queries 1e8 away set the scale: the references' float32 coordinates
    # are about 2^-28, and the row margin from |a|^2 spans all their values
    R = rng.standard_normal((60, 3))
    return 1e8 + rng.standard_normal((25, 3)), R


@pytest.mark.parametrize("make", [_far_queries, _grid_ties, _square_centers, _offset_both,
                                  _very_far_queries])
@pytest.mark.parametrize("k", [1, 2, 3, 7])
@pytest.mark.parametrize("blocks", ["one", "rows", "few"])
def test_k_nearest_of_other_queries_matches_brute_force(monkeypatch, make, k, blocks):
    Q, R = make(np.random.default_rng(109))
    # "rows": one query row per block; "few": a handful of rows per block
    budget = {"one": graph._BLOCK_BYTES, "rows": 1,
              "few": _budget(len(R), k, 3)}[blocks]
    monkeypatch.setattr(graph, "_BLOCK_BYTES", budget)
    seen = _count_blocks(monkeypatch)
    ids, d2 = k_nearest(Q, R, k)
    want_ids, want_d2 = oracles.brute_k_nearest(Q, R, k)
    assert ids.tolist() == want_ids.tolist()
    assert d2.tobytes() == want_d2.tobytes()
    assert len(seen) == {"one": 1, "rows": len(Q)}.get(blocks, len(seen))
    assert (len(seen) > 1) == (blocks != "one")


def test_k_nearest_keeps_more_candidates_than_k_on_ties(monkeypatch):
    Q, R = _square_centers(np.random.default_rng(109))
    blocks = _count_blocks(monkeypatch)
    ids, _ = k_nearest(Q, R, 2)
    assert max(b.most for b in blocks) >= 4  # all four corners of the square tie
    assert ids.tolist() == oracles.brute_k_nearest(Q, R, 2)[0].tolist()


def test_k_nearest_breaks_ties_at_the_kth_distance_toward_smaller_ids():
    R = np.array([[2.0], [-1.0], [1.0], [0.0], [-2.0], [1.0]])
    ids, d2 = k_nearest(np.array([[0.0]]), R, 3)
    assert ids.tolist() == [[3, 1, 2]]
    assert d2.tolist() == [[0.0, 1.0, 1.0]]
    ids, _ = k_nearest(R, R, 2, skip_self=True)
    assert ids[3].tolist() == [1, 2]
    assert np.all(ids != np.arange(len(R))[:, None])


@pytest.mark.parametrize("m, k", [(33, 1), (65, 2), (97, 3)])
def test_a_chunk_of_only_the_query_and_padding_is_skipped(monkeypatch, m, k):
    # two references a chunk and an odd count: the one padding column shares
    # the last chunk with point m - 1, which its own row skips
    X = np.random.default_rng(131).standard_normal((m, 3))
    blocks = _count_blocks(monkeypatch)
    ds = _flat_dataset(X.tolist())
    _byte_equal(build_knn_graph(ds, k), oracles.brute_knn_graph(ds, k))
    assert [(b.width, b.empty_chunk) for b in blocks] == [(2, True)]


def _without_self(ids, d2, lo, k):
    """The first ``k`` of each row of a search of ``k + 1`` other than the
    row's own id ``lo + row``."""
    other = ids != lo + np.arange(len(ids))[:, None]
    keep = other & (np.cumsum(other, axis=1) <= k)
    return ids[keep].reshape(-1, k), d2[keep].reshape(-1, k)


def test_k_nearest_breaks_grid_ties_spread_over_chunks(monkeypatch):
    # about two points per cell of a 30 x 30 grid: most rows tie at the 10th
    # distance, and the tied points lie in different chunks
    X = np.random.default_rng(137).integers(0, 30, (2000, 2)).astype(float)
    blocks = _count_blocks(monkeypatch)
    ids, d2 = k_nearest(X, X, 10, skip_self=True)
    assert {b.width for b in blocks} == {8}
    spread = 0
    for lo in range(0, len(X), 250):
        want, want_d2 = _without_self(*oracles.brute_k_nearest(X[lo:lo + 250], X, 12), lo, 11)
        assert ids[lo:lo + 250].tolist() == want[:, :10].tolist()
        assert d2[lo:lo + 250].tobytes() == want_d2[:, :10].tobytes()
        for row, row_d2 in zip(want, want_d2):
            tied = row[row_d2 == row_d2[9]]
            spread += row_d2[10] == row_d2[9] and len(np.unique(tied // 8)) > 1
    assert spread > 1000


@pytest.mark.parametrize("m", [75, 203])
def test_k_nearest_of_other_queries_with_k_1_reads_chunks(monkeypatch, m):
    rng = np.random.default_rng(139)
    Q, R = rng.standard_normal((300, 4)), rng.standard_normal((m, 4))
    blocks = _count_blocks(monkeypatch)
    ids, d2 = k_nearest(Q, R, 1)
    want_ids, want_d2 = oracles.brute_k_nearest(Q, R, 1)
    assert ids.tolist() == want_ids.tolist()
    assert d2.tobytes() == want_d2.tobytes()
    assert {b.width for b in blocks} == {min(m // 16, 8)}
    assert [a.shape for a in k_nearest(Q[:0], R, 1)] == [(0, 1), (0, 1)]


@pytest.mark.parametrize("k", [1, 3, 10])
@pytest.mark.parametrize("m_less_32k", [1, 0])
def test_k_nearest_on_both_sides_of_the_first_chunk_width(monkeypatch, k, m_less_32k):
    # one reference a chunk below m = 32k, two from there on
    rng = np.random.default_rng(149)
    X = rng.standard_normal((32 * k - m_less_32k, 3))
    blocks = _count_blocks(monkeypatch)
    ds = _flat_dataset(X.tolist())
    _byte_equal(build_knn_graph(ds, k), oracles.brute_knn_graph(ds, k))
    Q = rng.standard_normal((40, 3))
    ids, d2 = k_nearest(Q, X, k)
    want_ids, want_d2 = oracles.brute_k_nearest(Q, X, k)
    assert ids.tolist() == want_ids.tolist()
    assert d2.tobytes() == want_d2.tobytes()
    assert {b.width for b in blocks} == {2 - m_less_32k}


def _candidates_per_row(monkeypatch):
    """Spy on ``graph._best``: the candidate count of every row it ranks."""
    counts = []
    best = graph._best

    def spy(q, R, row, col, k):
        counts.extend(np.bincount(row, minlength=len(q)).tolist())
        return best(q, R, row, col, k)

    monkeypatch.setattr(graph, "_best", spy)
    return counts


def test_k_nearest_margins_follow_each_pair_s_norms_past_an_outlier(monkeypatch):
    # one point 1e4 away sets the scale; a margin from the farthest
    # reference's norm would make every reference a candidate of every row
    X = np.asarray(data_io.synth_blobs(8, 250, 8, 0.6, seed=151).inputs)
    X[777] += 1e4
    counts = _candidates_per_row(monkeypatch)
    ids, d2 = k_nearest(X, X, 10, skip_self=True)
    for lo in range(0, len(X), 250):
        want, want_d2 = _without_self(*oracles.brute_k_nearest(X[lo:lo + 250], X, 11), lo, 10)
        assert ids[lo:lo + 250].tolist() == want.tolist()
        assert d2[lo:lo + 250].tobytes() == want_d2.tobytes()
    assert len(counts) == len(X) and sum(counts) < 2 * 10 * len(X)


@pytest.mark.parametrize("seed", range(8))
def test_k_nearest_separates_squared_distances_1_and_1_plus_1e_9_at_the_kth_place(seed):
    # float32 values cannot tell 1 from 1 + 1e-9; the k-th nearest is the
    # reference at exactly 1 with the smallest float64 distance, then id
    rng = np.random.default_rng(seed)
    q = rng.standard_normal(8)
    radii = np.concatenate([[0.25, 0.25], np.tile([1 + 1e-9, 1.0], 8), 4 + 5 * rng.random(30)])
    u = rng.standard_normal((len(radii), 8))
    R = q + u / np.linalg.norm(u, axis=1, keepdims=True) * np.sqrt(radii)[:, None]
    ids, d2 = k_nearest(q[None], R, 3)
    want_ids, want_d2 = oracles.brute_k_nearest(q[None], R, 3)
    assert ids.tolist() == want_ids.tolist()
    assert d2.tobytes() == want_d2.tobytes()
    assert abs(d2[0, 2] - 1.0) < 1e-12


def test_k_nearest_stays_exact_when_float32_squares_underflow(monkeypatch):
    # one query 1e30 away from a unit cluster scales the cluster to about
    # 2^-100, whose squares underflow float32: every value of a cluster query
    # is 0 and every reference its candidate; the far query ties all of them
    rng = np.random.default_rng(157)
    R = rng.standard_normal((40, 4))
    Q = np.concatenate([rng.standard_normal((30, 4)), np.full((1, 4), 1e30)])
    counts = _candidates_per_row(monkeypatch)
    for k in (1, 3):
        counts.clear()
        ids, d2 = k_nearest(Q, R, k)
        want_ids, want_d2 = oracles.brute_k_nearest(Q, R, k)
        assert ids.tolist() == want_ids.tolist()
        assert d2.tobytes() == want_d2.tobytes()
        assert counts == [len(R)] * len(Q)
    ds = _flat_dataset(np.concatenate([R, Q[-1:]]).tolist())
    _byte_equal(build_knn_graph(ds, 3), oracles.brute_knn_graph(ds, 3))


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


def _memory_bound(n, k, d):
    """``k_nearest``'s documented bound for a graph of ``n`` points: ``2 (c +
    2) _BLOCK_BYTES`` for a block, plus the ``n x k`` ids and distances and
    the ``n x d`` copies (the centered float64 points, their float32 query
    and reference casts, and the point matrix)."""
    c = min(max(n // (16 * k), 1), 8)
    return 2 * (c + 2) * graph._BLOCK_BYTES + 16 * n * k + 24 * n * d


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
    assert peak < _memory_bound(2000, 10, 8)


def test_build_memory_stays_blocked_when_every_reference_is_a_candidate():
    # 2000 copies of one point: every row ties all 1999 others at distance 0
    ds = _flat_dataset(np.ones((2000, 8)).tolist())
    tracemalloc.start()
    try:
        g = build_knn_graph(ds, k=10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _memory_bound(2000, 10, 8)
    want = [[j for j in range(11) if j != i][:10] for i in range(2000)]
    assert g.dst.reshape(2000, 10).tolist() == want
    assert g.sigma == 1.0 and np.all(g.weight == 1.0)


@pytest.mark.parametrize("d", [1, 2, 6])
def test_a_stack_of_sequences_averages_to_each_point_s_own_mean(d):
    rng = np.random.default_rng(113)
    for length in range(1, 301):
        xs = rng.standard_normal((3, length, d)) * 10.0 ** float(rng.integers(-3, 4))
        want = np.stack([point_vector(x) for x in xs])
        got = graph.point_matrix(xs)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), length


# --- fold graphs read off one search of the whole set --------------------------


def _fold_graphs_match(ds, k, sigma=None, seed=5):
    """Check every fold's graph from one :class:`SubsetGraphs` against
    ``build_knn_graph`` of the fold's training split."""
    plan = make_folds(ds, seed)
    fold_of = np.asarray(plan.fold_of)
    graphs = SubsetGraphs(ds.inputs, k)
    for run in range(10):
        split = mask_labels(ds, plan, run)
        got = graphs.graph(np.flatnonzero(fold_of != run), split.train, sigma)
        want = build_knn_graph(split.train, k, sigma)
        _byte_equal(got, want)
        assert got.points.dtype == want.points.dtype
        assert got.points.tobytes() == want.points.tobytes()


def _folded(make):
    """The points of ``make`` as a set that cross validation can split."""
    def dataset(rng):
        X = make(rng, n=60)
        return Dataset.from_arrays(X, [0] * len(X), "multiclass")
    return dataset


def _chain_stack(rng):
    xs = rng.integers(0, 3, (60, 4, 2)).astype(float)
    return Dataset.from_arrays(xs, [(0,) * 4] * 60, "chain")


def _mixed_length_chain_list(rng):
    points = synth_chains(3, (2, 7), 60, 2, seed=int(rng.integers(100))).points
    ds = Dataset.from_arrays([p.x for p in points], [p.y for p in points], "chain")
    assert type(ds.inputs) is list and len({len(x) for x in ds.inputs}) > 1
    return ds


@pytest.mark.parametrize("make", [_folded(_gaussian), _folded(_grid_duplicates),
                                  _folded(_offset_grid), _chain_stack, _mixed_length_chain_list],
                         ids=["gaussian", "grid-ties", "offset-grid", "chain-stack",
                              "mixed-length-chains"])
@pytest.mark.parametrize("k", ["1", "5", "n-1"])
def test_fold_graphs_equal_the_graph_of_each_training_split(make, k):
    ds = make(np.random.default_rng(127))
    kk = {"1": 1, "5": 5, "n-1": len(ds) - 1}[k]
    _fold_graphs_match(ds, kk)
    _fold_graphs_match(ds, kk, sigma=0.5)


def _searches(monkeypatch):
    """Spy on ``graph.k_nearest``: per call, its query count and ``skip_self``."""
    seen = []
    search = graph.k_nearest

    def spy(Q, R, k, skip_self=False):
        seen.append((len(Q), skip_self))
        return search(Q, R, k, skip_self)

    monkeypatch.setattr(graph, "k_nearest", spy)
    return seen


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fold_graphs_search_again_where_the_whole_set_falls_short(monkeypatch, seed):
    # the first test fold's six points share one input and one other point
    # lies next to it: with k = 5 its ten nearest hold the six, leaving four
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((60, 2))
    ds = Dataset.from_arrays(X, [0] * 60, "multiclass")
    fold_of = np.asarray(make_folds(ds, seed).fold_of)
    first = np.flatnonzero(fold_of == 0)
    X[first] = X[first[0]]
    X[np.flatnonzero(fold_of == 1)[0]] = X[first[0]] + 1e-3
    seen = _searches(monkeypatch)
    _fold_graphs_match(ds, 5, seed=seed)
    within = [rows for rows, skip_self in seen if not skip_self]
    assert seen[0] == (60, True) and within and all(rows >= 1 for rows in within)
    assert sum(skip_self for _, skip_self in seen) == 1 + 10  # the one search, then each build


def test_fold_graphs_raise_what_each_fold_s_own_build_raises():
    X = np.random.default_rng(131).standard_normal((30, 2))
    ds = Dataset.from_arrays(X, [0] * 30, "multiclass")
    plan = make_folds(ds, 0)
    fold_of = np.asarray(plan.fold_of)
    far = int(np.flatnonzero(fold_of == 3)[0])
    X[far] = 1e200  # squared distances past the float range
    graphs = SubsetGraphs(ds.inputs, 2)
    for run in range(10):
        split = mask_labels(ds, plan, run)
        train = np.flatnonzero(fold_of != run)
        if run == 3:  # the point is in the test fold: both build the same graph
            _byte_equal(graphs.graph(train, split.train), build_knn_graph(split.train, 2))
            continue
        with pytest.raises(ContractViolation) as want:
            build_knn_graph(split.train, 2)
        with pytest.raises(ContractViolation) as got:
            graphs.graph(train, split.train)
        assert str(got.value) == str(want.value) == (
            f"point {int(np.searchsorted(train, far))}: "
            f"vector is not finite or too large for squared distances")
    for k, sigma, message in [(0, None, "k must be >= 1"), (2, -1.0, "sigma must be positive"),
                              (2, 1e-300, "sigma 1e-300 is too small")]:
        split = mask_labels(ds, plan, 3)
        with pytest.raises(ContractViolation, match=message):
            SubsetGraphs(ds.inputs, k).graph(np.flatnonzero(fold_of != 3), split.train, sigma)
