"""Directed k-nearest-neighbor graph over inputs with Gaussian edge weights.

The graph carries the neighborhood structure the solver uses to smooth slack
outputs: an edge i -> j exists when j is one of i's k closest inputs by
Euclidean distance, and its weight is ``exp(-||x_i - x_j||^2 / (2 sigma))``.
Edges are kept directed exactly as built; both directions contribute to the
per-point smoothing terms.

Neighbors come from :func:`k_nearest`, which scans the points in row blocks
of at most ``_BLOCK_BYTES`` of working memory each (at least one row), so
the memory a search takes grows with block x n, never with n^2 * d. Ties in
distance break toward the smaller id, also at the k-th place. Per block, one
matrix product and one add rank the references by ``|b|^2 - 2 a.b`` of
centered points, the expanded squared distance less the query's own
``|a|^2``, and every reference within a proven rounding margin of a row's
k-th smallest stays a candidate (see :func:`_candidates`). The squared
distances it returns, and so every edge weight and the default ``sigma``,
are computed for the candidates in the direct form
``((a - b) ** 2).sum(-1)``.

Cross validation builds one graph per training split. :class:`SubsetGraphs`
derives them all, bit for bit as :func:`build_knn_graph` would build each,
from one search of the whole set for every point's ``2k`` nearest: a split's
lists are the whole set's with the other points struck out, and a row left
with fewer than ``k`` is searched again within the split.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


# working memory per query block of k_nearest, as bytes
_BLOCK_BYTES = 8 << 20


def point_vector(x):
    """Flat vector used for neighbor distances.

    Sequence inputs (2-D arrays) are represented by the mean of their
    per-position feature vectors so distances stay defined across sequences
    of different lengths.
    """
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 1 else x.mean(axis=0)


def point_matrix(xs):
    """Point vectors of the inputs ``xs`` stacked into one ``n x d`` array;
    an ``n x d`` float matrix of flat inputs is its own, and an ``(n, T, d)``
    float stack of sequences is averaged over its positions at once.

    Raises ContractViolation unless every vector is flat, of one length and
    finite, with squared distances far from overflow; errors name the point
    by its position (its id in a dataset).
    """
    if isinstance(xs, np.ndarray) and xs.ndim in (2, 3) and xs.dtype == float:
        X = xs if xs.ndim == 2 else xs.mean(axis=1)  # a stack: each point's own mean
    else:
        vectors = [point_vector(x) for x in xs]
        shapes = {v.shape for v in vectors}
        if len(shapes) > 1 or any(len(s) != 1 for s in shapes):
            raise ContractViolation(
                f"point vectors must be flat and of one length, got shapes {sorted(shapes)}"
            )
        X = np.stack(vectors)
    with np.errstate(over="ignore", invalid="ignore"):
        # every value k_nearest computes stays below 16 max ||x||^2
        bad = np.flatnonzero(~np.isfinite(16.0 * (X * X).sum(axis=1)))
    if len(bad):
        raise ContractViolation(
            f"point {bad[0]}: vector is not finite or too large for squared distances"
        )
    return X


def k_nearest(Q, R, k, skip_self=False):
    """The ``k`` nearest rows of ``R`` to every row of ``Q``.

    Returns ``(ids, d2)``, two ``len(Q) x k`` arrays; row ``i`` lists
    reference ids in increasing ``(d2, id)`` order, so ties break toward the
    smaller id, also at the k-th place. ``d2`` holds the squared distances
    in the direct form ``((q - r) ** 2).sum(-1)``. With ``skip_self``, ``Q``
    and ``R`` are the same points and row ``i`` never lists ``i``. Needs
    finite points (see :func:`point_matrix`) and ``k <= len(R) - skip_self``.

    Each block of query rows takes its candidates from :func:`_candidates`
    and keeps the ``k`` best of them by direct distance, then id.
    """
    n, d = Q.shape
    m = len(R)
    center = R.mean(axis=0)
    Rc = R - center
    r2 = (Rc * Rc).sum(axis=1)
    Rm2 = -2.0 * Rc  # exact: a power-of-two scaling
    # per query row: the two float and one bool (rows x m) workspaces, then
    # per candidate (up to m) its two ids, distance and sort position, and
    # three d-vectors in the direct form
    rows_per_block = max(1, _BLOCK_BYTES // (m * (2 * 8 + 1 + 8 * (4 + 3 * d))))
    rows = min(rows_per_block, n)
    work = np.empty((rows, m)), np.empty((rows, m)), np.empty((rows, m), dtype=bool)
    ids = np.empty((n, k), dtype=int)
    d2 = np.empty((n, k))
    for lo in range(0, n, rows_per_block):
        q = Q[lo:lo + rows_per_block]
        b = len(q)
        self_ids = lo + np.arange(b) if skip_self else None
        mask = _candidates(q - center, Rm2, r2, k, self_ids, [a[:b] for a in work])
        row, col = np.divmod(np.flatnonzero(mask), m)
        dist = ((q[row] - R[col]) ** 2).sum(-1)
        order = np.lexsort((col, dist, row))
        counts = np.bincount(row, minlength=b)
        keep = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        ids[lo:lo + b] = col[keep]
        d2[lo:lo + b] = dist[keep]
    return ids, d2


def _candidates(qc, Rm2, r2, k, self_ids, work):
    """Mask of the references that may be among each query's ``k`` nearest.

    ``qc`` holds the queries and ``Rc`` the references minus one center;
    ``Rm2`` is ``-2 Rc`` and ``r2`` the squared norms of ``Rc``. For a
    centered query ``a`` and reference ``b`` the value is ``|b|^2 - 2 a.b``,
    computed as ``qc @ Rm2.T + r2``: the expanded form ``|a|^2 + |b|^2 - 2
    a.b`` less ``|a|^2``, which is the same along a row, so leaving it out
    shifts every value of the row and its k-th smallest alike. With ``|a|^2``
    added back exactly, the value differs from the pair's direct squared
    distance by at most ``(4d + 10) u (|a|^2 + |b|^2)`` to first order in
    the unit roundoff ``u = eps / 2``: ``4u`` from centering, ``2(d + 2)u``
    from the direct form, ``d u`` each from the product and from ``r2``, and
    ``2u`` from the add. ``margin`` is ``4(d + 4) eps = (8d + 32) u`` times
    that norm sum for the row's query and the farthest reference, plus a
    term for underflow, so it exceeds the bound. A reference is kept unless
    its value exceeds the row's k-th smallest by more than two margins, so
    every reference whose direct distance is at most the k-th smallest is
    kept, ties included. ``self_ids[i]``, when given, is never kept for row
    ``i``. ``work`` holds two float and one bool ``len(qc) x len(Rm2)``
    arrays to compute in; the returned mask is the last of them.
    """
    approx, kth_part, mask = work
    np.matmul(qc, Rm2.T, out=approx)
    approx += r2
    if self_ids is not None:
        approx[np.arange(len(qc)), self_ids] = np.inf
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    q2 = (qc * qc).sum(axis=1)
    margin = 4 * (qc.shape[1] + 4) * eps * (q2 + r2.max() + tiny)
    np.copyto(kth_part, approx)
    kth_part.partition(k - 1, axis=1)
    return np.less_equal(approx, (kth_part[:, k - 1] + 2.0 * margin)[:, None], out=mask)


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Directed kNN edge list with Gaussian weights.

    ``src[e] -> dst[e]`` with weight ``weight[e]`` in (0, 1]. Every node has
    exactly ``min(k, n - 1)`` outgoing edges and no self-edges. ``points``
    is the ``n x d`` point matrix the neighbors were found in (see
    :func:`point_matrix`), or None for a graph given by its edges. Immutable
    and shareable once built.
    """

    n: int
    k: int
    sigma: float
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    points: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def empty(cls, n):
        """Graph with no edges; the manifold term over it is zero."""
        return cls(
            n=n,
            k=0,
            sigma=1.0,
            src=np.empty(0, dtype=int),
            dst=np.empty(0, dtype=int),
            weight=np.empty(0, dtype=float),
        )

    def __len__(self):
        return len(self.src)


def build_knn_graph(ds, k, sigma=None) -> NeighborGraph:
    """Connect each point to its k nearest neighbors.

    Distance ties break toward the smaller id. A given ``sigma`` must be
    positive and finite, and large enough that some edge weight is not 0.
    When ``sigma`` is omitted it
    is set to the median squared distance over the selected edges, falling
    back to 1 when that median is zero (duplicate-heavy data).
    """
    kk = _edges_per_node(len(ds), k, sigma)
    X = point_matrix(ds.inputs)
    return _weighted(X, k, sigma, *k_nearest(X, X, kk, skip_self=True))


def _edges_per_node(n, k, sigma):
    """``min(k, n - 1)``; ContractViolation for the arguments no graph is built from."""
    if n < 2:
        raise ContractViolation(f"need at least 2 points to build a graph, got {n}")
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    if sigma is not None and not 0 < sigma < math.inf:  # also false for nan
        raise ContractViolation(f"sigma must be positive and finite, got {sigma}")
    return min(k, n - 1)


def _weighted(X, k, sigma, dst, edge_d2) -> NeighborGraph:
    """The graph over the points ``X`` whose row ``i`` of ``dst`` lists i's
    neighbors, ``edge_d2`` their squared distances; ``sigma`` as in
    :func:`build_knn_graph`."""
    n, kk = dst.shape
    src = np.repeat(np.arange(n), kk)
    dst, edge_d2 = dst.ravel(), edge_d2.ravel()

    if sigma is None:
        # np.median's value, the mean of the middle one or two, without the
        # numpy.ma import that np.median makes
        mid = (len(edge_d2) - 1) // 2, len(edge_d2) // 2
        med = float(np.mean(np.partition(edge_d2, mid)[mid[0]:mid[1] + 1]))
        sigma = med if med > 0 else 1.0
    with np.errstate(over="ignore"):  # d2 / (2 sigma) past the float range: weight 0
        weight = np.exp(-edge_d2 / (2.0 * float(sigma)))
    if not weight.any():  # never for the median: half the edges have weight >= exp(-1/2)
        raise ContractViolation(
            f"sigma {sigma} is too small: every edge weight exp(-d2 / (2 sigma)) is 0 "
            f"(smallest squared edge distance {edge_d2.min():g})")
    return NeighborGraph(n=n, k=k, sigma=float(sigma), src=src, dst=dst, weight=weight,
                         points=X)


class SubsetGraphs:
    """:func:`build_knn_graph` of subsets of the point set ``inputs``, from one search.

    ``graph(ids, sub, sigma)`` returns ``build_knn_graph(sub, k, sigma)``,
    equal in every array, for the dataset ``sub`` of the points ``ids``
    (increasing) of the set, and raises what that call raises. The first call
    that gets past the argument checks runs one :func:`k_nearest` of the
    whole set for every point's ``min(2k, n - 1)`` nearest, and only those
    ``(n, 2k)`` lists are kept. Each call then keeps, per point of ``ids``,
    the first ``min(k, len(ids) - 1)`` neighbors that lie in ``ids``,
    renumbered by their place in it; since that place grows with the id, the
    ``(d2, id)`` order holds. A point left with fewer is searched again
    within the subset. A set holding a point unfit for distances (see
    :func:`point_matrix`) is never searched whole: each subset then builds
    its own graph.
    """

    def __init__(self, inputs, k):
        self.inputs, self.k = inputs, k
        self._search = None  # the whole set's (X, ids, d2), once found

    def graph(self, ids, sub, sigma=None) -> NeighborGraph:
        kk = _edges_per_node(len(sub), self.k, sigma)
        if self._search is None:
            try:
                X = point_matrix(self.inputs)
            except ContractViolation:  # raised, or not, as for the subset alone
                return build_knn_graph(sub, self.k, sigma)
            self._search = (X, *k_nearest(X, X, min(2 * self.k, len(X) - 1), skip_self=True))
        X, near, near_d2 = self._search
        place = np.full(len(X), -1)
        place[ids] = np.arange(len(ids))
        cand = place[near[ids]]
        keep = _first(cand >= 0, kk)
        short = keep.sum(axis=1) < kk
        keep[short] = False
        dst, d2 = np.empty((len(ids), kk), dtype=int), np.empty((len(ids), kk))
        dst[~short], d2[~short] = cand[keep].reshape(-1, kk), near_d2[ids][keep].reshape(-1, kk)
        X = X[ids]
        if short.any():
            rows = np.flatnonzero(short)
            again, again_d2 = k_nearest(X[rows], X, kk + 1)
            own = _first(again != rows[:, None], kk)  # the row itself struck out
            dst[rows], d2[rows] = again[own].reshape(-1, kk), again_d2[own].reshape(-1, kk)
        return _weighted(X, self.k, sigma, dst, d2)


def _first(mask, count):
    """``mask`` with only each row's first ``count`` true entries left true."""
    return mask & (np.cumsum(mask, axis=1) <= count)


def manifold_term(g: NeighborGraph, z, space) -> float:
    """Total edge-weighted structured loss between slack outputs.

    Sums ``weight * delta(z[src], z[dst])`` over every directed edge; ``z``
    holds codes or a list of outputs.
    """
    if len(z) != g.n:
        raise ContractViolation(f"got {len(z)} outputs for a graph over {g.n} nodes")
    z = space.as_codes(z)
    return space.delta_sum(z[g.src], z[g.dst], g.weight)


def neighbor_terms(g: NeighborGraph, nodes):
    """Neighbor terms of ``nodes`` (increasing ids) over both edge directions.

    Returns arrays ``(owner, neighbor, weight)``; term ``e`` joins
    ``nodes[owner[e]]`` to ``neighbor[e]``. Per node, out-edges come first,
    then in-edges, each in edge order. Folding both directions together is
    valid because every shipped loss is symmetric.
    """
    member = np.zeros(g.n, dtype=bool)
    member[nodes] = True
    owner = np.concatenate([g.src, g.dst])
    kept = np.flatnonzero(member[owner])
    kept = kept[np.argsort(owner[kept], kind="stable")]
    rank = np.cumsum(member) - 1
    return (rank[owner[kept]], np.concatenate([g.dst, g.src])[kept],
            np.concatenate([g.weight, g.weight])[kept])


def edges_csv(g: NeighborGraph) -> str:
    """Edge list as ``i,j,omega`` CSV text, for debugging dumps."""
    buf = io.StringIO()
    buf.write("i,j,omega\n")
    for s, t, w in zip(g.src, g.dst, g.weight):
        buf.write(f"{int(s)},{int(t)},{float(w)!r}\n")
    return buf.getvalue()
