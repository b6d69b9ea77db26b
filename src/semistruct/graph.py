"""Directed k-nearest-neighbor graph over inputs with Gaussian edge weights.

The graph carries the neighborhood structure the solver uses to smooth slack
outputs: an edge i -> j exists when j is one of i's k closest inputs by
Euclidean distance, and its weight is ``exp(-||x_i - x_j||^2 / (2 sigma))``.
Edges are kept directed exactly as built; both directions contribute to the
per-point smoothing terms.

Neighbors come from :func:`k_nearest`, which scans the query points in row
blocks whose working memory is bounded by ``_BLOCK_BYTES`` times a small
factor (see :func:`k_nearest`), so the memory a search takes grows with
block x n, never with n^2 * d. Ties in distance break toward the smaller
id, also at the k-th place. Per block, one matrix product and one add value
every reference by ``|b|^2 - 2 a.b`` of centered points, the expanded
squared distance less the query's own ``|a|^2``. The references are dealt
into interleaved chunks, and a row's threshold is the k-th smallest of its
chunk minima plus a proven rounding margin: an upper bound on the k-th
smallest value, so every reference that may be among the row's k nearest
stays a candidate (see :func:`_candidates`). Only the chunks whose minimum
is at most the threshold are read back; a chunk holds consecutive ids, so
the candidates come in id order and one stable sort by distance ranks them
with ties toward the smaller id. The squared distances it returns, and so
every edge weight and the default ``sigma``, are computed for the
candidates in the direct form ``((a - b) ** 2).sum(-1)``.

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


# bytes of each chunk-level workspace of a k_nearest block (see k_nearest)
_BLOCK_BYTES = 256 << 10


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

    The ``m = len(R)`` references, padded to ``nch c`` with ``nch = ceil(m
    / c)`` and ``c = clip(m // (16 k), 1, 8)``, are dealt to interleaved
    chunks of ``c``: column ``p`` belongs to chunk ``p % nch``, and column
    ``i nch + h`` holds reference ``h c + i``, so chunk ``h`` holds the
    references ``h c`` to ``h c + c - 1``. The last ``nch c - m`` of them,
    fewer than ``c``, are padding that no query is near. So chunks are
    single references below ``m = 32k``, and a row's chunk minima, ``m / c``
    of them, are ``c`` contiguous slices reduced by one elementwise minimum.
    Each block of query rows takes its thresholds and kept chunks from
    :func:`_candidates`, reads back the candidates (values at most the
    threshold) of the kept chunks, which come in increasing id order, and
    keeps the ``k`` best of them by direct distance, then id.

    A block has ``_BLOCK_BYTES // (8 nch)`` rows (at most ``n``, at least
    one), so its chunk minima take at most ``_BLOCK_BYTES`` and its one
    buffer, for the values, the minima and their partitioned copy, at most
    ``(c + 2) _BLOCK_BYTES``. Wider chunks so buy more rows, and fewer
    blocks, for the same partition work. At ``c = 1`` the minima are the
    values themselves and that slot of the buffer stays unused. The
    candidates' direct distances and ranking are computed in pieces of
    equal row counts, sized by the row with the most kept chunks so that a
    piece holds at most ``len(buffer) // (3d + 12)`` of them (at least one
    row): about the buffer's bytes, at ``8 (3d + 12)`` bytes a candidate.
    With the kept chunks' values read back (``c _BLOCK_BYTES`` at most) and
    their indices, a block takes about ``3 (c + 3) _BLOCK_BYTES`` at most
    (3 MiB at ``c = 1``, 8.25 MiB at ``c = 8``), also on data with many
    ties or duplicates, whose rows can hold up to ``m`` candidates each.
    """
    n, d = Q.shape
    m = len(R)
    c = min(max(m // (16 * k), 1), 8)
    nch = -(-m // c)
    center = R.mean(axis=0)
    Rc = np.zeros((nch, c, d))  # chunk by chunk, then padded
    Rc.reshape(-1, d)[:m] = R - center
    r2 = (Rc * Rc).sum(axis=2)
    far = r2.max()
    r2.reshape(-1)[m:] = np.inf
    # dealt to columns: -2 Rc is exact, a power-of-two scaling
    Rm2, r2 = (-2.0 * Rc).transpose(1, 0, 2).reshape(-1, d), r2.T.ravel()
    rows = max(1, min(_BLOCK_BYTES // (8 * nch), n))
    # one allocation, which the allocator then reuses from call to call
    buffer = np.empty(rows * (c + 2) * nch)
    work = (buffer[:rows * c * nch].reshape(rows, c, nch),
            *buffer[rows * c * nch:].reshape(2, rows, nch))
    per_piece = max(1, len(buffer) // (3 * d + 12))
    ids = np.empty((n, k), dtype=int)
    d2 = np.empty((n, k))
    for lo in range(0, n, rows):
        q = Q[lo:lo + rows]
        b = len(q)
        own = lo + np.arange(b)  # in column own % c nch + own // c
        self_cols = own % c * nch + own // c if skip_self else None
        approx, kept, thr = _candidates(q - center, Rm2, r2, far, k, self_cols,
                                        [a[:b] for a in work])
        row, chunk = np.divmod(np.flatnonzero(kept), nch)
        hit = approx[row, :, chunk] <= thr[row, None]  # the candidates in each kept chunk
        first = np.searchsorted(row, np.arange(b + 1))  # each row's first kept chunk
        step = max(1, per_piece // (c * int((first[1:] - first[:-1]).max())))  # rows a piece
        for p0 in range(0, b, step):
            p1 = min(p0 + step, b)
            span = slice(first[p0], first[p1])
            at, i = np.nonzero(hit[span])
            ids[lo + p0:lo + p1], d2[lo + p0:lo + p1] = _best(
                q[p0:p1], R, row[span][at] - p0, chunk[span][at] * c + i, k)
    return ids, d2


def _best(q, R, row, col, k):
    """``(ids, d2)`` of the ``k`` best candidates ``(row, col)`` of each row
    of ``q`` by ``(d2, id)``; the pairs come in increasing order, at least
    ``k`` a row."""
    dist = ((q[row] - R[col]) ** 2).sum(-1)
    # complex numbers sort by real, then imaginary part: a stable sort by
    # (row, d2) keeps the id order of ties
    key = np.empty(len(dist), dtype=complex)
    key.real, key.imag = row, dist
    order = np.argsort(key, kind="stable")
    counts = np.bincount(row, minlength=len(q))
    keep = order[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
    return col[keep], dist[keep]


def _candidates(qc, Rm2, r2, far, k, self_cols, work):
    """Threshold and candidate chunks of each query's ``k`` nearest.

    ``qc`` holds the queries and ``Rc`` the references minus one center;
    ``Rm2`` is ``-2 Rc`` and ``r2`` the squared norms of ``Rc``, both padded
    to ``nch c`` columns with rows of 0 and norms of ``+inf`` and dealt to
    columns as in :func:`k_nearest`; ``far`` is the largest real norm. For
    a centered query ``a`` and reference ``b`` the value is ``|b|^2 - 2
    a.b``, computed as ``qc @ Rm2.T + r2``: the expanded form ``|a|^2 +
    |b|^2 - 2 a.b`` less ``|a|^2``, which is the same along a row, so
    leaving it out shifts every value of the row and its order statistics
    alike; a padding value is ``+inf``. With ``|a|^2``
    added back exactly, the value differs from the pair's direct squared
    distance by at most ``(4d + 10) u (|a|^2 + |b|^2)`` to first order in
    the unit roundoff ``u = eps / 2``: ``4u`` from centering, ``2(d + 2)u``
    from the direct form, ``d u`` each from the product and from ``r2``, and
    ``2u`` from the add. ``margin`` is ``4(d + 4) eps = (8d + 32) u`` times
    that norm sum for the row's query and the farthest reference, plus a
    term for underflow, so it exceeds the bound.

    The threshold of a row is the k-th smallest of its chunk minima plus two
    margins. The ``k`` smallest chunk minima are the values of ``k``
    distinct references, so the k-th of them is at least the k-th smallest
    value of the row, and every reference whose direct distance is at most
    the k-th smallest has a value within two margins of it: all of them,
    ties included, have values at most the threshold, and their chunks'
    minima too. The threshold is finite: ``k <= m - 1`` real values exist
    when ``c = 1``, and for ``c >= 2`` there are ``nch >= 16k`` chunks, of
    which at most one (holding only the query and padding) is all ``+inf``.
    The column ``self_cols[i]``, when given, is never a candidate of row
    ``i``.

    ``work`` holds one ``len(qc) x c x nch`` and two ``len(qc) x nch``
    float arrays to compute in. Returns ``(approx, kept, thr)``: the values
    as ``len(qc) x c x nch`` (reference ``h c + i`` at ``[:, i, h]``), a
    mask of the chunks whose minimum is at most the row's threshold, and
    the thresholds. The candidates of a row are its values at most its
    threshold; they all lie in kept chunks.
    """
    approx, mins, kth = work
    b, c, nch = approx.shape
    flat = approx.reshape(b, c * nch)
    np.matmul(qc, Rm2.T, out=flat)
    flat += r2
    if self_cols is not None:
        flat[np.arange(b), self_cols] = np.inf
    eps, tiny = np.finfo(float).eps, np.finfo(float).tiny
    q2 = (qc * qc).sum(axis=1)
    margin = 4 * (qc.shape[1] + 4) * eps * (q2 + far + tiny)
    mins = np.min(approx, axis=1, out=mins) if c > 1 else approx[:, 0]  # c = 1: a view
    np.copyto(kth, mins)
    kth.partition(k - 1, axis=1)
    thr = kth[:, k - 1] + 2.0 * margin
    return approx, mins <= thr[:, None], thr


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
    # the same stable order; numpy radix-sorts 16-bit keys
    keys = owner[kept].astype(np.uint16) if g.n <= 1 << 16 else owner[kept]
    kept = kept[np.argsort(keys, kind="stable")]
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
