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
id, also at the k-th place. A float32 screen proposes candidates and
float64 ranks them. The points, centered on the references' mean and scaled
by one power of two so that no squared norm exceeds 1, are cast to float32
once per call. Per block, one float32 matrix product and one add value every
reference by ``|b|^2 - 2 a.b``, the expanded squared distance less the
query's own ``|a|^2``, lowered by its chunk's part of a rounding margin. The
references are dealt into interleaved chunks, and a row's threshold is the
k-th smallest of its chunk minima, raised by twice that part, plus the row's
part of the margin. The margin of a pair grows with the pair's own squared
norms and bounds the float32 error of its value, so every reference that may
be among the row's k nearest stays a candidate (see :func:`_candidates`).
Only the chunks whose minimum is at most the threshold are read back; a
chunk holds consecutive ids, so the candidates come in id order and one
stable sort by distance ranks them with ties toward the smaller id. The
squared distances it returns, and so every edge weight and the default
``sigma``, are computed for the candidates in float64 in the direct form
``((a - b) ** 2).sum(-1)``, and do not depend on the screen.

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

# the unit roundoff of float32, in which k_nearest screens candidates
_U = 2.0 ** -24
_INF32 = np.float32(np.inf)


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

    Both sets are centered on the references' mean, scaled by ``s = 2^-e``,
    the power of two that brings the largest squared norm of a centered
    query or reference within 1 (``e >= -511``, so that ``s^2`` is a
    float64), and cast to float32 once per call: the queries as ``s (q -
    center)``, the references as ``-2 s (r - center)``. The screen of
    :func:`_candidates` runs on these casts, and its margins on float64
    norms; the candidates it keeps are ranked by their float64 direct
    distances.

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

    A block has ``_BLOCK_BYTES // (4 nch)`` rows (at most ``n``, at least
    one), so its float32 chunk minima take at most ``_BLOCK_BYTES`` and its
    workspaces, for the values, the minima and their raised and partitioned
    copy, at most ``(c + 2) _BLOCK_BYTES``. Wider chunks so buy more rows,
    and fewer blocks, for the same partition work. At ``c = 1`` the minima
    are the values themselves and that workspace stays unused. The kept
    chunks are read back, and their candidates ranked by direct distance, in
    pieces of equal row counts, sized by the row with the most kept chunks
    so that a piece holds at most ``(c + 2) _BLOCK_BYTES // (8 (2d + 8))``
    values (at least one row). A candidate takes about ``8 (2d + 8)`` bytes,
    its query and reference rows and its indices, key and distance, so a
    piece about ``(c + 2) _BLOCK_BYTES``. With the mask of kept chunks, a
    block takes about ``2 (c + 2) _BLOCK_BYTES`` at most (1.5 MiB at ``c =
    1``, 5 MiB at ``c = 8``), also on data with many ties or duplicates,
    whose rows can hold up to ``m`` candidates each; the call adds its ``n x
    k`` results and its ``n x d`` and ``m x d`` copies of the points.
    """
    n, d = Q.shape
    m = len(R)
    c = min(max(m // (16 * k), 1), 8)
    nch = -(-m // c)
    center = np.add.reduce(R) / m
    Rc = np.zeros((nch, c, d))  # chunk by chunk, then padded
    np.subtract(R, center, out=Rc.reshape(-1, d)[:m])
    r2 = np.add.reduce(Rc * Rc, axis=2)
    beta = np.maximum.reduce(r2, axis=1)  # each chunk's largest
    if skip_self:  # the queries are the references, in id order
        Qc, q2 = Rc.reshape(-1, d)[:m], r2.reshape(-1)[:m]
    else:
        Qc = Q - center
        q2 = np.add.reduce(Qc * Qc, axis=1)
    big = max(np.maximum.reduce(beta), np.maximum.reduce(q2, initial=0.0))
    # s = 2^-e brings every squared norm within 1, so every coordinate
    # within [-1, 1]; e >= -511 keeps s^2 a float64
    e = max(-511, -(-math.frexp(big)[1] // 2))
    s, s2 = math.ldexp(1.0, -e), math.ldexp(1.0, -2 * e)
    # the margins of _candidates, in scaled units: each chunk's, and twice
    # each row's
    g = (d + 10) * _U / (1 - (d + 10) * _U)
    tau = math.ldexp(4 * d + 8, -126) + math.ldexp(d + 1, -1074 - 2 * e)
    kb = beta * (g * s2) + tau
    margin = q2 * (2 * g * s2)
    r2 *= s2
    r2 -= kb[:, None]  # lowered by the chunk's margin
    r2.reshape(-1)[m:] = np.inf
    # dealt to columns
    low = r2.T.astype(np.float32, order="C").ravel()
    Rm2 = np.empty((c, nch, d), dtype=np.float32)
    np.multiply(Rc.transpose(1, 0, 2), -2.0 * s, out=Rm2, casting="same_kind")
    Rm2 = Rm2.reshape(-1, d)
    A = np.empty((n, d), dtype=np.float32)
    np.multiply(Qc, s, out=A, casting="same_kind")
    kb2 = np.multiply(kb, 2, dtype=np.float32)
    rows = max(1, min(_BLOCK_BYTES // (4 * nch), n))
    # allocated once, which the allocator then reuses from call to call
    values, side = np.empty((rows, c, nch), np.float32), np.empty((2, rows, nch), np.float32)
    per_piece = max(1, (c + 2) * _BLOCK_BYTES // (8 * (2 * d + 8)))
    ids = np.empty((n, k), dtype=int)
    d2 = np.empty((n, k))
    for lo in range(0, n, rows):
        q = Q[lo:lo + rows]
        b = len(q)
        self_cols = None
        if skip_self:
            own = lo + np.arange(b)  # in column own % c nch + own // c
            self_cols = own % c * nch + own // c
        approx, kept, thr = _candidates(A[lo:lo + b], Rm2, low, kb2, margin[lo:lo + b], k,
                                        self_cols, values[:b], *side[:, :b])
        # rows a piece: all of them while the kept chunks' values fit one,
        # else as many as the row with the most kept chunks allows
        step = b
        if c * kept.size > per_piece and c * np.count_nonzero(kept) > per_piece:
            step = max(1, per_piece // (c * int(np.count_nonzero(kept, axis=1).max())))
        for p0 in range(0, b, step):
            p1 = min(p0 + step, b)
            row, chunk = np.divmod(np.flatnonzero(kept[p0:p1]), nch)
            # the candidates in each kept chunk
            at, i = np.nonzero(approx[p0:p1][row, :, chunk] <= thr[p0:p1][row, None])
            ids[lo + p0:lo + p1], d2[lo + p0:lo + p1] = _best(
                q[p0:p1], R, row[at], chunk[at] * c + i, k)
    return ids, d2


def _best(q, R, row, col, k):
    """``(ids, d2)`` of the ``k`` best candidates ``(row, col)`` of each row
    of ``q`` by ``(d2, id)``; the pairs come in increasing order, at least
    ``k`` a row."""
    diff = q[row]
    diff -= R[col]  # in place: two 8d-byte rows a candidate at most
    dist = np.add.reduce(np.square(diff, out=diff), axis=-1)
    # complex numbers sort by real, then imaginary part: a stable sort by
    # (row, d2) keeps the id order of ties
    key = np.empty(len(dist), dtype=complex)
    key.real, key.imag = row, dist
    order = np.argsort(key, kind="stable")
    counts = np.bincount(row, minlength=len(q))
    keep = order[(np.add.accumulate(counts) - counts)[:, None] + np.arange(k)]
    return col[keep], dist[keep]


def _candidates(a, Rm2, low, kb2, margin, k, self_cols, approx, mins, kth):
    """Threshold and candidate chunks of each query's ``k`` nearest.

    ``a`` holds the queries and ``Rm2`` the references, centered, scaled and
    cast to float32 as in :func:`k_nearest` (``Rm2`` dealt to columns, with
    rows of 0 for padding). Write ``A`` and ``B`` for a query and a
    reference centered and scaled in exact arithmetic; their squared norms
    are at most 1. The margin of chunk ``h`` is ``kb_h = g beta_h + tau``,
    with ``beta_h`` the largest ``|B|^2`` in the chunk, ``g = gamma_{d+10}``
    for ``gamma_j = j u / (1 - j u)`` and the float32 unit roundoff ``u =
    2^-24``, and ``tau = (4d + 8) 2^-126 + (d + 1) 2^-1074 s^2``. ``low``
    holds ``|B|^2 - kb_h`` in float32 (``+inf`` for padding), ``kb2`` holds
    ``2 kb_h`` in float32 and ``margin`` holds ``2 g |A|^2`` per row.

    The value of a pair is ``a @ Rm2.T + low``: the expanded form ``|A|^2 +
    |B|^2 - 2 A.B`` less ``|A|^2``, which is the same along a row, so
    leaving it out shifts every value of the row and its order statistics
    alike, and lowered by ``kb_h``. By the dot-product error bounds of
    Higham (Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
    section 3.1) it differs from ``|B|^2 - 2 A.B - kb_h`` by at most
    ``gamma_{d+3} |A|^2 + gamma_{d+5} |B|^2 + gamma_2 kb_h``:
    ``gamma_{d+2} 2 |A| |B|`` from the casts and the product, ``u (|B|^2 +
    kb_h)`` from casting ``low``, and ``u`` of the sum from the add. The
    float64 direct distance that ranks the pair, times ``s^2``, differs
    from ``|A - B|^2`` by ``(2d + 8) 2^-53 (|A|^2 + |B|^2)`` from centering
    and the direct form, far below ``u`` of the norms, and ``(d + 1)
    2^-1074 s^2`` from underflow. Float32 underflow costs a pair at most
    ``(4d + 8) 2^-126``, also where subnormals flush to zero. As ``g``
    exceeds ``gamma_{d+5}`` by some ``5u``, ``kb_h`` covers the reference's
    part of all of these, the rounding of a raised minimum below and all
    underflow: a reference's value is at most its scaled direct distance,
    less ``|A|^2``, plus ``gamma_{d+4} |A|^2``, and its value raised by ``2
    kb_h`` at least that distance less ``|A|^2 + gamma_{d+4} |A|^2``.

    So the margin of a pair grows with its own squared norms, ``g (|A|^2 +
    beta_h) + tau``, never with the farthest reference's: a point far from
    the rest widens the margins of its own chunk and its own row only.

    The threshold of a row is the k-th smallest of its chunk minima raised
    by ``kb2``, in float32, which one partition of the block selects for
    every ``k``, plus ``margin``, rounded up to float32. The
    ``k`` smallest raised chunk minima are of ``k`` distinct references, so
    the row's k-th smallest direct distance, less ``|A|^2``, is at most the
    k-th of them plus ``gamma_{d+4} |A|^2``; every reference whose direct
    distance is at most the k-th smallest has a value at most that plus
    another ``gamma_{d+4} |A|^2``, which the threshold exceeds: all of them,
    ties included, have values at most the threshold, and their chunks'
    minima too. The rest of ``margin`` covers the float64 add. The
    threshold is finite: ``k <= m - 1`` real values exist when ``c = 1``,
    and for ``c >= 2`` there are ``nch >= 16k`` chunks, of which at most one
    (holding only the query and padding) is all ``+inf``. The column
    ``self_cols[i]``, when given, is never a candidate of row ``i``.

    ``approx`` (``len(a) x c x nch``), ``mins`` and ``kth`` (``len(a) x
    nch``) are float32 arrays to compute in. Returns ``(approx, kept,
    thr)``: the values (reference ``h c + i`` at ``[:, i, h]``), a mask of
    the chunks whose minimum is at most the row's threshold, and the float32
    thresholds. The candidates of a row are its values at most its
    threshold; they all lie in kept chunks.
    """
    b, c, nch = approx.shape
    flat = approx.reshape(b, c * nch)
    np.matmul(a, Rm2.T, out=flat)
    flat += low
    if self_cols is not None:
        flat[np.arange(b), self_cols] = np.inf
    mins = np.minimum.reduce(approx, axis=1, out=mins) if c > 1 else approx[:, 0]  # c = 1: a view
    np.add(mins, kb2, out=kth)
    kth.partition(k - 1, axis=1)
    # rounded up to float32
    thr = np.nextafter((kth[:, k - 1] + margin).astype(np.float32), _INF32)
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
    ``nodes[owner[e]]`` to ``neighbor[e]``. The terms come in edge order,
    out-edges first, then in-edges, so the terms of different nodes
    interleave and each node's own terms list its out-edges, then its
    in-edges, each in edge order. Folding both directions together is valid
    because every shipped loss is symmetric.
    """
    member = np.zeros(g.n, dtype=bool)
    member[nodes] = True
    owner = np.concatenate([g.src, g.dst])
    kept = np.flatnonzero(member[owner])
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
