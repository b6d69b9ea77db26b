"""Directed k-nearest-neighbor graph over inputs with Gaussian edge weights.

The graph carries the neighborhood structure the solver uses to smooth slack
outputs: an edge i -> j exists when j is one of i's k closest inputs by
Euclidean distance, and its weight is ``exp(-||x_i - x_j||^2 / (2 sigma))``.
Edges are kept directed exactly as built; both directions contribute to the
per-point smoothing terms.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractViolation


def point_vector(x):
    """Flat vector used for neighbor distances.

    Sequence inputs (2-D arrays) are represented by the mean of their
    per-position feature vectors so distances stay defined across sequences
    of different lengths.
    """
    x = np.asarray(x, dtype=float)
    return x if x.ndim == 1 else x.mean(axis=0)


@dataclass(frozen=True, eq=False)
class NeighborGraph:
    """Directed kNN edge list with Gaussian weights.

    ``src[e] -> dst[e]`` with weight ``weight[e]`` in (0, 1]. Every node has
    exactly ``min(k, n - 1)`` outgoing edges and no self-edges. Immutable
    and shareable once built.
    """

    n: int
    k: int
    sigma: float
    src: np.ndarray = field(repr=False)
    dst: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)

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

    Distance ties break toward the smaller id. When ``sigma`` is omitted it
    is set to the median squared distance over the selected edges, falling
    back to 1 when that median is zero (duplicate-heavy data).
    """
    n = len(ds.points)
    if n < 2:
        raise ContractViolation(f"need at least 2 points to build a graph, got {n}")
    if k < 1:
        raise ContractViolation(f"k must be >= 1, got {k}")
    if sigma is not None and sigma <= 0:
        raise ContractViolation(f"sigma must be positive, got {sigma}")

    X = np.stack([point_vector(p.x) for p in ds.points])
    d2 = ((X[:, None, :] - X[None, :, :]) ** 2).sum(axis=-1)
    np.fill_diagonal(d2, np.inf)

    kk = min(k, n - 1)
    order = np.argsort(d2, axis=1, kind="stable")[:, :kk]
    src = np.repeat(np.arange(n), kk)
    dst = order.ravel()
    edge_d2 = d2[src, dst]

    if sigma is None:
        med = float(np.median(edge_d2))
        sigma = med if med > 0 else 1.0
    weight = np.exp(-edge_d2 / (2.0 * float(sigma)))
    return NeighborGraph(n=n, k=k, sigma=float(sigma), src=src, dst=dst, weight=weight)


def manifold_term(g: NeighborGraph, z, space) -> float:
    """Total edge-weighted structured loss between slack outputs.

    Sums ``weight * delta(z[src], z[dst])`` over every directed edge.
    """
    if len(z) != g.n:
        raise ContractViolation(f"got {len(z)} outputs for a graph over {g.n} nodes")
    return space.delta_sum([z[s] for s in g.src.tolist()],
                           [z[t] for t in g.dst.tolist()], g.weight)


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


def neighbor_terms_for(g: NeighborGraph, i):
    """``(weight, neighbor_id)`` pairs of node ``i``; see :func:`neighbor_terms`."""
    if not 0 <= i < g.n:
        raise ContractViolation(f"node id {i} out of range for graph of size {g.n}")
    _, neighbor, weight = neighbor_terms(g, [i])
    return list(zip(weight.tolist(), neighbor.tolist()))


def edges_csv(g: NeighborGraph) -> str:
    """Edge list as ``i,j,omega`` CSV text, for debugging dumps."""
    buf = io.StringIO()
    buf.write("i,j,omega\n")
    for s, t, w in zip(g.src, g.dst, g.weight):
        buf.write(f"{int(s)},{int(t)},{float(w)!r}\n")
    return buf.getvalue()
