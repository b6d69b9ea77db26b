"""Independent brute-force references the tests check the library against.

Everything here enumerates or differentiates directly, without touching the
library's inference oracles, so a bug in a dynamic program or gradient
cannot hide behind itself.
"""

import itertools

import numpy as np

from semistruct.graph import NeighborGraph, point_vector


def enumerate_candidates(space, x):
    """All outputs for input ``x`` in canonical order, from first principles."""
    if space.kind == "multiclass":
        return list(range(space.num_classes))
    if space.kind == "taxonomy":
        parents = space.tree.parents
        with_children = {p for p in parents if p is not None}
        return [i for i in range(len(parents)) if i not in with_children]
    length = np.asarray(x).shape[0]
    return [tuple(y) for y in itertools.product(range(space.num_labels), repeat=length)]


def brute_argmax_score(space, w, x):
    cands = enumerate_candidates(space, x)
    vals = [float(np.dot(w, space.phi(x, y))) for y in cands]
    return cands[int(np.argmax(vals))]


def brute_argmax_loss_augmented(space, w, x, z):
    cands = enumerate_candidates(space, x)
    sz = float(np.dot(w, space.phi(x, z)))
    vals = [float(np.dot(w, space.phi(x, y))) - sz + space.delta(y, z) for y in cands]
    best = int(np.argmax(vals))
    return cands[best], vals[best]


def brute_argmin_slack(space, w, x, upsilon, neighbors, c1):
    cands = enumerate_candidates(space, x)
    vals = []
    for y in cands:
        v = sum(omega * space.delta(y, z_nb) for omega, z_nb in neighbors)
        v += c1 * (-float(np.dot(w, space.phi(x, y))) + space.delta(upsilon, y))
        vals.append(v)
    return cands[int(np.argmin(vals))]


def weight_subproblem_value(space, points, upsilon, z, w, c1, c2):
    """The weight subproblem: c1 * margin-bound sum + (c2 / 2) * ||w||^2."""
    total = 0.0
    for p, ups, zi in zip(points, upsilon, z):
        diff = space.phi(p.x, ups) - space.phi(p.x, zi)
        total += float(np.dot(w, diff)) + space.delta(ups, zi)
    return c1 * total + 0.5 * c2 * float(np.dot(w, w))


def central_difference_gradient(f, w, h=1e-6):
    grad = np.zeros_like(w)
    for i in range(len(w)):
        up, down = w.copy(), w.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (f(up) - f(down)) / (2.0 * h)
    return grad


def naive_manifold_term(g, z, space):
    """Double loop over all ordered pairs, looking edges up by endpoints."""
    weights = {}
    for s, t, w in zip(g.src, g.dst, g.weight):
        weights.setdefault((int(s), int(t)), 0.0)
        weights[(int(s), int(t))] += float(w)
    total = 0.0
    for i in range(g.n):
        for j in range(g.n):
            if (i, j) in weights:
                total += weights[(i, j)] * space.delta(z[i], z[j])
    return total


def naive_objective(space, points, g, z, upsilon, w, c1, c2):
    m = naive_manifold_term(g, z, space)
    loss = 0.0
    for p, ups, zi in zip(points, upsilon, z):
        loss += (
            float(np.dot(w, space.phi(p.x, ups)))
            - float(np.dot(w, space.phi(p.x, zi)))
            + space.delta(ups, zi)
        )
    reg = 0.5 * float(np.dot(w, w))
    return m, loss, reg, m + c1 * loss + c2 * reg


def brute_knn_graph(ds, k, sigma=None):
    """Dense kNN graph: the whole ``n x n`` distance matrix, fully argsorted.

    Distances come from the ``n x n x d`` difference tensor; a stable sort
    breaks ties toward the smaller id, also at the k-th place.
    """
    n = len(ds.points)
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


def brute_nearest_labeled(ds):
    """Nearest labeled point of every unlabeled point, by a per-point argmin."""
    X = np.stack([point_vector(p.x) for p in ds.points])
    labeled = [p.id for p in ds.points if p.y is not None]
    return {
        p.id: labeled[int(np.argmin(((X[labeled] - X[p.id]) ** 2).sum(axis=1)))]
        for p in ds.points if p.y is None
    }
