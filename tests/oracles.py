"""Independent brute-force references the tests check the library against.

Everything here enumerates or differentiates directly, without touching the
library's inference oracles, so a bug in a dynamic program or gradient
cannot hide behind itself. The joint feature map and the loss of the
shipped spaces are :func:`phi` and :func:`delta`, written from their
definitions; the enumerating references and the scalar value functions read
them, not the spaces' own one-item views, which a space of any other kind
falls back to. Four exceptions call library code: ``argmin_slack`` asks the
whole-array slack oracle about one point; the chain space's per-slot
Hamming slack oracle and two-pass feature sum are its earlier forms, built
from its own helpers, that add their floats in another order; the
list-based solver at the end is the reference for how the solver stores,
gathers and updates outputs around the oracles, so it reads the spaces'
whole-array sums, whose float order its tests pin; and ``EnumeratingSpace``
answers the whole-array contract from a subclass's own scalar forms.
"""

import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from semistruct.core import DataPoint, Dataset, OutputSpace, ValidationReport, as_weights
from semistruct.errors import ContractViolation, DataFormatError, Diverged, UnsupportedConfiguration
from semistruct.graph import NeighborGraph, k_nearest, neighbor_terms, point_matrix, point_vector
from semistruct.solver import _SEED_TAG_ZINIT, ObjectiveParts, TraceRow
from semistruct.spaces import _records


def object_array(items) -> np.ndarray:
    """1-D object array holding ``items``; numpy would read a list of
    equal-length tuples as one array with another axis."""
    return np.fromiter(items, dtype=object, count=len(items))


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


def phi(space, x, y):
    """The joint feature vector of ``(x, y)`` from its definition.

    Multiclass: the input in the block of class ``y``. Taxonomy: the input
    in the block of every node on leaf ``y``'s path to the root. Chain: the
    count of each (previous, next) label transition, row-major by previous
    label, then per label the sum of the inputs at its positions, added from
    0.0 in position order. Another kind of space answers with its own
    ``phi``."""
    if space.kind not in ("multiclass", "taxonomy", "chain"):
        return space.phi(x, y)
    d = space.input_dim
    if space.kind != "chain":
        out = np.zeros(space.dim)
        for b in [y] if space.kind == "multiclass" else path_to_root(space.tree, y):
            out[b * d : (b + 1) * d] = x
        return out
    x, a = np.asarray(x, dtype=float), space.num_labels
    if len(y) != len(x):
        raise ContractViolation(
            f"label sequence length {len(y)} does not match input length {len(x)}")
    out = [0.0] * space.dim  # Python floats add as numpy's do, and faster one by one
    for prev, label in zip(y, y[1:]):
        out[prev * a + label] += 1.0
    for label, row in zip(y, x.tolist()):
        for j, v in enumerate(row, a * a + label * d):
            out[j] += v
    return np.array(out)


def delta(space, y1, y2):
    """The loss of predicting ``y2`` as ``y1`` from its definition.

    Multiclass: zero-one. Taxonomy: the height of the two leaves' first
    common ancestor, its longest way down to a leaf. Chain: the number of
    differing positions (Hamming) or whether any differs (zero-one), for
    sequences of one length. Another kind of space answers with its own
    ``delta``."""
    if space.kind == "multiclass":
        return float(y1 != y2)
    if space.kind == "taxonomy":
        return float(heights(space.tree)[first_common_ancestor(space.tree, y1, y2)])
    if space.kind != "chain":
        return space.delta(y1, y2)
    if len(y1) != len(y2):
        raise ContractViolation(
            f"cannot compare label sequences of lengths {len(y1)} and {len(y2)}")
    differ = sum(a != b for a, b in zip(y1, y2))
    return float(differ > 0 if space.loss == "zero-one" else differ)


def brute_argmax_score(space, w, x):
    cands = enumerate_candidates(space, x)
    vals = [float(np.dot(w, phi(space, x, y))) for y in cands]
    return cands[int(np.argmax(vals))]


def brute_argmax_loss_augmented(space, w, x, z):
    cands = enumerate_candidates(space, x)
    sz = float(np.dot(w, phi(space, x, z)))
    vals = [float(np.dot(w, phi(space, x, y))) - sz + delta(space, y, z) for y in cands]
    best = int(np.argmax(vals))
    return cands[best], vals[best]


def slack_costs(space, w, x, upsilon, neighbors, c1):
    """Every candidate output of ``x`` and its per-point slack objective."""
    cands = enumerate_candidates(space, x)
    vals = []
    for y in cands:
        v = sum(omega * delta(space, y, z_nb) for omega, z_nb in neighbors)
        v += c1 * (-float(np.dot(w, phi(space, x, y))) + delta(space, upsilon, y))
        vals.append(v)
    return cands, vals


def brute_argmin_slack(space, w, x, upsilon, neighbors, c1):
    cands, vals = slack_costs(space, w, x, upsilon, neighbors, c1)
    return cands[int(np.argmin(vals))]


# --- the scalar reference machinery -------------------------------------------
#
# The library asks its spaces only over whole arrays. These per-item forms
# answer the same questions one output at a time, and ``EnumeratingSpace``
# answers the whole-array contract from them, for custom test spaces.


def matching_score(w, x, y, space) -> float:
    """Linear matching score ``w . phi(x, y)`` of an input-output pair."""
    w = as_weights(w, space.dim)
    return float(np.dot(w, phi(space, x, y)))


def loss_augmented_value(w, x, z, y, space) -> float:
    """Value of the loss-augmented objective at candidate ``y``."""
    return (
        matching_score(w, x, y, space)
        - matching_score(w, x, z, space)
        + delta(space, y, z)
    )


def slack_objective_value(w, x, upsilon, neighbors, c1, y, space) -> float:
    """Per-point slack objective at candidate ``y``: the quantity
    ``argmin_slack_all`` minimizes for one point, whose ``neighbors`` are
    ``(weight, output)`` pairs."""
    acc = 0.0
    for omega, z_nb in neighbors:
        acc += omega * delta(space, y, z_nb)
    return acc + c1 * (-matching_score(w, x, y, space) + delta(space, upsilon, y))


def argmin_slack(space, w, x, upsilon, neighbors, c1):
    """``space.argmin_slack_all`` of one input; ``neighbors`` is a list of
    ``(weight, output)`` pairs covering both edge directions."""
    terms = ([0] * len(neighbors), [o for o, _ in neighbors], [z for _, z in neighbors])
    return space.from_codes(space.argmin_slack_all(w, [x], [upsilon], terms, c1))[0]


def path_to_root(tree, node):
    """The nodes from ``node`` up to the root of ``tree``, both included."""
    path = [node]
    while tree.parents[path[-1]] is not None:
        path.append(tree.parents[path[-1]])
    return path


def first_common_ancestor(tree, a, b):
    """The first node on ``b``'s path to the root that is on ``a``'s."""
    on_a = set(path_to_root(tree, a))
    return next(v for v in path_to_root(tree, b) if v in on_a)


@functools.cache
def heights(tree):
    """Every node's height in ``tree``: its longest way down to a leaf."""
    height = [0] * len(tree)
    for leaf in tree.leaves:
        for up, node in enumerate(path_to_root(tree, leaf)):
            height[node] = max(height[node], up)
    return height


def pairwise_taxonomy_matrices(tree):
    """The incidence and loss matrices of a ``TaxonomySpace`` on ``tree``,
    from the definitions, leaf pair by leaf pair: a leaf's row marks its path
    to the root, and two leaves lose the height of their first common
    ancestor."""
    A = np.zeros((len(tree.leaves), len(tree)))
    for row, leaf in enumerate(tree.leaves):
        A[row, path_to_root(tree, leaf)] = 1.0
    height = heights(tree)
    L = [[height[first_common_ancestor(tree, a, b)] for b in tree.leaves] for a in tree.leaves]
    return A, np.asarray(L, dtype=float)


def row_major_best_paths(unary, pairwise, lengths):
    """``ChainSequenceSpace._best_paths`` on a point-major ``(n, T, a)``
    unary stack, reducing over the label axis of each point's row."""
    n, length, _ = unary.shape
    past = np.arange(length) >= lengths[:, None]
    best_to_go = unary.copy()
    for t in range(length - 2, -1, -1):
        ahead = unary[:, t] + np.max(pairwise[None] + best_to_go[:, t + 1, None, :], axis=2)
        best_to_go[:, t] = np.where(past[:, t + 1, None], unary[:, t], ahead)
    paths = np.empty((n, length), dtype=int)
    paths[:, 0] = np.argmax(best_to_go[:, 0], axis=1)
    for t in range(1, length):
        paths[:, t] = np.argmax(pairwise[paths[:, t - 1]] + best_to_go[:, t], axis=1)
    paths[past] = -1
    return paths


def row_major_best_paths_off(unary, pairwise, ref, lengths):
    """``ChainSequenceSpace._best_paths_off`` on a point-major ``(n, T, a)``
    unary stack."""
    n, length, _ = unary.shape
    rows, past = np.arange(n), np.arange(length) >= lengths[:, None]
    on_ref = np.arange(unary.shape[2]) == ref[:, :, None]
    gone, stay = unary + 1.0, unary[rows[:, None], np.arange(length), ref]
    for t in range(length - 2, -1, -1):
        ahead = np.where(on_ref[:, t + 1], stay[:, t + 1, None], gone[:, t + 1])
        gone[:, t] = unary[:, t] + np.where(past[:, t + 1, None], 1.0, np.max(
            pairwise[None] + gone[:, t + 1, None, :], axis=2))
        stay[:, t] = np.where(past[:, t + 1], stay[:, t],
                              stay[:, t] + np.max(pairwise[ref[:, t]] + ahead, axis=1))
    paths = np.empty((n, length), dtype=int)
    still = np.ones(n, dtype=bool)
    for t in range(length):
        ahead = np.where(still[:, None] & on_ref[:, t], stay[:, t, None], gone[:, t])
        paths[:, t] = np.argmax(pairwise[paths[:, t - 1]] + ahead if t else ahead, axis=1)
        still &= on_ref[rows, t, paths[:, t]]
    paths[past] = -1
    return paths


def indexed_add_features(space, X, Y):
    """``ChainSequenceSpace._features`` with the emissions added by one
    indexed add per position."""
    a, (m, length) = space.num_labels, Y.shape
    cell = np.where(Y[:, 1:] >= 0, Y[:, :-1] * a + Y[:, 1:], a * a)
    trans = np.bincount((np.arange(m)[:, None] * (a * a + 1) + cell).ravel(),
                        minlength=m * (a * a + 1)).reshape(m, a * a + 1)
    emit = np.zeros((m, a + 1, space.input_dim))  # label -1 adds to the spare block a
    for t in range(length):
        emit[np.arange(m), Y[:, t]] += X[:, t]
    return np.concatenate((trans[:, :-1], emit[:, :a].reshape(m, -1)), axis=1)


def to_width(M, width):
    """The label matrix ``M`` cut, or padded with -1, to ``width`` columns, as a copy."""
    out = np.full((len(M), width), -1)
    out[:, : M.shape[1]] = M[:, :width]
    return out


def cut(M, lm, lengths, width, what):
    """``M`` at ``width`` columns; ContractViolation unless its lengths ``lm``
    are the input ``lengths``, naming the first output whose length differs."""
    if len(lm) != len(lengths):
        raise ContractViolation(f"{what} length does not match the input: "
                                f"{len(lm)} {what}s for {len(lengths)} inputs")
    for i, (got, want) in enumerate(zip(lm.tolist(), lengths.tolist())):
        if got != want:
            raise ContractViolation(f"{what} length does not match the input: "
                                    f"{what} {i} has length {got}, its input {want}")
    return to_width(M, width)


def per_slot_hamming_slack(space, w, xs, upsilons, neighbors, c1):
    """The Hamming ``ChainSequenceSpace.argmin_slack_all`` on point-major
    tables, with every slot padded to all points by zero-weight terms and its
    neighbor costs subtracted through one ``(point, position)`` index grid.
    A reference of another float order: each point's costs are added slot by
    slot, not as its total weight less its agreeing weight, so the two agree
    exactly on small integer and dyadic weights, and on paths wherever costs
    are further apart than rounding."""
    owner, weight, outputs = neighbors
    owner, weight = np.asarray(owner, dtype=int), np.asarray(weight, dtype=float)
    (upsilons, lu), (outputs, lo) = space._labels(upsilons), space._labels(outputs)
    unary, pairwise, lengths = space._unary(w, xs)
    unary = unary.transpose(2, 0, 1)  # point-major (n, T, a)
    n, length, _ = unary.shape
    order = np.argsort(owner, kind="stable")
    slot = np.empty_like(owner)
    slot[order] = np.arange(len(owner)) - np.searchsorted(owner[order], owner[order])
    U = cut(upsilons, lu, lengths, length, "upsilon")
    W = np.zeros((n, int(slot.max(initial=-1)) + 1))
    W[owner, slot] = weight
    Z = np.repeat(np.minimum(U, 0)[:, None], W.shape[1], axis=1)
    Z[owner, slot] = cut(outputs, lo, lengths[owner], length, "neighbor output")
    at_label = (np.arange(n)[:, None], np.arange(length))
    cost = np.zeros((n, length, space.num_labels))
    for s in range(W.shape[1]):
        cost += W[:, s, None, None]
        cost[at_label + (Z[:, s],)] -= W[:, s, None]
    with np.errstate(over="ignore", invalid="ignore"):
        cost += c1 * (1.0 - unary)
        cost[at_label + (U,)] -= c1
        paths = row_major_best_paths(-cost, c1 * pairwise, lengths)
    return _records(paths)


def two_pass_phi_diff_sum(space, xs, ys, zs):
    """``ChainSequenceSpace.phi_diff_sum`` with the features of ``ys`` and
    of ``zs`` found in two separate passes, and their differences added from
    a row of 0.0 rather than from the first difference: another float order
    with the same bits, since the features never hold -0.0."""
    (Y, Z), _ = space._matrices(ys, zs)
    idx = np.flatnonzero((Y != Z).any(axis=1))
    if not idx.size:
        return np.zeros(space.dim)
    X, _ = space._stack(xs[idx] if space._is_stack(xs) else [xs[i] for i in idx.tolist()])
    diff = space._features(X, Y[idx, : X.shape[1]]) - space._features(X, Z[idx, : X.shape[1]])
    return np.cumsum(np.concatenate((np.zeros((1, space.dim)), diff)), axis=0)[-1]


def neighbor_terms_for(g, i):
    """``(weight, neighbor_id)`` pairs of node ``i``; see ``graph.neighbor_terms``."""
    if not 0 <= i < g.n:
        raise ContractViolation(f"node id {i} out of range for graph of size {g.n}")
    _, neighbor, weight = neighbor_terms(g, [i])
    return list(zip(weight.tolist(), neighbor.tolist()))


class EnumeratingSpace(OutputSpace):
    """The whole-array contract answered one output at a time.

    A subclass defines the scalar ``contains``, ``decode`` and ``delta``
    (in place of the base class's views of the batch forms) and
    ``outputs(x)``, the candidates in tie-break order. Every oracle is then
    an exhaustive search taking the first best candidate, and every batch
    form a loop over the scalar ones.
    """

    def contains_all(self, ys, xs=None):
        xs = [None] * len(ys) if xs is None else xs
        return np.fromiter((self.contains(y, x=x) for y, x in zip(ys, xs)), dtype=bool,
                           count=len(ys))

    def decode_all(self, values):
        return [self.decode(v) for v in values]

    def argmax_score_all(self, w, xs):
        return object_array([max(self.outputs(x), key=lambda y: matching_score(w, x, y, self))
                             for x in xs])

    def argmax_loss_augmented_all(self, w, xs, zs):
        return object_array([
            max(self.outputs(x), key=lambda y: loss_augmented_value(w, x, z, y, self))
            for x, z in zip(xs, zs)])

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1):
        if c1 <= 0:
            raise ContractViolation(f"c1 must be positive, got {c1}")
        terms = [[] for _ in xs]
        for i, omega, z in zip(*neighbors):
            terms[i].append((float(omega), z))
        return object_array([
            min(self.outputs(x),
                key=lambda y: slack_objective_value(w, x, upsilon, nb, c1, y, self))
            for x, upsilon, nb in zip(xs, upsilons, terms)
        ])

    def delta_sum(self, ys1, ys2, weights=None):
        weights = [1.0] * len(ys1) if weights is None else weights
        return float(sum(c * self.delta(a, b) for c, a, b in zip(weights, ys1, ys2)))

    def phi_diff_sum(self, xs, ys, zs):
        acc = np.zeros(self.dim)
        for x, y, z in zip(xs, ys, zs):
            if y != z:  # the difference is exactly zero
                acc += self.phi(x, y) - self.phi(x, z)
        return acc


def weight_subproblem_value(space, points, upsilon, z, w, c1, c2):
    """The weight subproblem: c1 * margin-bound sum + (c2 / 2) * ||w||^2."""
    total = 0.0
    for p, ups, zi in zip(points, upsilon, z):
        diff = phi(space, p.x, ups) - phi(space, p.x, zi)
        total += float(np.dot(w, diff)) + delta(space, ups, zi)
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
                total += weights[(i, j)] * delta(space, z[i], z[j])
    return total


def naive_objective(space, points, g, z, upsilon, w, c1, c2):
    m = naive_manifold_term(g, z, space)
    loss = 0.0
    for p, ups, zi in zip(points, upsilon, z):
        loss += (
            float(np.dot(w, phi(space, p.x, ups)))
            - float(np.dot(w, phi(space, p.x, zi)))
            + delta(space, ups, zi)
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


def brute_k_nearest(Q, R, k):
    """The ``k`` nearest rows of ``R`` to every row of ``Q`` from the whole
    ``len(Q) x len(R)`` direct-form distance matrix, stably argsorted, so
    ties break toward the smaller id, also at the k-th place."""
    d2 = ((Q[:, None, :] - R[None, :, :]) ** 2).sum(axis=-1)
    ids = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return ids, np.take_along_axis(d2, ids, axis=1)


def brute_nearest_labeled(ds):
    """Nearest labeled point of every unlabeled point, by a per-point argmin."""
    X = np.stack([point_vector(p.x) for p in ds.points])
    labeled = [p.id for p in ds.points if p.y is not None]
    return {
        p.id: labeled[int(np.argmin(((X[labeled] - X[p.id]) ** 2).sum(axis=1)))]
        for p in ds.points if p.y is None
    }


# --- dataset read path: one json.loads, np.asarray and check per record -----
#
# The package's read path parses with the decoder's scanner and checks inputs
# once per group of equal shape; these per-record, per-point loops are what it
# must agree with, message for message.


def read_records(path) -> list:
    """Parse a JSONL dataset file into ``{id: (line, x, raw y)}`` in file
    order, checking all that needs no output space; errors name the line."""
    records = {}
    with open(path) as f:
        for ln, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as e:
                raise DataFormatError(f"{path}:{ln}: invalid JSON ({e})") from None
            if not isinstance(rec, dict) or "id" not in rec or "x" not in rec:
                raise DataFormatError(f"{path}:{ln}: record needs 'id' and 'x' fields")
            pid = rec["id"]
            if not isinstance(pid, int) or isinstance(pid, bool):
                raise DataFormatError(f"{path}:{ln}: id must be an integer, got {pid!r}")
            if pid in records:
                raise DataFormatError(f"{path}:{ln}: duplicate id {pid}")
            try:
                x = np.asarray(rec["x"], dtype=float)
            except (ValueError, TypeError):
                raise DataFormatError(f"{path}:{ln}: ragged or non-numeric x") from None
            records[pid] = (ln, x, rec.get("y"))
    if not records:
        raise DataFormatError(f"{path}: no records")
    return records


def dataset_from_records(records, path, space, require_labeled=False) -> Dataset:
    """Decode :func:`read_records` output into a validated dataset of
    ``space``. ``require_labeled`` additionally demands at least one labeled
    point (prediction inputs may legitimately have none)."""
    points = {}
    for pid, (ln, x, raw_y) in records.items():
        if x.ndim != space.input_ndim:
            raise DataFormatError(
                f"{path}:{ln}: x has {x.ndim} dimension(s), "
                f"space expects {space.input_ndim}"
            )
        if raw_y is None:
            y = None
        else:
            try:
                y = space.decode(raw_y)
            except ContractViolation as e:
                raise DataFormatError(f"{path}:{ln}: bad output: {e}") from None
            if not space.contains(y, x=x):
                raise DataFormatError(
                    f"{path}:{ln}: output {raw_y!r} is not valid for this input"
                )
        points[pid] = DataPoint(pid, x, y)

    n = len(points)
    if sorted(points) != list(range(n)):
        missing = sorted(set(range(n)) - set(points))[:5]
        raise DataFormatError(
            f"{path}: ids must be contiguous from 0 (missing {missing}, n={n})"
        )
    ds = Dataset(tuple(points[i] for i in range(n)), space_id=space.kind)

    report = validate_dataset(ds, space)
    problems = [
        v for v in report.violations
        if require_labeled or v != "dataset has no labeled points"
    ]
    if problems:
        raise DataFormatError(f"{path}: " + "; ".join(problems))
    return ds


def validate_dataset(ds, space) -> ValidationReport:
    """Check a dataset against its space contract.

    Never raises; all violations are collected into the returned report so
    callers can surface them at once.
    """
    report = ValidationReport()
    if len(ds.points) == 0:
        report.violations.append("dataset is empty")
        return report

    if ds.space_id and ds.space_id != space.kind:
        report.violations.append(
            f"dataset space_id {ds.space_id!r} does not match space kind {space.kind!r}"
        )

    for pos, p in enumerate(ds.points):
        if p.id != pos:
            report.violations.append(
                f"point at position {pos} has id {p.id}; ids must be contiguous from 0"
            )

    dim = None
    for p in ds.points:
        x = np.asarray(p.x)
        if x.ndim != space.input_ndim:
            report.violations.append(
                f"id {p.id}: input has {x.ndim} dimension(s), space expects {space.input_ndim}"
            )
            continue
        if x.shape[-1] < 1 or x.size == 0:
            report.violations.append(f"id {p.id}: empty input")
            continue
        if not np.all(np.isfinite(x)):
            report.violations.append(f"id {p.id}: input has non-finite entries")
        if dim is None:
            dim = x.shape[-1]
        elif x.shape[-1] != dim:
            report.violations.append(
                f"id {p.id}: input dimension {x.shape[-1]} differs from {dim}"
            )

    if not any(p.y is not None for p in ds.points):
        report.violations.append("dataset has no labeled points")

    for p in ds.points:
        if p.y is None:
            continue
        try:
            ok = space.contains(p.y, x=p.x)
        except ContractViolation:
            ok = False
        if not ok:
            report.violations.append(
                f"id {p.id}: output {p.y!r} is not in the output space"
            )
    return report


# --- list-based solver: the alternating optimizer as it ran on Python lists ----
#
# The package's solver keeps slack and most-violating outputs as code arrays and
# builds index arrays, neighbor terms and input stacks once per fit. These are
# the list-based steps it replaced, kept as they were except that the whole-array
# oracles' codes are turned back into lists with ``space.from_codes``, as the
# oracles once returned them. Every iteration must agree with them bit for bit.


@dataclass
class ListState:
    """Mutable optimizer state."""

    w: np.ndarray
    z: list
    upsilon: list
    iteration: int = 0
    trace: list = field(default_factory=list)


def list_manifold_term(g, z, space) -> float:
    if len(z) != g.n:
        raise ContractViolation(f"got {len(z)} outputs for a graph over {g.n} nodes")
    return space.delta_sum([z[s] for s in g.src.tolist()],
                           [z[t] for t in g.dst.tolist()], g.weight)


def list_initialize(ds, g, space, cfg) -> ListState:
    cfg.validate()
    if g.n != len(ds.points):
        raise ContractViolation(
            f"graph covers {g.n} nodes but the dataset has {len(ds.points)} points"
        )
    # the shipped losses compare outputs of one length only
    length = np.array([len(x) for x in ds.inputs])
    bad = np.flatnonzero(length[g.src] != length[g.dst])
    if len(bad):
        s, t = int(g.src[bad[0]]), int(g.dst[bad[0]])
        raise UnsupportedConfiguration(
            f"graph edge {s} -> {t} joins inputs of lengths {length[s]} and {length[t]}; "
            f"outputs of different lengths cannot be compared"
        )
    labeled = [p.id for p in ds.points if p.y is not None]
    if not labeled:
        raise ContractViolation("cannot initialize without labeled points")

    if cfg.z_init == "nearest-labeled":
        free = [p.id for p in ds.points if p.y is None]
        source = np.arange(len(ds.points))
        if free:
            X = point_matrix(ds.inputs)
            nearest, _ = k_nearest(X[free], X[labeled], 1)
            source[free] = np.asarray(labeled)[nearest[:, 0]]
            _list_check_donors(ds, space, free, source[free], length[free])
        z = [ds.points[j].y for j in source.tolist()]
    else:
        rng = np.random.default_rng((cfg.seed, _SEED_TAG_ZINIT))
        z = [p.y if p.y is not None else space.random_output(p.x, rng) for p in ds.points]

    state = ListState(w=np.zeros(space.dim), z=z, upsilon=[], iteration=0)
    state.upsilon = list_update_upsilon(state, ds, space, cfg)
    state.trace.append(TraceRow(0, *list_objective(state, ds, g, space, cfg)))
    return state


def _list_check_donors(ds, space, free, donor, length):
    key = donor * (length.max() + 1) + length
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    fits = np.array([space.contains(ds.points[donor[i]].y, x=ds.inputs[free[i]])
                     for i in first.tolist()], dtype=bool)
    bad = np.flatnonzero(~fits[inverse])
    if len(bad):
        raise UnsupportedConfiguration(
            f"nearest-labeled init copied an output that does not fit "
            f"point {free[bad[0]]} (sequence lengths differ?)"
        )


def list_update_upsilon(state, ds, space, cfg) -> list:
    return space.from_codes(space.argmax_loss_augmented_all(state.w, ds.inputs, state.z))


def list_update_slack(state, ds, g, space, cfg) -> list:
    free = [p.id for p in ds.points if p.y is None]
    owner, neighbor, weight = neighbor_terms(g, free)
    moved = space.from_codes(space.argmin_slack_all(
        state.w,
        [ds.inputs[i] for i in free],
        [state.upsilon[i] for i in free],
        (owner, weight, [state.z[j] for j in neighbor]),
        cfg.c1,
    ))
    new = list(state.z)
    for i in np.flatnonzero(ds.labeled).tolist():
        new[i] = ds.points[i].y
    for i, y in zip(free, moved):
        new[i] = y
    return new


def list_update_weights(state, ds, space, cfg) -> np.ndarray:
    eta = cfg.step_size
    acc = space.phi_diff_sum(ds.inputs, state.upsilon, state.z)
    with np.errstate(over="ignore", invalid="ignore"):
        w_new = (1.0 - eta * cfg.c2) * state.w - eta * cfg.c1 * acc
        # finite exactly when every weight is and ||w||^2 does not overflow
        norm2 = np.dot(w_new, w_new)
    if not np.isfinite(norm2):
        raise Diverged(
            f"non-finite model weights at iteration {state.iteration + 1} "
            f"(step size too large?)",
            iteration=state.iteration + 1,
            state=state,
        )
    return w_new


def list_objective(state, ds, g, space, cfg) -> ObjectiveParts:
    m = list_manifold_term(g, state.z, space)
    diff = space.phi_diff_sum(ds.inputs, state.upsilon, state.z)
    l = float(np.dot(state.w, diff)) + space.delta_sum(state.upsilon, state.z)
    r = 0.5 * float(np.dot(state.w, state.w))
    return ObjectiveParts(m, l, r, m + cfg.c1 * l + cfg.c2 * r)


def list_fit(ds, g, space, cfg, on_iteration=None) -> ListState:
    state = list_initialize(ds, g, space, cfg)
    if on_iteration is not None:
        on_iteration(state)
    for t in range(1, cfg.max_iters + 1):
        # entering iteration t, state.upsilon already reflects (w, z) of t-1
        state.z = list_update_slack(state, ds, g, space, cfg)
        state.w = list_update_weights(state, ds, space, cfg)
        state.iteration = t
        state.upsilon = list_update_upsilon(state, ds, space, cfg)
        state.trace.append(TraceRow(t, *list_objective(state, ds, g, space, cfg)))
        if on_iteration is not None:
            on_iteration(state)
    return state
