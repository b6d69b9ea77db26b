"""Independent brute-force references the tests check the library against.

Everything here enumerates or differentiates directly, without touching the
library's inference oracles, so a bug in a dynamic program or gradient
cannot hide behind itself.
"""

import itertools
import json

import numpy as np

from semistruct.core import DataPoint, Dataset, ValidationReport
from semistruct.errors import ContractViolation, DataFormatError
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
