"""Concrete output spaces: flat multiclass, taxonomy leaves, label chains.

Each space fixes a canonical output encoding, a joint feature map, a
structured loss and the three inference oracles. The multiclass and taxonomy
spaces are finite label spaces with matrix oracles; the chain space answers
score and Hamming-coupled queries with dynamic programs and falls back to
capped enumeration for the non-decomposable whole-sequence zero-one loss.
The dynamic programs run batched, once per group of equal-length inputs.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import OutputSpace, as_weights
from .errors import ContractViolation, UnsupportedConfiguration

# most candidate sequences the zero-one oracles enumerate per input
ENUMERATION_CAP = 4096


class FiniteLabelSpace(OutputSpace):
    """Outputs from a finite label list, fixed by three things.

    ``labels``: the outputs (distinct non-negative ints) in tie-break order;
    the 0/1 incidence ``A`` (labels x feature blocks): ``phi(x, y) =
    kron(A[row(y)], x)``; the loss matrix ``L`` (labels x labels):
    ``delta(y1, y2) = L[row(y1), row(y2)]``. The constructor raises
    ContractViolation for any other labels or shapes.
    With the weights as a blocks x input_dim matrix ``W``, the label scores
    of inputs ``X`` are ``X (A W)^T``, so every oracle is a few matrix
    operations over a whole batch.
    """

    input_ndim = 1

    def __init__(self, labels, incidence, loss_matrix, input_dim):
        if input_dim < 1:
            raise ContractViolation(f"input_dim must be >= 1, got {input_dim}")
        labels = tuple(labels)
        if not labels or not all(isinstance(y, (int, np.integer)) and not isinstance(y, bool)
                                 and y >= 0 for y in labels) or len(set(labels)) < len(labels):
            raise ContractViolation(
                f"labels must be distinct non-negative ints, got {reprlib.repr(labels)}")
        self.labels = tuple(int(y) for y in labels)
        self.incidence = np.asarray(incidence, dtype=np.int8)
        self.loss_matrix = np.asarray(loss_matrix, dtype=float)
        q = len(self.labels)
        if self.incidence.ndim != 2 or len(self.incidence) != q or self.loss_matrix.shape != (q, q):
            raise ContractViolation(
                f"{q} labels need one incidence row each and a {q} x {q} loss matrix, got "
                f"shapes {self.incidence.shape} and {self.loss_matrix.shape}")
        self.input_dim = int(input_dim)
        self.dim = self.incidence.shape[1] * self.input_dim
        self._label_of = np.asarray(self.labels)
        # label -> row; -1 for non-members, last entry included (see _rows)
        self._row_of = np.full(max(self.labels) + 2, -1)
        self._row_of[self._label_of] = np.arange(len(self.labels))

    def _rows(self, ys):
        """Row of every output in ``ys`` (codes or a list of outputs);
        ContractViolation if one is not a member."""
        if isinstance(ys, np.ndarray):
            a = ys
        elif not {bool, np.bool_}.isdisjoint(map(type, ys)):
            a = np.empty((0, 0))  # numpy would read a bool among ints as 0 or 1
        else:
            try:
                a = np.asarray(ys)
            except ValueError:  # ragged nesting, so not a flat list of labels
                a = np.empty((0, 0))
        if a.ndim == 1 and (a.dtype.kind in "iu" or a.size == 0):
            rows = self._row_of[np.clip(a.astype(int, copy=False), -1, len(self._row_of) - 1)]
            if np.all(rows >= 0):
                return rows
        raise ContractViolation(
            f"{reprlib.repr(ys)} holds a value that is not a {self.kind} output"
        )

    def _inputs(self, xs):
        """``xs`` as an ``n x input_dim`` float matrix; one already is returned as is."""
        X = np.asarray(xs, dtype=float)
        if len(xs) and X.shape != (len(xs), self.input_dim):
            raise ContractViolation(f"inputs must have shape ({self.input_dim},)")
        return X.reshape(len(xs), self.input_dim)

    def _scores(self, w, xs):
        """``S[i, r] = w . phi(xs[i], labels[r])``."""
        W = as_weights(w, self.dim).reshape(-1, self.input_dim)
        return self._inputs(xs) @ (self.incidence @ W).T

    def as_codes(self, ys):
        """Int array of the labels ``ys``."""
        return ys if isinstance(ys, np.ndarray) else self._label_of[self._rows(ys)]

    def stack_inputs(self, xs):
        return self._inputs(xs)

    def contains(self, y, x=None):
        try:
            self._rows([y])
        except ContractViolation:
            return False
        return True

    def phi(self, x, y):
        return np.kron(self.incidence[self._rows([y])[0]], self._inputs([x])[0])

    def delta(self, y1, y2):
        r1, r2 = self._rows([y1, y2])
        return float(self.loss_matrix[r1, r2])

    def outputs(self, x=None):
        return self.labels

    def random_output(self, x, rng):
        return self.labels[int(rng.integers(len(self.labels)))]

    def decode(self, value):
        if not (isinstance(value, int) and self.contains(value)):
            raise ContractViolation(f"{value!r} is not a {self.kind} output")
        return value

    def argmax_score_all(self, w, xs):
        return self._label_of[np.argmax(self._scores(w, xs), axis=1)]

    def argmax_loss_augmented_all(self, w, xs, zs):
        S = self._scores(w, xs)
        rz = self._rows(zs)
        V = S - S[np.arange(len(rz)), rz][:, None] + self.loss_matrix[rz]
        return self._label_of[np.argmax(V, axis=1)]

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1):
        if c1 <= 0:
            raise ContractViolation(f"c1 must be positive, got {c1}")
        owner, weight, outputs = neighbors
        # edge-weighted histogram of the neighbors' labels, one row per point;
        # bincount adds each cell's weights in term order, as a per-point loop
        q = len(self.labels)
        cell = np.asarray(owner, dtype=int) * q + self._rows(outputs)
        hist = np.bincount(cell, np.asarray(weight, dtype=float),
                           minlength=len(xs) * q).reshape(len(xs), q)
        cost = hist @ self.loss_matrix.T + c1 * (
            self.loss_matrix[self._rows(upsilons)] - self._scores(w, xs)
        )
        return self._label_of[np.argmin(cost, axis=1)]

    def delta_sum(self, ys1, ys2, weights=None):
        losses = self.loss_matrix[self._rows(ys1), self._rows(ys2)]
        return float(losses.sum() if weights is None else np.dot(weights, losses))

    def phi_diff_sum(self, xs, ys, zs):
        D = np.subtract(self.incidence[self._rows(ys)], self.incidence[self._rows(zs)],
                        dtype=float)
        return (D.T @ self._inputs(xs)).ravel()


class MulticlassSpace(FiniteLabelSpace):
    """Flat classification with a one-hot block feature map.

    Outputs are class indices ``0 .. num_classes-1``. The joint feature
    vector has ``num_classes`` blocks of length ``input_dim``; the block of
    the chosen class holds the input and every other block is zero (the
    outer product of the input with the class indicator, flattened). The
    loss is zero-one.
    """

    kind = "multiclass"

    def __init__(self, num_classes, input_dim):
        if num_classes < 2:
            raise ContractViolation(f"need at least 2 classes, got {num_classes}")
        self.num_classes = int(num_classes)
        eye = np.eye(self.num_classes)
        super().__init__(range(self.num_classes), eye, 1.0 - eye, input_dim)

    def config(self):
        return {
            "kind": self.kind,
            "num_classes": self.num_classes,
            "input_dim": self.input_dim,
        }


@dataclass(frozen=True)
class Taxonomy:
    """Rooted tree over node ids ``0 .. q-1`` given as parent links.

    ``parents[i]`` is the parent id of node ``i``, or None for the single
    root. Leaves (nodes without children) form the output set of the
    taxonomy space.
    """

    parents: tuple
    names: tuple | None = None

    def __post_init__(self):
        q = len(self.parents)
        if q < 2:
            raise ContractViolation("taxonomy needs at least a root and one leaf")
        roots = [i for i, p in enumerate(self.parents) if p is None]
        if len(roots) != 1:
            raise ContractViolation(f"taxonomy must have exactly one root, found {len(roots)}")
        for i, p in enumerate(self.parents):
            if p is not None and not (0 <= p < q):
                raise ContractViolation(f"node {i} has parent {p} outside 0..{q - 1}")
        # reject cycles: every node must reach the root
        for i in range(q):
            seen = set()
            j = i
            while self.parents[j] is not None:
                if j in seen:
                    raise ContractViolation(f"cycle detected at node {i}")
                seen.add(j)
                j = self.parents[j]

    def __len__(self):
        return len(self.parents)

    @classmethod
    def from_nodes(cls, nodes):
        """Tree from ``[{"id", "parent", "name"?}, ...]``, ids contiguous from 0."""
        nodes = sorted(nodes, key=lambda nd: nd["id"])
        if [nd["id"] for nd in nodes] != list(range(len(nodes))):
            raise ContractViolation("taxonomy node ids must be contiguous from 0")
        return cls(tuple(nd["parent"] for nd in nodes),
                   tuple(str(nd.get("name", i)) for i, nd in enumerate(nodes)))

    def to_nodes(self) -> list:
        """JSON-ready node list; inverse of :meth:`from_nodes`."""
        names = self.names or tuple(str(i) for i in range(len(self)))
        return [{"id": i, "parent": p, "name": names[i]} for i, p in enumerate(self.parents)]

    @cached_property
    def root(self):
        return next(i for i, p in enumerate(self.parents) if p is None)

    @cached_property
    def children(self):
        kids = [[] for _ in self.parents]
        for i, p in enumerate(self.parents):
            if p is not None:
                kids[p].append(i)
        return tuple(tuple(k) for k in kids)

    @cached_property
    def leaves(self):
        return tuple(i for i, k in enumerate(self.children) if not k)

    @cached_property
    def paths(self):
        """Per node: ids on the path to the root, node and root included."""
        out = []
        for i in range(len(self.parents)):
            path = [i]
            while self.parents[path[-1]] is not None:
                path.append(self.parents[path[-1]])
            out.append(tuple(path))
        return tuple(out)

    @cached_property
    def heights(self):
        """Per node: maximum edge distance to a descendant leaf (0 at leaves)."""
        h = [None] * len(self.parents)

        def rec(i):
            if h[i] is None:
                kids = self.children[i]
                h[i] = 0 if not kids else 1 + max(rec(c) for c in kids)
            return h[i]

        rec(self.root)
        return tuple(h)

    def first_common_ancestor(self, a, b):
        on_a = set(self.paths[a])
        for node in self.paths[b]:
            if node in on_a:
                return node
        return self.root


def three_level_taxonomy(branches=3, leaves_per_branch=5):
    """Root with ``branches`` children, each carrying ``leaves_per_branch``
    leaves. branches=3, leaves_per_branch=5 yields the canonical 19-node
    scene-style tree."""
    parents = [None]
    names = ["root"]
    for b in range(branches):
        parents.append(0)
        names.append(f"branch-{b}")
    for b in range(branches):
        for l in range(leaves_per_branch):
            parents.append(1 + b)
            names.append(f"leaf-{b}-{l}")
    return Taxonomy(tuple(parents), tuple(names))


class TaxonomySpace(FiniteLabelSpace):
    """Hierarchical classification over the leaves of a rooted tree.

    Outputs are leaf node ids. The feature vector has one block per tree
    node; the blocks of the leaf and all of its ancestors hold the input,
    the rest are zero. The loss between two leaves is the height of their
    first common ancestor, where height is the maximum edge distance from a
    node down to any of its descendant leaves. Identical leaves meet at
    themselves, so the loss is zero exactly on equal outputs.
    """

    kind = "taxonomy"

    def __init__(self, tree: Taxonomy, input_dim):
        self.tree = tree
        leaves = tree.leaves
        paths = np.zeros((len(leaves), len(tree)))
        for row, leaf in enumerate(leaves):
            paths[row, list(tree.paths[leaf])] = 1.0
        heights = [
            [tree.heights[tree.first_common_ancestor(a, b)] for b in leaves]
            for a in leaves
        ]
        super().__init__(leaves, paths, heights, input_dim)

    def config(self):
        return {"kind": self.kind, "input_dim": self.input_dim, "nodes": self.tree.to_nodes()}


class ChainSequenceSpace(OutputSpace):
    """Label sequences over a fixed alphabet with chain-structured features.

    An input is a ``(T, d)`` array of per-position features; an output is a
    length-T tuple of labels in ``0 .. num_labels-1``. Features concatenate
    a transition histogram (``num_labels**2`` counts, row-major by previous
    label) with per-label summed emissions (``num_labels * d``).

    ``loss="hamming"`` counts differing positions and keeps every oracle
    solvable by dynamic programming. ``loss="zero-one"`` is 1 whenever the
    sequences differ; it does not decompose, so the loss-coupled oracles
    enumerate candidates and refuse inputs whose candidate count exceeds
    ``ENUMERATION_CAP``.
    """

    kind = "chain"
    input_ndim = 2

    LOSS_MODES = ("hamming", "zero-one")

    def __init__(self, num_labels, input_dim, loss="hamming"):
        if num_labels < 2:
            raise ContractViolation(f"need at least 2 labels, got {num_labels}")
        if input_dim < 1:
            raise ContractViolation(f"input_dim must be >= 1, got {input_dim}")
        if loss not in self.LOSS_MODES:
            raise ContractViolation(f"loss must be one of {self.LOSS_MODES}, got {loss!r}")
        self.num_labels = int(num_labels)
        self.input_dim = int(input_dim)
        self.loss = loss
        self.dim = self.num_labels**2 + self.num_labels * self.input_dim

    # --- membership and encoding -------------------------------------------

    def contains(self, y, x=None):
        if not isinstance(y, tuple) or len(y) == 0:
            return False
        for v in y:
            if isinstance(v, bool) or not isinstance(v, (int, np.integer)):
                return False
            if not 0 <= int(v) < self.num_labels:
                return False
        if x is not None and len(y) != self._as_seq_input(x).shape[0]:
            return False
        return True

    def _check_member(self, y):
        if not self.contains(y):
            raise ContractViolation(f"{y!r} is not a label sequence over {self.num_labels} labels")
        return tuple(int(v) for v in y)

    def _as_seq_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim or x.shape[0] < 1:
            raise ContractViolation(
                f"sequence input has shape {x.shape}, expected (T, {self.input_dim})"
            )
        return x

    def decode(self, value):
        if not isinstance(value, list):
            raise ContractViolation(f"chain output must be a list, got {value!r}")
        return self._check_member(tuple(value))

    def encode(self, y):
        return list(self._check_member(y))

    def config(self):
        return {
            "kind": self.kind,
            "num_labels": self.num_labels,
            "input_dim": self.input_dim,
            "loss": self.loss,
        }

    # --- features and loss ---------------------------------------------------

    def phi(self, x, y):
        x = self._as_seq_input(x)
        y = self._check_member(y)
        if len(y) != x.shape[0]:
            raise ContractViolation(
                f"label sequence length {len(y)} does not match input length {x.shape[0]}"
            )
        a, d = self.num_labels, self.input_dim
        out = np.zeros(self.dim)
        for t in range(1, len(y)):
            out[y[t - 1] * a + y[t]] += 1.0
        base = a * a
        for t, label in enumerate(y):
            out[base + label * d : base + (label + 1) * d] += x[t]
        return out

    def delta(self, y1, y2):
        y1, y2 = self._check_member(y1), self._check_member(y2)
        if len(y1) != len(y2):
            raise ContractViolation(
                f"cannot compare label sequences of lengths {len(y1)} and {len(y2)}"
            )
        if self.loss == "zero-one":
            return 0.0 if y1 == y2 else 1.0
        return float(sum(1 for a, b in zip(y1, y2) if a != b))

    # --- enumeration ----------------------------------------------------------

    def outputs(self, x=None):
        if x is None:
            raise ContractViolation("chain enumeration needs the input (its length)")
        length = self._as_seq_input(x).shape[0]
        count = self.num_labels**length
        if count > ENUMERATION_CAP:
            raise UnsupportedConfiguration(
                f"{count} candidate sequences exceed the enumeration cap of {ENUMERATION_CAP}")
        return (tuple(y) for y in itertools.product(range(self.num_labels), repeat=length))

    def random_output(self, x, rng):
        length = self._as_seq_input(x).shape[0]
        return tuple(int(v) for v in rng.integers(self.num_labels, size=length))

    # --- dynamic programs, batched over inputs of one length ----------------

    def _weight_tables(self, w):
        """Transition matrix ``(a, a)`` and per-label emission weights ``(a, d)``."""
        w = as_weights(w, self.dim)
        a = self.num_labels
        return w[: a * a].reshape(a, a), w[a * a :].reshape(a, self.input_dim)

    @staticmethod
    def _best_paths(unary, pairwise):
        """Max-sum path through each chain of an ``(n, T, a)`` unary stack.

        Runs the recursion backward then rebuilds every path greedily from
        the front with first-argmax ties, so each returned row is the
        lexicographically smallest maximizer.
        """
        n, length, _ = unary.shape
        best_to_go = np.empty_like(unary)
        best_to_go[:, -1] = unary[:, -1]
        for t in range(length - 2, -1, -1):
            best_to_go[:, t] = unary[:, t] + np.max(
                pairwise[None] + best_to_go[:, t + 1, None, :], axis=2)
        paths = np.empty((n, length), dtype=int)
        paths[:, 0] = np.argmax(best_to_go[:, 0], axis=1)
        for t in range(1, length):
            paths[:, t] = np.argmax(pairwise[paths[:, t - 1]] + best_to_go[:, t], axis=1)
        return paths

    def _by_length(self, xs, solve):
        """Codes (label tuples) of every input, in input order. Calls
        ``solve(idx, X)`` once per length, ``X`` stacking the inputs ``idx``
        into ``(n, T, d)``; it returns their ``(n, T)`` label paths."""
        xs = [self._as_seq_input(x) for x in xs]
        lengths = np.array([x.shape[0] for x in xs], dtype=int)
        out = np.empty(len(xs), dtype=object)
        # a plain np.unique imports numpy.ma
        for length in sorted(set(lengths.tolist())):
            idx = np.flatnonzero(lengths == length)
            paths = solve(idx, np.stack([xs[i] for i in idx]))
            for i, path in zip(idx.tolist(), paths.tolist()):
                out[i] = tuple(path)
        return out

    def _stack(self, ys, length, what):
        """Outputs of one length as an ``(n, length)`` label array."""
        if any(len(y) != length for y in ys):
            raise ContractViolation(f"{what} length does not match the input")
        Y = np.array(ys, dtype=int).reshape(len(ys), length)
        if Y.size and not 0 <= Y.min() <= Y.max() < self.num_labels:
            raise ContractViolation(f"{what} holds a label outside 0..{self.num_labels - 1}")
        return Y

    def argmax_score_all(self, w, xs):
        pairwise, emit = self._weight_tables(w)
        return self._by_length(xs, lambda idx, X: self._best_paths(X @ emit.T, pairwise))

    def argmax_loss_augmented_all(self, w, xs, zs):
        if self.loss == "zero-one":  # does not decompose: enumerate under the cap
            return super().argmax_loss_augmented_all(w, xs, zs)
        pairwise, emit = self._weight_tables(w)

        def solve(idx, X):
            n, length, _ = X.shape
            Z = self._stack([self._check_member(zs[i]) for i in idx], length,
                            "reference output")
            aug = X @ emit.T + 1.0
            aug[np.arange(n)[:, None], np.arange(length), Z] -= 1.0  # no reward for matches
            return self._best_paths(aug, pairwise)

        return self._by_length(xs, solve)

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1):
        if c1 <= 0:
            raise ContractViolation(f"c1 must be positive, got {c1}")
        if self.loss == "zero-one":  # does not decompose: enumerate under the cap
            return super().argmin_slack_all(w, xs, upsilons, neighbors, c1)
        pairwise, emit = self._weight_tables(w)
        owner, weight, outputs = neighbors
        owner, weight = np.asarray(owner, dtype=int), np.asarray(weight, dtype=float)
        # slot of every term among its owner's terms, in term order
        order = np.argsort(owner, kind="stable")
        slot = np.empty_like(owner)
        slot[order] = np.arange(len(owner)) - np.searchsorted(owner[order], owner[order])

        def solve(idx, X):
            n, length, _ = X.shape
            mine = np.flatnonzero(np.isin(owner, idx))
            at = (np.searchsorted(idx, owner[mine]), slot[mine])
            # slot s holds every point's s-th term; zero weight pads the rest
            W = np.zeros((n, int(slot[mine].max(initial=-1)) + 1))
            W[at] = weight[mine]
            Z = np.zeros(W.shape + (length,), dtype=int)
            Z[at] = self._stack([outputs[e] for e in mine], length, "neighbor output")
            U = self._stack([self._check_member(upsilons[i]) for i in idx], length, "upsilon")
            # position-wise costs: neighbor disagreement + model score + upsilon loss,
            # the neighbor terms added one slot at a time as in a per-point loop
            at_label = (np.arange(n)[:, None], np.arange(length))
            cost = np.zeros((n, length, self.num_labels))
            for s in range(W.shape[1]):
                cost += W[:, s, None, None]
                cost[at_label + (Z[:, s],)] -= W[:, s, None]
            cost += c1 * (1.0 - X @ emit.T)
            cost[at_label + (U,)] -= c1
            return self._best_paths(-cost, c1 * pairwise)

        return self._by_length(xs, solve)


def space_from_config(cfg: dict) -> OutputSpace:
    """Rebuild a space from the dict produced by ``OutputSpace.config``."""
    kind = cfg.get("kind")
    if kind == "multiclass":
        return MulticlassSpace(cfg["num_classes"], cfg["input_dim"])
    if kind == "taxonomy":
        return TaxonomySpace(Taxonomy.from_nodes(cfg["nodes"]), cfg["input_dim"])
    if kind == "chain":
        # older model files also carry an "enumeration_cap", now a constant
        return ChainSequenceSpace(cfg["num_labels"], cfg["input_dim"],
                                  loss=cfg.get("loss", "hamming"))
    raise ContractViolation(f"unknown space kind {kind!r}")
