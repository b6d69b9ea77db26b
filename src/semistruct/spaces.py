"""Concrete output spaces: flat multiclass, taxonomy leaves, label chains.

Each space fixes a canonical output encoding, a joint feature map and a
structured loss, and implements the whole-array contract of ``OutputSpace``.
The multiclass and taxonomy spaces are finite label spaces answering it with
array lookups and matrix products. The chain space answers every oracle with
one dynamic program over a zero-padded stack of its inputs, on label-major
``(T, a, n)`` tables, and returns codes as wide as its longest input: rows of
one -1-padded label matrix read as records, which one reader cuts, or pads,
to the width a pass needs. Its Hamming slack is each point's total term
weight less that of its terms agreeing at each position and label; its
zero-one slack groups the terms by owner and weighs each point's candidates
over its own terms, so its memory follows each point's own term count.
"""

from __future__ import annotations

import itertools
import reprlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import OutputSpace, as_weights, check_same_length, is_int
from .errors import ContractViolation


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
        if not labels or not all(is_int(y) and y >= 0 for y in labels) \
                or len(set(labels)) < len(labels):
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

    def _member_rows(self, ys):
        """Row of every output in ``ys`` (codes or a list of outputs), -1 for
        a non-member. A list numpy reads as one flat int array, free of
        bools, is looked up at once; any other list value by value."""
        a = ys
        if not isinstance(ys, np.ndarray):
            try:  # numpy would read a bool among ints as 0 or 1
                a = None if not {bool, np.bool_}.isdisjoint(map(type, ys)) else np.asarray(ys)
            except (ValueError, OverflowError):  # ragged nesting, ints past int64
                a = None
        if a is not None and a.ndim == 1 and (a.dtype.kind in "iu" or a.size == 0):
            return self._row_of[np.clip(a.astype(int, copy=False), -1, len(self._row_of) - 1)]
        if len(ys) == 1:
            return np.full(1, -1)
        return np.concatenate([self._member_rows([y]) for y in ys])

    def _rows(self, ys):
        """Row of every output in ``ys`` (codes or a list of outputs);
        ContractViolation if one is not a member."""
        rows = self._member_rows(ys)
        if rows.min(initial=0) < 0:
            raise ContractViolation(
                f"{reprlib.repr(ys)} holds a value that is not a {self.kind} output")
        return rows

    def _inputs(self, xs):
        """``xs`` as an ``n x input_dim`` float matrix; one already is returned as is."""
        X = np.asarray(xs, dtype=float)
        if len(xs) and X.shape != (len(xs), self.input_dim):
            raise ContractViolation(f"inputs must have shape ({self.input_dim},)")
        return X.reshape(len(xs), self.input_dim)

    def _scores(self, w, xs):
        """``S[i, r] = w . phi(xs[i], labels[r])``; +-inf or nan, without a
        warning, where an input takes it past the float range."""
        W = as_weights(w, self.dim).reshape(-1, self.input_dim)
        with np.errstate(over="ignore", invalid="ignore"):
            return self._inputs(xs) @ (self.incidence @ W).T

    def as_codes(self, ys):
        """Int array of the labels ``ys``."""
        return ys if isinstance(ys, np.ndarray) else self._label_of[self._rows(ys)]

    def contains_all(self, ys, xs=None):
        return self._member_rows(ys) >= 0

    def decode_all(self, values):
        """The labels ``values``; only JSON's ints decode (numpy integers do not)."""
        ok = self.contains_all(values) & np.fromiter(
            (isinstance(v, int) for v in values), dtype=bool, count=len(values))
        if not ok.all():
            raise ContractViolation(f"{values[int(np.argmin(ok))]!r} is not a {self.kind} output")
        return list(values)

    def phi(self, x, y):
        return np.kron(self.incidence[self._rows([y])[0]], self._inputs([x])[0])

    def random_output(self, x, rng):
        return self.labels[int(rng.integers(len(self.labels)))]

    def argmax_score_all(self, w, xs):
        S = self._scores(w, xs)
        _check_finite_scores(S, 0)
        return self._label_of[np.argmax(S, axis=1)]

    def argmax_loss_augmented_all(self, w, xs, zs):
        check_same_length(xs, zs, "inputs and reference outputs")
        S = self._scores(w, xs)
        rz = self._rows(zs)
        V = S - S[np.arange(len(rz)), rz][:, None] + self.loss_matrix[rz]
        return self._label_of[np.argmax(V, axis=1)]

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1):
        owner, weight, outputs = _slack_terms(len(xs), neighbors, c1)
        # edge-weighted histogram of the neighbors' labels, one row per point;
        # bincount adds each cell's weights in term order, as a per-point loop
        q = len(self.labels)
        cell = owner * q + self._rows(outputs)
        hist = np.bincount(cell, weight, minlength=len(xs) * q).reshape(len(xs), q)
        # a huge c1 takes costs past the float range: they read +-inf, as the
        # scalar slack objective's floats do, and no warning leaks
        with np.errstate(over="ignore"):
            cost = hist @ self.loss_matrix.T + c1 * (
                self.loss_matrix[self._rows(upsilons)] - self._scores(w, xs)
            )
        return self._label_of[np.argmin(cost, axis=1)]

    def delta_all(self, ys1, ys2):
        check_same_length(ys1, ys2, "output lists")
        return self.loss_matrix[self._rows(ys1), self._rows(ys2)]

    def phi_diff_sum(self, xs, ys, zs):
        _check_triples(xs, ys, zs)
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
        _check_indexable(num_classes**2,
                         f"{num_classes} classes need a loss matrix larger than numpy can index")
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
            if p is not None and not (is_int(p) and 0 <= p < q):
                raise ContractViolation(f"node {i} has parent {p!r} outside 0..{q - 1}")
        # reject cycles: every node must be reached from the root
        unreached = set(range(q)).difference(self.breadth_first)
        if unreached:
            raise ContractViolation(f"cycle detected at node {min(unreached)}")

    def __len__(self):
        return len(self.parents)

    @classmethod
    def from_nodes(cls, nodes):
        """Tree from ``[{"id", "parent", "name"?}, ...]``, ids contiguous from 0."""
        if not isinstance(nodes, list) or not all(isinstance(nd, dict) for nd in nodes):
            raise ContractViolation(
                f"taxonomy nodes must be a list of objects, got {reprlib.repr(nodes)}")
        ids = [nd["id"] for nd in nodes]
        if not all(map(is_int, ids)) or sorted(ids) != list(range(len(nodes))):
            raise ContractViolation("taxonomy node ids must be contiguous from 0")
        nodes = sorted(nodes, key=lambda nd: nd["id"])
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

    @property
    def breadth_first(self):
        """The nodes reached from the root, breadth first: parents before children."""
        order = [self.root]
        for i in order:
            order.extend(self.children[i])
        return tuple(order)

    @cached_property
    def heights(self):
        """Per node: maximum edge distance to a descendant leaf (0 at leaves)."""
        h = [0] * len(self.parents)
        for i in reversed(self.breadth_first[1:]):  # children before their parents
            h[self.parents[i]] = max(h[self.parents[i]], h[i] + 1)
        return tuple(h)


def three_level_taxonomy():
    """The canonical 19-node scene-style tree: a root with 3 children, each
    carrying 5 leaves."""
    parents = [None]
    names = ["root"]
    for b in range(3):
        parents.append(0)
        names.append(f"branch-{b}")
    for b in range(3):
        for l in range(5):
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
        # in depth-first leaf order each node's leaves are one block: count[v]
        # leaves from start[v] on
        count, start = np.array([0 if k else 1 for k in tree.children]), np.zeros(len(tree), int)
        for i in reversed(tree.breadth_first[1:]):  # children before their parents
            count[tree.parents[i]] += count[i]
        # leaves under two children of v meet at v: each pair is written once, at
        # its meeting node, in one tree walk (a leaf meets itself at height 0)
        L = np.zeros((count[tree.root],) * 2)
        for v in tree.breadth_first:  # parents before their children
            at, stop = start[v], start[v] + count[v]
            for c in tree.children[v]:
                start[c], at = at, at + count[c]
                rows = slice(start[c], at)
                L[rows, start[v] : start[c]] = L[rows, at:stop] = tree.heights[v]
        # column v is 1 on the rows of v's block: one scatter
        A = np.zeros((len(L), len(tree)))
        A[np.arange(count.sum()) - np.repeat(np.cumsum(count) - count - start, count),
          np.repeat(np.arange(len(tree)), count)] = 1.0
        pos = start[list(tree.leaves)]
        super().__init__(tree.leaves, A[pos], L[np.ix_(pos, pos)], input_dim)

    def config(self):
        return {"kind": self.kind, "input_dim": self.input_dim, "nodes": self.tree.to_nodes()}


class ChainSequenceSpace(OutputSpace):
    """Label sequences over a fixed alphabet with chain-structured features.

    An input is a ``(T, d)`` array of per-position features; an output is a
    length-T tuple of labels in ``0 .. num_labels-1``. Features concatenate
    a transition histogram (``num_labels**2`` counts, row-major by previous
    label) with per-label summed emissions (``num_labels * d``).

    ``loss="hamming"`` counts differing positions. ``loss="zero-one"`` is 1
    whenever the sequences differ; it does not decompose, but both of its
    loss-coupled oracles are still dynamic programs, exact on any length
    (see :meth:`_best_paths_off` and :meth:`_cheapest`).
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
        _check_indexable(num_labels**2 + num_labels * input_dim,
                         f"{num_labels} labels need more weights than numpy can index")
        self.num_labels = int(num_labels)
        self.input_dim = int(input_dim)
        self.loss = loss
        self.dim = self.num_labels**2 + self.num_labels * self.input_dim

    # --- membership and encoding -------------------------------------------

    def _contains(self, y, x=None):
        """Whether ``y`` is a label sequence (of the length of ``x`` when given)."""
        return (isinstance(y, tuple) and len(y) > 0
                and all(is_int(v) and 0 <= v < self.num_labels for v in y)
                and (x is None or len(y) == self._as_seq_input(x).shape[0]))

    def _flat(self, ys):
        """``(labels, lengths, member)`` of a list of tuples of ints (not bools)
        in the int64 range: every label in one array, each tuple's length, and
        whether it is a label sequence; None for a list holding a non-member."""
        if not all(issubclass(t, tuple) for t in set(map(type, ys))):
            return None
        flat = list(itertools.chain.from_iterable(ys))
        if not all(issubclass(t, (int, np.integer)) and t is not bool
                   for t in set(map(type, flat))):
            return None
        try:
            labels = np.fromiter(flat, dtype=np.int64, count=len(flat))
        except OverflowError:
            return None
        lengths = np.fromiter(map(len, ys), dtype=int, count=len(ys))
        # bad labels up to each tuple's end, less those before its start
        bad = np.concatenate(([0], np.cumsum((labels < 0) | (labels >= self.num_labels))))
        end = np.cumsum(lengths)
        return labels, lengths, (lengths > 0) & (bad[end] == bad[end - lengths])

    def contains_all(self, ys, xs=None):
        flat = self._flat(ys)
        if flat is None:
            xs = [None] * len(ys) if xs is None else xs
            return np.fromiter(map(self._contains, ys, xs), dtype=bool, count=len(ys))
        _, lengths, member = flat
        if xs is not None:  # the input lengths of the members alone, as _contains reads them
            at = np.flatnonzero(member)
            member[at] = lengths[at] == (
                xs.shape[1] if self._is_stack(xs)
                else [self._as_seq_input(xs[i]).shape[0] for i in at.tolist()])
        return member

    def _check_member(self, y):
        if not self._contains(y):
            raise ContractViolation(f"{y!r} is not a label sequence over {self.num_labels} labels")
        return tuple(int(v) for v in y)

    def as_codes(self, ys):
        """The outputs as the rows of an int64 label matrix, padded with -1 to
        the longest one's length (1 for none) and read as byte records (see
        :meth:`_labels`). An ndarray is taken to be codes already."""
        if isinstance(ys, np.ndarray):
            return ys
        flat = self._flat(ys)
        if flat is None or not flat[2].all():
            for y in itertools.compress(ys, ~self.contains_all(ys)):
                self._check_member(y)  # raises, naming the first non-member
        labels, lengths, _ = flat
        M = np.full((len(ys), int(lengths.max(initial=1))), -1)
        M[np.arange(M.shape[1]) < lengths[:, None]] = labels
        return _records(M)

    def _labels(self, ys, width=None):
        """The label matrix of the codes of ``ys``, cut to ``width`` columns as a
        view or padded to them with -1 if narrower, and each output's length:
        the full width when no row is padded, else each row's count of labels."""
        codes = self.as_codes(ys)
        M = np.ascontiguousarray(codes).view(np.int64).reshape(len(codes), codes.itemsize // 8)
        if M.min(initial=0) >= 0:
            lengths = np.full(len(M), M.shape[1])
        else:
            lengths = (M >= 0) @ np.ones(M.shape[1], dtype=int)
        if width is not None and M.shape[1] < width:
            M = np.pad(M, ((0, 0), (0, width - M.shape[1])), constant_values=-1)
        return M[:, :width], lengths

    def from_codes(self, codes):
        """Every output as a tuple of Python ints, the padding cut off."""
        M, lengths = self._labels(codes)
        return [tuple(row[:n]) for row, n in zip(M.tolist(), lengths.tolist())]

    def merge_codes(self, n, *parts):
        """Codes of different widths are merged at the widest width."""
        width = max(self.as_codes(codes).itemsize // 8 for _, codes in parts)
        M = np.full((n, width), -1)
        for idx, codes in parts:
            M[idx] = self._labels(codes, width)[0]
        return _records(M)

    def _as_seq_input(self, x):
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim or x.shape[0] < 1:
            raise ContractViolation(
                f"sequence input has shape {x.shape}, expected (T, {self.input_dim})"
            )
        return x

    def decode_all(self, values):
        out = []
        for value in values:
            if not isinstance(value, list):
                raise ContractViolation(f"chain output must be a list, got {value!r}")
            out.append(self._check_member(tuple(value)))
        return out

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
        x, y = self._as_seq_input(x), self._check_member(y)
        if len(y) != x.shape[0]:
            raise ContractViolation(
                f"label sequence length {len(y)} does not match input length {x.shape[0]}"
            )
        Y = np.array([y])
        trans = np.bincount(self._cells(Y).ravel(), minlength=self.num_labels**2 + 1)[:-1]
        return np.concatenate((trans, self._emissions(x[None], Y)[0]))

    def _cells(self, Y):
        """The transition cell ``prev * a + next`` of every step of the rows
        of ``Y``; ``a * a``, a spare cell, for a step into the padding."""
        a = self.num_labels
        return np.where(Y[:, 1:] >= 0, Y[:, :-1] * a + Y[:, 1:], a * a)

    def _emissions(self, X, Y):
        """The ``(m, a * d)`` summed emissions of every row of ``Y`` with the
        ``(m, T, d)`` inputs ``X``. Each cell adds its inputs from 0.0 in
        position order: bincount visits ``X`` in ``(row, position)`` order,
        and label -1 adds to a spare block 0."""
        a, d, m = self.num_labels, self.input_dim, len(Y)
        block = np.arange(1, m * (a + 1), a + 1)[:, None] + Y  # row * (a + 1) + label + 1
        emit = np.bincount((block[:, :, None] * d + np.arange(d)).ravel(),
                           weights=X.ravel(), minlength=m * (a + 1) * d)
        return emit.reshape(m, a + 1, d)[:, 1:].reshape(m, a * d)

    def random_output(self, x, rng):
        length = self._as_seq_input(x).shape[0]
        return tuple(int(v) for v in rng.integers(self.num_labels, size=length))

    # --- dynamic programs, one masked pass over a padded stack ---------------

    def _unary(self, w, xs):
        """``(unary, pairwise, lengths)``: the label-major ``(T, a, n)`` emission
        scores of the :meth:`_stack` of ``xs``, the ``(a, a)`` transition weights,
        each input's length. Points lie on the contiguous last axis, so each
        step of a dynamic program is elementwise work over them. A score past
        the float range reads +-inf or nan, as in ``FiniteLabelSpace._scores``."""
        w, a = as_weights(w, self.dim), self.num_labels
        X, lengths = self._stack(xs)
        with np.errstate(over="ignore", invalid="ignore"):
            scores = X @ w[a * a :].reshape(a, self.input_dim).T
        return np.ascontiguousarray(scores.transpose(1, 2, 0)), w[: a * a].reshape(a, a), lengths

    @staticmethod
    def _best_paths(unary, pairwise, lengths):
        """Max-sum path through each chain of a ``(T, a, n)`` unary stack, ``lengths``
        long, as an ``(n, T)`` label matrix.

        Runs the recursion backward then rebuilds every path greedily from
        the front with first-argmax ties, so each returned row is the
        lexicographically smallest maximizer, -1 past its end; and the
        ``(a, n)`` best scores from each first label, +-inf or nan past the
        float range.
        """
        length, a, n = unary.shape
        inside, shortest = np.arange(length)[:, None] < lengths, lengths.min(initial=length)
        into = pairwise[:, :, None]  # (label, next label, point)
        best_to_go = unary.copy()  # at a chain's last position, its unary term alone
        table, ahead = np.empty((a, a, n)), np.empty((a, n))
        paths = np.empty((length, n), dtype=int)
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(length - 2, -1, -1):
                np.add(into, best_to_go[t + 1], out=table)
                np.maximum.reduce(table, axis=1, out=ahead)
                if t + 1 < shortest:  # every chain goes on past t
                    np.add(unary[t], ahead, out=best_to_go[t])
                else:
                    best_to_go[t] = np.where(inside[t + 1], unary[t] + ahead, unary[t])
            paths[0] = best_to_go[0].argmax(axis=0)
            for t in range(1, length):
                paths[t] = (pairwise.T[:, paths[t - 1]] + best_to_go[t]).argmax(axis=0)
        paths[~inside] = -1
        return paths.T, best_to_go[0]

    @staticmethod
    def _best_paths_off(unary, pairwise, ref, lengths):
        """:meth:`_best_paths` for ``score(y) + [y != ref]``, ``ref`` an
        ``(n, T)`` label matrix. ``gone`` is the best to go once a path has
        left ``ref`` (its 1 added at the end), ``stay`` the best to go from
        ``ref[t]`` on ``ref`` so far; the forward pass adds what the
        backward one added, so its first-argmax ties are the recursion's."""
        length, a, n = unary.shape
        cols, past, ref = np.arange(n), np.arange(length)[:, None] >= lengths, ref.T
        on_ref = np.arange(a)[:, None] == ref[:, None]  # (T, a, n)
        gone, stay = unary + 1.0, unary[np.arange(length)[:, None], ref, cols]
        into, paths = pairwise[:, :, None], np.empty((length, n), dtype=int)
        still = np.ones(n, dtype=bool)  # whether the path so far is ref's
        with np.errstate(over="ignore", invalid="ignore"):  # as in _best_paths
            for t in range(length - 2, -1, -1):  # at a chain's end: gone its 1, stay as is
                ahead = np.where(on_ref[t + 1], stay[t + 1], gone[t + 1])
                gone[t] = unary[t] + np.where(past[t + 1], 1.0, np.max(into + gone[t + 1], axis=1))
                stay[t] = np.where(past[t + 1], stay[t],
                                   stay[t] + np.max(pairwise.T[:, ref[t]] + ahead, axis=0))
            for t in range(length):
                ahead = np.where(still & on_ref[t], stay[t], gone[t])
                paths[t] = np.argmax(pairwise.T[:, paths[t - 1]] + ahead if t else ahead, axis=0)
                still &= on_ref[t, paths[t], cols]
        paths[past] = -1
        return paths.T

    def _is_stack(self, xs, ndim=3):
        """Whether ``xs`` is one ``(n, T, d)`` float stack of inputs of one
        length (or, with ``ndim=2``, one input) to be read as it is."""
        return (isinstance(xs, np.ndarray) and xs.dtype == float and xs.ndim == ndim
                and xs.shape[-2] >= 1 and xs.shape[-1] == self.input_dim)

    def _stack(self, xs):
        """``(X, lengths)`` of the inputs ``xs``: a stack as it is, a list zero-padded to its
        longest; items other than ``(T, d)`` float arrays are read by :meth:`_as_seq_input`."""
        if self._is_stack(xs):
            return np.ascontiguousarray(xs), np.full(len(xs), xs.shape[1])
        xs = [x if self._is_stack(x, ndim=2) else self._as_seq_input(x) for x in xs]
        lengths = np.fromiter(map(len, xs), dtype=int, count=len(xs))
        X = np.zeros((len(xs), int(lengths.max(initial=1)), self.input_dim))
        X[np.arange(X.shape[1]) < lengths[:, None]] = np.concatenate(xs) if xs else 0.0
        return X, lengths

    def argmax_score_all(self, w, xs):
        unary, pairwise, lengths = self._unary(w, xs)
        _check_finite_scores(unary, -1)
        paths, best = self._best_paths(unary, pairwise, lengths)
        _check_finite_scores(best.max(axis=0), 0)  # finite terms can add up past the range
        return _records(paths)

    def argmax_loss_augmented_all(self, w, xs, zs):
        unary, pairwise, lengths = self._unary(w, xs)
        length, _, n = unary.shape
        Z, lz = self._labels(zs, length)
        _check_lengths(lz, lengths, "reference output")
        if self.loss == "zero-one":
            paths = self._best_paths_off(unary, pairwise, Z, lengths)
        else:
            aug = unary + 1.0
            aug[np.arange(length)[:, None], Z.T, np.arange(n)] -= 1.0  # no reward for matches
            paths, _ = self._best_paths(aug, pairwise, lengths)
        return _records(paths)

    def argmin_slack_all(self, w, xs, upsilons, neighbors, c1):
        owner, weight, outputs = _slack_terms(len(xs), neighbors, c1)
        if self.loss == "zero-one" and weight.min(initial=0.0) < 0:
            raise ContractViolation(
                f"zero-one slack needs neighbor weights >= 0, got {weight.min()}")
        unary, pairwise, lengths = self._unary(w, xs)
        length, a, n = unary.shape
        (U, lu), (O, lo) = self._labels(upsilons, length), self._labels(outputs, length)
        _check_lengths(lu, lengths, "upsilon")
        _check_lengths(lo, lengths[owner], "neighbor output")
        if self.loss == "zero-one":
            paths = self._cheapest(unary, pairwise, U, owner, weight, O, c1, lengths)
        else:
            # position-wise costs: neighbor disagreement + model score + upsilon loss.
            # A point's disagreement at (position, label) is its total term weight less
            # that of its terms agreeing there: one bincount over (position, label + 1,
            # point) cells, label -1 past a chain's end adding to a spare label 0
            cell = (np.arange(length)[:, None] * (a + 1) + O.T + 1) * n + owner
            agree = np.bincount(cell.ravel(), np.tile(weight, length),
                                minlength=length * (a + 1) * n).reshape(length, a + 1, n)
            cost = np.subtract(np.bincount(owner, weight, minlength=n), agree[:, 1:],
                               dtype=float)  # float also with no terms
            # as in FiniteLabelSpace, a huge c1 takes costs past the float range
            # (+-inf, and nan where two infinities meet in the recursion)
            with np.errstate(over="ignore", invalid="ignore"):
                cost += c1 * (1.0 - unary)
                cost[np.arange(length)[:, None], U.T, np.arange(n)] -= c1
                paths, _ = self._best_paths(-cost, c1 * pairwise, lengths)
        return _records(paths)

    def _cheapest(self, unary, pairwise, U, owner, weight, O, c1, lengths):
        """Zero-one slack minimizers from the upsilons ``U`` and the neighbor
        terms' owners, weights and outputs ``O``. With weights >= 0 only
        these or the best path ``y*`` can win: any other ``y`` costs ``c1 *
        (s(y*) - s(y)) >= 0``, plus what ``y*`` saves by matching some, more
        than ``y*``, and ties only as a later path."""
        n, length = U.shape
        best, _ = self._best_paths(unary, pairwise, lengths)
        # the terms grouped by owner, each owner's in term order
        count, order = np.bincount(owner, minlength=n), np.argsort(owner, kind="stable")
        weight, O = weight[order], O[order]
        # one flat stack of candidates: each point's best path and upsilon, and
        # every term's output; own says whose each is (-1 past each end)
        C = np.concatenate((best, U, O))
        own = np.concatenate((np.arange(n), np.arange(n), np.repeat(np.arange(n), count)))
        # rank of each candidate in lexicographic order; equal paths share one
        order = np.lexsort(C.T[::-1])
        rank = np.zeros(len(C), dtype=int)
        rank[order[1:]] = np.cumsum((C[order[1:]] != C[order[:-1]]).any(axis=1))
        # every (candidate, term of its point) pair, each candidate's terms in term
        # order, so that bincount adds the neighbor costs as a per-point loop does
        first, reps = (np.cumsum(count) - count)[own], count[own]
        cand = np.repeat(np.arange(len(C)), reps)
        term = np.arange(len(cand)) + np.repeat(first - (np.cumsum(reps) - reps), reps)
        differ = rank[cand] != rank[2 * n :][term]  # apart: at most 4 pair arrays live
        acc = np.bincount(cand, weight[term] * differ, minlength=len(C))
        # a spare label of zeros: -1 past each end adds 0.0 to the sums, each
        # candidate's positions summed along a contiguous row, as numpy pairs them
        unary, pairwise = np.pad(unary, ((0, 0), (0, 1), (0, 0))), np.pad(pairwise, (0, 1))
        # scores and costs past the float range: see OutputSpace.argmin_slack_all
        with np.errstate(over="ignore", invalid="ignore"):
            score = (unary[np.arange(length), C, own[:, None]].sum(axis=1)
                     + pairwise[C[:, :-1], C[:, 1:]].sum(axis=1))
            cost = acc + c1 * (-score + (rank != rank[n + own]))
        # the first cheapest in lexicographic order, per point
        by_cost = np.lexsort((rank, cost, own))
        return C[by_cost[np.cumsum(count + 2) - (count + 2)]]

    # --- whole arrays of pairs ---------------------------------------------
    #
    # A list of outputs is checked once, by ``as_codes``; the losses and the
    # feature sum then read the codes through ``_labels`` at one width (the
    # first list's, or the input stack's), where a pair of one length holds
    # -1 on both sides of every cell cut or padded. ``phi_diff_sum`` adds its
    # emissions as a per-pair loop does: every chain trace row reads them.

    def delta_all(self, ys1, ys2):
        check_same_length(ys1, ys2, "output lists")
        Y1, l1 = self._labels(ys1)
        Y2, l2 = self._labels(ys2, Y1.shape[1])
        bad = np.flatnonzero(l1 != l2)
        if bad.size:
            raise ContractViolation(f"cannot compare label sequences of lengths "
                                    f"{l1[bad[0]]} and {l2[bad[0]]}")
        differ = Y1 != Y2
        losses = differ.any(axis=1) if self.loss == "zero-one" else differ.sum(axis=1)
        return losses.astype(float)

    def phi_diff_sum(self, xs, ys, zs):
        _check_triples(xs, ys, zs)
        ys, zs = self.as_codes(ys), self.as_codes(zs)  # outputs checked before inputs
        X, lx = self._stack(xs)
        (Y, ly), (Z, lz) = self._labels(ys, X.shape[1]), self._labels(zs, X.shape[1])
        bad = np.flatnonzero((ly != lx) | (lz != lx))
        if bad.size:
            i = bad[0]
            raise ContractViolation(f"label sequence length {ly[i] if ly[i] != lx[i] else lz[i]}"
                                    f" does not match input length {lx[i]}")
        cells = self.num_labels**2 + 1
        # integer transition totals, exact in any order; the emissions summed
        # per output as in phi, their differences added pair by pair.
        # An equal pair adds integer zeros and a row of +0.0, which leaves
        # every total's bits as they are, so no pair is picked out
        trans = (np.bincount(self._cells(Y).ravel(), minlength=cells)
                 - np.bincount(self._cells(Z).ravel(), minlength=cells))[:-1]
        with np.errstate(over="ignore", invalid="ignore"):  # past the float range: diverges
            emit = (self._emissions(X, Y) - self._emissions(X, Z)).sum(axis=0)
        return np.concatenate((trans, emit))


def _records(M):
    """Chain codes: the rows of the label matrix ``M`` as byte records."""
    M = np.ascontiguousarray(M, dtype=np.int64)
    return M.view(np.dtype((np.void, 8 * M.shape[1]))).ravel()


def _check_lengths(lm, lengths, what):
    """ContractViolation unless the output lengths ``lm`` are the input
    ``lengths``, naming the first output whose length differs."""
    if len(lm) != len(lengths):
        raise ContractViolation(f"{what} length does not match the input: "
                                f"{len(lm)} {what}s for {len(lengths)} inputs")
    if (lm != lengths).any():
        i = np.flatnonzero(lm != lengths)[0]
        raise ContractViolation(f"{what} length does not match the input: "
                                f"{what} {i} has length {lm[i]}, its input {lengths[i]}")


def _slack_terms(n, neighbors, c1):
    """``argmin_slack_all``'s ``neighbors``, owners and weights as arrays; ContractViolation
    unless ``c1`` is positive and finite, the three have one length (naming both of two
    that differ), every owner indexes one of ``n`` points and every weight is finite
    (naming the first bad one)."""
    if not 0 < c1 < np.inf:  # also false for nan
        raise ContractViolation(f"c1 must be positive and finite, got {c1}")
    owner, weight, outputs = neighbors
    check_same_length(owner, weight, "neighbor term owners and weights")
    check_same_length(owner, outputs, "neighbor term owners and outputs")
    owner, weight = np.asarray(owner, dtype=int), np.asarray(weight, dtype=float)
    bad = owner[(owner < 0) | (owner >= n)]
    if bad.size:
        raise ContractViolation(f"neighbor term owner {bad[0]} is not an index into {n} points")
    bad = weight[~np.isfinite(weight)]
    if bad.size:
        raise ContractViolation(f"neighbor term weight {bad[0]} is not finite")
    return owner, weight, outputs


def _check_finite_scores(scores, axis):
    """ContractViolation naming the first input, along ``axis`` of ``scores``,
    whose scores are not all finite: its prediction would rest on none."""
    finite = np.isfinite(scores)
    if not finite.all():  # one pass; the per-input view only to name one
        per_input = np.moveaxis(finite, axis, 0).reshape(finite.shape[axis], -1).all(axis=1)
        raise ContractViolation(f"the scores of input {int(np.argmin(per_input))} are not finite "
                                f"(inputs too large for the model?)")


def _check_indexable(entries, message):
    """ContractViolation with ``message`` unless numpy can index an array of
    ``entries`` float64 values: their byte count must fit its index type."""
    if entries * 8 > np.iinfo(np.intp).max:
        raise ContractViolation(message)


def _check_triples(xs, ys, zs):
    """The length checks of ``phi_diff_sum``."""
    check_same_length(xs, ys, "inputs and outputs")
    check_same_length(ys, zs, "output lists")


def _count(cfg, key):
    """The count ``cfg[key]``; ContractViolation unless it is an int (a bool
    or a float is not cut to one)."""
    if not is_int(cfg[key]):
        raise ContractViolation(f"space field {key!r} must be an integer, got {cfg[key]!r}")
    return cfg[key]


def space_from_config(cfg: dict) -> OutputSpace:
    """Rebuild a space from the dict produced by ``OutputSpace.config``.
    Raises KeyError for a missing field, ContractViolation for a bad one."""
    kind = cfg.get("kind")
    if kind == "multiclass":
        return MulticlassSpace(_count(cfg, "num_classes"), _count(cfg, "input_dim"))
    if kind == "taxonomy":
        return TaxonomySpace(Taxonomy.from_nodes(cfg["nodes"]), _count(cfg, "input_dim"))
    if kind == "chain":
        # older model files also carry an "enumeration_cap": accepted and ignored
        return ChainSequenceSpace(_count(cfg, "num_labels"), _count(cfg, "input_dim"),
                                  loss=cfg.get("loss", "hamming"))
    raise ContractViolation(f"unknown space kind {kind!r}")
