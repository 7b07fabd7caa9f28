"""CART regression trees built on one presorted split-search kernel, and
the flat node table every tree kind is predicted through."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DataError

LEAF = -1
# (tree, row) pairs that NodeTable.leaf_values walks at once
LEAF_BLOCK = 1 << 14


@dataclass
class Tree:
    """Flattened binary tree in preorder; index 0 is the root."""

    feature: np.ndarray     # split feature index, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray        # child indices, -1 at leaves
    right: np.ndarray
    value: np.ndarray       # CART: mean label; isolation: depth + c(n_samples)
    n_samples: np.ndarray
    impurity: np.ndarray    # CART: label variance; isolation: 0
    n_features: int         # width of the training matrix

    @classmethod
    def from_nodes(cls, nodes, n_features: int) -> Tree:
        """Tree from [feature, threshold, left, right, value, n, impurity] rows."""
        cols = list(zip(*nodes))
        return cls(
            feature=np.array(cols[0], dtype=np.int64),
            threshold=np.array(cols[1], dtype=float),
            left=np.array(cols[2], dtype=np.int64),
            right=np.array(cols[3], dtype=np.int64),
            value=np.array(cols[4], dtype=float),
            n_samples=np.array(cols[5], dtype=np.int64),
            impurity=np.array(cols[6], dtype=float),
            n_features=n_features,
        )

    def __len__(self) -> int:
        return len(self.feature)

    @cached_property
    def _table(self) -> NodeTable:
        return NodeTable.stack([self])

    def predict(self, X) -> np.ndarray:
        return self._table.leaf_values(X)[0]


def node_depths(tree: Tree) -> np.ndarray:
    """Depth of every node of one tree; the root has depth 0."""
    depth = np.zeros(len(tree), dtype=np.int64)
    frontier = np.zeros(1, dtype=np.int64)
    level = 0
    while frontier.size:
        depth[frontier] = level
        inner = frontier[tree.feature[frontier] != LEAF]
        frontier = np.concatenate((tree.left[inner], tree.right[inner]))
        level += 1
    return depth


@dataclass(frozen=True)
class NodeTable:
    """Several trees stacked into one flat node table.

    Child indices are offset into the table. Leaves loop to themselves
    (both children = self, threshold +inf, feature 0), so after `depth`
    steps, the deepest tree's depth, every (tree, row) pair rests on its
    leaf: shallow trees stay put while deeper ones keep walking.
    """

    feature: np.ndarray
    threshold: np.ndarray
    children: np.ndarray    # [2i] right child of node i, [2i + 1] left child
    value: np.ndarray
    roots: np.ndarray
    depth: int
    n_features: int

    @classmethod
    def stack(cls, trees) -> NodeTable:
        if not trees:
            raise DataError("no trees to predict with")
        sizes = np.array([len(t) for t in trees])
        roots = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        feature = np.concatenate([t.feature for t in trees])
        leaf = feature == LEAF
        own = np.arange(len(feature))
        shift = np.repeat(roots, sizes)
        left = np.where(leaf, own, np.concatenate([t.left for t in trees]) + shift)
        right = np.where(leaf, own, np.concatenate([t.right for t in trees]) + shift)
        return cls(
            feature=np.where(leaf, 0, feature),
            threshold=np.where(leaf, np.inf,
                               np.concatenate([t.threshold for t in trees])),
            children=np.stack((right, left), axis=1).ravel(),
            value=np.concatenate([t.value for t in trees]),
            roots=roots,
            depth=max(int(node_depths(t).max()) for t in trees),
            n_features=trees[0].n_features,
        )

    def leaf_values(self, X) -> np.ndarray:
        """Leaf value reached by every (tree, row) pair, shape (trees, rows).

        One numpy step per depth level walks all pairs of a block of rows
        (about LEAF_BLOCK pairs) together; a row goes left when its feature
        value is <= the node's threshold. Each block walks in place in a
        few (trees, block) buffers, so the walk's memory does not grow
        with the row count.
        """
        X = np.asarray(X, dtype=float)
        n, m = X.shape
        if m != self.n_features:
            raise DataError(f"input width {m} != training width {self.n_features}")
        flat = X.ravel()
        out = np.empty((len(self.roots), n))
        block = max(1, LEAF_BLOCK // len(self.roots))
        for lo in range(0, n, block):
            rows = min(block, n - lo)
            idx = np.repeat(self.roots[:, None], rows, axis=1)
            pos = np.empty_like(idx)
            x, threshold = np.empty(idx.shape), np.empty(idx.shape)
            go_left = np.empty(idx.shape, dtype=bool)
            row_start = np.arange(lo, lo + rows) * m
            # every index is a valid node or cell, so "clip" never clips;
            # it lets take write into out= without a buffered copy
            for _ in range(self.depth):
                self.feature.take(idx, out=pos, mode="clip")
                pos += row_start
                flat.take(pos, out=x, mode="clip")
                self.threshold.take(idx, out=threshold, mode="clip")
                np.less_equal(x, threshold, out=go_left)
                np.multiply(idx, 2, out=pos)
                pos += go_left
                self.children.take(pos, out=idx, mode="clip")
            self.value.take(idx, out=out[:, lo:lo + rows], mode="clip")
        return out

    def sum_leaf_values(self, X, start: float = 0.0, scale: float = 1.0) -> np.ndarray:
        """start + scale * v_0 + scale * v_1 + ... for every row, v_k being
        tree k's leaf value, added in tree order as a loop over trees would."""
        steps = self.leaf_values(X)
        steps *= scale
        acc = np.full(steps.shape[1], start)
        for step in steps:
            acc += step
        return acc


def best_split(X, y, order, features, min_leaf):
    """Split minimizing summed child SSE over one node's rows.

    order[:, f] lists the node's rows by ascending X[:, f], ties by
    ascending row id, as a stable argsort of that column would. Every
    candidate feature is scored in one 2-D pass: a candidate threshold is
    the midpoint between consecutive distinct sorted values. Ties go to
    the first minimal threshold of a feature, then to the first minimal
    feature in the given order.

    Returns (feature, threshold, score) or None when no valid split exists.
    """
    n = order.shape[0]
    if n < 2 * min_leaf:
        return None
    rows = order[:, features]
    vs = X[rows, features]
    ys = y[rows]
    csum = np.cumsum(ys, axis=0)
    csum2 = np.cumsum(ys * ys, axis=0)
    total = csum[-1]
    total2 = csum2[-1]
    k = np.arange(1, n)[:, None]
    valid = (vs[1:] > vs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
    left = csum2[:-1] - csum[:-1] ** 2 / k
    right = (total2 - csum2[:-1]) - (total - csum[:-1]) ** 2 / (n - k)
    score = np.where(valid, left + right, np.inf)
    at = score.argmin(axis=0)
    j = int(score[at, np.arange(len(features))].argmin())
    if not valid[:, j].any():
        return None
    i = at[j]
    return int(features[j]), float(0.5 * (vs[i, j] + vs[i + 1, j])), float(score[i, j])


def mean_var(y) -> tuple[float, float]:
    """y.mean() and y.var() of a 1-D float array, bit for bit: the same sums
    and divisions those wrappers make, without their per-call overhead."""
    n = len(y)
    s = np.add.reduce(y) / n
    d = y - s
    return float(s), float(np.add.reduce(d * d) / n)


class _Builder:
    """Grows one tree in preorder over columns argsorted once, at the root.

    A node passes each child its rows in ascending order and the child's
    rows of every sorted column, compressed out of its own in order, so no
    node sorts again.
    """

    def __init__(self, X, y, max_depth, min_leaf, max_features, rng):
        self.X = np.ascontiguousarray(X, dtype=float)
        self.y = np.ascontiguousarray(y, dtype=float)
        self.max_depth = max_depth
        self.min_leaf = min_leaf
        self.max_features = max_features
        self.rng = rng
        self.goes_left = np.zeros(len(self.y), dtype=bool)
        self.nodes: list[list] = []  # feature, threshold, left, right, value, n, impurity

    def _candidate_features(self):
        m = self.X.shape[1]
        if self.max_features is None or self.max_features >= m:
            return np.arange(m)
        chosen = self.rng.choice(m, size=self.max_features, replace=False)
        return np.sort(chosen)

    def build(self, rows, order, depth):
        mean, var = mean_var(self.y[rows])
        idx = len(self.nodes)
        self.nodes.append([LEAF, 0.0, LEAF, LEAF, mean, len(rows), var])
        if depth >= self.max_depth or var == 0.0 or len(rows) < 2 * self.min_leaf:
            return idx
        split = best_split(self.X, self.y, order, self._candidate_features(),
                           self.min_leaf)
        if split is None:
            return idx
        f, thr, _score = split
        go_left = self.X[rows, f] <= thr
        n_left = int(go_left.sum())
        self.goes_left[rows] = go_left
        cols = order.T  # one sorted column per row, compressed in order
        in_left = self.goes_left[cols]
        left_order = cols[in_left].reshape(-1, n_left).T
        right_order = cols[~in_left].reshape(-1, len(rows) - n_left).T
        left = self.build(rows[go_left], left_order, depth + 1)
        right = self.build(rows[~go_left], right_order, depth + 1)
        self.nodes[idx][0] = f
        self.nodes[idx][1] = thr
        self.nodes[idx][2] = left
        self.nodes[idx][3] = right
        return idx


def fit_regression_tree(X, y, max_depth: int = 8, min_leaf: int = 1,
                        seed: int | None = None, max_features=None,
                        rng=None) -> Tree:
    """Greedy variance-minimizing regression tree.

    max_features limits the candidate features per split (random forest
    column subsampling); rng/seed only matter when it is set.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty or non-matrix training input")
    if X.shape[0] != y.shape[0]:
        raise DataError("row count mismatch between X and y")
    if min_leaf < 1:
        raise ValueError("min_leaf must be >= 1")
    if rng is None:
        rng = np.random.default_rng(seed)
    b = _Builder(X, y, max_depth, min_leaf, max_features, rng)
    b.build(np.arange(X.shape[0]), np.argsort(b.X, axis=0, kind="stable"), 0)
    return Tree.from_nodes(b.nodes, X.shape[1])
