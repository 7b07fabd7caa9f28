"""CART regression trees built on one presorted split-search kernel, and
the flat node table every tree kind is predicted through."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError

LEAF = -1
# (tree, row) pairs that NodeTable walks at once
LEAF_BLOCK = 1 << 14


@dataclass
class Tree:
    """Flattened binary tree; index 0 is the root. CART trees are numbered
    in preorder, isolation trees in level order. Each tree's builder writes
    its arrays and records its training width and its depth; trees are
    predicted only through a NodeTable stacked from them."""

    feature: np.ndarray     # split feature index, -1 at leaves
    threshold: np.ndarray
    left: np.ndarray        # child indices, -1 at leaves
    right: np.ndarray
    value: np.ndarray       # CART: mean label; isolation: depth + c(n_samples)
    n_samples: np.ndarray
    impurity: np.ndarray    # CART: label variance; isolation: 0
    n_features: int         # width of the training matrix
    depth: int              # of the deepest leaf; the root has depth 0

    def __len__(self) -> int:
        return len(self.feature)


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
            depth=max(t.depth for t in trees),
            n_features=trees[0].n_features,
        )

    def _walk(self, X):
        """Yield (first row, leaf values (trees, rows)) of each row block.

        One numpy step per depth level walks all pairs of a block of rows
        (about LEAF_BLOCK pairs) together; a row goes left when its feature
        value is <= the node's threshold. Each block walks in place in a
        few (trees, block) buffers, so the walk's memory does not grow
        with the row count. The values are valid until the next block.
        """
        X = np.asarray(X, dtype=float)
        n, m = X.shape
        if m != self.n_features:
            raise DataError(f"input width {m} != training width {self.n_features}")
        flat = X.ravel()
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
            yield lo, self.value.take(idx, out=x, mode="clip")

    def leaf_values(self, X) -> np.ndarray:
        """Leaf value reached by every (tree, row) pair, shape (trees, rows)."""
        out = np.empty((len(self.roots), len(X)))
        for lo, values in self._walk(X):
            out[:, lo:lo + values.shape[1]] = values
        return out

    def sum_leaf_values(self, X, start=0.0, scale: float = 1.0) -> np.ndarray:
        """start + scale * v_0 + scale * v_1 + ... for every row, v_k being
        tree k's leaf value, added in tree order as a loop over trees would;
        start may be one value per row, such as an earlier sum."""
        acc = np.full(len(X), start, dtype=float)
        for lo, values in self._walk(X):
            values *= scale
            part = acc[lo:lo + values.shape[1]]
            for step in values:
                part += step
        return acc


def best_split(X, y, order, features):
    """Split minimizing summed child SSE over one node's rows.

    order[:, j] lists the node's rows by ascending X[:, c], ties by
    ascending row id, as a stable argsort of that column would, where c is
    features[j] when order holds just the candidate columns and column j
    of X when it holds all of them. Every candidate feature is scored in
    one 2-D pass: a candidate threshold is the midpoint between consecutive
    distinct sorted values a < b, or a where it rounds to b, so X <= threshold
    sends left exactly the rows scored left. Ties go to the first minimal
    threshold of a feature, then to the first minimal feature in the given order.

    Returns (feature, threshold, score) or None when no valid split exists.
    """
    n = order.shape[0]
    if n < 2:
        return None
    rows = order if order.shape[1] == len(features) else order[:, features]
    at_x = rows * X.shape[1]
    at_x += features
    vs = X.take(at_x)
    ys = y.take(rows)
    csum = ys.cumsum(axis=0)
    np.multiply(ys, ys, out=ys)
    csum2 = ys.cumsum(axis=0)
    head, head2 = csum[:-1], csum2[:-1]
    k = np.arange(1.0, n)[:, None]
    valid = vs[1:] > vs[:-1]
    # score = (csum2 - csum**2 / k) + ((total2 - csum2) - (total - csum)**2 / (n - k))
    left = np.square(head)
    left /= k
    np.subtract(head2, left, out=left)
    right = np.subtract(csum[-1], head)
    np.square(right, out=right)
    right /= n - k
    np.subtract(csum2[-1], head2, out=head2)
    np.subtract(head2, right, out=right)
    score = np.add(left, right, out=left)
    np.copyto(score, np.inf, where=~valid)
    at = score.argmin(axis=0)
    j = int(score[at, np.arange(len(features))].argmin())
    if not valid[:, j].any():
        return None
    i = at[j]
    a, b = vs[i, j], vs[i + 1, j]
    thr = 0.5 * (a + b)  # rounds to b for some neighbouring floats; a splits as scored
    return int(features[j]), float(a if thr == b else thr), float(score[i, j])


def dense_ranks(X) -> np.ndarray:
    """Each entry's count of smaller distinct values in its column (int64),
    so -0.0 ranks as 0.0; X must hold no NaN, which ranks as its maximum."""
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    ranks = np.zeros(X.shape, dtype=np.int64)
    ranks[1:] = sorted_x[1:] > sorted_x[:-1]  # where a sorted column steps up
    np.put_along_axis(ranks, order, ranks.cumsum(axis=0), axis=0)
    return ranks


def key_order(keys, rows, features) -> np.ndarray:
    """order[:, j]: rows by column features[j], ties by row, off unique keys rank * n + row."""
    order = keys.take(rows[:, None] * keys.shape[1] + features)
    order.sort(axis=0)
    return np.remainder(order, len(keys), out=order)


def mean_var(y) -> tuple[float, float]:
    """y.mean() and y.var() of a 1-D float array, bit for bit: the same sums
    and divisions those wrappers make, without their per-call overhead."""
    n = len(y)
    s = np.add.reduce(y) / n
    d = y - s
    return float(s), float(np.add.reduce(d * d) / n)


class _Builder:
    """Grows one tree in preorder, straight into its node arrays.

    A tree that scores every feature at each node argsorts its columns
    once, at the root: a node passes each child its rows in ascending
    order and the child's rows of every sorted column, compressed out of
    its own in order, so no node sorts again. A node whose children are
    leaves at max_depth hands them only their rows. A feature-subsampled
    tree draws all its nodes' candidates at once; a node sorts the int64
    keys rank * n + row of its candidate columns over its rows (key_order),
    the stable argsort's order, ties by row as in the presort. Each node writes
    its mean to its rows of leaf_out, when given, and its children then
    overwrite theirs, so every row ends on its leaf's value.
    """

    def __init__(self, X, y, max_depth, max_features, rng, leaf_out, ranks):
        self.X = np.ascontiguousarray(X, dtype=float)
        self.y = np.ascontiguousarray(y, dtype=float)
        n, m = self.X.shape
        self.max_depth = max_depth
        self.leaf_out = leaf_out
        self.goes_left = np.zeros(n, dtype=bool)
        # room for the most nodes the tree can have: a full tree of
        # max_depth levels, or one with every row in its own leaf
        width = min(2 * n, 2 ** (max(max_depth, 0) + 1)) - 1
        self.feature, self.left, self.right = np.full((3, width), LEAF, dtype=np.int64)
        self.threshold, self.value, self.impurity = np.zeros((3, width))
        self.n_samples = np.zeros(width, dtype=np.int64)
        self.size = 0   # nodes so far
        self.depth = 0  # of the deepest node so far
        self.draws = 0  # candidate sets taken; the j-th node to draw, in preorder, takes row j
        self.candidates = np.broadcast_to(np.arange(m), (width, m))
        self.subsampled = max_features is not None and max_features < m
        if self.subsampled:
            ranks = dense_ranks(self.X) if ranks is None else np.asarray(ranks, dtype=np.int64)
            if ranks.shape != self.X.shape:
                raise DataError(f"ranks of shape {ranks.shape} for X of shape {self.X.shape}")
            self.keys = ranks * n + np.arange(n)[:, None]
            draw = np.argsort(rng.random((width, m)), axis=1, kind="stable")
            self.candidates = np.sort(draw[:, :max_features], axis=1)

    def build(self, rows, order, depth):
        """Node over rows (ascending); order is None when the node sorts
        for itself or is bound to be a leaf."""
        mean, var = mean_var(self.y[rows])
        idx = self.size
        self.size += 1
        self.depth = max(self.depth, depth)
        self.value[idx], self.n_samples[idx], self.impurity[idx] = mean, len(rows), var
        if self.leaf_out is not None:
            self.leaf_out[rows] = mean
        if depth >= self.max_depth or var == 0.0 or len(rows) < 2:
            return idx
        features = self.candidates[self.draws]
        self.draws += 1
        if order is None:
            order = key_order(self.keys, rows, features)
        split = best_split(self.X, self.y, order, features)
        if split is None:
            return idx
        f, thr, _score = split
        go_left = self.X[rows, f] <= thr
        left_rows, right_rows = rows[go_left], rows[~go_left]
        left_order = right_order = None
        if not self.subsampled and depth + 1 < self.max_depth:
            self.goes_left[rows] = go_left
            cols = order.T  # one sorted column per row, compressed in order
            in_left = self.goes_left[cols]
            left_order = cols[in_left].reshape(-1, len(left_rows)).T
            right_order = cols[~in_left].reshape(-1, len(right_rows)).T
        self.feature[idx], self.threshold[idx] = f, thr
        self.left[idx] = self.build(left_rows, left_order, depth + 1)
        self.right[idx] = self.build(right_rows, right_order, depth + 1)
        return idx

    def tree(self) -> Tree:
        """The grown tree, its node arrays trimmed to the nodes it has."""
        arrays = (self.feature, self.threshold, self.left, self.right, self.value,
                  self.n_samples, self.impurity)
        return Tree(*(a[:self.size].copy() for a in arrays),
                    n_features=self.X.shape[1], depth=self.depth)


def check_count(name, v) -> None:
    """ConfigError unless v is an integer >= 1; a bool is not one."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < 1:
        raise ConfigError(f"{name} must be an integer >= 1, got {v!r}")


def training_arrays(X, y) -> tuple[np.ndarray, np.ndarray]:
    """X, y as float arrays; DataError unless a non-empty matrix, one label per row, all finite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty or non-matrix training input")
    if y.shape != X.shape[:1]:
        raise DataError("row count mismatch between X and y")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError("non-finite value in training input")
    return X, y


def fit_regression_tree(X, y, max_depth: int = 8, max_features=None,
                        rng=None, order=None, leaf_out=None, ranks=None) -> Tree:
    """Greedy variance-minimizing regression tree.

    max_features limits the candidate features per split (random forest
    column subsampling); rng (a Generator or a seed) only matters when set.
    order, when given, is np.argsort(X, axis=0, kind="stable"), shared by
    callers that fit many trees on one X; a feature-subsampled tree does
    not use it; it ranks X (dense_ranks) unless given ranks that order X's
    columns as dense_ranks(X) does. leaf_out, when given, a float array of
    one entry per row of X, receives each training row's leaf value.
    """
    X, y = training_arrays(X, y)
    b = _Builder(X, y, max_depth, max_features, np.random.default_rng(rng), leaf_out, ranks)
    if b.subsampled:
        order = None
    elif order is None:
        order = np.argsort(b.X, axis=0, kind="stable")
    b.build(np.arange(X.shape[0]), order, 0)
    return b.tree()
