"""Isolation forest anomaly scoring."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError, DataError
from ..seeding import child_rng
from .cart import LEAF, NodeTable, Tree, check_count

EULER_GAMMA = 0.5772156649
# (tree, row) pairs grown, then scored, together: 16 trees of 256-row subsamples.
# Blocks of 64 trees (cart.LEAF_BLOCK pairs) were no faster and raised the
# fit benchmark's peak RSS by about 0.5 MB.
GROW_BLOCK = 1 << 12


def average_path_length(n: int) -> float:
    """Expected unsuccessful-search path length c(n) in a binary search tree."""
    if n <= 1:
        return 0.0
    if n == 2:
        return 1.0
    h = math.log(n - 1) + EULER_GAMMA
    return 2.0 * h - 2.0 * (n - 1) / n


@dataclass
class IsolationForest:
    trees: list[Tree]       # leaf value: depth + c(leaf size)
    subsample_size: int

    def mean_path_length(self, X) -> np.ndarray:
        """Mean adjusted isolation depth of every row across all trees."""
        block = max(1, GROW_BLOCK // self.subsample_size)
        # NodeTable.stack refuses the one empty block of a forest of no trees
        blocks = [self.trees[i:i + block] for i in range(0, len(self.trees), block)] or [[]]
        return _path_length_sum(blocks, X) / len(self.trees)


def _path_length_sum(blocks, X) -> np.ndarray:
    """Every row's adjusted depth summed over the trees of each block of
    blocks in turn, in tree order; one block's node table at a time."""
    total = 0.0
    for trees in blocks:
        total = NodeTable.stack(trees).sum_leaf_values(X, total)
    return total


def _grow_block(X, seed, first, count, subsample, depth_cap, c_table) -> list[Tree]:
    """Trees first .. first + count - 1, grown together one level per step.

    Tree i draws from child_rng(seed, i): its subsample first, then at each
    level one integers(0, candidate_counts) draw over its open nodes, in
    node order, and after it one uniform(lo, hi) draw. So tree i depends
    only on X, seed, i and the subsample size, not on the block. Nodes are
    numbered in level order, each tree from 0 at its root.
    """
    n, m = X.shape
    rngs = [child_rng(seed, first + t) for t in range(count)]
    rows = np.concatenate([rng.choice(n, size=subsample, replace=False) for rng in rngs])
    # room for the most nodes a tree can have: a full tree of depth_cap
    # levels, or one with every sampled row in its own leaf
    width = min(2 * subsample, 2 ** (depth_cap + 1)) - 1
    feature = np.full(count * width, LEAF, dtype=np.int64)
    threshold = np.zeros(count * width)
    left = np.full(count * width, LEAF, dtype=np.int64)
    right = np.full(count * width, LEAF, dtype=np.int64)
    value = np.zeros(count * width)
    n_samples = np.zeros(count * width, dtype=np.int64)
    size = np.ones(count, dtype=np.int64)   # nodes each tree has so far
    deepest = np.zeros(count, dtype=np.int64)  # each tree's deepest level so far
    # the level's nodes, tree by tree and in node order: each one's tree,
    # slot in the node arrays and row count; rows holds their rows in turn
    tree = np.arange(count)
    slot = tree * width
    sizes = np.full(count, subsample)
    for depth in range(depth_cap + 1):
        deepest[tree] = depth
        value[slot] = depth + c_table[sizes]
        n_samples[slot] = sizes
        if depth == depth_cap:
            break
        starts = np.cumsum(sizes) - sizes
        sub = X[rows]
        lo = np.minimum.reduceat(sub, starts)
        hi = np.maximum.reduceat(sub, starts)
        candidate = hi > lo
        n_candidates = candidate.sum(axis=1)
        live = np.flatnonzero(n_candidates)
        if live.size == 0:
            break
        n_candidates = n_candidates[live]
        # live nodes of one tree are a run of live; draw each tree's run
        per_tree = np.bincount(tree[live], minlength=count)
        ends = np.cumsum(per_tree).tolist()
        runs = [(rngs[t], ends[t] - k, ends[t])
                for t, k in enumerate(per_tree.tolist()) if k]
        pick = np.empty(live.size, dtype=np.int64)
        for rng, a, b in runs:
            pick[a:b] = rng.integers(0, n_candidates[a:b])
        # the pick-th candidate feature: the count of candidates up to it is pick + 1
        f = (np.cumsum(candidate[live], axis=1) <= pick[:, None]).sum(axis=1)
        # uniform(lo, hi) is lo + (hi - lo) * random(), bit for bit; so one
        # random() draw per tree, scaled here for the whole block at once
        u = np.empty(live.size)
        for rng, a, b in runs:
            u[a:b] = rng.random(b - a)
        lo_f = lo[live, f]
        thr = lo_f + (hi[live, f] - lo_f) * u
        # partition the live nodes' rows; a node whose rows all go one way stays a leaf
        rank = np.full(len(sizes), -1)
        rank[live] = np.arange(live.size)
        row_rank = np.repeat(rank, sizes)
        kept = row_rank >= 0
        rows, row_rank = rows[kept], row_rank[kept]
        go_left = X[rows, f[row_rank]] <= thr[row_rank]
        n_left = np.bincount(row_rank[go_left], minlength=live.size)
        split = (n_left > 0) & (n_left < sizes[live])
        if not split.any():
            break
        at = live[split]
        split_slot, split_tree = slot[at], tree[at]
        feature[split_slot] = f[split]
        threshold[split_slot] = thr[split]
        # children are numbered after the tree's nodes so far, in parent order
        per_tree = np.bincount(split_tree, minlength=count)
        order_in_tree = np.arange(at.size) - (np.cumsum(per_tree) - per_tree)[split_tree]
        left_id = size[split_tree] + 2 * order_in_tree
        left[split_slot] = left_id
        right[split_slot] = left_id + 1
        size += 2 * per_tree
        # the next level: each split node's left rows, then its right rows
        child_rank = np.full(live.size, -1)
        child_rank[split] = np.arange(at.size)
        key = 2 * child_rank[row_rank] + ~go_left
        kept = key >= 0
        key = key[kept]
        rows = rows[kept][np.argsort(key, kind="stable")]
        sizes = np.bincount(key, minlength=2 * at.size)
        tree = np.repeat(split_tree, 2)
        slot = tree * width + np.stack((left_id, left_id + 1), axis=1).ravel()
    shape = (count, width)
    cols = [a.reshape(shape) for a in (feature, threshold, left, right, value, n_samples)]
    return [Tree(*(c[t, :k].copy() for c in cols), impurity=np.zeros(k), n_features=m,
                 depth=d) for t, (k, d) in enumerate(zip(size.tolist(), deepest.tolist()))]


def _grow_blocks(X, n_trees: int, subsample: int, seed: int):
    """Yield the forest's trees a block of about GROW_BLOCK (tree, row) pairs at a time."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training input")
    if not np.isfinite(X).all():
        raise DataError("non-finite value in training input")
    check_count("n_trees", n_trees)
    check_count("subsample", subsample)
    n = X.shape[0]
    if subsample > n:
        raise ConfigError(f"subsample {subsample} exceeds dataset size {n}")
    if subsample < 2:
        raise ConfigError(f"subsample must be >= 2, got {subsample}")
    depth_cap = math.ceil(math.log2(subsample))
    c_table = np.array([average_path_length(k) for k in range(subsample + 1)])
    block = max(1, GROW_BLOCK // subsample)
    for first in range(0, n_trees, block):
        yield _grow_block(X, seed, first, min(block, n_trees - first),
                          subsample, depth_cap, c_table)


def fit_isolation_forest(X, n_trees: int = 100, subsample: int = 256,
                         seed: int = 0) -> IsolationForest:
    """Random trees over psi-subsamples, depth-capped at ceil(log2 psi).

    The trees grow level by level, a block of about GROW_BLOCK
    (tree, row) pairs at once.
    """
    trees = [t for block in _grow_blocks(X, n_trees, subsample, seed) for t in block]
    return IsolationForest(trees=trees, subsample_size=subsample)


def _scores(forest: IsolationForest, X) -> np.ndarray:
    """S(x, n) = 2^(-E(h(x)) / c(n)) of every row of X."""
    return _score_lengths(forest.mean_path_length(X), forest.subsample_size)


def _score_lengths(mean_path_length, subsample: int) -> np.ndarray:
    """S(x, n) of each row's mean adjusted depth E(h(x)), for psi = subsample."""
    c = average_path_length(subsample)
    # Python's scalar pow, once per row: np.power and np.exp2 round some
    # inputs differently in the last bit
    return np.array([2.0 ** (-e_h / c) for e_h in mean_path_length.tolist()])


def detect_anomalies(X, contamination: float = 0.02, n_trees: int = 100,
                     subsample: int = 256, seed: int = 0):
    """Score every row; flag the ceil(contamination * n) highest scores.

    Returns (flagged_indices, scores); flagged indices are sorted by
    descending score.
    """
    if not 0 <= contamination < 0.5:
        raise ConfigError(f"contamination must be in [0, 0.5), got {contamination}")
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    if n < 2:
        raise DataError(f"anomaly screening needs at least two rows, got {n}")
    subsample = min(subsample, n)
    # each block of trees is scored as it is grown, then dropped
    lengths = _path_length_sum(_grow_blocks(X, n_trees, subsample, seed), X)
    scores = _score_lengths(lengths / n_trees, subsample)
    k = math.ceil(contamination * n)
    if k == 0:
        return np.array([], dtype=int), scores
    order = np.argsort(-scores, kind="stable")
    return order[:k], scores
