"""Isolation forest anomaly scoring."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DataError
from ..seeding import child_rng
from .cart import LEAF, NodeTable, Tree

EULER_GAMMA = 0.5772156649


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
    seed: int

    @cached_property
    def _table(self) -> NodeTable:
        return NodeTable.stack(self.trees)

    def mean_path_length(self, X) -> np.ndarray:
        """Mean adjusted isolation depth of every row across all trees."""
        return self._table.sum_leaf_values(X) / len(self.trees)


def _grow(X, rows, depth, depth_cap, rng, nodes) -> int:
    """Append the subtree over rows to nodes in preorder; return its index."""
    idx = len(nodes)
    nodes.append([LEAF, 0.0, LEAF, LEAF, depth + average_path_length(len(rows)),
                  len(rows), 0.0])
    if depth >= depth_cap or len(rows) <= 1:
        return idx
    sub = X[rows]
    lo, hi = sub.min(axis=0), sub.max(axis=0)
    candidates = np.flatnonzero(hi > lo)
    if candidates.size == 0:
        return idx
    # the same draws rng.choice(candidates) makes, without its overhead
    f = int(candidates[rng.integers(candidates.size)])
    thr = float(rng.uniform(lo[f], hi[f]))
    go_left = sub[:, f] <= thr
    if go_left.all() or not go_left.any():
        return idx
    left = _grow(X, rows[go_left], depth + 1, depth_cap, rng, nodes)
    right = _grow(X, rows[~go_left], depth + 1, depth_cap, rng, nodes)
    nodes[idx][:4] = [f, thr, left, right]
    return idx


def fit_isolation_forest(X, n_trees: int = 100, subsample: int = 256,
                         seed: int = 0) -> IsolationForest:
    """Random trees over psi-subsamples, depth-capped at ceil(log2 psi)."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training input")
    n = X.shape[0]
    if subsample > n:
        raise ValueError(f"subsample {subsample} exceeds dataset size {n}")
    if subsample < 2 or n_trees < 1:
        raise ValueError("need subsample >= 2 and n_trees >= 1")
    depth_cap = math.ceil(math.log2(subsample))
    trees = []
    for i in range(n_trees):
        rng = child_rng(seed, i)
        rows = rng.choice(n, size=subsample, replace=False)
        nodes = []
        _grow(X, rows, 0, depth_cap, rng, nodes)
        trees.append(Tree.from_nodes(nodes))
    return IsolationForest(trees=trees, subsample_size=subsample, seed=seed)


def _scores(forest: IsolationForest, X) -> np.ndarray:
    """S(x, n) = 2^(-E(h(x)) / c(n)) of every row of X."""
    if not forest.trees:
        raise DataError("unfitted forest")
    c = average_path_length(forest.subsample_size)
    # Python's scalar pow, once per row: np.power and np.exp2 round some
    # inputs differently in the last bit
    return np.array([2.0 ** (-e_h / c) for e_h in forest.mean_path_length(X).tolist()])


def detect_anomalies(X, contamination: float = 0.02, n_trees: int = 100,
                     subsample: int = 256, seed: int = 0):
    """Score every row; flag the ceil(contamination * n) highest scores.

    Returns (flagged_indices, scores); flagged indices are sorted by
    descending score.
    """
    if not 0 <= contamination < 0.5:
        raise ValueError("contamination must be in [0, 0.5)")
    X = np.asarray(X, dtype=float)
    n = X.shape[0]
    forest = fit_isolation_forest(X, n_trees=n_trees,
                                  subsample=min(subsample, n), seed=seed)
    scores = _scores(forest, X)
    k = math.ceil(contamination * n)
    if k == 0:
        return np.array([], dtype=int), scores
    order = np.argsort(-scores, kind="stable")
    return order[:k], scores
