"""Random forest regression and mean-decrease-impurity importances."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DataError
from ..seeding import child_rng
from .cart import LEAF, NodeTable, Tree, fit_regression_tree


@dataclass
class RandomForest:
    trees: list[Tree]
    n_features: int
    seed: int

    @cached_property
    def _table(self) -> NodeTable:
        return NodeTable.stack(self.trees)

    def predict(self, X) -> np.ndarray:
        return self._table.sum_leaf_values(X) / len(self.trees)


def fit_random_forest(X, y, n_trees: int = 100, max_depth: int = 12,
                      min_leaf: int = 1, seed: int = 0,
                      max_features="sqrt") -> RandomForest:
    """Bagged variance-splitting trees with sqrt(M) feature subsampling."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training input")
    n, m = X.shape
    if max_features == "sqrt":
        mf = max(1, int(math.sqrt(m)))
    else:
        mf = max_features
    trees = []
    for i in range(n_trees):
        rng = child_rng(seed, i)
        rows = rng.integers(0, n, size=n)
        trees.append(fit_regression_tree(X[rows], y[rows], max_depth=max_depth,
                                         min_leaf=min_leaf, max_features=mf, rng=rng))
    return RandomForest(trees=trees, n_features=m, seed=seed)


def tree_mdi(tree: Tree, n_features: int) -> np.ndarray:
    """Per-feature sum of weighted impurity decreases within one tree."""
    imp = np.zeros(n_features)
    n_root = tree.n_samples[0]
    for i in range(len(tree)):
        f = tree.feature[i]
        if f == LEAF:
            continue
        l, r = tree.left[i], tree.right[i]
        n, nl, nr = tree.n_samples[i], tree.n_samples[l], tree.n_samples[r]
        child = (nl * tree.impurity[l] + nr * tree.impurity[r]) / n
        imp[f] += (n / n_root) * (tree.impurity[i] - child)
    return imp


def mdi_importance(forest: RandomForest) -> np.ndarray:
    """Mean impurity-decrease per feature, normalized to sum to 1."""
    if not forest.trees:
        raise DataError("unfitted forest")
    imp = np.zeros(forest.n_features)
    for t in forest.trees:
        imp += tree_mdi(t, forest.n_features)
    imp /= len(forest.trees)
    total = imp.sum()
    if total > 0:
        imp /= total
    return imp
