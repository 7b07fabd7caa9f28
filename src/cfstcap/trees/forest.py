"""Random forest regression and mean-decrease-impurity importances."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DataError
from ..seeding import child_rng
from .cart import (LEAF, NodeTable, Tree, check_count, dense_ranks, fit_regression_tree,
                   training_arrays)


@dataclass
class RandomForest:
    trees: list[Tree]
    n_features: int

    @cached_property
    def _table(self) -> NodeTable:
        return NodeTable.stack(self.trees)

    def predict(self, X) -> np.ndarray:
        return self._table.sum_leaf_values(X) / len(self.trees)


def fit_random_forest(X, y, n_trees: int = 100, max_depth: int = 12,
                      seed: int = 0, max_features="sqrt") -> RandomForest:
    """Bagged variance-splitting trees with sqrt(M) feature subsampling."""
    check_count("n_trees", n_trees)
    if max_features not in ("sqrt", None):
        check_count("max_features", max_features)
    X, y = training_arrays(X, y)
    n, m = X.shape
    mf = max(1, int(math.sqrt(m))) if max_features == "sqrt" else max_features
    ranks = dense_ranks(X)
    trees = []
    for i in range(n_trees):
        rng = child_rng(seed, i)
        rows = rng.integers(0, n, size=n)
        trees.append(fit_regression_tree(X[rows], y[rows], max_depth=max_depth,
                                         max_features=mf, rng=rng, ranks=ranks[rows]))
    return RandomForest(trees=trees, n_features=m)


def tree_mdi(tree: Tree, n_features: int) -> np.ndarray:
    """Per-feature sum of weighted impurity decreases within one tree,
    added in node order."""
    imp = np.zeros(n_features)
    inner = np.flatnonzero(tree.feature != LEAF)
    l, r = tree.left[inner], tree.right[inner]
    n, nl, nr = tree.n_samples[inner], tree.n_samples[l], tree.n_samples[r]
    child = (nl * tree.impurity[l] + nr * tree.impurity[r]) / n
    np.add.at(imp, tree.feature[inner], (n / tree.n_samples[0]) * (tree.impurity[inner] - child))
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
