"""Least-squares gradient boosting over the shared regression trees."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import DataError
from ..seeding import child_rng
from .cart import NodeTable, Tree, fit_regression_tree


@dataclass
class GradientBoosting:
    trees: list[Tree]
    base_score: float
    learning_rate: float
    seed: int
    train_mse: list[float]  # per stage, after adding that stage's tree

    @cached_property
    def _table(self) -> NodeTable:
        return NodeTable.stack(self.trees)

    def predict(self, X) -> np.ndarray:
        return self._table.sum_leaf_values(X, self.base_score, self.learning_rate)


def fit_gradient_boosting(X, y, n_trees: int = 100, max_depth: int = 3,
                          learning_rate: float = 0.1, min_leaf: int = 1,
                          seed: int = 0) -> GradientBoosting:
    """Stagewise fit to squared-loss residuals from a mean base score."""
    if n_trees < 1:
        raise ValueError("n_trees must be >= 1")
    if not 0 < learning_rate <= 1:
        raise ValueError("learning_rate must be in (0, 1]")
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2 or X.shape[0] == 0:
        raise DataError("empty training input")
    base = float(y.mean())
    pred = np.full(len(y), base)
    trees = []
    mse = []
    for i in range(n_trees):
        rng = child_rng(seed, i)
        tree = fit_regression_tree(X, y - pred, max_depth=max_depth,
                                   min_leaf=min_leaf, rng=rng)
        pred = pred + learning_rate * tree.predict(X)
        trees.append(tree)
        mse.append(float(np.mean((y - pred) ** 2)))
    return GradientBoosting(trees=trees, base_score=base,
                            learning_rate=learning_rate, seed=seed, train_mse=mse)
