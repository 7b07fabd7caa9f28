"""Least-squares gradient boosting over the shared regression trees."""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..errors import ConfigError
from ..seeding import child_rng
from .cart import NodeTable, Tree, check_count, fit_regression_tree, training_arrays


@dataclass
class GradientBoosting:
    trees: list[Tree]
    base_score: float
    learning_rate: float
    train_mse: list[float]  # per stage, after adding that stage's tree

    @cached_property
    def _table(self) -> NodeTable:
        return NodeTable.stack(self.trees)

    def predict(self, X) -> np.ndarray:
        return self._table.sum_leaf_values(X, self.base_score, self.learning_rate)


def fit_gradient_boosting(X, y, n_trees: int = 100, max_depth: int = 3,
                          learning_rate: float = 0.1, seed: int = 0) -> GradientBoosting:
    """Stagewise fit to squared-loss residuals from a mean base score."""
    check_count("n_trees", n_trees)
    if not 0 < learning_rate <= 1:
        raise ConfigError("learning_rate must be in (0, 1]")
    X, y = training_arrays(X, y)
    order = np.argsort(X, axis=0, kind="stable")  # shared by every stage
    base = float(y.mean())
    pred = np.full(len(y), base)
    step = np.empty(len(y))  # each stage's tree writes its training rows' leaves here
    trees = []
    mse = []
    for i in range(n_trees):
        rng = child_rng(seed, i)
        tree = fit_regression_tree(X, y - pred, max_depth=max_depth, rng=rng,
                                   order=order, leaf_out=step)
        pred += learning_rate * step
        trees.append(tree)
        mse.append(float(np.mean((y - pred) ** 2)))
    return GradientBoosting(trees=trees, base_score=base,
                            learning_rate=learning_rate, train_mse=mse)
