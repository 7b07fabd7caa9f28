"""Versioned JSON persistence for fitted ensembles."""
from __future__ import annotations

import json

import numpy as np

from ..errors import DataError
from .boosting import GradientBoosting
from .cart import Tree, node_depths
from .forest import RandomForest
from .isolation import IsolationForest, average_path_length

FORMAT_VERSION = 1


def _tree_to_dict(t: Tree) -> dict:
    return {
        "feature": t.feature.tolist(),
        "threshold": t.threshold.tolist(),
        "left": t.left.tolist(),
        "right": t.right.tolist(),
        "value": t.value.tolist(),
        "n_samples": t.n_samples.tolist(),
        "impurity": t.impurity.tolist(),
    }


def _tree_from_dict(d: dict) -> Tree:
    return Tree(
        feature=np.array(d["feature"], dtype=np.int64),
        threshold=np.array(d["threshold"], dtype=float),
        left=np.array(d["left"], dtype=np.int64),
        right=np.array(d["right"], dtype=np.int64),
        value=np.array(d["value"], dtype=float),
        n_samples=np.array(d["n_samples"], dtype=np.int64),
        impurity=np.array(d["impurity"], dtype=float),
    )


def _itree_to_dict(t: Tree) -> dict:
    return {"feature": t.feature.tolist(), "threshold": t.threshold.tolist(),
            "left": t.left.tolist(), "right": t.right.tolist(),
            "size": t.n_samples.tolist()}


def _itree_from_dict(d: dict) -> Tree:
    size = d["size"]
    zeros = [0.0] * len(size)
    t = _tree_from_dict({**d, "value": zeros, "n_samples": size, "impurity": zeros})
    t.value = node_depths(t) + np.array([average_path_length(n) for n in size])
    return t


def ensemble_to_dict(ensemble) -> dict:
    doc = {"format_version": FORMAT_VERSION, "kind": ensemble.kind,
           "seed": ensemble.seed}
    if isinstance(ensemble, RandomForest):
        doc["n_features"] = ensemble.n_features
        doc["trees"] = [_tree_to_dict(t) for t in ensemble.trees]
    elif isinstance(ensemble, GradientBoosting):
        doc["base_score"] = ensemble.base_score
        doc["learning_rate"] = ensemble.learning_rate
        doc["train_mse"] = ensemble.train_mse
        doc["trees"] = [_tree_to_dict(t) for t in ensemble.trees]
    elif isinstance(ensemble, IsolationForest):
        doc["subsample_size"] = ensemble.subsample_size
        doc["n_train"] = ensemble.n_train
        doc["trees"] = [_itree_to_dict(t) for t in ensemble.trees]
    else:
        raise TypeError(f"cannot serialize {type(ensemble).__name__}")
    return doc


def ensemble_from_dict(doc: dict):
    if doc.get("format_version") != FORMAT_VERSION:
        raise DataError(f"unsupported ensemble format version {doc.get('format_version')!r}")
    kind = doc["kind"]
    if kind == "random_forest":
        return RandomForest(trees=[_tree_from_dict(t) for t in doc["trees"]],
                            n_features=doc["n_features"], seed=doc["seed"])
    if kind == "gradient_boosting":
        return GradientBoosting(trees=[_tree_from_dict(t) for t in doc["trees"]],
                                base_score=doc["base_score"],
                                learning_rate=doc["learning_rate"],
                                seed=doc["seed"], train_mse=doc["train_mse"])
    if kind == "isolation_forest":
        return IsolationForest(trees=[_itree_from_dict(t) for t in doc["trees"]],
                               subsample_size=doc["subsample_size"],
                               n_train=doc["n_train"], seed=doc["seed"])
    raise DataError(f"unknown ensemble kind {kind!r}")


def save_ensemble(ensemble, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(ensemble_to_dict(ensemble), fh)


def load_ensemble(path):
    with open(path, encoding="utf-8") as fh:
        return ensemble_from_dict(json.load(fh))
