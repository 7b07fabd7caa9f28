"""Decision-tree machinery: CART regression trees, random forest MDI,
gradient boosting, isolation forest and Shapley attributions."""
from .boosting import GradientBoosting, fit_gradient_boosting
from .cart import Tree, fit_regression_tree
from .forest import RandomForest, fit_random_forest, mdi_importance
from .io import ensemble_from_dict, ensemble_to_dict, load_ensemble, save_ensemble
from .isolation import (IsolationForest, anomaly_score, average_path_length,
                        detect_anomalies, fit_isolation_forest)
from .shapley import (global_importance, shapley_exact, shapley_permutation)

# the split search has one implementation, cart.best_split
SPLIT_BACKEND = "numpy"

__all__ = [
    "SPLIT_BACKEND", "Tree", "fit_regression_tree",
    "RandomForest", "fit_random_forest", "mdi_importance",
    "GradientBoosting", "fit_gradient_boosting",
    "IsolationForest", "fit_isolation_forest", "anomaly_score",
    "average_path_length", "detect_anomalies",
    "shapley_exact", "shapley_permutation", "global_importance",
    "ensemble_to_dict", "ensemble_from_dict", "save_ensemble", "load_ensemble",
]
