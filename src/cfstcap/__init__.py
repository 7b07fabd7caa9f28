"""Axial capacity prediction for circular concrete-filled steel tube columns.

Engineered features, consensus feature selection, anomaly screening, a
neural network trained under physics-motivated loss constraints,
design-code baselines and explanation/robustness harnesses.
"""

__version__ = "0.1.0"

from .data import Dataset, Specimen, generate_synthetic, load_csv, save_csv
from .features import FeatureFrame, build_frame
from .network import ConstraintSpec, TrainConfig, predict, train, variant_spec

__all__ = [
    "__version__", "Dataset", "Specimen", "generate_synthetic", "load_csv",
    "save_csv", "FeatureFrame", "build_frame",
    "ConstraintSpec", "TrainConfig", "train", "predict", "variant_spec",
]
