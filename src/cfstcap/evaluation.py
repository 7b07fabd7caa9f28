"""Metrics, strength-interval breakdowns, label-noise robustness and
grid sensitivity analysis."""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .data import NUMERIC_FIELDS, Dataset, numeric_columns, split as split_dataset
from .errors import ConfigError, DataError, NumericError
# train is not called here, but perfbench/tracing.py wraps it under this name
from .network import (ConstraintSpec, TrainConfig, predict_specimens, train,
                      train_many, variant_spec)
from .seeding import child_rng


@dataclass(frozen=True)
class MetricsReport:
    rmse: float          # kN
    mape: float          # percent
    r2: float
    cov: float           # CoV of target/predicted ratios
    n: int
    within_10pct: float  # percent of rows with |err|/target < 10%
    within_20pct: float


def compute_metrics(targets, preds, paper_literal_mape: bool = False) -> MetricsReport:
    """Standard regression metrics on capacities in kN.

    CoV is the coefficient of variation of the test-to-predicted ratio.
    paper_literal_mape puts the predicted value in the MAPE denominator.
    """
    t = np.asarray(targets, dtype=float)
    a = np.asarray(preds, dtype=float)
    if t.shape != a.shape or t.size == 0:
        raise DataError("targets/preds must be nonempty and equal length")
    if (t <= 0).any():
        raise DataError("targets must be positive")
    if paper_literal_mape and (a == 0).any():
        raise DataError("zero predicted value with literal MAPE denominator")
    return _metrics(t, a, paper_literal_mape)


def _metrics(t, a, paper_literal_mape: bool = False) -> MetricsReport:
    """compute_metrics on float arrays that it has checked."""
    n = t.size
    err = t - a
    # one np.add.reduce per quantity, in the order np.mean and ndarray.std
    # sum and divide, so every figure is bit-identical to those wrappers
    sse = float(np.add.reduce(err * err))
    rmse = math.sqrt(sse / n)
    denom = a if paper_literal_mape else t
    mape = float(np.add.reduce(np.abs(err / denom)) / n * 100.0)
    dt = t - np.add.reduce(t) / n
    sstot = float(np.add.reduce(dt * dt))
    r2 = 1.0 - sse / sstot if sstot > 0 else (1.0 if sse == 0 else -math.inf)
    ratio = t / a
    ratio_mean = np.add.reduce(ratio) / n
    dr = ratio - ratio_mean
    cov = float(math.sqrt(np.add.reduce(dr * dr) / n) / ratio_mean) \
        if ratio_mean != 0 else math.inf
    rel = np.abs(err) / t
    return MetricsReport(rmse=rmse, mape=mape, r2=r2, cov=cov, n=n,
                         within_10pct=float(np.count_nonzero(rel < 0.10) / n * 100.0),
                         within_20pct=float(np.count_nonzero(rel < 0.20) / n * 100.0))


# strength class boundaries, MPa
CONCRETE_CUTS = (50.0, 100.0)   # NSC < 50 <= HSC < 100 <= UHSC
STEEL_CUTS = (460.0, 700.0)     # NSS < 460 <= HSS < 700 <= UHSS
CONCRETE_CLASSES = ("NSC", "HSC", "UHSC")
STEEL_CLASSES = ("NSS", "HSS", "UHSS")


@dataclass
class StrengthCell:
    steel_class: str
    concrete_class: str
    metrics: MetricsReport | None  # None when the cell is empty
    n: int


def _classify(values, cuts: tuple[float, float]) -> np.ndarray:
    """Class 0 below cuts[0], else 1 below cuts[1], else 2 (NaN included)."""
    return np.where(values < cuts[0], 0, 2 - (values < cuts[1]))


def interval_breakdown(specimens, preds) -> list[StrengthCell]:
    """3x3 metric grid over (steel class, concrete class): nine cells,
    steel class outer, concrete class inner."""
    if not specimens:
        raise DataError("no specimens")
    preds = np.asarray(preds, dtype=float)
    if preds.shape != (len(specimens),):
        raise DataError(f"{preds.size} predictions for {len(specimens)} specimens")
    fy, fc, targets = numeric_columns(specimens, len(NUMERIC_FIELDS))[:, 3:].T
    if (targets <= 0).any():
        raise DataError("targets must be positive")
    # one stable sort by cell: each cell's rows are a contiguous run, in row order
    cell = len(CONCRETE_CLASSES) * _classify(fy, STEEL_CUTS) + _classify(fc, CONCRETE_CUTS)
    order = np.argsort(cell, kind="stable")
    t, a = targets[order], preds[order]
    cells = list(product(STEEL_CLASSES, CONCRETE_CLASSES))
    bounds = [0, *np.cumsum(np.bincount(cell, minlength=len(cells))).tolist()]
    return [StrengthCell(sc, cc, _metrics(t[lo:hi], a[lo:hi]) if hi > lo else None, hi - lo)
            for (sc, cc), lo, hi in zip(cells, bounds, bounds[1:])]


def perturb_labels(labels, p: float, d: float, seed: int = 0) -> np.ndarray:
    """Multiplicative uniform label noise on a random p-fraction of rows.

    Each label independently: with probability p, y' = y * (1 + delta)
    with delta ~ U(-d, d); otherwise unchanged.
    """
    if not 0 <= p <= 1:
        raise ConfigError(f"p must be in [0, 1], got {p}")
    if not 0 <= d < 1:
        raise ConfigError(f"d must be in [0, 1), got {d}")
    y = np.array(labels, dtype=float)
    rng = np.random.default_rng(seed)
    u = rng.uniform(size=len(y))
    delta = rng.uniform(-d, d, size=len(y))
    hit = u <= p
    y[hit] *= 1.0 + delta[hit]
    return y


@dataclass
class RobustnessCell:
    variant: str
    level: float
    mape: float | None
    error: str = ""


def robustness_sweep(dataset: Dataset, variants=("ANN", "ANNWT"),
                     sweep: str = "vary_p", levels=None,
                     fixed_d: float = 0.20, fixed_p: float = 0.30,
                     base_spec: ConstraintSpec | None = None,
                     config: TrainConfig | None = None,
                     feature_order=None, seed: int = 0) -> list[RobustnessCell]:
    """Train each variant on noise-perturbed training labels, evaluate on
    the clean validation split; one MAPE cell per (variant, level).

    Every (level, variant) network trains in one train_many call. A
    network whose training diverges becomes an error cell; every other
    failure propagates.
    """
    from .features import PAPER_SELECTED

    if sweep not in ("vary_p", "vary_d"):
        raise ConfigError(f"sweep must be 'vary_p' or 'vary_d', got {sweep!r}")
    if levels is None:
        levels = [0.1, 0.2, 0.3, 0.4, 0.5] if sweep == "vary_p" \
            else [0.05, 0.10, 0.15, 0.20, 0.25, 0.30]
    feature_order = feature_order or PAPER_SELECTED

    tr, va = split_dataset(dataset, dataset.split_fraction, dataset.split_seed)
    clean = dataset.specimens.column("N")
    labels, specs, cells = [], [], []
    for level_i, level in enumerate(levels):
        p, d = (level, fixed_d) if sweep == "vary_p" else (fixed_p, level)
        noise_seed = int(child_rng(seed, level_i).integers(2**31))
        perturbed = clean.copy()
        perturbed[tr] = perturb_labels(clean[tr], p, d, seed=noise_seed)
        for variant in variants:
            labels.append(perturbed)
            specs.append(variant_spec(variant, base_spec))
            cells.append(RobustnessCell(variant, level, None))
    if not cells:
        return cells
    validation = dataset.specimens.take(va)
    for cell, result in zip(cells, train_many(dataset, np.array(labels), specs,
                                              feature_order, config)):
        if isinstance(result, NumericError):  # annotate, never fabricate
            cell.error = str(result)
        else:
            cell.mape = compute_metrics(clean[va],
                                        predict_specimens(result[0], validation)).mape
    return cells


def sensitivity(predict_fn, X, grid_points: int = 21) -> np.ndarray:
    """Per-feature output range on a grid sweep, normalized to 100 percent.

    Each feature is swept over its observed [min, max] on grid_points
    while the others sit at their means; a constant feature contributes 0.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] == 0:
        raise DataError("empty frame")
    if grid_points < 2:
        raise ConfigError("grid_points must be >= 2")
    m = X.shape[1]
    means = X.mean(axis=0)
    ranges = np.zeros(m)
    for i in range(m):
        lo, hi = X[:, i].min(), X[:, i].max()
        if hi == lo:
            continue
        grid = np.linspace(lo, hi, grid_points)
        rows = np.tile(means, (grid_points, 1))
        rows[:, i] = grid
        preds = np.asarray(predict_fn(rows), dtype=float)
        ranges[i] = preds.max() - preds.min()
    total = ranges.sum()
    if total == 0:
        return np.zeros(m)
    return ranges / total * 100.0
