"""Engineered features for circular CFST specimens, correlations and selection.

Force-like features (Nu0, Ns, Nc) are stored in kN to match the label;
areas in mm^2, volumes in mm^3, everything else dimensionless.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import numeric_columns
from .errors import ConfigError, DataError

RAW_NAMES = ["D", "t", "L", "fy", "fc"]
ENGINEERED_NAMES = ["As", "Ac", "Asc", "C", "D_over_t", "Vs", "Vc",
                    "xi", "Nu0", "Ns", "Nc", "SEF", "alpha_sc", "lambda"]
FEATURE_VOCAB = RAW_NAMES + ENGINEERED_NAMES

# Published ten-feature input set.
PAPER_SELECTED = ["Nu0", "As", "Vc", "Vs", "D", "Ac", "Asc", "C", "Ns", "fc"]
SELECTION_MODES = ("paper_fixed", "consensus")

LABEL_NAME = "N"


def section_areas(D, t):
    """Steel tube and concrete core areas (mm^2), on scalars or arrays."""
    inner = D - 2 * t
    As = np.pi * (D * D - inner * inner) / 4.0
    Ac = np.pi * inner * inner / 4.0
    return As, Ac


def engineer_arrays(D, t, L, fy, fc) -> dict[str, np.ndarray]:
    """Raw and engineered feature columns from parallel value arrays."""
    D, t, L, fy, fc = (np.asarray(a, dtype=float) for a in (D, t, L, fy, fc))
    As, Ac = section_areas(D, t)
    Ns = As * fy / 1e3
    Nc = Ac * fc / 1e3
    return {
        "D": D, "t": t, "L": L, "fy": fy, "fc": fc,
        "As": As, "Ac": Ac, "Asc": As + Ac, "C": np.pi * D,
        "D_over_t": D / t, "Vs": As * L, "Vc": Ac * L,
        "xi": (As * fy) / (Ac * fc), "Nu0": Ns + Nc, "Ns": Ns, "Nc": Nc,
        "SEF": D / (t * np.sqrt(fy / 235.0)),
        "alpha_sc": As / Ac, "lambda": 4.0 * L / D,
    }


def design_matrix(D, t, L, fy, fc, names) -> np.ndarray:
    """Feature matrix with the given column order from raw value arrays."""
    vals = engineer_arrays(D, t, L, fy, fc)
    return np.column_stack([vals[n] for n in names])


@dataclass(frozen=True)
class FeatureFrame:
    """Named column matrix of raw + engineered features with label vector."""

    names: tuple[str, ...]
    X: np.ndarray          # shape (n, len(names))
    y: np.ndarray          # capacity, kN

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[1] != len(self.names):
            raise ValueError("column count does not match names")
        if self.y.shape != (self.X.shape[0],):
            raise ValueError("label length does not match rows")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate feature names")
        unknown = set(self.names) - set(FEATURE_VOCAB)
        if unknown:
            raise ValueError(f"names outside canonical vocabulary: {sorted(unknown)}")

    def __len__(self) -> int:
        return self.X.shape[0]

    def column(self, name: str) -> np.ndarray:
        return self.X[:, self.names.index(name)]

    def select(self, names) -> "FeatureFrame":
        unknown = [n for n in names if n not in self.names]
        if unknown:
            raise DataError(f"unknown features {unknown}; the frame has {list(self.names)}")
        idx = [self.names.index(n) for n in names]
        return FeatureFrame(tuple(names), self.X[:, idx].copy(), self.y)


def build_frame(specimens, names=None) -> FeatureFrame:
    """Assemble the full raw + engineered frame from specimens."""
    if not specimens:
        raise DataError("no specimens")
    names = tuple(names) if names is not None else tuple(FEATURE_VOCAB)
    D, t, L, fy, fc, N = numeric_columns(specimens, 6).T
    return FeatureFrame(names, design_matrix(D, t, L, fy, fc, names), N)


def pearson(x, y) -> float:
    """Pearson correlation with population statistics.

    A constant input is told by its range, not its deviation: the mean of
    a constant non-dyadic column leaves rounding residue in the deviation.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or len(x) < 2:
        raise ValueError("pearson needs two equal-length vectors of length >= 2")
    if x.max() == x.min() or y.max() == y.min():
        raise DataError("undefined correlation: zero-variance input")
    xc = x - x.mean()
    yc = y - y.mean()
    sx = math.sqrt(float(xc @ xc) / len(x))
    sy = math.sqrt(float(yc @ yc) / len(y))
    rho = float(xc @ yc) / (len(x) * sx * sy)
    return max(-1.0, min(1.0, rho))


@dataclass(frozen=True)
class CorrelationMatrix:
    names: tuple[str, ...]     # feature names with label appended
    values: np.ndarray         # symmetric, unit diagonal; NaN where a constant
                               # column leaves rho undefined


def correlation_matrix(frame: FeatureFrame) -> CorrelationMatrix:
    """Pairwise Pearson matrix over all columns plus the label."""
    if len(frame) < 2:
        raise DataError(f"correlations need at least two rows, got {len(frame)}")
    cols = [frame.column(n) for n in frame.names] + [frame.y]
    names = frame.names + (LABEL_NAME,)
    m = len(cols)
    values = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            try:
                rho = pearson(cols[i], cols[j])
            except DataError:
                rho = math.nan
            values[i, j] = values[j, i] = rho
    return CorrelationMatrix(names, values)


def rank_by_abs_correlation(frame: FeatureFrame) -> list[str]:
    """Feature ranking by |rho| against the label, best first."""
    scores = {}
    for n in frame.names:
        try:
            scores[n] = abs(pearson(frame.column(n), frame.y))
        except DataError:
            scores[n] = -1.0
    return sorted(frame.names, key=lambda n: (-scores[n], FEATURE_VOCAB.index(n)))


def select_features(rank_pcc, rank_shap, rank_mdi, k: int,
                    mode: str = "consensus") -> list[str]:
    """Rank-sum consensus of three feature rankings, or the published list.

    Each ranking is an ordered list, best first, over the same vocabulary.
    Lower rank-sum wins; ties break by canonical vocabulary order.
    """
    if mode not in SELECTION_MODES:
        raise ConfigError(f"features.selection_mode must be one of "
                          f"{SELECTION_MODES}, got {mode!r}")
    if mode == "paper_fixed":
        if not 1 <= k <= len(PAPER_SELECTED):
            raise ConfigError(f"k={k} must be in [1, {len(PAPER_SELECTED)}] (published list)")
        return PAPER_SELECTED[:k]
    vocab = set(rank_pcc)
    if set(rank_shap) != vocab or set(rank_mdi) != vocab:
        raise ValueError("rankings must cover the same candidate vocabulary")
    if not 1 <= k <= len(vocab):
        raise ConfigError(f"k={k} must be in [1, {len(vocab)}], the vocabulary size")
    sums = {n: rank_pcc.index(n) + rank_shap.index(n) + rank_mdi.index(n) for n in vocab}
    ordered = sorted(vocab, key=lambda n: (sums[n], FEATURE_VOCAB.index(n)
                                           if n in FEATURE_VOCAB else len(FEATURE_VOCAB)))
    return ordered[:k]
