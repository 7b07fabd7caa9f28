"""Specimen records, CSV ingestion, splits, label transforms and synthetic data.

Units are fixed repo-wide: lengths in mm, strengths in MPa, capacities in kN.
"""
from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

# Experimental envelope of the source database (per-variable min/max).
ENVELOPE = {
    "D": (44.95, 1020.0),
    "t": (0.52, 30.0),
    "L": (114.3, 5560.0),
    "fy": (178.28, 1153.0),
    "fc": (6.41, 200.0),
}

CSV_HEADER = ["D_mm", "t_mm", "L_mm", "fy_MPa", "fc_MPa", "N_kN", "source_id"]


@dataclass(frozen=True)
class Specimen:
    """One axial compression test of a circular CFST column."""

    D: float   # outer diameter, mm
    t: float   # steel tube wall thickness, mm
    L: float   # column length, mm
    fy: float  # steel yield strength, MPa
    fc: float  # concrete cylinder strength, MPa
    N: float   # measured axial capacity, kN
    source_id: str = ""

    def invariant_violations(self) -> list[str]:
        """Hard physical invariants; empty list when the specimen is valid."""
        bad = []
        for name in ("D", "t", "L", "fy", "fc", "N"):
            v = getattr(self, name)
            if not math.isfinite(v) or v <= 0:
                bad.append(f"{name}={v!r} must be a positive finite number")
        if self.D <= 2 * self.t:
            bad.append(f"D={self.D} must exceed 2*t={2 * self.t}")
        return bad

    def envelope_violations(self) -> list[str]:
        """Soft range checks against the experimental database envelope."""
        out = []
        for name, (lo, hi) in ENVELOPE.items():
            v = getattr(self, name)
            if not lo <= v <= hi:
                out.append(f"{name}={v} outside envelope [{lo}, {hi}]")
        return out


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of specimens."""

    specimens: tuple[Specimen, ...]
    split_seed: int = 42
    split_fraction: float = 0.8

    def __len__(self) -> int:
        return len(self.specimens)


def load_csv(path, range_mode: str = "warn") -> Dataset:
    """Parse the canonical CSV schema into a Dataset.

    Rows violating hard invariants abort the load with row-numbered
    diagnostics; envelope violations warn or reject per range_mode.
    """
    if range_mode not in ("warn", "reject"):
        raise ValueError(f"range_mode must be 'warn' or 'reject', got {range_mode!r}")
    specimens = []
    problems = []
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read dataset {path}: {exc}") from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataError(
                f"{path}: header {header!r} does not match required schema {CSV_HEADER!r}"
            )
        for rownum, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(CSV_HEADER):
                problems.append(f"row {rownum}: expected {len(CSV_HEADER)} fields, got {len(row)}")
                continue
            values = {}
            ok = True
            for name, cell in zip(("D", "t", "L", "fy", "fc", "N"), row[:6]):
                try:
                    values[name] = float(cell)
                except ValueError:
                    problems.append(f"row {rownum}: non-numeric {name} value {cell!r}")
                    ok = False
            if not ok:
                continue
            s = Specimen(**values, source_id=row[6].strip())
            bad = s.invariant_violations()
            if bad:
                problems.append(f"row {rownum}: " + "; ".join(bad))
                continue
            env = s.envelope_violations()
            if env:
                if range_mode == "reject":
                    problems.append(f"row {rownum}: " + "; ".join(env))
                    continue
                warnings.warn(f"{path} row {rownum}: " + "; ".join(env), stacklevel=2)
            specimens.append(s)
    if problems:
        raise DataError(f"{path}: {len(problems)} bad row(s):\n" + "\n".join(problems))
    return Dataset(specimens=tuple(specimens))


def save_csv(dataset: Dataset, path) -> None:
    """Write the canonical CSV schema; floats use shortest round-trip repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in dataset.specimens:
            writer.writerow([repr(s.D), repr(s.t), repr(s.L), repr(s.fy),
                             repr(s.fc), repr(s.N), s.source_id])


def split(dataset: Dataset, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/validation index split.

    |train| = round(fraction * n); index sets are disjoint and exhaustive.
    """
    n = len(dataset)
    if n < 2:
        raise DataError(f"need at least 2 specimens to split, have {n}")
    if not 0 < fraction < 1:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    k = int(round(fraction * n))
    k = min(max(k, 1), n - 1)
    return perm[:k].copy(), perm[k:].copy()


def transform_label(y, direction: str = "forward"):
    """Natural-log label transform (forward) and its exact inverse."""
    arr = np.asarray(y, dtype=float)
    if direction == "forward":
        if np.any(arr <= 0):
            raise ValueError("forward label transform requires positive values")
        out = np.log(arr)
    elif direction == "inverse":
        out = np.exp(arr)
    else:
        raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")
    return float(out) if np.isscalar(y) else out


def generate_synthetic(n: int, seed: int, noise_cov: float = 0.0) -> Dataset:
    """Sample specimens log-uniformly in the envelope; labels follow the Han
    closed-form capacity times lognormal noise with the given CoV.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if noise_cov < 0:
        raise ValueError(f"noise_cov must be >= 0, got {noise_cov}")
    from .codes import han_capacity_kn

    rng = np.random.default_rng(seed)

    def logu(lo, hi, size):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size))

    D = logu(*ENVELOPE["D"], n)
    # keep the wall thickness clear of the D > 2t boundary
    t_hi = np.minimum(ENVELOPE["t"][1], 0.45 * D)
    t = np.exp(rng.uniform(np.log(ENVELOPE["t"][0]), np.log(t_hi)))
    L = logu(*ENVELOPE["L"], n)
    fy = logu(*ENVELOPE["fy"], n)
    fc = logu(*ENVELOPE["fc"], n)

    if noise_cov > 0:
        sigma2 = math.log(1.0 + noise_cov**2)
        noise = np.exp(rng.normal(-0.5 * sigma2, math.sqrt(sigma2), n))
    else:
        noise = np.ones(n)

    cap = han_capacity_kn(D, t, fy, fc) * noise
    return Dataset(specimens=tuple(
        Specimen(D=float(D[i]), t=float(t[i]), L=float(L[i]), fy=float(fy[i]),
                 fc=float(fc[i]), N=float(cap[i]), source_id=f"synth-{seed}-{i}")
        for i in range(n)))
