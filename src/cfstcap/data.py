"""Specimen records, CSV ingestion, splits and synthetic data.

Units are fixed repo-wide: lengths in mm, strengths in MPa, capacities in kN.
"""
from __future__ import annotations

import csv
import math
import re
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, islice, repeat
from operator import eq, itemgetter
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError

# Experimental envelope of the source database (per-variable min/max).
ENVELOPE = {
    "D": (44.95, 1020.0),
    "t": (0.52, 30.0),
    "L": (114.3, 5560.0),
    "fy": (178.28, 1153.0),
    "fc": (6.41, 200.0),
}

CSV_HEADER = ["D_mm", "t_mm", "L_mm", "fy_MPa", "fc_MPa", "N_kN", "source_id"]
NUMERIC_FIELDS = ("D", "t", "L", "fy", "fc", "N")

# rows a table builds, and save_csv writes, at a time
ROW_BLOCK = 256

_NEEDS_QUOTES = re.compile('[,"\r\n]').search


class Specimen(NamedTuple):
    """One axial compression test of a circular CFST column: an immutable named
    tuple, equal and hashable by its fields; copy it with _replace."""

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
        for name, v in zip(NUMERIC_FIELDS, self):
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


class SpecimenTable(Sequence):
    """Specimens held as columns: an immutable sequence of Specimen over one
    read-only (n, 6) float64 array of the NUMERIC_FIELDS and the tuple of
    source ids.

    A row is built (in C, by tuple.__new__) only when it is read; a slice is
    a table over views of the same array. A table equals, and hashes as, any
    sequence of equal specimens, and `+` joins it to a tuple of specimens.
    The table takes values over and makes it read-only, so no view that it
    hands out can alias a write.
    """

    __slots__ = ("values", "ids")

    def __init__(self, values, ids):
        values = np.asarray(values, dtype=float)
        ids = tuple(ids)
        if values.shape != (len(ids), len(NUMERIC_FIELDS)):
            raise ValueError(f"values of shape {values.shape} for {len(ids)} source ids")
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "ids", ids)

    @classmethod
    def from_rows(cls, rows) -> "SpecimenTable":
        """The table of a sequence of specimens; a table is returned as is."""
        if isinstance(rows, cls):
            return rows
        return cls(numeric_columns(rows, len(NUMERIC_FIELDS)), map(itemgetter(6), rows))

    def __setattr__(self, name, value):
        raise AttributeError("a SpecimenTable is immutable")

    def __reduce__(self):
        return SpecimenTable, (self.values, self.ids)

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return SpecimenTable(self.values[index], self.ids[index])
        source_id = self.ids[index]  # an int, negative or numpy; IndexError past the end
        return tuple.__new__(Specimen, (*self.values[index].tolist(), source_id))

    def __iter__(self):
        for start in range(0, len(self.ids), ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            yield from map(tuple.__new__, repeat(Specimen),
                           zip(*self.values[block].T.tolist(), self.ids[block]))

    def __eq__(self, other):
        if isinstance(other, SpecimenTable):
            return self.ids == other.ids and np.array_equal(self.values, other.values)
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self):
        return hash(tuple(self))

    def __add__(self, other):
        if not isinstance(other, (tuple, SpecimenTable)):
            return NotImplemented
        other = SpecimenTable.from_rows(other)
        return SpecimenTable(np.concatenate([self.values, other.values]),
                             self.ids + other.ids)

    def column(self, name: str) -> np.ndarray:
        """Read-only view of one of the NUMERIC_FIELDS."""
        return self.values[:, NUMERIC_FIELDS.index(name)]

    def take(self, indices) -> "SpecimenTable":
        """The table of the rows at indices, in their order."""
        indices = np.asarray(indices, dtype=np.intp)
        return SpecimenTable(self.values[indices], map(self.ids.__getitem__, indices.tolist()))


@dataclass(frozen=True)
class Dataset:
    """Ordered, immutable collection of specimens; any sequence of specimens
    given is held as a SpecimenTable."""

    specimens: SpecimenTable
    split_seed: int = 42
    split_fraction: float = 0.8

    def __post_init__(self):
        object.__setattr__(self, "specimens", SpecimenTable.from_rows(self.specimens))

    def __len__(self) -> int:
        return len(self.specimens)


def numeric_columns(specimens, width: int) -> np.ndarray:
    """(n, width) float array of every specimen's first width fields: a
    read-only view of a table's array, else gathered in C."""
    if isinstance(specimens, SpecimenTable):
        return specimens.values[:, :width]
    n = len(specimens)
    return np.fromiter(chain.from_iterable(map(itemgetter(slice(width)), specimens)),
                       float, n * width).reshape(n, width)


def _clean_table(fh, skip: int) -> SpecimenTable:
    """The table of the rows left in fh after its first skip lines, parsed
    in C: one line scan takes the stripped source ids, then np.loadtxt reads
    the numbers. ValueError when there is no row, or a row needs checking
    on its own: a line without exactly six commas (a blank line or a row of
    the wrong width), a line holding a quote, or a cell loadtxt refuses."""
    ids = []
    for line in fh:
        if line.count(",") != 6 or '"' in line:
            raise ValueError
        ids.append(line.rpartition(",")[2].strip())
    if not ids:
        raise ValueError
    fh.seek(0)
    return SpecimenTable(np.loadtxt(fh, delimiter=",", comments=None, skiprows=skip,
                                    usecols=range(len(NUMERIC_FIELDS)), ndmin=2), ids)


def _checked_rows(rows, problems: list):
    """The numbers, stripped source ids and row numbers of the rows of seven
    fields and six numbers, counted from row 2; every other row but a blank
    line is a problem."""
    width = len(CSV_HEADER)
    values, ids, rownums = [], [], []
    for rownum, row in enumerate(rows, start=2):
        if len(row) != width:
            if len(row) > 1 or (row and row[0].strip()):  # else a blank line
                problems.append((rownum, f"expected {width} fields, got {len(row)}"))
            continue
        numbers = []
        for name, cell in zip(NUMERIC_FIELDS, row):
            try:
                numbers.append(float(cell))
            except ValueError:
                problems.append((rownum, f"non-numeric {name} value {cell!r}"))
        if len(numbers) == len(NUMERIC_FIELDS):
            values += numbers
            ids.append(row[6].strip())
            rownums.append(rownum)
    return np.array(values).reshape(-1, len(NUMERIC_FIELDS)), ids, rownums


def load_csv(path, range_mode: str = "warn") -> Dataset:
    """Parse the canonical CSV schema into a Dataset.

    A file of clean one-line rows is parsed in C (_clean_table); any other
    goes through csv.reader and is checked row by row. Rows violating hard
    invariants abort the load with row-numbered diagnostics; envelope
    violations warn or reject per range_mode. The checks run over arrays;
    only a flagged row builds its messages.
    """
    if range_mode not in ("warn", "reject"):
        raise ConfigError(f"range_mode must be 'warn' or 'reject', got {range_mode!r}")
    problems = []  # (row number, message)
    try:
        # utf-8-sig also reads a file saved with a byte-order mark
        fh = open(path, newline="", encoding="utf-8-sig")
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
        try:
            table = _clean_table(fh, reader.line_num)
            rownums = range(2, 2 + len(table))
        except ValueError:
            fh.seek(0)
            values, ids, rownums = _checked_rows(islice(csv.reader(fh), 1, None), problems)
            table = SpecimenTable(values, ids)
    # the conditions of invariant_violations and envelope_violations over
    # the numeric columns (ENVELOPE covers D..fc); a flagged row builds its
    # Specimen for the messages
    values = table.values
    D, t = values[:, 0], values[:, 1]
    lo, hi = np.array(list(ENVELOPE.values())).T
    env = values[:, :len(ENVELOPE)]
    # 2 * t past 8.99e307 is inf, as in Python's float arithmetic, unwarned
    with np.errstate(over="ignore"):
        flagged = (~(np.isfinite(values) & (values > 0)).all(axis=1) | (D <= 2 * t)
                   | ~((env >= lo) & (env <= hi)).all(axis=1))
    for i in np.flatnonzero(flagged).tolist():
        s, rownum = table[i], rownums[i]
        bad = s.invariant_violations()
        if bad:
            problems.append((rownum, "; ".join(bad)))
            continue
        out = s.envelope_violations()
        if range_mode == "reject":
            problems.append((rownum, "; ".join(out)))
        else:
            warnings.warn(f"{path} row {rownum}: " + "; ".join(out), stacklevel=2)
    if problems:
        problems.sort(key=itemgetter(0))
        raise DataError(f"{path}: {len(problems)} bad row(s):\n"
                        + "\n".join(f"row {rownum}: {msg}" for rownum, msg in problems))
    if not table:
        raise DataError(f"{path}: no data rows")
    return Dataset(specimens=table)


def csv_cell(text: str) -> str:
    """text as one CSV cell: in double quotes, with its quotes doubled, when
    it holds a comma, a quote, CR or LF; else as it is."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def save_csv(dataset: Dataset, path) -> None:
    """Write the canonical CSV schema; floats use shortest round-trip repr.
    Rows are joined from the columns, a block at a time."""
    table = dataset.specimens
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(table), ROW_BLOCK):
            block = table[start:start + ROW_BLOCK]
            cells = zip(*(map(repr, col) for col in block.values.T.tolist()),
                        map(csv_cell, block.ids))
            fh.write("\n".join(map(",".join, cells)) + "\n")


def split(dataset: Dataset, fraction: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic shuffled train/validation index split.

    |train| = round(fraction * n); index sets are disjoint and exhaustive.
    """
    n = len(dataset)
    if n < 2:
        raise DataError(f"need at least 2 specimens to split, have {n}")
    if not 0 < fraction < 1:
        raise ConfigError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    k = int(round(fraction * n))
    k = min(max(k, 1), n - 1)
    return perm[:k].copy(), perm[k:].copy()


def generate_synthetic(n: int, seed: int, noise_cov: float = 0.0) -> Dataset:
    """Sample specimens log-uniformly in the envelope; labels follow the Han
    closed-form capacity times lognormal noise with the given CoV.
    """
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    if noise_cov < 0:
        raise ConfigError(f"noise_cov must be >= 0, got {noise_cov}")
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
    return Dataset(specimens=SpecimenTable(np.array([D, t, L, fy, fc, cap]).T,
                                           [f"synth-{seed}-{i}" for i in range(n)]))
