"""Closed-form axial capacity baselines for circular CFST columns.

Each formula is written once, over arrays or scalars, from the section
quantities the codes share (As, Ac, fck, theta). Forces are computed in
Newtons internally and reported in kN.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .data import ROW_BLOCK, numeric_columns
from .errors import ConfigError
from .features import section_areas

CODE_IDS = ("AIJ", "EC4", "ACI", "GB50936", "GEP", "HAN", "WAN")

E_STEEL = 210_000.0  # MPa


@dataclass(frozen=True)
class CodeOptions:
    """Conventions the source formulas leave ambiguous.

    fck_mode: 'cylinder' takes fck = fc as given; 'cube' converts fck = fc/0.8.
    ec4_slenderness: 'standard' computes relative slenderness sqrt(Npl/Ncr);
    'literal' feeds the geometric ratio 4L/D straight into the eta formulas.
    """

    fck_mode: str = "cylinder"
    ec4_slenderness: str = "standard"

    def __post_init__(self):
        for key, allowed in (("fck_mode", ("cylinder", "cube")),
                             ("ec4_slenderness", ("standard", "literal"))):
            if getattr(self, key) not in allowed:
                raise ConfigError(f"codes.{key} must be one of {allowed}, "
                                  f"got {getattr(self, key)!r}")


class CodePrediction(NamedTuple):
    code_id: str
    capacity_kn: float | None
    intermediates: dict
    valid: bool = True
    message: str = ""


def _confinement(D, t, fy, fck):
    """As, Ac, fck and theta = As fy / (Ac fck)."""
    As, Ac = section_areas(D, t)
    return As, Ac, fck, As * fy / (Ac * fck)


def _aij(As, Ac, fy, fc):
    return (1.27 * As * fy + Ac * fc) / 1e3


def _aci(As, Ac, fy, fc):
    return (As * fy + 0.85 * Ac * fc) / 1e3


def _gb(As, Ac, fck, theta):
    return (0.9 * Ac * fck * (1.0 + theta + np.sqrt(theta))) / 1e3


def _han(As, Ac, fck, theta):
    return ((1.14 + 1.02 * theta) * fck * (As + Ac)) / 1e3


def _wan(As, Ac, D, t, fy, fc):
    """Capacity and the steel and concrete factors eta_a, eta_c."""
    eta_a = 0.95 - 12.6 * fy**-0.85 * np.log(0.14 * D / t)
    eta_c = 0.99 + (5.04 - 2.37 * (D / t) ** 0.04 * fc**0.1) * (t * fy / (D * fc)) ** 0.51
    return (eta_a * As * fy + eta_c * Ac * fc) / 1e3, eta_a, eta_c


def _ec4_slenderness(As, Ac, D, t, L, fy, fc):
    inner = D - 2 * t
    Is = np.pi * (D**4 - inner**4) / 64.0
    Ic = np.pi * inner**4 / 64.0
    Ec = 22_000.0 * (fc / 10.0) ** 0.3
    ei_eff = E_STEEL * Is + 0.6 * Ec * Ic
    ncr = np.pi**2 * ei_eff / (L * L)
    npl = As * fy + Ac * fc
    return np.sqrt(npl / ncr)


def aij_capacity_kn(D, t, fy, fc):
    return _aij(*section_areas(D, t), fy, fc)


def aci_capacity_kn(D, t, fy, fc):
    return _aci(*section_areas(D, t), fy, fc)


def gb_capacity_kn(D, t, fy, fc):
    return _gb(*_confinement(D, t, fy, fc))


def han_capacity_kn(D, t, fy, fc):
    return _han(*_confinement(D, t, fy, fc))


def wan_capacity_kn(D, t, fy, fc):
    return _wan(*section_areas(D, t), D, t, fy, fc)[0]


def ec4_relative_slenderness(D, t, L, fy, fc):
    """sqrt(Npl / Ncr) with Ec = 22000 (fc/10)^0.3 and (EI)eff = Es Is + 0.6 Ec Ic."""
    return _ec4_slenderness(*section_areas(D, t), D, t, L, fy, fc)


# code -> the keys of its intermediates dict, one per column of its block
_INTERMEDIATE_KEYS = {"AIJ": (), "ACI": (), "GEP": ("lambda",), "GB50936": ("theta", "fck"),
                      "HAN": ("theta", "fck"), "WAN": ("eta_a", "eta_c"),
                      "EC4": ("lambda_bar", "eta_s_raw", "eta_c_raw", "eta_s", "eta_c")}


@dataclass(frozen=True, eq=False)
class CodeTable(Sequence):
    """Code predictions as columns: an immutable sequence of CodePrediction,
    specimens outer and CODE_IDS inner, over a read-only (n, 7) capacity array
    (NaN where invalid) and validity mask, each code's (k, n) block of the
    columns named in _INTERMEDIATE_KEYS, and each invalid cell's message by
    its index. Rows and their dicts are built only when read; iteration builds
    them in C a block of specimens at a time. A table equals any sequence of equal rows."""

    capacity: np.ndarray
    valid: np.ndarray
    blocks: tuple
    messages: dict

    def __post_init__(self):
        for array in (self.capacity, self.valid, *self.blocks):
            array.flags.writeable = False

    def __len__(self) -> int:
        return self.capacity.size

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[j] for j in range(len(self))[index]]
        j = range(len(self))[index]  # an int, negative or numpy; IndexError past either end
        i, k = divmod(j, len(CODE_IDS))
        intermediates = dict(zip(_INTERMEDIATE_KEYS[CODE_IDS[k]], self.blocks[k][:, i].tolist()))
        if self.valid[i, k]:
            return CodePrediction(CODE_IDS[k], self.capacity[i, k].item(), intermediates)
        return CodePrediction(CODE_IDS[k], None, intermediates, False, self.messages[j])

    def __iter__(self):
        return chain.from_iterable(map(self._block_rows, range(0, len(self.capacity), ROW_BLOCK)))

    def _block_rows(self, start: int):
        """The rows of ROW_BLOCK specimens from start on, each built as it is read."""
        block = slice(start, start + ROW_BLOCK)
        valid = self.valid[block]
        values, messages = self.capacity[block].ravel().tolist(), [""] * valid.size
        for j in np.flatnonzero(~valid).tolist():
            values[j], messages[j] = None, self.messages[start * len(CODE_IDS) + j]
        dicts = []  # per code, each row's dict from a tuple of its (key, value) pairs
        for keys, columns in zip(map(_INTERMEDIATE_KEYS.get, CODE_IDS), self.blocks):
            pairs = list(map(zip, map(repeat, keys), columns[:, block].tolist()))
            dicts.append(map(dict, zip(*pairs) if pairs else repeat((), len(valid))))
        return map(tuple.__new__, repeat(CodePrediction),
                   zip(chain.from_iterable(repeat(CODE_IDS, len(valid))), values,
                       chain.from_iterable(zip(*dicts)), valid.ravel().tolist(), messages))

    def __eq__(self, other):
        return isinstance(other, Sequence) and list(self) == list(other)


def predict_all(specimens, options: CodeOptions | None = None) -> CodeTable:
    """Evaluate every baseline for every specimen in one pass over arrays.

    A non-physical WAN capacity or a negative GEP radicand is an invalid
    prediction, never a fabricated value. Order: specimens outer, CODE_IDS inner.
    """
    if not specimens:
        raise ValueError("specimen list is empty")
    opts = options or CodeOptions()
    D, t, L, fy, fc = numeric_columns(specimens, 5).T
    As, Ac, fck, theta = _confinement(D, t, fy, fc / 0.8 if opts.fck_mode == "cube" else fc)
    geometric = 4.0 * L / D
    lam = (geometric if opts.ec4_slenderness == "literal"
           else _ec4_slenderness(As, Ac, D, t, L, fy, fc))
    eta_s_raw, eta_c_raw = 0.25 * (3.0 + 2.0 * lam), 4.9 - 18.5 * lam + 17.0 * lam * lam
    # EN 1994-1-1 6.7.3.2(6): confinement only up to a relative slenderness of 0.5
    eta_s, eta_c = np.minimum(eta_s_raw, 1.0), np.where(lam > 0.5, 0.0, np.maximum(eta_c_raw, 0.0))
    # GEP: the printed expression verbatim in (mm, MPa, kN), never clamped
    r1, r2 = 3.0 * fc - 9.596, Ac - 11.562
    with np.errstate(invalid="ignore"):
        gep = (As + 2.0 * fc - 4.0 * geometric + np.sqrt(fc) * (Ac + np.sqrt(r1))
               + 0.169 * As * (fy - 2.0 * geometric) * np.sqrt(r2) / (D / t))
    wan, wan_eta_a, wan_eta_c = _wan(As, Ac, D, t, fy, fc)
    columns = {
        "AIJ": (_aij(As, Ac, fy, fc), ()),
        "EC4": ((eta_s * As * fy + Ac * fc * (1.0 + eta_c * t / D * fy / fc)) / 1e3,
                (lam, eta_s_raw, eta_c_raw, eta_s, eta_c)),
        "ACI": (_aci(As, Ac, fy, fc), ()),
        "GB50936": (_gb(As, Ac, fck, theta), (theta, fck)),
        "GEP": (gep, (geometric,)),
        "HAN": (_han(As, Ac, fck, theta), (theta, fck)),
        "WAN": (wan, (wan_eta_a, wan_eta_c)),
    }
    n, per = len(D), len(CODE_IDS)
    valid, messages = np.ones((n, per), dtype=bool), {}
    # invalid cells as masks, each with the message it reports
    for code, mask, message in (
            ("GEP", (r1 < 0) | (r2 < 0),
             lambda i: f"negative radicand (3fc-9.596={float(r1[i]):.3f}, "
                       f"Ac-11.562={float(r2[i]):.3f})"),
            ("WAN", (wan <= 0) | ~np.isfinite(wan),
             lambda i: f"non-physical capacity {float(wan[i])!r}")):
        k = CODE_IDS.index(code)
        valid[:, k] = ~mask
        messages.update((i * per + k, message(i)) for i in np.flatnonzero(mask).tolist())
    capacity = np.where(valid, np.column_stack([columns[c][0] for c in CODE_IDS]), np.nan)
    blocks = {c: np.array(columns[c][1]).reshape(-1, n) for c in CODE_IDS if c != "HAN"}
    blocks["HAN"] = blocks["GB50936"]  # the same (theta, fck): one block serves both
    return CodeTable(capacity, valid, tuple(map(blocks.get, CODE_IDS)), messages)
