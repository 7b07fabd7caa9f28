"""Closed-form axial capacity baselines for circular CFST columns.

Each formula is written once, over arrays or scalars, from the section
quantities the codes share (As, Ac, fck, theta). Forces are computed in
Newtons internally and reported in kN.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .data import numeric_columns
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


# code -> one row's intermediates dict from that row's column values: one
# dict display per row, with no per-row zip or iterator objects
_INTERMEDIATES = {
    "EC4": lambda lam, s_raw, c_raw, s, c: {"lambda_bar": lam, "eta_s_raw": s_raw,
                                            "eta_c_raw": c_raw, "eta_s": s, "eta_c": c},
    "GB50936": lambda theta, fck: {"theta": theta, "fck": fck},
    "GEP": lambda lam: {"lambda": lam},
    "HAN": lambda theta, fck: {"theta": theta, "fck": fck},
    "WAN": lambda eta_a, eta_c: {"eta_a": eta_a, "eta_c": eta_c},
}


def predict_all(specimens, options: CodeOptions | None = None) -> list[CodePrediction]:
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
    eta_s, eta_c = np.minimum(eta_s_raw, 1.0), np.maximum(eta_c_raw, 0.0)
    # GEP: the printed expression verbatim in (mm, MPa, kN), never clamped
    r1, r2 = 3.0 * fc - 9.596, Ac - 11.562
    with np.errstate(invalid="ignore"):
        gep = (As + 2.0 * fc - 4.0 * geometric + np.sqrt(fc) * (Ac + np.sqrt(r1))
               + 0.169 * As * (fy - 2.0 * geometric) * np.sqrt(r2) / (D / t))
    wan, wan_eta_a, wan_eta_c = _wan(As, Ac, D, t, fy, fc)
    columns = {
        "AIJ": (_aij(As, Ac, fy, fc), ()),
        "EC4": ((eta_s * As * fy + eta_c * Ac * fc) / 1e3,
                (lam, eta_s_raw, eta_c_raw, eta_s, eta_c)),
        "ACI": (_aci(As, Ac, fy, fc), ()),
        "GB50936": (_gb(As, Ac, fck, theta), (theta, fck)),
        "GEP": (gep, (geometric,)),
        "HAN": (_han(As, Ac, fck, theta), (theta, fck)),
        "WAN": (wan, (wan_eta_a, wan_eta_c)),
    }
    # invalid rows as masks, each with the message it reports
    invalid = {
        "GEP": ((r1 < 0) | (r2 < 0),
                lambda i: f"negative radicand (3fc-9.596={float(r1[i]):.3f}, "
                          f"Ac-11.562={float(r2[i]):.3f})"),
        "WAN": ((wan <= 0) | ~np.isfinite(wan),
                lambda i: f"non-physical capacity {float(wan[i])!r}"),
    }
    # each code's rows are built from its columns and fill every len(CODE_IDS)-th slot
    out = [None] * (len(D) * len(CODE_IDS))
    for k, code in enumerate(CODE_IDS):
        cap, inter = columns[code]
        if inter:
            dicts = list(map(_INTERMEDIATES[code], *[v.tolist() for v in inter]))
        else:
            dicts = [{} for _ in range(len(D))]
        preds = list(map(tuple.__new__, repeat(CodePrediction),
                         zip(repeat(code), cap.tolist(), dicts, repeat(True), repeat(""))))
        mask, message = invalid.get(code, ((), None))
        for i in np.flatnonzero(mask).tolist():
            preds[i] = CodePrediction(code, None, dicts[i], False, message(i))
        out[k::len(CODE_IDS)] = preds
    return out

