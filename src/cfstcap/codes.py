"""Closed-form axial capacity baselines for circular CFST columns.

Each function evaluates one published design-code or analytical formula.
Forces are computed in Newtons internally and reported in kN.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .data import Specimen
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


@dataclass(frozen=True)
class CodePrediction:
    code_id: str
    capacity_kn: float | None
    intermediates: dict = field(default_factory=dict)
    valid: bool = True
    message: str = ""


def _fck(fc: float, opts: CodeOptions) -> float:
    if opts.fck_mode == "cube":
        return fc / 0.8
    return fc


def aij_capacity_kn(D, t, fy, fc) -> float:
    As, Ac = section_areas(D, t)
    return (1.27 * As * fy + Ac * fc) / 1e3


def aci_capacity_kn(D, t, fy, fc) -> float:
    As, Ac = section_areas(D, t)
    return (As * fy + 0.85 * Ac * fc) / 1e3


def gb_capacity_kn(D, t, fy, fc, fck=None) -> float:
    As, Ac = section_areas(D, t)
    fck = fc if fck is None else fck
    theta = As * fy / (Ac * fck)
    return (0.9 * Ac * fck * (1.0 + theta + math.sqrt(theta))) / 1e3


def han_capacity_kn(D, t, fy, fc, fck=None) -> float:
    As, Ac = section_areas(D, t)
    fck = fc if fck is None else fck
    theta = As * fy / (Ac * fck)
    return ((1.14 + 1.02 * theta) * fck * (As + Ac)) / 1e3


def wan_capacity_kn(D, t, fy, fc, intermediates=None) -> float:
    As, Ac = section_areas(D, t)
    eta_a = 0.95 - 12.6 * fy**-0.85 * math.log(0.14 * D / t)
    eta_c = 0.99 + (5.04 - 2.37 * (D / t) ** 0.04 * fc**0.1) * (t * fy / (D * fc)) ** 0.51
    if intermediates is not None:
        intermediates.update(eta_a=eta_a, eta_c=eta_c)
    return (eta_a * As * fy + eta_c * Ac * fc) / 1e3


def ec4_relative_slenderness(D, t, L, fy, fc) -> float:
    """sqrt(Npl / Ncr) with Ec = 22000 (fc/10)^0.3 and (EI)eff = Es Is + 0.6 Ec Ic."""
    As, Ac = section_areas(D, t)
    inner = D - 2 * t
    Is = math.pi * (D**4 - inner**4) / 64.0
    Ic = math.pi * inner**4 / 64.0
    Ec = 22_000.0 * (fc / 10.0) ** 0.3
    ei_eff = E_STEEL * Is + 0.6 * Ec * Ic
    ncr = math.pi**2 * ei_eff / (L * L)
    npl = As * fy + Ac * fc
    return math.sqrt(npl / ncr)


def _ec4(s: Specimen, opts: CodeOptions) -> CodePrediction:
    As, Ac = section_areas(s.D, s.t)
    inter: dict = {}
    if opts.ec4_slenderness == "literal":
        lam = 4.0 * s.L / s.D
    else:
        lam = ec4_relative_slenderness(s.D, s.t, s.L, s.fy, s.fc)
    inter["lambda_bar"] = lam
    eta_s = 0.25 * (3.0 + 2.0 * lam)
    eta_c = 4.9 - 18.5 * lam + 17.0 * lam * lam
    inter["eta_s_raw"] = eta_s
    inter["eta_c_raw"] = eta_c
    eta_s = min(eta_s, 1.0)
    eta_c = max(eta_c, 0.0)
    inter["eta_s"] = eta_s
    inter["eta_c"] = eta_c
    cap = (eta_s * As * s.fy + eta_c * Ac * s.fc) / 1e3
    return CodePrediction("EC4", cap, inter)


def _gep(s: Specimen) -> CodePrediction:
    """Analytical GEP expression evaluated literally in (mm, MPa, kN).

    The printed formula mixes area and stress terms additively; it is
    reproduced verbatim, and out-of-domain radicands are reported as
    invalid predictions rather than clamped.
    """
    As, Ac = section_areas(s.D, s.t)
    lam = 4.0 * s.L / s.D
    inter = {"lambda": lam}
    r1 = 3.0 * s.fc - 9.596
    r2 = Ac - 11.562
    if r1 < 0 or r2 < 0:
        return CodePrediction("GEP", None, inter, valid=False,
                              message=f"negative radicand (3fc-9.596={r1:.3f}, Ac-11.562={r2:.3f})")
    cap = (As + 2.0 * s.fc - 4.0 * lam
           + math.sqrt(s.fc) * (Ac + math.sqrt(r1))
           + 0.169 * As * (s.fy - 2.0 * lam) * math.sqrt(r2) / (s.D / s.t))
    return CodePrediction("GEP", cap, inter)


def predict_code(code_id: str, specimen: Specimen,
                 options: CodeOptions | None = None) -> CodePrediction:
    """Evaluate one baseline formula for a specimen."""
    opts = options or CodeOptions()
    code_id = code_id.upper()
    s = specimen
    As, Ac = section_areas(s.D, s.t)
    if code_id == "AIJ":
        return CodePrediction("AIJ", aij_capacity_kn(s.D, s.t, s.fy, s.fc))
    if code_id == "ACI":
        return CodePrediction("ACI", aci_capacity_kn(s.D, s.t, s.fy, s.fc))
    if code_id == "GB50936":
        fck = _fck(s.fc, opts)
        theta = As * s.fy / (Ac * fck)
        return CodePrediction("GB50936", gb_capacity_kn(s.D, s.t, s.fy, s.fc, fck),
                              {"theta": theta, "fck": fck})
    if code_id == "HAN":
        fck = _fck(s.fc, opts)
        theta = As * s.fy / (Ac * fck)
        return CodePrediction("HAN", han_capacity_kn(s.D, s.t, s.fy, s.fc, fck),
                              {"theta": theta, "fck": fck})
    if code_id == "WAN":
        inter: dict = {}
        cap = wan_capacity_kn(s.D, s.t, s.fy, s.fc, inter)
        if cap <= 0 or not math.isfinite(cap):
            return CodePrediction("WAN", None, inter, valid=False,
                                  message=f"non-physical capacity {cap!r}")
        return CodePrediction("WAN", cap, inter)
    if code_id == "EC4":
        return _ec4(s, opts)
    if code_id == "GEP":
        return _gep(s)
    raise ValueError(f"unknown code id {code_id!r}; expected one of {CODE_IDS}")


def predict_all(specimens, options: CodeOptions | None = None) -> list[CodePrediction]:
    """Evaluate every baseline for every specimen.

    Formula-domain failures are embedded as invalid predictions, never
    fabricated values. Order: specimens outer, CODE_IDS inner.
    """
    if not specimens:
        raise ValueError("specimen list is empty")
    out = []
    for s in specimens:
        for code in CODE_IDS:
            out.append(predict_code(code, s, options))
    return out
