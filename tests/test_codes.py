import gc
import math
import tracemalloc
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstcap import codes
from cfstcap.codes import (CODE_IDS, CodeOptions, CodePrediction, CodeTable,
                           aci_capacity_kn, aij_capacity_kn, ec4_relative_slenderness,
                           gb_capacity_kn, han_capacity_kn, predict_all,
                           wan_capacity_kn)
from cfstcap.data import ROW_BLOCK, Specimen, generate_synthetic, numeric_columns

REF = Specimen(D=100, t=5, L=300, fy=300, fc=30, N=650)


def one_code(code_id, specimen, options=None):
    """One code's row of predict_all for one specimen."""
    return predict_all([specimen], options)[CODE_IDS.index(code_id)]


class TestHandOracles:
    """Hand-computed reference values for D=100, t=5, L=300, fy=300, fc=30."""

    def test_aci(self):
        assert aci_capacity_kn(100, 5, 300, 30) == pytest.approx(609.90, rel=1e-3)

    def test_aij(self):
        assert aij_capacity_kn(100, 5, 300, 30) == pytest.approx(759.40, rel=1e-3)

    def test_han(self):
        assert han_capacity_kn(100, 5, 300, 30) == pytest.approx(832.3, rel=1e-3)

    def test_gb(self):
        assert gb_capacity_kn(100, 5, 300, 30) == pytest.approx(837.8, rel=1e-3)

    def test_dispatch_matches_direct(self):
        for code, fn in (("ACI", aci_capacity_kn), ("AIJ", aij_capacity_kn)):
            pred = one_code(code, REF)
            assert pred.valid
            assert pred.capacity_kn == pytest.approx(fn(100, 5, 300, 30), rel=1e-12)


class TestStructuralProperties:
    @given(st.floats(1.05, 2.0), st.floats(1.05, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_monotone_in_materials(self, ky, kc):
        for fn in (aci_capacity_kn, aij_capacity_kn, gb_capacity_kn,
                   han_capacity_kn):
            base = fn(100, 5, 300, 30)
            assert fn(100, 5, 300 * ky, 30) > base
            assert fn(100, 5, 300, 30 * kc) > base

    def test_aij_bounds_aci(self):
        for s in generate_synthetic(200, 3, 0.1).specimens:
            assert aij_capacity_kn(s.D, s.t, s.fy, s.fc) \
                > aci_capacity_kn(s.D, s.t, s.fy, s.fc)

    @given(st.floats(0.5, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_geometric_scaling(self, s):
        # capacity of area-based formulas scales with cross-section area
        for fn in (aci_capacity_kn, aij_capacity_kn, gb_capacity_kn,
                   han_capacity_kn):
            assert fn(100 * s, 5 * s, 300, 30) \
                == pytest.approx(s * s * fn(100, 5, 300, 30), rel=1e-9)

    def test_gb_theta_intermediate(self):
        pred = one_code("GB50936", REF)
        As = math.pi * (100**2 - 90**2) / 4
        Ac = math.pi * 90**2 / 4
        assert pred.intermediates["theta"] == pytest.approx(As * 300 / (Ac * 30), rel=1e-12)

    def test_cube_mode_changes_fck(self):
        cyl = one_code("HAN", REF)
        cube = one_code("HAN", REF, CodeOptions(fck_mode="cube"))
        assert cube.intermediates["fck"] == pytest.approx(30 / 0.8)
        assert cube.capacity_kn != pytest.approx(cyl.capacity_kn)

    def test_wan_intermediates_recorded(self):
        cap = wan_capacity_kn(100, 5, 300, 30)
        assert cap > 0
        pred = one_code("WAN", REF)
        assert set(pred.intermediates) == {"eta_a", "eta_c"}
        assert pred.valid
        assert pred.capacity_kn == pytest.approx(cap, rel=1e-12)


class TestEc4:
    def test_slenderness_scales_with_length(self):
        lam1 = ec4_relative_slenderness(100, 5, 300, 300, 30)
        lam2 = ec4_relative_slenderness(100, 5, 600, 300, 30)
        assert lam2 == pytest.approx(2 * lam1, rel=1e-9)

    def test_short_column_confinement_boost(self):
        # a stocky column keeps eta_c > 0, giving capacity above the plain
        # plastic resistance reduced by eta_s <= 1
        pred = one_code("EC4", REF)
        assert pred.valid
        assert pred.intermediates["eta_s"] <= 1.0
        assert pred.intermediates["eta_c"] >= 0.0

    def test_eta_formulas(self):
        pred = one_code("EC4", REF)
        lam = pred.intermediates["lambda_bar"]
        assert pred.intermediates["eta_s_raw"] == pytest.approx(0.25 * (3 + 2 * lam), rel=1e-12)
        assert pred.intermediates["eta_c_raw"] == pytest.approx(
            4.9 - 18.5 * lam + 17 * lam * lam, rel=1e-12)

    def test_literal_mode_uses_geometric_ratio(self):
        pred = one_code("EC4", REF, CodeOptions(ec4_slenderness="literal"))
        assert pred.intermediates["lambda_bar"] == pytest.approx(12.0)

    def test_negative_eta_c_clamped_to_zero(self):
        # mid-range slenderness drives the quadratic eta_c below zero
        s = Specimen(D=100, t=5, L=1400, fy=300, fc=30, N=650)
        lam = ec4_relative_slenderness(100, 5, 1400, 300, 30)
        assert 0.456 < lam < 0.632  # interval where eta_c_raw < 0
        clamped = one_code("EC4", s)
        assert clamped.intermediates["eta_c_raw"] < 0
        assert clamped.valid and clamped.intermediates["eta_c"] == 0.0


    def test_no_confinement_beyond_slenderness_limit(self):
        # EN 1994-1-1 6.7.3.2(6): above lambda_bar = 0.5 eta_a = 1 and eta_c = 0,
        # although the eta_c quadratic turns positive again above ~0.632
        As = math.pi * (100**2 - 90**2) / 4
        Ac = math.pi * 90**2 / 4
        s = Specimen(D=100, t=5, L=2550, fy=300, fc=30, N=650)
        assert 0.95 < ec4_relative_slenderness(100, 5, 2550, 300, 30) < 1.05
        for spec, opts in ((s, None), (REF, CodeOptions(ec4_slenderness="literal"))):
            pred = one_code("EC4", spec, opts)
            assert pred.intermediates["eta_c_raw"] > 0
            assert pred.intermediates["eta_c"] == 0.0 and pred.intermediates["eta_s"] == 1.0
            assert pred.capacity_kn == pytest.approx((As * 300 + Ac * 30) / 1e3, rel=1e-12)


class TestGep:
    def test_low_fc_flagged_invalid(self):
        s = Specimen(D=100, t=5, L=300, fy=300, fc=3.0, N=650)
        pred = one_code("GEP", s)
        assert not pred.valid
        assert pred.capacity_kn is None
        assert "radicand" in pred.message

    def test_valid_in_domain(self):
        pred = one_code("GEP", REF)
        assert pred.valid
        assert pred.capacity_kn > 0


class TestPredictAll:
    def test_cardinality_and_order(self):
        specs = generate_synthetic(7, 1, 0.1).specimens
        preds = predict_all(specs)
        assert len(preds) == 7 * len(CODE_IDS)
        assert [p.code_id for p in preds[: len(CODE_IDS)]] == list(CODE_IDS)

    def test_invalid_embedded_not_fabricated(self):
        s = Specimen(D=100, t=5, L=300, fy=300, fc=3.0, N=650)
        preds = predict_all([s])
        gep = next(p for p in preds if p.code_id == "GEP")
        assert not gep.valid and gep.capacity_kn is None

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            predict_all([])


# ---------------------------------------------------------------- oracle
# The per-specimen scalar path the array path replaced, kept verbatim in
# `math` arithmetic as the reference.

def _scalar_areas(D, t):
    inner = D - 2 * t
    return math.pi * (D * D - inner * inner) / 4.0, math.pi * inner * inner / 4.0


def _scalar_predict(code, s, opts):
    As, Ac = _scalar_areas(s.D, s.t)
    fck = s.fc / 0.8 if opts.fck_mode == "cube" else s.fc
    theta = As * s.fy / (Ac * fck)
    if code == "AIJ":
        return (1.27 * As * s.fy + Ac * s.fc) / 1e3, {}, ""
    if code == "ACI":
        return (As * s.fy + 0.85 * Ac * s.fc) / 1e3, {}, ""
    if code == "GB50936":
        return ((0.9 * Ac * fck * (1.0 + theta + math.sqrt(theta))) / 1e3,
                {"theta": theta, "fck": fck}, "")
    if code == "HAN":
        return (((1.14 + 1.02 * theta) * fck * (As + Ac)) / 1e3,
                {"theta": theta, "fck": fck}, "")
    if code == "WAN":
        eta_a = 0.95 - 12.6 * s.fy**-0.85 * math.log(0.14 * s.D / s.t)
        eta_c = 0.99 + (5.04 - 2.37 * (s.D / s.t) ** 0.04 * s.fc**0.1) \
            * (s.t * s.fy / (s.D * s.fc)) ** 0.51
        cap = (eta_a * As * s.fy + eta_c * Ac * s.fc) / 1e3
        inter = {"eta_a": eta_a, "eta_c": eta_c}
        if cap <= 0 or not math.isfinite(cap):
            return None, inter, f"non-physical capacity {cap!r}"
        return cap, inter, ""
    if code == "EC4":
        if opts.ec4_slenderness == "literal":
            lam = 4.0 * s.L / s.D
        else:
            inner = s.D - 2 * s.t
            Is = math.pi * (s.D**4 - inner**4) / 64.0
            Ic = math.pi * inner**4 / 64.0
            Ec = 22_000.0 * (s.fc / 10.0) ** 0.3
            ncr = math.pi**2 * (210_000.0 * Is + 0.6 * Ec * Ic) / (s.L * s.L)
            lam = math.sqrt((As * s.fy + Ac * s.fc) / ncr)
        eta_s_raw = 0.25 * (3.0 + 2.0 * lam)
        eta_c_raw = 4.9 - 18.5 * lam + 17.0 * lam * lam
        eta_s, eta_c = min(eta_s_raw, 1.0), 0.0 if lam > 0.5 else max(eta_c_raw, 0.0)
        return ((eta_s * As * s.fy + Ac * s.fc * (1.0 + eta_c * s.t / s.D * s.fy / s.fc)) / 1e3,
                {"lambda_bar": lam, "eta_s_raw": eta_s_raw, "eta_c_raw": eta_c_raw,
                 "eta_s": eta_s, "eta_c": eta_c}, "")
    assert code == "GEP"
    lam = 4.0 * s.L / s.D
    r1, r2 = 3.0 * s.fc - 9.596, Ac - 11.562
    if r1 < 0 or r2 < 0:
        return (None, {"lambda": lam},
                f"negative radicand (3fc-9.596={r1:.3f}, Ac-11.562={r2:.3f})")
    return (As + 2.0 * s.fc - 4.0 * lam + math.sqrt(s.fc) * (Ac + math.sqrt(r1))
            + 0.169 * As * (s.fy - 2.0 * lam) * math.sqrt(r2) / (s.D / s.t),
            {"lambda": lam}, "")


ORACLE_OPTIONS = [CodeOptions(), CodeOptions(fck_mode="cube"),
                  CodeOptions(ec4_slenderness="literal")]


@pytest.fixture(scope="module")
def oracle_specimens():
    return list(generate_synthetic(25600, 7, 0.1).specimens) + [
        Specimen(D=100, t=5, L=300, fy=300, fc=3.0, N=650),    # GEP radicand < 0
        Specimen(D=100, t=5, L=1400, fy=300, fc=30, N=650),    # EC4 eta_c clamped
    ]


class TestArrayPathOracle:
    """predict_all against the scalar path: exact wherever only + - * / and
    sqrt are used; WAN and EC4 use `**`, where numpy's pow and libm's differ
    by an ulp, grown by cancellation to at most ~1.5e-12 relative."""

    @pytest.mark.parametrize("opts", ORACLE_OPTIONS, ids=repr)
    def test_matches_scalar_path(self, oracle_specimens, opts):
        preds = predict_all(oracle_specimens, opts)
        assert len(preds) == len(oracle_specimens) * len(CODE_IDS)
        invalid = set()
        for k, p in enumerate(preds):
            s, code = oracle_specimens[k // len(CODE_IDS)], CODE_IDS[k % len(CODE_IDS)]
            cap, inter, message = _scalar_predict(code, s, opts)
            assert (p.code_id, p.valid, p.message) == (code, not message, message)
            assert p.intermediates.keys() == inter.keys()
            if message:
                invalid.add(code)
                assert p.capacity_kn is None
            if code in ("WAN", "EC4"):
                if cap is not None:
                    assert p.capacity_kn == pytest.approx(cap, rel=1e-12, abs=0)
                for key, value in inter.items():
                    assert math.isclose(p.intermediates[key], value,
                                        rel_tol=1e-12, abs_tol=1e-12), (code, key)
            else:
                assert p.capacity_kn == cap and p.intermediates == inter, (k, code)
        assert "GEP" in invalid
        ec4 = preds[-len(CODE_IDS) + CODE_IDS.index("EC4")]
        if opts.ec4_slenderness == "standard":
            assert ec4.intermediates["eta_c_raw"] < 0
            assert ec4.intermediates["eta_c"] == 0.0


class TestPredictAllRows:
    """What a caller scoring batches reads from predict_all: rows in
    specimen-major order, one code per stride of len(CODE_IDS), AIJ and
    ACI equal to their closed forms, the invalid GEP row, and immutable
    rows."""

    @pytest.fixture(scope="class")
    def batch(self):
        return list(generate_synthetic(255, 5, 0.1).specimens) + [
            Specimen(D=100, t=5, L=300, fy=300, fc=3.0, N=650)]   # GEP radicand < 0

    def test_order_and_strided_slices(self, batch):
        preds = predict_all(batch)
        per = len(CODE_IDS)
        assert [p.code_id for p in preds] == list(CODE_IDS) * len(batch)
        for code in CODE_IDS:
            rows = preds[CODE_IDS.index(code)::per]
            assert len(rows) == len(batch)
            assert all(p.code_id == code for p in rows)
            assert rows[:3] == [one_code(code, s) for s in batch[:3]]

    def test_aij_aci_closed_forms(self, batch):
        preds = predict_all(batch)
        per = len(CODE_IDS)
        D, t, fy, fc = (np.array([getattr(s, name) for s in batch])
                        for name in ("D", "t", "fy", "fc"))
        inner = D - 2 * t
        As = np.pi * (D * D - inner * inner) / 4.0
        Ac = np.pi * inner * inner / 4.0
        aij = np.array([p.capacity_kn for p in preds[CODE_IDS.index("AIJ")::per]])
        aci = np.array([p.capacity_kn for p in preds[CODE_IDS.index("ACI")::per]])
        assert np.array_equal(aij, (1.27 * As * fy + Ac * fc) / 1e3)
        assert np.array_equal(aci, (As * fy + 0.85 * Ac * fc) / 1e3)
        assert all(type(c) is float for c in aij.tolist() + aci.tolist())

    def test_invalid_gep_row(self, batch):
        preds = predict_all(batch)
        last = preds[-len(CODE_IDS):]
        gep = last[CODE_IDS.index("GEP")]
        assert (gep.valid, gep.capacity_kn) == (False, None)
        assert gep.message == "negative radicand (3fc-9.596=-0.596, Ac-11.562=6350.163)"
        assert gep.intermediates == {"lambda": 12.0}
        assert all(p.valid and p.message == "" for p in last if p.code_id != "GEP")
        assert sum(not p.valid for p in preds) == 1

    def test_rows_are_exact_code_predictions(self, batch):
        # rows are built in C with tuple.__new__; each must be the same
        # record CodePrediction._make builds from its fields, invalid rows
        # included
        for opts in ORACLE_OPTIONS:
            preds = predict_all(batch, opts)
            assert all(type(p) is CodePrediction for p in preds)
            assert preds == [CodePrediction._make(tuple(p)) for p in preds]
            assert all(len(p) == len(CodePrediction._fields) for p in preds)
            assert [p._asdict() for p in preds] == [
                dict(zip(CodePrediction._fields, p)) for p in preds]
        invalid = [p for p in preds if not p.valid]
        assert [p.code_id for p in invalid] == ["GEP"]
        assert type(invalid[0]) is CodePrediction

    def test_rows_are_immutable(self, batch):
        p = predict_all(batch[:1])[0]
        for name in CodePrediction._fields:
            with pytest.raises(AttributeError):
                setattr(p, name, None)
        with pytest.raises(TypeError):
            CodePrediction("AIJ", 1.0)   # intermediates is required
        rows = predict_all(batch[:2])
        assert rows[0].intermediates is not rows[len(CODE_IDS)].intermediates


# ------------------------------------------------------- row-builder oracle
# The list-building predict_all that CodeTable replaced, kept as the
# reference: every row built up front, in C per code, with one dict display
# per row.

_INTERMEDIATES = {
    "EC4": lambda lam, s_raw, c_raw, s, c: {"lambda_bar": lam, "eta_s_raw": s_raw,
                                            "eta_c_raw": c_raw, "eta_s": s, "eta_c": c},
    "GB50936": lambda theta, fck: {"theta": theta, "fck": fck},
    "GEP": lambda lam: {"lambda": lam},
    "HAN": lambda theta, fck: {"theta": theta, "fck": fck},
    "WAN": lambda eta_a, eta_c: {"eta_a": eta_a, "eta_c": eta_c},
}


def _row_builder_predict_all(specimens, opts):
    D, t, L, fy, fc = numeric_columns(specimens, 5).T
    As, Ac, fck, theta = codes._confinement(D, t, fy,
                                            fc / 0.8 if opts.fck_mode == "cube" else fc)
    geometric = 4.0 * L / D
    lam = (geometric if opts.ec4_slenderness == "literal"
           else codes._ec4_slenderness(As, Ac, D, t, L, fy, fc))
    eta_s_raw, eta_c_raw = 0.25 * (3.0 + 2.0 * lam), 4.9 - 18.5 * lam + 17.0 * lam * lam
    eta_s, eta_c = np.minimum(eta_s_raw, 1.0), np.where(lam > 0.5, 0.0, np.maximum(eta_c_raw, 0.0))
    r1, r2 = 3.0 * fc - 9.596, Ac - 11.562
    with np.errstate(invalid="ignore"):
        gep = (As + 2.0 * fc - 4.0 * geometric + np.sqrt(fc) * (Ac + np.sqrt(r1))
               + 0.169 * As * (fy - 2.0 * geometric) * np.sqrt(r2) / (D / t))
    wan, wan_eta_a, wan_eta_c = codes._wan(As, Ac, D, t, fy, fc)
    columns = {
        "AIJ": (codes._aij(As, Ac, fy, fc), ()),
        "EC4": ((eta_s * As * fy + Ac * fc * (1.0 + eta_c * t / D * fy / fc)) / 1e3,
                (lam, eta_s_raw, eta_c_raw, eta_s, eta_c)),
        "ACI": (codes._aci(As, Ac, fy, fc), ()),
        "GB50936": (codes._gb(As, Ac, fck, theta), (theta, fck)),
        "GEP": (gep, (geometric,)),
        "HAN": (codes._han(As, Ac, fck, theta), (theta, fck)),
        "WAN": (wan, (wan_eta_a, wan_eta_c)),
    }
    invalid = {
        "GEP": ((r1 < 0) | (r2 < 0),
                lambda i: f"negative radicand (3fc-9.596={float(r1[i]):.3f}, "
                          f"Ac-11.562={float(r2[i]):.3f})"),
        "WAN": ((wan <= 0) | ~np.isfinite(wan),
                lambda i: f"non-physical capacity {float(wan[i])!r}"),
    }
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


@pytest.fixture(scope="module")
def oracle_rows(oracle_specimens):
    return {opts: _row_builder_predict_all(oracle_specimens, opts) for opts in ORACLE_OPTIONS}


class TestCodeTable:
    """The column table against the row builder it replaced: iteration,
    every index and slices build equal rows, invalid ones included."""

    @pytest.mark.parametrize("opts", ORACLE_OPTIONS, ids=repr)
    def test_rows_equal_row_builder(self, oracle_specimens, oracle_rows, opts):
        table, rows = predict_all(oracle_specimens, opts), oracle_rows[opts]
        assert isinstance(table, CodeTable) and len(table) == len(rows)
        assert list(table) == rows and table == rows
        assert sum(not p.valid for p in rows) > 0
        assert [table[j] for j in range(len(rows))] == rows
        assert [table[j] for j in range(-len(rows), 0, 89)] == rows[::89]
        assert [table[j] for j in np.arange(0, len(rows), 97)] == rows[::97]
        per = len(CODE_IDS)
        for k in range(per):
            assert table[k::per] == rows[k::per]
        assert table[::-1] == rows[::-1]
        assert table[5:5] == [] and table[len(rows):] == []
        assert table[ROW_BLOCK * per - 3:ROW_BLOCK * per + 3] \
            == rows[ROW_BLOCK * per - 3:ROW_BLOCK * per + 3]

    def test_index_past_either_end(self, oracle_specimens):
        table = predict_all(oracle_specimens[:3])
        assert table[-len(table)] == table[0]
        for bad in (len(table), -len(table) - 1):
            with pytest.raises(IndexError):
                table[bad]
        with pytest.raises(TypeError):
            table[1.0]

    def test_theta_fck_block_shared(self, oracle_specimens):
        """GB50936 and HAN report the same (theta, fck): one read-only block."""
        blocks = predict_all(oracle_specimens).blocks
        gb, han = blocks[CODE_IDS.index("GB50936")], blocks[CODE_IDS.index("HAN")]
        assert gb is han and gb.shape == (2, len(oracle_specimens))
        assert not gb.flags.writeable

    def test_immutable(self, oracle_specimens):
        table = predict_all(oracle_specimens[:3])
        for name in ("capacity", "valid", "blocks", "messages"):
            with pytest.raises(AttributeError):
                setattr(table, name, None)
        for array in (table.capacity, table.valid, *table.blocks):
            with pytest.raises(ValueError):
                array.flat[0] = 0

    def test_fresh_dict_on_each_access(self, oracle_specimens):
        table = predict_all(oracle_specimens[:3])
        k = CODE_IDS.index("EC4")
        first, again = table[k], table[k]
        assert first.intermediates is not again.intermediates
        assert next(iter(table[k:k + 1])).intermediates is not first.intermediates
        iterated = [p.intermediates for p in table][k]
        assert iterated is not first.intermediates and iterated == first.intermediates
        first.intermediates["eta_c"] = -1.0
        assert table[k].intermediates == again.intermediates != first.intermediates


def test_held_memory():
    """The table of 25,600 specimens holds under 8 MB by tracemalloc; the
    rows and dicts the row builder kept held 53 MB."""
    specimens = generate_synthetic(25_600, 9, 0.1).specimens
    predict_all(specimens)  # imports and caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        kept = predict_all(specimens)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(kept) == 25_600 * len(CODE_IDS)
    assert held < 8e6
