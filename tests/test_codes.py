import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstcap.codes import (CODE_IDS, CodeOptions, aci_capacity_kn,
                           aij_capacity_kn, ec4_relative_slenderness,
                           gb_capacity_kn, han_capacity_kn, predict_all,
                           predict_code, wan_capacity_kn)
from cfstcap.data import Specimen, generate_synthetic

REF = Specimen(D=100, t=5, L=300, fy=300, fc=30, N=650)


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
            pred = predict_code(code, REF)
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
        pred = predict_code("GB50936", REF)
        As = math.pi * (100**2 - 90**2) / 4
        Ac = math.pi * 90**2 / 4
        assert pred.intermediates["theta"] == pytest.approx(As * 300 / (Ac * 30), rel=1e-12)

    def test_cube_mode_changes_fck(self):
        cyl = predict_code("HAN", REF)
        cube = predict_code("HAN", REF, CodeOptions(fck_mode="cube"))
        assert cube.intermediates["fck"] == pytest.approx(30 / 0.8)
        assert cube.capacity_kn != pytest.approx(cyl.capacity_kn)

    def test_wan_intermediates_recorded(self):
        inter = {}
        cap = wan_capacity_kn(100, 5, 300, 30, inter)
        assert cap > 0
        assert set(inter) == {"eta_a", "eta_c"}
        pred = predict_code("WAN", REF)
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
        pred = predict_code("EC4", REF)
        assert pred.valid
        assert pred.intermediates["eta_s"] <= 1.0
        assert pred.intermediates["eta_c"] >= 0.0

    def test_eta_formulas(self):
        pred = predict_code("EC4", REF)
        lam = pred.intermediates["lambda_bar"]
        assert pred.intermediates["eta_s_raw"] == pytest.approx(0.25 * (3 + 2 * lam), rel=1e-12)
        assert pred.intermediates["eta_c_raw"] == pytest.approx(
            4.9 - 18.5 * lam + 17 * lam * lam, rel=1e-12)

    def test_literal_mode_uses_geometric_ratio(self):
        pred = predict_code("EC4", REF, CodeOptions(ec4_slenderness="literal"))
        assert pred.intermediates["lambda_bar"] == pytest.approx(12.0)

    def test_negative_eta_c_clamped_to_zero(self):
        # mid-range slenderness drives the quadratic eta_c below zero
        s = Specimen(D=100, t=5, L=1400, fy=300, fc=30, N=650)
        lam = ec4_relative_slenderness(100, 5, 1400, 300, 30)
        assert 0.456 < lam < 0.632  # interval where eta_c_raw < 0
        clamped = predict_code("EC4", s)
        assert clamped.intermediates["eta_c_raw"] < 0
        assert clamped.valid and clamped.intermediates["eta_c"] == 0.0


class TestGep:
    def test_low_fc_flagged_invalid(self):
        s = Specimen(D=100, t=5, L=300, fy=300, fc=3.0, N=650)
        pred = predict_code("GEP", s)
        assert not pred.valid
        assert pred.capacity_kn is None
        assert "radicand" in pred.message

    def test_valid_in_domain(self):
        pred = predict_code("GEP", REF)
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

    def test_unknown_code(self):
        with pytest.raises(ValueError, match="unknown code"):
            predict_code("BS5400", REF)
