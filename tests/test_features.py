import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfstcap.data import Specimen, generate_synthetic
from cfstcap.errors import DataError
from cfstcap.features import (FEATURE_VOCAB, PAPER_SELECTED, RAW_NAMES,
                              build_frame, correlation_matrix, design_matrix,
                              pearson, select_features)

REF = Specimen(D=100, t=5, L=300, fy=300, fc=30, N=650)


def engineer_reference(s: Specimen) -> dict[str, float]:
    """The former per-specimen scalar feature path, kept as the oracle for
    the array path behind build_frame and design_matrix."""
    inner = s.D - 2 * s.t
    As = math.pi * (s.D * s.D - inner * inner) / 4.0
    Ac = math.pi * inner * inner / 4.0
    Ns = As * s.fy / 1e3
    Nc = Ac * s.fc / 1e3
    return {
        "D": s.D, "t": s.t, "L": s.L, "fy": s.fy, "fc": s.fc,
        "As": As,
        "Ac": Ac,
        "Asc": As + Ac,
        "C": math.pi * s.D,
        "D_over_t": s.D / s.t,
        "Vs": As * s.L,
        "Vc": Ac * s.L,
        "xi": (As * s.fy) / (Ac * s.fc),
        "Nu0": Ns + Nc,
        "Ns": Ns,
        "Nc": Nc,
        "SEF": s.D / (s.t * math.sqrt(s.fy / 235.0)),
        "alpha_sc": As / Ac,
        "lambda": 4.0 * s.L / s.D,
    }


def reference_matrix(specimens, names):
    return np.array([[engineer_reference(s)[n] for n in names] for s in specimens])


def features_of(s: Specimen) -> dict[str, float]:
    frame = build_frame([s])
    return {n: frame.column(n)[0] for n in frame.names}


class TestEngineer:
    def test_hand_values(self):
        e = features_of(REF)
        assert e["As"] == pytest.approx(1492.257, abs=1e-3)
        assert e["Nu0"] == pytest.approx(638.53, abs=0.01)   # kN
        assert e["lambda"] == pytest.approx(12.0)
        assert e["D_over_t"] == pytest.approx(20.0)
        assert e["alpha_sc"] == pytest.approx(0.23457, abs=1e-5)

    def test_full_circle_identity(self):
        assert build_frame([REF]).column("Asc")[0] == pytest.approx(np.pi * 100**2 / 4,
                                                                    rel=1e-12)

    def test_nu0_decomposition_exact(self):
        frame = build_frame(generate_synthetic(100, 0, 0.1).specimens)
        assert np.array_equal(frame.column("Nu0"), frame.column("Ns") + frame.column("Nc"))

    @given(st.floats(0.5, 2.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_law(self, s):
        base = features_of(REF)
        scaled = features_of(Specimen(D=REF.D * s, t=REF.t * s, L=REF.L * s,
                                      fy=REF.fy, fc=REF.fc, N=REF.N))
        for name, power in (("As", 2), ("Ac", 2), ("Asc", 2), ("C", 1),
                            ("Vs", 3), ("Vc", 3)):
            assert scaled[name] == pytest.approx(base[name] * s**power, rel=1e-9)
        for name in ("D_over_t", "lambda", "alpha_sc", "xi", "SEF"):
            assert scaled[name] == pytest.approx(base[name], rel=1e-9)

    def test_vectorized_matches_scalar(self):
        specs = generate_synthetic(20, 1, 0.1).specimens
        M = design_matrix([s.D for s in specs], [s.t for s in specs],
                          [s.L for s in specs], [s.fy for s in specs],
                          [s.fc for s in specs], FEATURE_VOCAB)
        assert np.array_equal(M, reference_matrix(specs, FEATURE_VOCAB))

    @pytest.mark.parametrize("names", [None, PAPER_SELECTED, RAW_NAMES,
                                       ["lambda", "D", "xi"]])
    def test_build_frame_matches_scalar_oracle(self, names):
        specs = generate_synthetic(1000, 5, 0.1).specimens + (REF,)
        frame = build_frame(specs, names=names)
        expected_names = tuple(FEATURE_VOCAB if names is None else names)
        assert frame.names == expected_names
        assert np.array_equal(frame.X, reference_matrix(specs, expected_names))
        assert np.array_equal(frame.y, [s.N for s in specs])

    def test_build_frame_matches_attribute_gather(self):
        # the frame from the tuple-slice gather equals the one built from
        # the former per-attribute tuples, for int fields too
        specs = generate_synthetic(300, 6, 0.1).specimens + (REF,)
        D, t, L, fy, fc, N = np.array([(s.D, s.t, s.L, s.fy, s.fc, s.N)
                                       for s in specs], dtype=float).T
        frame = build_frame(specs)
        assert np.array_equal(frame.X, design_matrix(D, t, L, fy, fc, FEATURE_VOCAB))
        assert np.array_equal(frame.y, N)
        assert frame.X.dtype == frame.y.dtype == np.float64

    def test_build_frame_rejects_empty(self):
        with pytest.raises(DataError, match="no specimens"):
            build_frame([])


class TestPearson:
    def test_perfect_linear(self):
        assert pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0)

    def test_perfect_inverse(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_value(self):
        assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8)

    @pytest.mark.parametrize("value", [0.1, 30.3, 40.0])
    def test_constant_non_dyadic_column_is_undefined(self, value):
        # the column's mean leaves rounding residue in its deviation, so
        # constancy is told by the range
        with pytest.raises(DataError):
            pearson(np.full(120, value), np.arange(120.0))
        with pytest.raises(DataError):
            pearson(np.arange(120.0), np.full(120, value))

    def test_zero_variance(self):
        with pytest.raises(DataError):
            pearson([1, 1, 1], [1, 2, 3])

    @given(st.floats(0.01, 100), st.floats(-50, 50))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, a, b):
        x = np.array([1.0, 4.0, 2.0, 7.0, 5.0])
        y = np.array([2.0, 1.0, 6.0, 3.0, 4.0])
        assert pearson(a * x + b, y) == pytest.approx(pearson(x, y), abs=1e-12)


class TestCorrelationMatrix:
    def test_shape_and_symmetry(self):
        frame = build_frame(generate_synthetic(60, 2, 0.1).specimens)
        corr = correlation_matrix(frame)
        m = corr.values
        assert corr.names[-1] == "N"
        assert np.allclose(m, m.T)
        assert np.allclose(np.diag(m), 1.0)
        assert np.all(m >= -1) and np.all(m <= 1)

    def test_proportional_columns(self):
        from cfstcap.features import FeatureFrame
        x = np.array([1.0, 4.0, 2.0, 7.0])
        frame = FeatureFrame(("D", "t"), np.column_stack([x, 2 * x]), x + 1)
        corr = correlation_matrix(frame)
        assert corr.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_affine_rescaling_invariance(self):
        frame = build_frame(generate_synthetic(40, 2, 0.1).specimens)
        corr1 = correlation_matrix(frame)
        X2 = frame.X.copy()
        X2[:, 0] = 3.5 * X2[:, 0] + 10.0
        from cfstcap.features import FeatureFrame
        corr2 = correlation_matrix(FeatureFrame(frame.names, X2, frame.y))
        assert np.allclose(corr1.values, corr2.values, atol=1e-12)

    def test_constant_column_flagged(self):
        from cfstcap.features import FeatureFrame
        X = np.column_stack([np.ones(5), np.arange(5.0) + 1])
        frame = FeatureFrame(("D", "t"), X, np.arange(5.0) + 2)
        corr = correlation_matrix(frame)
        # an undefined correlation is NaN; the diagonal stays 1
        assert math.isnan(corr.values[0, 1]) and math.isnan(corr.values[2, 0])
        assert corr.values[0, 0] == 1.0
        assert corr.values[1, 2] == pytest.approx(1.0)


class TestSelectFeatures:
    VOCAB = ["D", "t", "L", "fy", "fc"]

    def test_paper_fixed(self):
        assert select_features([], [], [], 10, mode="paper_fixed") == PAPER_SELECTED

    def test_identical_rankings(self):
        r = ["fc", "D", "L", "t", "fy"]
        assert select_features(r, r, r, 3) == ["fc", "D", "L"]

    def test_rank_sum_rule(self):
        # F = fc placed 1st/2nd/3rd beats G = D placed 4th/4th/4th
        r1 = ["fc", "t", "L", "D", "fy"]
        r2 = ["t", "fc", "L", "D", "fy"]
        r3 = ["t", "L", "fc", "D", "fy"]
        out = select_features(r1, r2, r3, 4)
        assert out.index("fc") < out.index("D")

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            select_features(self.VOCAB, self.VOCAB, self.VOCAB, 9)

    def test_mismatched_vocab(self):
        with pytest.raises(ValueError):
            select_features(self.VOCAB, self.VOCAB[:-1] + ["As"], self.VOCAB, 2)
