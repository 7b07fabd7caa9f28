import math

import numpy as np
import pytest

from cfstcap.data import ENVELOPE, Specimen
from cfstcap.errors import ConfigError
from cfstcap.explain import (DependenceSample, GaConfig,
                             _alpha_feasible_D_range, build_dependence_grid,
                             ga_invert, optimal_alpha_curve,
                             shapley_explain_network,
                             thickness_for_steel_ratio)
from cfstcap.features import build_frame
from cfstcap.network import NetworkParameters, predict_rows


def toy_model(feature_order, weights):
    """Single-layer net: capacity = prod(feature_i ^ w_i) for positive inputs."""
    w = np.asarray(weights, dtype=float).reshape(len(feature_order), 1)
    return NetworkParameters(
        layer_sizes=[len(feature_order), 1],
        weights=[w], biases=[np.zeros(1)],
        input_mean=np.zeros(len(feature_order)),
        input_std=np.ones(len(feature_order)),
        feature_order=tuple(feature_order),
    )


class TestGaConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            GaConfig(population=2)
        with pytest.raises(ConfigError):
            GaConfig(mutation_rate=1.5)
        with pytest.raises(ConfigError):
            GaConfig(elite_count=60, population=60)
        with pytest.raises(ConfigError):
            GaConfig(bounds={"D": (10.0, 5.0)})


class TestGaInvert:
    # capacity = D exactly, so the planted optimum is D = target
    MODEL = toy_model(("D",), [1.0])
    CONFIG = GaConfig(population=30, generations=40, seed=0)

    def test_recovers_planted_optimum(self):
        s, fitness, _ = ga_invert(self.MODEL, 500.0, config=self.CONFIG)
        assert fitness < 2.0
        assert s.D == pytest.approx(500.0, abs=2.0)
        assert predict_rows(self.MODEL, [[s.D]])[0] == pytest.approx(s.D)

    def test_history_monotone_with_elitism(self):
        _, _, history = ga_invert(self.MODEL, 500.0, config=self.CONFIG)
        assert len(history) == self.CONFIG.generations + 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_deterministic(self):
        a = ga_invert(self.MODEL, 300.0, config=self.CONFIG)
        b = ga_invert(self.MODEL, 300.0, config=self.CONFIG)
        assert a[0] == b[0] and a[2] == b[2]

    def test_fixed_genes_respected(self):
        s, _, _ = ga_invert(self.MODEL, 400.0, fixed={"fc": 50.0, "t": 3.0},
                            config=self.CONFIG)
        assert s.fc == 50.0 and s.t == 3.0

    def test_geometry_invariant_holds(self):
        s, _, _ = ga_invert(self.MODEL, 100.0, config=self.CONFIG)
        assert s.D > 2 * s.t
        for g in ("D", "t", "L", "fy", "fc"):
            lo, hi = ENVELOPE[g]
            assert lo <= getattr(s, g) <= hi

    def test_config_errors(self):
        with pytest.raises(ConfigError, match="unknown genes"):
            ga_invert(self.MODEL, 100.0, fixed={"E": 2.0})
        with pytest.raises(ConfigError, match="D > 2t"):
            ga_invert(self.MODEL, 100.0, fixed={"D": 10.0, "t": 6.0})
        with pytest.raises(ConfigError, match="all genes fixed"):
            ga_invert(self.MODEL, 100.0,
                      fixed={"D": 100, "t": 5, "L": 300, "fy": 300, "fc": 30})


class TestSteelRatioGeometry:
    def test_thickness_round_trip(self):
        alpha = build_frame([Specimen(100, 5, 300, 300, 30, 650)]).column("alpha_sc")[0]
        assert thickness_for_steel_ratio(100.0, alpha) == pytest.approx(5.0, rel=1e-9)

    def test_thickness_takes_arrays(self):
        D, alpha = (a.ravel() for a in np.meshgrid(np.linspace(50.0, 1000.0, 20),
                                                   np.linspace(0.05, 0.5, 24)))
        # the former scalar formula, evaluated one value at a time
        expected = [d * (1.0 - 1.0 / math.sqrt(1.0 + a)) / 2.0 for d, a in zip(D, alpha)]
        assert np.array_equal(thickness_for_steel_ratio(D, alpha), expected)

    def test_feasible_interval_hand_case(self):
        alpha = 1900.0 / 8100.0  # t = 5 at D = 100, so r = 0.9 exactly
        rng = _alpha_feasible_D_range(alpha, dict(ENVELOPE))
        # thickness bounds give D in [10.4, 600]; intersecting with the D
        # envelope [44.95, 1020] leaves [44.95, 600]
        assert rng[0] == pytest.approx(ENVELOPE["D"][0], rel=1e-6)
        assert rng[1] == pytest.approx(2 * ENVELOPE["t"][1] / 0.1, rel=1e-6)

    def test_unrealizable_ratio(self):
        assert _alpha_feasible_D_range(1e-6, dict(ENVELOPE)) is None


class TestDependenceGrid:
    MODEL = toy_model(("D",), [1.0])
    CONFIG = GaConfig(population=12, generations=12, seed=1)

    def grid(self):
        return build_dependence_grid(self.MODEL, 400.0,
                                     fc_grid=[30.0, 60.0],
                                     alpha_grid=[0.1, 0.2, 0.3],
                                     config=self.CONFIG,
                                     shap_background_size=6)

    def test_cell_count_and_validity(self):
        samples = self.grid()
        assert len(samples) == 6
        assert all(s.valid for s in samples)

    def test_realized_steel_ratio_exact(self):
        samples = self.grid()
        realized = build_frame([s.specimen for s in samples]).column("alpha_sc")
        assert realized == pytest.approx([s.alpha_sc for s in samples], abs=1e-6)

    def test_pred_consistent_with_model(self):
        for s in self.grid():
            assert s.pred_kn == pytest.approx(s.specimen.D, rel=1e-9)

    def test_null_players_get_zero_shapley(self):
        # the toy model reads only D, so neither fc nor alpha_sc can carry
        # attribution
        for s in self.grid():
            assert s.shap_fc == pytest.approx(0.0, abs=1e-9)
            assert s.shap_alpha == pytest.approx(0.0, abs=1e-9)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            build_dependence_grid(self.MODEL, 400.0, fc_grid=[],
                                  alpha_grid=[0.1], config=self.CONFIG)


class TestOptimalAlphaCurve:
    def cell(self, fc, alpha, shap_alpha, valid=True):
        return DependenceSample(fc=fc, alpha_sc=alpha, specimen=None,
                                pred_kn=None, shap_fc=0.0,
                                shap_alpha=shap_alpha, valid=valid)

    def test_argmax_per_fc(self):
        samples = [self.cell(30, 0.1, 1.0), self.cell(30, 0.2, 3.0),
                   self.cell(30, 0.3, 2.0),
                   self.cell(60, 0.1, 5.0), self.cell(60, 0.2, 4.0),
                   self.cell(60, 0.3, 1.0)]
        assert optimal_alpha_curve(samples) == [(30, 0.2), (60, 0.1)]

    def test_tie_breaks_to_smaller_alpha(self):
        samples = [self.cell(30, a, 2.0) for a in (0.3, 0.1, 0.2)]
        assert optimal_alpha_curve(samples) == [(30, 0.1)]

    def test_min_valid_filter(self):
        samples = [self.cell(30, 0.1, 1.0), self.cell(30, 0.2, 2.0),
                   self.cell(30, 0.3, 3.0, valid=False),
                   self.cell(60, 0.1, 1.0), self.cell(60, 0.2, 2.0),
                   self.cell(60, 0.3, 3.0)]
        assert optimal_alpha_curve(samples, min_valid=3) == [(60, 0.3)]

    def test_sorted_by_fc(self):
        samples = [self.cell(fc, a, a) for fc in (90, 30, 60)
                   for a in (0.1, 0.2, 0.3)]
        curve = optimal_alpha_curve(samples)
        assert [fc for fc, _ in curve] == [30, 60, 90]


class TestShapleyExplainNetwork:
    # capacity = D * sqrt(fc); fy is a null player
    MODEL = toy_model(("D", "fc", "fy"), [1.0, 0.5, 0.0])

    def setup_method(self):
        rng = np.random.default_rng(0)
        self.rows = np.column_stack([rng.uniform(100, 300, 4),
                                     rng.uniform(20, 80, 4),
                                     rng.uniform(200, 500, 4)])
        self.bg = np.column_stack([rng.uniform(100, 300, 10),
                                   rng.uniform(20, 80, 10),
                                   rng.uniform(200, 500, 10)])

    def test_exact_local_accuracy_and_null_player(self):
        phi, phi0 = shapley_explain_network(self.MODEL, self.rows, self.bg)
        pred = predict_rows(self.MODEL, self.rows)
        assert np.allclose(phi0 + phi.sum(axis=1), pred, atol=1e-9)
        assert np.allclose(phi[:, 2], 0.0, atol=1e-9)

    def test_sampled_close_to_exact(self):
        exact, _ = shapley_explain_network(self.MODEL, self.rows, self.bg)
        sampled, _ = shapley_explain_network(self.MODEL, self.rows, self.bg,
                                             mode="sampled",
                                             n_permutations=400, seed=2)
        assert np.max(np.abs(sampled - exact)) < 0.02 * np.abs(exact).max()

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            shapley_explain_network(self.MODEL, self.rows, self.bg, mode="tree")
