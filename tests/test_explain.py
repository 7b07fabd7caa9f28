import itertools
import math

import numpy as np
import pytest

from cfstcap.data import ENVELOPE, Specimen
from cfstcap.errors import ConfigError
import cfstcap.explain as explain
from cfstcap.explain import (DependenceSample, GaConfig, _run_ga,
                             _alpha_feasible_D_range, build_dependence_grid,
                             optimal_alpha_curve, thickness_for_steel_ratio)
from cfstcap.features import build_frame
from cfstcap.network import (ConstraintSpec, NetworkParameters, TrainConfig,
                             init_parameters, predict_rows)
from cfstcap.trees import fit_gradient_boosting
from cfstcap.trees.shapley import shapley_exact, shapley_permutation


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
        with pytest.raises(ConfigError, match="generations must be >= 0"):
            GaConfig(generations=-1)
        assert GaConfig().bounds is ENVELOPE


class TestGaInvert:
    """The GA inverting a network on one cell, as the dependence grid does
    on each of its cells: _run_ga searches the input whose prediction
    meets a target capacity."""
    # capacity = D exactly, so the planted optimum is D = target
    MODEL = toy_model(("D",), [1.0])
    CONFIG = GaConfig(population=30, generations=40, seed=0)

    def invert(self, target):
        def evaluate(pop):
            return np.abs(predict_rows(self.MODEL, pop[0]) - target)[None, :]
        lo, hi = ENVELOPE["D"]
        return _run_ga(evaluate, np.array([[lo]]), np.array([[hi]]), self.CONFIG,
                       np.random.default_rng(0))

    def test_recovers_planted_optimum(self):
        best, fitness, _ = self.invert(500.0)
        assert fitness[0] < 2.0
        assert best[0, 0] == pytest.approx(500.0, abs=2.0)

    def test_history_monotone_with_elitism(self):
        _, _, history = self.invert(500.0)
        assert history.shape == (self.CONFIG.generations + 1, 1)
        assert np.all(np.diff(history[:, 0]) <= 1e-12)

    def test_deterministic(self):
        for a, b in zip(self.invert(300.0), self.invert(300.0)):
            assert np.array_equal(a, b)


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
        rng = _alpha_feasible_D_range(alpha)
        # thickness bounds give D in [10.4, 600]; intersecting with the D
        # envelope [44.95, 1020] leaves [44.95, 600]
        assert rng[0] == pytest.approx(ENVELOPE["D"][0], rel=1e-6)
        assert rng[1] == pytest.approx(2 * ENVELOPE["t"][1] / 0.1, rel=1e-6)

    def test_unrealizable_ratio(self):
        assert _alpha_feasible_D_range(1e-6) is None


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

    @pytest.mark.parametrize("target, background, message", [
        (400.0, 0, "shap_background_size must be >= 1"),
    ])
    def test_bad_value_rejected_before_the_ga(self, target, background, message,
                                              monkeypatch):
        monkeypatch.setattr(explain, "_run_ga", None)  # reaching the GA would fail
        with pytest.raises(ConfigError, match=message):
            build_dependence_grid(self.MODEL, target, fc_grid=[30.0],
                                  alpha_grid=[0.1], config=self.CONFIG,
                                  shap_background_size=background)


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
        # an fc column needs explain.MIN_VALID_CELLS = 3 valid cells
        assert optimal_alpha_curve(samples) == [(60, 0.3)]

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

    def fn(self, Z):
        return predict_rows(self.MODEL, Z)

    def test_exact_local_accuracy_and_null_player(self):
        phi, phi0 = shapley_exact(self.fn, self.rows, self.bg)
        pred = predict_rows(self.MODEL, self.rows)
        assert np.allclose(phi0 + phi.sum(axis=1), pred, atol=1e-9)
        assert np.allclose(phi[:, 2], 0.0, atol=1e-9)

    def test_sampled_close_to_exact(self):
        exact, _ = shapley_exact(self.fn, self.rows, self.bg)
        sampled, _ = shapley_permutation(self.fn, self.rows, self.bg,
                                         n_permutations=400, seed=2)
        assert np.max(np.abs(sampled - exact)) < 0.02 * np.abs(exact).max()


def reference_shapley_exact(predict_fn, rows, background):
    """The former exact Shapley sweep: one model call per (row, coalition)."""
    n, m = rows.shape
    masks = np.array(list(itertools.product((False, True), repeat=m)), dtype=bool)
    sizes = masks.sum(axis=1)
    w = np.array([math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
                  for s in range(m)])
    phi = np.zeros((n, m))
    phi0 = float(np.mean(predict_fn(background)))
    code = masks @ (1 << np.arange(m))
    pos = np.empty(code.max() + 1, dtype=int)
    pos[code] = np.arange(len(masks))
    for r in range(n):
        x = rows[r]
        values = np.empty(len(masks))
        for k, mask in enumerate(masks):
            z = background.copy()
            z[:, mask] = x[mask]
            values[k] = float(np.mean(predict_fn(z)))
        for i in range(m):
            s_idx = np.flatnonzero(~masks[:, i])
            with_idx = pos[code[s_idx] + (1 << i)]
            phi[r, i] = np.sum(w[sizes[s_idx]] * (values[with_idx] - values[s_idx]))
    return phi, phi0


def counting(fn):
    """fn wrapped to record the row count of every call in .rows."""
    def wrapped(*args):
        wrapped.rows.append(len(args[-1]))
        return fn(*args)
    wrapped.rows = []
    return wrapped


class TestBatchedShapleyExact:
    """One model call per row against the former per-coalition sweep."""

    def check(self, predict_fn, rows, bg):
        fn = counting(predict_fn)
        phi, phi0 = shapley_exact(fn, rows, bg)
        ref_phi, ref_phi0 = reference_shapley_exact(predict_fn, rows, bg)
        assert np.array_equal(phi, ref_phi) and phi0 == ref_phi0
        m = rows.shape[1]
        assert fn.rows == [len(bg)] + [2**m * len(bg)] * len(rows)

    def test_gradient_boosting(self):
        rng = np.random.default_rng(3)
        X = rng.uniform(size=(200, 4))
        y = X[:, 0] * X[:, 1] + np.sin(3 * X[:, 2])
        gb = fit_gradient_boosting(X, y, n_trees=15, max_depth=3, seed=0)
        self.check(gb.predict, X[:3], X[50:62])

    @pytest.mark.parametrize("n_bg", [4, 12, 32])
    def test_network(self, n_bg):
        names = ("D", "t", "L", "fy", "fc")
        params = init_parameters(names, TrainConfig(hidden_layers=2, hidden_units=8,
                                                    seed=1), ConstraintSpec())
        rng = np.random.default_rng(n_bg)
        lo, hi = np.array([ENVELOPE[g] for g in names]).T
        Z = lo + (hi - lo) * rng.uniform(size=(3 + n_bg, len(names)))
        self.check(lambda rows: predict_rows(params, rows), Z[:3], Z[3:])


def center_distance(centers):
    """Closed-form per-row fitness: L1 distance of each genome to its cell's
    center."""
    def evaluate(pop):
        return np.abs(pop - centers[:, None, :]).sum(axis=2)
    return evaluate


class TestBatchedGa:
    CONFIG = GaConfig(population=10, generations=15, seed=0)
    LOWS = np.array([[0.0, -5.0], [1.0, 0.0], [-3.0, 2.0], [10.0, 10.0]])
    HIGHS = LOWS + np.array([[1.0, 10.0], [4.0, 1.0], [3.0, 5.0], [0.5, 20.0]])
    CENTERS = LOWS + 0.3 * (HIGHS - LOWS)

    def test_cells_independent(self):
        # common random numbers: a cell's run is the same alone or in a grid
        best, fit, history = _run_ga(center_distance(self.CENTERS), self.LOWS,
                                     self.HIGHS, self.CONFIG, np.random.default_rng(5))
        for c in range(len(self.LOWS)):
            b1, f1, h1 = _run_ga(center_distance(self.CENTERS[c:c + 1]),
                                 self.LOWS[c:c + 1], self.HIGHS[c:c + 1],
                                 self.CONFIG, np.random.default_rng(5))
            assert np.array_equal(best[c], b1[0])
            assert np.array_equal(fit[c], f1[0])
            assert np.array_equal(history[:, c], h1[:, 0])

    def test_zero_generations_returns_argmin_of_initial(self):
        # the first population, drawn as _run_ga draws it from the same seed
        span = self.HIGHS - self.LOWS
        draws = np.random.default_rng(0).uniform(size=(self.CONFIG.population, 2))
        initial = self.LOWS[:, None, :] + span[:, None, :] * draws
        config = GaConfig(population=10, generations=0)
        best, fit, history = _run_ga(center_distance(self.CENTERS), self.LOWS,
                                     self.HIGHS, config, np.random.default_rng(0))
        fitness = center_distance(self.CENTERS)(initial)
        for c in range(len(self.LOWS)):
            k = int(np.argmin(fitness[c]))
            assert np.array_equal(best[c], initial[c, k])
            assert fit[c] == fitness[c, k]
        assert np.array_equal(history, fitness.min(axis=1)[None, :])

    def test_history_shape_and_monotone(self):
        best, fit, history = _run_ga(center_distance(self.CENTERS), self.LOWS,
                                     self.HIGHS, self.CONFIG, np.random.default_rng(1))
        assert history.shape == (self.CONFIG.generations + 1, len(self.LOWS))
        # elitism: a cell's best fitness never gets worse
        assert np.all(np.diff(history, axis=0) <= 0)
        assert np.array_equal(history[-1], fit)
        assert np.all((best >= self.LOWS) & (best <= self.HIGHS))

    def test_infeasible_cells_take_no_model_rows(self, monkeypatch):
        model = toy_model(("D",), [1.0])
        config = GaConfig(population=8, generations=4, seed=3)
        assert _alpha_feasible_D_range(1e-6) is None
        runs = {}
        for alphas in ([0.1, 0.2], [1e-6, 0.1, 0.2]):
            fn = counting(predict_rows)
            monkeypatch.setattr(explain, "predict_rows", fn)
            samples = build_dependence_grid(model, 400.0, fc_grid=[30.0, 60.0],
                                            alpha_grid=alphas, config=config,
                                            shap_background_size=3)
            runs[len(alphas)] = (fn.rows, [s for s in samples if s.valid])
        rows2, valid2 = runs[2]
        rows3, valid3 = runs[3]
        # one call per generation and one for the realized cells, then the
        # exact Shapley sweep's background call and one call per valid cell
        assert len(rows3) == config.generations + 2 + 1 + len(valid3)
        assert rows3 == rows2
        assert [(s.fc, s.alpha_sc, s.specimen.D, s.shap_alpha) for s in valid3] \
            == [(s.fc, s.alpha_sc, s.specimen.D, s.shap_alpha) for s in valid2]
