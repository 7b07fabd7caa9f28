import itertools
import math

import numpy as np
import pytest

from cfstcap.data import ENVELOPE, Specimen
from cfstcap.errors import ConfigError
import cfstcap.explain as explain
from cfstcap.explain import (MIN_VALID_CELLS, DependenceGrid, GaConfig, _run_ga,
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
        lo, hi = _alpha_feasible_D_range(alpha)
        # thickness bounds give D in [10.4, 600]; intersecting with the D
        # envelope [44.95, 1020] leaves [44.95, 600]
        assert lo == pytest.approx(ENVELOPE["D"][0], rel=1e-6)
        assert hi == pytest.approx(2 * ENVELOPE["t"][1] / 0.1, rel=1e-6)

    def test_unrealizable_ratio(self):
        lo, hi = _alpha_feasible_D_range(1e-6)
        assert lo >= hi

    def test_range_takes_arrays(self):
        alphas = np.array([1e-6, 0.05, 1900.0 / 8100.0, 0.5])
        lo, hi = _alpha_feasible_D_range(alphas)
        for k, alpha in enumerate(alphas):
            assert (lo[k], hi[k]) == tuple(_alpha_feasible_D_range(alpha))
        assert list(lo < hi) == [False, True, True, True]


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
        grid = self.grid()
        assert len(grid) == 6
        assert grid.valid.all()
        # fc outer, alpha_sc inner
        assert list(grid.fc) == [30.0] * 3 + [60.0] * 3
        assert list(grid.alpha_sc) == [0.1, 0.2, 0.3] * 2

    def test_realized_steel_ratio_exact(self):
        grid = self.grid()
        specimens = [Specimen(*cell, 1.0) for cell in zip(grid.D, grid.t, grid.L,
                                                           grid.fy, grid.fc)]
        realized = build_frame(specimens).column("alpha_sc")
        assert realized == pytest.approx(grid.alpha_sc, abs=1e-6)
        assert np.all(grid.D > 2 * grid.t)

    def test_pred_consistent_with_model(self):
        grid = self.grid()
        assert grid.pred_kn == pytest.approx(grid.D, rel=1e-9)

    def test_null_players_get_zero_shapley(self):
        # the toy model reads only D, so neither fc nor alpha_sc can carry
        # attribution
        grid = self.grid()
        assert grid.shap_fc == pytest.approx(np.zeros(6), abs=1e-9)
        assert grid.shap_alpha == pytest.approx(np.zeros(6), abs=1e-9)

    def test_infeasible_cells_are_nan(self):
        grid = build_dependence_grid(self.MODEL, 400.0, fc_grid=[30.0, 60.0],
                                     alpha_grid=[1e-6, 0.2], config=self.CONFIG,
                                     shap_background_size=6)
        assert list(grid.valid) == [False, True, False, True]
        for name in ("D", "t", "L", "fy", "pred_kn", "shap_fc", "shap_alpha"):
            column = getattr(grid, name)
            assert np.isnan(column[~grid.valid]).all(), name
            assert np.isfinite(column[grid.valid]).all(), name

    def test_no_feasible_cell_takes_no_model_rows(self, monkeypatch):
        monkeypatch.setattr(explain, "predict_rows", None)  # a model call would fail
        grid = build_dependence_grid(self.MODEL, 400.0, fc_grid=[30.0],
                                     alpha_grid=[1e-6], config=self.CONFIG)
        assert len(grid) == 1 and not grid.valid[0] and np.isnan(grid.pred_kn[0])
        assert optimal_alpha_curve(grid) == []

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


def grid_of(*cells):
    """A DependenceGrid of (fc, alpha_sc, shap_alpha) cells, each valid unless
    a fourth item is False; every other field is NaN, and so is shap_alpha
    where a cell is not valid."""
    cells = [c if len(c) == 4 else c + (True,) for c in cells]
    fc, alpha, shap, valid = map(np.array, zip(*cells))
    nan = np.full(len(cells), np.nan)
    return DependenceGrid(fc, alpha, valid, nan, nan, nan, nan, nan, nan,
                          np.where(valid, shap, np.nan))


class TestOptimalAlphaCurve:
    def test_argmax_per_fc(self):
        grid = grid_of((30, 0.1, 1.0), (30, 0.2, 3.0), (30, 0.3, 2.0),
                       (60, 0.1, 5.0), (60, 0.2, 4.0), (60, 0.3, 1.0))
        assert optimal_alpha_curve(grid) == [(30, 0.2), (60, 0.1)]

    def test_tie_breaks_to_smaller_alpha(self):
        grid = grid_of(*[(30, a, 2.0) for a in (0.3, 0.1, 0.2)])
        assert optimal_alpha_curve(grid) == [(30, 0.1)]

    def test_min_valid_filter(self):
        grid = grid_of((30, 0.1, 1.0), (30, 0.2, 2.0), (30, 0.3, 3.0, False),
                       (60, 0.1, 1.0), (60, 0.2, 2.0), (60, 0.3, 3.0))
        # an fc column needs explain.MIN_VALID_CELLS = 3 valid cells
        assert MIN_VALID_CELLS == 3
        assert optimal_alpha_curve(grid) == [(60, 0.3)]

    def test_sorted_by_fc(self):
        grid = grid_of(*[(fc, a, a) for fc in (90, 30, 60) for a in (0.1, 0.2, 0.3)])
        curve = optimal_alpha_curve(grid)
        assert [fc for fc, _ in curve] == [30, 60, 90]

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_attribution_skipped(self, bad):
        # a valid cell whose attribution is not finite does not count: the
        # fc = 30 column keeps its finite argmax, fc = 60 drops below
        # MIN_VALID_CELLS
        grid = grid_of((30, 0.1, 1.0), (30, 0.2, bad), (30, 0.3, 2.0), (30, 0.4, 0.5),
                       (60, 0.1, 1.0), (60, 0.2, bad), (60, 0.3, 2.0))
        assert optimal_alpha_curve(grid) == [(30, 0.3)]


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
        lo, hi = _alpha_feasible_D_range(1e-6)
        assert lo >= hi
        runs = {}
        for alphas in ([0.1, 0.2], [1e-6, 0.1, 0.2]):
            fn = counting(predict_rows)
            monkeypatch.setattr(explain, "predict_rows", fn)
            grid = build_dependence_grid(model, 400.0, fc_grid=[30.0, 60.0],
                                         alpha_grid=alphas, config=config,
                                         shap_background_size=3)
            runs[len(alphas)] = (fn.rows, grid)
        rows2, grid2 = runs[2]
        rows3, grid3 = runs[3]
        assert list(grid3.valid) == [False, True, True] * 2 and grid2.valid.all()
        # one call per generation and one for the realized cells, then the
        # exact Shapley sweep's background call and one call per valid cell
        assert len(rows3) == config.generations + 2 + 1 + grid3.valid.sum()
        assert rows3 == rows2
        for name in ("fc", "alpha_sc", "D", "t", "L", "fy", "pred_kn", "shap_fc",
                     "shap_alpha"):
            assert np.array_equal(getattr(grid3, name)[grid3.valid], getattr(grid2, name))
