import math
from dataclasses import astuple

import numpy as np
import pytest

import cfstcap.evaluation as evaluation
from cfstcap.data import Specimen, generate_synthetic
from cfstcap.errors import ConfigError, DataError
from cfstcap.evaluation import (CONCRETE_CLASSES, CONCRETE_CUTS, STEEL_CLASSES,
                                STEEL_CUTS, MetricsReport, StrengthCell,
                                compute_metrics, interval_breakdown,
                                perturb_labels, robustness_sweep, sensitivity)
from cfstcap.network import TrainConfig


class TestComputeMetrics:
    def test_hand_values(self):
        m = compute_metrics([100.0, 200.0], [110.0, 220.0])
        assert m.rmse == pytest.approx(15.811, abs=1e-3)
        assert m.mape == pytest.approx(10.0)
        assert m.n == 2

    def test_cov_of_constant_ratio_is_zero(self):
        m = compute_metrics([100.0, 200.0], [110.0, 220.0])
        assert m.cov == pytest.approx(0.0, abs=1e-12)

    def test_r2_zero_for_mean_predictor(self):
        t = np.array([1.0, 2.0, 3.0, 4.0])
        m = compute_metrics(t, np.full(4, t.mean()))
        assert m.r2 == pytest.approx(0.0, abs=1e-12)

    def test_r2_one_for_perfect(self):
        m = compute_metrics([5.0, 7.0, 9.0], [5.0, 7.0, 9.0])
        assert m.r2 == 1.0 and m.rmse == 0.0 and m.mape == 0.0

    def test_literal_mape_denominator(self):
        m = compute_metrics([100.0, 200.0], [110.0, 220.0],
                            paper_literal_mape=True)
        assert m.mape == pytest.approx(100 * (10 / 110 + 20 / 220) / 2)

    def test_scale_awareness(self):
        a = compute_metrics([100.0, 200.0], [110.0, 220.0])
        b = compute_metrics([1000.0, 2000.0], [1100.0, 2200.0])
        assert b.rmse == pytest.approx(10 * a.rmse)
        assert b.mape == pytest.approx(a.mape)
        assert b.r2 == pytest.approx(a.r2)

    def test_within_bands(self):
        # relative errors: 5%, 15%, 25%
        m = compute_metrics([100.0, 100.0, 100.0], [105.0, 115.0, 125.0])
        assert m.within_10pct == pytest.approx(100 / 3)
        assert m.within_20pct == pytest.approx(200 / 3)

    def test_validation(self):
        with pytest.raises(DataError):
            compute_metrics([], [])
        with pytest.raises(DataError):
            compute_metrics([1.0, 2.0], [1.0])
        with pytest.raises(DataError):
            compute_metrics([-1.0], [1.0])


class TestIntervalBreakdown:
    def spec(self, fy, fc):
        return Specimen(D=100, t=5, L=300, fy=fy, fc=fc, N=650)

    def test_classification_of_hand_case(self):
        specs = [self.spec(500, 120), self.spec(300, 30)]
        b = interval_breakdown(specs, [640.0, 660.0])
        cell = next(c for c in b if c.n and c.steel_class == "HSS")
        assert cell.concrete_class == "UHSC" and cell.n == 1

    def test_partition_sums(self):
        ds = generate_synthetic(200, 1, 0.1)
        preds = np.array([s.N for s in ds.specimens]) * 1.02
        b = interval_breakdown(ds.specimens, preds)
        assert sum(c.n for c in b) == 200
        assert sum(c.metrics.n for c in b if c.metrics) == 200

    def test_nine_cells_steel_outer(self):
        b = interval_breakdown([self.spec(300, 30)], [640.0])
        assert [(c.steel_class, c.concrete_class) for c in b] == \
            [(sc, cc) for sc in STEEL_CLASSES for cc in CONCRETE_CLASSES]
        assert [c.metrics is None for c in b] == [False] + [True] * 8

    def test_boundary_values_go_up(self):
        # class cuts are inclusive on the upper side: 50 MPa is HSC, 460 is HSS
        b = interval_breakdown([self.spec(460, 50)], [650.0])
        cell = next(c for c in b if c.n)
        assert (cell.steel_class, cell.concrete_class) == ("HSS", "HSC")

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            interval_breakdown([], [])

    @pytest.mark.parametrize("n_preds", [9, 11])
    def test_prediction_count_mismatch_rejected(self, n_preds):
        specs = list(generate_synthetic(10, 4, 0.1).specimens)
        with pytest.raises(DataError, match=f"{n_preds} predictions for 10 specimens"):
            interval_breakdown(specs, np.full(n_preds, 650.0))


# ---------------------------------------------------------------- oracle
# The wrapper-based metrics and the per-specimen classification that the
# one-reduction path replaced, kept verbatim as the reference.

def _wrapper_compute_metrics(targets, preds, paper_literal_mape=False):
    t = np.asarray(targets, dtype=float)
    a = np.asarray(preds, dtype=float)
    if t.shape != a.shape or t.size == 0:
        raise DataError("targets/preds must be nonempty and equal length")
    if np.any(t <= 0):
        raise DataError("targets must be positive")
    err = t - a
    rmse = float(np.sqrt(np.mean(err**2)))
    denom = a if paper_literal_mape else t
    if paper_literal_mape and np.any(denom == 0):
        raise DataError("zero predicted value with literal MAPE denominator")
    mape = float(np.mean(np.abs(err / denom)) * 100.0)
    sstot = float(np.sum((t - t.mean()) ** 2))
    ssres = float(np.sum(err**2))
    r2 = 1.0 - ssres / sstot if sstot > 0 else (1.0 if ssres == 0 else -math.inf)
    ratio = t / a
    cov = float(ratio.std() / ratio.mean()) if ratio.mean() != 0 else math.inf
    rel = np.abs(err) / t
    return MetricsReport(rmse=rmse, mape=mape, r2=r2, cov=cov, n=t.size,
                         within_10pct=float(np.mean(rel < 0.10) * 100.0),
                         within_20pct=float(np.mean(rel < 0.20) * 100.0))


def _scalar_classify(value, cuts):
    if value < cuts[0]:
        return 0
    if value < cuts[1]:
        return 1
    return 2


def _per_specimen_breakdown(specimens, preds):
    if not specimens:
        raise DataError("no specimens")
    preds = np.asarray(preds, dtype=float)
    targets = np.array([s.N for s in specimens])
    si = np.array([_scalar_classify(s.fy, STEEL_CUTS) for s in specimens])
    ci = np.array([_scalar_classify(s.fc, CONCRETE_CUTS) for s in specimens])

    def maybe_metrics(mask):
        if not mask.any():
            return None
        return _wrapper_compute_metrics(targets[mask], preds[mask])

    cells = []
    for i, sc in enumerate(STEEL_CLASSES):
        for j, cc in enumerate(CONCRETE_CLASSES):
            mask = (si == i) & (ci == j)
            cells.append(StrengthCell(sc, cc, maybe_metrics(mask), int(mask.sum())))
    return cells


def _random_batch(rng, k):
    """targets and predictions of one random batch; every few cases has
    n = 1, constant targets (sstot == 0) or exact predictions (sse == 0)."""
    n = 1 if k % 10 == 0 else int(rng.integers(2, 400))
    t = rng.lognormal(rng.uniform(2, 9), rng.uniform(0.01, 1.5), n)
    if k % 10 == 3:
        t = np.full(n, t[0])
    a = t * rng.uniform(0.5, 1.5, n) + rng.normal(0, 1, n)
    if k % 10 == 5:
        a = t.copy()
    return t, a


class TestReductionOracle:
    """compute_metrics and interval_breakdown against the wrapper-based
    path, compared with ==: every figure bit-identical."""

    @pytest.mark.parametrize("literal", [False, True], ids=["target", "literal"])
    def test_metrics_match_wrappers(self, literal):
        rng = np.random.default_rng(11)
        for k in range(1500):
            t, a = _random_batch(rng, k)
            got = compute_metrics(t, a, paper_literal_mape=literal)
            want = _wrapper_compute_metrics(t, a, literal)
            assert got == want, (k, len(t))
            assert list(map(type, astuple(got))) == list(map(type, astuple(want)))

    def test_breakdown_matches_per_specimen_path(self):
        rng = np.random.default_rng(12)
        # strengths on the class cuts, around them, and NaN
        fy_pool = [300.0, 459.999, 460.0, 500.0, 700.0, 700.001, 900.0, math.nan]
        fc_pool = [20.0, 49.999, 50.0, 80.0, 100.0, 100.001, 150.0, math.nan]
        for k in range(300):
            t, a = _random_batch(rng, k)
            specs = [Specimen(D=100, t=5, L=300, fy=float(rng.choice(fy_pool)),
                              fc=float(rng.choice(fc_pool)), N=float(v)) for v in t]
            assert interval_breakdown(specs, a) == _per_specimen_breakdown(specs, a), k

    def test_nan_strength_is_top_class(self):
        b = interval_breakdown([Specimen(100, 5, 300, math.nan, math.nan, 650)], [600.0])
        cell = next(c for c in b if c.n)
        assert (cell.steel_class, cell.concrete_class) == ("UHSS", "UHSC")


class TestPerturbLabels:
    def test_bounds_and_fraction(self):
        y = np.full(10_000, 100.0)
        out = perturb_labels(y, p=0.3, d=0.2, seed=0)
        ratio = out / y
        assert ratio.min() >= 0.8 and ratio.max() <= 1.2
        frac = np.mean(ratio != 1.0)
        assert frac == pytest.approx(0.3, abs=0.02)

    def test_p_zero_identity(self):
        y = np.arange(1.0, 50.0)
        assert np.array_equal(perturb_labels(y, 0.0, 0.2), y)

    def test_d_zero_identity(self):
        y = np.arange(1.0, 50.0)
        assert np.array_equal(perturb_labels(y, 0.5, 0.0), y)

    def test_deterministic(self):
        y = np.arange(1.0, 100.0)
        a = perturb_labels(y, 0.4, 0.1, seed=7)
        b = perturb_labels(y, 0.4, 0.1, seed=7)
        c = perturb_labels(y, 0.4, 0.1, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            perturb_labels([1.0], p=1.5, d=0.1)
        with pytest.raises(ValueError):
            perturb_labels([1.0], p=0.5, d=-0.1)

    @pytest.mark.parametrize("d", [1.0, 1.5])
    def test_amplitude_of_one_or_more_is_config_error(self, d):
        # delta ~ U(-d, d) could reach -1 and make a capacity label 0 or negative
        with pytest.raises(ConfigError, match=r"d must be in \[0, 1\)"):
            perturb_labels([1.0, 2.0], p=0.5, d=d)


class TestRobustnessSweep:
    CONFIG = TrainConfig(epochs=4, batch_size=32, learning_rate=3e-3,
                         early_stop_patience=4, hidden_layers=1,
                         hidden_units=8)

    def test_grid_shape_and_values(self):
        ds = generate_synthetic(80, 2, 0.05)
        cells = robustness_sweep(ds, variants=("ANN",), levels=[0.1, 0.3],
                                 config=self.CONFIG)
        assert [(c.variant, c.level) for c in cells] == [("ANN", 0.1), ("ANN", 0.3)]
        assert all(c.mape is not None and c.mape >= 0 for c in cells)
        assert all(c.error == "" for c in cells)

    def test_failures_annotated_not_fabricated(self):
        # only a diverged network becomes an error cell; a config error
        # stops the sweep
        ds = generate_synthetic(20, 3, 0.05)
        bad = TrainConfig(epochs=2, batch_size=500)  # larger than the dataset
        with pytest.raises(ConfigError, match="batch_size"):
            robustness_sweep(ds, variants=("ANN",), levels=[0.1], config=bad)

    def test_misspelt_feature_raises(self):
        ds = generate_synthetic(80, 2, 0.05)
        with pytest.raises(DataError, match="nosuch"):
            robustness_sweep(ds, variants=("ANN",), levels=[0.1], config=self.CONFIG,
                             feature_order=["D", "nosuch"])

    def test_diverged_model_is_the_only_error_cell(self, monkeypatch):
        # a NaN perturbed label makes that level's training loss non-finite
        perturb = evaluation.perturb_labels

        def nan_at_second_level(labels, p, d, seed=0):
            y = perturb(labels, p, d, seed)
            if p == 0.3:
                y[0] = np.nan
            return y

        monkeypatch.setattr(evaluation, "perturb_labels", nan_at_second_level)
        ds = generate_synthetic(80, 2, 0.05)
        levels = [0.1, 0.3, 0.5]
        cells = robustness_sweep(ds, variants=("ANN",), levels=levels, config=self.CONFIG)
        monkeypatch.setattr(evaluation, "perturb_labels", perturb)
        clean = robustness_sweep(ds, variants=("ANN",), levels=levels, config=self.CONFIG)
        assert [c.error != "" for c in cells] == [False, True, False]
        assert cells[1].mape is None and "diverged" in cells[1].error
        assert [cells[0].mape, cells[2].mape] == [clean[0].mape, clean[2].mape]

    def test_one_train_many_call_per_sweep(self, monkeypatch):
        calls = []
        train_many = evaluation.train_many

        def spy(dataset, labels, specs, *args):
            calls.append(len(specs))
            return train_many(dataset, labels, specs, *args)

        monkeypatch.setattr(evaluation, "train_many", spy)
        ds = generate_synthetic(80, 2, 0.05)
        cells = robustness_sweep(ds, variants=("ANN", "ANNWT"), levels=[0.1, 0.3],
                                 config=self.CONFIG)
        assert calls == [4] and len(cells) == 4

    def test_vary_d_level_of_one_is_config_error(self):
        ds = generate_synthetic(20, 3, 0.05)
        with pytest.raises(ConfigError, match="d must be in"):
            robustness_sweep(ds, sweep="vary_d", variants=("ANN",), levels=[0.2, 1.0],
                             config=self.CONFIG)

    def test_bad_sweep_name(self):
        ds = generate_synthetic(20, 3, 0.05)
        with pytest.raises(ValueError):
            robustness_sweep(ds, sweep="vary_q")


class TestSensitivity:
    def test_hand_values(self):
        X = np.array([[0.0, 0.0], [2.0, 2.0]])
        s = sensitivity(lambda Z: Z[:, 0] + 0.5 * Z[:, 1], X)
        assert s[0] == pytest.approx(200 / 3)
        assert s[1] == pytest.approx(100 / 3)
        assert s.sum() == pytest.approx(100.0)

    def test_constant_feature_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0]])
        s = sensitivity(lambda Z: Z.sum(axis=1), X)
        assert s[1] == 0.0 and s[0] == pytest.approx(100.0)

    def test_constant_model_all_zero(self):
        X = np.array([[1.0, 2.0], [3.0, 4.0]])
        s = sensitivity(lambda Z: np.full(Z.shape[0], 7.0), X)
        assert np.array_equal(s, np.zeros(2))

    def test_validation(self):
        with pytest.raises(DataError):
            sensitivity(lambda Z: Z[:, 0], np.empty((0, 2)))
        with pytest.raises(ValueError):
            sensitivity(lambda Z: Z[:, 0], np.ones((3, 2)), grid_points=1)
