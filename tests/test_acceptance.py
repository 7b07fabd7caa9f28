"""Acceptance suite: ten end-to-end criteria with explicit tolerances and
runtime budgets. Each test prints one [AC-n] PASS line on success."""
import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cfstcap.cli import main as cli_main
from cfstcap.data import generate_synthetic, split
from cfstcap.evaluation import robustness_sweep, sensitivity
from cfstcap.explain import GaConfig, build_dependence_grid, optimal_alpha_curve
from cfstcap.features import PAPER_SELECTED, build_frame
from cfstcap.network import (ConstraintSpec, TrainConfig, dominance_pairs,
                             init_parameters, loss_approx,
                             loss_monotone, loss_total, predict_rows,
                             predict_specimens, train, variant_spec)
from cfstcap.network import _layers
from cfstcap.codes import (aci_capacity_kn, aij_capacity_kn, gb_capacity_kn,
                           han_capacity_kn)
from cfstcap.trees import (average_path_length, detect_anomalies,
                           fit_gradient_boosting, fit_random_forest,
                           mdi_importance)
from cfstcap.trees.shapley import shapley_exact, shapley_permutation


@contextmanager
def budget(number, description, seconds):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < seconds, \
        f"[AC-{number}] exceeded runtime budget: {elapsed:.1f}s >= {seconds}s"
    print(f"\n[AC-{number}] PASS {description} ({elapsed:.1f}s)")


def _kink_free_case(seed, n_inputs=10, hidden=4, rows=8):
    """Random network/batch with every pre-activation, band boundary and
    dominance gap clear of zero, so central differences are valid."""
    rng = np.random.default_rng(seed)
    config = TrainConfig(hidden_layers=1, hidden_units=hidden, seed=seed)
    spec = ConstraintSpec(gamma=0.3, pair_budget=100_000)
    margin = 1e-3
    for _ in range(80):
        params = init_parameters(tuple(f"f{i}" for i in range(n_inputs)),
                                 config, spec)
        for b in params.biases:
            b += rng.uniform(0.2, 0.6, size=b.shape)
        params.weights[-1] = np.abs(params.weights[-1])
        Xn = rng.normal(size=(rows, n_inputs))
        F = rng.integers(0, 3, size=(rows, 2)).astype(float)
        # the trainer's layer loop, and the pre-activations from its inputs
        acts = [Xn] + [np.empty((rows, len(b))) for b in params.biases]
        _layers(params.weights, params.biases, Xn, acts[1:])
        zs = [a @ w + b for a, w, b in zip(acts, params.weights, params.biases)]
        pred = acts[-1][:, 0]
        pairs = dominance_pairs(F)
        gap = (np.abs(pred[pairs[:, 0]] - pred[pairs[:, 1]]).min()
               if len(pairs) else np.inf)
        if (min(np.abs(z).min() for z in zs) > margin and gap > margin
                and len(pairs) and (acts[1] > 0).any(axis=1).all()):
            break
    else:
        pytest.fail("no kink-free configuration found")
    target = pred + rng.normal(size=rows)
    side = rng.integers(0, 3, size=rows)
    off = rng.uniform(0.05, 0.3, size=rows)
    yl = np.where(side == 0, pred + off, pred - off - 1.0 * (side == 1))
    yu = yl + 0.9
    return params, spec, Xn, target, yl, yu, F


def test_ac1_gradient_correctness():
    with budget(1, "analytic gradients match finite differences", 10):
        eps = 1e-6
        worst = 0.0
        for seed in range(20):
            params, spec, Xn, target, yl, yu, F = _kink_free_case(seed)
            _, gw, gb = loss_total(params, Xn, target, yl, yu, F, spec)
            for l in range(len(params.weights)):
                for arr, grad in ((params.weights[l], gw[l]),
                                  (params.biases[l], gb[l])):
                    for idx in np.ndindex(arr.shape):
                        orig = arr[idx]
                        arr[idx] = orig + eps
                        up = loss_total(params, Xn, target, yl, yu, F, spec)[0]
                        arr[idx] = orig - eps
                        dn = loss_total(params, Xn, target, yl, yu, F, spec)[0]
                        arr[idx] = orig
                        num = (up - dn) / (2 * eps)
                        denom = max(abs(num), abs(grad[idx]), 1e-4)
                        worst = max(worst, abs(num - grad[idx]) / denom)
        assert worst < 1e-4, f"max relative gradient error {worst:.2e}"


def test_ac2_constraint_loss_identities():
    with budget(2, "constraint-loss identities and pair oracle", 5):
        # in-band predictions incur no band penalty
        assert loss_approx([12.0, 19.0], [10.0, 10.0], [20.0, 20.0]) == 0.0
        # hand-derived penalties: pred 8 -> 2 below, pred 25 -> 5 above
        assert loss_approx([8.0], [10.0], [20.0]) == 2.0
        assert loss_approx([25.0], [10.0], [20.0]) == 5.0
        spec = ConstraintSpec(pair_budget=100_000)
        # dominance-free batch (an anti-chain) has zero monotone penalty
        F_anti = np.array([[3.0, 1.0], [2.0, 2.0], [1.0, 3.0]])
        val, pairs = loss_monotone(np.array([9.0, 5.0, 1.0]), F_anti, spec)
        assert val == 0.0 and len(pairs) == 0
        # brute-force O(n^2) oracle over 200 random batches
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(2, 65))
            F = rng.integers(0, 4, size=(n, 3)).astype(float)
            pred = rng.normal(size=n)
            got, got_pairs = loss_monotone(pred, F, spec)
            total, count = 0.0, 0
            for a in range(n):
                for b in range(n):
                    if all(F[b, k] >= F[a, k] for k in range(3)) \
                            and any(F[b, k] > F[a, k] for k in range(3)):
                        count += 1
                        total += max(0.0, pred[a] - pred[b])
            assert len(got_pairs) == count
            want = total / count if count else 0.0
            assert got == pytest.approx(want, rel=1e-12, abs=1e-15)


def _val_mape(params, dataset, va, targets):
    preds = predict_specimens(params, [dataset.specimens[i] for i in va])
    return float(np.mean(np.abs(preds - targets[va]) / targets[va])) * 100.0


def _violation_rate(params, dataset, va):
    frame = build_frame(dataset.specimens)
    F = frame.select(list(ConstraintSpec().monotone_features)).X[va]
    pairs = dominance_pairs(F)
    if not len(pairs):
        return 0.0
    preds = predict_specimens(params, [dataset.specimens[i] for i in va])
    return float(np.mean(preds[pairs[:, 0]] > preds[pairs[:, 1]]))


def test_ac3_ablation_ordering():
    with budget(3, "ANNWT beats ANN on noisy data (majority of 5 seeds)", 300):
        mape_wins = viol_wins = 0
        for seed in range(5):
            ds = generate_synthetic(1000, 100 + seed, 0.10)
            _, va = split(ds, ds.split_fraction, ds.split_seed)
            targets = np.array([s.N for s in ds.specimens])
            config = TrainConfig(epochs=200, batch_size=64, learning_rate=1e-3,
                                 early_stop_patience=40, seed=seed)
            results = {}
            for variant in ("ANN", "ANNWT"):
                params, _ = train(ds, PAPER_SELECTED, variant_spec(variant),
                                  config)
                results[variant] = (_val_mape(params, ds, va, targets),
                                    _violation_rate(params, ds, va))
            mape_wins += results["ANNWT"][0] <= results["ANN"][0]
            viol_wins += results["ANNWT"][1] <= results["ANN"][1]
        assert mape_wins >= 3, f"ANNWT MAPE better on only {mape_wins}/5 seeds"
        assert viol_wins >= 3, f"ANNWT violations better on only {viol_wins}/5 seeds"


def test_ac4_robustness_direction():
    with budget(4, "MAPE grows with label noise; ANNWT wins at p=50%", 600):
        ok = 0
        for seed in range(3):
            ds = generate_synthetic(300, 200 + seed, 0.02)
            config = TrainConfig(epochs=200, batch_size=64, learning_rate=1e-3,
                                 early_stop_patience=40, seed=seed)
            cells = robustness_sweep(ds, variants=("ANN", "ANNWT"),
                                     sweep="vary_p", levels=[0.1, 0.3, 0.5],
                                     fixed_d=0.2, config=config, seed=seed)
            by = {}
            for c in cells:
                assert c.mape is not None, c.error
                by.setdefault(c.variant, {})[c.level] = c.mape
            monotone = all(by[v][b] >= by[v][a] - 0.5
                           for v in by for a, b in ((0.1, 0.3), (0.3, 0.5)))
            ordered = by["ANNWT"][0.5] <= by["ANN"][0.5]
            ok += monotone and ordered
        assert ok >= 2, f"robustness direction held on only {ok}/3 seeds"


def test_ac5_shapley_axioms():
    with budget(5, "Shapley axioms: exact 2^10 and sampled estimates", 120):
        rng = np.random.default_rng(0)
        n, m = 300, 10
        X = rng.uniform(size=(n, m))
        X[:, 9] = 0.5  # constant feature: guaranteed null player
        y = (2 * X[:, 0] + np.sin(3 * X[:, 1]) + X[:, 2] * X[:, 3]
             + 0.1 * rng.normal(size=n))
        gbm = fit_gradient_boosting(X, y, n_trees=25, max_depth=3,
                                    learning_rate=0.2)
        rows, bg = X[:2].copy(), X[10:26].copy()
        exact, phi0 = shapley_exact(gbm.predict, rows, bg)
        # local accuracy
        assert np.abs(phi0 + exact.sum(axis=1) - gbm.predict(rows)).max() < 1e-9
        # null player
        assert np.abs(exact[:, 9]).max() < 1e-9
        # symmetry: symmetrize the model in features 0/1 and duplicate their
        # values; interchangeable players must receive equal attributions
        def sym(Z):
            Zs = Z.copy()
            Zs[:, [0, 1]] = Zs[:, [1, 0]]
            return 0.5 * (gbm.predict(Z) + gbm.predict(Zs))
        rows_d, bg_d = rows.copy(), bg.copy()
        rows_d[:, 1] = rows_d[:, 0]
        bg_d[:, 1] = bg_d[:, 0]
        phi_sym, _ = shapley_exact(sym, rows_d, bg_d)
        assert np.abs(phi_sym[:, 0] - phi_sym[:, 1]).max() < 1e-9
        # sampled estimates converge
        sampled, _ = shapley_permutation(gbm.predict, rows, bg,
                                         n_permutations=2000, seed=1)
        dev = np.mean(np.abs(sampled - exact)) / np.mean(np.abs(exact))
        assert dev < 0.02, f"sampled deviation {dev:.3%}"


def test_ac6_tree_machinery_oracles():
    with budget(6, "MDI concentration, outlier isolation, c(256)", 60):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(300, 5))
        y = 3.0 * X[:, 0] + 0.01 * rng.normal(size=300)
        forest = fit_random_forest(X, y, n_trees=30, seed=2, max_features=None)
        imp = mdi_importance(forest)
        assert imp[0] > 0.9, f"planted feature importance {imp[0]:.3f}"
        Z = rng.normal(size=(200, 4))
        Z[57] = 10.0
        flagged, _ = detect_anomalies(Z, contamination=0.01, subsample=128,
                                      seed=0)
        assert 57 in flagged
        assert average_path_length(256) == pytest.approx(10.244, abs=0.01)


def test_ac7_design_code_oracles():
    with budget(7, "design-code hand values and dimensional scaling", 1):
        assert aci_capacity_kn(100, 5, 300, 30) == pytest.approx(609.90, rel=1e-3)
        assert aij_capacity_kn(100, 5, 300, 30) == pytest.approx(759.40, rel=1e-3)
        assert han_capacity_kn(100, 5, 300, 30) == pytest.approx(832.3, rel=1e-3)
        assert gb_capacity_kn(100, 5, 300, 30) == pytest.approx(837.8, rel=1e-3)
        rng = np.random.default_rng(1)
        for s in generate_synthetic(100, 5, 0.1).specimens:
            k = float(rng.uniform(0.5, 2.0))
            for fn in (aci_capacity_kn, aij_capacity_kn, gb_capacity_kn,
                       han_capacity_kn):
                assert fn(k * s.D, k * s.t, s.fy, s.fc) == pytest.approx(
                    k * k * fn(s.D, s.t, s.fy, s.fc), rel=1e-9)


def test_ac8_sensitivity_normalization():
    with budget(8, "sensitivity sums to 100%; 2:1 case splits 66.7/33.3", 30):
        # 2:1 linear model
        grid = np.array([[0.0, 0.0], [2.0, 2.0]])
        vals = sensitivity(lambda Z: 2 * Z[:, 0] + Z[:, 1], grid)
        assert vals[0] == pytest.approx(66.67, abs=0.1)
        assert vals[1] == pytest.approx(33.33, abs=0.1)
        # every model: trained network and a boosted ensemble
        ds = generate_synthetic(300, 7, 0.05)
        config = TrainConfig(epochs=40, batch_size=64, learning_rate=3e-3,
                             early_stop_patience=40, seed=0)
        params, _ = train(ds, PAPER_SELECTED, variant_spec("ANNWT"), config)
        frame = build_frame(ds.specimens).select(list(params.feature_order))
        net_vals = sensitivity(lambda rows: predict_rows(params, rows), frame.X)
        assert net_vals.sum() == pytest.approx(100.0, abs=1e-9)
        gbm = fit_gradient_boosting(frame.X, frame.y, n_trees=20)
        gbm_vals = sensitivity(gbm.predict, frame.X)
        assert gbm_vals.sum() == pytest.approx(100.0, abs=1e-9)


def test_ac9_guidance_curve_shape():
    with budget(9, "optimal steel-ratio curve over the 480-cell grid", 900):
        ds = generate_synthetic(1000, 300, 0.0)
        config = TrainConfig(epochs=400, batch_size=64, learning_rate=1e-3,
                             early_stop_patience=80, seed=0)
        params, _ = train(ds, PAPER_SELECTED, variant_spec("ANNWT"), config)
        ga = GaConfig(population=60, generations=100, seed=0)
        fc_grid = np.linspace(ga.bounds["fc"][0], ga.bounds["fc"][1], 20)
        alpha_grid = np.linspace(0.05, 0.5, 24)
        target = float(np.median([s.N for s in ds.specimens]))
        samples = build_dependence_grid(params, target, fc_grid, alpha_grid, ga)
        assert len(samples) == 480
        curve = optimal_alpha_curve(samples)
        curve_fc = np.array([fc for fc, _ in curve])
        # evaluate at the six published guidance strengths (0 clamps to the
        # envelope minimum), allowing one inversion of at most one grid step
        reference_fc = [0.0, 40.0, 80.0, 120.0, 160.0, 200.0]
        six = [curve[int(np.argmin(np.abs(curve_fc - fc)))][1]
               for fc in reference_fc]
        step = alpha_grid[1] - alpha_grid[0]
        increments = [b - a for a, b in zip(six, six[1:])]
        inversions = [inc for inc in increments if inc > 1e-12]
        assert len(inversions) <= 1, f"curve {six} has {len(inversions)} inversions"
        assert all(inc <= step + 1e-9 for inc in inversions), \
            f"inversion exceeds grid resolution: {six}"


def _fast_pipeline(outdir):
    overrides = [
        f"output_dir={outdir}",
        "data.synthetic.n=80", "data.synthetic.noise_cov=0.05",
        "train.epochs=3", "train.hidden_layers=1", "train.hidden_units=8",
        "train.batch_size=32", "train.patience=3",
        "features.gb_trees=5", "features.rf_trees=5",
        "features.shap_permutations=2", "features.shap_rows=5",
        "anomaly.n_trees=20", "anomaly.subsample=64",
        "robustness.variants=[ANN]", "robustness.levels=[0.1]",
        "explain.population=8", "explain.generations=3",
        "explain.fc_points=2", "explain.alpha_points=3",
        "explain.shap_background=4",
    ]
    argv = []
    for o in overrides:
        argv += ["--set", o]
    return cli_main(argv + ["pipeline"])


def test_ac10_pipeline_determinism(tmp_path, capsys):
    with budget(10, "byte-identical pipeline artifacts across reruns", 300):
        d1, d2 = tmp_path / "run1", tmp_path / "run2"
        assert _fast_pipeline(d1) == 0
        assert _fast_pipeline(d2) == 0
        capsys.readouterr()
        manifests = sorted(p.name for p in d1.glob("manifest_*.json"))
        assert len(manifests) == 10
        for name in manifests:
            m1 = json.loads((d1 / name).read_text())
            m2 = json.loads((d2 / name).read_text())
            assert m1["artifact_list"] == m2["artifact_list"], \
                f"{name}: artifact digests differ between runs"
