import numpy as np
import pytest

from cfstcap.errors import DataError
from cfstcap.trees import fit_gradient_boosting, fit_random_forest
from cfstcap.trees.shapley import (EXACT_MAX_FEATURES, global_importance,
                                   shapley_exact, shapley_permutation)


def product_model(Z):
    return Z[:, 0] * Z[:, 1] + np.sin(Z[:, 2])


class TestExact:
    def test_local_accuracy(self):
        rng = np.random.default_rng(0)
        rows = rng.uniform(1, 2, size=(5, 3))
        bg = rng.uniform(1, 2, size=(20, 3))
        phi, phi0 = shapley_exact(product_model, rows, bg)
        total = phi0 + phi.sum(axis=1)
        assert np.allclose(total, product_model(rows), atol=1e-9)

    def test_null_player(self):
        rng = np.random.default_rng(1)
        rows = rng.uniform(size=(4, 3))
        bg = rng.uniform(size=(10, 3))
        phi, _ = shapley_exact(lambda Z: Z[:, 0] ** 2, rows, bg)
        assert np.allclose(phi[:, 1:], 0.0, atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(2)
        bg = rng.uniform(size=(15, 1))
        bg = np.column_stack([bg, bg])  # identical background columns
        row = np.array([[0.7, 0.7]])
        phi, _ = shapley_exact(lambda Z: Z[:, 0] * Z[:, 1], row, bg)
        assert phi[0, 0] == pytest.approx(phi[0, 1], abs=1e-12)

    def test_linear_model_closed_form(self):
        # for f = 3 x0 + 2 x1, phi_i = coef_i * (x_i - mean(background_i))
        bg = np.array([[1.0, 5.0], [3.0, 7.0]])  # means (2, 6)
        row = np.array([[4.0, 6.5]])
        phi, phi0 = shapley_exact(lambda Z: 3 * Z[:, 0] + 2 * Z[:, 1], row, bg)
        assert phi0 == pytest.approx(3 * 2 + 2 * 6)
        assert phi[0, 0] == pytest.approx(6.0)     # 3 * (4 - 2)
        assert phi[0, 1] == pytest.approx(1.0)     # 2 * (6.5 - 6)

    def test_feature_cap(self):
        m = EXACT_MAX_FEATURES + 1
        with pytest.raises(ValueError, match="exact enumeration"):
            shapley_exact(lambda Z: Z.sum(axis=1), np.zeros((1, m)), np.zeros((2, m)))

    def test_empty_background(self):
        with pytest.raises(DataError):
            shapley_exact(lambda Z: Z[:, 0], np.zeros((1, 2)), np.zeros((0, 2)))


class TestPermutation:
    def test_local_accuracy_every_sample_size(self):
        # each sampled permutation telescopes, so additivity is exact even
        # for a single permutation
        rng = np.random.default_rng(3)
        rows = rng.uniform(1, 2, size=(3, 4))
        bg = rng.uniform(1, 2, size=(12, 4))
        fn = lambda Z: Z[:, 0] * Z[:, 1] - Z[:, 2] + 0.5 * Z[:, 3] ** 2
        for n_perm in (1, 7):
            phi, phi0 = shapley_permutation(fn, rows, bg, n_permutations=n_perm, seed=0)
            assert np.allclose(phi0 + phi.sum(axis=1), fn(rows), atol=1e-9)

    def test_converges_to_exact(self):
        rng = np.random.default_rng(4)
        rows = rng.uniform(1, 2, size=(3, 3))
        bg = rng.uniform(1, 2, size=(15, 3))
        exact, _ = shapley_exact(product_model, rows, bg)
        sampled, _ = shapley_permutation(product_model, rows, bg,
                                         n_permutations=600, seed=1)
        scale = np.abs(exact).max()
        assert np.max(np.abs(sampled - exact)) < 0.02 * scale

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        rows = rng.uniform(size=(2, 3))
        bg = rng.uniform(size=(8, 3))
        a = shapley_permutation(product_model, rows, bg, 20, seed=9)[0]
        b = shapley_permutation(product_model, rows, bg, 20, seed=9)[0]
        assert np.array_equal(a, b)

    def test_bad_permutation_count(self):
        with pytest.raises(ValueError):
            shapley_permutation(product_model, np.zeros((1, 3)),
                                np.zeros((2, 3)), n_permutations=0)


def reference_shapley_permutation(predict_fn, rows, background, n_permutations,
                                  seed):
    """The former sampler, kept as the oracle: one predict_fn call per
    coalition on a background copy mutated column by column."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    n, m = rows.shape
    rng = np.random.default_rng(seed)
    phi = np.zeros((n, m))
    phi0 = float(np.mean(predict_fn(background)))
    for r in range(n):
        x = rows[r]
        for _ in range(n_permutations):
            perm = rng.permutation(m)
            z = background.copy()
            prev = float(np.mean(predict_fn(z)))
            for j in perm:
                z[:, j] = x[j]
                cur = float(np.mean(predict_fn(z)))
                phi[r, j] += cur - prev
                prev = cur
    phi /= n_permutations
    return phi, phi0


class TestBatchedPermutation:
    """One model call per row against the former per-coalition loop, bit
    for bit."""

    @pytest.mark.parametrize("m", range(1, 9))
    def test_matches_reference_on_tree_ensembles(self, m):
        rng = np.random.default_rng(m)
        X = rng.uniform(size=(150, m))
        y = np.sin(3 * X[:, 0]) + X @ rng.normal(size=m)
        models = (fit_gradient_boosting(X, y, n_trees=15, max_depth=3, seed=m),
                  fit_random_forest(X, y, n_trees=8, max_depth=5, seed=m))
        for model in models:
            for n_perm in (1, 4, 13):
                got = shapley_permutation(model.predict, X[:3], X[60:69], n_perm, seed=m)
                want = reference_shapley_permutation(model.predict, X[:3], X[60:69],
                                                     n_perm, seed=m)
                assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_one_model_call_per_row(self):
        rng = np.random.default_rng(6)
        rows = rng.uniform(size=(4, 3))
        bg = rng.uniform(size=(5, 3))
        calls = []

        def model(Z):
            calls.append(len(Z))
            return product_model(Z)

        shapley_permutation(model, rows, bg, n_permutations=7, seed=0)
        # the all-background and all-row coalitions once, and the 3 - 1
        # inner prefixes of each of the 7 permutations
        assert calls == [len(bg)] + [(2 + 7 * (3 - 1)) * len(bg)] * len(rows)


@pytest.mark.parametrize("estimator", [shapley_exact, shapley_permutation])
@pytest.mark.parametrize("row_width", [3, 5])
def test_width_mismatch_rejected(estimator, row_width):
    with pytest.raises(DataError, match="features"):
        estimator(lambda Z: Z.sum(axis=1), np.ones((1, row_width)), np.ones((4, 4)))


class TestGlobalImportance:
    def test_mean_absolute(self):
        phi = np.array([[1.0, -2.0], [-3.0, 2.0]])
        assert np.allclose(global_importance(phi), [2.0, 2.0])
