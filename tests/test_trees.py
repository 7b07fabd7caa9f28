import math

import numpy as np
import pytest

from cfstcap.trees import (RandomForest, Tree, average_path_length,
                           detect_anomalies, fit_gradient_boosting,
                           fit_isolation_forest, fit_random_forest,
                           fit_regression_tree, mdi_importance)
from cfstcap.trees import cart
from cfstcap.trees.cart import best_split, mean_var
from cfstcap.trees.isolation import _scores
from cfstcap.errors import DataError


def brute_force_split(X, y, min_leaf=1):
    """O(n^2) reference: enumerate every midpoint candidate by hand."""
    n, m = X.shape
    best = None
    for f in range(m):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            left = X[:, f] <= thr
            nl, nr = left.sum(), (~left).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = (np.sum((y[left] - y[left].mean()) ** 2)
                   + np.sum((y[~left] - y[~left].mean()) ** 2))
            if best is None or sse < best[2] - 1e-12:
                best = (f, thr, sse)
    return best


class TestCart:
    def test_step_function_split(self):
        X = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        t = fit_regression_tree(X, y, max_depth=1)
        assert t.feature[0] == 0
        assert t.threshold[0] == pytest.approx(3.5)
        assert np.allclose(t.predict(X), y)

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(40, 3))
        y = rng.uniform(size=40)
        t = fit_regression_tree(X, y, max_depth=12)
        assert np.allclose(t.predict(X), y, atol=1e-12)

    def test_min_leaf_respected(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(100, 2))
        y = rng.uniform(size=100)
        t = fit_regression_tree(X, y, max_depth=10, min_leaf=5)
        leaves = t.feature == -1
        assert np.all(t.n_samples[leaves] >= 5)

    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.uniform(size=(30, 4)), 1)  # ties on purpose
        y = rng.normal(size=30)
        got = best_split(X, y, np.argsort(X, axis=0, kind="stable"), np.arange(4), 2)
        want = brute_force_split(X, y, min_leaf=2)
        assert got is not None
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1])
        assert got[2] == pytest.approx(want[2], rel=1e-9)

    def test_constant_labels_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        t = fit_regression_tree(X, np.full(10, 7.0))
        assert len(t) == 1 and t.value[0] == 7.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            fit_regression_tree(np.empty((0, 2)), np.empty(0))


def reference_split(X, y, rows, features, min_leaf):
    """The split search as it was before presorting: one stable argsort
    and two cumsums per candidate feature, first strict improvement wins."""
    n = len(rows)
    if n < 2 * min_leaf:
        return None
    best = None
    yr = y[rows]
    for f in features:
        v = X[rows, f]
        order = np.argsort(v, kind="stable")
        vs = v[order]
        ys = yr[order]
        csum = np.cumsum(ys)
        csum2 = np.cumsum(ys * ys)
        k = np.arange(1, n)
        valid = (vs[1:] > vs[:-1]) & (k >= min_leaf) & (n - k >= min_leaf)
        if not valid.any():
            continue
        left = csum2[:-1] - csum[:-1] ** 2 / k
        right = (csum2[-1] - csum2[:-1]) - (csum[-1] - csum[:-1]) ** 2 / (n - k)
        score = np.where(valid, left + right, np.inf)
        i = int(np.argmin(score))
        if best is None or score[i] < best[2]:
            best = (int(f), float(0.5 * (vs[i] + vs[i + 1])), float(score[i]))
    return best


def reference_tree(X, y, max_depth=8, min_leaf=1, seed=None, max_features=None,
                   rng=None):
    """Recursive builder calling reference_split at every node, with the
    same rng draws as fit_regression_tree."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed) if rng is None else rng
    m = X.shape[1]
    nodes = []

    def build(rows, depth):
        yr = y[rows]
        idx = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(yr.mean()), len(rows), float(yr.var())])
        if depth >= max_depth or nodes[idx][6] == 0.0 or len(rows) < 2 * min_leaf:
            return idx
        if max_features is None or max_features >= m:
            features = np.arange(m)
        else:
            features = np.sort(rng.choice(m, size=max_features, replace=False))
        split = reference_split(X, y, rows, features, min_leaf)
        if split is None:
            return idx
        f, thr, _ = split
        go_left = X[rows, f] <= thr
        left = build(rows[go_left], depth + 1)
        right = build(rows[~go_left], depth + 1)
        nodes[idx][:4] = [f, thr, left, right]
        return idx

    build(np.arange(len(y)), 0)
    return Tree.from_nodes(nodes, m)


TREE_ARRAYS = ("feature", "threshold", "left", "right", "value", "n_samples",
               "impurity")


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in TREE_ARRAYS:
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


def oracle_data(kind, n=160, m=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(n, m))
    y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=n)
    if kind == "ties":
        X = np.round(X, 1)
        y = np.round(y, 1)
    elif kind == "constant_column":
        X[:, 2] = 0.5
    elif kind == "duplicate_rows":
        X[n // 2:] = X[:n - n // 2]
        y[n // 2:] = y[:n - n // 2]
    return X, y


ORACLE_CASES = [(kind, min_leaf, depth)
                for kind in ("uniform", "ties", "constant_column", "duplicate_rows")
                for min_leaf, depth in ((1, 6), (3, 12))]


class TestPresortedKernel:
    """fit_regression_tree, boosting and forests against the per-node
    argsort builder, bit for bit on every Tree array."""

    @pytest.mark.parametrize("seed", range(20))
    def test_split_matches_reference_on_subsets(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 90)), int(rng.integers(1, 7))
        X = np.round(rng.uniform(size=(n, m)), int(rng.integers(0, 3)))
        y = rng.normal(size=n)
        rows = np.flatnonzero(rng.uniform(size=n) < 0.7)
        features = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)),
                                      replace=False))
        order = rows[np.argsort(X[rows], axis=0, kind="stable")]
        for min_leaf in (1, 2, 5):
            assert (best_split(X, y, order, features, min_leaf)
                    == reference_split(X, y, rows, features, min_leaf))

    def test_mean_var_matches_numpy(self):
        # the node statistics the builder records, bit for bit against
        # ndarray.mean/var, across the pairwise-summation block sizes
        rng = np.random.default_rng(0)
        for k in range(2000):
            n = int(rng.integers(1, 1201))
            y = rng.normal(rng.normal(0, 1e3), 10.0 ** rng.integers(-3, 4), n)
            if k % 4 == 1:
                y = np.round(y)
            elif k % 4 == 2:
                y = rng.lognormal(0, 2, n)
            assert mean_var(y) == (float(y.mean()), float(y.var())), (k, n)
        assert mean_var(np.array([3.5])) == (3.5, 0.0)

    def test_no_valid_split(self):
        X = np.ones((6, 2))
        order = np.argsort(X, axis=0, kind="stable")
        assert best_split(X, np.arange(6.0), order, np.arange(2), 1) is None
        assert best_split(X[:3], np.arange(3.0), order[:3], np.arange(2), 2) is None

    @pytest.mark.parametrize("kind, min_leaf, depth", ORACLE_CASES)
    def test_tree_matches_reference(self, kind, min_leaf, depth):
        X, y = oracle_data(kind)
        got = fit_regression_tree(X, y, max_depth=depth, min_leaf=min_leaf)
        want = reference_tree(X, y, max_depth=depth, min_leaf=min_leaf)
        assert len(got) > 1
        assert_same_trees([got], [want])

    @pytest.mark.parametrize("kind, min_leaf, depth", ORACLE_CASES)
    def test_ensembles_match_reference(self, kind, min_leaf, depth, monkeypatch):
        X, y = oracle_data(kind, seed=1)
        gb = fit_gradient_boosting(X, y, n_trees=6, max_depth=depth,
                                   min_leaf=min_leaf, seed=2)
        rf = fit_random_forest(X, y, n_trees=6, max_depth=depth,
                               min_leaf=min_leaf, seed=3)
        # the ensembles look the tree builder up in their own modules
        monkeypatch.setattr("cfstcap.trees.boosting.fit_regression_tree", reference_tree)
        monkeypatch.setattr("cfstcap.trees.forest.fit_regression_tree", reference_tree)
        gb_ref = fit_gradient_boosting(X, y, n_trees=6, max_depth=depth,
                                       min_leaf=min_leaf, seed=2)
        rf_ref = fit_random_forest(X, y, n_trees=6, max_depth=depth,
                                   min_leaf=min_leaf, seed=3)
        assert_same_trees(gb.trees, gb_ref.trees)
        assert gb.train_mse == gb_ref.train_mse
        assert_same_trees(rf.trees, rf_ref.trees)


def walk_one(tree, x):
    """Reference traversal: follow one row node by node to its leaf.

    Returns (leaf index, depth of the leaf)."""
    node, depth = 0, 0
    while tree.feature[node] != -1:
        f = tree.feature[node]
        node = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
        depth += 1
    return node, depth


def tree_depth(tree, node=0):
    if tree.feature[node] == -1:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def walk_tree(tree, X):
    return np.array([tree.value[walk_one(tree, x)[0]] for x in X], dtype=float)


def walk_boosting(g, X):
    acc = np.full(len(X), g.base_score)
    for t in g.trees:
        acc += g.learning_rate * walk_tree(t, X)
    return acc


def walk_forest(f, X):
    acc = np.zeros(len(X))
    for t in f.trees:
        acc += walk_tree(t, X)
    return acc / len(f.trees)


def walk_isolation_scores(forest, X):
    """2^(-E(h) / c(psi)) with E(h) summed tree by tree from each leaf's
    depth and sample count, as the isolation forest paper defines it."""
    c = average_path_length(forest.subsample_size)
    scores = []
    for x in X:
        total = 0.0
        for t in forest.trees:
            leaf, depth = walk_one(t, x)
            total += depth + average_path_length(int(t.n_samples[leaf]))
        scores.append(2.0 ** (-(total / len(forest.trees)) / c))
    return np.array(scores)


def _on_thresholds(tree, X):
    """Rows of X with one feature set exactly to an internal node's threshold."""
    rows = []
    for i in np.flatnonzero(tree.feature != -1):
        row = X[i % len(X)].copy()
        row[tree.feature[i]] = tree.threshold[i]
        rows.append(row)
    return np.array(rows)


class TestFlatTraversal:
    """The level-by-level walk over the stacked node table against a
    per-row node walk, bit for bit."""

    def _data(self, n=300, m=5, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, m))
        y = np.sin(4 * X[:, 0]) + X[:, 1] * X[:, 2] + 0.1 * rng.normal(size=n)
        return X, y, rng.uniform(size=(257, m))

    def test_tree_matches_walk(self):
        X, y, Xt = self._data()
        t = fit_regression_tree(X, y, max_depth=9)
        for Z in (X, Xt, _on_thresholds(t, X)):
            assert np.array_equal(t.predict(Z), walk_tree(t, Z))

    def test_boosting_matches_walk(self):
        X, y, Xt = self._data(seed=1)
        g = fit_gradient_boosting(X, y, n_trees=30, max_depth=6, seed=3)
        on_thr = np.vstack([_on_thresholds(t, X) for t in g.trees])
        for Z in (X, Xt, on_thr):
            assert np.array_equal(g.predict(Z), walk_boosting(g, Z))

    def test_deep_forest_mixed_depths_matches_walk(self):
        X, y, Xt = self._data(n=100, seed=2)
        f = fit_random_forest(X, y, n_trees=20, max_depth=12, seed=4)
        depths = {tree_depth(t) for t in f.trees}
        assert len(depths) > 1 and max(depths) == 12  # trees of one table differ
        on_thr = np.vstack([_on_thresholds(t, X) for t in f.trees[:3]])
        for Z in (X, Xt, on_thr):
            assert np.array_equal(f.predict(Z), walk_forest(f, Z))

    def test_isolation_scores_match_walk(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(200, 4))
        X[17] = 8.0
        kw = dict(n_trees=40, subsample=128, seed=6)
        forest = fit_isolation_forest(X, **kw)
        _, scores = detect_anomalies(X, contamination=0.02, **kw)
        assert np.array_equal(scores, walk_isolation_scores(forest, X))
        Z = _on_thresholds(forest.trees[0], X)
        assert np.array_equal(_scores(forest, Z), walk_isolation_scores(forest, Z))

    @pytest.mark.parametrize("block", [1, 64, 1000, cart.LEAF_BLOCK])
    def test_row_blocks_match_walk(self, block, monkeypatch):
        # the walk goes block by block, the last block partial; one
        # (tree, row) pair per block up to every row in one block
        X, y, Xt = self._data(seed=7)
        g = fit_gradient_boosting(X, y, n_trees=30, max_depth=6, seed=3)
        monkeypatch.setattr(cart, "LEAF_BLOCK", block)
        Z = np.vstack([X, Xt, X[::7]])
        assert np.array_equal(g.predict(Z), walk_boosting(g, Z))

    def test_single_leaf_trees(self):
        X = np.arange(10.0).reshape(-1, 1)
        t = fit_regression_tree(X, np.full(10, 7.0))
        assert len(t) == 1
        assert np.array_equal(t.predict(X), np.full(10, 7.0))
        g = fit_gradient_boosting(X, np.full(10, 7.0), n_trees=3)
        assert np.array_equal(g.predict(X), walk_boosting(g, X))
        # a lone leaf stacked with a deep tree: the leaf stays put
        deep = fit_regression_tree(X, np.sin(X[:, 0]), max_depth=5)
        f = RandomForest(trees=[t, deep, t], n_features=1, seed=0)
        Xt = np.linspace(-1.0, 11.0, 25).reshape(-1, 1)
        assert np.array_equal(f.predict(Xt), walk_forest(f, Xt))

    def test_row_on_threshold_goes_left(self):
        X = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        t = fit_regression_tree(X, y, max_depth=1)
        on = np.array([[t.threshold[0]], [np.nextafter(t.threshold[0], np.inf)]])
        assert np.array_equal(t.predict(on), [0.0, 10.0])

    def test_zero_rows(self):
        X, y, _ = self._data(n=60)
        empty = np.empty((0, X.shape[1]))
        models = [fit_regression_tree(X, y),
                  fit_gradient_boosting(X, y, n_trees=4),
                  fit_random_forest(X, y, n_trees=4, seed=0)]
        for model in models:
            assert model.predict(empty).shape == (0,)
        forest = fit_isolation_forest(X, n_trees=4, subsample=32)
        assert forest.mean_path_length(empty).shape == (0,)

    @pytest.mark.parametrize("width", [4, 6])
    def test_width_mismatch_rejected(self, width):
        # a wider X used to be read by its leading columns, a narrower one
        # died in np.take
        X, y, _ = self._data(n=60)
        Z = np.ones((3, width))
        models = [fit_regression_tree(X, y).predict,
                  fit_gradient_boosting(X, y, n_trees=4).predict,
                  fit_random_forest(X, y, n_trees=4, seed=0).predict,
                  fit_isolation_forest(X, n_trees=4, subsample=32).mean_path_length]
        for predict in models:
            with pytest.raises(DataError, match=f"input width {width} != training width 5"):
                predict(Z)


class TestRandomForest:
    def _data(self, n=300, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 5))
        y = 3.0 * X[:, 0] + 0.01 * rng.normal(size=n)
        return X, y

    def test_predict_in_label_range(self):
        X, y = self._data()
        f = fit_random_forest(X, y, n_trees=20, seed=1)
        p = f.predict(X)
        assert p.min() >= y.min() - 1e-9 and p.max() <= y.max() + 1e-9

    def test_deterministic(self):
        X, y = self._data()
        a = fit_random_forest(X, y, n_trees=10, seed=5).predict(X)
        b = fit_random_forest(X, y, n_trees=10, seed=5).predict(X)
        assert np.array_equal(a, b)

    def test_seed_changes_model(self):
        X, y = self._data()
        a = fit_random_forest(X, y, n_trees=10, seed=5).predict(X)
        b = fit_random_forest(X, y, n_trees=10, seed=6).predict(X)
        assert not np.array_equal(a, b)

    def test_mdi_identifies_signal_feature(self):
        X, y = self._data()
        # full candidate set per split so dilution from column subsampling
        # cannot mask the planted signal feature
        f = fit_random_forest(X, y, n_trees=30, seed=2, max_features=None)
        imp = mdi_importance(f)
        assert imp.sum() == pytest.approx(1.0)
        assert np.all(imp >= 0)
        assert imp[0] > 0.9
        # with sqrt-subsampling the signal must still rank first
        imp_sub = mdi_importance(fit_random_forest(X, y, n_trees=30, seed=2))
        assert int(np.argmax(imp_sub)) == 0

    def test_mdi_unfitted(self):
        with pytest.raises(DataError):
            mdi_importance(RandomForest(trees=[], n_features=3, seed=0))


class TestGradientBoosting:
    def _data(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(n, 3))
        y = np.sin(3 * X[:, 0]) + X[:, 1]
        return X, y

    def test_train_mse_non_increasing(self):
        X, y = self._data()
        g = fit_gradient_boosting(X, y, n_trees=50, learning_rate=0.2)
        mse = np.array(g.train_mse)
        assert np.all(np.diff(mse) <= 1e-12)
        assert mse[-1] < mse[0]

    def test_single_full_stage_memorizes(self):
        X, y = self._data(n=50)
        g = fit_gradient_boosting(X, y, n_trees=1, learning_rate=1.0, max_depth=12)
        assert np.allclose(g.predict(X), y, atol=1e-12)

    def test_constant_labels(self):
        X = np.arange(20.0).reshape(-1, 1)
        g = fit_gradient_boosting(X, np.full(20, 4.5), n_trees=5)
        assert g.base_score == 4.5
        assert np.allclose(g.predict(X), 4.5)

    def test_predict_matches_manual_accumulation(self):
        X, y = self._data(n=60)
        g = fit_gradient_boosting(X, y, n_trees=8, learning_rate=0.3)
        acc = np.full(len(y), g.base_score)
        for t in g.trees:
            acc += g.learning_rate * t.predict(X)
        assert np.allclose(g.predict(X), acc)

    def test_bad_params(self):
        X, y = self._data(n=10)
        with pytest.raises(ValueError):
            fit_gradient_boosting(X, y, n_trees=0)
        with pytest.raises(ValueError):
            fit_gradient_boosting(X, y, learning_rate=0.0)


class TestIsolationForest:
    def test_average_path_length_oracle(self):
        assert average_path_length(1) == 0.0
        assert average_path_length(2) == 1.0
        assert average_path_length(256) == pytest.approx(10.245, abs=5e-3)

    def test_planted_outlier_scores_highest(self):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(400, 4))
        X[123] = 10.0  # ~10 sigma away in every coordinate
        forest = fit_isolation_forest(X, n_trees=100, subsample=128, seed=0)
        scores = _scores(forest, X)
        assert int(np.argmax(scores)) == 123

    def test_detect_flags_ceil_fraction(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(150, 3))
        X[7] = 12.0
        flagged, scores = detect_anomalies(X, contamination=0.02, seed=1)
        assert len(flagged) == math.ceil(0.02 * 150)
        assert 7 in flagged
        assert len(scores) == 150

    def test_zero_contamination(self):
        X = np.random.default_rng(9).normal(size=(50, 2))
        flagged, scores = detect_anomalies(X, contamination=0.0, subsample=32)
        assert flagged.size == 0 and len(scores) == 50

    def test_deterministic(self):
        X = np.random.default_rng(10).normal(size=(120, 3))
        a = detect_anomalies(X, contamination=0.05, subsample=64, seed=3)[1]
        b = detect_anomalies(X, contamination=0.05, subsample=64, seed=3)[1]
        assert np.array_equal(a, b)

    def test_subsample_validation(self):
        X = np.random.default_rng(11).normal(size=(10, 2))
        with pytest.raises(ValueError):
            fit_isolation_forest(X, subsample=50)
