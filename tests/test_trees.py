import math

import numpy as np
import pytest

from cfstcap.trees import (RandomForest, Tree, average_path_length,
                           detect_anomalies, fit_gradient_boosting,
                           fit_isolation_forest, fit_random_forest,
                           fit_regression_tree, mdi_importance)
from cfstcap.trees import cart, isolation
from cfstcap.trees.cart import NodeTable, best_split, dense_ranks, key_order, mean_var
from cfstcap.trees.forest import tree_mdi
from cfstcap.trees.isolation import _scores
from cfstcap.errors import ConfigError, DataError
from cfstcap.seeding import child_rng


def midpoint(a, b):
    """Threshold between sorted neighbours a < b: their midpoint, or a when
    the midpoint rounds to b (neighbouring floats, a of odd mantissa)."""
    thr = 0.5 * (a + b)
    return a if thr == b else thr


def brute_force_split(X, y, min_leaf=1):
    """O(n^2) reference: enumerate every midpoint candidate by hand."""
    n, m = X.shape
    best = None
    for f in range(m):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = midpoint(a, b)
            left = X[:, f] <= thr
            nl, nr = left.sum(), (~left).sum()
            if nl < min_leaf or nr < min_leaf:
                continue
            sse = (np.sum((y[left] - y[left].mean()) ** 2)
                   + np.sum((y[~left] - y[~left].mean()) ** 2))
            if best is None or sse < best[2] - 1e-12:
                best = (f, thr, sse)
    return best


def predict_tree(tree, X):
    """One tree's leaf value for every row of X, through a one-tree table."""
    return NodeTable.stack([tree]).leaf_values(X)[0]


def tree_depth(tree, node=0):
    if tree.feature[node] == -1:
        return 0
    return 1 + max(tree_depth(tree, tree.left[node]), tree_depth(tree, tree.right[node]))


def node_depths(tree):
    """Depth of every node, the root's 0; a parent is numbered before its
    children in both preorder and level order."""
    depth = np.zeros(len(tree), dtype=np.int64)
    for i in np.flatnonzero(tree.feature != -1):
        depth[tree.left[i]] = depth[tree.right[i]] = depth[i] + 1
    return depth


def make_tree(nodes, n_features):
    """Tree from [feature, threshold, left, right, value, n_samples, impurity]
    rows, its depth found by the recursive tree_depth."""
    cols = list(zip(*nodes))
    ints = [np.array(cols[k], dtype=np.int64) for k in (0, 2, 3, 5)]
    floats = [np.array(cols[k], dtype=float) for k in (1, 4, 6)]
    tree = Tree(ints[0], floats[0], ints[1], ints[2], floats[1], ints[3], floats[2],
                n_features=n_features, depth=0)
    tree.depth = tree_depth(tree)
    return tree


def assert_same_trees(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.n_features, a.depth) == (b.n_features, b.depth)
        for name in ("feature", "threshold", "left", "right", "value",
                     "n_samples", "impurity"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and np.array_equal(x, y), name


class TestCart:
    def test_step_function_split(self):
        X = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        t = fit_regression_tree(X, y, max_depth=1)
        assert t.feature[0] == 0
        assert t.threshold[0] == pytest.approx(3.5)
        assert np.allclose(predict_tree(t, X), y)

    def test_memorizes_distinct_points(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(40, 3))
        y = rng.uniform(size=40)
        t = fit_regression_tree(X, y, max_depth=12)
        assert np.allclose(predict_tree(t, X), y, atol=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_kernel_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        X = np.round(rng.uniform(size=(30, 4)), 1)  # ties on purpose
        y = rng.normal(size=30)
        got = best_split(X, y, np.argsort(X, axis=0, kind="stable"), np.arange(4))
        want = brute_force_split(X, y)
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
            best = (int(f), float(midpoint(vs[i], vs[i + 1])), float(score[i]))
    return best


def reference_tree(X, y, max_depth=8, min_leaf=1, seed=None, max_features=None,
                   rng=None, order=None, leaf_out=None, ranks=None):
    """Recursive builder calling reference_split at every node, with the
    same rng draws as fit_regression_tree: a feature-subsampled tree draws
    one uniform row of m per node it has room for, up front, and its j-th
    node to draw takes the max_features smallest of row j. order, the
    presort a caller of fit_regression_tree may share, and ranks, the rank
    keys a forest shares, are ignored: every node sorts its own rows by
    value. leaf_out, when given, gets each row's leaf value by a walk of
    the tree."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(seed) if rng is None else rng
    m = X.shape[1]
    nodes = []
    if max_features is not None and max_features < m:
        room = min(2 * len(y), 2 ** (max(max_depth, 0) + 1)) - 1
        draws = iter(rng.random((room, m)))

    def build(rows, depth):
        yr = y[rows]
        idx = len(nodes)
        nodes.append([-1, 0.0, -1, -1, float(yr.mean()), len(rows), float(yr.var())])
        if depth >= max_depth or nodes[idx][6] == 0.0 or len(rows) < 2 * min_leaf:
            return idx
        if max_features is None or max_features >= m:
            features = np.arange(m)
        else:
            u = next(draws)
            features = np.array(sorted(range(m), key=lambda f: (u[f], f))[:max_features])
            features.sort()
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
    tree = make_tree(nodes, m)
    if leaf_out is not None:
        leaf_out[:] = walk_tree(tree, X)
    return tree


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


# reference_tree at min_leaf = 1, the only leaf minimum fit_regression_tree has
ORACLE_CASES = [(kind, 1, depth)
                for kind in ("uniform", "ties", "constant_column", "duplicate_rows")
                for depth in (1, 2, 6, 12)]


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
        assert best_split(X, y, order, features) == reference_split(X, y, rows, features, 1)

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
        assert best_split(X, np.arange(6.0), order, np.arange(2)) is None
        assert best_split(X[:1], np.arange(1.0), order[:1], np.arange(2)) is None

    @pytest.mark.parametrize("kind, min_leaf, depth", ORACLE_CASES)
    def test_tree_matches_reference(self, kind, min_leaf, depth):
        X, y = oracle_data(kind)
        got = fit_regression_tree(X, y, max_depth=depth)
        want = reference_tree(X, y, max_depth=depth, min_leaf=min_leaf)
        assert len(got) > 1
        assert_same_trees([got], [want])

    @pytest.mark.parametrize("kind, min_leaf, depth", ORACLE_CASES)
    def test_ensembles_match_reference(self, kind, min_leaf, depth, monkeypatch):
        X, y = oracle_data(kind, seed=1)
        gb = fit_gradient_boosting(X, y, n_trees=6, max_depth=depth, seed=2)
        rf = fit_random_forest(X, y, n_trees=6, max_depth=depth, seed=3)
        # the ensembles look the tree builder up in their own modules
        monkeypatch.setattr("cfstcap.trees.boosting.fit_regression_tree", reference_tree)
        monkeypatch.setattr("cfstcap.trees.forest.fit_regression_tree", reference_tree)
        gb_ref = fit_gradient_boosting(X, y, n_trees=6, max_depth=depth, seed=2)
        rf_ref = fit_random_forest(X, y, n_trees=6, max_depth=depth, seed=3)
        assert_same_trees(gb.trees, gb_ref.trees)
        assert gb.train_mse == gb_ref.train_mse
        assert_same_trees(rf.trees, rf_ref.trees)

    @pytest.mark.parametrize("kind", ["uniform", "ties", "duplicate_rows"])
    @pytest.mark.parametrize("max_features", [1, 2, 5, 6, None])
    def test_feature_subsets_match_reference(self, kind, max_features):
        # 1, 2 and 5 of 6 columns draw candidates and sort per node;
        # 6 (= m) and None take the root presort and draw nothing
        X, y = oracle_data(kind, seed=4)
        rng, rng_ref = child_rng(5, 0), child_rng(5, 0)
        got = fit_regression_tree(X, y, max_depth=6, max_features=max_features, rng=rng)
        want = reference_tree(X, y, max_depth=6, max_features=max_features, rng=rng_ref)
        assert len(got) > 1
        assert_same_trees([got], [want])
        assert rng.bit_generator.state == rng_ref.bit_generator.state

    def test_shared_presort_matches_own(self):
        X, y = oracle_data("ties", seed=6)
        order = np.argsort(X, axis=0, kind="stable")
        for depth in (1, 2, 6):
            assert_same_trees([fit_regression_tree(X, y, max_depth=depth, order=order)],
                              [fit_regression_tree(X, y, max_depth=depth)])

    @pytest.mark.parametrize("seed", range(10))
    def test_candidate_order_matches_full_order(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(2, 60)), int(rng.integers(2, 7))
        X = np.round(rng.uniform(size=(n, m)), 1)
        y = np.round(rng.normal(size=n), 1)
        rows = np.flatnonzero(rng.uniform(size=n) < 0.8)
        features = np.sort(rng.choice(m, size=int(rng.integers(1, m)), replace=False))
        full = rows[np.argsort(X[rows], axis=0, kind="stable")]
        own = rows[np.argsort(X[rows][:, features], axis=0, kind="stable")]
        assert np.array_equal(own, full[:, features])
        assert best_split(X, y, own, features) == best_split(X, y, full, features)


def key_order_data(kind, seed=0):
    """(X, ranks) for the key-order oracle: X is the matrix a tree is grown
    on and ranks are the ranks it is given (a forest's ranks of its whole
    X at a bootstrap's rows for "bootstrap", X's own dense ranks else)."""
    rng = np.random.default_rng(seed)
    X = np.round(rng.uniform(-1, 1, size=(50, 4)), 1)
    if kind == "duplicate_rows":
        X[25:] = X[:25]
    elif kind == "bootstrap":
        whole = rng.uniform(size=(50, 4))
        whole[:, 1] = np.round(whole[:, 1], 1)
        boot = rng.integers(0, 50, size=50)
        return whole[boot], dense_ranks(whole)[boot]
    elif kind == "constant_column":
        X[:, 2] = 3.25
    elif kind == "infinities":
        X[rng.uniform(size=X.shape) < 0.2] = np.inf
        X[rng.uniform(size=X.shape) < 0.2] = -np.inf
    elif kind == "signed_zeros":
        X[rng.uniform(size=X.shape) < 0.5] = 0.0
        X[rng.uniform(size=X.shape) < 0.3] = -0.0
    return X, dense_ranks(X)


KEY_ORDER_KINDS = ["ties", "duplicate_rows", "bootstrap", "constant_column",
                   "infinities", "signed_zeros"]


class TestKeyOrder:
    """A feature-subsampled node's order, read off its sorted rank keys,
    against a stable argsort of its candidate columns' values."""

    @pytest.mark.parametrize("kind", KEY_ORDER_KINDS)
    def test_dense_ranks_order_values(self, kind):
        X, _ = key_order_data(kind)
        ranks = dense_ranks(X)
        for f in range(X.shape[1]):
            assert np.array_equal(np.unique(ranks[:, f]), np.arange(len(np.unique(X[:, f]))))
            a, b = np.meshgrid(X[:, f], X[:, f])
            ra, rb = np.meshgrid(ranks[:, f], ranks[:, f])
            assert np.array_equal(a < b, ra < rb) and np.array_equal(a == b, ra == rb)

    @pytest.mark.parametrize("kind", KEY_ORDER_KINDS)
    def test_node_order_is_stable_argsort(self, kind):
        X, ranks = key_order_data(kind, seed=1)
        n, m = X.shape
        # the keys a forest tree builds from its ranks
        keys = cart._Builder(X, np.zeros(n), 6, 2, np.random.default_rng(0), None, ranks).keys
        assert all(len(np.unique(col)) == n for col in keys.T)
        rng = np.random.default_rng(2)
        for _ in range(40):
            rows = np.flatnonzero(rng.uniform(size=n) < rng.uniform(0.05, 1.0))
            f = np.sort(rng.choice(m, size=int(rng.integers(1, m + 1)), replace=False))
            want = rows[np.argsort(X[rows][:, f], axis=0, kind="stable")]
            assert np.array_equal(key_order(keys, rows, f), want)

    @pytest.mark.parametrize("kind", ["ties", "duplicate_rows", "constant_column"])
    def test_forest_ranks_match_own(self, kind):
        # a tree given the ranks of a larger X at its rows grows as one
        # that ranks its own rows
        X, y = oracle_data(kind, seed=12)
        rows = np.random.default_rng(3).integers(0, len(y), size=len(y))
        got = fit_regression_tree(X[rows], y[rows], max_depth=8, max_features=2,
                                  rng=child_rng(4, 0), ranks=dense_ranks(X)[rows])
        own = fit_regression_tree(X[rows], y[rows], max_depth=8, max_features=2,
                                  rng=child_rng(4, 0))
        assert len(got) > 1
        assert_same_trees([got], [own])

    def test_ranks_of_another_shape_rejected(self):
        X, y = oracle_data("uniform")
        with pytest.raises(DataError, match="ranks of shape"):
            fit_regression_tree(X, y, max_features=2, ranks=dense_ranks(X[1:]))


def adjacent_float_data(n=120, seed=0, odd=False):
    """Columns of neighbouring floats a and nextafter(a), so training rows
    lie exactly on thresholds. The midpoint of such a pair rounds to a when
    a's mantissa is even and to nextafter(a) when it is odd; odd=True makes
    every a odd, otherwise both kinds occur."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.uniform(1.0, 2.0, size=(n // 2, 3)), 2)
    if odd:
        base = (base.view(np.int64) | 1).view(float)
    X = np.vstack([base, np.nextafter(base, 3.0)])
    return X, rng.normal(size=n)


class TestAdjacentFloats:
    """Splits between neighbouring floats: the threshold sends exactly the
    scored rows left, so no child is empty and the trees match the
    per-node-sorting reference."""

    def test_odd_mantissa_threshold_is_lower_value(self):
        a = (np.array([1.37]).view(np.int64) | 1).view(float)[0]
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b   # the midpoint rounds up
        X = np.array([[a], [a], [b]])
        y = np.array([0.0, 0.0, 1.0])
        f, thr, score = best_split(X, y, np.argsort(X, axis=0, kind="stable"), np.arange(1))
        assert (f, thr, score) == (0, a, 0.0)
        assert brute_force_split(X, y) == (0, a, 0.0)

    @pytest.mark.parametrize("odd", [True, False])
    def test_kernel_matches_brute_force(self, odd):
        X, y = adjacent_float_data(n=40, seed=1, odd=odd)
        got = best_split(X, y, np.argsort(X, axis=0, kind="stable"), np.arange(3))
        want = brute_force_split(X, y)
        assert got[:2] == want[:2]
        assert got[2] == pytest.approx(want[2], rel=1e-9)

    @pytest.mark.parametrize("odd", [True, False])
    @pytest.mark.parametrize("depth", [2, 12])
    def test_presorted_tree_matches_reference(self, odd, depth):
        X, y = adjacent_float_data(seed=2, odd=odd)
        got = fit_regression_tree(X, y, max_depth=depth)
        assert_same_trees([got], [reference_tree(X, y, max_depth=depth)])
        assert got.n_samples.min() >= 1
        gb = fit_gradient_boosting(X, y, n_trees=3, max_depth=depth, seed=2)
        assert all(t.n_samples.min() >= 1 for t in gb.trees)

    @pytest.mark.parametrize("odd", [True, False])
    @pytest.mark.parametrize("max_features", [1, 2])
    def test_feature_subsampled_tree_matches_reference(self, odd, max_features):
        X, y = adjacent_float_data(seed=3, odd=odd)
        rng, rng_ref = child_rng(7, 0), child_rng(7, 0)
        got = fit_regression_tree(X, y, max_depth=12, max_features=max_features, rng=rng)
        want = reference_tree(X, y, max_depth=12, max_features=max_features, rng=rng_ref)
        assert_same_trees([got], [want])
        assert got.n_samples.min() >= 1 and np.isfinite(got.value).all()


class TestBuilderRecords:
    """What the builder records besides the node arrays: each training
    row's leaf value (leaf_out) and the tree's depth."""

    def _check_leaf_out(self, X, y, **kw):
        out = np.full(len(y), np.nan)
        t = fit_regression_tree(X, y, leaf_out=out, **kw)
        assert np.array_equal(out, predict_tree(t, X))
        return t

    @pytest.mark.parametrize("kind", ["uniform", "ties", "duplicate_rows"])
    @pytest.mark.parametrize("depth", [1, 3, 12])
    def test_leaf_out_presorted_and_own_sort(self, kind, depth):
        X, y = oracle_data(kind, seed=8)
        self._check_leaf_out(X, y, max_depth=depth,
                             order=np.argsort(X, axis=0, kind="stable"))
        self._check_leaf_out(X, y, max_depth=depth)

    @pytest.mark.parametrize("max_features", [1, 2, 5])
    def test_leaf_out_feature_subsampled(self, max_features):
        X, y = oracle_data("ties", seed=9)
        self._check_leaf_out(X, y, max_depth=8, max_features=max_features,
                             rng=child_rng(3, 0))

    def test_leaf_out_single_leaf(self):
        X = np.arange(10.0).reshape(-1, 1)
        t = self._check_leaf_out(X, np.full(10, 7.0))
        assert len(t) == 1 and t.depth == 0

    def test_leaf_out_rows_on_thresholds(self):
        X, y = adjacent_float_data()
        t = self._check_leaf_out(X, y, max_depth=12)
        inner = np.flatnonzero(t.feature != -1)
        assert (X[:, t.feature[inner]] == t.threshold[inner]).any()

    @pytest.mark.parametrize("kind", ["uniform", "ties", "constant_column"])
    def test_cart_depth_is_deepest_leaf(self, kind):
        X, y = oracle_data(kind, seed=10)
        trees = [fit_regression_tree(X, y, max_depth=d) for d in (0, 1, 4, 12)]
        trees += fit_gradient_boosting(X, y, n_trees=5, max_depth=3).trees
        trees += fit_random_forest(X, y, n_trees=10, max_depth=12, seed=1).trees
        for t in trees:
            assert t.depth == tree_depth(t)
        assert [t.depth for t in trees[:3]] == [0, 1, 4]

    @pytest.mark.parametrize("subsample", [2, 3, 100, 256])
    def test_isolation_depth_is_deepest_leaf(self, subsample):
        X = _isolation_data("ties")
        for t in fit_isolation_forest(X, n_trees=12, subsample=subsample, seed=4).trees:
            assert t.depth == tree_depth(t)


def walk_one(tree, x):
    """Reference traversal: follow one row node by node to its leaf.

    Returns (leaf index, depth of the leaf)."""
    node, depth = 0, 0
    while tree.feature[node] != -1:
        f = tree.feature[node]
        node = tree.left[node] if x[f] <= tree.threshold[node] else tree.right[node]
        depth += 1
    return node, depth


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
            assert np.array_equal(predict_tree(t, Z), walk_tree(t, Z))

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
        assert np.array_equal(predict_tree(t, X), np.full(10, 7.0))
        g = fit_gradient_boosting(X, np.full(10, 7.0), n_trees=3)
        assert np.array_equal(g.predict(X), walk_boosting(g, X))
        # a lone leaf stacked with a deep tree: the leaf stays put
        deep = fit_regression_tree(X, np.sin(X[:, 0]), max_depth=5)
        f = RandomForest(trees=[t, deep, t], n_features=1)
        Xt = np.linspace(-1.0, 11.0, 25).reshape(-1, 1)
        assert np.array_equal(f.predict(Xt), walk_forest(f, Xt))

    def test_row_on_threshold_goes_left(self):
        X = np.arange(1.0, 7.0).reshape(-1, 1)
        y = np.array([0.0, 0.0, 0.0, 10.0, 10.0, 10.0])
        t = fit_regression_tree(X, y, max_depth=1)
        on = np.array([[t.threshold[0]], [np.nextafter(t.threshold[0], np.inf)]])
        assert np.array_equal(predict_tree(t, on), [0.0, 10.0])

    def test_zero_rows(self):
        X, y, _ = self._data(n=60)
        empty = np.empty((0, X.shape[1]))
        assert predict_tree(fit_regression_tree(X, y), empty).shape == (0,)
        for model in (fit_gradient_boosting(X, y, n_trees=4),
                      fit_random_forest(X, y, n_trees=4, seed=0)):
            assert model.predict(empty).shape == (0,)
        forest = fit_isolation_forest(X, n_trees=4, subsample=32)
        assert forest.mean_path_length(empty).shape == (0,)

    @pytest.mark.parametrize("width", [4, 6])
    def test_width_mismatch_rejected(self, width):
        # a wider X used to be read by its leading columns, a narrower one
        # died in np.take
        X, y, _ = self._data(n=60)
        Z = np.ones((3, width))
        models = [NodeTable.stack([fit_regression_tree(X, y)]).leaf_values,
                  fit_gradient_boosting(X, y, n_trees=4).predict,
                  fit_random_forest(X, y, n_trees=4, seed=0).predict,
                  fit_isolation_forest(X, n_trees=4, subsample=32).mean_path_length]
        for predict in models:
            with pytest.raises(DataError, match=f"input width {width} != training width 5"):
                predict(Z)


def reference_tree_mdi(tree, n_features):
    """Per-feature impurity decrease summed node by node, in node order."""
    imp = np.zeros(n_features)
    n_root = tree.n_samples[0]
    for i in range(len(tree)):
        f = tree.feature[i]
        if f == -1:
            continue
        l, r = tree.left[i], tree.right[i]
        n, nl, nr = tree.n_samples[i], tree.n_samples[l], tree.n_samples[r]
        child = (nl * tree.impurity[l] + nr * tree.impurity[r]) / n
        imp[f] += (n / n_root) * (tree.impurity[i] - child)
    return imp


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

    @pytest.mark.parametrize("kind", ["uniform", "ties"])
    def test_tree_mdi_matches_node_loop(self, kind):
        X, y = oracle_data(kind, seed=11)
        for t in fit_random_forest(X, y, n_trees=100, max_depth=12, seed=7).trees:
            assert np.array_equal(tree_mdi(t, X.shape[1]), reference_tree_mdi(t, X.shape[1]))

    def test_mdi_unfitted(self):
        with pytest.raises(DataError):
            mdi_importance(RandomForest(trees=[], n_features=3))


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
            acc += g.learning_rate * predict_tree(t, X)
        assert np.allclose(g.predict(X), acc)

    def test_bad_params(self):
        X, y = self._data(n=10)
        with pytest.raises(ValueError):
            fit_gradient_boosting(X, y, n_trees=0)
        with pytest.raises(ValueError):
            fit_gradient_boosting(X, y, learning_rate=0.0)


def _fit_entry(entry, X, y):
    if entry == "tree":
        return fit_regression_tree(X, y, max_depth=3, max_features=2, rng=0)
    if entry == "gradient_boosting":
        return fit_gradient_boosting(X, y, n_trees=2)
    return fit_random_forest(X, y, n_trees=2)


class TestTrainingInputChecks:
    ENTRIES = ["tree", "gradient_boosting", "random_forest"]

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("where", ["X", "y"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry, where, bad):
        X, y = oracle_data("uniform", n=30)
        if where == "X":
            X[7, 1] = bad
        else:
            y[7] = bad
        with pytest.raises(DataError, match="non-finite"):
            _fit_entry(entry, X, y)

    @pytest.mark.parametrize("entry", ENTRIES)
    def test_row_count_mismatch_rejected(self, entry):
        X, y = oracle_data("uniform", n=50)
        with pytest.raises(DataError, match="row count mismatch"):
            _fit_entry(entry, X, y[:49])

    @pytest.mark.parametrize("max_features", [0, -1, 2.5, True, False, "log2", np.float64(2.0)])
    def test_bad_max_features_rejected(self, max_features):
        X, y = oracle_data("uniform", n=30)
        with pytest.raises(ConfigError, match="max_features"):
            fit_random_forest(X, y, n_trees=2, max_features=max_features)

    @pytest.mark.parametrize("max_features", ["sqrt", None, 1, np.int64(3), 6, 50])
    def test_good_max_features_accepted(self, max_features):
        X, y = oracle_data("uniform", n=30)
        assert len(fit_random_forest(X, y, n_trees=2, max_features=max_features).trees) == 2

    @pytest.mark.parametrize("fit", [fit_gradient_boosting, fit_random_forest])
    @pytest.mark.parametrize("n_trees", [True, 0, -2, 2.0])
    def test_bad_n_trees_rejected(self, fit, n_trees):
        X, y = oracle_data("uniform", n=30)
        with pytest.raises(ConfigError, match="n_trees"):
            fit(X, y, n_trees=n_trees)


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

    @pytest.mark.parametrize("entry", [fit_isolation_forest, detect_anomalies])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, entry, bad):
        # a NaN row was scored as an ordinary one
        X = np.random.default_rng(12).uniform(size=(50, 3))
        X[3, 1] = bad
        with pytest.raises(DataError, match="non-finite"):
            entry(X, n_trees=10, subsample=16)

    @pytest.mark.parametrize("entry", [fit_isolation_forest, detect_anomalies])
    @pytest.mark.parametrize("name, value", [
        ("n_trees", True), ("n_trees", 2.5), ("n_trees", 0), ("n_trees", -1),
        ("subsample", True), ("subsample", 2.5), ("subsample", 1), ("subsample", 0)])
    def test_bad_counts_rejected(self, entry, name, value):
        X = np.random.default_rng(12).uniform(size=(50, 3))
        with pytest.raises(ConfigError, match=name):
            entry(X, **{"n_trees": 10, "subsample": 16, name: value})

    @pytest.mark.parametrize("n_trees, subsample", [(1, 2), (np.int64(3), np.int64(16))])
    def test_good_counts_accepted(self, n_trees, subsample):
        X = np.random.default_rng(12).uniform(size=(50, 3))
        forest = fit_isolation_forest(X, n_trees=n_trees, subsample=subsample)
        assert len(forest.trees) == n_trees and forest.subsample_size == subsample


def grow_isolation_reference(X, n_trees, subsample, seed):
    """Isolation trees grown one node at a time from a FIFO queue, tree by
    tree. Tree i draws from child_rng(seed, i): its subsample, then at each
    level one integers() draw over the open nodes' candidate counts and one
    uniform() draw of their thresholds, in node order. Nodes are numbered
    in the order they are queued, so in level order."""
    n, m = X.shape
    depth_cap = math.ceil(math.log2(subsample))
    trees = []
    for i in range(n_trees):
        rng = child_rng(seed, i)
        rows = rng.choice(n, size=subsample, replace=False)
        # feature, threshold, left, right, value, n_samples, impurity
        nodes = [[-1, 0.0, -1, -1, average_path_length(subsample), subsample, 0.0]]
        queue = [(0, rows)]
        depth = 0
        while queue and depth < depth_cap:
            level, queue = queue, []
            open_nodes = []
            for idx, node_rows in level:
                sub = X[node_rows]
                lo, hi = sub.min(axis=0), sub.max(axis=0)
                candidates = np.flatnonzero(hi > lo)
                if candidates.size:
                    open_nodes.append((idx, node_rows, lo, hi, candidates))
            if not open_nodes:
                break
            picks = rng.integers(0, [len(o[4]) for o in open_nodes])
            fs = [int(o[4][k]) for o, k in zip(open_nodes, picks)]
            thrs = rng.uniform([o[2][f] for o, f in zip(open_nodes, fs)],
                               [o[3][f] for o, f in zip(open_nodes, fs)])
            for (idx, node_rows, _lo, _hi, _c), f, thr in zip(open_nodes, fs, thrs):
                go_left = X[node_rows, f] <= thr
                if go_left.all() or not go_left.any():
                    continue
                children = []
                for part in (node_rows[go_left], node_rows[~go_left]):
                    children.append(len(nodes))
                    queue.append((len(nodes), part))
                    nodes.append([-1, 0.0, -1, -1,
                                  depth + 1 + average_path_length(len(part)), len(part),
                                  0.0])
                nodes[idx][:4] = [f, float(thr)] + children
            depth += 1
        trees.append(make_tree(nodes, m))
    return trees


def _isolation_data(kind):
    rng = np.random.default_rng(21)
    X = rng.uniform(size=(300, 4))
    if kind == "ties":
        X = np.round(X * 4) / 4
    elif kind == "constant_column":
        X[:, 2] = 3.0
    elif kind == "duplicate_rows":
        X = np.repeat(X[:60], 5, axis=0)
    return X


class TestIsolationGrower:
    """The level-by-level block grower against a one-node-at-a-time
    reference that makes the same draws, bit for bit."""

    @pytest.mark.parametrize("kind", ["uniform", "ties", "constant_column",
                                      "duplicate_rows"])
    @pytest.mark.parametrize("subsample", [2, 3, 100, 256])
    def test_matches_reference(self, kind, subsample):
        X = _isolation_data(kind)
        forest = fit_isolation_forest(X, n_trees=12, subsample=subsample, seed=4)
        assert_same_trees(forest.trees, grow_isolation_reference(X, 12, subsample, 4))

    @pytest.mark.parametrize("kind", ["uniform", "duplicate_rows"])
    def test_block_size_changes_nothing(self, kind, monkeypatch):
        X = _isolation_data(kind)
        forests = []
        for block in (64, 64 * 9, isolation.GROW_BLOCK):  # 1 tree, all 9 trees, default
            monkeypatch.setattr(isolation, "GROW_BLOCK", block)
            forests.append(fit_isolation_forest(X, n_trees=9, subsample=64, seed=8))
        assert_same_trees(forests[0].trees, forests[1].trees)
        assert_same_trees(forests[0].trees, forests[2].trees)

    def test_prefix_of_forest(self, monkeypatch):
        X = _isolation_data("uniform")
        monkeypatch.setattr(isolation, "GROW_BLOCK", 4 * 128)  # blocks of 4 trees
        full = fit_isolation_forest(X, n_trees=10, subsample=128, seed=2)
        for k in (1, 3, 4, 7):
            part = fit_isolation_forest(X, n_trees=k, subsample=128, seed=2)
            assert_same_trees(full.trees[:k], part.trees)

    def test_leaf_values_are_depth_plus_c(self):
        X = _isolation_data("ties")
        for t in fit_isolation_forest(X, n_trees=20, subsample=256, seed=5).trees:
            depth = node_depths(t)
            for i in np.flatnonzero(t.feature == -1):
                assert t.value[i] == depth[i] + average_path_length(int(t.n_samples[i]))
            inner = t.feature != -1
            assert np.array_equal(t.n_samples[t.left[inner]] + t.n_samples[t.right[inner]],
                                  t.n_samples[inner])
