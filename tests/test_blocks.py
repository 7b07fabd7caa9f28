"""Each model is evaluated a block at a time: the ensembles' sums a row
block at a time, the isolation screen a tree block at a time and the GA a
block of cells at a time. The block sizes change no value, and they bound
the memory an evaluation holds."""
import gc
import tracemalloc

import numpy as np
import pytest

import cfstcap.explain as explain
from cfstcap.data import generate_synthetic
from cfstcap.explain import GaConfig, build_dependence_grid
from cfstcap.features import PAPER_SELECTED, build_frame
from cfstcap.network import TrainConfig, train
from cfstcap.trees import detect_anomalies, fit_gradient_boosting, fit_isolation_forest
from cfstcap.trees import cart, isolation
from cfstcap.trees.cart import NodeTable
from cfstcap.trees.isolation import _scores


def matrix_sum(table, X, start=0.0, scale=1.0):
    """The former sum: the whole (trees, rows) matrix, scaled, then added
    to start row by row in tree order."""
    steps = table.leaf_values(X)
    steps *= scale
    acc = np.full(steps.shape[1], start, dtype=float)
    for step in steps:
        acc += step
    return acc


def peak_bytes(fn):
    """tracemalloc's peak above the starting heap over one call of fn,
    after a first call has done any import or caching."""
    fn()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def frame():
    return build_frame(generate_synthetic(300, 3, 0.1).specimens)


def _isolation_rows(n=400, seed=4):
    X = np.random.default_rng(seed).normal(size=(n, 4))
    X[7] = 6.0
    return X


class TestRowBlocks:
    N_ROWS = 300

    @pytest.mark.parametrize("block", [1, 7, 10 * 60 * N_ROWS])
    def test_boosting_sum(self, frame, block, monkeypatch):
        gb = fit_gradient_boosting(frame.X, frame.y, n_trees=60, max_depth=4, seed=2)
        table = NodeTable.stack(gb.trees)
        expected = matrix_sum(table, frame.X, gb.base_score, gb.learning_rate)
        monkeypatch.setattr(cart, "LEAF_BLOCK", block)
        assert np.array_equal(gb.predict(frame.X), expected)

    @pytest.mark.parametrize("block", [1, 7, 10 * 30 * N_ROWS])
    def test_isolation_sum(self, block, monkeypatch):
        X = _isolation_rows(self.N_ROWS)
        forest = fit_isolation_forest(X, n_trees=30, subsample=64, seed=1)
        expected = matrix_sum(NodeTable.stack(forest.trees), X) / 30
        monkeypatch.setattr(cart, "LEAF_BLOCK", block)
        assert np.array_equal(forest.mean_path_length(X), expected)

    def test_start_continues_a_running_sum(self, frame):
        gb = fit_gradient_boosting(frame.X, frame.y, n_trees=12, max_depth=3, seed=5)
        whole = matrix_sum(NodeTable.stack(gb.trees), frame.X, 1.5, 0.25)
        total = 1.5
        for part in (gb.trees[:1], gb.trees[1:8], gb.trees[8:]):
            total = NodeTable.stack(part).sum_leaf_values(frame.X, total, 0.25)
        assert np.array_equal(total, whole)

    def test_start_array_is_not_changed(self, frame):
        table = NodeTable.stack(fit_gradient_boosting(frame.X, frame.y, n_trees=3).trees)
        start = np.arange(float(len(frame)))
        table.sum_leaf_values(frame.X, start)
        assert np.array_equal(start, np.arange(float(len(frame))))


class TestTreeBlocks:
    N_TREES = 9

    @pytest.mark.parametrize("trees_per_block", [1, 3, N_TREES])
    def test_screen_matches_whole_forest(self, trees_per_block, monkeypatch):
        X = _isolation_rows()
        kw = dict(n_trees=self.N_TREES, subsample=64, seed=3)
        forest = fit_isolation_forest(X, **kw)
        lengths = matrix_sum(NodeTable.stack(forest.trees), X) / self.N_TREES
        monkeypatch.setattr(isolation, "GROW_BLOCK", 64 * trees_per_block)
        flagged, scores = detect_anomalies(X, contamination=0.05, **kw)
        assert np.array_equal(scores, isolation._score_lengths(lengths, 64))
        assert np.array_equal(scores, _scores(forest, X))
        assert np.array_equal(flagged, np.argsort(-scores, kind="stable")[:20])
        assert 7 in flagged


@pytest.fixture(scope="module")
def model():
    ds = generate_synthetic(200, 1, 0.1)
    params, _history = train(ds, PAPER_SELECTED, config=TrainConfig(epochs=3, seed=2))
    return params


class TestCellBlocks:
    FC = np.linspace(20.0, 120.0, 3)
    ALPHA = np.linspace(0.05, 0.5, 7)  # 21 cells, all feasible

    def grid(self, model, population, monkeypatch):
        """The grid, and every fitness array its GA evaluated, in order."""
        fitness, run_ga = [], explain._run_ga

        def recording(evaluate, *args):
            def recorded(pop):
                fitness.append(evaluate(pop).copy())
                return fitness[-1]
            return run_ga(recorded, *args)

        monkeypatch.setattr(explain, "_run_ga", recording)
        grid = build_dependence_grid(model, 3000.0, self.FC, self.ALPHA,
                                     GaConfig(population=population, generations=4, seed=3),
                                     shap_background_size=8)
        monkeypatch.setattr(explain, "_run_ga", run_ga)
        return grid, fitness

    @pytest.mark.parametrize("population", [60, 61])
    def test_blocks_change_nothing(self, model, population, monkeypatch):
        # the fitness is compared too: a last-bit change in it need not
        # move the grid in a short run
        monkeypatch.setattr(explain, "GA_CELL_BLOCK", 32)  # one block holds every cell
        whole, whole_fitness = self.grid(model, population, monkeypatch)
        assert whole.valid.all() and len(whole_fitness) == 5
        for block in (4, 8):
            monkeypatch.setattr(explain, "GA_CELL_BLOCK", block)
            blocked, fitness = self.grid(model, population, monkeypatch)
            for name in ("D", "t", "L", "fy", "pred_kn", "shap_fc", "shap_alpha"):
                assert np.array_equal(getattr(blocked, name), getattr(whole, name)), name
            for a, b in zip(fitness, whole_fitness, strict=True):
                assert np.array_equal(a, b)

    def test_block_is_a_multiple_of_four(self):
        assert explain.GA_CELL_BLOCK % 4 == 0


class TestPeakMemory:
    """tracemalloc peaks, each bound between the figure when the whole
    batch was evaluated at once and the blocked one."""

    def test_boosting_predict(self):
        # the default select's SHAP batch: 60 trees of depth 6, 11,584 rows;
        # the (trees, rows) matrix alone was 5.6 MB, the call peaked at 6.4 MB
        frame = build_frame(generate_synthetic(500, 0, 0.1).specimens)
        gb = fit_gradient_boosting(frame.X, frame.y, n_trees=60, max_depth=6, seed=1)
        Z = frame.X[np.random.default_rng(0).integers(0, len(frame), 11584)]
        assert peak_bytes(lambda: gb.predict(Z)) < 3e6  # 0.9 MB blocked

    def test_detect_anomalies(self):
        # all 100 trees and their table were held while scoring: 2.9 MB
        X = np.random.default_rng(0).normal(size=(1000, 6))
        assert peak_bytes(lambda: detect_anomalies(X, n_trees=100)) < 2e6  # 1.1 MB blocked

    def test_ga_generation(self, model):
        # 480 cells of 60 designs: one 28,800-row forward peaked at 25.6 MB
        fc, alpha = np.linspace(20.0, 120.0, 20), np.linspace(0.05, 0.5, 24)
        config = GaConfig(population=60, generations=1, seed=0)
        peak = peak_bytes(lambda: build_dependence_grid(model, 3000.0, fc, alpha, config))
        assert peak < 12e6  # 6.3 MB blocked
