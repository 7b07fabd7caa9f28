"""The three benchmark workloads: pipeline, fit and predict.

Each workload is a closed loop with one caller. `setup` makes the inputs
from the workload seed; `run_pass` runs one pass of the timed phase and
returns a `timed` sample for each of its parts (a stage, a model fit, a
batch); the output checks run between timed calls and count toward
`Checks`. Timed calls go through
module attributes (`network.train`, `cli.main`, ...), so a `Tracer`
installed by the runner sees them; checks run with tracing paused.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from cfstcap import cli, codes, data, evaluation, features, network, trees

from reference import timed
from tracing import STAGES

NOISE_COV = 0.10
SCORE_BATCH = 256

PIPELINE_SIZES = {
    "full": {
        "configs": 3, "holdout": 25_600,
        "config": {
            "data": {"synthetic": {"n": 400}},
            "features": {"shap_rows": 4, "shap_permutations": 6,
                         "gb_trees": 30, "rf_trees": 30},
            "anomaly": {"n_trees": 50},
            # patience == epochs: every pass trains for the same epochs
            "train": {"epochs": 80, "patience": 80},
            "robustness": {"levels": [0.3]},
            "explain": {"fc_points": 4, "alpha_points": 6, "population": 30,
                        "generations": 20, "shap_background": 12},
        },
    },
    "tiny": {
        "configs": 2, "holdout": 512,
        "config": {
            "data": {"synthetic": {"n": 80}},
            "features": {"shap_rows": 2, "shap_permutations": 2,
                         "gb_trees": 4, "rf_trees": 4, "max_depth": 3},
            "anomaly": {"n_trees": 10, "subsample": 64},
            "train": {"epochs": 3, "patience": 3},
            "robustness": {"levels": [0.2]},
            "explain": {"fc_points": 2, "alpha_points": 3, "population": 6,
                        "generations": 2, "shap_background": 4},
        },
    },
}

FIT_SIZES = {
    "full": {"n": 1000, "holdout": 25_600, "gb_trees": 30, "rf_trees": 30,
             "max_depth": 6, "iso_trees": 100, "epochs": 100},
    "tiny": {"n": 120, "holdout": 512, "gb_trees": 4, "rf_trees": 4,
             "max_depth": 3, "iso_trees": 10, "epochs": 3},
}

PREDICT_SIZES = {
    "full": {"n_train": 1000, "rows": 25_600, "gb_trees": 40, "max_depth": 6,
             "epochs": 100},
    "tiny": {"n_train": 100, "rows": 1_024, "gb_trees": 4, "max_depth": 3,
             "epochs": 3},
}

CONTAMINATION = 0.02


def sub_seed(seed: int, stream: int) -> int:
    """Independent 31-bit seed for one input stream of a workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0] >> 1)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def mape(targets, preds) -> float:
    t = np.asarray(targets, dtype=float)
    return float(np.mean(np.abs(t - preds) / t) * 100.0)


class Checks:
    """Counts attempted operations and checks, and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Workload:
    name = ""
    min_passes = 1
    variants = 1        # distinct inputs that the passes cycle through

    def __init__(self, seed: int, size: str, out: Path):
        self.seed = seed
        self.size = size
        self.out = out / f"{self.name}-{size}-seed{seed}"   # runs may share a checkout
        self.tracer = None
        self.checks = Checks()
        self.batches: dict[str, list] = {}  # batch -> its sample in each pass
        self.scored_rows = 0
        self.scoring_s = 0.0
        self.mapes: list[float] = []

    def call(self, name, fn, *args, **kwargs):
        """A call that the benchmark itself marks with a span when traced."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, *args, **kwargs)

    @contextlib.contextmanager
    def untraced(self):
        if self.tracer is None:
            yield
            return
        self.tracer.enabled = False
        try:
            yield
        finally:
            self.tracer.enabled = True

    def record_batch(self, key: str, sample, rows: int) -> None:
        self.batches.setdefault(key, []).append(sample)
        self.scoring_s += sample[0]
        self.scored_rows += rows

    def score_holdout(self, params, holdout, record_mape: bool, key: str = "") -> None:
        """Score held-out specimens with a fitted network in fixed-size
        batches; every pass scores, so each batch is timed in every pass."""
        preds = []
        for start in range(0, len(holdout), SCORE_BATCH):
            batch = holdout[start:start + SCORE_BATCH]
            batch_preds, sample = timed(network.predict_specimens, params, batch)
            preds.append(batch_preds)
            self.record_batch(f"{key}batch{start // SCORE_BATCH:03d}", sample, len(batch))
        preds = np.concatenate(preds)
        self.checks.expect(np.all(np.isfinite(preds)), "held-out predictions finite")
        if record_mape:
            self.mapes.append(mape([s.N for s in holdout], preds))

    def rows_per_s(self) -> float:
        return self.scored_rows / self.scoring_s


class Pipeline(Workload):
    """The ten cfstcap stages, one cli.main call each, on scaled-down
    configs. Passes cycle through several configs (datasets) so that one
    run averages over more than one dataset; every config repeats, which
    checks that its artifacts are byte-identical."""

    name = "pipeline"

    def __init__(self, seed, size, out):
        super().__init__(seed, size, out)
        self.spec = PIPELINE_SIZES[size]
        self.variants = self.spec["configs"]
        self.min_passes = self.variants + 1     # a repeat, to compare artifacts
        self.digests: dict[int, dict] = {}
        self.passes_run = 0

    def setup(self):
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        self.configs = []
        for j in range(self.spec["configs"]):
            cfg = json.loads(json.dumps(self.spec["config"]))
            cfg["master_seed"] = sub_seed(self.seed, 100 + j)
            path = self.out / f"config{j}.yaml"
            path.write_text(json.dumps(cfg))   # JSON is valid YAML
            self.configs.append(path)
        self.holdout = data.generate_synthetic(
            self.spec["holdout"], sub_seed(self.seed, 1), NOISE_COV).specimens

    def run_pass(self, i: int) -> dict:
        j = i % len(self.configs)
        outdir = self.out / f"pass{self.passes_run}"
        self.passes_run += 1
        argv = ["--config", str(self.configs[j]), "--set", f"output_dir={outdir}"]
        parts = {}
        codes_rc = []
        for stage in STAGES:
            with contextlib.redirect_stdout(io.StringIO()):
                rc, parts[f"config{j}.{stage}"] = timed(
                    self.call, f"cli.{stage}", cli.main, argv + [stage])
            codes_rc.append(rc)
        with self.untraced():
            self._check(j, outdir, codes_rc)
        return parts

    def _check(self, j, outdir: Path, codes_rc):
        digests = {}
        for stage, rc in zip(STAGES, codes_rc):
            self.checks.expect(rc == 0, f"stage {stage} exited {rc}")
            manifest = outdir / f"manifest_{stage}.json"
            ok = manifest.is_file()
            if ok:
                listed = json.loads(manifest.read_text())["artifact_list"]
                ok = all((outdir / n).is_file() and _sha256(outdir / n) == d
                         for n, d in listed.items())
                digests[stage] = listed
            self.checks.expect(ok, f"stage {stage} manifest missing or stale")
        if j in self.digests:
            self.checks.expect(digests == self.digests[j],
                               f"config {j}: artifacts differ between repeats")
        guidance = outdir / "guidance.csv"
        self.checks.expect(guidance.is_file()
                           and len(guidance.read_text().splitlines()) > 1,
                           "guidance curve is empty")
        selected = outdir / "selected_features.json"
        k = cli.DEFAULT_CONFIG["features"]["k"]
        self.checks.expect(selected.is_file()
                           and len(json.loads(selected.read_text())["selected"]) == k,
                           f"selected_features.json lacks {k} entries")
        model = outdir / "model.json"
        if model.is_file():
            self.score_holdout(network.load_model(model), self.holdout,
                               record_mape=j not in self.digests, key=f"config{j}.")
        self.digests.setdefault(j, digests)


class Fit(Workload):
    """Gradient boosting, a random forest, an isolation forest and one
    network training on a synthetic set of a thousand rows."""

    name = "fit"

    def setup(self):
        self.spec = s = FIT_SIZES[self.size]
        self.dataset = data.generate_synthetic(s["n"], sub_seed(self.seed, 2), NOISE_COV)
        frame = features.build_frame(self.dataset.specimens)
        self.X, self.y = frame.X, frame.y
        raw = features.build_frame(self.dataset.specimens, names=features.RAW_NAMES)
        self.X_anomaly = np.column_stack([raw.X, raw.y])
        self.holdout = data.generate_synthetic(
            s["holdout"], sub_seed(self.seed, 1), NOISE_COV).specimens
        self.train_config = network.TrainConfig(
            epochs=s["epochs"], early_stop_patience=s["epochs"],
            seed=sub_seed(self.seed, 3))
        self.first = None

    def run_pass(self, i: int) -> dict:
        s = self.spec
        model_seed = sub_seed(self.seed, 4)
        parts = {}
        gb, parts["gradient_boosting"] = timed(
            trees.fit_gradient_boosting, self.X, self.y, n_trees=s["gb_trees"],
            max_depth=s["max_depth"], seed=model_seed)
        rf, parts["random_forest"] = timed(
            trees.fit_random_forest, self.X, self.y, n_trees=s["rf_trees"],
            max_depth=s["max_depth"], seed=model_seed)
        (flags, _scores), parts["isolation_forest"] = timed(
            trees.detect_anomalies, self.X_anomaly, contamination=CONTAMINATION,
            n_trees=s["iso_trees"], subsample=min(256, len(self.X_anomaly)),
            seed=model_seed)
        (params, history), parts["network_train"] = timed(
            network.train, self.dataset, features.PAPER_SELECTED,
            network.ConstraintSpec(), self.train_config)
        with self.untraced():
            self._check(gb, rf, flags, params, history)
        return parts

    def _check(self, gb, rf, flags, params, history):
        mse = np.asarray(gb.train_mse)
        self.checks.expect(np.all(np.diff(mse) <= 1e-9 * mse[0]),
                           "gradient boosting train_mse increased")
        self.checks.expect(abs(float(trees.mdi_importance(rf).sum()) - 1.0) < 1e-9,
                           "MDI importances do not sum to 1")
        self.checks.expect(len(flags) == math.ceil(CONTAMINATION * len(self.X_anomaly)),
                           "flagged count is not ceil(contamination * n)")
        self.checks.expect(all(math.isfinite(v) for row in history.rows() for v in row),
                           "training history is not finite")
        state = (list(mse), [w.tolist() for w in params.weights], flags.tolist())
        if self.first is None:
            self.first = state
        else:
            self.checks.expect(state == self.first, "fit is not deterministic")
        self.score_holdout(params, self.holdout, record_mape=len(self.mapes) == 0)


class Predict(Workload):
    """Scoring: ingest a specimen CSV, then score fixed-size batches with
    the network, a gradient-boosting ensemble and the seven design codes,
    and compute the batch's metrics and strength-interval breakdown."""

    name = "predict"

    def setup(self):
        self.spec = s = PREDICT_SIZES[self.size]
        self.out.mkdir(parents=True, exist_ok=True)
        train_set = data.generate_synthetic(s["n_train"], sub_seed(self.seed, 2), NOISE_COV)
        self.params, _ = network.train(
            train_set, features.PAPER_SELECTED, network.ConstraintSpec(),
            network.TrainConfig(epochs=s["epochs"], early_stop_patience=s["epochs"],
                                seed=sub_seed(self.seed, 3)))
        frame = features.build_frame(train_set.specimens).select(features.PAPER_SELECTED)
        self.gb = trees.fit_gradient_boosting(frame.X, frame.y, n_trees=s["gb_trees"],
                                              max_depth=s["max_depth"],
                                              seed=sub_seed(self.seed, 4))
        self.csv = self.out / "specimens.csv"
        data.save_csv(data.generate_synthetic(s["rows"], sub_seed(self.seed, 1), NOISE_COV),
                      self.csv)
        self.sample_rng = np.random.default_rng(sub_seed(self.seed, 5))

    def run_pass(self, i: int) -> dict:
        parts = {}
        loaded, parts["load_csv"] = timed(data.load_csv, self.csv)
        specimens = loaded.specimens
        self.checks.expect(len(specimens) == self.spec["rows"], "CSV row count")
        all_preds = []
        for start in range(0, len(specimens), SCORE_BATCH):
            batch = specimens[start:start + SCORE_BATCH]
            (preds, gb_preds, code_preds), sample = timed(self._score, batch)
            key = f"batch{start // SCORE_BATCH:03d}"
            parts[key] = sample
            self.record_batch(key, sample, len(batch))
            with self.untraced():
                self._check(batch, preds, gb_preds, code_preds)
            all_preds.append(preds)
        if not self.mapes:
            self.mapes.append(mape([s.N for s in specimens], np.concatenate(all_preds)))
        self.scoring_s += parts["load_csv"][0]
        return parts

    def _score(self, batch):
        preds = network.predict_specimens(self.params, batch)
        X = features.build_frame(batch).select(features.PAPER_SELECTED).X
        gb_preds = self.gb.predict(X)
        code_preds = codes.predict_all(batch)
        targets = np.array([s.N for s in batch])
        evaluation.compute_metrics(targets, preds)
        evaluation.interval_breakdown(batch, preds)
        return preds, gb_preds, code_preds

    def _check(self, batch, preds, gb_preds, code_preds):
        self.checks.expect(np.all(np.isfinite(gb_preds)), "ensemble predictions finite")
        for k in self.sample_rng.choice(len(batch), size=2, replace=False):
            single = network.predict(self.params, batch[k])
            self.checks.expect(math.isclose(single, preds[k], rel_tol=1e-9),
                               "batched network prediction differs from predict()")
        D, t, fy, fc = (np.array([getattr(s, name) for s in batch])
                        for name in ("D", "t", "fy", "fc"))
        inner = D - 2 * t
        As = np.pi * (D * D - inner * inner) / 4.0
        Ac = np.pi * inner * inner / 4.0
        per = len(codes.CODE_IDS)
        aij = np.array([p.capacity_kn for p in code_preds[codes.CODE_IDS.index("AIJ")::per]])
        aci = np.array([p.capacity_kn for p in code_preds[codes.CODE_IDS.index("ACI")::per]])
        self.checks.expect(np.allclose(aij, (1.27 * As * fy + Ac * fc) / 1e3, rtol=1e-12),
                           "AIJ prediction differs from its closed form")
        self.checks.expect(np.allclose(aci, (As * fy + 0.85 * Ac * fc) / 1e3, rtol=1e-12),
                           "ACI prediction differs from its closed form")


WORKLOAD_CLASSES = {w.name: w for w in (Pipeline, Fit, Predict)}
