"""Spans and counters around the calls into each cfstcap module.

The package source is not changed. `Tracer.install` replaces each
instrumented name in the namespace where its caller looks it up (for
example `cfstcap.cli.train` for the train and robustness stages, and
`cfstcap.network.dominance_pairs` for the trainer) with a wrapper that
records a span: name, start, end and parent span. `Tracer.uninstall`
puts every original back. Spans stay in memory until `write` is called.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

STAGES = ("synth", "features", "select", "screen", "train", "codes",
          "evaluate", "robustness", "sensitivity", "explain")


def _one(_args, _result):
    return 1


def _result_len(_args, result):
    return len(result)


def _input_len(position):
    def count(args, _result):
        return len(args[position])
    return count


# span name -> (lookup sites, {counter metric: f(call args, result)}).
# A site is "module:name" or "module:Class.method".
WRAPS = {
    "data.generate_synthetic": (["cfstcap.cli:generate_synthetic",
                                 "cfstcap.data:generate_synthetic"], {}),
    "data.load_csv": (["cfstcap.cli:load_csv", "cfstcap.data:load_csv"],
                      {"data.load_csv_rows": _result_len}),
    "features.build_frame": (["cfstcap.cli:build_frame",
                              "cfstcap.network:build_frame",
                              "cfstcap.features:build_frame"],
                             {"features.build_frame_rows": _result_len}),
    "features.design_matrix": (["cfstcap.explain:design_matrix"],
                               {"features.design_matrix_calls": _one}),
    "trees.fit_gradient_boosting": (["cfstcap.cli:fit_gradient_boosting",
                                     "cfstcap.trees:fit_gradient_boosting"], {}),
    "trees.fit_random_forest": (["cfstcap.cli:fit_random_forest",
                                 "cfstcap.trees:fit_random_forest"], {}),
    "trees.detect_anomalies": (["cfstcap.cli:detect_anomalies",
                                "cfstcap.trees:detect_anomalies"], {}),
    "trees.fit_regression_tree": (["cfstcap.trees.boosting:fit_regression_tree",
                                   "cfstcap.trees.forest:fit_regression_tree"],
                                  {"trees.fit_regression_tree_calls": _one,
                                   "trees.nodes": _result_len}),
    "trees.shapley_permutation": (["cfstcap.cli:shapley_permutation"], {}),
    "trees.predict": (["cfstcap.trees.boosting:GradientBoosting.predict",
                       "cfstcap.trees.forest:RandomForest.predict"],
                      {"trees.predict_rows": _input_len(-1)}),
    "network.train": (["cfstcap.cli:train", "cfstcap.evaluation:train",
                       "cfstcap.network:train"],
                      {"network.train_calls": _one,
                       "network.epochs": lambda _args, r: len(r[1].epochs)}),
    "network.dominance_pairs": (["cfstcap.network:dominance_pairs"],
                                {"network.dominance_pairs_calls": _one}),
    "network.predict": (["cfstcap.cli:predict_specimens", "cfstcap.cli:predict_rows",
                         "cfstcap.evaluation:predict_specimens",
                         "cfstcap.network:predict_specimens",
                         "cfstcap.network:predict"],
                        # predict() returns one float, the others an array
                        {"network.predict_rows":
                         lambda _args, r: 1 if isinstance(r, float) else len(r)}),
    "codes.predict_all": (["cfstcap.cli:predict_all", "cfstcap.codes:predict_all"],
                          {"codes.predictions": _result_len,
                           "codes.invalid":
                           lambda _args, r: sum(not p.valid for p in r)}),
    "evaluation.robustness_sweep": (["cfstcap.cli:robustness_sweep"],
                                    {"evaluation.robustness_cells": _result_len}),
    "evaluation.metrics": (["cfstcap.cli:compute_metrics",
                            "cfstcap.cli:interval_breakdown",
                            "cfstcap.evaluation:compute_metrics",
                            "cfstcap.evaluation:interval_breakdown"], {}),
    "explain.build_dependence_grid": (["cfstcap.cli:build_dependence_grid",
                                       "cfstcap.explain:build_dependence_grid"], {}),
    # every network evaluation the GA and the exact Shapley sweep make
    "explain.model": (["cfstcap.explain:predict_rows"],
                      {"explain.model_calls": _one, "explain.model_rows": _input_len(1)}),
    "explain.shapley_exact": (["cfstcap.explain:shapley_exact"], {}),
}

# The model function shapley_permutation receives as its first argument
# is wrapped there, as its own span.
SHAPLEY_MODEL = ("trees.shapley_model", {"trees.shapley_model_calls": _one,
                                         "trees.shapley_model_rows": _input_len(0)})

# Per-layer metric -> (unit, better, end-to-end metric and workload it moves).
PER_LAYER = {
    **{f"cli.{s}_s": ("s", "lower", "wall_s on pipeline") for s in STAGES},
    "explain.build_dependence_grid_s": ("s", "lower", "wall_s on pipeline"),
    "explain.model_calls": ("count", "lower", "wall_s on pipeline"),
    "explain.model_rows": ("rows", "higher", "wall_s on pipeline"),
    "explain.model_s": ("s", "lower", "wall_s on pipeline"),
    "explain.shapley_exact_s": ("s", "lower", "wall_s on pipeline"),
    "trees.fit_gradient_boosting_s": ("s", "lower", "wall_s on fit"),
    "trees.fit_random_forest_s": ("s", "lower", "wall_s on fit"),
    "trees.detect_anomalies_s": ("s", "lower", "wall_s on fit"),
    "trees.fit_regression_tree_calls": ("count", "lower", "wall_s on fit"),
    "trees.nodes": ("count", "lower", "wall_s on fit"),
    "trees.shapley_permutation_s": ("s", "lower", "wall_s on pipeline"),
    "trees.shapley_model_calls": ("count", "lower", "wall_s on pipeline"),
    "trees.shapley_model_rows": ("rows", "higher", "wall_s on pipeline"),
    "trees.shapley_model_s": ("s", "lower", "wall_s on pipeline"),
    "trees.predict_s": ("s", "lower", "wall_s on predict"),
    "trees.predict_rows": ("rows", "higher", "wall_s on predict"),
    "network.train_s": ("s", "lower", "wall_s on fit and pipeline"),
    "network.train_calls": ("count", "lower", "wall_s on fit and pipeline"),
    "network.epochs": ("count", "lower", "wall_s on fit and pipeline"),
    "network.dominance_pairs_s": ("s", "lower", "wall_s on fit and pipeline"),
    "network.dominance_pairs_calls": ("count", "lower", "wall_s on fit and pipeline"),
    "network.predict_s": ("s", "lower", "wall_s on predict"),
    "network.predict_rows": ("rows", "higher", "wall_s on predict"),
    "features.build_frame_s": ("s", "lower", "wall_s on predict"),
    "features.build_frame_rows": ("rows", "higher", "wall_s on predict"),
    "features.design_matrix_s": ("s", "lower", "wall_s on pipeline"),
    "features.design_matrix_calls": ("count", "lower", "wall_s on pipeline"),
    "codes.predict_all_s": ("s", "lower", "wall_s on predict"),
    "codes.predictions": ("count", "higher", "wall_s on predict"),
    "codes.invalid": ("count", "lower", "wall_s on predict"),
    "data.load_csv_s": ("s", "lower", "wall_s on predict"),
    "data.load_csv_rows": ("rows", "higher", "wall_s on predict"),
    "data.generate_synthetic_s": ("s", "lower", "setup_s on every workload"),
    "evaluation.robustness_sweep_s": ("s", "lower", "wall_s on pipeline"),
    "evaluation.robustness_cells": ("count", "higher", "wall_s on pipeline"),
    "evaluation.metrics_s": ("s", "lower", "wall_s on predict"),
    "trace.overhead_frac": ("ratio", "lower", "none: traced wall_s / untraced wall_s - 1"),
}


def _resolve(site):
    module_name, attr = site.split(":")
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """In-memory spans and counters for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, nested]
        self._stack = []
        self._depth = defaultdict(int)
        self.counts = defaultdict(float)
        self.enabled = True      # False while the benchmark runs its checks
        self._patched = []

    def call(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self._depth[name] > 0]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        self._depth[name] += 1
        record[1] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            self._depth[name] -= 1
            self._stack.pop()

    def _wrapper(self, name, fn, counters):
        def wrapped(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if name == "trees.shapley_permutation":
                model_name, model_counters = SHAPLEY_MODEL
                args = (self._wrapper(model_name, args[0], model_counters), *args[1:])
            result = self.call(name, fn, *args, **kwargs)
            for key, count in counters.items():
                self.counts[key] += count(args, result)
            return result

        return wrapped

    def install(self):
        for name, (sites, counters) in WRAPS.items():
            for site in sites:
                owner, attr = _resolve(site)
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrapper(name, original, counters))

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def totals(self):
        """Busy seconds per span name (outermost spans of a name only) and
        the counters, keyed by per-layer metric name."""
        out = defaultdict(float)
        for name, start, end, _parent, nested in self.spans:
            if not nested:
                out[f"{name}_s"] += end - start
        out.update(self.counts)
        return out

    def write(self, path, header):
        doc = {"header": header,
               "fields": ["name", "start", "end", "parent", "nested"],
               "spans": self.spans}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
