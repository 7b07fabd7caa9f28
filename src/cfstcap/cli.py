"""Command-line pipeline: one YAML config, one master seed, per-stage
artifacts with manifests recording config hash, input and artifact digests.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
"""
from __future__ import annotations

import argparse
import copy
import csv
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .codes import CODE_IDS, CodeOptions, predict_all
from .data import ENVELOPE, Dataset, generate_synthetic, load_csv, save_csv, split
from .errors import ConfigError, DataError, NumericError
from .evaluation import (compute_metrics, interval_breakdown,
                         robustness_sweep, sensitivity)
from .features import (FEATURE_VOCAB, build_frame, correlation_matrix,
                       rank_by_abs_correlation, select_features)
from .network import (MODEL_FORMAT_VERSION, ConstraintSpec, TrainConfig,
                      load_model, predict_rows, predict_specimens, save_model,
                      train, variant_spec)
from .seeding import named_seed
from .trees import (detect_anomalies, fit_gradient_boosting, fit_random_forest,
                    global_importance, mdi_importance, shapley_permutation)
from .explain import GaConfig, build_dependence_grid, optimal_alpha_curve

# libyaml's safe loader, in C, when PyYAML has it: the same documents as SafeLoader
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

DEFAULT_CONFIG = {
    "master_seed": 42,
    "output_dir": "out",
    "data": {
        "source": "synthetic",          # 'synthetic' or a CSV path
        "range_mode": "warn",
        "synthetic": {"n": 500, "noise_cov": 0.10},
    },
    "split": {"fraction": 0.8},
    "features": {"selection_mode": "paper_fixed", "k": 10,
                 "shap_permutations": 20, "shap_rows": 40,
                 "gb_trees": 60, "rf_trees": 60, "max_depth": 6},
    "anomaly": {"contamination": 0.02, "n_trees": 100, "subsample": 256},
    "constraints": {"gamma": 0.1, "lower_factor": 0.7, "upper_factor": 2.2,
                    "pair_budget": 2000},
    "train": {"variant": "ANNWT", "epochs": 300, "batch_size": 64,
              "learning_rate": 1e-3, "patience": 50,
              "hidden_layers": 5, "hidden_units": 32},
    "codes": {"fck_mode": "cylinder"},
    "evaluation": {"paper_literal_mape": False, "grid_points": 21},
    "robustness": {"variants": ["ANN", "ANNWT"], "sweep": "vary_p",
                   "levels": None, "fixed_d": 0.2, "fixed_p": 0.3},
    "explain": {"target": None, "fc_points": 20, "alpha_points": 24,
                "population": 60, "generations": 100,
                "shap_background": 32},
}

# The stages in pipeline order, with the upstream files each one reads.
# "source" is the unscreened dataset (the synth stage's dataset.csv or the
# configured CSV); "dataset" is dataset_screened.csv once the screen stage
# has run, else the source.
READS = {
    "synth": (),
    "features": ("source",),
    "select": ("source",),
    "screen": ("source",),
    "train": ("dataset", "selected_features.json"),
    "codes": ("dataset",),
    "evaluate": ("dataset", "model.json"),
    "robustness": ("dataset", "selected_features.json"),
    "sensitivity": ("dataset", "model.json"),
    "explain": ("dataset", "model.json"),
}
STAGES = list(READS)

# The stage that writes each artifact another stage reads, and what it
# made that artifact from.
PRODUCERS = {"dataset_screened.csv": ("screen", "screened from"),
             "selected_features.json": ("select", "selected from"),
             "model.json": ("train", "trained on")}


def deep_update(base: dict, extra: dict) -> dict:
    for k, v in extra.items():
        if isinstance(v, dict) and isinstance(base.get(k), dict):
            deep_update(base[k], v)
        else:
            base[k] = v
    return base


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    """A number, not nan or infinite (YAML's .nan and .inf are floats)."""
    return _is_number(v) and (isinstance(v, int) or math.isfinite(v))


# The leaves whose default does not show every value they take
OPEN_LEAVES = {
    "explain.target": ("null or a finite number above 0",
                       lambda v: v is None or (_is_finite(v) and v > 0)),
    "robustness.levels": ("null or a non-empty list of finite numbers",
                          lambda v: v is None or (isinstance(v, list) and len(v) > 0
                                                  and all(map(_is_finite, v)))),
    "constraints.upper_factor": ('a number, "inf" or null',
                                 lambda v: v in ("inf", None) or _is_number(v)),
}

# Each plain stage argument's range or choices: a message ({0} key, {1} value), a test
RANGES = {
    **dict.fromkeys(
        ("data.synthetic.n", "features.shap_permutations", "features.shap_rows",
         "features.gb_trees", "features.rf_trees", "features.max_depth", "anomaly.n_trees",
         "explain.fc_points", "explain.alpha_points", "explain.shap_background"),
        ("{0} must be >= 1, got {1!r}", lambda v: v >= 1)),
    "anomaly.subsample": ("{0} must be >= 2, got {1!r}", lambda v: v >= 2),
    "evaluation.grid_points": ("grid_points must be >= 2", lambda v: v >= 2),
    "data.synthetic.noise_cov": ("{0} must be >= 0, got {1!r}", lambda v: v >= 0),
    "split.fraction": ("{0} must be in (0, 1), got {1!r}", lambda v: 0 < v < 1),
    "anomaly.contamination": ("contamination must be in [0, 0.5), got {1!r}",
                              lambda v: 0 <= v < 0.5),
    "robustness.fixed_d": ("{0} must be in [0, 1), got {1!r}", lambda v: 0 <= v < 1),
    "robustness.fixed_p": ("{0} must be in [0, 1], got {1!r}", lambda v: 0 <= v <= 1),
    "data.range_mode": ("{0} must be 'warn' or 'reject', got {1!r}",
                        lambda v: v in ("warn", "reject")),
    "robustness.sweep": ("sweep must be 'vary_p' or 'vary_d', got {1!r}",
                         lambda v: v in ("vary_p", "vary_d")),
}


def _kind(default):
    """What a value of default's kind is, and a test of it: a float takes a
    finite int or float, a list at least one item, each of its first item's
    kind; true is not an int."""
    if isinstance(default, list):
        noun, fits = _kind(default[0])
        return (f"a non-empty list, each item {noun}",
                lambda v: isinstance(v, list) and len(v) > 0 and all(map(fits, v)))
    if isinstance(default, float):
        return "a finite number", _is_finite
    noun = {bool: "true or false", int: "an integer", str: "a string"}[type(default)]
    return noun, lambda v: type(v) is type(default)


def _check_keys(extra, default, where: str = "") -> None:
    """Raise ConfigError unless every key of extra names an entry of default,
    every section of default is given a mapping and every leaf a value of
    its default's kind (or one OPEN_LEAVES takes) in the range RANGES sets."""
    if not isinstance(extra, dict):
        raise ConfigError(f"config section {where or '(top level)'!r} needs a mapping, "
                          f"got {extra!r}")
    for k, v in extra.items():
        key = f"{where}.{k}" if where else str(k)
        if not isinstance(default, dict) or k not in default:
            raise ConfigError(f"unknown config key {key!r}")
        if isinstance(default[k], dict) or isinstance(v, dict):
            _check_keys(v, default[k], key)
            continue
        kind, fits = OPEN_LEAVES.get(key) or _kind(default[k])
        if not fits(v):
            raise ConfigError(f"{key} must be {kind}, got {v!r}")
        if (rule := RANGES.get(key)) and not rule[1](v):
            raise ConfigError(rule[0].format(key, v))


def _parse_yaml(text: str, where: str):
    try:
        return yaml.load(text, Loader=YAML_LOADER)
    except yaml.YAMLError as exc:
        raise ConfigError(f"malformed YAML in {where}: {exc}") from None


def load_config(path: str | None, overrides) -> dict:
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc}") from None
        doc = _parse_yaml(text, path) or {}
        _check_keys(doc, DEFAULT_CONFIG)
        deep_update(cfg, doc)
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not key=value")
        key, raw = item.split("=", 1)
        doc = _parse_yaml(raw, f"override {item!r}")
        for part in reversed(key.split(".")):
            doc = {part: doc}
        _check_keys(doc, DEFAULT_CONFIG)
        deep_update(cfg, doc)
    # the rules between leaves, and the config objects the stages build
    select_features(FEATURE_VOCAB, FEATURE_VOCAB, FEATURE_VOCAB, cfg["features"]["k"],
                    mode=cfg["features"]["selection_mode"])
    levels, sweep = cfg["robustness"]["levels"] or [], cfg["robustness"]["sweep"]
    message, fits = RANGES["robustness.fixed_" + sweep[-1]]  # what a level stands in for
    if not all(map(fits, levels)):
        raise ConfigError(message.format(f"robustness.levels entries under {sweep}", levels))
    n, batch = cfg["data"]["synthetic"]["n"], cfg["train"]["batch_size"]
    if cfg["data"]["source"] == "synthetic" and batch > n:
        raise ConfigError(f"train.batch_size must be <= data.synthetic.n ({n}), got {batch}")
    CodeOptions(**cfg["codes"])
    _train_config(cfg)
    _ga_config(cfg)
    for variant in [cfg["train"]["variant"]] + cfg["robustness"]["variants"]:
        variant_spec(variant, _constraint_spec(cfg))
    return cfg


def config_hash(cfg: dict) -> str:
    """Digest of the config; output_dir is left out, as it names where the
    artifacts go, not what they are."""
    kept = {k: v for k, v in cfg.items() if k != "output_dir"}
    blob = json.dumps(kept, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _sha256(path: Path | None) -> str | None:
    return None if path is None else hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(outdir: Path, stage: str, cfg: dict, artifacts: list[Path],
                   inputs: dict) -> Path:
    doc = {
        "config_hash": config_hash(cfg),
        "master_seed": cfg["master_seed"],
        "stage": stage,
        "inputs": inputs,
        "artifact_list": {p.name: _sha256(p) for p in artifacts},
        "versions": {"cfstcap": __version__, "model_format": MODEL_FORMAT_VERSION},
    }
    path = outdir / f"manifest_{stage}.json"
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")
    return path


def _cell(c) -> str:
    if isinstance(c, float):
        # float() first: numpy 2 reprs an np.float64 as "np.float64(...)"
        return "" if math.isnan(c) else repr(float(c))
    return "" if c is None else str(c)


def write_csv(path: Path, header: list[str], rows) -> None:
    """One row per line; a cell holding a comma or a quote is quoted. None
    and NaN, a value that could not be computed, write as an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(list(map(_cell, row)) for row in rows)


def _resolve_input(key: str, cfg: dict, outdir: Path) -> Path | None:
    """The file behind one READS entry; None for an artifact not made yet.

    An artifact of another stage is taken only while its producer's
    manifest lists its current digest and every input that producer
    recorded still resolves to the digest recorded there."""
    if key == "source":
        src = cfg["data"]["source"]
        path = outdir / "dataset.csv" if src == "synthetic" else Path(src)
        if path.is_file():
            return path
        if src == "synthetic":
            raise DataError("no dataset present; run the synth stage first")
        raise DataError(f"cannot read dataset {path}: no such file")
    if key == "dataset":
        return (_resolve_input("dataset_screened.csv", cfg, outdir)
                or _resolve_input("source", cfg, outdir))
    path = outdir / key
    if not path.exists():
        return None
    producer, made = PRODUCERS[key]
    manifest = outdir / f"manifest_{producer}.json"
    try:
        doc = json.loads(manifest.read_text())
    except (OSError, ValueError):  # missing, unreadable or not JSON
        doc = None
    if not (isinstance(doc, dict) and isinstance(doc.get("artifact_list"), dict)
            and isinstance(doc.get("inputs"), dict)
            and doc["artifact_list"].get(key) == _sha256(path)):
        raise DataError(f"{path} does not match {manifest.name}; "
                        f"rerun the {producer} stage")
    for name, digest in doc["inputs"].items():
        if _sha256(_resolve_input(name, cfg, outdir)) != digest:
            raise DataError(f"{path} was not {made} the current {name}; "
                            f"rerun the {producer} stage")
    return path


def _dataset(cfg: dict, path: Path) -> Dataset:
    ds = load_csv(path, cfg["data"]["range_mode"])
    return Dataset(specimens=ds.specimens,
                   split_seed=named_seed(cfg["master_seed"], "split") % 2**31,
                   split_fraction=cfg["split"]["fraction"])


def _selected_features(cfg: dict, path: Path | None) -> list[str]:
    """The select stage's features for the configured selection mode; the
    published list stands in for a missing file only in paper_fixed mode."""
    mode = cfg["features"]["selection_mode"]
    if path is None:
        if mode != "paper_fixed":
            raise DataError(f"no selected_features.json for selection_mode {mode!r}; "
                            f"run the select stage")
        return select_features([], [], [], cfg["features"]["k"], mode=mode)
    doc = json.loads(path.read_text())
    if doc.get("mode") != mode:
        raise DataError(f"{path} was selected with mode {doc.get('mode')!r}, not "
                        f"{mode!r}; run the select stage")
    return doc["selected"]


def _model(path: Path | None):
    if path is None:
        raise DataError("no trained model (model.json); run the train stage")
    return load_model(path)


def _train_config(cfg: dict) -> TrainConfig:
    t = cfg["train"]
    return TrainConfig(epochs=t["epochs"], batch_size=t["batch_size"],
                       learning_rate=t["learning_rate"],
                       early_stop_patience=t["patience"],
                       seed=named_seed(cfg["master_seed"], "train") % 2**31,
                       hidden_layers=t["hidden_layers"],
                       hidden_units=t["hidden_units"])


def _ga_config(cfg: dict) -> GaConfig:
    e = cfg["explain"]
    return GaConfig(population=e["population"], generations=e["generations"],
                    seed=named_seed(cfg["master_seed"], "explain") % 2**31)


def _constraint_spec(cfg: dict) -> ConstraintSpec:
    c = cfg["constraints"]
    upper = c["upper_factor"]
    return ConstraintSpec(gamma=c["gamma"], lower_factor=c["lower_factor"],
                          upper_factor=float("inf") if upper in ("inf", None) else upper,
                          pair_budget=c["pair_budget"])


# ---------------------------------------------------------------- stages

def stage_synth(cfg, outdir: Path, inputs: dict) -> list[Path]:
    s = cfg["data"]["synthetic"]
    ds = generate_synthetic(s["n"], named_seed(cfg["master_seed"], "synth") % 2**31,
                            s["noise_cov"])
    path = outdir / "dataset.csv"
    save_csv(ds, path)
    return [path]


def stage_features(cfg, outdir: Path, inputs: dict) -> list[Path]:
    ds = _dataset(cfg, inputs["source"])
    frame = build_frame(ds.specimens)
    fpath = outdir / "features.csv"
    write_csv(fpath, list(frame.names) + ["N"], np.column_stack([frame.X, frame.y]).tolist())
    corr = correlation_matrix(frame)
    cpath = outdir / "correlations.csv"
    write_csv(cpath, ["feature"] + list(corr.names),
              [[name, *row] for name, row in zip(corr.names, corr.values.tolist())])
    return [fpath, cpath]


def stage_select(cfg, outdir: Path, inputs: dict) -> list[Path]:
    ds = _dataset(cfg, inputs["source"])
    fcfg = cfg["features"]
    frame = build_frame(ds.specimens)
    seed = named_seed(cfg["master_seed"], "select") % 2**31

    rank_pcc = rank_by_abs_correlation(frame)

    gb = fit_gradient_boosting(frame.X, frame.y, n_trees=fcfg["gb_trees"],
                               max_depth=fcfg["max_depth"], seed=seed)
    rng = np.random.default_rng(seed)
    rows = frame.X[rng.choice(len(frame), size=min(fcfg["shap_rows"], len(frame)),
                              replace=False)]
    bg = frame.X[rng.choice(len(frame), size=min(32, len(frame)), replace=False)]
    phi, _ = shapley_permutation(gb.predict, rows, bg,
                                 n_permutations=fcfg["shap_permutations"], seed=seed)
    shap_imp = global_importance(phi)
    rank_shap = [frame.names[i] for i in np.argsort(-shap_imp, kind="stable")]

    rf = fit_random_forest(frame.X, frame.y, n_trees=fcfg["rf_trees"],
                           max_depth=fcfg["max_depth"], seed=seed)
    mdi = mdi_importance(rf)
    rank_mdi = [frame.names[i] for i in np.argsort(-mdi, kind="stable")]

    selected = select_features(rank_pcc, rank_shap, rank_mdi, fcfg["k"],
                               mode=fcfg["selection_mode"])
    paths = []
    for name, ranking, scores in (
        ("importance_pcc.csv", rank_pcc, {}),
        ("importance_shap.csv", rank_shap, dict(zip(frame.names, shap_imp))),
        ("importance_mdi.csv", rank_mdi, dict(zip(frame.names, mdi))),
    ):
        p = outdir / name
        write_csv(p, ["rank", "feature", "score"],
                  [[i, f, scores.get(f)]
                   for i, f in enumerate(ranking)])
        paths.append(p)
    sel = outdir / "selected_features.json"
    sel.write_text(json.dumps({"mode": fcfg["selection_mode"], "selected": selected},
                              indent=1) + "\n")
    return paths + [sel]


def stage_screen(cfg, outdir: Path, inputs: dict) -> list[Path]:
    ds = _dataset(cfg, inputs["source"])
    a = cfg["anomaly"]
    frame = build_frame(ds.specimens, names=["D", "t", "L", "fy", "fc"])
    X = np.column_stack([frame.X, frame.y])
    n = len(ds)
    flags, scores = detect_anomalies(
        X, contamination=a["contamination"], n_trees=a["n_trees"], subsample=a["subsample"],
        seed=named_seed(cfg["master_seed"], "screen") % 2**31)
    spath = outdir / "anomaly_scores.csv"
    flagged = np.zeros(n, dtype=int)
    flagged[flags] = 1
    write_csv(spath, ["row", "source_id", "score", "flagged"],
              zip(range(n), ds.specimens.ids, scores.tolist(), flagged.tolist()))
    cleaned = outdir / "dataset_screened.csv"
    save_csv(Dataset(specimens=ds.specimens.take(np.flatnonzero(flagged == 0))), cleaned)
    return [spath, cleaned]


def stage_train(cfg, outdir: Path, inputs: dict) -> list[Path]:
    ds = _dataset(cfg, inputs["dataset"])
    features = _selected_features(cfg, inputs["selected_features.json"])
    spec = variant_spec(cfg["train"]["variant"], _constraint_spec(cfg))
    params, history = train(ds, features, spec, _train_config(cfg))
    mpath = outdir / "model.json"
    save_model(params, mpath)
    hpath = outdir / "history.csv"
    write_csv(hpath, ["epoch", "loss_supervised", "loss_approx",
                      "loss_monotone", "val_loss"],
              [list(r) for r in history.rows()])
    return [mpath, hpath]


def stage_codes(cfg, outdir: Path, inputs: dict) -> list[Path]:
    ds = _dataset(cfg, inputs["dataset"])
    preds = predict_all(ds.specimens, CodeOptions(**cfg["codes"]))
    path = outdir / "code_predictions.csv"
    ids = [i for i in ds.specimens.ids for _ in CODE_IDS]
    rows = [[i, p.code_id, p.capacity_kn, int(p.valid),
             json.dumps(p.intermediates, sort_keys=True)] for i, p in zip(ids, preds)]
    write_csv(path, ["source_id", "code_id", "capacity_kN", "valid",
                     "intermediates_json"], rows)
    return [path]


def stage_evaluate(cfg, outdir: Path, inputs: dict) -> list[Path]:
    params = _model(inputs["model.json"])
    ds = _dataset(cfg, inputs["dataset"])
    _, va = split(ds, ds.split_fraction, ds.split_seed)
    specimens = ds.specimens.take(va)
    preds = predict_specimens(params, specimens)
    targets = specimens.column("N")
    metrics = compute_metrics(targets, preds,
                              cfg["evaluation"]["paper_literal_mape"])
    mjson = outdir / "metrics.json"
    mjson.write_text(json.dumps(metrics.__dict__, sort_keys=True, indent=1) + "\n")
    gpath = outdir / "interval_grid.csv"
    # an empty cell has no metrics (None)
    write_csv(gpath, ["steel_class", "concrete_class", "n", "mape", "rmse", "r2"],
              [[c.steel_class, c.concrete_class, c.n]
               + [getattr(c.metrics, k, None) for k in ("mape", "rmse", "r2")]
               for c in interval_breakdown(specimens, preds)])
    return [mjson, gpath]


def stage_robustness(cfg, outdir: Path, inputs: dict) -> list[Path]:
    ds = _dataset(cfg, inputs["dataset"])
    r = cfg["robustness"]
    cells = robustness_sweep(ds, variants=r["variants"], sweep=r["sweep"],
                             levels=r["levels"], fixed_d=r["fixed_d"],
                             fixed_p=r["fixed_p"],
                             base_spec=_constraint_spec(cfg),
                             config=_train_config(cfg),
                             feature_order=_selected_features(
                                 cfg, inputs["selected_features.json"]),
                             seed=named_seed(cfg["master_seed"], "robustness") % 2**31)
    path = outdir / "robustness.csv"
    write_csv(path, ["variant", "level", "mape", "error"],
              [[c.variant, float(c.level), c.mape, c.error] for c in cells])
    return [path]


def stage_sensitivity(cfg, outdir: Path, inputs: dict) -> list[Path]:
    params = _model(inputs["model.json"])
    ds = _dataset(cfg, inputs["dataset"])
    frame = build_frame(ds.specimens).select(list(params.feature_order))
    values = sensitivity(lambda rows: predict_rows(params, rows), frame.X,
                         cfg["evaluation"]["grid_points"])
    path = outdir / "sensitivity.csv"
    write_csv(path, ["feature", "sensitivity_pct"],
              zip(params.feature_order, values))
    return [path]


def stage_explain(cfg, outdir: Path, inputs: dict) -> list[Path]:
    e = cfg["explain"]
    params = _model(inputs["model.json"])
    ds = _dataset(cfg, inputs["dataset"])
    target = e["target"]
    if target is None:
        target = float(np.median(ds.specimens.column("N")))
    grid = build_dependence_grid(
        params, target,
        fc_grid=np.linspace(*ENVELOPE["fc"], e["fc_points"]),
        alpha_grid=np.linspace(0.05, 0.5, e["alpha_points"]),
        config=_ga_config(cfg), shap_background_size=e["shap_background"])
    dpath = outdir / "dependence.csv"
    write_csv(dpath, ["fc_MPa", "alpha_sc", "D_mm", "t_mm", "L_mm", "fy_MPa",
                      "pred_kN", "shap_fc", "shap_alpha", "valid"],
              zip(grid.fc, grid.alpha_sc, grid.D, grid.t, grid.L, grid.fy,
                  grid.pred_kn, grid.shap_fc, grid.shap_alpha, grid.valid.astype(int)))
    gpath = outdir / "guidance.csv"
    write_csv(gpath, ["fc_MPa", "optimal_alpha_sc"], optimal_alpha_curve(grid))
    return [dpath, gpath]


STAGE_FUNCS = {
    "synth": stage_synth,
    "features": stage_features,
    "select": stage_select,
    "screen": stage_screen,
    "train": stage_train,
    "codes": stage_codes,
    "evaluate": stage_evaluate,
    "robustness": stage_robustness,
    "sensitivity": stage_sensitivity,
    "explain": stage_explain,
}


def run_stage(name: str, cfg: dict) -> list[Path]:
    outdir = Path(cfg["output_dir"])
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = {key: _resolve_input(key, cfg, outdir) for key in READS[name]}
    digests = {key: _sha256(path) for key, path in inputs.items()}
    artifacts = STAGE_FUNCS[name](cfg, outdir, inputs)
    manifest = write_manifest(outdir, name, cfg, artifacts, digests)
    return artifacts + [manifest]


def run_pipeline(cfg: dict) -> list[Path]:
    order = STAGES if cfg["data"]["source"] == "synthetic" else STAGES[1:]
    return [p for name in order for p in run_stage(name, cfg)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cfstcap",
        description="CFST axial capacity pipeline: synthetic data, feature "
                    "selection, constrained network training, design-code "
                    "baselines, robustness and explanation harnesses.")
    parser.add_argument("--config", help="YAML config file")
    parser.add_argument("--set", action="append", dest="overrides",
                        metavar="KEY=VALUE", help="override a config entry")
    parser.add_argument("stage", choices=STAGES + ["pipeline"],
                        help="pipeline stage to run")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config, args.overrides)
        if args.stage == "pipeline":
            artifacts = run_pipeline(cfg)
        else:
            artifacts = run_stage(args.stage, cfg)
        for p in artifacts:
            print(p)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
