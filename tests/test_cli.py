import csv
import hashlib
import importlib
import json
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

import cfstcap.cli as cli
from cfstcap.cli import (DEFAULT_CONFIG, OPEN_LEAVES, RANGES, READS, STAGES,
                         config_hash, deep_update, load_config, main)
from cfstcap.data import Dataset, generate_synthetic, save_csv
from cfstcap.errors import ConfigError
from cfstcap.network import load_model

ROOT = Path(__file__).resolve().parents[1]


def fast_overrides(outdir):
    return [
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
        "evaluation.grid_points=5",
    ]


def run(stage, outdir, extra=()):
    argv = []
    for o in fast_overrides(outdir) + list(extra):
        argv += ["--set", o]
    return main(argv + [stage])


def _leaves(section, where=""):
    for k, v in section.items():
        if isinstance(v, dict):
            yield from _leaves(v, f"{where}{k}.")
        else:
            yield f"{where}{k}", v


LEAVES = dict(_leaves(DEFAULT_CONFIG))
# values besides its default that each open leaf takes
OPEN_VALUES = {"explain.target": [1500, 1500.5],
               "robustness.levels": [[0.1, 1], [0.3]],
               "constraints.upper_factor": ["inf", None, 3]}
# for each leaf of RANGES, a value just outside its range and a boundary
# value just inside it
RANGE_BOUNDS = {"data.range_mode": ("Warn", "reject"),
                "data.synthetic.n": (0, 1),
                "data.synthetic.noise_cov": (-0.01, 0.0),
                "split.fraction": (1.0, 0.99),
                "features.shap_permutations": (0, 1),
                "features.shap_rows": (0, 1),
                "features.gb_trees": (0, 1),
                "features.rf_trees": (0, 1),
                "features.max_depth": (0, 1),
                "anomaly.contamination": (0.5, 0.0),
                "anomaly.n_trees": (0, 1),
                "anomaly.subsample": (1, 2),
                "evaluation.grid_points": (1, 2),
                "robustness.sweep": ("vary_q", "vary_d"),
                "robustness.fixed_d": (1.0, 0.0),
                "robustness.fixed_p": (-0.01, 1.0),
                "explain.fc_points": (0, 1),
                "explain.alpha_points": (0, 1),
                "explain.shap_background": (0, 1)}
# the same for leaves whose range a config object or select_features holds
OBJECT_BOUNDS = {"features.k": (0, 1),
                 "explain.population": (3, 4),
                 "explain.generations": (-1, 0),
                 "train.epochs": (0, 1),
                 "constraints.gamma": (-0.01, 0.0),
                 "constraints.pair_budget": (0, 1)}
BOUNDS = [(key, *values) for key, values in {**RANGE_BOUNDS, **OBJECT_BOUNDS}.items()]
# settings out of the range of the stage argument they set, each refused at
# load with this message
STAGE_RANGES = [
    (["features.max_depth=0"], "features.max_depth must be >= 1, got 0"),
    (["features.max_depth=-1"], "features.max_depth must be >= 1, got -1"),
    (["split.fraction=0"], "split.fraction must be in (0, 1), got 0"),
    (["split.fraction=1"], "split.fraction must be in (0, 1), got 1"),
    (["robustness.levels=[1.5]"],
     "robustness.levels entries under vary_p must be in [0, 1], got [1.5]"),
    (["robustness.levels=[-0.1]"],
     "robustness.levels entries under vary_p must be in [0, 1], got [-0.1]"),
    (["robustness.sweep=vary_d", "robustness.levels=[1.0]"],
     "robustness.levels entries under vary_d must be in [0, 1), got [1.0]"),
    (["robustness.fixed_d=1.5"], "robustness.fixed_d must be in [0, 1), got 1.5"),
    (["robustness.sweep=vary_d", "robustness.fixed_p=1.5"],
     "robustness.fixed_p must be in [0, 1], got 1.5"),
    (["anomaly.subsample=1"], "anomaly.subsample must be >= 2, got 1"),
    (["anomaly.n_trees=0"], "anomaly.n_trees must be >= 1, got 0"),
    (["features.gb_trees=0"], "features.gb_trees must be >= 1, got 0"),
    (["features.rf_trees=0"], "features.rf_trees must be >= 1, got 0"),
    (["features.shap_permutations=0"], "features.shap_permutations must be >= 1, got 0"),
    (["data.range_mode=foo"], "data.range_mode must be 'warn' or 'reject', got 'foo'"),
    (["data.synthetic.n=60", "train.batch_size=64"],
     "train.batch_size must be <= data.synthetic.n (60), got 64"),
]


def _other_kinds(default):
    """Values of another kind than default: a string for numbers, bools,
    lists and null, an int for strings, true for numbers and null, a float
    for ints, and a list of such values for a list."""
    if isinstance(default, str):
        return [5]
    if isinstance(default, list):
        return ["abc"] + [[v] for v in _other_kinds(default[0])]
    if isinstance(default, bool):
        return ["abc"]
    return ["abc", True] + ([2.5] if isinstance(default, int) else [])


WRONG_KINDS = [(key, v) for key, default in LEAVES.items() for v in _other_kinds(default)]
WRONG_KINDS += [("explain.target", [1500]), ("robustness.levels", ["abc"]),
                ("robustness.levels", [True])]
# YAML's non-finite floats, for every float leaf and the open numeric ones
# but constraints.upper_factor, which takes inf
NON_FINITE = [(key, text) for key, default in LEAVES.items()
              if isinstance(default, float) and key not in OPEN_LEAVES
              for text in (".nan", ".inf", "-.inf")]
NON_FINITE += [("explain.target", ".nan"), ("explain.target", "-.inf"),
               ("robustness.levels", "[0.1, .nan]"), ("robustness.levels", "[.inf]")]


class TestConfig:
    def test_deep_update_merges_nested(self):
        base = {"a": {"x": 1, "y": 2}, "b": 3}
        deep_update(base, {"a": {"y": 9}, "c": 4})
        assert base == {"a": {"x": 1, "y": 9}, "b": 3, "c": 4}

    def test_load_config_yaml_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("master_seed: 7\ntrain:\n  epochs: 12\n")
        cfg = load_config(str(cfgfile), ["train.batch_size=16"])
        assert cfg["master_seed"] == 7
        assert cfg["train"]["epochs"] == 12
        assert cfg["train"]["batch_size"] == 16
        # untouched defaults survive
        assert cfg["data"]["source"] == DEFAULT_CONFIG["data"]["source"]

    def test_config_hash_order_independent(self):
        a = {"x": 1, "y": {"p": 2, "q": 3}}
        b = {"y": {"q": 3, "p": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash({"x": 2, "y": {"p": 2, "q": 3}})

    @pytest.mark.parametrize("key, value", WRONG_KINDS,
                             ids=[f"{k}={json.dumps(v)}" for k, v in WRONG_KINDS])
    def test_value_of_another_kind_rejected(self, key, value):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
            load_config(None, [f"{key}={json.dumps(value)}"])

    @pytest.mark.parametrize("key, text", NON_FINITE,
                             ids=[f"{k}={t}" for k, t in NON_FINITE])
    def test_non_finite_number_rejected(self, key, text):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be .*finite"):
            load_config(None, [f"{key}={text}"])

    @pytest.mark.parametrize("key", ["robustness.variants", "robustness.levels"])
    def test_empty_list_rejected(self, tmp_path, key):
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be .*non-empty list"):
            load_config(None, [f"{key}=[]"])
        section, leaf = key.split(".")
        path = tmp_path / "config.yaml"
        path.write_text(f"{section}:\n  {leaf}: []\n")
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be "):
            load_config(str(path), [])

    @pytest.mark.parametrize("target", ["0", "-5", "-0.5"])
    def test_non_positive_target_rejected(self, target):
        # a capacity target must be positive; a GA aimed below zero drives
        # every cell to the smallest capacity it reaches
        with pytest.raises(ConfigError, match=r"^explain\.target must be null or a "
                                              r"finite number above 0"):
            load_config(None, [f"explain.target={target}"])

    def test_defaults_and_open_values_load(self):
        assert set(OPEN_VALUES) == set(OPEN_LEAVES)
        for key, default in LEAVES.items():
            for value in [default] + OPEN_VALUES.get(key, []):
                cfg = load_config(None, [f"{key}={json.dumps(value)}"])
                for part in key.split("."):
                    cfg = cfg[part]
                assert cfg == value, key

    def test_benchmark_configs_load(self, tmp_path, monkeypatch):
        """The pipeline workload's configs, written as its set-up writes them
        (JSON with an int master_seed), and the AC10 fast overrides load."""
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        path = tmp_path / "config.yaml"
        for size in workloads.PIPELINE_SIZES.values():
            for j in range(size["configs"]):
                seed = workloads.sub_seed(0, 100 + j)
                path.write_text(json.dumps(dict(size["config"], master_seed=seed)))
                load_config(str(path), [f"output_dir={tmp_path / 'pass0'}"])
        acceptance = importlib.import_module("test_acceptance")
        argv = []
        monkeypatch.setattr(acceptance, "cli_main", lambda a: argv.extend(a) or 0)
        assert acceptance._fast_pipeline(tmp_path) == 0
        assert argv[-1] == "pipeline"
        load_config(None, argv[1:-1:2])

    def test_config_hash_ignores_output_dir(self):
        a = load_config(None, ["output_dir=a", "train.epochs=5"])
        b = load_config(None, ["output_dir=b", "train.epochs=5"])
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(load_config(None, ["output_dir=a"]))


CSAFE = getattr(yaml, "CSafeLoader", None)
LOADERS = [yaml.SafeLoader] + ([CSAFE] if CSAFE else [])


def load_with(loader, monkeypatch, path, overrides):
    """repr of load_config's result, or its ConfigError, parsed by loader."""
    monkeypatch.setattr(cli, "YAML_LOADER", loader)
    try:
        return repr(load_config(path, overrides))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


class TestYamlLoaders:
    """The config is parsed by libyaml's CSafeLoader when PyYAML has it;
    it must read every config exactly as the pure-Python SafeLoader does."""

    def test_loader_is_libyaml_when_available(self):
        assert cli.YAML_LOADER is (CSAFE or yaml.SafeLoader)

    @pytest.mark.skipif(CSAFE is None, reason="PyYAML built without libyaml")
    def test_loaders_agree_on_config_files(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        texts = [yaml.safe_dump(DEFAULT_CONFIG), yaml.safe_dump(DEFAULT_CONFIG,
                                                                default_flow_style=True)]
        texts += [json.dumps(dict(size["config"], master_seed=workloads.sub_seed(0, 100 + j)))
                  for size in workloads.PIPELINE_SIZES.values()
                  for j in range(size["configs"])]
        texts += ["# comment\nmaster_seed: 0x1f\ntrain: &t {epochs: 12}\n",
                  "constraints:\n  upper_factor: .inf\nexplain:\n  target: 1.5e3\n",
                  "constraints:\n  upper_factor: -.inf\n",
                  "train:\n  learning_rate: .nan\n", "explain:\n  target: .NaN\n",
                  "robustness:\n  levels: [0.1, .inf]\n", ""]
        path = tmp_path / "cfg.yaml"
        for text in texts:
            path.write_text(text)
            got = [load_with(loader, monkeypatch, str(path), []) for loader in LOADERS]
            assert got[0] == got[1], text

    @pytest.mark.skipif(CSAFE is None, reason="PyYAML built without libyaml")
    def test_loaders_agree_on_overrides(self, tmp_path, monkeypatch):
        cases = [fast_overrides(tmp_path), ["constraints.upper_factor=.inf"],
                 ["constraints.upper_factor=-.inf"], ["constraints.upper_factor=null"]]
        cases += [[f"{key}={text}"] for key, text in NON_FINITE]
        cases += [[f"{key}={json.dumps(v)}"] for key, values in OPEN_VALUES.items()
                  for v in values]
        for overrides in cases:
            got = [load_with(loader, monkeypatch, None, overrides) for loader in LOADERS]
            assert got[0] == got[1], overrides

    @pytest.mark.parametrize("loader", LOADERS, ids=lambda c: c.__name__)
    def test_malformed_yaml_is_config_error(self, tmp_path, capsys, monkeypatch, loader):
        monkeypatch.setattr(cli, "YAML_LOADER", loader)
        cfgfile = tmp_path / "cfg.yaml"
        for text in ("train: [1,\n", "a: b: c\n", "train:\n\tepochs: 3\n"):
            cfgfile.write_text(text)
            assert main(["--config", str(cfgfile), "--set", f"output_dir={tmp_path}",
                         "synth"]) == 1
            assert capsys.readouterr().err.startswith(
                f"config error: malformed YAML in {cfgfile}: ")
        assert run("synth", tmp_path, extra=["train.epochs=[1,"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: malformed YAML in override 'train.epochs=[1,': ")
        assert not (tmp_path / "dataset.csv").exists()


class TestExitCodes:
    def test_unknown_stage(self, capsys):
        assert main(["teleport"]) == 1
        capsys.readouterr()

    def test_bad_override_format(self, tmp_path, capsys):
        assert main(["--set", "nonsense", "synth"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_override_key_rejected(self, tmp_path, capsys):
        # a misspelt key, and a deleted one
        for setting in ("train.epoch=1", "codes.ec4_slenderness=literal"):
            assert run("synth", tmp_path, extra=[setting]) == 1
            key = setting.split("=")[0]
            assert f"config error: unknown config key {key!r}" in capsys.readouterr().err
            assert not (tmp_path / "dataset.csv").exists()

    def test_override_into_leaf_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path, extra=["master_seed.x=1"]) == 1
        assert "config error: unknown config key 'master_seed.x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("train:\n  epoch: 12\n", "unknown config key 'train.epoch'"),
        ("master_seed:\n  x: 1\n", "unknown config key 'master_seed.x'"),
        ("colour: red\n", "unknown config key 'colour'"),
        ("train: 5\n", "config section 'train' needs a mapping"),
        ("features:\n  rf_trees: 2.5\n", "features.rf_trees must be an integer, got 2.5"),
    ])
    def test_unknown_yaml_key_rejected(self, tmp_path, capsys, text, key):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text(text)
        assert main(["--config", str(cfgfile), "--set", f"output_dir={tmp_path}",
                     "synth"]) == 1
        assert key in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "absent.yaml"), "synth"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: cannot read config file") and "absent.yaml" in err

    def test_unreadable_config_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_bytes(b"master_seed: \xff\xfe\n")  # not UTF-8
        assert main(["--config", str(cfgfile), "synth"]) == 1
        assert capsys.readouterr().err.startswith("config error: cannot read config file")
        assert main(["--config", str(tmp_path), "synth"]) == 1  # a directory
        assert capsys.readouterr().err.startswith("config error: cannot read config file")

    def test_malformed_yaml_file(self, tmp_path, capsys):
        cfgfile = tmp_path / "cfg.yaml"
        cfgfile.write_text("train: [1,\n")
        assert main(["--config", str(cfgfile), "--set", f"output_dir={tmp_path}",
                     "synth"]) == 1
        assert capsys.readouterr().err.startswith(f"config error: malformed YAML in {cfgfile}")
        assert not (tmp_path / "dataset.csv").exists()

    def test_malformed_yaml_override(self, tmp_path, capsys):
        assert run("synth", tmp_path, extra=["train.epochs=[1,"]) == 1
        assert capsys.readouterr().err.startswith(
            "config error: malformed YAML in override 'train.epochs=[1,'")
        assert not (tmp_path / "dataset.csv").exists()

    def test_open_leaves_take_values(self, tmp_path):
        cfg = load_config(None, ["explain.target=1500", "robustness.levels=[0.1, 0.3]",
                                 f"data.source={tmp_path}/specimens.v2.csv"])
        assert cfg["explain"]["target"] == 1500
        assert cfg["robustness"]["levels"] == [0.1, 0.3]
        assert cfg["data"]["source"] == f"{tmp_path}/specimens.v2.csv"

    def test_evaluate_without_model(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        assert run("evaluate", tmp_path) == 2
        assert "model.json" in capsys.readouterr().err

    def test_one_row_training_split_rejected(self, tmp_path, capsys):
        # 1% of 80 specimens is one training row, which trains nothing
        assert run("pipeline", tmp_path, extra=["split.fraction=0.01"]) == 2
        assert "need at least 2 training specimens, have 1" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()

    def test_model_from_another_dataset_rejected(self, tmp_path, capsys):
        small, large = ["data.synthetic.n=60"], ["data.synthetic.n=200"]
        assert run("synth", tmp_path, extra=small) == 0
        assert run("train", tmp_path, extra=small) == 0
        assert run("synth", tmp_path, extra=large) == 0
        capsys.readouterr()
        for stage in ("evaluate", "sensitivity", "explain"):
            assert run(stage, tmp_path, extra=large) == 2
            err = capsys.readouterr().err
            assert "not trained on the current dataset" in err
        assert not (tmp_path / "metrics.json").exists()
        assert run("train", tmp_path, extra=large) == 0
        assert run("evaluate", tmp_path, extra=large) == 0
        capsys.readouterr()

    def test_model_without_train_manifest_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        assert run("train", tmp_path) == 0
        (tmp_path / "manifest_train.json").unlink()
        capsys.readouterr()
        assert run("evaluate", tmp_path) == 2
        assert "rerun the train stage" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["{", "[1]"])
    def test_corrupt_train_manifest_rejected(self, tmp_path, capsys, text):
        assert run("synth", tmp_path) == 0
        assert run("train", tmp_path) == 0
        (tmp_path / "manifest_train.json").write_text(text)
        capsys.readouterr()
        assert run("evaluate", tmp_path) == 2
        err = capsys.readouterr().err
        assert "manifest_train.json" in err and "rerun the train stage" in err
        assert not (tmp_path / "metrics.json").exists()

    def test_missing_selection_outside_paper_fixed(self, tmp_path, capsys):
        mode = ["features.selection_mode=consensus"]
        assert run("synth", tmp_path, extra=mode) == 0
        capsys.readouterr()
        assert run("train", tmp_path, extra=mode) == 2
        assert "run the select stage" in capsys.readouterr().err
        assert not (tmp_path / "model.json").exists()
        assert run("select", tmp_path, extra=mode) == 0
        assert run("train", tmp_path, extra=mode) == 0
        capsys.readouterr()

    def test_selection_from_another_mode_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        assert run("select", tmp_path) == 0       # paper_fixed
        capsys.readouterr()
        assert run("train", tmp_path, extra=["features.selection_mode=consensus"]) == 2
        err = capsys.readouterr().err
        assert "'paper_fixed'" in err and "run the select stage" in err
        assert not (tmp_path / "model.json").exists()

    def test_selection_from_another_source_rejected(self, tmp_path, capsys):
        small = ["features.selection_mode=consensus", "data.synthetic.n=60"]
        large = ["features.selection_mode=consensus", "data.synthetic.n=200"]
        assert run("synth", tmp_path, extra=small) == 0
        assert run("select", tmp_path, extra=small) == 0
        assert run("synth", tmp_path, extra=large) == 0
        capsys.readouterr()
        assert run("train", tmp_path, extra=large) == 2
        err = capsys.readouterr().err
        assert "selected_features.json" in err and "rerun the select stage" in err
        assert not (tmp_path / "model.json").exists()

    def test_edited_model_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        assert run("train", tmp_path) == 0
        model = tmp_path / "model.json"
        doc = json.loads(model.read_text())
        doc["seed"] += 1
        model.write_text(json.dumps(doc))
        capsys.readouterr()
        assert run("evaluate", tmp_path) == 2
        err = capsys.readouterr().err
        assert "model.json" in err and "rerun the train stage" in err
        assert not (tmp_path / "metrics.json").exists()

    @pytest.mark.parametrize("stage, setting", [
        ("select", "features.selection_mode=paper-fixed"),
        ("train", "features.selection_mode=paper-fixed"),
        ("robustness", "features.selection_mode=paper-fixed"),
        ("codes", "codes.fck_mode=cubes"),
    ])
    def test_misspelt_choice_rejected(self, tmp_path, capsys, stage, setting):
        assert run("synth", tmp_path) == 0
        capsys.readouterr()
        assert run(stage, tmp_path, extra=[setting]) == 1
        key, value = setting.split("=")
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} must be one of") and repr(value) in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv",
                                                              "manifest_synth.json"]

    @pytest.mark.parametrize("stage, setting", [
        ("select", "features.gb_trees=0"),
        ("select", "features.shap_permutations=0"),
        ("select", "features.rf_trees=0"),
        ("robustness", "robustness.sweep=vary_q"),
        ("robustness", "robustness.levels=[2.0]"),
        ("screen", "anomaly.contamination=0.7"),
        ("screen", "anomaly.contamination=abc"),
        ("screen", "anomaly.n_trees=abc"),
        ("screen", "anomaly.n_trees=2.5"),
        ("screen", "anomaly.n_trees=true"),
        ("screen", "anomaly.subsample=abc"),
        ("select", "features.shap_rows=0"),
        ("synth", "data.synthetic.n=abc"),
        ("codes", "data.range_mode=strict"),
        ("train", "features.k=50"),
        ("train", "train.epochs=abc"),
        ("train", "train.epochs=true"),
        ("train", "constraints.upper_factor=abc"),
        ("select", "features.gb_trees=abc"),
        ("select", "features.max_depth=abc"),
        ("select", "features.k=abc"),
        ("select", "features.shap_permutations=abc"),
        ("select", "features.rf_trees=2.5"),
        ("robustness", "robustness.levels=abc"),
        ("synth", "master_seed=abc"),
        ("evaluate", "evaluation.paper_literal_mape=abc"),
        ("explain", "explain.fc_points=-1"),
        ("explain", "explain.fc_points=0"),
        ("explain", "explain.alpha_points=-2"),
        ("explain", "explain.generations=-1"),
        ("synth", "data.synthetic.noise_cov=.nan"),
        ("train", "constraints.gamma=.nan"),
        ("train", "train.learning_rate=.inf"),
        ("train", "constraints.upper_factor=.nan"),
        ("explain", "explain.target=.nan"),
        ("explain", "explain.target=-5"),
        ("explain", "explain.target=0"),
        ("robustness", "robustness.fixed_d=1.5"),
        ("robustness", "robustness.fixed_d=1.0"),
        ("robustness", "robustness.variants=[]"),
        ("robustness", "robustness.levels=[]"),
    ])
    def test_bad_value_is_config_error(self, tmp_path, capsys, stage, setting):
        small = ["data.synthetic.n=60"]
        assert run("synth", tmp_path, extra=small) == 0
        capsys.readouterr()
        assert run(stage, tmp_path, extra=small + [setting]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["dataset.csv",
                                                              "manifest_synth.json"]

    @pytest.mark.parametrize("setting", [
        "explain.population=3", "explain.generations=-1", "features.shap_rows=0",
        "explain.fc_points=0", "explain.alpha_points=0", "explain.shap_background=0",
    ])
    def test_stage_setting_refused_at_load(self, tmp_path, capsys, setting):
        # refused before the pipeline's first stage, not by the stage that uses it
        assert run("pipeline", tmp_path, extra=[setting]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.glob("manifest_*.json")) == []

    @pytest.mark.parametrize("setting, message", [
        ("evaluation.grid_points=1", "grid_points must be >= 2"),
        ("robustness.sweep=vary_q", "sweep must be 'vary_p' or 'vary_d', got 'vary_q'"),
        ("anomaly.contamination=0.7", "contamination must be in [0, 0.5), got 0.7"),
        ("features.k=50", "k=50 must be in [1, 10] (published list)"),
        ("features.k=0", "k=0 must be in [1, 10] (published list)"),
    ])
    def test_stage_check_runs_at_load(self, tmp_path, capsys, setting, message):
        # the stage's own message, before the pipeline's first stage
        assert run("pipeline", tmp_path, extra=[setting]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.glob("manifest_*.json")) == []

    def test_consensus_k_refused_at_load(self, tmp_path, capsys):
        assert run("pipeline", tmp_path, extra=["features.selection_mode=consensus",
                                                "features.k=20"]) == 1
        assert capsys.readouterr().err == ("config error: k=20 must be in [1, 19], "
                                           "the vocabulary size\n")
        assert list(tmp_path.glob("manifest_*.json")) == []

    def test_range_bounds_cover_the_table(self):
        assert set(RANGE_BOUNDS) == set(RANGES)

    @pytest.mark.parametrize("key, outside, inside", BOUNDS, ids=[b[0] for b in BOUNDS])
    def test_range_bound_checked_at_load(self, tmp_path, capsys, key, outside, inside):
        assert run("pipeline", tmp_path, extra=[f"{key}={json.dumps(outside)}"]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert list(tmp_path.iterdir()) == []
        # a batch of one, so that the smallest data.synthetic.n holds a batch
        cfg = load_config(None, ["train.batch_size=1", f"{key}={json.dumps(inside)}"])
        for part in key.split("."):
            cfg = cfg[part]
        assert cfg == inside

    @pytest.mark.parametrize("settings, message", STAGE_RANGES,
                             ids=[",".join(c[0]) for c in STAGE_RANGES])
    def test_stage_range_refused_at_load(self, tmp_path, capsys, settings, message):
        # refused before the pipeline's first stage, not by the stage that uses it
        assert run("pipeline", tmp_path, extra=settings) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("upper", ["inf", ".inf", "null"])
    def test_unbounded_upper_factor_accepted(self, tmp_path, capsys, upper):
        assert run("synth", tmp_path) == 0
        assert run("train", tmp_path, extra=[f"constraints.upper_factor={upper}"]) == 0
        capsys.readouterr()
        assert load_model(tmp_path / "model.json").constraint.upper_factor == float("inf")

    @pytest.mark.parametrize("stage", ["codes", "train"])
    def test_csv_without_rows_is_data_error(self, tmp_path, capsys, stage):
        source = tmp_path / "empty.csv"
        source.write_text("D_mm,t_mm,L_mm,fy_MPa,fc_MPa,N_kN,source_id\n")
        assert run(stage, tmp_path, extra=[f"data.source={source}"]) == 2
        assert capsys.readouterr().err == f"data error: {source}: no data rows\n"
        assert not (tmp_path / f"manifest_{stage}.json").exists()

    def test_one_row_csv_is_data_error(self, tmp_path, capsys):
        source = tmp_path / "one.csv"
        save_csv(Dataset(specimens=generate_synthetic(1, 0).specimens), source)
        assert run("features", tmp_path, extra=[f"data.source={source}"]) == 2
        assert capsys.readouterr().err == ("data error: correlations need at least "
                                           "two rows, got 1\n")
        assert not (tmp_path / "manifest_features.json").exists()

    def test_one_row_csv_screen_is_data_error(self, tmp_path, capsys):
        source = tmp_path / "one.csv"
        save_csv(Dataset(specimens=generate_synthetic(1, 0).specimens), source)
        assert run("screen", tmp_path, extra=[f"data.source={source}"]) == 2
        assert capsys.readouterr().err == ("data error: anomaly screening needs at "
                                           "least two rows, got 1\n")
        assert not (tmp_path / "manifest_screen.json").exists()

    def test_stage_without_dataset(self, tmp_path, capsys):
        assert run("features", tmp_path) == 2
        assert "synth stage" in capsys.readouterr().err

    def test_missing_csv_source(self, tmp_path, capsys):
        code = run("features", tmp_path,
                   extra=[f"data.source={tmp_path}/absent.csv"])
        assert code == 2
        capsys.readouterr()


class TestStages:
    def test_synth_writes_dataset_and_manifest(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        printed = capsys.readouterr().out.splitlines()
        assert str(tmp_path / "dataset.csv") in printed
        manifest = json.loads((tmp_path / "manifest_synth.json").read_text())
        assert manifest["stage"] == "synth"
        assert "dataset.csv" in manifest["artifact_list"]
        import hashlib
        digest = hashlib.sha256((tmp_path / "dataset.csv").read_bytes()).hexdigest()
        assert manifest["artifact_list"]["dataset.csv"] == digest

    def test_synth_deterministic_across_reruns(self, tmp_path, capsys):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run("synth", d1) == 0
        assert run("synth", d2) == 0
        capsys.readouterr()
        assert (d1 / "dataset.csv").read_bytes() == (d2 / "dataset.csv").read_bytes()
        m1 = json.loads((d1 / "manifest_synth.json").read_text())
        m2 = json.loads((d2 / "manifest_synth.json").read_text())
        assert m1 == m2  # config_hash leaves output_dir out

    def test_screen_prefers_cleaned_dataset(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        assert run("screen", tmp_path) == 0
        capsys.readouterr()
        screened = (tmp_path / "dataset_screened.csv").read_text().splitlines()
        n_screened = len(screened) - 1
        assert n_screened < 80  # contamination fraction removed
        assert run("codes", tmp_path) == 0
        assert run("features", tmp_path) == 0
        capsys.readouterr()
        codes = (tmp_path / "code_predictions.csv").read_text().splitlines()
        assert len(codes) - 1 == 7 * n_screened
        features = (tmp_path / "features.csv").read_text().splitlines()
        assert len(features) - 1 == 80  # features reads the unscreened source

    def test_undefined_correlations_left_empty(self, tmp_path, capsys):
        # every fc is 40, so fc's correlation with any other column is undefined
        ds = generate_synthetic(30, 3, 0.1)
        source = tmp_path / "constant_fc.csv"
        save_csv(Dataset(tuple(s._replace(fc=40.0) for s in ds.specimens)), source)
        assert run("features", tmp_path, extra=[f"data.source={source}"]) == 0
        capsys.readouterr()
        with open(tmp_path / "correlations.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        names = header[1:]
        fc = names.index("fc")
        for i, row in enumerate(rows):
            assert row[0] == names[i]
            for j, cell in enumerate(row[1:]):
                if i == j:
                    assert cell == "1.0"
                elif fc in (i, j):
                    assert cell == "", (names[i], names[j])
                else:
                    assert -1.0 <= float(cell) <= 1.0

    def test_constant_fc_dependence_is_finite(self, tmp_path, capsys):
        # every fc is 40: the network must still predict finitely at other fc
        ds = generate_synthetic(80, 3, 0.1)
        source = tmp_path / "constant_fc.csv"
        save_csv(Dataset(tuple(s._replace(fc=40.0) for s in ds.specimens)), source)
        for stage in ("train", "explain"):
            assert run(stage, tmp_path, extra=[f"data.source={source}"]) == 0
        capsys.readouterr()
        with open(tmp_path / "dependence.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and all(r["valid"] == "1" for r in rows)
        for r in rows:
            for name in ("pred_kN", "shap_fc", "shap_alpha"):
                assert np.isfinite(float(r[name])), (name, r)

    def test_screen_reads_unscreened_source(self, tmp_path, capsys):
        assert run("synth", tmp_path) == 0
        assert run("screen", tmp_path) == 0
        first = (tmp_path / "dataset_screened.csv").read_bytes()
        assert run("screen", tmp_path) == 0
        capsys.readouterr()
        assert (tmp_path / "dataset_screened.csv").read_bytes() == first

    def test_stale_screened_dataset_rejected(self, tmp_path, capsys):
        small, large = ["data.synthetic.n=60"], ["data.synthetic.n=200"]
        assert run("synth", tmp_path, extra=small) == 0
        assert run("screen", tmp_path, extra=small) == 0
        assert run("synth", tmp_path, extra=large) == 0
        capsys.readouterr()
        assert run("codes", tmp_path, extra=large) == 2
        err = capsys.readouterr().err
        assert "dataset_screened.csv" in err and "rerun the screen stage" in err
        assert not (tmp_path / "code_predictions.csv").exists()
        assert run("screen", tmp_path, extra=large) == 0
        assert run("codes", tmp_path, extra=large) == 0
        capsys.readouterr()
        screened = (tmp_path / "dataset_screened.csv").read_text().splitlines()
        codes = (tmp_path / "code_predictions.csv").read_text().splitlines()
        assert len(codes) - 1 == 7 * (len(screened) - 1) and len(screened) > 190

    def test_pipeline_rerun_in_place_is_identical(self, tmp_path, capsys):
        assert run("pipeline", tmp_path) == 0
        first = {p.name: p.read_text() for p in tmp_path.glob("manifest_*.json")}
        assert len(first) == 10
        assert run("pipeline", tmp_path) == 0
        capsys.readouterr()
        assert {p.name: p.read_text() for p in tmp_path.glob("manifest_*.json")} == first


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    assert run("pipeline", out) == 0
    return out


class TestPipeline:
    def test_all_manifests_present(self, pipeline_dir):
        for stage in STAGES:
            assert (pipeline_dir / f"manifest_{stage}.json").exists(), stage

    def test_selected_features(self, pipeline_dir):
        sel = json.loads((pipeline_dir / "selected_features.json").read_text())
        assert len(sel["selected"]) == 10
        assert len(set(sel["selected"])) == 10

    def test_model_loads_and_metrics_finite(self, pipeline_dir):
        params = load_model(pipeline_dir / "model.json")
        assert params.layer_sizes[0] == 10
        metrics = json.loads((pipeline_dir / "metrics.json").read_text())
        assert np.isfinite(metrics["mape"]) and metrics["mape"] >= 0
        assert metrics["n"] > 0

    def test_code_predictions_cover_every_specimen(self, pipeline_dir):
        lines = (pipeline_dir / "code_predictions.csv").read_text().splitlines()
        screened = (pipeline_dir / "dataset_screened.csv").read_text().splitlines()
        assert len(lines) - 1 == 7 * (len(screened) - 1)

    def test_sensitivity_sums_to_100(self, pipeline_dir):
        rows = (pipeline_dir / "sensitivity.csv").read_text().splitlines()[1:]
        total = sum(float(r.split(",")[1]) for r in rows)
        assert total == pytest.approx(100.0, abs=1e-6)

    def test_dependence_and_guidance(self, pipeline_dir):
        dep = (pipeline_dir / "dependence.csv").read_text().splitlines()
        assert len(dep) - 1 == 2 * 3  # fc_points * alpha_points
        guidance = (pipeline_dir / "guidance.csv").read_text().splitlines()
        assert guidance[0] == "fc_MPa,optimal_alpha_sc"

    def test_robustness_grid(self, pipeline_dir):
        rows = (pipeline_dir / "robustness.csv").read_text().splitlines()[1:]
        assert len(rows) == 1  # one variant x one level
        variant, level, mape, error = rows[0].split(",")
        assert variant == "ANN" and error == ""
        assert float(mape) >= 0

    def test_history_columns(self, pipeline_dir):
        head = (pipeline_dir / "history.csv").read_text().splitlines()[0]
        assert head == "epoch,loss_supervised,loss_approx,loss_monotone,val_loss"

    def test_manifests_record_inputs(self, pipeline_dir):
        def sha(name):
            return hashlib.sha256((pipeline_dir / name).read_bytes()).hexdigest()
        files = {"source": "dataset.csv", "dataset": "dataset_screened.csv",
                 "selected_features.json": "selected_features.json",
                 "model.json": "model.json"}
        for stage in STAGES:
            manifest = json.loads((pipeline_dir / f"manifest_{stage}.json").read_text())
            assert manifest["inputs"] == {key: sha(files[key]) for key in READS[stage]}

    def test_csv_cells_are_numbers_or_text(self, pipeline_dir):
        text = {"source_id", "code_id", "intermediates_json", "feature", "variant",
                "error", "steel_class", "concrete_class"}
        number = re.compile(r"-?(\d+(\.\d+)?(e[-+]\d+)?|inf|nan)")
        paths = sorted(pipeline_dir.glob("*.csv"))
        assert len(paths) == 15
        for path in paths:
            with open(path, newline="") as fh:
                header, *rows = csv.reader(fh)
            for cells in rows:
                assert len(cells) == len(header), path.name
                for name, cell in zip(header, cells):
                    assert name in text or cell == "" or number.fullmatch(cell), \
                        f"{path.name}: {name}={cell!r}"


class TestWriteCsv:
    def test_empty_cell_rule(self, tmp_path):
        path = tmp_path / "cells.csv"
        cli.write_csv(path, ["a", "b", "c", "d", "e", "f"],
                      [[None, float("nan"), np.float64("nan"), float("-inf"),
                        np.float64(0.1), "x,y"],
                       (1, np.int64(2), 2.5, np.float64(1e-300), "", np.float64("-inf"))])
        assert path.read_text() == ('a,b,c,d,e,f\n'
                                    ',,,-inf,0.1,"x,y"\n'
                                    '1,2,2.5,1e-300,,-inf\n')

    def test_bytes_of_csv_writer(self, tmp_path):
        # cells without a CR write as csv.writer writes them, a row of one
        # empty cell as "" and an empty row as an empty line
        rows = [["a,b", 'say "hi"', "two\nlines"], ['"'], [""], [None], [float("nan")],
                [], ["", ""], [" padded ", "é", "tab\there"], [1, np.int64(2), True, 0.5]]
        text = [["a,b", 'say "hi"', "two\nlines"], ['"'], [""], [""], [""],
                [], ["", ""], [" padded ", "é", "tab\there"], ["1", "2", "True", "0.5"]]
        path, want = tmp_path / "got.csv", tmp_path / "want.csv"
        cli.write_csv(path, ["x", "y", "z"], rows)
        with open(want, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows([["x", "y", "z"]] + text)
        assert path.read_bytes() == want.read_bytes()

    def test_carriage_return_is_quoted(self, tmp_path):
        # csv.writer left a CR bare, and a reader then ended the row there
        path = tmp_path / "cr.csv"
        rows = [["a\rb", 1.5], ['\r"', None], ["c\r\nd", "e"]]
        cli.write_csv(path, ["id", "v"], rows)
        assert path.read_bytes() == (b'id,v\n"a\rb",1.5\n"\r""",\n"c\r\nd",e\n')
        with open(path, newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [["id", "v"], ["a\rb", "1.5"], ['\r"', ""],
                                             ["c\r\nd", "e"]]

    def test_np_float64_writes_as_its_repr(self, tmp_path):
        path = tmp_path / "one.csv"
        value = np.float64(1) / 3
        cli.write_csv(path, ["v"], [[value]])
        assert path.read_text() == f"v\n{float(value)!r}\n"
        assert "np.float64" not in path.read_text()
