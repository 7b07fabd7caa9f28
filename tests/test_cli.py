import hashlib
import json
import re

import numpy as np
import pytest

from cfstcap.cli import (DEFAULT_CONFIG, READS, STAGES, config_hash, deep_update,
                         load_config, main)
from cfstcap.network import load_model


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

    def test_config_hash_ignores_output_dir(self):
        a = load_config(None, ["output_dir=a", "train.epochs=5"])
        b = load_config(None, ["output_dir=b", "train.epochs=5"])
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(load_config(None, ["output_dir=a"]))


class TestExitCodes:
    def test_unknown_stage(self, capsys):
        assert main(["teleport"]) == 1
        capsys.readouterr()

    def test_bad_override_format(self, tmp_path, capsys):
        assert main(["--set", "nonsense", "synth"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_override_key_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path, extra=["train.epoch=1"]) == 1
        assert "config error: unknown config key 'train.epoch'" in capsys.readouterr().err
        assert not (tmp_path / "dataset.csv").exists()

    def test_override_into_leaf_rejected(self, tmp_path, capsys):
        assert run("synth", tmp_path, extra=["master_seed.x=1"]) == 1
        assert "config error: unknown config key 'master_seed.x'" in capsys.readouterr().err

    @pytest.mark.parametrize("text, key", [
        ("train:\n  epoch: 12\n", "unknown config key 'train.epoch'"),
        ("master_seed:\n  x: 1\n", "unknown config key 'master_seed.x'"),
        ("colour: red\n", "unknown config key 'colour'"),
        ("train: 5\n", "config section 'train' needs a mapping"),
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
        ("codes", "codes.fck_mode=cubes"),
        ("codes", "codes.ec4_slenderness=literall"),
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
            header, *rows = path.read_text().splitlines()
            header = header.split(",")
            for row in rows:
                # only a last, text column may hold commas
                cells = row.split(",", len(header) - 1)
                assert len(cells) == len(header), path.name
                for name, cell in zip(header, cells):
                    assert name in text or cell == "" or number.fullmatch(cell), \
                        f"{path.name}: {name}={cell!r}"
