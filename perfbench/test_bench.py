"""Smoke test of the benchmark at tiny size.

Run from the repository root: python3 -m pytest perfbench/test_bench.py
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--size", "tiny",
                           "--seconds", "0", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=900)


@pytest.mark.parametrize("seed_args", [[], ["--seed", "2"]], ids=["default-seed", "seed2"])
def test_every_workload_passes_every_check(seed_args):
    done = run_bench("--workload", "all", *seed_args)
    assert done.returncode == 0, done.stderr + done.stdout
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {f"{w['name']}.{m['name']}": m["unit"]
                for w in SPEC["workloads"]
                for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "fit", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
