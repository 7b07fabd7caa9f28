"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/tracing.py patches its WRAPS sites by "module:attr" lookup, so
a rename in src/ breaks the benchmark; this fails first."""
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
SITES = [site for sites, _counters in tracing.WRAPS.values() for site in sites]


def test_sites_listed():
    assert len(SITES) == len(set(SITES)) > 0


@pytest.mark.parametrize("site", SITES)
def test_site_resolves_to_callable(site):
    owner, attr = tracing._resolve(site)
    assert callable(getattr(owner, attr))


ROOT = TRACING.parents[1]

# sites that no workload calls, each with the reason
UNREACHED = {
    "cfstcap.trees.forest:RandomForest.predict":
        "nothing predicts with the forest; select reads its impurity importances",
    "cfstcap.evaluation:train":
        "kept only for the tracer; the robustness sweep trains through train_many",
    "cfstcap.explain:build_dependence_grid":
        "cli calls it under its own name, cfstcap.cli:build_dependence_grid",
    "cfstcap.network:dominance_pairs":
        "the trainer builds the relation through dominance_relation; dominance_pairs "
        "is its pair view for loss_monotone and loss_total",
}


def test_every_site_is_reached(tmp_path, monkeypatch):
    """Each site is still called through its name: patch every site with
    its own counter, run the set-up and one pass of each workload at the
    tiny size in-process, put every site back, and check the counts."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    hits = dict.fromkeys(SITES, 0)
    originals = {}

    def counting(site, fn):
        def wrapped(*args, **kwargs):
            hits[site] += 1
            return fn(*args, **kwargs)
        return wrapped

    for site in SITES:
        owner, attr = tracing._resolve(site)
        originals[site] = getattr(owner, attr)
        monkeypatch.setattr(owner, attr, counting(site, originals[site]))
    try:
        for cls in workloads.WORKLOAD_CLASSES.values():
            workload = cls(1, "tiny", tmp_path)
            workload.setup()
            workload.run_pass(0)
            assert workload.checks.failed == 0, (cls.name, workload.checks.failures)
    finally:
        monkeypatch.undo()
    for site in SITES:
        owner, attr = tracing._resolve(site)
        assert getattr(owner, attr) is originals[site]
    assert set(UNREACHED) <= set(SITES)
    assert {site for site, n in hits.items() if n == 0} == set(UNREACHED)
