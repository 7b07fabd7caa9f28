"""Every name the benchmark's tracer wraps still exists in the package.

perfbench/tracing.py patches its WRAPS sites by "module:attr" lookup, so
a rename in src/ breaks the benchmark; this fails first."""
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
