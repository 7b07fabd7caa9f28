"""Every python code block of README.md runs as written, its stage chain is
the CLI's, every `--set` of its shell examples is a valid config entry, and
every knob it lists is a config leaf."""
import re
from pathlib import Path

from cfstcap.cli import DEFAULT_CONFIG, STAGES, load_config

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_stage_chain_matches_cli():
    chain = re.search(r"Stages \(`pipeline` runs them all in order\):\n(.*?)\.\n",
                      README.read_text(encoding="utf-8"), flags=re.S)
    assert chain
    assert re.findall(r"`(\w+)`", chain.group(1)) == STAGES


def test_shell_overrides_load():
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(encoding="utf-8"),
                        flags=re.S)
    overrides = [o for block in blocks for o in re.findall(r"--set\s+(\S+)", block)]
    assert overrides
    for override in overrides:
        load_config(None, [override])


def _leaves(section, where=""):
    for k, v in section.items():
        key = f"{where}.{k}" if where else k
        yield from _leaves(v, key) if isinstance(v, dict) else [key]


def test_knobs_are_config_leaves():
    knobs = re.search(r"### Key config knobs\n\n(.*?)\n\n", README.read_text(encoding="utf-8"),
                      flags=re.S)
    assert knobs
    keys = re.findall(r"^- `([\w.]+)`", knobs.group(1), flags=re.M)
    assert keys
    assert set(keys) - set(_leaves(DEFAULT_CONFIG)) == set()
