"""One master seed streams every derived seed in the package.

Derivation is positional (master, stream index) or named (master, label),
so parallel execution order cannot change results.
"""
from __future__ import annotations

import hashlib

import numpy as np


def child_rng(master: int, index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(master), int(index)]))


def named_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{master}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")
