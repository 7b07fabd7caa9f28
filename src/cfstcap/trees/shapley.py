"""Interventional Shapley attributions: permutation sampling and exact
enumeration. Model-agnostic; any vectorized predict function works."""
from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import DataError

EXACT_MAX_FEATURES = 12


def shapley_permutation(predict_fn, rows, background, n_permutations: int = 200,
                        seed: int = 0):
    """Permutation-sampled Shapley values with background replacement.

    Returns (phi, phi0): phi has shape (n_rows, n_features); phi0 is the
    mean background prediction. phi0 + phi.sum(axis=1) converges to the
    row predictions as n_permutations grows.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[0] == 0:
        raise DataError("empty background sample")
    n, m = rows.shape
    rng = np.random.default_rng(seed)
    phi = np.zeros((n, m))
    phi0 = float(np.mean(predict_fn(background)))
    for r in range(n):
        x = rows[r]
        for _ in range(n_permutations):
            perm = rng.permutation(m)
            z = background.copy()
            prev = float(np.mean(predict_fn(z)))
            for j in perm:
                z[:, j] = x[j]
                cur = float(np.mean(predict_fn(z)))
                phi[r, j] += cur - prev
                prev = cur
    phi /= n_permutations
    return phi, phi0


def shapley_exact(predict_fn, rows, background):
    """Exact Shapley values by full coalition enumeration.

    The value of a coalition is the mean prediction over the background
    with the coalition's features set to the row's. All 2^M coalitions of
    a row go to predict_fn in one call of 2^M x n_background rows, so the
    model is called n_rows + 1 times. Only for small feature counts;
    raises beyond EXACT_MAX_FEATURES.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[0] == 0:
        raise DataError("empty background sample")
    n, m = rows.shape
    if m > EXACT_MAX_FEATURES:
        raise ValueError(f"exact enumeration limited to {EXACT_MAX_FEATURES} features, got {m}")
    subsets = list(itertools.product((False, True), repeat=m))
    masks = np.array(subsets, dtype=bool)  # (2^m, m)
    sizes = masks.sum(axis=1)
    # weight of the marginal contribution v(S+i) - v(S) given |S| = s
    w = np.array([math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
                  for s in range(m)])
    phi = np.zeros((n, m))
    phi0 = float(np.mean(predict_fn(background)))
    # index of each mask for O(1) lookup of S + {i}
    code = masks @ (1 << np.arange(m))
    pos = np.empty(code.max() + 1, dtype=int)
    pos[code] = np.arange(len(masks))
    n_bg = len(background)
    for r in range(n):
        z = np.where(masks[:, None, :], rows[r], background[None, :, :])
        values = predict_fn(z.reshape(-1, m)).reshape(len(masks), n_bg).mean(axis=1)
        for i in range(m):
            without = ~masks[:, i]
            s_idx = np.flatnonzero(without)
            with_idx = pos[code[s_idx] + (1 << i)]
            phi[r, i] = np.sum(w[sizes[s_idx]] * (values[with_idx] - values[s_idx]))
    return phi, phi0


def global_importance(phi: np.ndarray) -> np.ndarray:
    """Mean absolute attribution per feature across explained rows."""
    return np.mean(np.abs(phi), axis=0)
