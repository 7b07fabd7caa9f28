"""Interventional Shapley attributions: permutation sampling and exact
enumeration. Model-agnostic; any vectorized predict function works."""
from __future__ import annotations

import itertools
import math

import numpy as np

from ..errors import ConfigError, DataError

EXACT_MAX_FEATURES = 12


def _check_inputs(rows, background):
    """rows and background as 2-D float arrays of one width."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    background = np.atleast_2d(np.asarray(background, dtype=float))
    if background.shape[0] == 0:
        raise DataError("empty background sample")
    if rows.shape[1] != background.shape[1]:
        raise DataError(f"rows have {rows.shape[1]} features, background {background.shape[1]}")
    return rows, background


def _coalition_values(predict_fn, x, background, masks):
    """Mean prediction over the background of each coalition in masks
    (coalitions, features): x's value where the mask is set, the
    background row's elsewhere. One predict_fn call for all hybrids."""
    z = np.where(masks[:, None, :], x, background)
    return predict_fn(z.reshape(-1, len(x))).reshape(len(masks), len(background)).mean(axis=1)


def shapley_permutation(predict_fn, rows, background, n_permutations: int = 200,
                        seed: int = 0):
    """Permutation-sampled Shapley values with background replacement.

    Returns (phi, phi0): phi has shape (n_rows, n_features); phi0 is the
    mean background prediction. phi0 + phi.sum(axis=1) converges to the
    row predictions as n_permutations grows. Every permutation of a row
    starts at the all-background coalition and ends at the all-row one,
    so those two are valued once per row; they and the m - 1 inner prefix
    coalitions of every sampled permutation go to predict_fn in one call,
    so the model is called n_rows + 1 times.
    """
    if n_permutations < 1:
        raise ConfigError(f"n_permutations must be >= 1, got {n_permutations}")
    rows, background = _check_inputs(rows, background)
    n, m = rows.shape
    rng = np.random.default_rng(seed)
    phi = np.zeros((n, m))
    phi0 = float(np.mean(predict_fn(background)))
    inner = np.arange(1, m)[:, None]
    ends = np.array([np.zeros(m, dtype=bool), np.ones(m, dtype=bool)])
    for r in range(n):
        perms = np.array([rng.permutation(m) for _ in range(n_permutations)])
        # prefix k of a permutation holds the features it ranks below k
        masks = np.argsort(perms, axis=1)[:, None, :] < inner
        values = _coalition_values(predict_fn, rows[r], background,
                                   np.concatenate([ends, masks.reshape(-1, m)]))
        # each permutation's m + 1 prefix values, the shared ends spliced in
        chain = np.empty((n_permutations, m + 1))
        chain[:, 0], chain[:, m] = values[0], values[1]
        chain[:, 1:m] = values[2:].reshape(n_permutations, m - 1)
        # each feature's marginal contributions, summed in permutation order
        np.add.at(phi[r], perms, np.diff(chain, axis=1))
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
    rows, background = _check_inputs(rows, background)
    n, m = rows.shape
    if m > EXACT_MAX_FEATURES:
        raise ValueError(f"exact enumeration limited to {EXACT_MAX_FEATURES} features, got {m}")
    masks = np.array(list(itertools.product((False, True), repeat=m)), dtype=bool)
    # weight of the marginal contribution v(S+i) - v(S) given |S| = s
    w = np.array([math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
                  for s in range(m)])
    # in product order feature i is bit 2^(m-1-i) of a coalition's index:
    # row i lists the coalitions without i, ascending, and with_ adds i
    without = np.nonzero(~masks.T)[1].reshape(m, -1)
    with_ = without + (1 << np.arange(m - 1, -1, -1))[:, None]
    weight = w[masks.sum(axis=1)[without]]
    phi = np.zeros((n, m))
    phi0 = float(np.mean(predict_fn(background)))
    for r in range(n):
        values = _coalition_values(predict_fn, rows[r], background, masks)
        phi[r] = np.sum(weight * (values[with_] - values[without]), axis=1)
    return phi, phi0


def global_importance(phi: np.ndarray) -> np.ndarray:
    """Mean absolute attribution per feature across explained rows."""
    return np.mean(np.abs(phi), axis=0)
