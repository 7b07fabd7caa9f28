"""The blocked dominance-relation kernel against the pair scatter it replaced."""
import gc
import tracemalloc

import numpy as np
import pytest

import cfstcap.network as net
from cfstcap.data import generate_synthetic, split
from cfstcap.errors import DataError
from cfstcap.features import build_frame
from cfstcap.network import (DEFAULT_MONOTONE, ConstraintSpec, dominance_pairs,
                             dominance_relation, loss_monotone)


def former_dominance_pairs(F):
    """The pair builder that dominance_relation replaced, kept verbatim."""
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n = len(F)
    ge = np.ones((n, n), dtype=bool)
    gt = np.zeros((n, n), dtype=bool)
    for col in F.T:
        ge &= col[None, :] >= col[:, None]
        gt |= col[None, :] > col[:, None]
    a, b = np.nonzero(ge & gt)
    return np.column_stack([a, b])


def former_relation(F):
    """The former (n, n) relation: every pair scattered into a bool matrix."""
    relation = np.zeros((len(F), len(F)), dtype=bool)
    relation[tuple(former_dominance_pairs(F).T)] = True
    return relation


def awkward_features(n, seed):
    """n rows of four features: few levels (ties), duplicated rows, a
    constant column and NaN cells."""
    rng = np.random.default_rng(seed)
    F = rng.integers(0, 4, size=(n, 4)).astype(float)
    F[:, 2] = 1.5
    if n > 3:
        F[n // 2:n // 2 + 2] = F[:2]
        F[rng.integers(0, n, size=max(1, n // 10)), rng.integers(0, 4, size=max(1, n // 10))] = np.nan
    return F


@pytest.mark.parametrize("n, seed", [(2, 0), (9, 1), (64, 2), (150, 3), (301, 4)])
def test_relation_matches_pair_scatter(n, seed):
    F = awkward_features(n, seed)
    assert np.isnan(F).any() or n <= 3
    assert np.array_equal(dominance_relation(F), former_relation(F))


@pytest.mark.parametrize("height", [1, 2, 7])
@pytest.mark.parametrize("n", [0, 1, 2, 7, 8, 23])
def test_block_edges(monkeypatch, n, height):
    """Blocks of 1, 2 and 7 rows: one row, a partial last block and a
    single block all give the former relation."""
    monkeypatch.setattr(net, "DOMINANCE_BLOCK", height * max(n, 1))
    F = awkward_features(n, n + height)
    got = dominance_relation(F)
    assert got.shape == (n, n) and got.dtype == bool
    assert np.array_equal(got, former_relation(F))


@pytest.mark.parametrize("F", [np.zeros((0, 3)), np.zeros((1, 2)), np.ones((5, 3)),
                               np.zeros((4, 0)), awkward_features(40, 5),
                               np.arange(12.0).reshape(6, 2)], ids=str)
def test_pairs_equal_former_builder(F):
    """Same values, row-major order, dtype and (0, 2) shape when empty."""
    got, want = dominance_pairs(F), former_dominance_pairs(F)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _sub_blocks():
    """(b, b) sub-blocks of relations over awkward features, taken as the
    trainer takes a batch's: rows and columns at the same positions."""
    rng = np.random.default_rng(6)
    for n in (9, 150, 301):
        relation = dominance_relation(awkward_features(n, n))
        for b in (1, 2, 17, 64):
            pos = rng.permutation(n)[:b]
            yield relation.take(pos, 0).take(pos, 1)


@pytest.mark.parametrize("relation", [np.zeros((0, 0), bool), np.ones((1, 1), bool),
                                      np.zeros((1, 1), bool), np.zeros((6, 6), bool),
                                      np.ones((7, 7), bool), *_sub_blocks()],
                         ids=lambda r: f"{r.shape[0]}x{r.shape[1]}-{int(r.sum())}")
def test_flat_index_pairs_equal_argwhere(relation):
    """The trainer's batch pairs: the values, row-major order, dtype, layout
    and (0, 2) empty shape of np.argwhere."""
    got, want = net._pairs_of(relation), np.argwhere(relation)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.strides == want.strides
    assert np.array_equal(got, want)


def test_one_feature_vector_is_a_column():
    """A 1-D F holds one feature's value per batch row, not one row."""
    col = [1.0, 2.0, 3.0]
    assert np.array_equal(dominance_pairs(col), [[0, 1], [0, 2], [1, 2]])
    assert np.array_equal(dominance_relation(col), dominance_relation(np.c_[col]))
    val, pairs = loss_monotone([3.0, 2.0, 1.0], col, ConstraintSpec())
    assert val == pytest.approx(4.0 / 3.0)
    assert np.array_equal(pairs, [[0, 1], [0, 2], [1, 2]])


@pytest.mark.parametrize("F", [3.0, np.zeros((2, 2, 2))], ids=["0-D", "3-D"])
def test_other_shapes_refused(F):
    with pytest.raises(DataError):
        dominance_relation(F)


def test_relation_peak_memory():
    """The relation over the 2,097 training rows of a 2,621-specimen synth
    peaks under 8 MB by tracemalloc; the pair list and its scatter peaked
    at 47 MB to hold a 4.4 MB answer."""
    ds = generate_synthetic(2621, 9, 0.1)
    tr, _ = split(ds, ds.split_fraction, ds.split_seed)
    F = build_frame(ds.specimens).select(list(DEFAULT_MONOTONE)).X[tr]
    assert len(F) == 2097
    dominance_relation(F[:50])  # imports and caches first
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        relation = dominance_relation(F)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert relation.any()
    assert peak < 8e6
