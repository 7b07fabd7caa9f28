"""Multilayer perceptron with a hybrid physics-motivated loss.

Training minimizes supervised MSE in log-label space plus gamma times two
domain penalties: an approximate capacity band around the nominal strength
Nu0, and pairwise monotonicity over geometry/strength features. Gradients
are explicit reverse-mode; no autodiff framework is involved.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .data import Dataset, split as split_dataset
from .errors import ConfigError, DataError, NumericError
from .features import PAPER_SELECTED, build_frame
from .seeding import child_rng

MODEL_FORMAT_VERSION = 1

DEFAULT_MONOTONE = ("As", "Ac", "Asc", "D", "C", "Nu0", "Ns", "Vs", "Vc")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# cells of the dominance relation that dominance_relation compares at once
DOMINANCE_BLOCK = 1 << 18


@dataclass(frozen=True)
class ConstraintSpec:
    """Weights and shapes of the domain-knowledge penalties.

    The capacity band is [lower_factor * Nu0, upper_factor * Nu0] per
    specimen; lower_factor = 0 with upper_factor = inf disables it.
    An empty monotone_features disables the monotonicity penalty.
    """

    gamma: float = 0.1
    lower_factor: float = 0.7
    upper_factor: float = 2.2
    monotone_features: tuple[str, ...] = DEFAULT_MONOTONE
    pair_budget: int = 2000

    def __post_init__(self):
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")
        if not 0 <= self.lower_factor < self.upper_factor:
            raise ConfigError("need 0 <= lower_factor < upper_factor")
        if "fc" in self.monotone_features:
            raise ConfigError("fc has no monotone relation with capacity")
        if self.pair_budget < 1:
            raise ConfigError("pair_budget must be >= 1")


def variant_spec(variant: str, base: ConstraintSpec | None = None) -> ConstraintSpec:
    """The four ablation family members share one code path."""
    base = base or ConstraintSpec()
    v = variant.upper()
    if v == "ANN":
        return replace(base, gamma=0.0)
    if v == "ANNWA":
        return replace(base, monotone_features=())
    if v == "ANNWM":
        return replace(base, lower_factor=0.0, upper_factor=math.inf)
    if v == "ANNWT":
        return base
    raise ConfigError(f"unknown variant {variant!r}; expected ANN/ANNWA/ANNWM/ANNWT")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 64
    learning_rate: float = 1e-3
    early_stop_patience: int = 50
    seed: int = 0
    hidden_layers: int = 5
    hidden_units: int = 32

    def __post_init__(self):
        for name in ("epochs", "batch_size", "early_stop_patience",
                     "hidden_layers", "hidden_units"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not self.learning_rate > 0:
            raise ConfigError("learning_rate must be positive")


@dataclass
class NetworkParameters:
    """Weights, normalization statistics and constraint config of a fitted net."""

    layer_sizes: list[int]
    weights: list[np.ndarray]       # weights[l]: (in, out)
    biases: list[np.ndarray]
    input_mean: np.ndarray
    input_std: np.ndarray
    feature_order: tuple[str, ...]
    constraint: ConstraintSpec = field(default_factory=ConstraintSpec)
    seed: int = 0

    def normalize(self, X_raw) -> np.ndarray:
        # features span several decades, so standardization happens in the
        # log domain; every canonical feature is strictly positive
        X = np.log(np.atleast_2d(np.asarray(X_raw, dtype=float)))
        return (X - self.input_mean) / self.input_std


def relu(z):
    return np.maximum(z, 0.0)


def init_parameters(feature_order, config: TrainConfig,
                    constraint: ConstraintSpec) -> NetworkParameters:
    sizes = ([len(feature_order)]
             + [config.hidden_units] * config.hidden_layers + [1])
    rng = child_rng(config.seed, 0)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        limit = math.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return NetworkParameters(layer_sizes=sizes, weights=weights, biases=biases,
                             input_mean=np.zeros(len(feature_order)),
                             input_std=np.ones(len(feature_order)),
                             feature_order=tuple(feature_order),
                             constraint=constraint, seed=config.seed)


def _layers(weights, biases, X, acts=None) -> np.ndarray:
    """Output of relu(a @ w + b) layer by layer for rows X (n, in): (n, out) for
    (in, out) weights, (K, n, out) for K stacked ones. Each layer is written into
    its buffer in acts if given, else a fresh array, and rectified in place."""
    a = X
    for w, b, z in zip(weights, biases, acts or [None] * len(weights)):
        a = np.matmul(a, w, out=z)
        a += b[..., None, :]
        np.maximum(a, 0.0, out=a)
    return a


def forward(params: NetworkParameters, X: np.ndarray) -> np.ndarray:
    """Predictions in transformed (log) label space for normalized inputs."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.layer_sizes[0]:
        raise DataError(f"input width {X.shape[1]} != {params.layer_sizes[0]}")
    return _layers(params.weights, params.biases, X)[..., 0]


def loss_supervised(pred, target):
    """Mean squared error in transformed label space, over the last axis:
    a float for one prediction vector, one value per row of a
    (models, rows) stack."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.size == 0:
        raise DataError("pred/target must be nonempty and equal length")
    diff = pred - target
    # np.mean's own arithmetic: one np.add.reduce, then the division
    loss = np.add.reduce(diff * diff, axis=-1) / diff.shape[-1]
    return float(loss) if loss.ndim == 0 else loss


def _check_band(yl, yu, shape):
    if yl.shape != shape or yu.shape != shape:
        raise DataError(f"band {yl.shape}, {yu.shape} for predictions {shape}")
    if np.any(yl >= yu):
        raise DataError("approximate bounds must satisfy yl < yu")


def _approx_term(pred, yl, yu):
    """Mean rectified distance of pred outside the band [yl, yu] over the
    last axis, with below = yl - pred and above = pred - yu."""
    below, above = yl - pred, pred - yu
    # np.add.reduce(x, axis=-1) / count is np.mean's own arithmetic
    return np.add.reduce(relu(below) + relu(above), axis=-1) / pred.shape[-1], below, above


def loss_approx(pred, yl, yu):
    """Mean rectified distance outside the per-row band [yl, yu]."""
    pred, yl, yu = (np.array(a, dtype=float, ndmin=1) for a in (pred, yl, yu))
    _check_band(yl, yu, pred.shape)
    return float(_approx_term(pred, yl, yu)[0])


def dominance_relation(F) -> np.ndarray:
    """(n, n) bool matrix, true at [a, b] where row b Pareto-dominates row a:
    b >= a on every column and b > a on at least one. A 1-D F is one feature.
    Blocks of rows, about DOMINANCE_BLOCK cells each, are compared in reused
    buffers, so no (n, n) temporary and no pair list is built."""
    F = np.asarray(F, dtype=float)
    F = F[:, None] if F.ndim == 1 else F
    if F.ndim != 2:
        raise DataError(f"monotone features must be 1-D or 2-D, not {F.ndim}-D")
    n = len(F)
    relation = np.empty((n, n), dtype=bool)
    rows = max(1, DOMINANCE_BLOCK // max(n, 1))
    buffers = np.empty((3, min(rows, n), n), dtype=bool)
    for a0 in range(0, n, rows):
        block = F[a0:a0 + rows]
        ge, gt, cmp = buffers[:, :len(block)]
        ge.fill(True)
        gt.fill(False)
        for col, mine in zip(F.T, block.T):
            ge &= np.greater_equal(col, mine[:, None], out=cmp)
            gt |= np.greater(col, mine[:, None], out=cmp)
        np.logical_and(ge, gt, out=relation[a0:a0 + rows])
    return relation


def _pairs_of(relation) -> np.ndarray:
    """np.argwhere of a 2-D bool matrix, read from its flat indices: the
    same (n, 2) intp pairs in the same row-major order and layout."""
    flat = np.flatnonzero(relation)
    pairs = np.empty((2, len(flat)), dtype=np.intp).T
    np.divmod(flat, relation.shape[1], out=(pairs[:, 0], pairs[:, 1]))
    return pairs


def dominance_pairs(F) -> np.ndarray:
    """Ordered pairs (a, b) where row b Pareto-dominates row a, an (n_pairs, 2)
    array in row-major order: the pair view of dominance_relation."""
    return _pairs_of(dominance_relation(F))


def _batch_pairs(F, spec: ConstraintSpec, n: int) -> np.ndarray:
    """Dominance pairs of the rows of F, one row for each of n predictions;
    none when the spec has no monotone features."""
    if len(F) != n:
        raise DataError(f"{len(F)} monotone-feature rows for {n} predictions")
    if len(spec.monotone_features) == 0:
        return np.empty((0, 2), dtype=int)
    return dominance_pairs(F)


def _subsample(pairs, budget: int, rng):
    """At most budget of the pairs, drawn with rng, in their given order."""
    if len(pairs) > budget:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = rng.choice(len(pairs), size=budget, replace=False)
        pairs = pairs[np.sort(keep)]
    return pairs


def loss_monotone(pred, F, spec: ConstraintSpec, rng=None):
    """Mean rectified violation over Pareto-dominance pairs of the batch.

    F holds the raw monotone-feature values per batch row. Beyond
    pair_budget, pairs are subsampled with the given rng (seeded by the
    trainer); zero when no dominated pair exists. Returns (value, pairs).
    """
    pred = np.asarray(pred, dtype=float)
    pairs = _subsample(_batch_pairs(F, spec, len(pred)), spec.pair_budget, rng)
    return float(_monotone_term(pred, pairs)[0]), pairs


def _monotone_term(pred, pairs):
    """Mean rectified violation over the (a, b) pairs along the last axis,
    0 without pairs, with gap = pred[..., a] - pred[..., b]."""
    # take keeps each model's gaps contiguous, so they are summed pairwise as
    # for one model (pred[:, idx] would lay them out column-major)
    gap = pred.take(pairs[:, 0], axis=-1) - pred.take(pairs[:, 1], axis=-1)
    return np.add.reduce(relu(gap), axis=-1) / max(len(pairs), 1), gap


def _flatten(weights, biases) -> np.ndarray:
    """Every weight and bias in one vector, layer by layer: w0, b0, w1, b1, ..."""
    return np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)])


def _layer_views(theta: np.ndarray, sizes):
    """Weight and bias views into vectors laid out as _flatten writes them:
    (in, out) and (out,) for one vector, (K, in, out) and (K, out) for
    the rows of a (K, P) array."""
    lead = theta.shape[:-1]
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(theta[..., at:at + fan_in * fan_out].reshape(lead + (fan_in, fan_out)))
        at += fan_in * fan_out
        biases.append(theta[..., at:at + fan_out])
        at += fan_out
    return weights, biases


class _Stack:
    """K networks of one layer shape, one flat parameter row each.

    theta is (K, P); weights[l] (K, in, out) and biases[l] (K, out) are
    views into it, and grad_w / grad_b the same views into grad. The
    activation and backprop buffers of each batch length, and the
    transposed weight and transposed activation views the step reads, are
    made once, so a training step writes into existing memory. Its forward
    pass is _layers, the layer loop that prediction and validation run.
    """

    def __init__(self, theta: np.ndarray, sizes):
        self.theta = theta
        self.sizes = sizes
        self.weights, self.biases = _layer_views(theta, sizes)
        self._weights_t = [w.swapaxes(-1, -2) for w in self.weights]
        self.grad = np.empty_like(theta)
        self.grad_w, self.grad_b = _layer_views(self.grad, sizes)
        self._buffers = {}

    def _buffers_for(self, n: int):
        if n not in self._buffers:
            shapes = [(len(self.theta), n, out) for out in self.sizes[1:]]
            acts = [np.empty(s) for s in shapes]
            self._buffers[n] = (acts, [a.swapaxes(-1, -2) for a in acts],
                                [np.empty(s) for s in shapes])
        return self._buffers[n]

    def forward(self, X):
        """Every layer's activations for a batch X shared by all models."""
        acts = self._buffers_for(len(X))[0]
        _layers(self.weights, self.biases, X, acts)
        return acts

    def backward(self, X, acts, dpred):
        """Gradients of each model's loss into grad, given dL/dpred (K, n)."""
        _, acts_t, deltas = self._buffers_for(len(X))
        delta = deltas[-1]
        np.multiply(dpred[:, :, None], acts[-1] > 0, out=delta)
        for l in range(len(self.weights) - 1, -1, -1):
            np.matmul(acts_t[l - 1] if l else X.T, delta, out=self.grad_w[l])
            np.add.reduce(delta, axis=1, out=self.grad_b[l])
            if l:
                np.matmul(delta, self._weights_t[l], out=deltas[l - 1])
                delta = deltas[l - 1]
                delta *= acts[l - 1] > 0


def _loss_and_grads(stack: _Stack, X, target, yl, yu, gamma, hinge, groups):
    """Forward pass, the three loss terms and backpropagation for one
    batch X of every model in the stack; gradients land in stack.grad.

    target, yl and yu are (K, n), gamma is (K,) and hinge holds the rows
    with gamma > 0. groups lists (rows, live, pairs): stack rows that share
    a monotone-feature set, the positions among them of rows with gamma > 0
    and the batch's dominance pairs (batch row indices) under the set.
    Returns (total, supervised, approx, monotone), each (K,).
    """
    acts = stack.forward(X)
    pred = acts[-1][:, :, 0]
    n = pred.shape[1]
    sup = loss_supervised(pred, target)
    dpred = 2.0 * (pred - target) / n
    app, below, above = _approx_term(pred, yl, yu)
    if len(hinge):
        h = slice(None) if len(hinge) == len(gamma) else hinge
        # +1 above the band, -1 below it: a - b > 0 exactly where a > b
        d_app = np.subtract(above[h] > 0, below[h] > 0, dtype=float) / n
        dpred[h] += gamma[h, None] * d_app
    mono = np.zeros(len(gamma))
    for rows, live, pairs in groups:
        # rows is sorted: a group of every row, all with gamma > 0, needs no selection
        every = len(rows) == len(live) == len(gamma)
        mono[rows], gap = _monotone_term(pred if every else pred[rows], pairs)
        # np.add.at applies one model's updates in pair order, all
        # increments before all decrements, as for one model; gap > 0 is
        # exactly pred[a] > pred[b]. dpred is a fresh (K, n) array, so
        # its flat view indexes model * n + row.
        k, j = np.divmod(np.flatnonzero(gap[slice(None) if every else live] > 0), len(pairs))
        if len(k):
            model = k if every else rows[live[k]]
            scale = gamma[model] / len(pairs)
            flat = dpred.reshape(-1)
            np.add.at(flat, model * n + pairs[:, 0][j], scale)
            np.add.at(flat, model * n + pairs[:, 1][j], -scale)
    total = sup + gamma * (app + mono)
    stack.backward(X, acts, dpred)
    return total, sup, app, mono


def loss_total(params: NetworkParameters, Xn, target, yl, yu, F,
               spec: ConstraintSpec | None = None, rng=None):
    """Total hybrid loss and its gradients w.r.t. every weight and bias.

    Returns (loss, grads_w, grads_b). Inputs are normalized rows; target
    and bounds live in transformed label space. The trainer's step runs
    the same code, as the one-model stack.
    """
    spec = spec or params.constraint
    Xn = np.atleast_2d(np.asarray(Xn, dtype=float))
    yl, yu = np.asarray(yl, dtype=float), np.asarray(yu, dtype=float)
    _check_band(yl, yu, Xn.shape[:1])
    stack = _Stack(_flatten(params.weights, params.biases)[None], params.layer_sizes)
    pairs = _subsample(_batch_pairs(F, spec, len(Xn)), spec.pair_budget, rng)
    live = np.flatnonzero([spec.gamma > 0])
    total, *_terms = _loss_and_grads(
        stack, Xn, np.asarray(target, dtype=float)[None], yl[None], yu[None],
        np.array([spec.gamma]), live, [(np.array([0]), live, pairs)])
    return (float(total[0]), [w[0] for w in stack.grad_w],
            [b[0] for b in stack.grad_b])


class _Adam:
    """Adam moments of a (K, P) parameter array, updated in place."""

    def __init__(self, shape):
        self.m = np.zeros(shape)
        self.v = np.zeros(shape)
        self._num = np.empty(shape)
        self._den = np.empty(shape)
        self.step = 0

    def take(self, keep) -> None:
        """Keep only the rows of the models still training."""
        self.m, self.v = self.m[keep], self.v[keep]
        self._num, self._den = self._num[keep], self._den[keep]

    def update(self, theta, g, learning_rate: float) -> None:
        """theta -= lr * m_hat / (sqrt(v_hat) + eps), each operation the
        one the expression evaluates, in its order."""
        self.step += 1
        bc1 = 1.0 - ADAM_BETA1**self.step
        bc2 = 1.0 - ADAM_BETA2**self.step
        m, v, num, den = self.m, self.v, self._num, self._den
        m *= ADAM_BETA1
        np.multiply(g, 1 - ADAM_BETA1, out=num)
        m += num
        v *= ADAM_BETA2
        np.multiply(g, g, out=den)
        den *= 1 - ADAM_BETA2
        v += den
        np.divide(v, bc2, out=den)
        np.sqrt(den, out=den)
        den += ADAM_EPS
        np.divide(m, bc1, out=num)
        num *= learning_rate
        num /= den
        theta -= num


@dataclass
class TrainingHistory:
    epochs: list[int] = field(default_factory=list)
    loss_supervised: list[float] = field(default_factory=list)
    loss_approx: list[float] = field(default_factory=list)
    loss_monotone: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)

    def rows(self):
        return zip(self.epochs, self.loss_supervised, self.loss_approx,
                   self.loss_monotone, self.val_loss)


def _band(nu0, spec: ConstraintSpec):
    """Per-row capacity band [yl, yu] in log-label space."""
    with np.errstate(divide="ignore"):
        yl = np.log(spec.lower_factor * nu0) if spec.lower_factor > 0 \
            else np.full(len(nu0), -np.inf)
        yu = np.log(spec.upper_factor * nu0) if math.isfinite(spec.upper_factor) \
            else np.full(len(nu0), np.inf)
    return yl, yu


def train(dataset: Dataset, feature_order=PAPER_SELECTED,
          spec: ConstraintSpec | None = None,
          config: TrainConfig | None = None):
    """Minibatch Adam training with early stopping on validation MSE.

    The train/validation split comes from the dataset's split_fraction and
    split_seed. Returns (NetworkParameters, TrainingHistory). This is the
    one-model case of train_many.
    """
    labels = dataset.specimens.column("N")
    (result,) = train_many(dataset, labels[None], [spec or ConstraintSpec()],
                           feature_order, config)
    if isinstance(result, NumericError):
        raise result
    return result


def train_many(dataset: Dataset, labels, specs, feature_order=PAPER_SELECTED,
               config: TrainConfig | None = None) -> list:
    """Train K networks in lockstep, one per (label row, spec).

    labels is (K, n): model k's capacities in kN for the dataset's
    specimens, in place of their N. All models share the features, the
    split, the config and so every seed: the initial weights, the shuffle
    order and, per monotone-feature set and pair budget, the
    pair-subsample draws. Each step is one stacked forward and backward
    pass and one Adam update over the models still training; a model
    leaves the stack when it stops early or its loss turns non-finite.

    Returns one entry per model: (NetworkParameters, TrainingHistory),
    equal to what train gives on that model's labels and spec, or the
    NumericError train would raise for a model that diverged.
    """
    config = config or TrainConfig()
    specs = list(specs)
    labels = np.asarray(labels, dtype=float)
    if labels.shape != (len(specs), len(dataset)):
        raise DataError(f"labels of shape {labels.shape} for {len(specs)} models "
                        f"of {len(dataset)} specimens")
    if config.batch_size > len(dataset):
        raise ConfigError("batch_size exceeds dataset size")
    if np.any(labels <= 0):
        raise DataError("capacity labels must be positive")
    frame = build_frame(dataset.specimens)
    X = frame.select(list(feature_order)).X
    y_log = np.log(labels)
    nu0 = frame.column("Nu0")
    yl, yu = (np.array(b) for b in zip(*(_band(nu0, s) for s in specs)))
    tr, va = split_dataset(dataset, dataset.split_fraction, dataset.split_seed)
    if len(tr) < 2:
        # one row normalizes to zeros and its gradients are all 0
        raise DataError(f"need at least 2 training specimens, have {len(tr)}")
    # the band is fixed per row, so one check covers every batch
    _check_band(yl[:, tr], yu[:, tr], labels[:, tr].shape)

    Xf = np.log(X)
    mean = Xf[tr].mean(axis=0)
    std = Xf[tr].std(axis=0)
    # a constant column is told by its range: its std is rounding residue
    std[np.ptp(Xf[tr], axis=0) == 0] = 1.0
    Xn = (Xf - mean) / std

    K = len(specs)
    init = init_parameters(feature_order, config, ConstraintSpec())
    sizes = init.layer_sizes
    stack = _Stack(np.tile(_flatten(init.weights, init.biases), (K, 1)), sizes)
    # start the rectified output in the live region around the label mean
    for k in range(K):
        stack.biases[-1][k] = float(np.mean(y_log[k, tr]))
    gamma = np.array([s.gamma for s in specs])

    # dominance is a property of the training rows: find it once per
    # monotone-feature set, then read each batch's pairs from the
    # relation; models of one set and pair budget share their draws
    relations, group_keys = {}, {}
    group_of = np.full(K, -1)
    for k, s in enumerate(specs):
        if s.monotone_features:
            if s.monotone_features not in relations:
                F = frame.select(list(s.monotone_features)).X
                relations[s.monotone_features] = dominance_relation(F[tr])
            group_of[k] = group_keys.setdefault(
                (s.monotone_features, s.pair_budget), len(group_keys))
    pair_draws = [(relations[features], budget, child_rng(config.seed, 2))
                  for features, budget in group_keys]

    shuffle_rng = child_rng(config.seed, 1)
    adam = _Adam(stack.theta.shape)
    targets = np.stack([y_log, yl, yu])     # (3, K, n): label and band per model
    # per epoch and model: mean supervised, approx and monotone loss, validation loss
    log = np.empty((config.epochs, 4, K))
    results = [None] * K
    # per stack row: its model, best validation loss and parameters so far,
    # and the epochs since then
    model, best_val, best, stale = (np.arange(K), np.full(K, math.inf),
                                    np.empty_like(stack.theta), np.zeros(K, dtype=int))
    row_targets = row_gamma = hinge = row_groups = None     # the rows' slices, set by keep

    def keep(rows):
        """Only the stack rows selected by rows go on training."""
        nonlocal stack, model, best_val, best, stale, row_targets, row_gamma, hinge, row_groups
        stack = _Stack(stack.theta[rows], sizes)
        adam.take(rows)
        model, best_val, best, stale = model[rows], best_val[rows], best[rows], stale[rows]
        row_targets, row_gamma = targets[:, model], gamma[model]
        hinge = np.flatnonzero(row_gamma > 0)
        members = [np.flatnonzero(group_of[model] == g) for g in range(len(pair_draws))]
        row_groups = [(rows, np.flatnonzero(row_gamma[rows] > 0), draw)
                      for rows, draw in zip(members, pair_draws) if len(rows)]

    keep(slice(None))
    starts = range(0, len(tr), config.batch_size)
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(tr))
        # the epoch's rows in shuffle order, so that each batch is a slice
        epoch_X, epoch_targets = Xn[tr[order]], row_targets[:, :, tr[order]]
        terms = np.zeros((3, len(model)))
        for start in starts:
            stop = start + config.batch_size
            pos = order[start:stop]
            groups = [(rows, live, _subsample(_pairs_of(relation.take(pos, 0).take(pos, 1)),
                                              budget, pair_rng))
                      for rows, live, (relation, budget, pair_rng) in row_groups]
            total, sup, app, mono = _loss_and_grads(
                stack, epoch_X[start:stop], *epoch_targets[:, :, start:stop], row_gamma,
                hinge, groups)
            adam.update(stack.theta, stack.grad, config.learning_rate)
            terms[0] += sup
            terms[1] += app
            terms[2] += mono
            finite = np.isfinite(total)
            if not finite.all():
                for r in np.flatnonzero(~finite):
                    results[model[r]] = NumericError(
                        f"training diverged at epoch {epoch}: loss={float(total[r])}")
                keep(finite)
                terms, epoch_targets = terms[:, finite], epoch_targets[:, finite]
                if not len(model):
                    return results
        val = loss_supervised(_layers(stack.weights, stack.biases, Xn[va])[..., 0],
                              row_targets[0][:, va])
        log[epoch][:3, model] = terms / len(starts)
        log[epoch][3, model] = val
        better = val < best_val - 1e-12
        best_val[better], best[better] = val[better], stack.theta[better]
        stale += 1
        stale[better] = 0
        done = (stale >= config.early_stop_patience) | (epoch == config.epochs - 1)
        for r in np.flatnonzero(done):
            k = model[r]
            # a model that never improved keeps its current parameters
            theta = (best if best_val[r] < math.inf else stack.theta)[r].copy()
            weights, biases = _layer_views(theta, sizes)
            results[k] = (NetworkParameters(
                layer_sizes=sizes, weights=weights, biases=biases,
                input_mean=mean.copy(), input_std=std.copy(),
                feature_order=tuple(feature_order), constraint=specs[k],
                seed=config.seed),
                TrainingHistory(list(range(epoch + 1)), *log[:epoch + 1, :, k].T.tolist()))
        if done.any():
            keep(~done)
            if not len(model):
                break
    return results


def predict_rows(params: NetworkParameters, X_raw) -> np.ndarray:
    """Capacity in kN for raw feature rows ordered per params.feature_order."""
    return np.exp(forward(params, params.normalize(X_raw)))


def predict(params: NetworkParameters, specimen) -> float:
    """Capacity in kN for one specimen (engineer, order, normalize, invert)."""
    frame = build_frame([specimen])
    row = frame.select(list(params.feature_order)).X
    return float(predict_rows(params, row)[0])


def predict_specimens(params: NetworkParameters, specimens) -> np.ndarray:
    frame = build_frame(specimens)
    return predict_rows(params, frame.select(list(params.feature_order)).X)


def params_to_dict(params: NetworkParameters) -> dict:
    return {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": params.layer_sizes,
        "weights": [w.tolist() for w in params.weights],   # row-major (in, out)
        "biases": [b.tolist() for b in params.biases],
        "input_mean": params.input_mean.tolist(),
        "input_std": params.input_std.tolist(),
        "feature_order": list(params.feature_order),
        "label_transform": "log",
        "input_transform": "log",
        "constraint": {
            "gamma": params.constraint.gamma,
            "lower_factor": params.constraint.lower_factor,
            "upper_factor": ("inf" if math.isinf(params.constraint.upper_factor)
                             else params.constraint.upper_factor),
            "monotone_features": list(params.constraint.monotone_features),
            "pair_budget": params.constraint.pair_budget,
        },
        "seed": params.seed,
    }


def params_from_dict(doc: dict) -> NetworkParameters:
    if doc.get("format_version") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format version {doc.get('format_version')!r}")
    for key in ("label_transform", "input_transform"):
        if doc.get(key) != "log":
            raise DataError(f"unsupported {key} {doc.get(key)!r}; only 'log' is trained")
    c = doc["constraint"]
    upper = math.inf if c["upper_factor"] == "inf" else float(c["upper_factor"])
    spec = ConstraintSpec(gamma=c["gamma"], lower_factor=c["lower_factor"],
                          upper_factor=upper,
                          monotone_features=tuple(c["monotone_features"]),
                          pair_budget=c["pair_budget"])
    return NetworkParameters(
        layer_sizes=list(doc["layer_sizes"]),
        weights=[np.array(w, dtype=float) for w in doc["weights"]],
        biases=[np.array(b, dtype=float) for b in doc["biases"]],
        input_mean=np.array(doc["input_mean"], dtype=float),
        input_std=np.array(doc["input_std"], dtype=float),
        feature_order=tuple(doc["feature_order"]),
        constraint=spec,
        seed=doc["seed"],
    )


def save_model(params: NetworkParameters, path) -> None:
    # the same bytes as json.dump, whose iterencode path is pure Python, encoded in C
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(params_to_dict(params)))


def load_model(path) -> NetworkParameters:
    with open(path, encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))
