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

from .data import Dataset, split as split_dataset, transform_label
from .errors import ConfigError, DataError, NumericError
from .features import PAPER_SELECTED, build_frame
from .seeding import child_rng

MODEL_FORMAT_VERSION = 1

DEFAULT_MONOTONE = ("As", "Ac", "Asc", "D", "C", "Nu0", "Ns", "Vs", "Vc")

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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


def forward(params: NetworkParameters, X: np.ndarray) -> np.ndarray:
    """Predictions in transformed (log) label space for normalized inputs."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != params.layer_sizes[0]:
        raise DataError(f"input width {X.shape[1]} != {params.layer_sizes[0]}")
    a = X
    for w, b in zip(params.weights, params.biases):
        a = relu(a @ w + b)
    return a[:, 0]


def _forward_cached(weights, biases, X):
    a = X
    acts = [X]
    zs = []
    for w, b in zip(weights, biases):
        z = a @ w + b
        a = relu(z)
        zs.append(z)
        acts.append(a)
    return acts, zs


def _backward(weights, acts, zs, dpred):
    """Gradients of a scalar loss given dL/dpred for the output column."""
    grads_w = [None] * len(weights)
    grads_b = [None] * len(weights)
    delta = dpred[:, None] * (zs[-1] > 0)
    for l in range(len(weights) - 1, -1, -1):
        grads_w[l] = acts[l].T @ delta
        grads_b[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ weights[l].T) * (zs[l - 1] > 0)
    return grads_w, grads_b


def loss_supervised(pred, target):
    """Mean squared error in transformed label space."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.size == 0:
        raise DataError("pred/target must be nonempty and equal length")
    return float(np.mean((pred - target) ** 2))


def loss_approx(pred, yl, yu):
    """Mean rectified distance outside the per-row band [yl, yu]."""
    pred = np.asarray(pred, dtype=float)
    yl = np.asarray(yl, dtype=float)
    yu = np.asarray(yu, dtype=float)
    if np.any(yl >= yu):
        raise DataError("approximate bounds must satisfy yl < yu")
    return float(np.mean(relu(yl - pred) + relu(pred - yu)))


def dominance_pairs(F: np.ndarray) -> np.ndarray:
    """Ordered index pairs (a, b) where row b Pareto-dominates row a.

    Dominance: b >= a on every column and b > a on at least one.
    Returns an (n_pairs, 2) array. The relation is accumulated one column
    at a time, so no (n, n, columns) temporary is built.
    """
    F = np.atleast_2d(np.asarray(F, dtype=float))
    n = len(F)
    ge = np.ones((n, n), dtype=bool)
    gt = np.zeros((n, n), dtype=bool)
    for col in F.T:
        ge &= col[None, :] >= col[:, None]
        gt |= col[None, :] > col[:, None]
    a, b = np.nonzero(ge & gt)
    return np.column_stack([a, b])


def _batch_pairs(F, spec: ConstraintSpec) -> np.ndarray:
    """Dominance pairs of the rows of F; none when there is no pair to
    compare or the spec has no monotone features."""
    if len(F) < 2 or len(spec.monotone_features) == 0:
        return np.empty((0, 2), dtype=int)
    return dominance_pairs(F)


def _dominance_relation(F, spec: ConstraintSpec) -> np.ndarray:
    """(n, n) bool matrix, true at [a, b] where row b dominates row a.

    The pairs of any batch of rows `pos` are np.argwhere(R[np.ix_(pos,
    pos)]), in the order _batch_pairs(F[pos]) gives them.
    """
    relation = np.zeros((len(F), len(F)), dtype=bool)
    relation[tuple(_batch_pairs(F, spec).T)] = True
    return relation


def _monotone_term(pred, pairs, spec: ConstraintSpec, rng):
    """Mean rectified violation over the given pairs, subsampled beyond
    pair_budget; returns (value, pairs used)."""
    if len(pairs) == 0:
        return 0.0, pairs
    if len(pairs) > spec.pair_budget:
        if rng is None:
            rng = np.random.default_rng(0)
        keep = rng.choice(len(pairs), size=spec.pair_budget, replace=False)
        pairs = pairs[np.sort(keep)]
    viol = relu(pred[pairs[:, 0]] - pred[pairs[:, 1]])
    return float(viol.mean()), pairs


def loss_monotone(pred, F, spec: ConstraintSpec, rng=None):
    """Mean rectified violation over Pareto-dominance pairs of the batch.

    F holds the raw monotone-feature values per batch row. Beyond
    pair_budget, pairs are subsampled with the given rng (seeded by the
    trainer); zero when no dominated pair exists.
    """
    pred = np.asarray(pred, dtype=float)
    return _monotone_term(pred, _batch_pairs(F, spec), spec, rng)


def _loss_and_grads(params: NetworkParameters, Xn, target, yl, yu, pairs,
                    spec: ConstraintSpec, rng):
    """Forward pass, the three loss terms and backpropagation for one batch
    whose dominance pairs (batch row indices) are given.

    Returns ((total, supervised, approx, monotone), grads_w, grads_b).
    """
    acts, zs = _forward_cached(params.weights, params.biases, Xn)
    pred = acts[-1][:, 0]
    n = len(pred)
    sup = loss_supervised(pred, target)
    dpred = 2.0 * (pred - target) / n
    l_app = loss_approx(pred, yl, yu)
    if spec.gamma > 0:
        d_app = (-(pred < yl).astype(float) + (pred > yu).astype(float)) / n
        dpred = dpred + spec.gamma * d_app
    l_mono, pairs = _monotone_term(pred, pairs, spec, rng)
    if spec.gamma > 0 and len(pairs):
        viol = pred[pairs[:, 0]] > pred[pairs[:, 1]]
        if viol.any():
            scale = spec.gamma / len(pairs)
            np.add.at(dpred, pairs[viol, 0], scale)
            np.add.at(dpred, pairs[viol, 1], -scale)
    total = sup + spec.gamma * (l_app + l_mono)
    grads_w, grads_b = _backward(params.weights, acts, zs, dpred)
    return (total, sup, l_app, l_mono), grads_w, grads_b


def loss_total(params: NetworkParameters, Xn, target, yl, yu, F,
               spec: ConstraintSpec | None = None, rng=None):
    """Total hybrid loss and its gradients w.r.t. every weight and bias.

    Returns (loss, grads_w, grads_b). Inputs are normalized rows; target
    and bounds live in transformed label space.
    """
    spec = spec or params.constraint
    (total, *_terms), grads_w, grads_b = _loss_and_grads(
        params, np.atleast_2d(np.asarray(Xn, dtype=float)),
        np.asarray(target, dtype=float), yl, yu, _batch_pairs(F, spec), spec, rng)
    return total, grads_w, grads_b


def _flatten(weights, biases) -> np.ndarray:
    """Every weight and bias in one vector, layer by layer: w0, b0, w1, b1, ..."""
    return np.concatenate([a.ravel() for w, b in zip(weights, biases) for a in (w, b)])


def _layer_views(theta: np.ndarray, sizes):
    """Weight and bias views into a vector laid out as _flatten writes it."""
    weights, biases, at = [], [], 0
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(theta[at:at + fan_in * fan_out].reshape(fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(theta[at:at + fan_out])
        at += fan_out
    return weights, biases


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


def _training_arrays(dataset: Dataset, feature_order, spec: ConstraintSpec):
    frame = build_frame(dataset.specimens)
    X = frame.select(list(feature_order)).X
    y_log = transform_label(frame.y, "forward")
    nu0 = frame.column("Nu0")
    with np.errstate(divide="ignore"):
        yl = np.log(spec.lower_factor * nu0) if spec.lower_factor > 0 \
            else np.full(len(nu0), -np.inf)
        yu = np.log(spec.upper_factor * nu0) if math.isfinite(spec.upper_factor) \
            else np.full(len(nu0), np.inf)
    F = (frame.select(list(spec.monotone_features)).X
         if spec.monotone_features else np.zeros((len(frame), 0)))
    return X, y_log, yl, yu, F


def train(dataset: Dataset, feature_order=PAPER_SELECTED,
          spec: ConstraintSpec | None = None,
          config: TrainConfig | None = None):
    """Minibatch Adam training with early stopping on validation MSE.

    The train/validation split comes from the dataset's split_fraction and
    split_seed. Returns (NetworkParameters, TrainingHistory).
    """
    spec = spec or ConstraintSpec()
    config = config or TrainConfig()
    if config.batch_size > len(dataset):
        raise ConfigError("batch_size exceeds dataset size")
    X, y_log, yl, yu, F = _training_arrays(dataset, feature_order, spec)
    tr, va = split_dataset(dataset, dataset.split_fraction, dataset.split_seed)

    Xf = np.log(X)
    mean = Xf[tr].mean(axis=0)
    std = Xf[tr].std(axis=0)
    std[std == 0] = 1.0
    Xn = (Xf - mean) / std

    params = init_parameters(feature_order, config, spec)
    params.input_mean = mean
    params.input_std = std
    theta = _flatten(params.weights, params.biases)
    params.weights, params.biases = _layer_views(theta, params.layer_sizes)
    # start the rectified output in the live region around the label mean
    params.biases[-1][:] = float(np.mean(y_log[tr]))

    # dominance is a property of the training rows: find it once, then
    # read each batch's pairs from the relation
    dominates = _dominance_relation(F[tr], spec)

    shuffle_rng = child_rng(config.seed, 1)
    pair_rng = child_rng(config.seed, 2)

    m = np.zeros_like(theta)
    v = np.zeros_like(theta)
    step = 0

    history = TrainingHistory()
    best_val = math.inf
    best_theta = None
    stale = 0

    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(len(tr))
        ep_sup = ep_app = ep_mono = 0.0
        n_batches = 0
        for start in range(0, len(order), config.batch_size):
            pos = order[start:start + config.batch_size]
            batch = tr[pos]
            (total, sup, l_app, l_mono), grads_w, grads_b = _loss_and_grads(
                params, Xn[batch], y_log[batch], yl[batch], yu[batch],
                np.argwhere(dominates[np.ix_(pos, pos)]), spec, pair_rng)
            if not math.isfinite(total):
                raise NumericError(f"training diverged at epoch {epoch}: loss={total}")
            g = _flatten(grads_w, grads_b)
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * g
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * g ** 2
            theta -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
            ep_sup += sup
            ep_app += l_app
            ep_mono += l_mono
            n_batches += 1
        val_pred = forward(params, Xn[va])
        val = loss_supervised(val_pred, y_log[va])
        history.epochs.append(epoch)
        history.loss_supervised.append(ep_sup / n_batches)
        history.loss_approx.append(ep_app / n_batches)
        history.loss_monotone.append(ep_mono / n_batches)
        history.val_loss.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best_theta = theta.copy()
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    if best_theta is not None:
        theta[:] = best_theta
    return params, history


def predict_rows(params: NetworkParameters, X_raw) -> np.ndarray:
    """Capacity in kN for raw feature rows ordered per params.feature_order."""
    return transform_label(forward(params, params.normalize(X_raw)), "inverse")


def predict(params: NetworkParameters, specimen) -> float:
    """Capacity in kN for one specimen (engineer, order, normalize, invert)."""
    frame = build_frame([specimen])
    row = frame.select(list(params.feature_order)).X
    return float(predict_rows(params, row)[0])


def predict_specimens(params: NetworkParameters, specimens) -> np.ndarray:
    frame = build_frame(list(specimens))
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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(params_to_dict(params), fh)


def load_model(path) -> NetworkParameters:
    with open(path, encoding="utf-8") as fh:
        return params_from_dict(json.load(fh))
