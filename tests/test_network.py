import json
import math

import numpy as np
import pytest

import cfstcap.network as net
from cfstcap.data import Dataset, generate_synthetic, split
from cfstcap.data import split as split_dataset
from cfstcap.errors import ConfigError, DataError, NumericError
from cfstcap.features import PAPER_SELECTED, build_frame
from cfstcap.network import (ADAM_BETA1, ADAM_BETA2, ADAM_EPS, ConstraintSpec,
                             NetworkParameters, TrainConfig,
                             TrainingHistory, _flatten,
                             _layer_views, dominance_pairs, dominance_relation,
                             forward,
                             init_parameters,
                             load_model, loss_approx, loss_monotone,
                             loss_supervised, loss_total, params_from_dict,
                             params_to_dict, predict, predict_specimens, relu,
                             save_model, train, train_many, variant_spec)
from cfstcap.seeding import child_rng

VARIANTS = ("ANN", "ANNWA", "ANNWM", "ANNWT")


# The one-model trainer that train_many replaced, kept verbatim as the
# oracle (its public names carry a former_ prefix): fresh arrays for every
# activation and gradient, Adam over one flat vector, and the batch pairs
# and the capacity band looked up and checked per batch.

def former_forward(params: NetworkParameters, X: np.ndarray) -> np.ndarray:
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


def former_loss_supervised(pred, target):
    """Mean squared error in transformed label space."""
    pred = np.asarray(pred, dtype=float)
    target = np.asarray(target, dtype=float)
    if pred.shape != target.shape or pred.size == 0:
        raise DataError("pred/target must be nonempty and equal length")
    return float(np.mean((pred - target) ** 2))


def former_loss_approx(pred, yl, yu):
    """Mean rectified distance outside the per-row band [yl, yu]."""
    pred = np.asarray(pred, dtype=float)
    yl = np.asarray(yl, dtype=float)
    yu = np.asarray(yu, dtype=float)
    if np.any(yl >= yu):
        raise DataError("approximate bounds must satisfy yl < yu")
    return float(np.mean(relu(yl - pred) + relu(pred - yu)))


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


def _loss_and_grads(params: NetworkParameters, Xn, target, yl, yu, pairs,
                    spec: ConstraintSpec, rng):
    """Forward pass, the three loss terms and backpropagation for one batch
    whose dominance pairs (batch row indices) are given.

    Returns ((total, supervised, approx, monotone), grads_w, grads_b).
    """
    acts, zs = _forward_cached(params.weights, params.biases, Xn)
    pred = acts[-1][:, 0]
    n = len(pred)
    sup = former_loss_supervised(pred, target)
    dpred = 2.0 * (pred - target) / n
    l_app = former_loss_approx(pred, yl, yu)
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


def _training_arrays(dataset: Dataset, feature_order, spec: ConstraintSpec):
    frame = build_frame(dataset.specimens)
    X = frame.select(list(feature_order)).X
    y_log = np.log(frame.y)
    nu0 = frame.column("Nu0")
    with np.errstate(divide="ignore"):
        yl = np.log(spec.lower_factor * nu0) if spec.lower_factor > 0 \
            else np.full(len(nu0), -np.inf)
        yu = np.log(spec.upper_factor * nu0) if math.isfinite(spec.upper_factor) \
            else np.full(len(nu0), np.inf)
    F = (frame.select(list(spec.monotone_features)).X
         if spec.monotone_features else np.zeros((len(frame), 0)))
    return X, y_log, yl, yu, F


def former_train(dataset: Dataset, feature_order=PAPER_SELECTED,
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
    dominates = dominance_relation(F[tr])

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
        val_pred = former_forward(params, Xn[va])
        val = former_loss_supervised(val_pred, y_log[va])
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




def tiny_net(w_list, b_list):
    sizes = [w_list[0].shape[0]] + [w.shape[1] for w in w_list]
    return NetworkParameters(
        layer_sizes=sizes,
        weights=[np.asarray(w, dtype=float) for w in w_list],
        biases=[np.asarray(b, dtype=float) for b in b_list],
        input_mean=np.zeros(sizes[0]), input_std=np.ones(sizes[0]),
        feature_order=tuple(f"f{i}" for i in range(sizes[0])),
    )


class TestForward:
    def test_hand_computed_two_layer(self):
        # hidden: relu(2x + 1); output: relu(3h - 2)
        net = tiny_net([np.array([[2.0]]), np.array([[3.0]])],
                       [np.array([1.0]), np.array([-2.0])])
        x = np.array([[1.0], [0.0], [-3.0]])
        # x=1 -> h=3 -> 7; x=0 -> h=1 -> 1; x=-3 -> h=relu(-5)=0 -> relu(-2)=0
        assert np.allclose(forward(net, x), [7.0, 1.0, 0.0])

    def test_output_is_rectified(self):
        net = tiny_net([np.array([[1.0]]), np.array([[-1.0]])],
                       [np.array([0.0]), np.array([0.0])])
        assert forward(net, np.array([[5.0]]))[0] == 0.0

    def test_width_mismatch(self):
        net = tiny_net([np.eye(2), np.ones((2, 1))],
                       [np.zeros(2), np.zeros(1)])
        with pytest.raises(DataError, match="input width"):
            forward(net, np.ones((1, 3)))


class TestLossTerms:
    def test_supervised_hand_value(self):
        assert loss_supervised([1.0, 2.0], [0.0, 0.0]) == pytest.approx(2.5)

    def test_supervised_rejects_mismatch(self):
        with pytest.raises(DataError):
            loss_supervised([1.0], [1.0, 2.0])

    def test_approx_hand_value(self):
        # violations: 1 below the band, 2 above -> mean (1 + 0 + 2) / 3
        val = loss_approx([1.0, 3.0, 10.0], [2.0, 2.0, 2.0], [8.0, 8.0, 8.0])
        assert val == pytest.approx(1.0)

    def test_approx_zero_inside_band(self):
        assert loss_approx([3.0, 4.0], [2.0, 2.0], [8.0, 8.0]) == 0.0

    def test_approx_invalid_band(self):
        with pytest.raises(DataError):
            loss_approx([1.0], [5.0], [2.0])

    def test_dominance_pairs_hand_case(self):
        F = np.array([[1.0, 1.0], [2.0, 2.0], [2.0, 0.5], [0.5, 2.0]])
        pairs = {(int(a), int(b)) for a, b in dominance_pairs(F)}
        # row 1 dominates rows 0 and 2; rows 2 and 3 are incomparable
        assert pairs == {(0, 1), (2, 1), (3, 1)}

    @pytest.mark.parametrize("seed", range(8))
    def test_dominance_pairs_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 64))
        F = rng.integers(0, 4, size=(n, 3)).astype(float)  # ties likely
        got = {tuple(p) for p in dominance_pairs(F)}
        want = set()
        for a in range(n):
            for b in range(n):
                if np.all(F[b] >= F[a]) and np.any(F[b] > F[a]):
                    want.add((a, b))
        assert got == want

    def test_monotone_hand_value(self):
        spec = ConstraintSpec()
        F = np.array([[1.0], [2.0], [3.0]])  # pairs (0,1), (0,2), (1,2)
        pred = np.array([5.0, 3.0, 4.0])     # violations: 2, 1, 0
        val, pairs = loss_monotone(pred, F, spec)
        assert len(pairs) == 3
        assert val == pytest.approx(1.0)

    def test_monotone_shift_invariance(self):
        spec = ConstraintSpec()
        rng = np.random.default_rng(0)
        F = rng.uniform(size=(20, 2))
        pred = rng.normal(size=20)
        a, _ = loss_monotone(pred, F, spec)
        b, _ = loss_monotone(pred + 17.3, F, spec)
        assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_pair_budget(self):
        spec = ConstraintSpec(pair_budget=10)
        F = np.arange(30.0).reshape(-1, 1)  # 435 dominance pairs
        _, pairs = loss_monotone(np.zeros(30), F, spec,
                                 rng=np.random.default_rng(0))
        assert len(pairs) == 10

    def test_monotone_disabled(self):
        spec = ConstraintSpec(monotone_features=())
        val, pairs = loss_monotone(np.array([3.0, 1.0]),
                                   np.zeros((2, 0)), spec)
        assert val == 0.0 and len(pairs) == 0

    def test_relation_matches_per_batch_pairs(self):
        # the trainer reads each batch's pairs from one relation over the
        # training rows; they must be the batch's own dominance pairs, in order
        rng = np.random.default_rng(0)
        F = rng.integers(0, 4, size=(150, 3)).astype(float)  # ties likely
        relation = dominance_relation(F)
        for _ in range(200):
            pos = rng.permutation(len(F))[:int(rng.integers(1, 65))]
            got = np.argwhere(relation[np.ix_(pos, pos)])
            want = dominance_pairs(F[pos])
            assert got.shape == want.shape and np.array_equal(got, want)
        disabled = dominance_relation(F[:, :0])  # no monotone feature
        assert not disabled.any()


class TestGradients:
    @pytest.mark.parametrize("seed", range(20))
    def test_finite_difference_oracle(self, seed):
        # finite differences only match the analytic gradient away from the
        # relu and hinge kinks, so the setup keeps every pre-activation,
        # band boundary and dominance-pair gap clear of zero by a margin
        # far above the probe step
        rng = np.random.default_rng(seed)
        config = TrainConfig(hidden_layers=1, hidden_units=4, seed=seed)
        spec = ConstraintSpec(gamma=0.3, pair_budget=10_000)
        n = 10
        margin = 1e-3
        for attempt in range(50):
            params = init_parameters(("f0", "f1", "f2"), config, spec)
            for b in params.biases:
                b += rng.uniform(0.2, 0.6, size=b.shape)
            # a positive output layer keeps rows with different live hidden
            # units from collapsing onto identical (tied) predictions
            params.weights[-1] = np.abs(params.weights[-1])
            Xn = rng.normal(size=(n, 3))
            F = rng.integers(0, 3, size=(n, 2)).astype(float)
            acts, zs = _forward_cached(params.weights, params.biases, Xn)
            pred = acts[-1][:, 0]
            z_margin = min(np.abs(z).min() for z in zs)
            every_row_live = bool((acts[1] > 0).any(axis=1).all())
            pairs = dominance_pairs(F)
            gap = (np.abs(pred[pairs[:, 0]] - pred[pairs[:, 1]]).min()
                   if len(pairs) else np.inf)
            if z_margin > margin and gap > margin and len(pairs) \
                    and every_row_live:
                break
        else:
            pytest.fail("could not build a kink-free configuration")
        target = pred + rng.normal(size=n)
        # a third of rows below the band, a third above, a third inside
        side = rng.integers(0, 3, size=n)
        off = rng.uniform(0.05, 0.3, size=n)
        yl = np.where(side == 0, pred + off, pred - off - 1.0 * (side == 1))
        yu = yl + 0.9
        loss, gw, gb = loss_total(params, Xn, target, yl, yu, F, spec)

        eps = 1e-6
        worst = 0.0
        for l in range(len(params.weights)):
            for idx in np.ndindex(params.weights[l].shape):
                orig = params.weights[l][idx]
                params.weights[l][idx] = orig + eps
                up = loss_total(params, Xn, target, yl, yu, F, spec)[0]
                params.weights[l][idx] = orig - eps
                dn = loss_total(params, Xn, target, yl, yu, F, spec)[0]
                params.weights[l][idx] = orig
                num = (up - dn) / (2 * eps)
                ana = gw[l][idx]
                denom = max(abs(num), abs(ana), 1e-4)
                worst = max(worst, abs(num - ana) / denom)
            for i in range(len(params.biases[l])):
                orig = params.biases[l][i]
                params.biases[l][i] = orig + eps
                up = loss_total(params, Xn, target, yl, yu, F, spec)[0]
                params.biases[l][i] = orig - eps
                dn = loss_total(params, Xn, target, yl, yu, F, spec)[0]
                params.biases[l][i] = orig
                num = (up - dn) / (2 * eps)
                denom = max(abs(num), abs(gb[l][i]), 1e-4)
                worst = max(worst, abs(num - gb[l][i]) / denom)
        assert worst < 1e-4

    def test_gamma_zero_reduces_to_mse_gradient(self):
        rng = np.random.default_rng(1)
        config = TrainConfig(hidden_layers=1, hidden_units=3)
        plain = ConstraintSpec(gamma=0.0)
        params = init_parameters(("f0", "f1"), config, plain)
        Xn = rng.normal(size=(6, 2))
        target = rng.normal(size=6)
        yl = np.full(6, -np.inf)
        yu = np.full(6, np.inf)
        F = rng.uniform(size=(6, 1))
        loss, _, _ = loss_total(params, Xn, target, yl, yu, F, plain)
        pred = forward(params, Xn)
        assert loss == pytest.approx(loss_supervised(pred, target), rel=1e-12)


class TestConfigValidation:
    def test_constraint_spec_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            ConstraintSpec(gamma=-1.0)
        with pytest.raises(ConfigError):
            ConstraintSpec(lower_factor=2.0, upper_factor=1.0)
        with pytest.raises(ConfigError):
            ConstraintSpec(monotone_features=("As", "fc"))
        with pytest.raises(ConfigError):
            ConstraintSpec(pair_budget=0)

    def test_train_config_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            TrainConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1.0)

    def test_variant_family(self):
        assert variant_spec("ANN").gamma == 0.0
        assert variant_spec("ANNWA").monotone_features == ()
        annwm = variant_spec("ANNWM")
        assert annwm.lower_factor == 0.0 and math.isinf(annwm.upper_factor)
        base = ConstraintSpec(gamma=0.25)
        assert variant_spec("ANNWT", base) == base
        with pytest.raises(ConfigError):
            variant_spec("XGB")


def small_config(seed=0, epochs=25):
    return TrainConfig(epochs=epochs, batch_size=32, learning_rate=3e-3,
                       early_stop_patience=epochs, seed=seed,
                       hidden_layers=2, hidden_units=16)


class TestTraining:
    def test_learns_low_noise_data(self):
        ds = generate_synthetic(250, 11, 0.02)
        params, hist = train(ds, config=small_config(epochs=60))
        assert hist.val_loss[-1] < hist.val_loss[0]
        preds = predict_specimens(params, ds.specimens)
        assert np.all(preds > 0)
        mape = np.mean(np.abs(preds - [s.N for s in ds.specimens])
                       / [s.N for s in ds.specimens])
        assert mape < 0.15

    def test_deterministic_per_seed(self):
        ds = generate_synthetic(120, 3, 0.05)
        p1, h1 = train(ds, config=small_config(seed=4, epochs=8))
        p2, h2 = train(ds, config=small_config(seed=4, epochs=8))
        for a, b in zip(p1.weights, p2.weights):
            assert np.array_equal(a, b)
        assert h1.val_loss == h2.val_loss
        p3, _ = train(ds, config=small_config(seed=5, epochs=8))
        assert not np.array_equal(p1.weights[0], p3.weights[0])

    def test_all_variants_trainable(self):
        ds = generate_synthetic(100, 6, 0.05)
        preds = {}
        for v in ("ANN", "ANNWA", "ANNWM", "ANNWT"):
            params, _ = train(ds, spec=variant_spec(v),
                              config=small_config(epochs=5))
            preds[v] = predict_specimens(params, ds.specimens[:5])
        # the penalties change the optimization trajectory
        assert not np.allclose(preds["ANN"], preds["ANNWT"])

    def test_history_lengths_match(self):
        ds = generate_synthetic(90, 7, 0.05)
        _, hist = train(ds, config=small_config(epochs=6))
        n = len(hist.epochs)
        assert n == len(hist.loss_supervised) == len(hist.loss_approx) \
            == len(hist.loss_monotone) == len(hist.val_loss)
        assert list(hist.rows())

    def test_constant_column_keeps_unit_std(self):
        # a constant log column's std is rounding residue, not 0; dividing
        # by it would send any other value of the column to about 1e14
        ds = generate_synthetic(120, 5, 0.1)
        ds = Dataset(tuple(s._replace(fc=40.0) for s in ds.specimens))
        params, _ = train(ds, config=small_config(epochs=2))
        assert params.input_std[PAPER_SELECTED.index("fc")] == 1.0
        X = build_frame([s._replace(fc=30.0) for s in ds.specimens[:8]],
                        names=PAPER_SELECTED).X
        assert np.all(np.isfinite(net.predict_rows(params, X)))

    def test_batch_size_validation(self):
        ds = generate_synthetic(10, 0, 0.05)
        with pytest.raises(ConfigError, match="batch_size"):
            train(ds, config=TrainConfig(batch_size=64, epochs=1))

    def test_divergence_raises(self, monkeypatch):
        # the rectified output clips real blow-ups to zero, so a non-finite
        # batch loss is simulated to verify the guard aborts training
        import cfstcap.network as net
        ds = generate_synthetic(60, 2, 0.05)
        monkeypatch.setattr(net, "loss_supervised",
                            lambda pred, target: math.nan)
        with pytest.raises(NumericError, match="diverged"):
            train(ds, config=small_config(epochs=3))

    def test_predict_single_matches_batch(self):
        ds = generate_synthetic(80, 9, 0.05)
        params, _ = train(ds, config=small_config(epochs=5))
        batch = predict_specimens(params, ds.specimens[:3])
        singles = [predict(params, s) for s in ds.specimens[:3]]
        assert np.allclose(batch, singles, rtol=1e-12)


def reference_batch_loss_and_dpred(pred, target, yl, yu, F, spec, rng):
    """The former per-batch loss terms and dTotal/dpred of the trainer."""
    n = len(pred)
    sup = loss_supervised(pred, target)
    dpred = 2.0 * (pred - target) / n
    l_app = loss_approx(pred, yl, yu)
    if spec.gamma > 0:
        d_app = (-(pred < yl).astype(float) + (pred > yu).astype(float)) / n
        dpred = dpred + spec.gamma * d_app
    l_mono, pairs = loss_monotone(pred, F, spec, rng)
    if spec.gamma > 0 and len(pairs):
        viol = pred[pairs[:, 0]] > pred[pairs[:, 1]]
        if viol.any():
            scale = spec.gamma / len(pairs)
            np.add.at(dpred, pairs[viol, 0], scale)
            np.add.at(dpred, pairs[viol, 1], -scale)
    total = sup + spec.gamma * (l_app + l_mono)
    return total, sup, l_app, l_mono, dpred


def reference_train(dataset, feature_order, spec, config):
    """The former trainer, kept as the oracle: forward, loss and backward
    inline, Adam as a per-layer loop over four lists of moments, and a
    per-array copy of the best epoch's parameters."""
    X, y_log, yl, yu, F = _training_arrays(dataset, feature_order, spec)
    tr, va = split(dataset, dataset.split_fraction, dataset.split_seed)
    Xf = np.log(X)
    mean = Xf[tr].mean(axis=0)
    std = Xf[tr].std(axis=0)
    std[std == 0] = 1.0
    Xn = (Xf - mean) / std
    params = init_parameters(feature_order, config, spec)
    params.input_mean = mean
    params.input_std = std
    params.biases[-1][:] = float(np.mean(y_log[tr]))
    shuffle_rng = child_rng(config.seed, 1)
    pair_rng = child_rng(config.seed, 2)
    m_w = [np.zeros_like(w) for w in params.weights]
    v_w = [np.zeros_like(w) for w in params.weights]
    m_b = [np.zeros_like(b) for b in params.biases]
    v_b = [np.zeros_like(b) for b in params.biases]
    step = 0
    history = TrainingHistory()
    best_val = math.inf
    best_state = None
    stale = 0
    for epoch in range(config.epochs):
        rows = tr[shuffle_rng.permutation(len(tr))]
        ep_sup = ep_app = ep_mono = 0.0
        n_batches = 0
        for start in range(0, len(rows), config.batch_size):
            batch = rows[start:start + config.batch_size]
            acts, zs = _forward_cached(params.weights, params.biases, Xn[batch])
            _total, sup, l_app, l_mono, dpred = reference_batch_loss_and_dpred(
                acts[-1][:, 0], y_log[batch], yl[batch], yu[batch], F[batch],
                spec, pair_rng)
            grads_w, grads_b = _backward(params.weights, acts, zs, dpred)
            step += 1
            bc1 = 1.0 - ADAM_BETA1**step
            bc2 = 1.0 - ADAM_BETA2**step
            for l in range(len(params.weights)):
                m_w[l] = ADAM_BETA1 * m_w[l] + (1 - ADAM_BETA1) * grads_w[l]
                v_w[l] = ADAM_BETA2 * v_w[l] + (1 - ADAM_BETA2) * grads_w[l] ** 2
                params.weights[l] -= config.learning_rate * (m_w[l] / bc1) / (
                    np.sqrt(v_w[l] / bc2) + ADAM_EPS)
                m_b[l] = ADAM_BETA1 * m_b[l] + (1 - ADAM_BETA1) * grads_b[l]
                v_b[l] = ADAM_BETA2 * v_b[l] + (1 - ADAM_BETA2) * grads_b[l] ** 2
                params.biases[l] -= config.learning_rate * (m_b[l] / bc1) / (
                    np.sqrt(v_b[l] / bc2) + ADAM_EPS)
            ep_sup += sup
            ep_app += l_app
            ep_mono += l_mono
            n_batches += 1
        val = loss_supervised(forward(params, Xn[va]), y_log[va])
        history.epochs.append(epoch)
        history.loss_supervised.append(ep_sup / n_batches)
        history.loss_approx.append(ep_app / n_batches)
        history.loss_monotone.append(ep_mono / n_batches)
        history.val_loss.append(val)
        if val < best_val - 1e-12:
            best_val = val
            best_state = ([w.copy() for w in params.weights],
                          [b.copy() for b in params.biases])
            stale = 0
        else:
            stale += 1
            if stale >= config.early_stop_patience:
                break
    if best_state is not None:
        params.weights, params.biases = best_state
    return params, history


class TestFlatAdamOracle:
    """train (one loss-and-gradient function, Adam over one flat parameter
    vector) against the former per-layer trainer, bit for bit."""

    @pytest.mark.parametrize("variant, n, config", [
        ("ANNWT", 300, small_config(seed=3, epochs=20)),
        ("ANN", 300, small_config(seed=3, epochs=20)),
        ("ANNWT", 150, TrainConfig(epochs=15, batch_size=20, learning_rate=1e-2,
                                   early_stop_patience=15, seed=8,
                                   hidden_layers=3, hidden_units=7)),
        # a high rate makes validation loss stall, so training stops early
        ("ANN", 200, TrainConfig(epochs=300, batch_size=32, learning_rate=5e-2,
                                 early_stop_patience=3, seed=1,
                                 hidden_layers=2, hidden_units=9)),
    ])
    def test_matches_per_layer_trainer(self, variant, n, config):
        ds = generate_synthetic(n, 21, 0.1)
        spec = variant_spec(variant)
        params, hist = train(ds, PAPER_SELECTED, spec, config)
        ref, ref_hist = reference_train(ds, PAPER_SELECTED, spec, config)
        assert len(params.weights) == len(ref.weights) == config.hidden_layers + 1
        for got, want in zip(params.weights + params.biases, ref.weights + ref.biases):
            assert got.shape == want.shape
            assert np.array_equal(got, want)
        assert params_to_dict(params) == params_to_dict(ref)
        assert list(hist.rows()) == list(ref_hist.rows())
        if config.early_stop_patience < config.epochs:
            assert len(hist.epochs) < config.epochs


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        ds = generate_synthetic(80, 12, 0.05)
        params, _ = train(ds, feature_order=PAPER_SELECTED,
                          spec=variant_spec("ANNWM"),
                          config=small_config(epochs=4))
        path = tmp_path / "model.json"
        save_model(params, path)
        loaded = load_model(path)
        assert loaded.feature_order == params.feature_order
        assert math.isinf(loaded.constraint.upper_factor)
        a = predict_specimens(params, ds.specimens)
        b = predict_specimens(loaded, ds.specimens)
        assert np.array_equal(a, b)

    def test_file_matches_json_dump(self, tmp_path):
        # the C encoder writes the same bytes json.dump's iterencode would
        params, _ = train(generate_synthetic(80, 13, 0.05), feature_order=PAPER_SELECTED,
                          spec=variant_spec("ANNWM"), config=small_config(epochs=2))
        save_model(params, tmp_path / "model.json")
        with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
            json.dump(params_to_dict(params), fh)
        assert (tmp_path / "model.json").read_bytes() == (tmp_path / "dump.json").read_bytes()

    def test_version_check(self):
        config = TrainConfig(hidden_layers=1, hidden_units=2)
        params = init_parameters(("f0",), config, ConstraintSpec())
        doc = params_to_dict(params)
        doc["format_version"] = 42
        with pytest.raises(DataError, match="format version"):
            params_from_dict(doc)

    @pytest.mark.parametrize("key", ["label_transform", "input_transform"])
    def test_non_log_transform_rejected(self, key):
        # training always works in the log domain, so a model file naming
        # another transform cannot be predicted with
        config = TrainConfig(hidden_layers=1, hidden_units=2)
        doc = params_to_dict(init_parameters(("f0",), config, ConstraintSpec()))
        assert doc[key] == "log"
        params_from_dict(doc)
        doc[key] = "none"
        with pytest.raises(DataError, match=key):
            params_from_dict(doc)
        del doc[key]
        with pytest.raises(DataError, match=key):
            params_from_dict(doc)


def relabelled(dataset, labels):
    """The dataset with each specimen's N replaced by the given label."""
    return Dataset(tuple(s._replace(N=float(n)) for s, n in zip(dataset.specimens, labels)),
                   split_seed=dataset.split_seed, split_fraction=dataset.split_fraction)


def assert_same_fit(got, want):
    (params, hist), (ref, ref_hist) = got, want
    assert len(params.weights) == len(ref.weights)
    for a, b in zip(params.weights + params.biases, ref.weights + ref.biases):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert params_to_dict(params) == params_to_dict(ref)
    for name in ("epochs", "loss_supervised", "loss_approx", "loss_monotone", "val_loss"):
        assert getattr(hist, name) == getattr(ref_hist, name), name


STOPS_EARLY = TrainConfig(epochs=300, batch_size=32, learning_rate=3e-2,
                          early_stop_patience=4, seed=1, hidden_layers=2,
                          hidden_units=9)


class TestLockstepOracle:
    """train_many against one former_train per model, bit for bit."""

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("config", [small_config(seed=3, epochs=12), STOPS_EARLY],
                             ids=["full-run", "stops-early"])
    def test_one_model_matches_oracle(self, variant, config):
        ds = generate_synthetic(200, 21, 0.1)
        spec = variant_spec(variant)
        got = train(ds, PAPER_SELECTED, spec, config)
        want = former_train(ds, PAPER_SELECTED, spec, config)
        assert_same_fit(got, want)
        X = np.random.default_rng(0).normal(size=(50, len(PAPER_SELECTED)))
        assert np.array_equal(forward(got[0], X), former_forward(want[0], X))

    def test_mixed_stack_matches_separate_trains(self, monkeypatch):
        # four variants (ANNWA has no pairs) and two pair-budgeted specs on
        # two label vectors, one stack; models stop at different epochs
        ds = generate_synthetic(240, 21, 0.1)
        clean = np.array([s.N for s in ds.specimens])
        label_sets = [clean, clean * np.random.default_rng(4).uniform(0.8, 1.2, len(clean))]
        specs = [variant_spec(v) for v in VARIANTS] + [
            ConstraintSpec(pair_budget=40),
            ConstraintSpec(gamma=0.3, pair_budget=40, monotone_features=("D", "fy"))]
        labels = np.array([y for y in label_sets for _ in specs])
        stack_specs = specs * len(label_sets)
        over_budget = []
        subsample = net._subsample

        def spy(pairs, budget, rng):
            over_budget.append(len(pairs) > budget)
            return subsample(pairs, budget, rng)

        monkeypatch.setattr(net, "_subsample", spy)
        got = train_many(ds, labels, stack_specs, PAPER_SELECTED, STOPS_EARLY)
        assert any(over_budget)
        for result, y, spec in zip(got, labels, stack_specs):
            assert_same_fit(result, former_train(relabelled(ds, y), PAPER_SELECTED, spec,
                                               STOPS_EARLY))
        stops = {len(hist.epochs) for _, hist in got}
        assert len(stops) > 1 and max(stops) < STOPS_EARLY.epochs

    def test_diverged_model_carries_the_error(self):
        ds = generate_synthetic(120, 3, 0.05)
        clean = np.array([s.N for s in ds.specimens])
        tr, _ = split(ds, ds.split_fraction, ds.split_seed)
        broken = clean.copy()
        broken[tr[0]] = math.nan
        spec = variant_spec("ANNWT")
        config = small_config(epochs=6)
        got = train_many(ds, np.array([clean, broken, 1.1 * clean]), [spec] * 3,
                         PAPER_SELECTED, config)
        with pytest.raises(NumericError) as raised:
            former_train(relabelled(ds, broken), PAPER_SELECTED, spec, config)
        assert isinstance(got[1], NumericError) and str(got[1]) == str(raised.value)
        assert_same_fit(got[0], former_train(ds, PAPER_SELECTED, spec, config))
        assert_same_fit(got[2], former_train(relabelled(ds, 1.1 * clean), PAPER_SELECTED,
                                           spec, config))

    def test_loss_total_matches_oracle_step(self):
        rng = np.random.default_rng(2)
        spec = ConstraintSpec(gamma=0.4, pair_budget=15)
        params = init_parameters(("f0", "f1", "f2"), TrainConfig(hidden_layers=2,
                                                                 hidden_units=6), spec)
        Xn = rng.normal(size=(24, 3))
        target = rng.normal(size=24)
        yl, yu = target - 0.3, target + 0.2
        F = rng.uniform(size=(24, 2))
        loss, gw, gb = loss_total(params, Xn, target, yl, yu, F, spec,
                                  rng=np.random.default_rng(7))
        (total, *_), want_w, want_b = _loss_and_grads(
            params, Xn, target, yl, yu, dominance_pairs(F), spec, np.random.default_rng(7))
        assert loss == total
        for a, b in zip(gw + gb, want_w + want_b):
            assert np.array_equal(a, b)

    def test_label_validation(self):
        ds = generate_synthetic(40, 1, 0.05)
        clean = np.array([s.N for s in ds.specimens])
        specs = [variant_spec("ANN")] * 2
        with pytest.raises(DataError, match="shape"):
            train_many(ds, clean[None], specs, config=small_config(epochs=1))
        with pytest.raises(DataError, match="positive"):
            train_many(ds, np.array([clean, -clean]), specs, config=small_config(epochs=1))


class TestNeverImproved:
    def test_stops_at_patience_with_its_last_parameters(self):
        # a NaN label on one validation row makes every validation loss NaN,
        # so the model never improves: it stops after patience epochs and
        # returns its current parameters, while the model beside it trains on
        ds = generate_synthetic(120, 3, 0.05)
        clean = np.array([s.N for s in ds.specimens])
        _, va = split(ds, ds.split_fraction, ds.split_seed)
        blind = clean.copy()
        blind[va[0]] = math.nan
        spec = variant_spec("ANNWT")
        config = TrainConfig(epochs=8, batch_size=32, learning_rate=3e-3,
                             early_stop_patience=3, hidden_layers=2, hidden_units=16)
        got = train_many(ds, np.array([blind, clean]), [spec] * 2, PAPER_SELECTED, config)
        (params, hist), (ref, ref_hist) = got[0], former_train(
            relabelled(ds, blind), PAPER_SELECTED, spec, config)
        assert hist.epochs == ref_hist.epochs == [0, 1, 2]
        assert np.isnan(hist.val_loss).all() and np.isnan(ref_hist.val_loss).all()
        for name in ("loss_supervised", "loss_approx", "loss_monotone"):
            assert getattr(hist, name) == getattr(ref_hist, name), name
        assert params_to_dict(params) == params_to_dict(ref)
        assert len(got[1][1].epochs) > config.early_stop_patience
        assert_same_fit(got[1], former_train(ds, PAPER_SELECTED, spec, config))
