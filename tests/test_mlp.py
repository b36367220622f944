import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit.exceptions import TrainingDivergedError
from idpskit.mlp import (
    GRAD_BLOCK,
    Network,
    NetworkLayout,
    PatienceTracker,
    TrainConfig,
    TrainHistory,
    _batch_gradients,
    _forward_all,
    backward,
    forward,
    init_network,
    loss_mse,
    predict_class,
    train,
)
from idpskit.preprocessing import one_hot, one_hot_matrix


def make_net(sizes, seed=0):
    return init_network(NetworkLayout(sizes[0], tuple(sizes[1:-1]), sizes[-1]),
                        seed)


def zero_net(sizes):
    net = make_net(sizes)
    for w in net.weights:
        w[:] = 0.0
    for b in net.biases:
        b[:] = 0.0
    return net


class TestLayout:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            NetworkLayout(41, (), 6)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            NetworkLayout(41, (0,), 6)


class TestInit:
    def test_same_seed_bit_identical(self):
        a = make_net([41, 20, 6], seed=7)
        b = make_net([41, 20, 6], seed=7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_shapes(self):
        net = make_net([41, 20, 6])
        assert net.weights[0].shape == (20, 41)
        assert net.weights[1].shape == (6, 20)
        assert net.biases[0].shape == (20,)
        assert net.biases[1].shape == (6,)

    def test_weight_bound_and_zero_biases(self):
        net = make_net([41, 20, 6], seed=3)
        for (fan_out, fan_in), w in zip([(20, 41), (6, 20)], net.weights):
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.all(np.abs(w) < bound)
        for b in net.biases:
            np.testing.assert_array_equal(b, 0.0)


class TestForward:
    def test_zero_network_uniform_output(self):
        net = zero_net([41, 5, 6])
        out = forward(net, np.zeros(41))
        np.testing.assert_allclose(out, np.full(6, 1 / 6), atol=1e-15)

    def test_outputs_sum_to_one_many_random_nets(self):
        rng = np.random.default_rng(0)
        for trial in range(1000):
            net = make_net([4, 3, 5], seed=trial)
            x = rng.uniform(0, 1, 4)
            out = forward(net, x)
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_hand_computed_single_hidden_unit(self):
        # 1 -> 1 -> 2 with w1=2, b1=0.1, w2=(1,-1), b2=(0.2,-0.2), x=0.5:
        # hidden tanh(1.1) = 0.800499, softmax(+-1.000499) = (0.881, 0.119)
        net = zero_net([1, 1, 2])
        net.weights[0][0, 0] = 2.0
        net.biases[0][0] = 0.1
        net.weights[1][:, 0] = [1.0, -1.0]
        net.biases[1][:] = [0.2, -0.2]
        out = forward(net, np.array([0.5]))
        np.testing.assert_allclose(out, [0.881, 0.119], atol=5e-4)

    @pytest.mark.parametrize("n", [1, 2, 7, 300])
    def test_stack_gives_each_row_its_own_bits(self, n):
        net = make_net([41, 20, 6], seed=n)
        X = np.random.default_rng(n).uniform(0, 1, (n, 41))
        out = forward(net, X[:, None, :])
        assert out.shape == (n, 1, 6)
        for x, row in zip(X, out[:, 0, :]):
            assert forward(net, x).tobytes() == row.tobytes()

    def test_stack_is_checked_like_rows(self):
        net = make_net([4, 3, 2])
        bad = np.zeros((3, 1, 4))
        bad[1, 0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            forward(net, bad)
        with pytest.raises(ValueError, match="5 features, expected 4"):
            forward(net, np.zeros((3, 1, 5)))
        with pytest.raises(ValueError, match="ndim=3"):
            forward(net, np.zeros((3, 2, 4)))


class TestLossMse:
    def test_zero_when_equal(self):
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert loss_mse(t, t) == 0.0

    def test_uniform_vs_one_hot(self):
        out = np.full((1, 6), 1 / 6)
        target = one_hot(0, 6).reshape(1, -1)
        assert abs(loss_mse(out, target) - 5 / 36) < 1e-15

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(4, 6))
        e = rng.normal(size=(4, 6))
        full = loss_mse(t + e, t)
        half = loss_mse(t + e / 2, t)
        assert abs(full - 4 * half) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            loss_mse(np.zeros((2, 6)), np.zeros((2, 5)))


class TestBackward:
    def test_zero_gradient_at_exact_target(self):
        net = make_net([5, 4, 3], seed=2)
        x = np.random.default_rng(2).uniform(0, 1, 5)
        target = forward(net, x)  # constructed minimum of the quadratic
        dws, dbs = backward(net, x, target)
        for g in dws + dbs:
            assert np.linalg.norm(g) < 1e-12

    def test_matches_finite_differences(self):
        net = make_net([41, 5, 6], seed=11)
        rng = np.random.default_rng(11)
        x = rng.uniform(0, 1, 41)
        target = one_hot(int(rng.integers(0, 6)), 6)
        dws, dbs = backward(net, x, target)
        h = 1e-5

        def loss():
            return loss_mse(forward(net, x).reshape(1, -1),
                            target.reshape(1, -1))

        for l in range(net.n_layers):
            for arr, grad in ((net.weights[l], dws[l]),
                              (net.biases[l], dbs[l])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    lp = loss()
                    arr[idx] = orig - h
                    lm = loss()
                    arr[idx] = orig
                    fd = (lp - lm) / (2 * h)
                    err = abs(grad[idx] - fd)
                    assert err <= max(1e-9, 1e-6 * max(abs(grad[idx]), abs(fd)))

    def test_dead_path_zero_gradient(self):
        net = make_net([6, 4, 3], seed=5)
        x = np.random.default_rng(5).uniform(0.1, 1, 6)
        x[2] = 0.0
        dws, _ = backward(net, x, one_hot(1, 3))
        np.testing.assert_array_equal(dws[0][:, 2], 0.0)


def row_major_forward_all(net, X):
    """The row-major forward pass: activations are (rows, units)."""
    activations = [X]
    a = X
    last = net.n_layers - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        if l == last:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            a = e / e.sum(axis=1, keepdims=True)
        else:
            a = np.tanh(z)
        activations.append(a)
    return activations


def row_major_gradients(net, activations, T):
    """The row-major gradients of loss_mse(forward(X), T), one gemm each."""
    n, k = T.shape
    y = activations[-1]
    e = 2.0 * (y - T) / (n * k)
    dz = y * (e - np.sum(e * y, axis=1, keepdims=True))
    dws = [None] * net.n_layers
    dbs = [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        dws[l] = dz.T @ activations[l]
        dbs[l] = dz.sum(axis=0)
        if l > 0:
            dz = (dz @ net.weights[l]) * (1.0 - activations[l] ** 2)
    return dws, dbs


# The feature-major kernel adds its sums in another order than the
# row-major formulas, so each element must agree to this share of the
# largest magnitude in its array: far above the rounding of a sum over a
# few thousand rows, far below any change in what is computed.
KERNEL_RTOL = 1e-9


def assert_kernel_close(got, want):
    np.testing.assert_allclose(got, want, rtol=KERNEL_RTOL,
                               atol=KERNEL_RTOL * np.abs(want).max())


@st.composite
def kernel_cases(draw):
    n_in = draw(st.integers(1, 6))
    hidden = draw(st.lists(st.integers(1, 8), min_size=1, max_size=2))
    k = draw(st.integers(2, 10))
    n = draw(st.one_of(
        st.integers(1, 40),
        st.sampled_from([GRAD_BLOCK - 1, GRAD_BLOCK, GRAD_BLOCK + 1,
                         2 * GRAD_BLOCK + 3])))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    net = make_net([n_in, *hidden, k], seed)
    for b in net.biases:
        b[:] = rng.normal(0.0, 0.5, b.shape)
    X = rng.uniform(-1, 1, (n, n_in))
    T = one_hot_matrix(rng.integers(0, k, n), k)
    return net, X, T


class TestFeatureMajorKernel:
    """_forward_all and _batch_gradients against the row-major formulas."""

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_forward_matches_row_major(self, case):
        net, X, _ = case
        want = row_major_forward_all(net, X)
        got = _forward_all(net, X.T)
        assert np.shares_memory(got[0], X)  # the input is a view, not a copy
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_kernel_close(g.T, w)
        assert_kernel_close(forward(net, X), want[-1])
        stack = forward(net, X[:, None, :])
        for x, row in zip(X[:3], stack[:3, 0]):
            assert forward(net, x).tobytes() == row.tobytes()

    @given(kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_gradients_match_row_major(self, case):
        net, X, T = case
        want_w, want_b = row_major_gradients(net, row_major_forward_all(net, X),
                                             T)
        got_w, got_b = _batch_gradients(net, _forward_all(net, X.T), T)
        for g, w in zip(got_w + got_b, want_w + want_b):
            assert g.shape == w.shape
            assert_kernel_close(g, w)


THREAD_RUN = """
import hashlib
import numpy as np
from idpskit.mlp import NetworkLayout, TrainConfig, init_network, train
rng = np.random.default_rng(5)
X, y = rng.uniform(0, 1, (35000, 41)), rng.integers(0, 6, 35000)
Xv, yv = rng.uniform(0, 1, (500, 41)), rng.integers(0, 6, 500)
# a step this large carries a gradient's last bits into the weights; at
# learning rate 0.01 most of them round away within 3 epochs
net, history = train(init_network(NetworkLayout(41, (20,), 6), 5), (X, y),
                     (Xv, yv), TrainConfig(max_epochs=3, patience=3,
                                           goal_mse=-1.0, learning_rate=1.0))
digest = hashlib.sha256(repr((history.train_mse, history.val_mse)).encode())
for a in net.weights + net.biases:
    digest.update(a.tobytes())
print(history.n_epochs, digest.hexdigest())
"""


def test_weights_do_not_depend_on_blas_threads():
    import idpskit

    src = os.path.dirname(os.path.dirname(idpskit.__file__))
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                       p for p in (src, os.environ.get("PYTHONPATH")) if p))
        child = subprocess.run([sys.executable, "-c", THREAD_RUN], env=env,
                               capture_output=True, text=True, timeout=300,
                               check=True)
        digests.append(child.stdout.split())
    assert digests[0][0] == "3"
    assert digests[0] == digests[1]


def xor_style_data():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0])
    return X, y


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 1000
        assert cfg.patience == 6
        assert cfg.goal_mse == 0.01
        assert cfg.learning_rate == 0.01
        assert cfg.momentum == 0.9

    @pytest.mark.parametrize("kwargs", [
        {"patience": 0},
        {"learning_rate": 0.0},
        {"learning_rate": -1.0},
        {"momentum": 1.0},
        {"momentum": -0.1},
        {"max_epochs": 0},
        {"max_epochs": -5},
        {"learning_rate": float("nan")},
        {"learning_rate": float("inf")},
        {"goal_mse": float("nan")},
        {"goal_mse": float("inf")},
        {"goal_mse": float("-inf")},
    ])
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs)

    def test_negative_goal_allowed(self):
        assert TrainConfig(goal_mse=-1.0).goal_mse == -1.0


class TestTrain:
    def test_learns_xor_within_budget(self):
        X, y = xor_style_data()
        net = make_net([2, 4, 2], seed=1)
        cfg = TrainConfig(max_epochs=1000, patience=1000, goal_mse=0.01,
                          learning_rate=0.5, momentum=0.9, seed=1)
        fitted, history = train(net, (X, y), (X, y), cfg)
        assert history.train_mse[-1] < 0.01
        assert history.stop_reason == "goal_reached"
        np.testing.assert_array_equal(predict_class(fitted, X), y)

    def test_same_seed_same_history(self):
        X, y = xor_style_data()
        runs = []
        for _ in range(2):
            net = make_net([2, 4, 2], seed=3)
            cfg = TrainConfig(max_epochs=40, patience=40, learning_rate=0.3,
                              seed=3)
            fitted, history = train(net, (X, y), (X, y), cfg)
            runs.append((fitted, history))
        (na, ha), (nb, hb) = runs
        assert ha.train_mse == hb.train_mse
        assert ha.val_mse == hb.val_mse
        for wa, wb in zip(na.weights, nb.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_divergence_detected(self):
        X, y = xor_style_data()
        X = X.copy()
        X[0, 0] = np.nan  # non-finiteness must surface, not train through
        net = make_net([2, 4, 2], seed=1)
        with pytest.raises(TrainingDivergedError):
            train(net, (X, y), (X, y), TrainConfig(max_epochs=5))

    def test_divergence_detected_from_infinite_input(self):
        X, y = xor_style_data()
        X = X.copy()
        X[1, 1] = np.inf
        net = make_net([2, 4, 2], seed=1)
        with np.errstate(invalid="ignore"):
            with pytest.raises(TrainingDivergedError):
                train(net, (X, y), (X, y), TrainConfig(max_epochs=5))

    def test_restored_network_matches_best_val(self, overfit_run):
        fitted, history, (Xv, yv) = overfit_run
        from idpskit.preprocessing import one_hot_matrix

        out = forward(fitted, Xv)
        val = loss_mse(out, one_hot_matrix(yv, 2))
        assert abs(val - history.best_val_mse) <= 1e-12

    def test_patience_stop_matches_rerun_snapshot(self, overfit_run):
        fitted, history, _ = overfit_run
        assert history.stop_reason == "patience_exhausted"
        assert history.best_epoch > 1  # validation genuinely improved first
        assert history.n_epochs == history.best_epoch + 6
        # determinism: rerunning with max_epochs=best_epoch lands on the
        # same weights the early stop restored
        X, y, Xv, yv = _overfit_data()
        net = make_net([2, 6, 2], seed=0)
        cfg = _overfit_config(max_epochs=history.best_epoch)
        snapshot, _ = train(net, (X, y), (Xv, yv), cfg)
        for wa, wb in zip(fitted.weights, snapshot.weights):
            np.testing.assert_array_equal(wa, wb)
        for ba, bb in zip(fitted.biases, snapshot.biases):
            np.testing.assert_array_equal(ba, bb)


def _overfit_data():
    # small train set with a 30%-label-noise validation set: validation
    # improves while the shared structure is learned, then turns up as the
    # network fits what the noisy holdout disagrees with
    rng = np.random.default_rng(12)
    X = rng.uniform(0, 1, size=(16, 2))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(np.int64)
    Xv = rng.uniform(0, 1, size=(16, 2))
    yv = (Xv[:, 0] + Xv[:, 1] > 1.0).astype(np.int64)
    flip = rng.random(16) < 0.3
    yv[flip] = 1 - yv[flip]
    return X, y, Xv, yv


def _overfit_config(max_epochs=4000):
    return TrainConfig(max_epochs=max_epochs, patience=6, goal_mse=1e-9,
                       learning_rate=0.5, momentum=0.9, seed=0)


@pytest.fixture(scope="module")
def overfit_run():
    X, y, Xv, yv = _overfit_data()
    net = make_net([2, 6, 2], seed=0)
    fitted, history = train(net, (X, y), (Xv, yv), _overfit_config())
    return fitted, history, (Xv, yv)


def two_pass_train(net, train_set, val_set, cfg):
    """Reference for train(): the loop that runs every gradient forward pass.

    Each epoch's gradient step gets its own forward pass, and the epoch
    then makes a separate loss pass over the training rows with the
    updated weights.
    """
    Xtr, ytr = (np.asarray(a) for a in train_set)
    Xva, yva = (np.asarray(a) for a in val_set)
    k = net.layout.output_size
    Ttr, Tva = one_hot_matrix(ytr, k), one_hot_matrix(yva, k)
    net = net.copy()
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    history = TrainHistory()
    tracker = PatienceTracker(cfg.patience)
    best_net = net.copy()
    for epoch in range(1, cfg.max_epochs + 1):
        dws, dbs = _batch_gradients(net, _forward_all(net, Xtr.T), Ttr)
        for l in range(net.n_layers):
            vel_w[l] = cfg.momentum * vel_w[l] - cfg.learning_rate * dws[l]
            vel_b[l] = cfg.momentum * vel_b[l] - cfg.learning_rate * dbs[l]
            net.weights[l] += vel_w[l]
            net.biases[l] += vel_b[l]
        train_mse = loss_mse(_forward_all(net, Xtr.T)[-1], Ttr.T)
        val_mse = loss_mse(_forward_all(net, Xva.T)[-1], Tva.T)
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)
        exhausted = tracker.update(epoch, val_mse)
        if tracker.best_epoch == epoch:
            best_net = net.copy()
        if train_mse <= cfg.goal_mse:
            history.stop_reason = "goal_reached"
            break
        if exhausted:
            history.stop_reason = "patience_exhausted"
            break
    else:
        history.stop_reason = "max_epochs"
    history.best_epoch = tracker.best_epoch
    return best_net, history


def assert_train_matches_two_pass(net, train_set, val_set, cfg):
    """train() and two_pass_train() agree bit for bit; returns the history."""
    fitted, history = train(net, train_set, val_set, cfg)
    ref_net, ref = two_pass_train(net, train_set, val_set, cfg)
    assert repr(history.train_mse) == repr(ref.train_mse)
    assert repr(history.val_mse) == repr(ref.val_mse)
    assert (history.best_epoch, history.stop_reason) == (ref.best_epoch,
                                                         ref.stop_reason)
    for got, want in zip(fitted.weights + fitted.biases,
                         ref_net.weights + ref_net.biases):
        assert got.tobytes() == want.tobytes()
    return history


@st.composite
def training_runs(draw):
    n_in = draw(st.integers(1, 4))
    hidden = draw(st.lists(st.integers(1, 4), min_size=1, max_size=2))
    k = draw(st.integers(2, 4))
    n = draw(st.integers(2, 12))
    n_val = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    train_set = (rng.uniform(0, 1, (n, n_in)), rng.integers(0, k, n))
    val_set = (rng.uniform(0, 1, (n_val, n_in)), rng.integers(0, k, n_val))
    cfg = TrainConfig(
        max_epochs=draw(st.integers(1, 40)),
        patience=draw(st.integers(1, 4)),
        goal_mse=draw(st.sampled_from([0.0, 0.05, 0.1, 0.2])),
        learning_rate=draw(st.sampled_from([0.05, 0.5, 2.0])),
        momentum=draw(st.sampled_from([0.0, 0.5, 0.9])),
    )
    return make_net([n_in, *hidden, k], seed), train_set, val_set, cfg


class TestOnePassLoop:
    """train() reuses each epoch's loss pass as the next gradient pass."""

    @given(training_runs())
    @settings(max_examples=80, deadline=None)
    def test_matches_two_pass_loop(self, run):
        assert_train_matches_two_pass(*run)

    @pytest.mark.parametrize("stop,overrides", [
        ("goal_reached", {"patience": 4000, "goal_mse": 0.05}),
        ("patience_exhausted", {}),
        ("max_epochs", {"max_epochs": 30, "patience": 30}),
    ])
    def test_every_stop_reason(self, stop, overrides):
        X, y, Xv, yv = _overfit_data()
        cfg = replace(_overfit_config(), **overrides)
        history = assert_train_matches_two_pass(make_net([2, 6, 2], seed=0),
                                                (X, y), (Xv, yv), cfg)
        assert history.stop_reason == stop

    def test_on_epoch_sees_every_epoch(self, overfit_run):
        _, history, _ = overfit_run
        X, y, Xv, yv = _overfit_data()
        calls = []
        train(make_net([2, 6, 2], seed=0), (X, y), (Xv, yv), _overfit_config(),
              on_epoch=lambda *args: calls.append(args))
        assert [c[0] for c in calls] == list(range(1, history.n_epochs + 1))
        assert [c[1] for c in calls] == history.train_mse
        assert [c[2] for c in calls] == history.val_mse
        assert calls[-1][3] == 6  # the stop came at the sixth failure


class TestPatienceTracker:
    def test_constructed_curve_unique_min_then_six_rising(self):
        # strictly falling to a unique minimum at epoch 10, then rising
        curve = [1.0 - 0.05 * e for e in range(1, 11)]
        curve += [curve[-1] + 0.01 * j for j in range(1, 7)]
        tracker = PatienceTracker(patience=6)
        stopped_at = None
        for epoch, val in enumerate(curve, start=1):
            if tracker.update(epoch, val):
                stopped_at = epoch
                break
        assert stopped_at == 16
        assert tracker.best_epoch == 10
        assert tracker.best_val == pytest.approx(curve[9])
        assert tracker.failures == 6

    def test_recovery_resets_counter(self):
        tracker = PatienceTracker(patience=3)
        values = [1.0, 1.1, 1.2, 0.9, 1.0, 1.1, 1.2]
        stops = [tracker.update(e, v) for e, v in enumerate(values, start=1)]
        assert stops == [False, False, False, False, False, False, True]
        assert tracker.best_epoch == 4

    def test_equal_value_is_not_a_failure(self):
        tracker = PatienceTracker(patience=2)
        assert not tracker.update(1, 1.0)
        assert not tracker.update(2, 1.0)  # tie: no failure, no new best
        assert not tracker.update(3, 1.1)
        assert tracker.update(4, 1.1)  # two consecutive exceedances
        assert tracker.best_epoch == 1
        assert tracker.best_val == 1.0


class TestPredictClass:
    def test_zero_network_ties_to_lowest_index(self):
        net = zero_net([41, 5, 6])
        assert predict_class(net, np.zeros(41)) == 0

    def test_argmax_of_output(self):
        # output biases chosen so softmax = (0.1, 0.7, 0.05, 0.05, 0.05, 0.05)
        net = zero_net([3, 2, 6])
        probs = np.array([0.1, 0.7, 0.05, 0.05, 0.05, 0.05])
        net.biases[1][:] = np.log(probs)
        out = forward(net, np.zeros(3))
        np.testing.assert_allclose(out, probs, atol=1e-12)
        assert predict_class(net, np.zeros(3)) == 1

    @given(shift=st.floats(min_value=-50, max_value=50, allow_nan=False))
    @settings(max_examples=30)
    def test_shift_invariance(self, shift):
        net = make_net([4, 3, 5], seed=9)
        x = np.random.default_rng(9).uniform(0, 1, 4)
        before = predict_class(net, x)
        net.biases[-1][:] += shift
        assert predict_class(net, x) == before
