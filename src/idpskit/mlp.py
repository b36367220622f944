"""Multilayer perceptron: tanh hidden layers, softmax output, MSE objective.

Training is full-batch gradient descent with classical momentum and
validation-based early stopping: an epoch whose validation MSE exceeds the
best seen so far counts as a validation failure, and training stops after
`patience` consecutive failures, restoring the best-epoch weights.
Everything is deterministic given (seed, data, config).

Activations are feature-major, (units, rows). The weight gradients add
their sums over training rows in fixed blocks, in order, and the other row
sums are numpy's own, which use no threads. With the bundled OpenBLAS
0.3.31 the trained bits are the same at 1, 2 and 3 BLAS threads; more
threads and other BLAS builds are unverified.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import TrainingDivergedError
from .preprocessing import one_hot_matrix
from .validation import check_feature_array

# Rows per block in the sums over training rows, added in order. A whole
# product's bits follow how OpenBLAS splits it among threads; a block's
# did not, up to a size: with OpenBLAS 0.3.31 on a 2-core x86_64 host,
# blocks of 256 to 2048 rows gave the same bits at 1, 2 and 3 threads and
# 4096-row blocks did not. 1024 is as fast as 2048 and leaves a margin
# below that edge. Other thread counts and builds are unverified.
GRAD_BLOCK = 1024


@dataclass(frozen=True)
class NetworkLayout:
    input_size: int
    hidden_sizes: tuple
    output_size: int

    def __post_init__(self):
        sizes = (self.input_size, *self.hidden_sizes, self.output_size)
        if len(self.hidden_sizes) < 1:
            raise ValueError("at least one hidden layer is required")
        if any(int(s) <= 0 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        object.__setattr__(self, "hidden_sizes", tuple(int(h) for h in self.hidden_sizes))

    @property
    def sizes(self):
        return (self.input_size, *self.hidden_sizes, self.output_size)


@dataclass
class Network:
    """Per-layer weight matrices (fan_out x fan_in) and bias vectors."""

    weights: list
    biases: list
    layout: NetworkLayout

    def copy(self):
        return Network(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            layout=self.layout,
        )

    @property
    def n_layers(self):
        return len(self.weights)


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    seed is carried only for the model file and the run manifest:
    init_network takes its seed explicitly, and train() never reads it.
    """

    max_epochs: int = 1000
    patience: int = 6
    goal_mse: float = 0.01
    learning_rate: float = 0.01
    momentum: float = 0.9
    seed: int = 0

    def __post_init__(self):
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be positive and finite")
        if not math.isfinite(self.goal_mse):
            raise ValueError("goal_mse must be finite")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")


@dataclass
class TrainHistory:
    """Per-epoch losses (1-based epochs) and the early-stopping outcome."""

    train_mse: list = field(default_factory=list)
    val_mse: list = field(default_factory=list)
    best_epoch: int = 0
    best_val_mse: float = float("inf")
    stop_reason: str = ""

    @property
    def n_epochs(self):
        return len(self.train_mse)


def init_network(layout: NetworkLayout, seed: int) -> Network:
    """Uniform init in +-sqrt(6/(fan_in+fan_out)) per layer, biases zero."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    sizes = layout.sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return Network(weights=weights, biases=biases, layout=layout)


def _softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the units axis (-2), computed in place in z.

    On a (units, rows) array numpy adds the units in index order.
    """
    z -= z.max(axis=-2, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-2, keepdims=True)
    return z


def _forward_all(net: Network, A: np.ndarray):
    """Return the list of layer activations, input first, softmax last.

    The layout is feature-major: A is (features, rows), usually X.T as a
    view, or a stack (n, features, 1); every activation keeps its units on
    axis -2 and its rows on axis -1.
    """
    activations = [A]
    last = net.n_layers - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = W @ A
        z += b[:, None]
        A = _softmax(z) if l == last else np.tanh(z, out=z)
        activations.append(A)
    return activations


def forward(net: Network, x) -> np.ndarray:
    """Network output for one input vector, one row per input, or a stack.

    A stack has shape (n, 1, input_size) and gives (n, 1, output_size).
    numpy multiplies each (input_size, 1) column of a stack on its own, as
    it does one vector, so every row's output has the bits that row gets
    alone. A 2-D batch is one matrix product, whose last bits may differ.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3 and x.shape[1] == 1:
        check_feature_array(x[:, 0, :], n_features=net.layout.input_size)
        out = _forward_all(net, x.transpose(0, 2, 1))[-1]
        return out.transpose(0, 2, 1)
    X = check_feature_array(x, n_features=net.layout.input_size)
    out = _forward_all(net, X.T)[-1].T
    return out[0] if x.ndim == 1 else out


def loss_mse(outputs, targets) -> float:
    """Mean of squared errors over all samples and all output components."""
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if outputs.shape != targets.shape:
        raise ValueError(f"shape mismatch: {outputs.shape} vs {targets.shape}")
    return float(np.mean((outputs - targets) ** 2))


def _row_block_sum(dz: np.ndarray, A: np.ndarray) -> np.ndarray:
    """dz @ A.T as a sum over GRAD_BLOCK-row blocks, added in order."""
    n = dz.shape[1]
    out = dz[:, :GRAD_BLOCK] @ A[:, :GRAD_BLOCK].T
    for s in range(GRAD_BLOCK, n, GRAD_BLOCK):
        out += dz[:, s:s + GRAD_BLOCK] @ A[:, s:s + GRAD_BLOCK].T
    return out


def _batch_gradients(net: Network, activations: list, T: np.ndarray):
    """Exact gradients of loss_mse(forward(X), T) w.r.t. weights and biases.

    activations is _forward_all(net, X.T) at the current weights and T the
    (rows, k) targets. Each hidden activation is overwritten with its
    layer's delta once the weight gradient above it has been taken.
    """
    n, k = T.shape
    y = activations[-1]
    # d loss / d softmax-input, through the softmax Jacobian
    e = y - T.T
    e *= 2.0
    e /= n * k
    dz = e - (e * y).sum(axis=0)
    dz *= y
    dws = [None] * net.n_layers
    dbs = [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        a_prev = activations[l]
        dws[l] = _row_block_sum(dz, a_prev)
        dbs[l] = dz.sum(axis=1)
        if l > 0:
            da = net.weights[l].T @ dz
            a_prev *= a_prev
            np.subtract(1.0, a_prev, out=a_prev)
            a_prev *= da
            dz = a_prev
    return dws, dbs


def backward(net: Network, x, target):
    """Per-sample gradients: (dW list, db list) for one (input, target) pair."""
    X = check_feature_array(x, n_features=net.layout.input_size)
    T = np.asarray(target, dtype=np.float64).reshape(1, -1)
    return _batch_gradients(net, _forward_all(net, X.T), T)


class PatienceTracker:
    """Consecutive-validation-failure counter with best-epoch bookkeeping.

    A failure is an epoch whose validation MSE exceeds the best seen so
    far; a new best resets the count. ``update`` returns True when the
    failure count reaches the patience limit.
    """

    def __init__(self, patience: int):
        self.patience = patience
        self.best_val = float("inf")
        self.best_epoch = 0
        self.failures = 0

    def update(self, epoch: int, val_mse: float) -> bool:
        if val_mse < self.best_val:
            self.best_val = val_mse
            self.best_epoch = epoch
            self.failures = 0
        elif val_mse > self.best_val:
            self.failures += 1
        else:
            self.failures = 0
        return self.failures >= self.patience


def train(net: Network, train_set, val_set, cfg: TrainConfig, on_epoch=None):
    """Gradient-descent training with momentum and early stopping.

    train_set and val_set are (X, y) pairs or Dataset-like objects with
    .X/.y, already scaled. Returns (best network, TrainHistory); the
    returned network carries the weights of the best validation epoch.
    on_epoch, if given, is called after every epoch as
    on_epoch(epoch, train_mse, val_mse, failures).

    Each epoch takes one full-batch gradient step. The forward pass that
    gives an epoch's train loss is also the next epoch's gradient pass, so
    each epoch makes one forward pass over the training rows.
    """
    Xtr, ytr = _as_xy(train_set)
    Xva, yva = _as_xy(val_set)
    if len(Xtr) == 0 or len(Xva) == 0:
        raise ValueError("train and validation partitions must be non-empty")
    k = net.layout.output_size
    Ttr = one_hot_matrix(ytr, k)
    Tva = one_hot_matrix(yva, k)

    net = net.copy()
    vel_w = [np.zeros_like(w) for w in net.weights]
    vel_b = [np.zeros_like(b) for b in net.biases]
    history = TrainHistory()
    tracker = PatienceTracker(cfg.patience)
    best_net = net.copy()
    acts = _forward_all(net, Xtr.T)

    for epoch in range(1, cfg.max_epochs + 1):
        dws, dbs = _batch_gradients(net, acts, Ttr)
        for l in range(net.n_layers):
            vel_w[l] = cfg.momentum * vel_w[l] - cfg.learning_rate * dws[l]
            vel_b[l] = cfg.momentum * vel_b[l] - cfg.learning_rate * dbs[l]
            net.weights[l] += vel_w[l]
            net.biases[l] += vel_b[l]

        acts = None  # release the pre-update activations before the new pass
        acts = _forward_all(net, Xtr.T)
        train_mse = loss_mse(acts[-1], Ttr.T)
        val_mse = loss_mse(_forward_all(net, Xva.T)[-1], Tva.T)
        if not (np.isfinite(train_mse) and np.isfinite(val_mse)):
            raise TrainingDivergedError(
                f"non-finite loss at epoch {epoch} "
                f"(train={train_mse}, val={val_mse})"
            )
        history.train_mse.append(train_mse)
        history.val_mse.append(val_mse)

        exhausted = tracker.update(epoch, val_mse)
        if on_epoch is not None:
            on_epoch(epoch, train_mse, val_mse, tracker.failures)
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
    history.best_val_mse = tracker.best_val
    return best_net, history


def _as_xy(part):
    if hasattr(part, "X"):
        return np.asarray(part.X, dtype=np.float64), np.asarray(part.y)
    X, y = part
    return np.asarray(X, dtype=np.float64), np.asarray(y)


def predict_class(net: Network, x):
    """Argmax of the network output; ties break to the lowest index."""
    out = forward(net, x)
    if out.ndim == 1:
        return int(np.argmax(out))
    return np.argmax(out, axis=1).astype(np.int64)
