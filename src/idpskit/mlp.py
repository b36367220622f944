"""Multilayer perceptron: tanh hidden layers, softmax output, MSE objective.

Training is full-batch gradient descent with classical momentum and
validation-based early stopping: an epoch whose validation MSE exceeds the
best seen so far counts as a validation failure, and training stops after
`patience` consecutive failures, restoring the best-epoch weights.
Everything is deterministic given (seed, data, config).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .exceptions import TrainingDivergedError
from .preprocessing import one_hot_matrix
from .validation import check_feature_array, check_labels, check_consistent_length


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


def softmax(z: np.ndarray) -> np.ndarray:
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_all(net: Network, X: np.ndarray):
    """Return the list of layer activations, input first, softmax last."""
    activations = [X]
    a = X
    last = net.n_layers - 1
    for l, (W, b) in enumerate(zip(net.weights, net.biases)):
        z = a @ W.T + b
        a = softmax(z) if l == last else np.tanh(z)
        activations.append(a)
    return activations


def forward(net: Network, x) -> np.ndarray:
    """Network output for one input vector, one row per input, or a stack.

    A stack has shape (n, 1, input_size) and gives (n, 1, output_size).
    numpy multiplies each (1, input_size) matrix of a stack on its own, as
    it does one vector, so every row's output has the bits that row gets
    alone. A 2-D batch is one matrix product, whose last bits may differ.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 3 and x.shape[1] == 1:
        check_feature_array(x[:, 0, :], n_features=net.layout.input_size)
        return _forward_all(net, x)[-1]
    X = check_feature_array(x, n_features=net.layout.input_size)
    out = _forward_all(net, X)[-1]
    return out[0] if x.ndim == 1 else out


def loss_mse(outputs, targets) -> float:
    """Mean of squared errors over all samples and all output components."""
    outputs = np.asarray(outputs, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if outputs.shape != targets.shape:
        raise ValueError(f"shape mismatch: {outputs.shape} vs {targets.shape}")
    return float(np.mean((outputs - targets) ** 2))


def _batch_gradients(net: Network, activations: list, T: np.ndarray):
    """Exact gradients of loss_mse(forward(X), T) w.r.t. weights and biases.

    activations is _forward_all(net, X) at the current weights.
    """
    n, k = T.shape
    y = activations[-1]
    # d loss / d softmax-input, through the softmax Jacobian
    e = 2.0 * (y - T) / (n * k)
    dz = y * (e - np.sum(e * y, axis=1, keepdims=True))
    dws = [None] * net.n_layers
    dbs = [None] * net.n_layers
    for l in range(net.n_layers - 1, -1, -1):
        a_prev = activations[l]
        dws[l] = dz.T @ a_prev
        dbs[l] = dz.sum(axis=0)
        if l > 0:
            da = dz @ net.weights[l]
            dz = da * (1.0 - activations[l] ** 2)
    return dws, dbs


def backward(net: Network, x, target):
    """Per-sample gradients: (dW list, db list) for one (input, target) pair."""
    X = check_feature_array(x, n_features=net.layout.input_size)
    T = np.asarray(target, dtype=np.float64).reshape(1, -1)
    return _batch_gradients(net, _forward_all(net, X), T)


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
    acts = _forward_all(net, Xtr)

    for epoch in range(1, cfg.max_epochs + 1):
        dws, dbs = _batch_gradients(net, acts, Ttr)
        for l in range(net.n_layers):
            vel_w[l] = cfg.momentum * vel_w[l] - cfg.learning_rate * dws[l]
            vel_b[l] = cfg.momentum * vel_b[l] - cfg.learning_rate * dbs[l]
            net.weights[l] += vel_w[l]
            net.biases[l] += vel_b[l]

        acts = None  # release the pre-update activations before the new pass
        acts = _forward_all(net, Xtr)
        train_mse = loss_mse(acts[-1], Ttr)
        val_mse = loss_mse(_forward_all(net, Xva)[-1], Tva)
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


class MLPClassifier:
    """Estimator-style wrapper around the functional training core.

    fit(X, y, X_val, y_val) trains with early stopping against the given
    validation partition and keeps the best-epoch network in `network_`
    with the run record in `history_`.
    """

    def __init__(self, hidden_sizes=(20,), n_classes=6, learning_rate=0.01,
                 momentum=0.9, patience=6, goal_mse=0.01, max_epochs=1000,
                 seed=0):
        self.hidden_sizes = tuple(hidden_sizes)
        self.n_classes = n_classes
        self.learning_rate = learning_rate
        self.momentum = momentum
        self.patience = patience
        self.goal_mse = goal_mse
        self.max_epochs = max_epochs
        self.seed = seed
        self.network_ = None
        self.history_ = None

    _param_names = ("hidden_sizes", "n_classes", "learning_rate", "momentum",
                    "patience", "goal_mse", "max_epochs", "seed")

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params):
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"unknown parameter {name!r}")
            setattr(self, name, value)
        return self

    def _config(self):
        return TrainConfig(
            max_epochs=self.max_epochs, patience=self.patience,
            goal_mse=self.goal_mse, learning_rate=self.learning_rate,
            momentum=self.momentum, seed=self.seed,
        )

    def fit(self, X, y, X_val, y_val):
        X = check_feature_array(X)
        y = check_labels(y, self.n_classes)
        X_val = check_feature_array(X_val, n_features=X.shape[1], name="X_val")
        y_val = check_labels(y_val, self.n_classes, name="y_val")
        check_consistent_length(X, y)
        check_consistent_length(X_val, y_val)
        layout = NetworkLayout(X.shape[1], self.hidden_sizes, self.n_classes)
        net = init_network(layout, self.seed)
        self.network_, self.history_ = train(net, (X, y), (X_val, y_val),
                                             self._config())
        return self

    def _check_fitted(self):
        if self.network_ is None:
            raise ValueError("classifier is not fitted")

    def predict(self, X):
        self._check_fitted()
        return predict_class(self.network_, check_feature_array(X))

    def predict_proba(self, X):
        self._check_fitted()
        return forward(self.network_, check_feature_array(X))
