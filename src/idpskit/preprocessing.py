"""Dataset splitting, feature scaling, and target encoding."""

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .exceptions import DegenerateSplitError
from .ingest import Dataset
from .validation import check_feature_array


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions plus the shuffle seed."""

    train_fraction: float = 0.70
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f <= 0 for f in fracs):
            raise ValueError("split fractions must be positive")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions sum to {sum(fracs)!r}, not 1")


def _round_half_up_product(n: int, fraction: float) -> int:
    # Exact decimal rounding: 311030 * 0.15 must give 46655, which float
    # products can miss by one ulp. Recover the intended rational first.
    frac = Fraction(fraction).limit_denominator(10**6)
    return int(n * frac + Fraction(1, 2))


def split_dataset(d: Dataset, spec: SplitSpec, shuffle: bool = True):
    """Partition a dataset into (train, val, test).

    Validation and test sizes are round-half-up of n*fraction; train gets
    the remainder. Order is a deterministic permutation of the record
    order seeded by spec.seed (or the file order itself when shuffle is
    off), assigned train first, then val, then test.
    """
    n = len(d)
    if n < 3:
        raise DegenerateSplitError(f"need at least 3 records, got {n}")
    n_val = _round_half_up_product(n, spec.val_fraction)
    n_test = _round_half_up_product(n, spec.test_fraction)
    n_train = n - n_val - n_test
    if n_train <= 0 or n_val <= 0 or n_test <= 0:
        raise DegenerateSplitError(
            f"split of {n} gives sizes ({n_train}, {n_val}, {n_test})"
        )
    if shuffle:
        order = np.random.default_rng(spec.seed).permutation(n)
    else:
        order = np.arange(n)
    parts = (
        order[:n_train],
        order[n_train:n_train + n_val],
        order[n_train + n_val:],
    )
    return tuple(Dataset(X=d.X[idx], y=d.y[idx]) for idx in parts)


class RangeScaler:
    """Per-feature min-max scaler onto [0, 1] with clamping.

    Fit on the training partition only. A constant feature (min == max)
    maps to 0.0 regardless of input. Values outside the training range
    clamp to the interval ends.
    """

    def __init__(self):
        self.min_ = None
        self.max_ = None

    def get_params(self, deep=True):
        return {}

    def set_params(self, **params):
        if params:
            raise ValueError(f"unknown parameters: {sorted(params)}")
        return self

    def fit(self, X):
        X = check_feature_array(X)
        if X.shape[0] == 0:
            raise ValueError("cannot fit a scaler on an empty dataset")
        self.min_ = X.min(axis=0)
        self.max_ = X.max(axis=0)
        return self

    def _check_fitted(self, X, name):
        if self.min_ is None:
            raise ValueError("scaler is not fitted")
        return check_feature_array(X, n_features=len(self.min_), name=name)

    def transform(self, X):
        """Scale rows into [0, 1]; a single vector gives a vector."""
        vector = np.ndim(X) == 1
        X = self._check_fitted(X, "X")
        span = self.max_ - self.min_
        safe = np.where(span > 0, span, 1.0)
        out = (X - self.min_) / safe
        out[:, span == 0] = 0.0
        out = np.clip(out, 0.0, 1.0)
        return out[0] if vector else out

    def fit_transform(self, X):
        return self.fit(X).transform(X)

    def inverse_transform(self, X):
        """Map scaled values back; constant features recover their min."""
        X = self._check_fitted(X, "X")
        return X * (self.max_ - self.min_) + self.min_


def fit_scaler(train: Dataset) -> RangeScaler:
    return RangeScaler().fit(train.X)


def one_hot(label: int, k: int) -> np.ndarray:
    """k-vector with 1.0 at the label index."""
    if not 0 <= label < k:
        raise ValueError(f"label {label} outside [0, {k - 1}]")
    vec = np.zeros(k, dtype=np.float64)
    vec[label] = 1.0
    return vec


def one_hot_matrix(labels, k: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels outside [0, {k - 1}]")
    out = np.zeros((len(labels), k), dtype=np.float64)
    out[np.arange(len(labels)), labels] = 1.0
    return out
