"""Input validation helpers shared by the estimators and metric functions."""

import numpy as np


def check_feature_array(X, n_features=None, name="X"):
    """Coerce X to a 2-D float64 array and verify shape and finiteness.

    A single vector is promoted to a 1-row matrix.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X.reshape(1, -1)
    if X.ndim != 2:
        raise ValueError(f"{name} must be 1-D or 2-D, got ndim={X.ndim}")
    if n_features is not None and X.shape[1] != n_features:
        raise ValueError(
            f"{name} has {X.shape[1]} features, expected {n_features}"
        )
    if not np.isfinite(X).all():
        raise ValueError(f"{name} contains non-finite values")
    return X


def check_labels(y, n_classes=None, name="y"):
    """Coerce y to a 1-D int64 array, optionally verifying the class range."""
    y = np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got ndim={y.ndim}")
    if y.size and not np.issubdtype(y.dtype, np.integer):
        rounded = np.rint(np.asarray(y, dtype=np.float64))
        if not np.array_equal(rounded, np.asarray(y, dtype=np.float64)):
            raise ValueError(f"{name} must contain integer class ids")
        y = rounded
    y = y.astype(np.int64)
    if n_classes is not None and y.size:
        if y.min() < 0 or y.max() >= n_classes:
            raise ValueError(
                f"{name} has class ids outside [0, {n_classes - 1}]"
            )
    return y


def check_consistent_length(*arrays):
    lengths = {len(a) for a in arrays}
    if len(lengths) > 1:
        raise ValueError(f"inconsistent lengths: {sorted(lengths)}")
