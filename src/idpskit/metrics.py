"""Evaluation: confusion matrices, success/failure rates, ROC, alarms.

The alarm taxonomy binarizes predictions into attack (any nonzero class)
versus normal: an alarm on a genuine attack is a true positive even when
the predicted attack type is wrong.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .exceptions import DegenerateClassError
from .mlp import Network, forward, loss_mse
from .preprocessing import one_hot_matrix
from .validation import check_consistent_length, check_labels

TRUE_POSITIVE = "true_positive"
FALSE_POSITIVE = "false_positive"
FALSE_NEGATIVE = "false_negative"
TRUE_NEGATIVE = "true_negative"


def confusion(preds, labels, k: int) -> np.ndarray:
    """K x K count matrix, rows = actual class, columns = predicted."""
    preds = check_labels(preds, k, name="preds")
    labels = check_labels(labels, k, name="labels")
    check_consistent_length(preds, labels)
    cm = np.zeros((k, k), dtype=np.int64)
    np.add.at(cm, (labels, preds), 1)
    return cm


def accuracy(cm: np.ndarray):
    """(success_rate, failure_rate) = (trace/total, 1 - trace/total)."""
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total == 0:
        raise ValueError("confusion matrix is empty")
    success = float(np.trace(cm)) / total
    return success, 1.0 - success


@dataclass(frozen=True)
class RocCurve:
    """Threshold sweep points (fpr, tpr, threshold) and the trapezoid AUC."""

    points: tuple
    auc: float


def roc(scores, positives) -> RocCurve:
    """ROC over descending distinct score thresholds.

    Samples with equal scores change state together, giving the standard
    staircase with diagonal segments through tied blocks. The curve starts
    at (0, 0) with an above-max sentinel threshold and ends at (1, 1).
    Scores must be finite (ValueError otherwise): NaN has no place in the
    descending order.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    check_consistent_length(scores, positives)
    if not np.isfinite(scores).all():
        raise ValueError("ROC scores must be finite")
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateClassError(
            f"need both classes, got {n_pos} positives / {n_neg} negatives"
        )
    order = np.argsort(-scores, kind="stable")
    s, p = scores[order], positives[order]
    # one curve point per tie block, taken at the block's last sample
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), len(s) - 1)
    starts = np.append(0, ends[:-1] + 1)
    tp = np.cumsum(p, dtype=np.int64)[ends]
    fp = ends + 1 - tp
    tp_prev = np.append(0, tp[:-1])
    fp_prev = np.append(0, fp[:-1])
    tpr, fpr = tp / n_pos, fp / n_neg
    terms = (fpr - fp_prev / n_neg) * (tpr + tp_prev / n_pos) / 2.0
    # cumsum adds in order, as the trapezoid sweep does; np.sum adds
    # pairwise and can change the last bits of the AUC
    auc = float(np.cumsum(terms)[-1])
    points = [(0.0, 0.0, float("inf"))]
    points.extend(zip(fpr.tolist(), tpr.tolist(), s[starts].tolist()))
    return RocCurve(points=tuple(points), auc=auc)


def auc_pair_count(scores, positives) -> float:
    """Mann-Whitney pair-counting AUC: the brute-force oracle for roc()."""
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    pos = scores[positives]
    neg = scores[~positives]
    if len(pos) == 0 or len(neg) == 0:
        raise DegenerateClassError("need both classes")
    wins = ties = 0
    for sp in pos:
        wins += int(np.sum(sp > neg))
        ties += int(np.sum(sp == neg))
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def alarm_outcome(predicted: int, actual: int) -> str:
    """Four-way alarm outcome after binarizing to attack (class != 0)."""
    pred_attack = predicted != 0
    act_attack = actual != 0
    if pred_attack and act_attack:
        return TRUE_POSITIVE
    if pred_attack:
        return FALSE_POSITIVE
    if act_attack:
        return FALSE_NEGATIVE
    return TRUE_NEGATIVE


@dataclass(frozen=True)
class AlarmTally:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


def alarm_tally(preds, labels) -> AlarmTally:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    check_consistent_length(preds, labels)
    pa = preds != 0
    aa = labels != 0
    return AlarmTally(
        tp=int(np.sum(pa & aa)),
        fp=int(np.sum(pa & ~aa)),
        fn=int(np.sum(~pa & aa)),
        tn=int(np.sum(~pa & ~aa)),
    )


@dataclass(frozen=True)
class EvaluationReport:
    """Everything measured on one partition.

    The ROC curves are built on first access from the stored softmax
    outputs and labels, so a report whose curves nobody reads costs none.
    """

    confusion: np.ndarray
    success_rate: float
    failure_rate: float
    mse: float
    alarms: AlarmTally
    probs: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)

    @cached_property
    def class_roc(self) -> dict:
        """Class id -> one-vs-rest RocCurve; None where the partition lacks
        either positives or negatives of that class."""
        out = {}
        for c in range(self.probs.shape[1]):
            positives = self.labels == c
            if 0 < positives.sum() < len(self.labels):
                out[c] = roc(self.probs[:, c], positives)
            else:
                out[c] = None
        return out

    @cached_property
    def attack_roc(self) -> RocCurve | None:
        """1 - P(normal) against actual attack presence, or None."""
        attack_pos = self.labels != 0
        if 0 < attack_pos.sum() < len(self.labels):
            return roc(1.0 - self.probs[:, 0], attack_pos)
        return None


def evaluate(net: Network, partition, k: int) -> EvaluationReport:
    """Evaluate a network on one already-scaled partition.

    Per-class ROC uses the softmax output of that class as the score,
    one-vs-rest; classes without both positives and negatives in the
    partition get None. The attack ROC scores 1 - P(normal) against
    actual attack presence. Both are built when first read.
    """
    X = np.asarray(partition.X, dtype=np.float64)
    y = check_labels(partition.y, k, name="partition.y")
    probs = forward(net, X)
    preds = np.argmax(probs, axis=1).astype(np.int64)
    cm = confusion(preds, y, k)
    success, failure = accuracy(cm)
    mse = loss_mse(probs, one_hot_matrix(y, k))
    return EvaluationReport(
        confusion=cm,
        success_rate=success,
        failure_rate=failure,
        mse=mse,
        alarms=alarm_tally(preds, y),
        probs=probs,
        labels=y,
    )
