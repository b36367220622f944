import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idpskit.exceptions import DegenerateClassError
from idpskit.ingest import Dataset
from idpskit.metrics import (
    FALSE_NEGATIVE,
    FALSE_POSITIVE,
    TRUE_NEGATIVE,
    TRUE_POSITIVE,
    accuracy,
    alarm_outcome,
    alarm_tally,
    auc_pair_count,
    confusion,
    evaluate,
    roc,
)
from idpskit.mlp import NetworkLayout, init_network


def staircase_roc(scores, positives):
    """Reference for roc(): a Python sweep over the tie blocks.

    Returns (points, auc) from the same float operations in the same
    order as roc(), so the two must agree bit for bit.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    n_pos = int(positives.sum())
    n_neg = len(positives) - n_pos
    order = np.argsort(-scores, kind="stable")
    s, p = scores[order], positives[order]
    points = [(0.0, 0.0, float("inf"))]
    tp = fp = 0
    auc = 0.0
    i = 0
    n = len(s)
    while i < n:
        j = i
        while j < n and s[j] == s[i]:
            j += 1
        tp_prev, fp_prev = tp, fp
        tp += int(p[i:j].sum())
        fp += (j - i) - int(p[i:j].sum())
        tpr, fpr = tp / n_pos, fp / n_neg
        auc += (fpr - fp_prev / n_neg) * (tpr + tp_prev / n_pos) / 2.0
        points.append((fpr, tpr, float(s[i])))
        i = j
    return tuple(points), auc


class TestConfusion:
    def test_all_correct_is_diagonal(self):
        labels = np.arange(10) % 3
        cm = confusion(labels, labels, 3)
        assert cm.sum() == 10
        assert np.trace(cm) == 10

    def test_spec_cells(self):
        cm = confusion([1, 1], [0, 1], 2)
        assert cm[0, 1] == 1
        assert cm[1, 1] == 1
        assert cm.sum() == 2

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0], 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            confusion([0, 2], [0, 1], 2)

    @given(
        n=st.integers(min_value=1, max_value=200),
        k=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50)
    def test_total_equals_sample_count(self, n, k, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, k, n)
        labels = rng.integers(0, k, n)
        assert confusion(preds, labels, k).sum() == n


class TestAccuracy:
    def test_diagonal_only(self):
        assert accuracy(np.diag([3, 4, 5])) == (1.0, 0.0)

    def test_spec_two_by_two(self):
        success, failure = accuracy(np.array([[3, 1], [1, 3]]))
        assert success == 0.75
        assert failure == 0.25

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.zeros((2, 2), dtype=np.int64))

    @given(
        n=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50)
    def test_matches_direct_match_rate(self, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 4, n)
        labels = rng.integers(0, 4, n)
        success, failure = accuracy(confusion(preds, labels, 4))
        direct = float(np.mean(preds == labels))
        assert abs(success - direct) < 1e-12
        assert abs(success + failure - 1.0) < 1e-12

    @given(
        n=st.integers(min_value=2, max_value=100),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50)
    def test_additivity_over_partitions(self, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 5, n)
        labels = rng.integers(0, 5, n)
        cut = n // 2
        combined = confusion(preds, labels, 5)
        part = (confusion(preds[:cut], labels[:cut], 5)
                + confusion(preds[cut:], labels[cut:], 5))
        np.testing.assert_array_equal(combined, part)


class TestRoc:
    def test_perfect_separation(self):
        curve = roc([0.9, 0.8, 0.2, 0.1], [True, True, False, False])
        assert curve.auc == 1.0
        assert (0.0, 1.0) in {(p[0], p[1]) for p in curve.points}

    def test_identical_scores_auc_half(self):
        curve = roc([0.5] * 6, [True, False, True, False, True, False])
        assert curve.auc == 0.5
        assert [(p[0], p[1]) for p in curve.points] == [(0, 0), (1, 1)]

    def test_spec_example_auc(self):
        curve = roc([0.9, 0.8, 0.7, 0.6], [True, False, True, False])
        assert abs(curve.auc - 0.75) < 1e-12
        assert abs(auc_pair_count([0.9, 0.8, 0.7, 0.6],
                                  [True, False, True, False]) - 0.75) < 1e-12

    def test_starts_and_ends(self):
        curve = roc([0.3, 0.6, 0.1], [True, False, True])
        assert curve.points[0][:2] == (0.0, 0.0)
        assert curve.points[-1][:2] == (1.0, 1.0)
        assert curve.points[0][2] == float("inf")

    def test_degenerate(self):
        with pytest.raises(DegenerateClassError):
            roc([0.1, 0.2], [True, True])
        with pytest.raises(DegenerateClassError):
            roc([0.1, 0.2], [False, False])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_scores_raise(self, bad):
        with pytest.raises(ValueError, match="finite"):
            roc([0.2, bad, 0.5], [True, False, False])

    @given(
        n=st.integers(min_value=2, max_value=100),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_monotone_and_matches_pair_counting(self, n, seed):
        rng = np.random.default_rng(seed)
        # coarse scores force plenty of ties
        scores = rng.integers(0, 5, n) / 4.0
        positives = rng.random(n) < 0.5
        if positives.all() or not positives.any():
            positives[0] = not positives[0]
        curve = roc(scores, positives)
        fprs = [p[0] for p in curve.points]
        tprs = [p[1] for p in curve.points]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))
        assert abs(curve.auc - auc_pair_count(scores, positives)) < 1e-9


def _labels_with_both_classes(rng, n):
    positives = rng.random(n) < rng.uniform(0.05, 0.95)
    if positives.all() or not positives.any():
        positives[0] = not positives[0]
    return positives


def _assert_same_curve(scores, positives):
    curve = roc(scores, positives)
    points, auc = staircase_roc(scores, positives)
    # exact equality, repr included: the CSVs print these with !r
    assert repr(curve.points) == repr(points)
    assert repr(curve.auc) == repr(auc)
    assert abs(curve.auc - auc_pair_count(scores, positives)) < 1e-9


class TestRocMatchesStaircase:
    @given(
        n=st.integers(min_value=2, max_value=300),
        levels=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=150)
    def test_heavy_ties(self, n, levels, seed):
        rng = np.random.default_rng(seed)
        scores = rng.integers(0, levels, n) / max(levels - 1, 1)
        _assert_same_curve(scores, _labels_with_both_classes(rng, n))

    @given(
        n=st.integers(min_value=2, max_value=200),
        value=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=50)
    def test_single_tied_block(self, n, value, seed):
        rng = np.random.default_rng(seed)
        positives = _labels_with_both_classes(rng, n)
        _assert_same_curve(np.full(n, value), positives)
        assert len(roc(np.full(n, value), positives).points) == 2

    @given(
        n=st.integers(min_value=2, max_value=500),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=100)
    def test_all_distinct_scores(self, n, seed):
        rng = np.random.default_rng(seed)
        scores = rng.permutation(n) / n
        positives = _labels_with_both_classes(rng, n)
        _assert_same_curve(scores, positives)
        assert len(roc(scores, positives).points) == n + 1

    def test_signed_zero_threshold_is_first_of_block(self):
        # 0.0 == -0.0 forms one tie block; its threshold is the first
        # sorted score, as the sweep printed it
        _assert_same_curve([0.0, -0.0, 1.0, -0.0], [True, False, True, False])
        _assert_same_curve([-0.0, 0.0, 1.0, 0.0], [True, False, True, False])


class TestAlarms:
    @pytest.mark.parametrize(
        "predicted,actual,expected",
        [
            (1, 2, TRUE_POSITIVE),     # wrong attack type still an alarm hit
            (1, 1, TRUE_POSITIVE),
            (3, 0, FALSE_POSITIVE),
            (0, 4, FALSE_NEGATIVE),
            (0, 0, TRUE_NEGATIVE),
        ],
    )
    def test_outcomes(self, predicted, actual, expected):
        assert alarm_outcome(predicted, actual) == expected

    @given(
        n=st.integers(min_value=1, max_value=200),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=50)
    def test_tally_totals(self, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 6, n)
        labels = rng.integers(0, 6, n)
        tally = alarm_tally(preds, labels)
        assert tally.total == n
        per_record = [alarm_outcome(int(p), int(a))
                      for p, a in zip(preds, labels)]
        assert tally.tp == per_record.count(TRUE_POSITIVE)
        assert tally.fp == per_record.count(FALSE_POSITIVE)
        assert tally.fn == per_record.count(FALSE_NEGATIVE)
        assert tally.tn == per_record.count(TRUE_NEGATIVE)


class TestEvaluate:
    def _random_partition(self, n, seed, k=6, width=8):
        rng = np.random.default_rng(seed)
        return Dataset(X=rng.uniform(0, 1, size=(n, width)),
                       y=rng.integers(0, k, size=n))

    def test_combined_equals_cellwise_sum(self):
        net = init_network(NetworkLayout(8, (5,), 6), seed=0)
        parts = [self._random_partition(n, seed) for n, seed in
                 [(40, 1), (30, 2), (20, 3)]]
        combined = Dataset(
            X=np.concatenate([p.X for p in parts]),
            y=np.concatenate([p.y for p in parts]),
        )
        total = sum(evaluate(net, p, 6).confusion for p in parts)
        np.testing.assert_array_equal(evaluate(net, combined, 6).confusion,
                                      total)

    def test_perfect_model_zero_failure(self):
        # a zero network predicts class 0 everywhere; an all-normal
        # partition is then classified perfectly
        net = init_network(NetworkLayout(4, (3,), 6), seed=0)
        for w in net.weights:
            w[:] = 0.0
        part = Dataset(X=np.random.default_rng(0).uniform(0, 1, (25, 4)),
                       y=np.zeros(25, dtype=np.int64))
        report = evaluate(net, part, 6)
        assert report.failure_rate == 0.0
        assert report.success_rate == 1.0
        assert report.alarms.tn == 25

    def test_absent_class_roc_is_none(self):
        net = init_network(NetworkLayout(4, (3,), 6), seed=1)
        part = Dataset(X=np.random.default_rng(1).uniform(0, 1, (30, 4)),
                       y=np.random.default_rng(2).integers(0, 3, 30))
        report = evaluate(net, part, 6)
        assert report.class_roc[5] is None
        assert report.class_roc[0] is not None

    def test_alarm_and_mse_fields(self):
        net = init_network(NetworkLayout(4, (3,), 6), seed=1)
        part = self._random_partition(50, 9, width=4)
        report = evaluate(net, part, 6)
        assert report.alarms.total == 50
        assert 0.0 <= report.mse <= 1.0
        assert report.confusion.sum() == 50

    def test_curves_built_on_first_read_only(self, monkeypatch):
        import idpskit.metrics as metrics

        built = []
        real_roc = metrics.roc
        monkeypatch.setattr(metrics, "roc",
                            lambda *a: built.append(1) or real_roc(*a))
        net = init_network(NetworkLayout(4, (3,), 6), seed=1)
        part = Dataset(X=np.random.default_rng(1).uniform(0, 1, (30, 4)),
                       y=np.random.default_rng(2).integers(0, 3, 30))
        report = evaluate(net, part, 6)
        assert built == []
        curves = report.class_roc
        assert len(built) == sum(c is not None for c in curves.values()) == 3
        assert report.attack_roc is report.attack_roc
        assert report.class_roc is curves
        assert len(built) == 4
        positives = part.y != 0
        expected = roc(1.0 - report.probs[:, 0], positives)
        assert report.attack_roc == expected
