"""Tests for confusion matrices, class-wise metrics, ROC/AUC, and the
misclassification histogram."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from oracles import concordance_auc
from voxcnn.errors import ValidationError
from voxcnn.metrics import (
    CLASSES,
    RocCurve,
    auc,
    class_index,
    classwise_csv,
    classwise_metrics,
    confusion_matrix,
    histogram_csv,
    misclassification_histogram,
    overall_accuracy,
    render_confusion,
    roc_csv,
    roc_curve,
)

# Worked one-vs-rest reference for cm rows=predicted, cols=true.
HAND_CM = np.array([[5, 2, 0],
                    [1, 6, 1],
                    [0, 2, 8]])
HAND_METRICS = {
    "AD": {"accuracy": 22 / 25, "precision": 5 / 7, "sensitivity": 5 / 6,
           "specificity": 17 / 19, "f1": 10 / 13},
    "MCI": {"accuracy": 19 / 25, "precision": 3 / 4, "sensitivity": 3 / 5,
            "specificity": 13 / 15, "f1": 2 / 3},
    "CN": {"accuracy": 22 / 25, "precision": 4 / 5, "sensitivity": 8 / 9,
           "specificity": 7 / 8, "f1": 16 / 19},
}


class TestConfusionMatrix:
    def test_diagonal_when_perfect(self):
        """Matching predictions fill only the diagonal."""
        labels = [0, 0, 1, 2, 2, 2]
        cm = confusion_matrix(labels, labels)
        assert (cm == np.diag([2, 1, 3])).all()

    def test_small_hand_example(self):
        """labels (AD,AD,CN) vs predictions (AD,MCI,CN)."""
        cm = confusion_matrix([0, 1, 2], [0, 0, 2])
        assert cm[0, 0] == 1
        assert cm[1, 0] == 1
        assert cm[2, 2] == 1
        assert cm.sum() == 3

    def test_matches_tally_oracle(self):
        """200 random samples agree with an independent tally."""
        rng = np.random.default_rng(0)
        preds = rng.integers(0, 3, size=200)
        labels = rng.integers(0, 3, size=200)
        cm = confusion_matrix(preds, labels)
        for p in range(3):
            for t in range(3):
                expected = sum(1 for a, b in zip(preds, labels)
                               if a == p and b == t)
                assert cm[p, t] == expected
        assert cm.sum() == 200
        for t in range(3):
            assert cm[:, t].sum() == (labels == t).sum()

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([0, 1], [0])

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([3], [0])

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            confusion_matrix([], [])


class TestClasswiseMetrics:
    def test_perfect_matrix_all_ones(self):
        metrics = classwise_metrics(np.diag([4, 5, 6]))
        for name in CLASSES:
            for value in metrics[name].values():
                assert value == 1.0

    def test_hand_computed_example(self):
        """Every metric of the worked 25-sample matrix matches."""
        metrics = classwise_metrics(HAND_CM)
        for cls, expected in HAND_METRICS.items():
            for key, val in expected.items():
                assert_allclose(metrics[cls][key], val, rtol=1e-12)

    def test_absent_class_yields_undefined_markers(self):
        """A class never predicted and never true: precision and
        sensitivity undefined, specificity 1."""
        cm = np.array([[3, 0, 0], [0, 0, 0], [0, 0, 4]])
        m = classwise_metrics(cm)["MCI"]
        assert m["precision"] is None
        assert m["sensitivity"] is None
        assert m["f1"] is None
        assert m["specificity"] == 1.0
        assert m["accuracy"] == 1.0

    def test_accuracy_complement_identity(self):
        """Class accuracy equals 1 - off-diagonal mass involving it / n."""
        rng = np.random.default_rng(5)
        cm = rng.integers(0, 9, size=(3, 3))
        cm[1, 1] += 3
        metrics = classwise_metrics(cm)
        n = cm.sum()
        for c, name in enumerate(CLASSES):
            involved = cm[c, :].sum() + cm[:, c].sum() - 2 * cm[c, c]
            assert_allclose(metrics[name]["accuracy"], 1 - involved / n,
                            rtol=1e-12)

    def test_overall_accuracy(self):
        assert_allclose(overall_accuracy(HAND_CM), 19 / 25, rtol=1e-15)

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            classwise_metrics(np.zeros((2, 3)))


class TestRocCurve:
    def test_perfect_separation_passes_through_corner(self):
        scores = [0.9, 0.8, 0.7, 0.2, 0.1]
        labels = [1, 1, 1, 0, 0]
        curve = roc_curve(scores, labels, class_id=1)
        assert (0.0, 1.0) in curve.points
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[-1] == (1.0, 1.0)
        assert auc(curve) == 1.0

    def test_identical_scores_single_group(self):
        """All-tied scores collapse to the two endpoint points."""
        curve = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0], class_id=1)
        assert curve.points == ((0.0, 0.0), (1.0, 1.0))
        assert len(curve.thresholds) == 1
        assert_allclose(auc(curve), 0.5)

    def test_matches_threshold_enumeration_oracle(self):
        """Each curve point equals an exhaustive >= threshold count."""
        rng = np.random.default_rng(1)
        scores = np.round(rng.uniform(size=60), 2)  # force some ties
        labels = rng.integers(0, 3, size=60)
        curve = roc_curve(scores, labels, class_id=2)
        uniq = sorted(set(scores), reverse=True)
        assert list(curve.thresholds) == uniq
        n_pos = (labels == 2).sum()
        n_neg = 60 - n_pos
        for t, (fpr, tpr) in zip(uniq, curve.points[1:]):
            tp = sum(1 for s, l in zip(scores, labels) if s >= t and l == 2)
            fp = sum(1 for s, l in zip(scores, labels) if s >= t and l != 2)
            assert_allclose(tpr, tp / n_pos, rtol=1e-12)
            assert_allclose(fpr, fp / n_neg, rtol=1e-12)

    def test_coordinates_non_decreasing(self):
        rng = np.random.default_rng(2)
        scores = rng.uniform(size=40)
        labels = rng.integers(0, 2, size=40)
        curve = roc_curve(scores, labels, class_id=1)
        xs = [p[0] for p in curve.points]
        ys = [p[1] for p in curve.points]
        assert xs == sorted(xs)
        assert ys == sorted(ys)

    def test_single_class_labels_rejected(self):
        with pytest.raises(ValidationError):
            roc_curve([0.1, 0.9], [1, 1], class_id=1)

    def test_out_of_range_scores_rejected(self):
        with pytest.raises(ValidationError):
            roc_curve([0.5, 1.5], [0, 1], class_id=1)


class TestAuc:
    def test_perfectly_inverted_scores_give_zero(self):
        curve = roc_curve([0.1, 0.2, 0.8, 0.9], [1, 1, 0, 0], class_id=1)
        assert auc(curve) == 0.0

    def test_matches_concordance_oracle(self):
        """Trapezoid area equals tie-adjusted Mann-Whitney concordance."""
        rng = np.random.default_rng(3)
        for trial in range(10):
            scores = np.round(rng.uniform(size=50), 1)  # heavy ties
            labels = rng.integers(0, 2, size=50)
            if labels.min() == labels.max():
                continue
            curve = roc_curve(scores, labels, class_id=1)
            expected = concordance_auc(scores, labels == 1)
            assert_allclose(auc(curve), expected, atol=1e-9)

    def test_invariant_under_monotone_transform(self):
        """Squaring scores (order-preserving on [0,1]) keeps the curve."""
        rng = np.random.default_rng(4)
        scores = rng.uniform(size=30)
        labels = rng.integers(0, 2, size=30)
        c1 = roc_curve(scores, labels, class_id=1)
        c2 = roc_curve(scores ** 2, labels, class_id=1)
        assert c1.points == c2.points
        assert auc(c1) == auc(c2)

    def test_malformed_curve_rejected(self):
        from voxcnn.metrics import RocCurve
        bad = RocCurve(class_id=0, points=((0.0, 0.0), (0.5, 0.2)),
                       thresholds=(0.5,))
        with pytest.raises(ValidationError):
            auc(bad)


class TestMisclassificationHistogram:
    def test_all_ad_errors_go_to_mci(self):
        """Misclassified AD samples all called MCI yield a 100% MCI row."""
        labels = [0, 0, 0, 1, 2]
        preds = [1, 1, 0, 1, 2]
        hist = misclassification_histogram(preds, labels)
        assert hist["AD"] == {"MCI": 100.0}
        assert hist["MCI"] == {}
        assert hist["CN"] == {}

    def test_ratio_arithmetic(self):
        """3 MCI->AD and 1 MCI->CN give 75/25."""
        labels = [1] * 6
        preds = [0, 0, 0, 2, 1, 1]
        labels += [0, 2]
        preds += [0, 2]
        hist = misclassification_histogram(preds, labels)
        assert_allclose(hist["MCI"]["AD"], 75.0)
        assert_allclose(hist["MCI"]["CN"], 25.0)

    def test_no_errors_means_empty_rows(self):
        labels = [0, 1, 2]
        hist = misclassification_histogram(labels, labels)
        assert all(row == {} for row in hist.values())

    @pytest.mark.parametrize("preds, labels", [
        ([0, 1], [-1, 2]), ([5], [0]), ([], []), ([0], [0, 1]),
    ], ids=["negative-label", "prediction-past-classes", "empty", "unpaired"])
    def test_refused_like_confusion_matrix(self, preds, labels):
        """The rows come from confusion_matrix, so its checks hold: label -1
        is not counted as CN, prediction 5 is no IndexError, and an empty
        or unpaired list is refused."""
        with pytest.raises(ValidationError):
            misclassification_histogram(preds, labels)

    def test_nonempty_rows_sum_to_100(self):
        rng = np.random.default_rng(6)
        preds = rng.integers(0, 3, size=120)
        labels = rng.integers(0, 3, size=120)
        hist = misclassification_histogram(preds, labels)
        for row in hist.values():
            if row:
                assert_allclose(sum(row.values()), 100.0, atol=1e-9)


class TestRenderings:
    def test_confusion_rendering_orientation(self):
        """Rendered table is rows=predicted with true classes as columns."""
        text = render_confusion(HAND_CM)
        lines = text.strip().split("\n")
        assert "AD" in lines[0] and "CN" in lines[0]
        assert lines[1].split()[0] == "AD"
        assert lines[1].split()[1] == "5"

    def test_classwise_csv_uses_na(self):
        cm = np.array([[3, 0, 0], [0, 0, 0], [0, 0, 4]])
        text = classwise_csv(classwise_metrics(cm))
        row = [l for l in text.splitlines() if l.startswith("MCI")][0]
        assert "NA" in row

    def test_roc_csv_round_numbers(self):
        curve = roc_curve([0.9, 0.1], [1, 0], class_id=1)
        lines = roc_csv(curve).strip().split("\n")
        assert lines[0] == "fpr,tpr"
        assert len(lines) == 1 + len(curve.points)

    def test_histogram_csv(self):
        hist = misclassification_histogram([1, 0], [0, 0])
        text = histogram_csv(hist)
        assert text.splitlines()[0] == "true_class,predicted_class,percent"

    def test_class_index_lookup(self):
        assert class_index("AD") == 0
        assert class_index("CN") == 2
        with pytest.raises(ValidationError):
            class_index("HC")


# (id, call, message of its ValidationError): one row per guard that no test
# above reaches
GUARDS = [
    ("negative-count", lambda: classwise_metrics(np.array([[1, -1], [0, 2]])),
     "confusion matrix counts must be non-negative"),
    ("empty-matrix", lambda: overall_accuracy(np.zeros((3, 3), dtype=int)),
     "confusion matrix is empty"),
    ("unpaired", lambda: roc_curve([0.2, 0.8], [0], 0),
     "scores and labels must be equal-length vectors"),
    ("no-samples", lambda: roc_curve([], [], 0),
     "cannot build a curve from zero samples"),
    ("decreasing", lambda: auc(RocCurve(0, ((0.0, 0.0), (0.5, 0.5),
                                            (0.4, 0.9), (1.0, 1.0)), ())),
     "malformed curve: coordinates must not decrease"),
]


@pytest.mark.parametrize("call, message",
                         [pytest.param(c, m, id=i) for i, c, m in GUARDS])
def test_guard_refuses(call, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        call()
