"""Confusion matrices, class-wise metrics, one-vs-rest ROC/AUC, and the
misclassification histogram.

Class order is fixed as (AD, MCI, CN) throughout the package; class ids are
indices into that order.  Confusion matrices are oriented rows = predicted
class, columns = true class.  Metrics with a zero denominator are reported
as None (rendered "NA"), never silently as 0 or 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

CLASSES = ("AD", "MCI", "CN")

METRIC_NAMES = ("accuracy", "precision", "sensitivity", "specificity", "f1")


def class_index(name: str) -> int:
    try:
        return CLASSES.index(name)
    except ValueError:
        raise ValidationError(
            f"unknown class {name!r} (expected one of {CLASSES})"
        ) from None


def confusion_matrix(predictions, labels, class_count: int = 3) -> np.ndarray:
    """Tally counts[predicted][true] over paired prediction/label ids."""
    predictions = list(predictions)
    labels = list(labels)
    if len(predictions) != len(labels):
        raise ValidationError(
            f"{len(predictions)} predictions vs {len(labels)} labels"
        )
    if not predictions:
        raise ValidationError("cannot tally an empty sample list")
    cm = np.zeros((class_count, class_count), dtype=np.int64)
    for p, t in zip(predictions, labels):
        if not 0 <= p < class_count or not 0 <= t < class_count:
            raise ValidationError(f"class id out of range: pred={p}, true={t}")
        cm[p, t] += 1
    return cm


def _ratio(num: int, den: int):
    return num / den if den else None


def classwise_metrics(cm: np.ndarray) -> dict:
    """One-vs-rest accuracy/precision/sensitivity/specificity/F1 per class."""
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValidationError(f"confusion matrix must be square, got {cm.shape}")
    if (cm < 0).any():
        raise ValidationError("confusion matrix counts must be non-negative")
    n = int(cm.sum())
    out = {}
    for c in range(cm.shape[0]):
        tp = int(cm[c, c])
        fp = int(cm[c, :].sum()) - tp
        fn = int(cm[:, c].sum()) - tp
        tn = n - tp - fp - fn
        precision = _ratio(tp, tp + fp)
        sensitivity = _ratio(tp, tp + fn)
        if precision is None or sensitivity is None or precision + sensitivity == 0:
            f1 = None
        else:
            f1 = 2 * precision * sensitivity / (precision + sensitivity)
        name = CLASSES[c] if cm.shape[0] == len(CLASSES) else str(c)
        out[name] = {
            "accuracy": _ratio(tp + tn, n),
            "precision": precision,
            "sensitivity": sensitivity,
            "specificity": _ratio(tn, tn + fp),
            "f1": f1,
        }
    return out


def overall_accuracy(cm: np.ndarray) -> float:
    cm = np.asarray(cm)
    total = int(cm.sum())
    if total == 0:
        raise ValidationError("confusion matrix is empty")
    return float(np.trace(cm)) / total


@dataclass(frozen=True)
class RocCurve:
    """Threshold-sweep points for one class against the rest."""

    class_id: int
    points: tuple  # ((fpr, tpr), ...) from (0,0) to (1,1)
    thresholds: tuple  # descending distinct scores, one per non-origin point


def roc_curve(scores, labels, class_id: int) -> RocCurve:
    """One-vs-rest sweep over all distinct score thresholds, descending.

    At threshold t a sample is called positive when score >= t; tied scores
    therefore enter as a single group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(list(labels))
    if scores.ndim != 1 or scores.shape != labels.shape:
        raise ValidationError("scores and labels must be equal-length vectors")
    if scores.size == 0:
        raise ValidationError("cannot build a curve from zero samples")
    if (scores < 0).any() or (scores > 1).any():
        raise ValidationError("scores must lie in [0, 1]")
    positive = labels == class_id
    n_pos = int(positive.sum())
    n_neg = int(scores.size - n_pos)
    if n_pos == 0 or n_neg == 0:
        raise ValidationError(
            f"class {class_id}: need at least one positive and one negative"
        )
    thresholds = np.unique(scores)[::-1]
    points = [(0.0, 0.0)]
    for t in thresholds:
        called = scores >= t
        tpr = float((called & positive).sum()) / n_pos
        fpr = float((called & ~positive).sum()) / n_neg
        points.append((fpr, tpr))
    return RocCurve(class_id=class_id, points=tuple(points),
                    thresholds=tuple(float(t) for t in thresholds))


def auc(curve: RocCurve) -> float:
    """Trapezoidal area; equals the tie-adjusted pairwise concordance."""
    pts = curve.points
    if len(pts) < 2 or pts[0] != (0.0, 0.0) or pts[-1] != (1.0, 1.0):
        raise ValidationError("malformed curve: must run from (0,0) to (1,1)")
    area = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if x1 < x0 or y1 < y0:
            raise ValidationError("malformed curve: coordinates must not decrease")
        area += (x1 - x0) * (y0 + y1) / 2.0
    return area


def misclassification_histogram(predictions, labels) -> dict:
    """Per true class: percentage split of its misclassified samples, from
    confusion_matrix (so its checks hold here too).

    Classes with no misclassifications map to an empty row.
    """
    cm = confusion_matrix(predictions, labels)
    rows: dict = {}
    for t, true_name in enumerate(CLASSES):
        wrong = {CLASSES[p]: int(c) for p, c in enumerate(cm[:, t])
                 if p != t and c}
        total = sum(wrong.values())
        rows[true_name] = {pred: 100.0 * c / total for pred, c in wrong.items()}
    return rows


# ---------------------------------------------------------------------------
# renderings
# ---------------------------------------------------------------------------


def _cell(v) -> str:
    if v is None:
        return "NA"
    return f"{v:.4f}"


def render_confusion(cm: np.ndarray) -> str:
    """Plain-text matrix, columns = true class, rows = predicted class."""
    cm = np.asarray(cm)
    width = max(5, len(str(int(cm.max()))) + 2) if cm.size else 5
    header = "pred\\true" + "".join(f"{c:>{width}}" for c in CLASSES)
    lines = [header]
    for i, name in enumerate(CLASSES):
        lines.append(f"{name:>9}" + "".join(
            f"{int(cm[i, j]):>{width}}" for j in range(cm.shape[1])))
    return "\n".join(lines)


def classwise_csv(metrics: dict) -> str:
    lines = ["class," + ",".join(METRIC_NAMES)]
    for name, row in metrics.items():
        lines.append(name + "," + ",".join(_cell(row[m]) for m in METRIC_NAMES))
    return "\n".join(lines) + "\n"


def roc_csv(curve: RocCurve) -> str:
    lines = ["fpr,tpr"]
    for x, y in curve.points:
        lines.append(f"{x!r},{y!r}")
    return "\n".join(lines) + "\n"


def histogram_csv(hist: dict) -> str:
    lines = ["true_class,predicted_class,percent"]
    for true_name in CLASSES:
        for pred_name in CLASSES:
            if pred_name in hist.get(true_name, {}):
                lines.append(
                    f"{true_name},{pred_name},{hist[true_name][pred_name]!r}")
    return "\n".join(lines) + "\n"
