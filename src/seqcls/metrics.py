"""Classification metrics from a confusion matrix.

Weighted averages use class supports n_j/N; macro averages divide by the
class count K.  The primary macro F1 is the harmonic mean of macro
precision and macro recall; the per-class-F1 average is reported as a
secondary figure since both conventions appear in the wild.  Classes
with a zero denominator score 0 rather than raising.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError


@dataclass
class MetricsReport:
    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    supports: list[int]
    precision_weighted: float
    recall_weighted: float
    f1_weighted: float
    precision_macro: float
    recall_macro: float
    f1_macro: float
    f1_macro_per_class: float


def confusion(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """The (K, K) int64 counts[true][pred]; row sums are the class
    supports.  A label or prediction outside the K classes is refused,
    naming the first bad value, a sample's label before its prediction."""
    y = np.asarray(true_labels, dtype=np.int64)
    y_hat = np.asarray(predicted_labels, dtype=np.int64)
    if len(y) != len(y_hat):
        raise DataError(f"{len(y)} labels vs {len(y_hat)} predictions")
    bad_y = (y < 0) | (y >= n_classes)
    bad_y_hat = (y_hat < 0) | (y_hat >= n_classes)
    bad = bad_y | bad_y_hat
    if bad.any():
        i = int(bad.argmax())
        if bad_y[i]:
            raise DataError(f"label {y[i]} outside {n_classes} classes")
        raise DataError(f"prediction {y_hat[i]} outside {n_classes} classes")
    counts = np.bincount(y * n_classes + y_hat, minlength=n_classes * n_classes)
    return counts.reshape(n_classes, n_classes)


def _ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    out = np.zeros(len(numerator), dtype=np.float64)
    mask = denominator > 0
    out[mask] = numerator[mask] / denominator[mask]
    return out


def report(true_labels, predicted_labels, n_classes: int) -> MetricsReport:
    counts = confusion(true_labels, predicted_labels, n_classes)
    total = int(counts.sum())
    if total == 0:
        raise DataError("empty confusion matrix has no metrics")
    supports = counts.sum(axis=1)
    # tp + fp and tp + fn are the column and row sums, exact in float64
    tp = np.diag(counts).astype(np.float64)
    precision = _ratio(tp, counts.sum(axis=0))
    recall = _ratio(tp, supports)
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    weights = supports / total
    p_macro = float(precision.mean())
    r_macro = float(recall.mean())
    denominator = p_macro + r_macro
    return MetricsReport(
        accuracy=float(tp.sum()) / total,
        precision=precision.tolist(),
        recall=recall.tolist(),
        f1=f1.tolist(),
        supports=supports.tolist(),
        precision_weighted=float(precision @ weights),
        recall_weighted=float(recall @ weights),
        f1_weighted=float(f1 @ weights),
        precision_macro=p_macro,
        recall_macro=r_macro,
        f1_macro=0.0 if denominator == 0 else 2.0 * p_macro * r_macro / denominator,
        f1_macro_per_class=float(f1.mean()),
    )
