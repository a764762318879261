"""Binary-classification metrics: ROC-AUC, average precision, balanced accuracy.

ROC-AUC uses the rank-statistic formulation (ties count one half), so it is
exactly the Mann-Whitney U statistic rescaled; average precision is the
step-wise sum over descending score thresholds with tied scores grouped at
one threshold; balanced accuracy thresholds logits at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np


def midranks(values: np.ndarray) -> np.ndarray:
    """Ranks 1..n with tied values sharing their average rank."""
    v = np.asarray(values, dtype=np.float64)
    _, group, counts = np.unique(v, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[group]


def _scores_and_labels(scores, labels, need_both: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """``scores`` as floats and ``labels`` as 0/1 integers, both flat and of equal length."""
    s = np.asarray(scores, dtype=np.float64).ravel()
    y = np.asarray(labels).ravel()
    if not np.isin(y, (0, 1)).all():
        raise ValueError("labels must be 0/1")
    if need_both and (not (y == 0).any() or not (y == 1).any()):
        raise ValueError("both classes must be present")
    if s.shape != y.shape:
        raise ValueError("scores and labels must have equal length")
    return s, y.astype(np.int64)


def roc_auc(scores, labels) -> float:
    """Probability that a random positive outranks a random negative."""
    s, y = _scores_and_labels(scores, labels)
    n_pos = int(y.sum())
    n_neg = y.size - n_pos
    rank_sum_pos = float(midranks(s)[y == 1].sum())
    u_pos = rank_sum_pos - n_pos * (n_pos + 1) / 2.0
    return u_pos / (n_pos * n_neg)


def average_precision(scores, labels) -> float:
    """Area under the precision-recall step curve, ties grouped."""
    s, y = _scores_and_labels(scores, labels, need_both=False)
    n_pos = int(y.sum())
    if n_pos == 0:
        raise ValueError("average precision needs at least one positive")
    order = np.argsort(-s, kind="stable")
    s_sorted = s[order]
    # one precision/recall step per group of tied scores, taken at its last row
    group_end = np.append(s_sorted[1:] != s_sorted[:-1], True)
    tp = np.cumsum(y[order])[group_end]
    seen = np.flatnonzero(group_end) + 1
    gain = np.diff(tp, prepend=0)
    step = gain > 0
    terms = gain[step] / n_pos * (tp[step] / seen[step])
    return float(np.cumsum(terms)[-1])  # cumsum keeps left-to-right addition


def balanced_accuracy(logits, labels) -> float:
    """(sensitivity + specificity) / 2 with predictions = logit > 0."""
    z, y = _scores_and_labels(logits, labels)
    pred = z > 0
    tpr = float(pred[y == 1].mean())
    tnr = float((~pred)[y == 0].mean())
    return 0.5 * (tpr + tnr)


@dataclass(frozen=True)
class MetricReport:
    """The three per-epoch validation metrics."""

    roc_auc: float
    avg_precision: float
    balanced_acc: float

    @staticmethod
    def compute(logits, labels) -> "MetricReport":
        return MetricReport(
            roc_auc=roc_auc(logits, labels),
            avg_precision=average_precision(logits, labels),
            balanced_acc=balanced_accuracy(logits, labels),
        )

    def as_dict(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


METRIC_NAMES = tuple(f.name for f in fields(MetricReport))
