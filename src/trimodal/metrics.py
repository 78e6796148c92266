"""Binary classification metrics: ACC, SEN, SPE, F1, AUC.

Positive class is label 1.  Degenerate denominators (no positives, no
predicted positives, ...) yield 0.0 with a warning rather than NaN, so
fold aggregation never propagates NaNs.
"""

from __future__ import annotations

import warnings

import numpy as np


class MetricWarning(UserWarning):
    pass


def _zero_div(num, den, name):
    if den == 0:
        warnings.warn(f"{name} denominator is zero; reporting 0.0", MetricWarning, stacklevel=3)
        return 0.0
    return num / den


def confusion_metrics(pred_labels, true_labels):
    """(acc, sen, spe, f1, counts) from hard 0/1 predictions."""
    pred = np.asarray(pred_labels)
    true = np.asarray(true_labels)
    if pred.size == 0:
        raise ValueError("confusion_metrics: empty input")
    if pred.shape != true.shape:
        raise ValueError(f"length mismatch: {pred.shape} vs {true.shape}")
    bad = set(np.unique(pred)) | set(np.unique(true))
    if not bad <= {0, 1}:
        raise ValueError(f"labels must be 0/1, saw {sorted(bad)}")
    tp = int(np.sum((pred == 1) & (true == 1)))
    tn = int(np.sum((pred == 0) & (true == 0)))
    fp = int(np.sum((pred == 1) & (true == 0)))
    fn = int(np.sum((pred == 0) & (true == 1)))
    acc = (tp + tn) / (tp + tn + fp + fn)
    sen = _zero_div(tp, tp + fn, "sensitivity")
    spe = _zero_div(tn, tn + fp, "specificity")
    f1 = _zero_div(2 * tp, 2 * tp + fp + fn, "f1")
    return acc, sen, spe, f1, {"tp": tp, "tn": tn, "fp": fp, "fn": fn}


def auc(scores, true_labels):
    """Mann-Whitney AUC: P(score_pos > score_neg), ties counted 0.5.

    Rank-based, O(n log n); exactly equal to the exhaustive pairwise
    count because midranks encode the tie correction.
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(true_labels)
    if s.shape != y.shape:
        raise ValueError(f"length mismatch: {s.shape} vs {y.shape}")
    n_pos = int(np.sum(y == 1))
    n_neg = int(np.sum(y == 0))
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"auc needs both classes; got {n_pos} positives and {n_neg} negatives")
    # Doubled midranks are integers, so U is computed in exact integer
    # arithmetic and auc(s) + auc(-s) == 1.0 holds bit-exactly.
    order = np.argsort(s, kind="stable")
    ranks2 = np.empty(len(s), dtype=np.int64)
    i = 0
    sorted_s = s[order]
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_s[j + 1] == sorted_s[i]:
            j += 1
        ranks2[order[i:j + 1]] = i + j + 2  # doubled 1-based midrank
        i = j + 1
    u2 = int(ranks2[y == 1].sum()) - n_pos * (n_pos + 1)
    return u2 / (2 * n_pos * n_neg)


def threshold_metrics(prob_pos, true_labels):
    """Full metric row from positive-class probabilities.

    Probabilities >= 0.5 predict the positive class; AUC uses the raw
    probabilities as scores.
    """
    p = np.asarray(prob_pos, dtype=np.float64)
    pred = (p >= 0.5).astype(np.int64)
    acc, sen, spe, f1, counts = confusion_metrics(pred, true_labels)
    return {
        "acc": acc, "sen": sen, "spe": spe, "f1": f1,
        "auc": auc(p, true_labels), **counts,
    }
