"""Ranking and threshold metrics for binary prediction."""
from __future__ import annotations

import warnings

import numpy as np

from .errors import DataError


def _tied_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the average of their rank block."""
    _, inverse, counts = np.unique(x, return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2)[inverse]


def auc(scores, labels) -> float:
    """Probability a random positive outscores a random negative, ties
    counted half, via the tie-corrected rank-sum formula."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    if s.shape != y.shape or s.ndim != 1:
        raise DataError(f"auc: scores {s.shape} vs labels {y.shape}")
    pos = int((y == 1).sum())
    neg = int((y == 0).sum())
    if pos + neg != y.size:
        raise DataError("auc: labels must be 0 or 1")
    if pos == 0 or neg == 0:
        raise DataError("auc undefined: need at least one positive and one negative")
    ranks = _tied_ranks(s)
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - pos * (pos + 1) / 2.0) / (pos * neg))


def f1(scores, labels, cut: float = 0.5) -> float:
    """Harmonic mean of precision and recall with predictions at score >= cut."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    pred = s >= cut
    tp = int((pred & (y == 1)).sum())
    fp = int((pred & (y == 0)).sum())
    fn = int((~pred & (y == 1)).sum())
    if tp + fp == 0 and tp + fn == 0:
        warnings.warn("f1: no predicted and no actual positives; defining F1 = 0")
        return 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)
