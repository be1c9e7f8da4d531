import numpy as np
import pytest

from egoinf.errors import DataError
from egoinf.metrics import _tied_ranks, auc, f1


def oracle_auc(scores, labels):
    """All-pairs comparison: P(pos > neg) + 0.5 P(tie)."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


def loop_tied_ranks(x):
    """Walk the sorted values and give each tie block its average rank."""
    order = np.argsort(x, kind="mergesort")
    ranks = np.empty(x.size, dtype=np.float64)
    i = 0
    while i < x.size:
        j = i
        while j + 1 < x.size and x[order[j + 1]] == x[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def test_tied_ranks_equal_the_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    for k in range(500):
        x = np.round(rng.random(int(rng.integers(1, 80))), int(rng.integers(0, 3)))
        if k % 2:
            x *= rng.choice([-1.0, 1.0], x.size)  # -0.0 ties with 0.0
        assert _tied_ranks(x).tobytes() == loop_tied_ranks(x).tobytes()


class TestAuc:
    def test_perfect_separation(self):
        assert auc([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0]) == 1.0

    def test_known_concordance_value(self):
        assert auc([0.9, 0.8, 0.3, 0.1], [1, 0, 1, 0]) == pytest.approx(0.75)

    def test_all_ties_is_half(self):
        assert auc([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0]) == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc([0.1, 0.9], [1, 1])

    def test_matches_pairwise_oracle_on_random_vectors(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(4, 24))
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            # quantized scores force plenty of ties
            scores = np.round(rng.random(n), 1)
            assert auc(scores, labels) == pytest.approx(
                oracle_auc(scores.tolist(), labels.tolist()), abs=1e-12
            )


class TestF1:
    def test_perfect_prediction(self):
        assert f1([0.9, 0.8, 0.1, 0.2], [1, 1, 0, 0]) == 1.0

    def test_no_predicted_and_no_actual_positives_warns_zero(self):
        with pytest.warns(UserWarning):
            assert f1([0.1, 0.2], [0, 0]) == 0.0

    def test_known_confusion_counts(self):
        # tp=1, fp=1, fn=1: precision = recall = 0.5
        assert f1([0.9, 0.8, 0.1], [1, 0, 1]) == pytest.approx(0.5)

    def test_cut_is_inclusive(self):
        assert f1([0.5], [1], cut=0.5) == 1.0
