"""Tests for the metric suite, anchored by a brute-force pair-counting oracle."""

import numpy as np
import pytest

from seqcls import metrics as mt
from seqcls.errors import DataError


def brute_force_report(y, y_hat, k):
    """Independent recomputation by direct pair counting, no matrix algebra."""
    y, y_hat = list(y), list(y_hat)
    n = len(y)
    acc = sum(1 for a, b in zip(y, y_hat) if a == b) / n
    precision, recall, f1, support = [], [], [], []
    for j in range(k):
        tp = sum(1 for a, b in zip(y, y_hat) if a == j and b == j)
        fp = sum(1 for a, b in zip(y, y_hat) if a != j and b == j)
        fn = sum(1 for a, b in zip(y, y_hat) if a == j and b != j)
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        precision.append(p)
        recall.append(r)
        f1.append(2 * p * r / (p + r) if p + r else 0.0)
        support.append(sum(1 for a in y if a == j))
    p_w = sum(p * s for p, s in zip(precision, support)) / n
    r_w = sum(r * s for r, s in zip(recall, support)) / n
    f1_w = sum(f * s for f, s in zip(f1, support)) / n
    p_m = sum(precision) / k
    r_m = sum(recall) / k
    f1_m = 2 * p_m * r_m / (p_m + r_m) if p_m + r_m else 0.0
    return dict(accuracy=acc, precision=precision, recall=recall, f1=f1,
                supports=support, precision_weighted=p_w, recall_weighted=r_w,
                f1_weighted=f1_w, precision_macro=p_m, recall_macro=r_m,
                f1_macro=f1_m, f1_macro_per_class=sum(f1) / k)


WORKED_Y, WORKED_Y_HAT = [0, 0, 0, 1], [0, 0, 1, 1]
WORKED_COUNTS = mt.confusion(WORKED_Y, WORKED_Y_HAT, 2)
WORKED = mt.report(WORKED_Y, WORKED_Y_HAT, 2)


class TestConfusion:
    def test_perfect_two_samples_is_identity(self):
        counts = mt.confusion([0, 1], [0, 1], 2)
        assert np.array_equal(counts, np.eye(2, dtype=int))

    def test_empty_inputs_give_zero_matrix(self):
        counts = mt.confusion([], [], 3)
        assert np.array_equal(counts, np.zeros((3, 3), dtype=int))

    def test_hand_tally(self):
        counts = mt.confusion([0, 0, 0, 1], [0, 0, 1, 1], 2)
        assert np.array_equal(counts, [[2, 1], [0, 1]])

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            mt.confusion([0, 1], [0], 2)

    def test_out_of_range_labels_rejected(self):
        with pytest.raises(DataError):
            mt.confusion([0, 2], [0, 0], 2)
        with pytest.raises(DataError):
            mt.confusion([0, 0], [0, -1], 2)

    def test_names_the_first_bad_value(self):
        # sample 1 has the first bad value, a prediction; sample 2's bad
        # label comes later, and a sample's label is checked before its
        # prediction
        with pytest.raises(DataError, match=r"^prediction 5 outside 3 classes$"):
            mt.confusion([0, 1, 7, 2], [0, 5, 0, -1], 3)
        with pytest.raises(DataError, match=r"^label -2 outside 3 classes$"):
            mt.confusion([0, -2, 3], [0, 9, 0], 3)
        with pytest.raises(DataError, match=r"^label 3 outside 3 classes$"):
            mt.confusion(np.array([1, 3, 4]), np.array([1, 1, -1]), 3)

    def test_lists_and_arrays_give_the_same_counts(self):
        rng = np.random.default_rng(10)
        y, y_hat = rng.integers(0, 4, 50), rng.integers(0, 4, 50)
        counts = mt.confusion(y, y_hat, 4)
        tally = np.zeros((4, 4), dtype=np.int64)
        for label, prediction in zip(y, y_hat):
            tally[label, prediction] += 1
        assert counts.dtype == np.int64 and np.array_equal(counts, tally)
        assert np.array_equal(counts, mt.confusion(y.tolist(), y_hat.tolist(), 4))
        assert np.array_equal(counts, mt.confusion(y.astype(np.int32),
                                                   list(y_hat), 4))

    def test_derived_fields(self):
        tp = np.diag(WORKED_COUNTS)
        assert sum(WORKED.supports) == 4
        assert np.array_equal(WORKED.supports, [3, 1])
        assert np.array_equal(tp, [2, 1])
        assert np.array_equal(WORKED_COUNTS.sum(axis=0) - tp, [0, 1])
        assert np.array_equal(np.array(WORKED.supports) - tp, [1, 0])


class TestAccuracy:
    def test_all_correct(self):
        assert mt.report([0, 1, 2], [0, 1, 2], 3).accuracy == 1.0

    def test_all_wrong(self):
        assert mt.report([0, 1], [1, 0], 2).accuracy == 0.0

    def test_worked_example(self):
        assert WORKED.accuracy == 0.75

    def test_empty_matrix_rejected(self):
        with pytest.raises(DataError):
            mt.report([], [], 2)


def weighted(rep):
    return rep.precision_weighted, rep.recall_weighted, rep.f1_weighted


def macro(rep):
    return rep.precision_macro, rep.recall_macro, rep.f1_macro


class TestWeightedMetrics:
    def test_worked_example(self):
        assert np.allclose(WORKED.precision, [1.0, 0.5])
        assert np.allclose(WORKED.recall, [2 / 3, 1.0])
        assert np.allclose(WORKED.f1, [0.8, 2 / 3])
        p_w, r_w, f1_w = weighted(WORKED)
        assert f1_w == pytest.approx((0.8 * 3 + (2 / 3) * 1) / 4, abs=1e-12)
        assert f1_w == pytest.approx(0.76667, abs=1e-5)
        assert p_w == pytest.approx((1.0 * 3 + 0.5 * 1) / 4, abs=1e-12)
        assert r_w == pytest.approx(0.75, abs=1e-12)

    def test_perfect_predictions(self):
        rep = mt.report([0, 1, 1, 2], [0, 1, 1, 2], 3)
        assert weighted(rep) == (1.0, 1.0, 1.0)

    def test_weighted_recall_equals_accuracy(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 40))
            y = rng.integers(0, k, n)
            y_hat = rng.integers(0, k, n)
            rep = mt.report(y, y_hat, k)
            assert rep.recall_weighted == pytest.approx(rep.accuracy, abs=1e-12)


class TestMacroMetrics:
    def test_worked_example(self):
        p_m, r_m, f1_m = macro(WORKED)
        assert p_m == pytest.approx(0.75, abs=1e-12)
        assert r_m == pytest.approx(5 / 6, abs=1e-12)
        expected = 2 * 0.75 * (5 / 6) / (0.75 + 5 / 6)
        assert f1_m == pytest.approx(expected, abs=1e-12)
        assert f1_m == pytest.approx(0.78947, abs=1e-5)

    def test_perfect_predictions(self):
        assert macro(mt.report([0, 1, 2], [0, 1, 2], 3)) == (1.0, 1.0, 1.0)

    def test_all_wrong_f1_defined_as_zero(self):
        assert macro(mt.report([0, 1], [1, 0], 2)) == (0.0, 0.0, 0.0)

    def test_balanced_supports_match_weighted(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            k = int(rng.integers(2, 5))
            per = int(rng.integers(1, 10))
            y = np.repeat(np.arange(k), per)
            y_hat = rng.integers(0, k, k * per)
            rep = mt.report(y, y_hat, k)
            p_w, r_w, _ = weighted(rep)
            p_m, r_m, _ = macro(rep)
            assert p_w == pytest.approx(p_m, abs=1e-12)
            assert r_w == pytest.approx(r_m, abs=1e-12)


class TestReport:
    def test_composes_like_the_parts(self):
        """Each average is formed from the per-class figures, the supports
        and the counts as the module docstring says, bit for bit."""
        rep, counts = WORKED, WORKED_COUNTS
        assert rep.accuracy == float(np.trace(counts)) / counts.sum()
        weights = np.array(rep.supports) / sum(rep.supports)
        assert weighted(rep) == tuple(float(np.array(per_class) @ weights)
                                      for per_class in (rep.precision,
                                                        rep.recall, rep.f1))
        p_m, r_m = float(np.mean(rep.precision)), float(np.mean(rep.recall))
        assert macro(rep) == (p_m, r_m, 2.0 * p_m * r_m / (p_m + r_m))

    def test_pinned_bit_for_bit(self):
        """A k = 4 labeling (drawn from default_rng(29)) whose class 3 is
        never predicted and whose class 2 is never predicted right; every
        field is the value the per-sample-loop suite gave, compared with
        ==."""
        y = [3, 0, 2, 2, 0, 2, 2, 1, 2, 0, 3, 0, 1, 1, 0, 1, 2, 0, 0, 0,
             0, 3, 0, 2, 3, 3, 0, 3, 3, 2, 1, 0, 0, 3, 3, 1, 1, 0, 1, 3]
        y_hat = [1, 2, 1, 0, 2, 1, 1, 0, 1, 2, 2, 2, 0, 1, 0, 1, 1, 0, 0, 0,
                 2, 1, 1, 1, 2, 2, 1, 0, 1, 1, 0, 2, 1, 0, 0, 1, 0, 0, 2, 2]
        assert mt.report(y, y_hat, 4) == mt.MetricsReport(
            accuracy=0.2,
            precision=[0.38461538461538464, 0.1875, 0.0, 0.0],
            recall=[0.35714285714285715, 0.375, 0.0, 0.0],
            f1=[0.3703703703703704, 0.25, 0.0, 0.0],
            supports=[14, 8, 8, 10],
            precision_weighted=0.17211538461538461,
            recall_weighted=0.2,
            f1_weighted=0.17962962962962964,
            precision_macro=0.14302884615384615,
            recall_macro=0.1830357142857143,
            f1_macro=0.16057793575566087,
            f1_macro_per_class=0.15509259259259262)

    def test_worked_example_full_report(self):
        rep = mt.report([0, 0, 0, 1], [0, 0, 1, 1], 2)
        assert rep.accuracy == 0.75
        assert rep.f1_weighted == pytest.approx(0.76667, abs=1e-5)
        assert rep.f1_macro == pytest.approx(0.78947, abs=1e-5)
        assert rep.f1_macro_per_class == pytest.approx((0.8 + 2 / 3) / 2,
                                                       abs=1e-12)
        assert rep.supports == [3, 1]

    def test_single_class_degenerate(self):
        rep = mt.report([0, 0], [0, 0], 1)
        assert rep.accuracy == 1.0
        assert rep.f1_weighted == 1.0
        assert rep.f1_macro == 1.0

    def test_oracle_equivalence_thousand_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(1000):
            k = int(rng.integers(2, 7))
            n = int(rng.integers(1, 201))
            y = [int(v) for v in rng.integers(0, k, n)]
            y_hat = [int(v) for v in rng.integers(0, k, n)]
            rep = mt.report(y, y_hat, k)
            oracle = brute_force_report(y, y_hat, k)
            for name, expected in oracle.items():
                got = getattr(rep, name)
                assert np.allclose(got, expected, atol=1e-12), name

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(5, 60))
            y = rng.integers(0, k, n)
            y_hat = rng.integers(0, k, n)
            perm = rng.permutation(k)
            base = mt.report(y, y_hat, k)
            relabeled = mt.report(perm[y], perm[y_hat], k)
            assert relabeled.accuracy == pytest.approx(base.accuracy, abs=1e-12)
            for name in ("precision_weighted", "recall_weighted", "f1_weighted",
                         "precision_macro", "recall_macro", "f1_macro",
                         "f1_macro_per_class"):
                assert getattr(relabeled, name) == pytest.approx(
                    getattr(base, name), abs=1e-12), name

    def test_every_metric_in_unit_interval(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(1, 50))
            rep = mt.report(rng.integers(0, k, n), rng.integers(0, k, n), k)
            values = ([rep.accuracy, rep.precision_weighted, rep.recall_weighted,
                       rep.f1_weighted, rep.precision_macro, rep.recall_macro,
                       rep.f1_macro, rep.f1_macro_per_class]
                      + rep.precision + rep.recall + rep.f1)
            assert all(0.0 <= v <= 1.0 for v in values)
