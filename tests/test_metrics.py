import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse.metrics import (
    MAX_BINS,
    EvalRecord,
    _calibration,
    accuracy,
    auc_binary,
    check_num_bins,
    check_percentile,
    ece,
    metrics_report,
    ood_detect,
    report_from_arrays,
)

from oracles import (
    auc_reference,
    calibration_loop_reference,
    ece_reference,
    metrics_report_reference,
    rank_auc_reference,
)


def make_records(confs, corrects):
    return [
        EvalRecord(0, c, 0.5, 0 if ok else 1, f"r{i}")
        for i, (c, ok) in enumerate(zip(confs, corrects))
    ]


HAND_CONFS = (0.3, 0.4, 0.8, 0.9)
HAND_CORRECT = (False, True, True, True)


class TestEvalRecord:
    def test_bounds(self):
        with pytest.raises(ValueError):
            EvalRecord(0, 1.5, 0.5, 0, "a")
        with pytest.raises(ValueError):
            EvalRecord(0, 0.5, -0.5, 0, "a")

    def test_correct_property(self):
        assert EvalRecord(2, 0.5, 0.1, 2, "a").correct
        assert not EvalRecord(2, 0.5, 0.1, 1, "a").correct


class TestEce:
    def test_two_bin_hand_case(self):
        got = ece(make_records(HAND_CONFS, HAND_CORRECT), 2)
        assert got == pytest.approx(0.15, abs=1e-12)

    def test_one_bin_collapses_to_gap(self):
        records = make_records(HAND_CONFS, HAND_CORRECT)
        got = ece(records, 1)
        assert got == pytest.approx(abs(0.75 - 0.6), abs=1e-12)

    def test_zero_confidence_lands_in_first_bin(self):
        report = metrics_report(make_records((0.0, 0.05), (True, False)), 10)
        assert report["bins"][0]["count"] == 2

    def test_upper_closed_edges(self):
        # 0.1 belongs to (0, 0.1], 0.2 to (0.1, 0.2]
        report = metrics_report(make_records((0.1, 0.2), (True, True)), 10)
        counts = [b["count"] for b in report["bins"]]
        assert counts[0] == 1 and counts[1] == 1

    def test_perfectly_calibrated_split(self):
        # 10 records at confidence 0.7, exactly 7 correct
        records = make_records([0.7] * 10, [True] * 7 + [False] * 3)
        assert ece(records, 10) == pytest.approx(0.0, abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(1, 60))
            confs = rng.uniform(0.0, 1.0, n)
            corrects = rng.uniform(size=n) < confs
            records = make_records(confs, corrects)
            for m in (1, 2, 5, 15):
                want = ece_reference(confs.tolist(), corrects.tolist(), m)
                assert ece(records, m) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("num_bins", [1, 10, 37, MAX_BINS])
    def test_equals_the_every_bin_loop(self, num_bins):
        rng = np.random.default_rng(num_bins)
        for n in (1, 7, 500):
            # ties, both ends and bin edges, as well as uniform draws
            confs = np.concatenate([rng.uniform(0.0, 1.0, n), [0.0, 1.0, 0.5, 3 / num_bins]])
            confs = np.minimum(confs, 1.0)
            corrects = rng.uniform(size=confs.size) < confs
            got = _calibration(confs, corrects, num_bins)
            assert got == calibration_loop_reference(confs, corrects, num_bins)
            if n < 500 or num_bins < MAX_BINS:  # the scan is O(N*M) in Python
                want = ece_reference(confs.tolist(), corrects.tolist(), num_bins)
                assert got[0] == pytest.approx(want, abs=1e-12)

    def test_order_invariance(self):
        rng = np.random.default_rng(1)
        confs = rng.uniform(0.0, 1.0, 40)
        corrects = rng.uniform(size=40) < 0.6
        records = make_records(confs, corrects)
        want = ece(records, 10)
        for _ in range(20):
            perm = rng.permutation(40)
            shuffled = [records[i] for i in perm]
            assert ece(shuffled, 10) == pytest.approx(want, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            ece([], 10)
        with pytest.raises(ValueError):
            ece(make_records((0.5,), (True,)), 0)
        with pytest.raises(ValueError, match="at most"):
            ece(make_records((0.5,), (True,)), MAX_BINS + 1)
        with pytest.raises(ValueError, match="at most"):
            report_from_arrays([0], [0.5], [0], MAX_BINS + 1)


class TestCheckNumBins:
    @pytest.mark.parametrize("num_bins", [1, 10, MAX_BINS, 10_000])
    def test_accepts_the_closed_range(self, num_bins):
        assert check_num_bins(num_bins) == num_bins

    @pytest.mark.parametrize("num_bins,match", [
        (0, "need at least one bin"), (-3, "need at least one bin"),
        (MAX_BINS + 1, f"need at most {MAX_BINS} bins, not {MAX_BINS + 1}"),
        (10_001, "need at most 10000 bins, not 10001"),
    ])
    def test_rejects_outside_it(self, num_bins, match):
        with pytest.raises(ValueError, match=match):
            check_num_bins(num_bins)


class TestCheckPercentile:
    @pytest.mark.parametrize("percentile", [0.0, 50.0, 100.0])
    def test_accepts_the_closed_range(self, percentile):
        check_percentile(percentile)

    @pytest.mark.parametrize("percentile", [-1e-9, 100.5, float("nan"), float("inf")])
    def test_rejects_outside_it(self, percentile):
        with pytest.raises(ValueError, match=r"percentile must lie in \[0, 100\]"):
            check_percentile(percentile)


class TestAccuracy:
    def test_simple(self):
        assert accuracy(make_records((0.5, 0.5, 0.5, 0.5), (True, True, True, False))) == 0.75

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([])


class TestAuc:
    def test_hand_case(self):
        got = auc_binary([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert got == pytest.approx(0.75, abs=1e-15)

    def test_extremes(self):
        assert auc_binary([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
        assert auc_binary([0.9, 0.8, 0.2, 0.1], [0, 0, 1, 1]) == 0.0

    def test_non_finite_scores_are_refused(self):
        with pytest.raises(ValueError, match="^scores must be finite$"):
            auc_binary([0.1, float("nan")], [0, 1])

    def test_ties_get_half_credit(self):
        assert auc_binary([0.5, 0.5], [0, 1]) == 0.5
        assert auc_binary([0.3, 0.5, 0.5, 0.7], [0, 0, 1, 1]) == pytest.approx(0.875)

    def test_invariant_under_monotone_transforms(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=50)
        labels = (rng.uniform(size=50) < 0.4).astype(int)
        want = auc_binary(scores, labels)
        assert auc_binary(3.0 * scores + 5.0, labels) == pytest.approx(want, abs=1e-15)
        assert auc_binary(np.exp(scores), labels) == pytest.approx(want, abs=1e-12)

    def test_matches_reference_with_ties(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            n = int(rng.integers(4, 40))
            scores = rng.integers(0, 6, n) / 5.0  # coarse grid forces ties
            labels = np.zeros(n, dtype=int)
            labels[: max(1, n // 3)] = 1
            rng.shuffle(labels)
            want = auc_reference(scores.tolist(), labels.tolist())
            assert auc_binary(scores, labels) == pytest.approx(want, abs=1e-12)

    def test_bit_identical_to_the_summed_rank_formula(self):
        rng = np.random.default_rng(18)
        for _ in range(300):
            n = int(rng.integers(2, 300))
            grid = int(rng.integers(1, 2 * n))  # a coarse grid makes long tie groups
            scores = rng.integers(0, grid, n) / grid
            if rng.uniform() < 0.3:
                scores = rng.normal(size=n)
            labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(int)
            labels[rng.choice(n, 2, replace=False)] = [0, 1]
            assert auc_binary(scores, labels) == rank_auc_reference(scores, labels)

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_binary([0.5, 0.6], [1, 1])
        with pytest.raises(ValueError):
            auc_binary([0.5, 0.6], [0, 2])
        with pytest.raises(ValueError):
            auc_binary([0.5], [0, 1])


class TestOodDetect:
    def test_hand_case_threshold(self):
        res = ood_detect([0.1, 0.2], [0.8, 0.9], percentile=50.0)
        assert res.threshold == pytest.approx(0.5, abs=1e-12)
        assert np.array_equal(res.flags, [True, True])
        assert np.allclose(res.scaled_val, [0.0, 0.125], atol=1e-12)
        assert np.allclose(res.scaled_test, [0.875, 1.0], atol=1e-12)
        assert np.array_equal(res.val_flags, [False, False])
        assert res.detection_accuracy == 1.0

    def test_detection_accuracy_counts_both_pools(self):
        # pooled scaled values 0, .25, .5, .75 | .25, 1; threshold = median .375
        res = ood_detect([0.0, 1.0, 2.0, 3.0], [1.0, 4.0], percentile=50.0)
        assert res.threshold == pytest.approx(0.375, abs=1e-12)
        assert np.array_equal(res.val_flags, [False, False, True, True])
        assert np.array_equal(res.flags, [False, True])
        # two validation samples left unflagged plus one test sample flagged
        assert res.detection_accuracy == 3 / 6

    def test_flags_are_strictly_above(self):
        # with a constant test pool at the threshold nothing gets flagged
        res = ood_detect([0.0, 1.0], [0.5, 0.5], percentile=50.0)
        assert res.threshold == pytest.approx(0.5, abs=1e-12)
        assert not res.flags.any()

    def test_one_row_validation_pool(self):
        # pooled scaled values 0 | .5, 1; threshold = median .5
        res = ood_detect([0.1], [0.5, 0.9])
        assert np.array_equal(res.val_flags, [False]) and np.array_equal(res.flags, [False, True])
        assert res.detection_accuracy == 2 / 3

    def test_affine_invariance(self):
        rng = np.random.default_rng(4)
        val = rng.uniform(0.0, 0.4, 80)
        test = rng.uniform(0.2, 1.0, 60)
        a = ood_detect(val, test, 60.0)
        b = ood_detect(3.0 * val + 0.2, 3.0 * test + 0.2, 60.0)
        assert np.allclose(a.scaled_val, b.scaled_val, atol=1e-12)
        assert np.allclose(a.scaled_test, b.scaled_test, atol=1e-12)
        assert np.array_equal(a.flags, b.flags)

    def test_validation(self):
        with pytest.raises(ValueError, match="constant"):
            ood_detect([0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            ood_detect([], [0.5])
        with pytest.raises(ValueError, match="both uncertainty pools must be nonempty"):
            ood_detect([], [0.1, 0.5])
        with pytest.raises(ValueError):
            ood_detect([0.1], [0.5], percentile=120.0)
        with pytest.raises(ValueError, match="^validation uncertainties must be finite$"):
            ood_detect([0.1, float("inf")], [0.5])
        with pytest.raises(ValueError, match="^test uncertainties must be finite$"):
            ood_detect([0.1], [0.5, float("nan")])


class TestReport:
    def test_shape_and_binary_auc(self):
        records = [
            EvalRecord(1, 0.9, 0.1, 1, "a"),
            EvalRecord(1, 0.8, 0.2, 0, "b"),
            EvalRecord(0, 0.7, 0.3, 0, "c"),
            EvalRecord(0, 0.6, 0.4, 1, "d"),
        ]
        report = metrics_report(records, num_bins=4)
        assert report["n"] == 4
        assert report["acc"] == 0.5
        scores = [0.9, 0.8, 1.0 - 0.7, 1.0 - 0.6]
        assert report["auc"] == pytest.approx(auc_binary(scores, [1, 0, 0, 1]), abs=1e-15)
        assert sum(b["count"] for b in report["bins"]) == 4
        assert report["bins"][0]["lo"] == 0.0 and report["bins"][-1]["hi"] == 1.0

    def test_ten_bins_by_default(self):
        records = make_records((0.55, 0.95), (True, False))
        assert metrics_report(records) == metrics_report(records, 10)
        assert len(metrics_report(records)["bins"]) == 10

    def test_empty_bins_report_none(self):
        report = metrics_report(make_records((0.95,), (True,)), 10)
        assert report["bins"][0]["acc"] is None and report["bins"][0]["conf"] is None
        assert report["bins"][9]["count"] == 1

    def test_auc_none_beyond_binary(self):
        records = [
            EvalRecord(0, 0.5, 0.2, 0, "a"),
            EvalRecord(1, 0.5, 0.2, 1, "b"),
            EvalRecord(2, 0.5, 0.2, 2, "c"),
        ]
        assert metrics_report(records, 10)["auc"] is None

    def test_auc_none_when_one_class_observed(self):
        records = [EvalRecord(1, 0.9, 0.1, 1, "a"), EvalRecord(1, 0.8, 0.2, 1, "b")]
        assert metrics_report(records, 10)["auc"] is None

    def test_ece_matches_standalone(self):
        rng = np.random.default_rng(5)
        confs = rng.uniform(size=30)
        records = make_records(confs, rng.uniform(size=30) < 0.5)
        assert metrics_report(records, 7)["ece"] == ece(records, 7)


@st.composite
def record_columns(draw):
    """(predicted, confidence, labels, bins): ties, K = 2 and K > 2, one-class labels."""
    n = draw(st.integers(1, 40))
    k = draw(st.integers(2, 5))
    label_values = draw(st.sampled_from(["all", "one"]))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    if label_values == "one":
        labels = [labels[0]] * n
    predicted = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    grid = st.integers(0, 10).map(lambda i: i / 10.0)  # coarse: ties and bin edges
    confidence = draw(st.lists(st.one_of(grid, st.floats(0.0, 1.0)), min_size=n, max_size=n))
    return predicted, confidence, labels, draw(st.integers(1, 20))


class TestArrayCore:
    @given(record_columns())
    def test_matches_record_oracle(self, case):
        predicted, confidence, labels, bins = case
        records = [
            EvalRecord(p, c, 0.5, y, f"r{i}")
            for i, (p, c, y) in enumerate(zip(predicted, confidence, labels))
        ]
        want = metrics_report_reference(records, bins)
        assert report_from_arrays(np.array(predicted), np.array(confidence), np.array(labels), bins) == want
        assert metrics_report(records, bins) == want
        assert ece(records, bins) == want["ece"]
        assert accuracy(records) == want["acc"]
        if want["auc"] is not None:
            scores = [c if p == 1 else 1.0 - c for p, c in zip(predicted, confidence)]
            assert want["auc"] == pytest.approx(auc_reference(scores, labels), abs=1e-12)

    def test_auc_none_for_one_class_and_beyond_binary(self):
        assert report_from_arrays([1, 0], [0.9, 0.6], [1, 1])["auc"] is None
        assert report_from_arrays([0, 2], [0.9, 0.6], [0, 1])["auc"] is None
        assert report_from_arrays([1, 0], [0.9, 0.6], [1, 0])["auc"] == 1.0

    def test_validation(self):
        with pytest.raises(ValueError, match="no records"):
            report_from_arrays([], [], [])
        with pytest.raises(ValueError, match="matching"):
            report_from_arrays([0, 1], [0.5], [0, 1])
        with pytest.raises(ValueError, match="confidence must lie"):
            report_from_arrays([0], [1.5], [0])
        with pytest.raises(ValueError, match="confidence must lie"):
            report_from_arrays([0], [float("nan")], [0])
        with pytest.raises(ValueError, match="at least one bin"):
            report_from_arrays([0], [0.5], [0], num_bins=0)
