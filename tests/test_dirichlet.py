import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse._casts import _FLOAT_OVERFLOW, _integer, _integers, _numeric, _read_only, _real
from evifuse.dirichlet import (
    BaseRate,
    DirichletParams,
    EvidenceVector,
    _combined_evidence,
    combined_evidence,
    expected_probabilities,
    kl_dirichlet,
    kl_from_gammas,
    predict_class,
    rebase,
    strength,
)
from evifuse.data import (
    MultiViewSample,
    SyntheticSpec,
    ViewGeometry,
    extract_views,
    gen_ood,
    gen_synthetic,
    resample_class_ratio,
)
from evifuse.losses import LossConfig, annealed_lambda, ice_loss
from evifuse.metrics import EvalRecord, auc_binary, check_percentile, ood_detect, report_from_arrays
from evifuse.model import EvidenceHead, compute_base_rate
from evifuse.opinions import dirichlet_from_evidence, opinion_from_dirichlet
from evifuse.specfun import _triples, ln_gamma, trigamma

from oracles import kl_dirichlet_quadrature


class TestContainers:
    def test_alpha_must_be_positive(self):
        with pytest.raises(ValueError):
            DirichletParams([1.0, 0.0])
        with pytest.raises(ValueError):
            DirichletParams([1.0, -2.0])

    def test_alpha_must_be_finite_vector(self):
        with pytest.raises(ValueError):
            DirichletParams([1.0, float("inf")])
        with pytest.raises(ValueError):
            DirichletParams([1.0])
        with pytest.raises(ValueError):
            DirichletParams([[1.0, 2.0], [3.0, 4.0]])

    def test_arrays_are_read_only(self):
        p = DirichletParams([2.0, 3.0])
        with pytest.raises(ValueError):
            p.alpha[0] = 5.0

    def test_base_rate_validation(self):
        with pytest.raises(ValueError):
            BaseRate([0.5, 0.6])
        with pytest.raises(ValueError):
            BaseRate([1.0, 0.0])
        with pytest.raises(ValueError):
            BaseRate([0.5, 0.5], weight=0.0)
        with pytest.raises(ValueError):
            BaseRate([0.5, 0.5], weight=-1.0)

    def test_base_rate_weight_defaults_to_k(self):
        assert BaseRate([0.25, 0.25, 0.25, 0.25]).weight == 4.0
        assert BaseRate([0.5, 0.5], weight=7.0).weight == 7.0

    def test_base_rate_round_trips_through_dict(self):
        a = BaseRate([0.8, 0.2], weight=3.0)
        b = BaseRate.from_dict(a.to_dict())
        assert np.array_equal(a.rates, b.rates) and a.weight == b.weight

    @pytest.mark.parametrize("obj,match", [
        # a misspelled weight was dropped, so W fell back to K = 2
        ({"rates": [0.5, 0.5], "weigth": 4}, "unknown base rate key 'weigth'"),
        ({"weight": 2.0}, "base rate is missing 'rates'"),
        ([0.5, 0.5], "base rate must be an object"),
    ])
    def test_base_rate_dict_holds_its_fields_only(self, obj, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}$"):
            BaseRate.from_dict(obj)

    def test_evidence_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            EvidenceVector([1.0, -1e-9])
        EvidenceVector([0.0, 0.0])


class TestCasts:
    """The one cast per kind of value that the value classes read their fields through."""

    @pytest.mark.parametrize("value", [3, -2.5, np.float32(0.25), np.int8(-4), 10**31, float("inf")])
    def test_real_takes_a_number(self, value):
        got = _real(value, "w")
        assert type(got) is float and got == float(value)

    @pytest.mark.parametrize("value", [
        None, "0.4", True, np.bool_(False), [0.4], {}, (1.0,), np.array(0.4), _FLOAT_OVERFLOW,
    ])
    def test_real_refuses_what_is_no_number(self, value):
        with pytest.raises(ValueError, match="^w must be a real number, not "):
            _real(value, "w")

    @pytest.mark.parametrize("value,want", [
        (3, 3), (3.0, 3), (-2, -2), (np.int64(7), 7), (np.uint8(7), 7), (np.float64(4.0), 4),
        (10**31, 10**31), (1e300, int(1e300)),
    ])
    def test_integer_takes_an_integral_value(self, value, want):
        got = _integer(value, "n")
        assert type(got) is int and got == want

    @pytest.mark.parametrize("value", [2.7, float("inf"), float("nan"), True, "3", None, [3], np.bool_(True)])
    def test_integer_refuses_anything_else(self, value):
        with pytest.raises(ValueError, match="^n must be an integer, not "):
            _integer(value, "n")

    @pytest.mark.parametrize("values", [[1, 2.5], [[1, 2], [3, 4]], (), [10**30, 1], np.zeros(3, np.float32)])
    def test_numeric_takes_numbers(self, values):
        assert np.array_equal(np.asarray(_numeric(values, "x"), dtype=float), np.asarray(values, dtype=float))

    @pytest.mark.parametrize("values", [
        "32", ["0.1", "0.2"], [True, False], True, None, {"a": 1}, [None, 1.0], [1.0, {}], [1j, 2.0],
        [0.1, True], [[1.0, 2.0], [3.0, np.False_]], (0.1, True), ((1, 2), (3, False)),
    ])
    def test_numeric_refuses_what_is_not_all_numbers(self, values):
        with pytest.raises(ValueError, match="^x must hold only numbers, not "):
            _numeric(values, "x")

    def test_numeric_names_the_field_of_a_ragged_array(self):
        with pytest.raises(ValueError, match="^x must be a regular array of numbers: "):
            _numeric([[1.0], [2.0, 3.0]], "x")

    @given(st.lists(
        st.one_of(st.integers(-(10**40), 10**40), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=2, max_size=6,
    ))
    def test_read_only_keeps_the_bits_of_the_plain_float_cast(self, values):
        # the cast before the helpers, np.asarray(values, dtype=float), is the reference
        got, want = _read_only(values, "x"), np.asarray(values, dtype=float)
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("make,match", [
        (lambda: DirichletParams(["1", "2"]), "alpha must hold only numbers"),
        (lambda: EvidenceVector({"a": 1}), "evidence must hold only numbers"),
        (lambda: BaseRate([0.5, 0.5], weight="2"), "base rate weight must be a real number, not '2'"),
        (lambda: BaseRate([True, False]), "base rates must hold only numbers"),
    ])
    def test_value_classes_name_the_field(self, make, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            make()

    @pytest.mark.parametrize("values,want", [
        ([3, 3.0, np.int64(4)], [3, 3, 4]), ((1, 2), [1, 2]), (np.array([2.0, -1.0]), [2, -1]), ([], []),
        ([10**30, 1], [10**30, 1]), (np.array([7], np.uint8), [7]),
    ])
    def test_integers_reads_each_entry_as_an_integer(self, values, want):
        got = _integers(values, "n")
        assert got.ndim == 1 and got.dtype.kind in "iuO" and got.tolist() == want

    def test_integers_judges_an_integer_array_by_its_dtype(self):
        labels = np.arange(5)
        assert _integers(labels, "n") is labels

    @pytest.mark.parametrize("values,match", [
        ([2.7], "n entry must be an integer, not 2.7"),
        (np.array([0.5, 1.0]), "n entry must be an integer, not 0.5"),
        ([float("inf")], "n entry must be an integer, not inf"),
        ([1, True], "n must hold only numbers"),
        (np.array([True]), "n must hold only numbers"),
        (["1"], "n must hold only numbers"),
        (3, "n must be a list of integers"),
        ([[1, 2]], "n must be a list of integers"),
    ])
    def test_integers_refuses_what_is_not_a_list_of_integers(self, values, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            _integers(values, "n")


def small_dataset():
    return gen_synthetic(SyntheticSpec.blobs(2, 2, 2, n_per_class=10))


ALPHA = DirichletParams([2.0, 3.0])


class TestEveryReaderCasts:
    """Each number a public function or value class takes goes through the cast
    set, so a bad one is a ValueError naming its field: not a TypeError, and
    not a truncation."""

    @pytest.mark.parametrize("make,match", [
        # truncated before
        (lambda: ViewGeometry(4.7, 2, 1), "roi_size must be an integer, not 4.7"),
        (lambda: report_from_arrays([0.9, 1.2], [0.6, 0.7], [0, 1]), "predicted entry must be an integer, not 0.9"),
        (lambda: compute_base_rate([0.5, 1.7], 2), "labels entry must be an integer, not 0.5"),
        (lambda: ice_loss(ALPHA, True), "label must be an integer, not True"),
        # a TypeError before
        (lambda: MultiViewSample([np.zeros(2)], None, "a"), "sample a: label must be an integer, not None"),
        (lambda: ViewGeometry(None, 2, 2), "roi_size must be an integer, not None"),
        (lambda: SyntheticSpec(np.zeros((2, 2, 2)), None, 3, 0), "scale must be a real number, not None"),
        (lambda: EvalRecord(0, None, 0.5, 0, "a"), "confidence must be a real number, not None"),
        (lambda: report_from_arrays([0], [0.5], [0], 2.5), "num_bins must be an integer, not 2.5"),
        (lambda: ood_detect([0.1, 0.2], [0.3, 0.4], None), "percentile must be a real number, not None"),
        # a numeric string read as its number before
        (lambda: LossConfig("0.5", ALPHA), "lam must be a real number, not '0.5'"),
        (lambda: resample_class_ratio(small_dataset(), ["0.2", "0.8"], 0), "ratio must hold only numbers"),
        # and the rest of the readers
        (lambda: SyntheticSpec.blobs(2, 2, None), "view_dim must be an integer, not None"),
        (lambda: resample_class_ratio(small_dataset(), [0.2, 0.8], 1.5), "seed must be an integer, not 1.5"),
        (lambda: annealed_lambda(1, 2.5), "annealing_epochs must be an integer, not 2.5"),
        (lambda: extract_views(np.zeros((8, 8)), ViewGeometry(4, 2, 2), center=(5.7, 5)),
         "center entry must be an integer, not 5.7"),
        (lambda: gen_ood(SyntheticSpec.blobs(2, 2, 2), "1"), "shift must be a real number, not '1'"),
        (lambda: check_percentile("50"), "percentile must be a real number, not '50'"),
        (lambda: auc_binary([0.1, 0.9], [0.0, 0.5]), "labels entry must be an integer, not 0.5"),
        (lambda: EvidenceHead.initialize(2.5, (3,), 2, np.random.default_rng(0)), "in_dim must be an integer, not 2.5"),
        # public functions check, while the private twins the library's loops call trust
        (lambda: combined_evidence([["1", "2"]], 2.0), "view_evidences must hold only numbers, not [['1', '2']]"),
        (lambda: combined_evidence([[1.0, 2.0], [3.0, 4.0]], None), "weight must be a real number, not None"),
        (lambda: combined_evidence([[1.0, 2.0]], 0.0), "weight must be a finite positive number, not 0.0"),
        (lambda: combined_evidence([], 2.0), "view_evidences must be one or more (..., K) arrays"),
        (lambda: combined_evidence([[-5.0, 1.0], [1.0, 1.0]], 2.0), "evidence must be nonnegative"),
        (lambda: EvidenceHead([np.ones((2, 2))], [np.ones(2)]).forward(["1", "2"]),
         "features must hold only numbers, not ['1', '2']"),
        (lambda: ln_gamma("3"), "ln_gamma argument must hold only numbers, not '3'"),
        (lambda: trigamma(True), "trigamma argument must hold only numbers, not True"),
    ])
    def test_a_bad_number_is_a_value_error_naming_its_field(self, make, match):
        with pytest.raises(ValueError, match=f"^{re.escape(match)}"):
            make()

    def test_an_integral_float_is_an_integer(self):
        assert ViewGeometry(4.0, 2.0, np.int64(2)) == ViewGeometry(4, 2, 2)
        assert compute_base_rate(np.array([0.0, 1.0, 1.0]), 2.0).rates.tolist() == [1 / 3, 2 / 3]
        assert ice_loss(ALPHA, 1.0) == ice_loss(ALPHA, 1)
        assert report_from_arrays([1.0, 0.0], [0.6, 0.7], [1, 1.0]) == report_from_arrays([1, 0], [0.6, 0.7], [1, 1])


class TestMeasures:
    @pytest.mark.parametrize("alpha,want", [
        ([1.0, 1.0], 2.0),
        ([3.0, 3.0], 6.0),
        ([5.0, 1.0, 1.0, 1.0], 8.0),
    ])
    def test_strength(self, alpha, want):
        assert strength(DirichletParams(alpha)) == want

    @pytest.mark.parametrize("alpha,want", [
        ([1.0, 1.0], [0.5, 0.5]),
        ([3.0, 1.0], [0.75, 0.25]),
        ([5.0, 1.0, 1.0, 1.0], [0.625, 0.125, 0.125, 0.125]),
    ])
    def test_expected_probabilities(self, alpha, want):
        got = expected_probabilities(DirichletParams(alpha))
        assert np.allclose(got, want, atol=1e-15)
        assert got.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("alpha,want", [
        ([3.0, 1.0], 0),
        ([1.0, 1.0], 0),  # ties go to the smallest index
        ([2.0, 7.0, 2.0], 1),
    ])
    def test_predict_class(self, alpha, want):
        assert predict_class(DirichletParams(alpha)) == want


class TestCombinedEvidence:
    @pytest.mark.parametrize("num_views", [1, 2, 3, 5])
    def test_array_and_list_of_views_give_the_list_sum_bits(self, num_views):
        rng = np.random.default_rng(num_views)
        views = rng.exponential(3.0, (num_views, 40, 6))
        want = views[0]
        if num_views > 1:
            total = np.sum(list(views[:-1]), axis=0)
            want = total + views[-1] + total * views[-1] / 6.0
        assert np.array_equal(_combined_evidence(views, 6.0), want)
        assert np.array_equal(_combined_evidence(list(views), 6.0), want)

    def test_an_array_of_views_is_not_copied(self):
        # the local views are summed in place of a (V-1, N, K) copy; what
        # is left is the sum and the three temporaries of the combination
        views = np.random.default_rng(0).exponential(3.0, (9, 200, 20))
        _combined_evidence(views, 20.0)
        tracemalloc.start()
        try:
            _combined_evidence(views, 20.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * views[0].nbytes


class TestKl:
    def test_zero_when_equal(self):
        assert kl_dirichlet(DirichletParams([1.0, 1.0]), DirichletParams([1.0, 1.0])) == 0.0
        p = DirichletParams([1.0, 1.0, 1.0, 1.0])
        assert kl_dirichlet(p, p) == 0.0

    def test_hand_expanded_case(self):
        got = kl_dirichlet(DirichletParams([2.0, 1.0]), DirichletParams([1.0, 1.0]))
        assert got == pytest.approx(math.log(2.0) - 0.5, rel=1e-12)

    def test_self_divergence_vanishes_randomly(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = DirichletParams(rng.uniform(0.1, 30.0, rng.integers(2, 6)))
            assert 0.0 <= kl_dirichlet(p, p) < 1e-10

    def test_matches_quadrature(self):
        rng = np.random.default_rng(1)
        for i in range(20):
            k = 2 if i < 12 else 3
            ap = rng.uniform(0.5, 8.0, k)
            aq = rng.uniform(0.5, 8.0, k)
            got = kl_dirichlet(DirichletParams(ap), DirichletParams(aq))
            want = kl_dirichlet_quadrature(ap, aq)
            assert got == pytest.approx(want, abs=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            kl_dirichlet(DirichletParams([1.0, 1.0]), DirichletParams([1.0, 1.0, 1.0]))

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            k = rng.integers(2, 5)
            p = DirichletParams(rng.uniform(0.05, 50.0, k))
            q = DirichletParams(rng.uniform(0.05, 50.0, k))
            assert kl_dirichlet(p, q) >= 0.0

    def test_is_the_kl_of_the_full_triples_bit_for_bit(self):
        # kl_dirichlet asks specfun for ln Gamma and psi only
        rng = np.random.default_rng(3)
        for k in (2, 5, 20):
            a, b = rng.uniform(0.05, 50.0, k), rng.uniform(0.05, 50.0, k)
            want = float(kl_from_gammas(a, b, *_triples([a, a.sum(), b, b.sum()], "x")))
            assert kl_dirichlet(DirichletParams(a), DirichletParams(b)) == want


class TestRebase:
    def test_hand_case(self):
        got = rebase(EvidenceVector([2.0, 2.0]), BaseRate([0.8, 0.2], weight=2.0))
        assert np.allclose(got.alpha, [3.6, 2.4], atol=1e-15)

    def test_vacuous_evidence_follows_base_rate(self):
        got = rebase(EvidenceVector([0.0, 0.0]), BaseRate([0.8, 0.2], weight=2.0))
        assert np.allclose(got.alpha, [1.6, 0.4], atol=1e-15)
        assert np.allclose(expected_probabilities(got), [0.8, 0.2], atol=1e-15)

    def test_rebase_to_same_rate_is_identity(self):
        a = BaseRate([0.3, 0.7], weight=2.0)
        e = EvidenceVector([1.5, 0.25])
        assert np.allclose(rebase(e, a).alpha, dirichlet_from_evidence(e, a).alpha, atol=0.0)

    def test_rebase_preserves_evidence(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            k = int(rng.integers(2, 6))
            e = EvidenceVector(rng.uniform(0.0, 20.0, k))
            rates = rng.uniform(0.1, 1.0, k)
            new_a = BaseRate(rates / rates.sum(), weight=float(rng.uniform(0.5, 8.0)))
            rebased = rebase(e, new_a)
            back = rebased.alpha - new_a.rates * new_a.weight
            assert np.max(np.abs(back - e.evidence)) < 1e-12

    def test_rebased_opinion_keeps_beliefs_and_uncertainty(self):
        e = EvidenceVector([4.0, 1.0])
        a = BaseRate([0.5, 0.5], weight=2.0)
        a2 = BaseRate([0.9, 0.1], weight=2.0)
        d1 = opinion_from_dirichlet(dirichlet_from_evidence(e, a), a)
        d2 = opinion_from_dirichlet(rebase(e, a2), a2)
        assert np.allclose(d1.beliefs, d2.beliefs, atol=1e-12)
        assert d1.uncertainty == pytest.approx(d2.uncertainty, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rebase(EvidenceVector([1.0, 1.0, 1.0]), BaseRate([0.5, 0.5]))
