import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse.dirichlet import (
    _FLOAT_OVERFLOW,
    BaseRate,
    DirichletParams,
    EvidenceVector,
    _integer,
    _numeric,
    _read_only,
    _real,
    expected_probabilities,
    kl_dirichlet,
    predict_class,
    rebase,
    strength,
)
from evifuse.opinions import dirichlet_from_evidence, opinion_from_dirichlet

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
        [0.1, True], [[1.0, 2.0], [3.0, np.False_]],
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
