import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from evifuse.dirichlet import BaseRate, DirichletParams, EvidenceVector
from evifuse.opinions import (
    FusionConflictError,
    Opinion,
    bcf_fuse,
    cbf_fuse,
    combine_multiview,
    dirichlet_from_evidence,
    dirichlet_from_opinion,
    opinion_from_dirichlet,
    projected_probability,
)

from oracles import bcf_reference, cbf_reference


@st.composite
def evidence_and_base(draw):
    k = draw(st.integers(2, 5))
    e = draw(st.lists(st.floats(0.0, 30.0), min_size=k, max_size=k))
    raw = np.asarray(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    w = draw(st.floats(0.5, 8.0))
    return EvidenceVector(e), BaseRate(raw / raw.sum(), weight=w)


@st.composite
def opinions(draw, k):
    # masses > 0 keeps every opinion non-dogmatic and fusion well defined
    m = np.asarray(draw(st.lists(st.floats(0.01, 1.0), min_size=k + 1, max_size=k + 1)))
    m = m / m.sum()
    return Opinion(m[:k], float(m[k]))


@st.composite
def opinion_pairs(draw):
    k = draw(st.integers(2, 4))
    return draw(opinions(k)), draw(opinions(k))


class TestOpinionContainer:
    def test_closure_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            Opinion([0.5, 0.5], 0.5)

    def test_mass_bounds(self):
        with pytest.raises(ValueError):
            Opinion([-0.2, 0.7], 0.5)
        with pytest.raises(ValueError):
            Opinion([0.5, 0.6], -0.1)

    def test_vacuous(self):
        v = Opinion.vacuous(3)
        assert v.uncertainty == 1.0 and np.all(v.beliefs == 0.0)

    def test_beliefs_read_only(self):
        d = Opinion([0.3, 0.3], 0.4)
        with pytest.raises(ValueError):
            d.beliefs[0] = 0.9

    def test_dict_round_trip(self):
        d = Opinion([0.25, 0.35], 0.4)
        back = Opinion.from_dict(d.to_dict())
        assert np.array_equal(d.beliefs, back.beliefs)
        assert d.uncertainty == back.uncertainty

    @pytest.mark.parametrize("obj,match", [
        ({"uncertainty": 1.0}, "opinion is missing 'beliefs'"),
        ({"beliefs": [0.2, 0.4]}, "opinion is missing 'uncertainty'"),
        ({"beliefs": [0.2, 0.4], "uncertainty": 0.4, "weight": 2.0}, "unknown opinion key 'weight'"),
        ([[0.2, 0.4], 0.4], "opinion must be an object"),
    ])
    def test_from_dict_rejects_wrong_shape(self, obj, match):
        with pytest.raises(ValueError, match=f"^{match}$"):
            Opinion.from_dict(obj)


class TestConversions:
    @given(evidence_and_base())
    def test_round_trip_evidence_to_opinion_and_back(self, eb):
        e, a = eb
        d = dirichlet_from_evidence(e, a)
        op = opinion_from_dirichlet(d, a)
        back = dirichlet_from_opinion(op, a)
        assert np.max(np.abs(back.alpha - d.alpha)) < 1e-12

    @given(evidence_and_base())
    def test_closure_of_mapped_opinions(self, eb):
        e, a = eb
        op = opinion_from_dirichlet(dirichlet_from_evidence(e, a), a)
        assert abs(op.uncertainty + op.beliefs.sum() - 1.0) <= 1e-9

    @given(evidence_and_base())
    def test_projection_matches_dirichlet_mean(self, eb):
        e, a = eb
        d = dirichlet_from_evidence(e, a)
        op = opinion_from_dirichlet(d, a)
        want = d.alpha / d.alpha.sum()
        assert np.max(np.abs(projected_probability(op, a) - want)) < 1e-12

    def test_zero_evidence_is_vacuous(self):
        a = BaseRate([0.6, 0.4], weight=2.0)
        op = opinion_from_dirichlet(dirichlet_from_evidence(EvidenceVector([0.0, 0.0]), a), a)
        assert op.uncertainty == pytest.approx(1.0, abs=1e-15)
        assert np.allclose(op.beliefs, 0.0, atol=1e-15)

    def test_dogmatic_opinion_has_no_dirichlet(self):
        with pytest.raises(ValueError, match="dogmatic"):
            dirichlet_from_opinion(Opinion([1.0, 0.0], 0.0), BaseRate([0.5, 0.5]))

    def test_alpha_below_prior_rejected(self):
        from evifuse.dirichlet import DirichletParams

        with pytest.raises(ValueError, match="negative evidence"):
            opinion_from_dirichlet(DirichletParams([0.1, 3.0]), BaseRate([0.5, 0.5], weight=2.0))

    def test_class_count_mismatches(self):
        a3 = BaseRate([0.4, 0.3, 0.3])
        with pytest.raises(ValueError):
            dirichlet_from_evidence(EvidenceVector([1.0, 1.0]), a3)
        with pytest.raises(ValueError):
            projected_probability(Opinion([0.5, 0.3], 0.2), a3)
        with pytest.raises(ValueError, match="^opinions disagree on the number of classes$"):
            cbf_fuse(Opinion([0.5, 0.3], 0.2), Opinion([0.4, 0.3, 0.1], 0.2))
        with pytest.raises(ValueError, match="^alpha and base rate disagree on the number of classes$"):
            opinion_from_dirichlet(DirichletParams([1.0, 2.0]), a3)
        with pytest.raises(ValueError, match="^opinion and base rate disagree on the number of classes$"):
            dirichlet_from_opinion(Opinion([0.5, 0.3], 0.2), a3)


class TestCumulativeFusion:
    def test_hand_case_exact_fractions(self):
        got = cbf_fuse(Opinion([0.2, 0.4], 0.4), Opinion([0.3, 0.1], 0.6))
        assert np.allclose(got.beliefs, [6.0 / 19.0, 7.0 / 19.0], atol=1e-15)
        assert got.uncertainty == pytest.approx(6.0 / 19.0, abs=1e-15)

    @given(opinion_pairs())
    def test_commutative(self, pair):
        dm, dn = pair
        ab = cbf_fuse(dm, dn)
        ba = cbf_fuse(dn, dm)
        assert np.max(np.abs(ab.beliefs - ba.beliefs)) < 1e-15
        assert abs(ab.uncertainty - ba.uncertainty) < 1e-15

    def test_associative(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            k = int(rng.integers(2, 5))
            ops = []
            for _ in range(3):
                m = rng.uniform(0.01, 1.0, k + 1)
                m /= m.sum()
                ops.append(Opinion(m[:k], float(m[k])))
            left = cbf_fuse(cbf_fuse(ops[0], ops[1]), ops[2])
            right = cbf_fuse(ops[0], cbf_fuse(ops[1], ops[2]))
            assert np.max(np.abs(left.beliefs - right.beliefs)) < 1e-10
            assert abs(left.uncertainty - right.uncertainty) < 1e-10

    @given(evidence_and_base(), st.lists(st.floats(0.0, 30.0), min_size=2, max_size=5))
    def test_adds_evidence_under_shared_base_rate(self, eb, raw_en):
        em, a = eb
        k = em.num_classes
        en = EvidenceVector((raw_en * ((k // len(raw_en)) + 1))[:k])
        dm = opinion_from_dirichlet(dirichlet_from_evidence(em, a), a)
        dn = opinion_from_dirichlet(dirichlet_from_evidence(en, a), a)
        fused = cbf_fuse(dm, dn)
        recovered = dirichlet_from_opinion(fused, a).alpha - a.rates * a.weight
        assert np.max(np.abs(recovered - (em.evidence + en.evidence))) < 1e-9

    @given(opinion_pairs())
    def test_never_increases_uncertainty(self, pair):
        dm, dn = pair
        fused = cbf_fuse(dm, dn)
        assert fused.uncertainty <= min(dm.uncertainty, dn.uncertainty) + 1e-15

    def test_vacuous_is_identity(self):
        d = Opinion([0.3, 0.5], 0.2)
        got = cbf_fuse(Opinion.vacuous(2), d)
        assert np.array_equal(got.beliefs, d.beliefs)
        assert got.uncertainty == d.uncertainty

    def test_dogmatic_operand_dominates(self):
        dog = Opinion([1.0, 0.0], 0.0)
        got = cbf_fuse(dog, Opinion([0.1, 0.4], 0.5))
        assert np.allclose(got.beliefs, [1.0, 0.0], atol=1e-15)
        assert got.uncertainty == 0.0

    def test_two_dogmatic_operands_rejected(self):
        with pytest.raises(FusionConflictError, match="dogmatic"):
            cbf_fuse(Opinion([1.0, 0.0], 0.0), Opinion([0.0, 1.0], 0.0))

    @given(opinion_pairs())
    def test_matches_reference(self, pair):
        dm, dn = pair
        got = cbf_fuse(dm, dn)
        want_b, want_u = cbf_reference(
            dm.beliefs.tolist(), dm.uncertainty, dn.beliefs.tolist(), dn.uncertainty
        )
        assert np.max(np.abs(got.beliefs - np.asarray(want_b))) < 1e-12
        assert abs(got.uncertainty - want_u) < 1e-12


class TestConstraintFusion:
    @pytest.mark.parametrize("dm,dn,want_b,want_u", [
        (([0.1, 0.5], 0.4), ([0.4, 0.2], 0.4), (0.24 / 0.78, 0.38 / 0.78), 0.16 / 0.78),
        (([0.2, 0.7], 0.1), ([0.3, 0.1], 0.6), (0.21 / 0.77, 0.50 / 0.77), 0.06 / 0.77),
        (([0.1, 0.2], 0.7), ([0.2, 0.1], 0.7), (0.23 / 0.95, 0.23 / 0.95), 0.49 / 0.95),
    ])
    def test_hand_cases_exact_fractions(self, dm, dn, want_b, want_u):
        got = bcf_fuse(Opinion(*dm), Opinion(*dn))
        assert np.allclose(got.beliefs, want_b, atol=1e-15)
        assert got.uncertainty == pytest.approx(want_u, abs=1e-15)

    @given(opinion_pairs())
    def test_commutative(self, pair):
        dm, dn = pair
        ab = bcf_fuse(dm, dn)
        ba = bcf_fuse(dn, dm)
        assert np.max(np.abs(ab.beliefs - ba.beliefs)) < 1e-15
        assert abs(ab.uncertainty - ba.uncertainty) < 1e-15

    def test_vacuous_is_identity(self):
        d = Opinion([0.3, 0.5], 0.2)
        got = bcf_fuse(Opinion.vacuous(2), d)
        assert np.array_equal(got.beliefs, d.beliefs)
        assert got.uncertainty == d.uncertainty

    def test_total_conflict_raises(self):
        with pytest.raises(FusionConflictError, match="total belief conflict"):
            bcf_fuse(Opinion([1.0, 0.0], 0.0), Opinion([0.0, 1.0], 0.0))

    @given(opinion_pairs())
    def test_matches_reference(self, pair):
        dm, dn = pair
        got = bcf_fuse(dm, dn)
        want_b, want_u = bcf_reference(
            dm.beliefs.tolist(), dm.uncertainty, dn.beliefs.tolist(), dn.uncertainty
        )
        assert np.max(np.abs(got.beliefs - np.asarray(want_b))) < 1e-12
        assert abs(got.uncertainty - want_u) < 1e-12

    @given(opinion_pairs())
    def test_closure_of_fused_opinion(self, pair):
        fused = bcf_fuse(*pair)
        assert abs(fused.uncertainty + fused.beliefs.sum() - 1.0) <= 1e-9


class TestMultiViewCombination:
    def test_matches_reference_chain(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            k = int(rng.integers(2, 5))
            n_local = int(rng.integers(1, 5))

            def draw():
                m = rng.uniform(0.01, 1.0, k + 1)
                m /= m.sum()
                return Opinion(m[:k], float(m[k]))

            locals_ = [draw() for _ in range(n_local)]
            glob = draw()
            got = combine_multiview(locals_, glob)

            b, u = locals_[0].beliefs.tolist(), locals_[0].uncertainty
            for op in locals_[1:]:
                b, u = cbf_reference(b, u, op.beliefs.tolist(), op.uncertainty)
            b, u = bcf_reference(b, u, glob.beliefs.tolist(), glob.uncertainty)
            assert np.max(np.abs(got.beliefs - np.asarray(b))) < 1e-12
            assert abs(got.uncertainty - u) < 1e-12

    def test_single_local_is_one_constraint_fusion(self):
        dm = Opinion([0.1, 0.5], 0.4)
        dn = Opinion([0.4, 0.2], 0.4)
        got = combine_multiview([dm], dn)
        want = bcf_fuse(dm, dn)
        assert np.array_equal(got.beliefs, want.beliefs)
        assert got.uncertainty == want.uncertainty

    def test_empty_locals_rejected(self):
        with pytest.raises(ValueError, match="at least one local"):
            combine_multiview([], Opinion.vacuous(2))

    def test_cumulative_stage_named_on_failure(self):
        dog_a = Opinion([1.0, 0.0], 0.0)
        dog_b = Opinion([0.0, 1.0], 0.0)
        with pytest.raises(FusionConflictError, match=r"cumulative stage 1 \(folding local opinion 1\)"):
            combine_multiview([dog_a, dog_b], Opinion.vacuous(2))

    def test_constraint_stage_named_on_failure(self):
        with pytest.raises(FusionConflictError, match=r"constraint stage \(global view\)"):
            combine_multiview([Opinion([1.0, 0.0], 0.0)], Opinion([0.0, 1.0], 0.0))
