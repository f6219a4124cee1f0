import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from evifuse.dirichlet import BaseRate, DirichletParams, combined_evidence, kl_dirichlet
from evifuse.losses import (
    _ALPHA_FLOOR,
    LossConfig,
    annealed_lambda,
    ice_grad,
    ice_loss,
    kl_reg_grad,
    kl_reg_loss,
    overall_grad,
    overall_loss,
    overall_loss_and_grad,
    overall_loss_rows,
)
from oracles import (
    fd_grad,
    masked_alpha_reference,
    overall_loss_and_grad_chain,
    per_view_loss_and_grad_reference,
)

PI2_6 = math.pi * math.pi / 6.0


def uniform_cfg(k, lam):
    return LossConfig(lam, DirichletParams(np.full(k, 1.0)))


class TestSchedule:
    def test_linear_ramp(self):
        assert annealed_lambda(0, 10) == 0.0
        assert annealed_lambda(5, 10) == 0.5
        assert annealed_lambda(10, 10) == 1.0
        assert annealed_lambda(25, 10) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            annealed_lambda(3, 0)
        with pytest.raises(ValueError):
            annealed_lambda(-1, 10)
        with pytest.raises(ValueError):
            LossConfig(1.5, DirichletParams([1.0, 1.0]))
        with pytest.raises(ValueError):
            LossConfig(-0.1, DirichletParams([1.0, 1.0]))


class TestIce:
    @pytest.mark.parametrize("alpha,label,want", [
        ([1.0, 1.0], 0, 1.0),
        ([1.0, 2.0, 1.0], 0, 11.0 / 6.0),
        ([9.0, 1.0], 0, 1.0 / 9.0),
    ])
    def test_hand_cases(self, alpha, label, want):
        assert ice_loss(DirichletParams(alpha), label) == pytest.approx(want, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            k = int(rng.integers(2, 6))
            alpha = DirichletParams(rng.uniform(0.05, 60.0, k))
            assert ice_loss(alpha, int(rng.integers(0, k))) >= 0.0

    def test_label_bounds(self):
        with pytest.raises(ValueError):
            ice_loss(DirichletParams([1.0, 1.0]), 2)
        with pytest.raises(ValueError):
            ice_loss(DirichletParams([1.0, 1.0]), -1)

    def test_grad_hand_case(self):
        got = ice_grad(DirichletParams([1.0, 1.0]), 0)
        assert got[0] == pytest.approx(-1.0, abs=1e-12)
        assert got[1] == pytest.approx(PI2_6 - 1.0, abs=1e-12)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        for _ in range(40):
            k = int(rng.integers(2, 5))
            a = rng.uniform(0.3, 20.0, k)
            label = int(rng.integers(0, k))
            got = ice_grad(DirichletParams(a), label)
            want = fd_grad(lambda x: ice_loss(DirichletParams(x), label), a)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-6


class TestKlRegularizer:
    def test_masking_replaces_label_entry(self):
        alpha, beta = DirichletParams([5.0, 3.0, 2.0]), DirichletParams([1.0, 1.0, 1.0])
        masked = masked_alpha_reference(alpha.alpha, 1, beta.alpha)
        assert np.array_equal(masked, [5.0, 1.0, 2.0])
        want = kl_dirichlet(DirichletParams(masked), beta)
        assert kl_reg_loss(alpha, 1, beta) == pytest.approx(want, rel=1e-14)

    def test_zero_when_only_label_evidence(self):
        beta = DirichletParams([1.0, 1.0])
        assert kl_reg_loss(DirichletParams([7.0, 1.0]), 0, beta) == 0.0

    def test_ignores_label_evidence(self):
        beta = DirichletParams([1.0, 1.0, 1.0])
        lo = kl_reg_loss(DirichletParams([2.0, 4.0, 1.5]), 1, beta)
        hi = kl_reg_loss(DirichletParams([2.0, 40.0, 1.5]), 1, beta)
        assert lo == hi

    def test_grad_zero_at_label(self):
        beta = DirichletParams([1.0, 1.0, 1.0])
        g = kl_reg_grad(DirichletParams([2.0, 4.0, 1.5]), 2, beta)
        assert g[2] == 0.0

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            k = int(rng.integers(2, 5))
            a = rng.uniform(0.3, 20.0, k)
            rates = rng.uniform(0.1, 1.0, k)
            beta = DirichletParams(rates / rates.sum() * float(rng.uniform(1.0, 4.0)))
            label = int(rng.integers(0, k))
            got = kl_reg_grad(DirichletParams(a), label, beta)
            want = fd_grad(lambda x: kl_reg_loss(DirichletParams(x), label, beta), a)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-6


class TestPerView:
    """ice + lam * masked KL, one Dirichlet's term, against the scipy reference."""

    def test_lambda_zero_is_pure_ice(self):
        alpha = DirichletParams([3.0, 2.0])
        loss, grad = per_view_loss_and_grad_reference(alpha.alpha, 0, 0.0, [1.0, 1.0])
        assert loss == pytest.approx(ice_loss(alpha, 0), rel=1e-12)
        assert np.allclose(grad, ice_grad(alpha, 0), rtol=1e-12, atol=0.0)

    def test_lambda_blends_terms(self):
        alpha = DirichletParams([3.0, 2.0])
        beta = DirichletParams([1.0, 1.0])
        for lam in (0.25, 1.0):
            want, _ = per_view_loss_and_grad_reference(alpha.alpha, 0, lam, beta.alpha)
            got = ice_loss(alpha, 0) + lam * kl_reg_loss(alpha, 0, beta)
            assert got == pytest.approx(want, rel=1e-12)

    def test_grad_matches_finite_differences(self):
        beta = DirichletParams([1.0, 1.0, 1.0])
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.uniform(0.3, 15.0, 3)
            label = int(rng.integers(0, 3))
            got = ice_grad(DirichletParams(a), label) + 0.7 * kl_reg_grad(DirichletParams(a), label, beta)
            want = fd_grad(lambda x: per_view_loss_and_grad_reference(x, label, 0.7, beta.alpha)[0], a)
            assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) < 1e-6


class TestMinorityPenalty:
    def test_mirrored_samples_penalize_the_rare_class(self):
        # same evidence pattern, same total strength; the class holding the
        # smaller share of the prior must always pay the larger ice loss
        a = BaseRate([0.8, 0.2], weight=2.0)
        prior = a.rates * a.weight
        rng = np.random.default_rng(4)
        for _ in range(300):
            x, y = rng.uniform(0.0, 30.0, 2)
            majority = ice_loss(DirichletParams(np.array([x, y]) + prior), 0)
            minority = ice_loss(DirichletParams(np.array([y, x]) + prior), 1)
            assert minority > majority


class TestOverall:
    def test_hand_case_three_units(self):
        cfg = uniform_cfg(2, 0.0)
        ones = DirichletParams([1.0, 1.0])
        assert overall_loss([ones, ones], ones, 0, cfg) == pytest.approx(3.0, abs=1e-12)

    def test_chain_reproduces_hand_case_from_zero_evidence(self):
        cfg = uniform_cfg(2, 0.0)
        base = BaseRate([0.5, 0.5], weight=2.0)
        loss, grads = overall_loss_and_grad([np.zeros(2), np.zeros(2)], base, 0, cfg)
        assert loss == pytest.approx(3.0, abs=1e-12)
        assert len(grads) == 2 and all(g.shape == (2,) for g in grads)

    def test_loss_agrees_with_explicit_fusion(self):
        from evifuse.dirichlet import EvidenceVector
        from evifuse.opinions import (
            bcf_fuse,
            cbf_fuse,
            dirichlet_from_evidence,
            dirichlet_from_opinion,
            opinion_from_dirichlet,
        )

        rng = np.random.default_rng(5)
        for _ in range(50):
            k = int(rng.integers(2, 5))
            v = int(rng.integers(2, 5))
            rates = rng.uniform(0.2, 1.0, k)
            base = BaseRate(rates / rates.sum(), weight=float(rng.uniform(1.0, 4.0)))
            cfg = LossConfig(float(rng.uniform(0.0, 1.0)), DirichletParams(base.rates * base.weight))
            evidences = [rng.uniform(0.1, 20.0, k) for _ in range(v)]
            label = int(rng.integers(0, k))

            ops = [
                opinion_from_dirichlet(dirichlet_from_evidence(EvidenceVector(e), base), base)
                for e in evidences
            ]
            fused = ops[0]
            for op in ops[1:-1]:
                fused = cbf_fuse(fused, op)
            combined = dirichlet_from_opinion(bcf_fuse(fused, ops[-1]), base)
            alphas = [DirichletParams(e + base.rates * base.weight) for e in evidences]
            want = overall_loss(alphas, combined, label, cfg)

            got, _ = overall_loss_and_grad(evidences, base, label, cfg)
            assert got == pytest.approx(want, rel=1e-10)

    @pytest.mark.parametrize("k,v", [(2, 1), (2, 2), (3, 3), (4, 2), (2, 4)])
    def test_grad_matches_finite_differences(self, k, v):
        rng = np.random.default_rng(100 * k + v)
        rates = rng.uniform(0.2, 1.0, k)
        base = BaseRate(rates / rates.sum(), weight=float(k))
        cfg = LossConfig(0.6, DirichletParams(base.rates * base.weight))
        for _ in range(8):
            evidences = [rng.uniform(0.1, 40.0, k) for _ in range(v)]
            label = int(rng.integers(0, k))
            grads = overall_grad(evidences, base, label, cfg)
            for i in range(v):
                def f(x, i=i):
                    trial = [x if j == i else evidences[j] for j in range(v)]
                    return overall_loss_and_grad(trial, base, label, cfg)[0]

                want = fd_grad(f, evidences[i])
                err = np.max(np.abs(grads[i] - want) / np.maximum(1.0, np.abs(want)))
                assert err < 1e-4

    def test_single_view_doubles_the_per_view_terms(self):
        base = BaseRate([0.5, 0.5], weight=2.0)
        cfg = LossConfig(0.5, DirichletParams([1.0, 1.0]))
        e = np.array([3.0, 1.0])
        loss, grads = overall_loss_and_grad([e], base, 0, cfg)
        want_loss, want_grad = per_view_loss_and_grad_reference(e + 1.0, 0, 0.5, [1.0, 1.0])
        assert loss == pytest.approx(2.0 * want_loss, rel=1e-10)
        assert np.allclose(grads[0], 2.0 * want_grad, atol=1e-8)

    def test_empty_views_rejected(self):
        with pytest.raises(ValueError):
            overall_loss_and_grad([], BaseRate([0.5, 0.5]), 0, uniform_cfg(2, 0.0))

    def test_finite_at_near_total_conflict(self):
        # local and global views each back a different class with 1e9
        # evidence; in opinion space the constraint normalizer is ~4e-9
        base = BaseRate([0.5, 0.5], weight=2.0)
        cfg = uniform_cfg(2, 0.0)
        evidences = [np.array([1e9, 0.0]), np.array([0.0, 1e9])]
        loss, grads = overall_loss_and_grad(evidences, base, 0, cfg)
        assert np.isfinite(loss)
        assert all(np.all(np.isfinite(g)) for g in grads)

    def test_diverged_rows_score_nan_and_leave_the_rest(self):
        # row 1 has infinite evidence, row 2 finite evidence whose combination
        # overflows (1e200 * 1e200 / W), row 3 NaN evidence
        base = BaseRate([0.4, 0.6], weight=2.0)
        cfg = uniform_cfg(2, 0.7)
        local = np.array([[1.0, 2.0], [np.inf, 1.0], [1e200, 0.0], [np.nan, 1.0], [0.5, 3.0]])
        glob = np.array([[2.0, 0.5], [1.0, 1.0], [1e200, 1.0], [1.0, 1.0], [4.0, 0.0]])
        labels = np.array([0, 1, 0, 1, 1])
        with np.errstate(over="ignore", invalid="ignore"):
            losses, grads = overall_loss_and_grad([local, glob], base, labels, cfg)
            rows, alpha = overall_loss_rows([local, glob], base, labels, cfg)
        good, bad = [0, 4], [1, 2, 3]
        assert np.all(np.isnan(losses[bad]))
        assert all(np.all(np.isnan(g[bad])) for g in grads)
        assert np.array_equal(rows, losses, equal_nan=True)
        assert np.all(np.isnan(alpha[bad])) and np.all(np.isfinite(alpha[good]))
        want, want_grads = overall_loss_and_grad([local[good], glob[good]], base, labels[good], cfg)
        assert np.array_equal(losses[good], want)
        assert all(np.array_equal(g[good], w) for g, w in zip(grads, want_grads))

    def test_one_special_function_call_per_batch(self, monkeypatch):
        import evifuse.losses as losses_module

        calls = []
        real = losses_module.gammas
        monkeypatch.setattr(losses_module, "gammas", lambda *a: calls.append(a) or real(*a))
        base, cfg, evidences, labels = _random_batch(np.random.default_rng(3), "dense")
        overall_loss_and_grad(evidences, base, labels, cfg)
        assert len(calls) == 1
        overall_loss_rows(evidences, base, labels, cfg)
        assert len(calls) == 2
        # S, alpha_label, masked alpha and its sum per Dirichlet, then beta and its sum
        v, (n, k) = len(evidences), evidences[0].shape
        sizes = [sum(np.size(a) for a in args) for args in calls]
        assert sizes == [(v + 1) * n * (k + 3) + k + 1] * 2

    def test_rejects_bad_batches(self):
        base = BaseRate([0.5, 0.5], weight=2.0)
        cfg = uniform_cfg(2, 0.0)
        ok = np.ones((3, 2))
        for routine in (overall_loss_and_grad, overall_loss_rows):
            with pytest.raises(ValueError, match="label"):
                routine([ok, ok], base, np.array([0, 2, 1]), cfg)
            with pytest.raises(ValueError, match="labels"):
                routine([ok, ok], base, np.array([0, 1]), cfg)
            with pytest.raises(ValueError, match="one shape"):
                routine([ok, np.ones((2, 2))], base, np.array([0, 1, 1]), cfg)
            with pytest.raises(ValueError, match="nonnegative"):
                routine([ok, -ok], base, np.array([0, 1, 1]), cfg)


def _random_batch(rng, kind):
    k = int(rng.integers(2, 6))
    v = int(rng.integers(2, 7))
    n = int(rng.integers(1, 9))
    rates = rng.uniform(0.05, 1.0, k)
    base = BaseRate(rates / rates.sum(), weight=float(rng.uniform(0.5, 8.0)))
    labels = rng.integers(0, k, n)
    lam = float(rng.uniform(0.0, 1.0))
    evidence = rng.uniform(0.0, 30.0, (v, n, k))
    if kind == "sparse":
        evidence *= rng.uniform(size=evidence.shape) < 0.3
    elif kind == "zero":
        evidence[rng.uniform(size=(v, n)) < 0.5] = 0.0
    elif kind in ("huge", "huge_on_label"):
        big = rng.uniform(size=evidence.shape) < 0.5
        evidence *= rng.uniform(size=evidence.shape) < 0.5
        if kind == "huge":
            # 1e12 off-label evidence makes the masked KL a difference of
            # ~1e13-sized terms in any implementation, so only the ICE runs
            lam = 0.0
        else:
            big &= (np.arange(k) == labels[:, None])[None]
        evidence = np.where(big, 1e12 * rng.uniform(0.5, 1.0, evidence.shape), evidence)
    elif kind == "floored":
        # a base rate of 1e-9 under W = 1 puts beta, and the alpha of any
        # zero evidence for that class, below the alpha floor
        tiny = int(rng.integers(0, k))
        rates = np.where(np.arange(k) == tiny, 0.0, base.rates)
        rates *= (1.0 - 1e-9) / rates.sum()
        rates[tiny] = 1e-9
        base = BaseRate(rates, weight=1.0)
        evidence[..., tiny] *= rng.uniform(size=(v, n)) < 0.5
        evidence[0, 0, tiny] = 0.0
    cfg = LossConfig(lam, DirichletParams(base.rates * base.weight))
    return base, cfg, list(evidence), labels


_KINDS = ["dense", "sparse", "zero", "huge", "huge_on_label", "floored"]


def _floor_binds(base, evidences):
    return bool(np.any(np.stack(evidences) + base.rates * base.weight < _ALPHA_FLOOR))


class TestBatchedAgainstOpinionChain:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_matches_reference_chain(self, kind):
        rng = np.random.default_rng(_KINDS.index(kind))
        shapes = set()
        for _ in range(60):
            base, cfg, evidences, labels = _random_batch(rng, kind)
            assert _floor_binds(base, evidences) == (kind == "floored")
            losses, grads = overall_loss_and_grad(evidences, base, labels, cfg)
            v, (n, k) = len(evidences), evidences[0].shape
            shapes.add((k, v))
            assert losses.shape == (n,) and all(g.shape == (n, k) for g in grads)
            for i in range(n):
                want_loss, want_grads = overall_loss_and_grad_chain(
                    [e[i] for e in evidences], base.rates, base.weight, labels[i], cfg.lam
                )
                assert abs(losses[i] - want_loss) <= 1e-12 * max(1.0, abs(want_loss))
                for got, want in zip(grads, want_grads):
                    assert np.max(np.abs(got[i] - want) / np.maximum(1.0, np.abs(want))) <= 1e-12
        assert len({k for k, _ in shapes}) > 1 and len({v for _, v in shapes}) > 1

    def test_batch_rows_equal_single_samples(self):
        base, cfg, evidences, labels = _random_batch(np.random.default_rng(7), "dense")
        losses, grads = overall_loss_and_grad(evidences, base, labels, cfg)
        for i, label in enumerate(labels):
            loss, row_grads = overall_loss_and_grad([e[i] for e in evidences], base, int(label), cfg)
            assert loss == pytest.approx(losses[i], rel=1e-14)
            for got, want in zip(row_grads, grads):
                assert np.allclose(got, want[i], rtol=1e-14, atol=0.0)


class TestLossRows:
    @pytest.mark.parametrize("kind", _KINDS)
    def test_losses_equal_loss_and_grad_bit_for_bit(self, kind):
        rng = np.random.default_rng(10 + _KINDS.index(kind))
        for _ in range(40):
            base, cfg, evidences, labels = _random_batch(rng, kind)
            assert _floor_binds(base, evidences) == (kind == "floored")
            # any lambda: equal bits do not depend on the KL's precision
            cfg = LossConfig(float(rng.uniform(0.0, 1.0)), cfg.beta)
            losses, alpha = overall_loss_rows(evidences, base, labels, cfg)
            want, _ = overall_loss_and_grad(evidences, base, labels, cfg)
            assert np.array_equal(losses, want)
            fused = combined_evidence(evidences, base.weight) + base.rates * base.weight
            assert np.array_equal(alpha, fused)

    def test_single_sample(self):
        base = BaseRate([0.3, 0.7], weight=2.0)
        cfg = uniform_cfg(2, 0.4)
        evidences = [np.array([3.0, 1.0]), np.array([0.5, 2.0])]
        loss, alpha = overall_loss_rows(evidences, base, 1, cfg)
        assert loss == overall_loss_and_grad(evidences, base, 1, cfg)[0]
        assert alpha.shape == (2,)



def _softplus(z):
    # the evidence heads' output nonlinearity
    return float(np.logaddexp(0.0, z))


_EXTREME_EVIDENCE = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2e-308),  # subnormals
    st.floats(0.0, 1e12),
    st.floats(30.0, 700.0).map(_softplus),  # saturated high: softplus(z) == z
    st.floats(-745.0, -30.0).map(_softplus),  # saturated low: exp(z), down to 0
)


@st.composite
def extreme_batches(draw):
    v, n, k = draw(st.integers(2, 4)), draw(st.integers(1, 6)), draw(st.integers(2, 6))
    evidence = draw(hnp.arrays(np.float64, (v, n, k), elements=_EXTREME_EVIDENCE))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, k - 1)))
    rates = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    base = BaseRate(rates / rates.sum(), weight=draw(st.floats(0.5, 8.0)))
    cfg = LossConfig(draw(st.floats(0.0, 1.0)), DirichletParams(base.rates * base.weight))
    return list(evidence), labels, base, cfg


class TestExtremeEvidence:
    @given(extreme_batches())
    def test_loss_routines_agree_and_stay_finite(self, batch):
        evidences, labels, base, cfg = batch
        losses, grads = overall_loss_and_grad(evidences, base, labels, cfg)
        rows, _ = overall_loss_rows(evidences, base, labels, cfg)
        assert np.array_equal(rows, losses)
        assert np.all(np.isfinite(losses)) and np.all(losses >= 0.0)
        assert all(np.all(np.isfinite(g)) for g in grads)
