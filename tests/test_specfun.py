import itertools
import math
import sys
import threading
import tracemalloc

import mpmath
import numpy as np
import pytest

from evifuse.specfun import _CAPACITY, _kernel, _triples, digamma, ln_gamma, trigamma

from oracles import gammas_kernel_reference, paired_kernel_reference

mpmath.mp.dps = 40

EULER_MASCHERONI = 0.5772156649015329


def hybrid_err(got, want):
    # relative where the target is large, absolute near zeros
    return abs(got - want) / max(1.0, abs(want))


class TestKnownValues:
    def test_ln_gamma_at_one(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-14)

    def test_ln_gamma_factorial(self):
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-13)

    def test_ln_gamma_half(self):
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-13)

    def test_digamma_recurrence_step(self):
        assert digamma(2.0) - digamma(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_digamma_at_one(self):
        assert digamma(1.0) == pytest.approx(-EULER_MASCHERONI, rel=1e-12)

    def test_digamma_at_ten(self):
        assert digamma(10.0) == pytest.approx(2.2517525890667211, rel=1e-12)

    def test_trigamma_basel(self):
        assert trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-12)

    def test_trigamma_at_two(self):
        assert trigamma(2.0) == pytest.approx(math.pi ** 2 / 6.0 - 1.0, rel=1e-12)

    def test_trigamma_at_hundred(self):
        # leading asymptotic terms 1/x + 1/(2x^2) + 1/(6x^3)
        assert trigamma(100.0) == pytest.approx(0.010050166663333571, rel=1e-12)


class TestReferenceAgreement:
    def _grid(self):
        rng = np.random.default_rng(11)
        return np.concatenate([
            rng.uniform(1e-3, 1.0, 120),
            rng.uniform(1.0, 100.0, 120),
            rng.uniform(100.0, 1e6, 60),
        ])

    def test_ln_gamma_vs_mpmath(self):
        for x in self._grid():
            want = float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert hybrid_err(ln_gamma(float(x)), want) < 1e-12

    def test_digamma_vs_mpmath(self):
        for x in self._grid():
            want = float(mpmath.digamma(mpmath.mpf(float(x))))
            assert hybrid_err(digamma(float(x)), want) < 1e-12

    def test_trigamma_vs_mpmath(self):
        for x in self._grid():
            want = float(mpmath.polygamma(1, mpmath.mpf(float(x))))
            assert hybrid_err(trigamma(float(x)), want) < 1e-12

    # 1e-8 is the loss floor; above 1e6 is where large combined evidence goes
    @pytest.mark.parametrize("x", [1e-8, 3e6, 1e8, 1e12, 1e15, 1e100])
    def test_extremes_vs_mpmath(self, x):
        m = mpmath.mpf(x)
        assert hybrid_err(ln_gamma(x), float(mpmath.loggamma(m))) < 1e-12
        assert hybrid_err(digamma(x), float(mpmath.digamma(m))) < 1e-12
        assert hybrid_err(trigamma(x), float(mpmath.polygamma(1, m))) < 1e-12


class TestRecurrences:
    def test_digamma_recurrence_bulk(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(0.01, 1e4, 10_000)
        resid = digamma(x + 1.0) - digamma(x) - 1.0 / x
        assert np.max(np.abs(resid)) < 1e-10

    def test_trigamma_recurrence_bulk(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.01, 1e4, 10_000)
        resid = trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)
        assert np.max(np.abs(resid)) < 1e-10

    def test_digamma_is_derivative_of_ln_gamma(self):
        rng = np.random.default_rng(5)
        h = 1e-6
        for x in rng.uniform(0.5, 100.0, 200):
            fd = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h)
            assert abs(fd - digamma(float(x))) <= 1e-5 * max(1.0, abs(fd))

    def test_trigamma_is_derivative_of_digamma(self):
        rng = np.random.default_rng(6)
        h = 1e-6
        for x in rng.uniform(0.5, 100.0, 200):
            fd = (digamma(x + h) - digamma(x - h)) / (2.0 * h)
            assert abs(fd - trigamma(float(x))) <= 1e-5 * max(1.0, abs(fd))


class TestShapeAndDomain:
    def test_monotonicity(self):
        x = np.linspace(0.05, 50.0, 4000)
        assert np.all(np.diff(digamma(x)) > 0.0)
        assert np.all(np.diff(trigamma(x)) < 0.0)

    def test_scalar_in_scalar_out(self):
        assert isinstance(digamma(2.5), float)
        assert isinstance(ln_gamma(np.float64(2.5)), float)

    def test_array_shape_preserved(self):
        x = np.array([[0.5, 1.5], [2.5, 3.5]])
        assert digamma(x).shape == (2, 2)

    def test_small_and_large_array_paths_agree(self):
        # the same values whether computed in a large array or alone
        rng = np.random.default_rng(7)
        big = rng.uniform(0.02, 2e3, 500)
        for fn in (ln_gamma, digamma, trigamma):
            whole = fn(big)
            for idx in (0, 17, 499):
                assert abs(whole[idx] - fn(float(big[idx]))) <= 1e-12 * max(1.0, abs(whole[idx]))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("fn", [ln_gamma, digamma, trigamma])
    def test_rejects_bad_scalars(self, fn, bad):
        with pytest.raises(ValueError):
            fn(bad)

    @pytest.mark.parametrize("fn", [ln_gamma, digamma, trigamma])
    def test_rejects_bad_arrays(self, fn):
        with pytest.raises(ValueError):
            fn(np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            fn(np.linspace(-1.0, 40.0, 100))


class TestTriples:
    def test_mixed_call_equals_single_calls_bit_for_bit(self):
        # both sides of the lift point, tiny and huge values: each element's
        # bits must not depend on what else is in the call
        x = np.array([1e-150, 1e-8, 0.5, 3.0, 9.99, 10.0, 1e12, 1e300])
        ((lg, dg, tg),) = _triples([x], "x")
        for i, v in enumerate(x.tolist()):
            ((lg1, dg1, tg1),) = _triples([v], "x")
            assert (lg[i], dg[i], tg[i]) == (lg1, dg1, tg1)
            assert (ln_gamma(v), digamma(v), trigamma(v)) == (lg1, dg1, tg1)

    def test_one_triple_per_argument_shaped_like_it(self):
        grid = np.array([[0.5, 1.5, 2.5], [20.0, 30.0, 40.0]])
        (g_grid, g_scalar, g_zero_d) = _triples([grid, 2.5, np.float64(4.0)], "x")
        for got, fn in zip(g_grid, (ln_gamma, digamma, trigamma)):
            assert got.shape == (2, 3)
            assert np.array_equal(got, fn(grid))
        assert all(isinstance(v, float) for v in (*g_scalar, *g_zero_d))
        assert g_scalar == (ln_gamma(2.5), digamma(2.5), trigamma(2.5))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_a_bad_element_in_any_argument(self, bad):
        with pytest.raises(ValueError, match="finite x > 0"):
            _triples([np.ones(3), np.array([2.0, bad])], "x")
        with pytest.raises(ValueError, match="finite x > 0"):
            _triples([np.ones(3), np.array([2.0, bad])], "x", (0, 1))


DIGAMMA_ROOT = 1.4616321449683623  # psi's one positive zero


def _lift_grid():
    # every kernel input the lift serves: log-spaced down to 1e-300, dense in
    # (0, 10], the edges of the lift, the loss floor, psi's root and two
    # subnormals, where 1/(x(x+9)) overflows
    rng = np.random.default_rng(14)
    return np.concatenate([
        10.0 ** rng.uniform(-300.0, 1.0, 1200),
        rng.uniform(0.0, 10.0, 1200),
        [np.nextafter(10.0, 0.0), 10.0, 1e-8, DIGAMMA_ROOT, 1.0, 2.0, 1e-300, 1e-310, 5e-324],
    ])


def _hybrid_errs(got, want):
    # psi' overflows below about 7e-155 and psi below about 6e-309; there
    # both must be the same infinity
    finite = np.isfinite(want)
    assert np.all(np.isinf(want[~finite]) & (got[~finite] == want[~finite]))
    return np.abs(got[finite] - want[finite]) / np.maximum(1.0, np.abs(want[finite]))


ROW_SUBSETS = [rows for size in (1, 2, 3) for rows in itertools.combinations((0, 1, 2), size)]


def _edge_grid():
    # the lift grid, both neighbours of 10 and the top of the float range
    return np.concatenate([
        _lift_grid(), [np.nextafter(10.0, 11.0), 10.5, 1e3, 1e150, 1e300, np.finfo(float).max],
    ])


class TestPairedLift:
    def test_matches_the_single_step_kernel(self):
        x = _lift_grid()
        with np.errstate(over="ignore"):
            got, want = _kernel(x), gammas_kernel_reference(x)
        for got_row, want_row, tol in zip(got, want, (1e-14, 4e-15, 4e-15)):
            assert _hybrid_errs(got_row, want_row).max() < tol

    def test_matches_mpmath(self):
        x = _lift_grid()[::4]
        with np.errstate(over="ignore"):
            got = _kernel(x)
        fns = (mpmath.loggamma, mpmath.digamma, lambda v: mpmath.polygamma(1, v))
        for row, fn in zip(got, fns):
            want = np.array([float(fn(mpmath.mpf(float(v)))) for v in x])
            assert _hybrid_errs(row, want).max() < 2e-14

    @pytest.mark.parametrize("x", [1e-200, 1e-300])
    def test_ln_gamma_and_psi_of_tiny_x_skip_the_overflowing_psi1(self, x):
        # psi'(x) ~ 1/x**2 overflows; the other two are finite and warn of nothing
        m = mpmath.mpf(x)
        assert hybrid_err(ln_gamma(x), float(mpmath.loggamma(m))) < 1e-15
        assert hybrid_err(digamma(x), float(mpmath.digamma(m))) < 1e-15

    def test_subnormal_x_gives_infinities_not_nan(self):
        # 1/(x(x+9)) overflows: psi is -inf, psi' +inf, ln Gamma ~ -ln x stays finite
        x = np.array([1e-310, 5e-324])
        with np.errstate(over="ignore"):
            lg, dg, tg = _triples([x], "x")[0]
            assert np.array_equal(trigamma(x), tg)
        assert np.all(np.isfinite(lg)) and np.all(np.isneginf(dg)) and np.all(np.isposinf(tg))

    def test_trigamma_below_the_normal_range_is_inf_without_invalid_values(self):
        # from about 6e-310 to 1.2e-309, 1/t is finite but the psi' sum overflows
        x = np.geomspace(5e-324, 1e-300, 2000)
        with np.errstate(over="ignore", invalid="raise"):
            assert np.all(np.isposinf(trigamma(x)))
            assert np.isposinf(trigamma(8e-310))

    def test_psi_at_its_root(self):
        assert abs(digamma(DIGAMMA_ROOT)) < 1e-15

    @pytest.mark.parametrize("rows", ROW_SUBSETS)
    def test_every_row_subset_is_the_full_call_bits(self, rows):
        # the lift grid with subnormals, both sides of 10 and huge x: a row's
        # bits do not depend on which other rows the call computes
        x = _edge_grid()
        with np.errstate(over="ignore"):
            full, some = _kernel(x), _kernel(x, rows)
        assert some.shape == (len(rows), x.size)
        assert np.array_equal(some, full[list(rows)])

    def test_pairs_without_trigamma_are_the_triples_bits(self):
        x = _lift_grid()
        big = np.array([10.0, 11.5, 1e3, 1e300])
        with np.errstate(over="ignore"):
            full = _triples([x, big, 3.5], "x")
            pairs = _triples([x, big, 3.5], "x", (0, 1))
        for triple, pair in zip(full, pairs):
            assert len(pair) == 2
            for a, b in zip(triple[:2], pair):
                assert np.array_equal(a, b)


class TestScratch:
    """The kernel's temporaries live in a reused per-thread scratch of `_CAPACITY` values."""

    @pytest.mark.parametrize("size", [0, 1, _CAPACITY - 1, _CAPACITY, _CAPACITY + 1, 3 * _CAPACITY + 7])
    @pytest.mark.parametrize("rows", ROW_SUBSETS)
    def test_every_size_is_the_fresh_array_kernel_bits(self, rows, size):
        # sizes around the capacity, where an input is computed in pieces
        x = np.random.default_rng(size).permutation(np.resize(_edge_grid(), size))
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = _kernel(x, rows), paired_kernel_reference(x, rows)
        assert got.shape == (len(rows), size)
        assert np.array_equal(got, want, equal_nan=True)

    def test_threads_keep_their_own_scratch(self):
        # more threads than cores and a short switch interval, so the calls
        # interleave; each result must be the bits of a call made alone
        rng = np.random.default_rng(21)
        inputs = [rng.uniform(1e-3, 40.0, 8209) for _ in range(4)]
        want = [_triples([x], "x") for x in inputs]
        same = [0] * len(inputs)

        def work(i):
            for _ in range(200):
                (got,) = _triples([inputs[i]], "x")
                same[i] += all(np.array_equal(g, w) for g, w in zip(got, want[i][0]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(inputs))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert same == [200] * len(inputs)

    @pytest.mark.parametrize("rows", ROW_SUBSETS)
    def test_a_warm_call_allocates_its_output_and_lift_index_only(self, rows):
        # every value below 10, so the index of lifted elements is as long as
        # the input; the fresh-array kernel peaked at 14 to 17 times n * 8
        x = np.random.default_rng(8).uniform(1e-3, 10.0, 8209)
        _kernel(x, rows)
        tracemalloc.start()
        try:
            _kernel(x, rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (len(rows) + 2) * x.size * 8
