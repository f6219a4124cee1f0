"""Log-gamma, digamma, and trigamma for positive real arguments.

One kernel computes any subset of the three in one pass, one row per
quantity asked for. Arguments below 10 are lifted by a constant 10 steps
with the standard recurrences (Abramowitz & Stegun 6.1.15, 6.3.5), taken
in five pairs whose products share one quadratic (see `_lift`), then a
Bernoulli asymptotic series is evaluated at the lifted point; the three
series share 1/x and 1/x**2, and only ln Gamma and psi take a log, so a
psi'-only pass takes none. With the series truncated after the B12 term
the truncation error at x = 10 is below 1e-14 relative, comfortably inside
the 1e-12 budget the Dirichlet losses need. Every element and every row is
computed on its own, so a value's bits do not depend on what else is in
the same call, nor on which other rows it asks for. Inputs are validated,
not clamped; numeric floors are the caller's policy.

`gammas` serves callers that need several quantities of several arrays: one
validated kernel pass over their concatenation, which can leave psi' out.
`ln_gamma`, `digamma` and `trigamma` ask that pass for their one row; they
accept scalars or arrays and return matching shapes. All four cast their
arguments through `_casts._numeric`; the library's own callers call the
unchecked `_triples`.
"""

from __future__ import annotations

import numpy as np

from ._casts import _numeric

_LIFT = 10  # arguments below this are lifted by exactly this many steps
_ALL = (0, 1, 2)  # `_kernel`'s rows: ln Gamma, psi, psi'
_HALF_LOG_2PI = 0.9189385332046727  # 0.5*ln(2*pi)

# Bernoulli-number coefficient tails, lowest order first, consumed by a
# Horner loop in 1/x**2.
_LGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _horner(tail, z):
    acc = tail[-1] * z
    acc += tail[-2]
    for c in tail[-3::-1]:
        acc *= z
        acc += c
    return acc


# (x+k)(x+9-k) - x(x+9) for k = 1..4: the lift pairs x+k with x+9-k, and
# every pair's product is t + c with t = x(x+9).
_PAIR_OFFSETS = (8.0, 14.0, 18.0, 20.0)


def _lift(x0: np.ndarray, rows) -> list:
    """Recurrence terms taking x0 < 10 to x0 + 10, one array per row asked for.

    ln Gamma(x) = ln Gamma(x+10) - ln(x (x+1) ... (x+9)),
    psi(x) = psi(x+10) - sum 1/(x+k), psi'(x) = psi'(x+10) + sum 1/(x+k)**2.
    The ten factors go in five pairs, (x+k)(x+9-k) = t + c with t = x(x+9)
    and c in {0, 8, 14, 18, 20}. With s = 2x+9, the sum of a pair, each pair
    adds s/(t+c) to the psi sum and s**2/(t+c)**2 - 2/(t+c) to the psi' sum,
    a subtraction that loses at most a factor 2 since the first term is at
    least twice the second: five divisions and one log where single steps
    take ten and two. x needs no log of its own: every partial product is
    at least t >= 9x, and the whole at least x*9!, so none underflows where
    x does not, and below x = 10 it stays under 3.4e11. Only ln Gamma reads
    the product and its log; psi' reads the psi sum before its factor s.
    Each row is the same bits whatever else is asked for.
    """
    with_log, with_sum, with_squares = 0 in rows, 1 in rows or 2 in rows, 2 in rows
    t = x0 + 9.0
    t *= x0
    step = np.empty_like(t)
    if with_log:
        prod = t.copy()
    if with_sum:
        dg, inv = np.divide(1.0, t), np.empty_like(t)
    if with_squares:
        tg = dg * dg
    for c in _PAIR_OFFSETS:
        np.add(t, c, out=step)
        if with_log:
            prod *= step
        if with_sum:
            np.divide(1.0, step, out=inv)
            dg += inv
        if with_squares:
            inv *= inv
            tg += inv
    terms = {}
    if with_sum:
        neg_s = -2.0 * x0
        neg_s -= 9.0
    if with_squares:
        tg *= neg_s * neg_s
        # where 1/t overflows (x below about 6e-310) psi' is +inf already,
        # and subtracting the infinite psi sum would make it inf - inf
        np.subtract(tg, dg + dg, out=tg, where=np.isfinite(dg))
        terms[2] = tg
    if 1 in rows:
        dg *= neg_s
        terms[1] = dg
    if with_log:
        np.log(prod, out=prod)
        terms[0] = np.negative(prod, out=prod)
    return [terms[r] for r in rows]


def _kernel(flat: np.ndarray, rows=_ALL) -> np.ndarray:
    """Rows `rows` (increasing, of `_ALL`) of (ln Gamma, psi, psi') of a flat array of finite x > 0."""
    low = np.flatnonzero(flat < _LIFT)
    x0 = flat[low]
    x = flat.copy()
    x[low] = x0 + _LIFT
    inv = 1.0 / x
    inv2 = inv * inv
    if 0 in rows or 1 in rows:
        log_x = np.log(x)
    out = np.empty((len(rows), x.size))
    for row, r in zip(out, rows):
        if r == 0:
            np.multiply(x - 0.5, log_x, out=row)
            row -= x
            row += _HALF_LOG_2PI
            row += inv * _horner(_LGAMMA_TAIL, inv2)
        elif r == 1:
            np.subtract(log_x, 0.5 * inv, out=row)
            row -= inv2 * _horner(_DIGAMMA_TAIL, inv2)
        else:
            np.add(inv, 0.5 * inv2, out=row)
            row += inv * inv2 * _horner(_TRIGAMMA_TAIL, inv2)
    if low.size:
        for row, term in zip(out, _lift(x0, rows)):
            row[low] += term
    return out


def _triples(arrays, name: str, rows=_ALL) -> list:
    """For each array, a tuple of its `rows` of (ln Gamma, psi, psi'), from one `_kernel` pass."""
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    if flat.size and not (flat.min() > 0.0 and flat.max() < np.inf):
        raise ValueError(f"{name} is defined for finite x > 0 only")
    out = _kernel(flat, rows)
    triples, start = [], 0
    for a in arrays:
        end = start + a.size
        if a.ndim == 0:
            triples.append(tuple(float(row[start]) for row in out))
        else:
            triples.append(tuple(row[start:end].reshape(a.shape) for row in out))
        start = end
    return triples


def gammas(*arrays, with_trigamma: bool = True) -> list:
    """(ln Gamma, psi, psi') of each argument, from one kernel pass.

    Returns one triple per argument, each entry shaped like the argument: a
    float for a scalar or 0-d array, an array otherwise. With
    `with_trigamma=False` each is a (ln Gamma, psi) pair instead, for a
    caller that needs no derivative; the pair's bits equal the triple's
    first two entries, and the pass skips the psi' series and lift terms.
    Raises ValueError if an argument is not an array of numbers, or any
    element is not finite or not strictly positive.
    """
    rows = _ALL if with_trigamma else (0, 1)
    return _triples([_numeric(a, "gammas argument") for a in arrays], "gammas", rows)


def ln_gamma(x):
    """Natural logarithm of the gamma function.

    Accurate to better than 1e-12 relative error over [1e-8, 1e100], except
    in the immediate neighborhood of the zeros at x = 1 and x = 2 where the
    error is absolute (~1e-15).
    """
    return _triples([_numeric(x, "ln_gamma argument")], "ln_gamma", (0,))[0][0]


def digamma(x):
    """Digamma psi(x), the logarithmic derivative of the gamma function."""
    return _triples([_numeric(x, "digamma argument")], "digamma", (1,))[0][0]


def trigamma(x):
    """Trigamma psi'(x), the derivative of digamma."""
    return _triples([_numeric(x, "trigamma argument")], "trigamma", (2,))[0][0]
