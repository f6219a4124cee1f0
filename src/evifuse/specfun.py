"""Log-gamma, digamma, and trigamma for positive real arguments.

One kernel computes all three at once. Arguments below 10 are lifted by a
constant 10 steps with the standard recurrences, then a Bernoulli asymptotic
series is evaluated at the lifted point; the three series share 1/x, 1/x**2
and log x. With the series truncated after the B12 term the truncation error
at x = 10 is below 1e-14 relative, comfortably inside the 1e-12 budget the
Dirichlet losses need. Every element is computed on its own, so a value's
bits do not depend on what else is in the same call. Inputs are validated,
not clamped; numeric floors are the caller's policy.

`gammas` serves callers that need several quantities of several arrays: one
validated kernel pass over their concatenation. `ln_gamma`, `digamma` and
`trigamma` are views of it that accept scalars or arrays and return matching
shapes.
"""

from __future__ import annotations

import numpy as np

_LIFT = 10  # arguments below this are lifted by exactly this many steps
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


def _lift(x0: np.ndarray) -> np.ndarray:
    """Recurrence terms taking x0 < 10 to x0 + 10, one row per quantity.

    ln Gamma(x) = ln Gamma(x+10) - ln x - ln((x+1) ... (x+9)),
    psi(x) = psi(x+10) - sum 1/(x+k), psi'(x) = psi'(x+10) + sum 1/(x+k)**2.
    The product stays below 19**9, so it cannot overflow, and x goes through
    its own log, so a tiny x cannot underflow it.
    """
    out = np.empty((3, x0.size))
    lg, dg, tg = out
    inv = 1.0 / x0
    np.negative(inv, out=dg)
    np.multiply(inv, inv, out=tg)
    step, prod = np.empty_like(x0), np.ones_like(x0)
    for k in range(1, _LIFT):
        np.add(x0, k, out=step)
        prod *= step
        np.divide(1.0, step, out=inv)
        dg -= inv
        inv *= inv
        tg += inv
    np.log(x0, out=lg)
    lg += np.log(prod)
    np.negative(lg, out=lg)
    return out


def _kernel(flat: np.ndarray) -> np.ndarray:
    """(3, n) rows ln Gamma, psi, psi' of a flat array of finite x > 0."""
    low = np.flatnonzero(flat < _LIFT)
    x0 = flat[low]
    x = flat.copy()
    x[low] = x0 + _LIFT
    inv = 1.0 / x
    inv2 = inv * inv
    log_x = np.log(x)
    out = np.empty((3, x.size))
    lg, dg, tg = out
    np.multiply(x - 0.5, log_x, out=lg)
    lg -= x
    lg += _HALF_LOG_2PI
    lg += inv * _horner(_LGAMMA_TAIL, inv2)
    np.subtract(log_x, 0.5 * inv, out=dg)
    dg -= inv2 * _horner(_DIGAMMA_TAIL, inv2)
    np.add(inv, 0.5 * inv2, out=tg)
    tg += inv * inv2 * _horner(_TRIGAMMA_TAIL, inv2)
    if low.size:
        for row, term in zip(out, _lift(x0)):
            row[low] += term
    return out


def _triples(arrays, name: str) -> list:
    arrays = [np.asarray(a, dtype=float) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    if flat.size and not (flat.min() > 0.0 and flat.max() < np.inf):
        raise ValueError(f"{name} is defined for finite x > 0 only")
    rows = _kernel(flat)
    triples, start = [], 0
    for a in arrays:
        end = start + a.size
        if a.ndim == 0:
            triples.append(tuple(float(row[start]) for row in rows))
        else:
            triples.append(tuple(row[start:end].reshape(a.shape) for row in rows))
        start = end
    return triples


def gammas(*arrays) -> list:
    """(ln Gamma, psi, psi') of each argument, from one kernel pass.

    Returns one triple per argument, each entry shaped like the argument: a
    float for a scalar or 0-d array, an array otherwise. Raises ValueError
    if any element is not finite or not strictly positive.
    """
    return _triples(arrays, "gammas")


def ln_gamma(x):
    """Natural logarithm of the gamma function.

    Accurate to better than 1e-12 relative error over [1e-8, 1e100], except
    in the immediate neighborhood of the zeros at x = 1 and x = 2 where the
    error is absolute (~1e-15).
    """
    return _triples([x], "ln_gamma")[0][0]


def digamma(x):
    """Digamma psi(x), the logarithmic derivative of the gamma function."""
    return _triples([x], "digamma")[0][1]


def trigamma(x):
    """Trigamma psi'(x), the derivative of digamma."""
    return _triples([x], "trigamma")[0][2]
