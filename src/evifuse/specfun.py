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

The kernel allocates only its output and the index of the lifted elements.
Every other temporary is a row of one scratch buffer per thread
(`threading.local`), `_SCRATCH_ROWS` rows of `_CAPACITY` = 16384 values,
made on the thread's first call and reused by every later one; a longer
input is computed in pieces of at most that length into the one output.
Temporaries of 14 to 17 times the input's size, allocated per call, would
be handed back to the system after each call and page-faulted in again on
the next.

`ln_gamma`, `digamma` and `trigamma` each ask one validated kernel pass for
their one row; they accept scalars or arrays and return matching shapes, and
cast their arguments through `_casts._numeric`. The library's own callers,
which need several quantities of several arrays, call the unchecked
`_triples`: one pass over the arrays' concatenation, for the rows they ask.
"""

from __future__ import annotations

import threading

import numpy as np

from ._casts import _numeric

_ALL = (0, 1, 2)  # `_kernel`'s rows: ln Gamma, psi, psi'


def _constants(*values) -> tuple:
    # numpy's ufuncs take a 0-d array about 200 ns faster than a Python
    # float, with the same float64 arithmetic; read-only, since all share them
    arrays = tuple(np.array(v) for v in values)
    for a in arrays:
        a.flags.writeable = False
    return arrays


# arguments below _LIFT are lifted by exactly _LIFT steps; 0.5*ln(2*pi)
_LIFT, _HALF_LOG_2PI = _constants(10.0, 0.9189385332046727)
_HALF, _ONE, _NINE, _MINUS_TWO = _constants(0.5, 1.0, 9.0, -2.0)

# Bernoulli-number coefficient tails, lowest order first, consumed by a
# Horner loop in 1/x**2.
_LGAMMA_TAIL = _constants(
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
)
_DIGAMMA_TAIL = _constants(
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
_TRIGAMMA_TAIL = _constants(
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

# (x+k)(x+9-k) - x(x+9) for k = 1..4: the lift pairs x+k with x+9-k, and
# every pair's product is t + c with t = x(x+9).
_PAIR_OFFSETS = _constants(8.0, 14.0, 18.0, 20.0)

# Scratch rows per thread, each `_CAPACITY` values long: the series keeps x,
# 1/x, 1/x**2, log x and the Horner accumulator in rows 0-4 and the gathered
# x0 in row 6, and the lift reuses rows 0-5. The capacity is twice
# `model._EVAL_BLOCK`, so no call that `fit` makes is split.
_CAPACITY = 16384
_SCRATCH_ROWS = 7
_local = threading.local()


def _scratch() -> tuple:
    """This thread's `_SCRATCH_ROWS` scratch rows, made on its first call and reused after."""
    rows = getattr(_local, "rows", None)
    if rows is None:
        rows = _local.rows = tuple(np.empty((_SCRATCH_ROWS, _CAPACITY)))
    return rows


def _horner(tail, z, acc):
    np.multiply(z, tail[-1], out=acc)
    acc += tail[-2]
    for c in tail[-3::-1]:
        acc *= z
        acc += c
    return acc


def _lift(x0: np.ndarray, rows, scratch) -> list:
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
    Each row is the same bits whatever else is asked for. The terms and
    every temporary are the six `scratch` rows, each as long as x0.
    """
    t, step, prod, dg, inv, tg = scratch
    with_log, with_sum, with_squares = 0 in rows, 1 in rows or 2 in rows, 2 in rows
    np.add(x0, _NINE, out=t)
    t *= x0
    if with_log:
        prod[...] = t
    if with_sum:
        np.divide(_ONE, t, out=dg)
    if with_squares:
        np.multiply(dg, dg, out=tg)
    for c in _PAIR_OFFSETS:
        np.add(t, c, out=step)
        if with_log:
            prod *= step
        if with_sum:
            np.divide(_ONE, step, out=inv)
            dg += inv
        if with_squares:
            inv *= inv
            tg += inv
    terms = {}
    if with_sum:
        neg_s = np.multiply(x0, _MINUS_TWO, out=step)
        neg_s -= _NINE
    if with_squares:
        tg *= np.multiply(neg_s, neg_s, out=inv)
        # where the psi' sum overflows (x below about 1.2e-309) psi' is +inf already, and
        # subtracting twice the psi sum, infinite below 6e-310, would make it inf - inf
        finite = np.isfinite(tg, out=t.view(bool)[: t.size])
        np.subtract(tg, np.add(dg, dg, out=inv), out=tg, where=finite)
        terms[2] = tg
    if 1 in rows:
        dg *= neg_s
        terms[1] = dg
    if with_log:
        np.log(prod, out=prod)
        terms[0] = np.negative(prod, out=prod)
    return [terms[r] for r in rows]


def _kernel(flat: np.ndarray, rows=_ALL) -> np.ndarray:
    """Rows `rows` (increasing, of `_ALL`) of (ln Gamma, psi, psi') of a flat array of finite x > 0.

    Allocates its output and the index of the lifted elements; every other
    temporary is a row of this thread's scratch. An input longer than
    `_CAPACITY` is computed in pieces of at most that length.
    """
    out = np.empty((len(rows), flat.size))
    scratch = _scratch()
    for start in range(0, flat.size, _CAPACITY):
        stop = start + _CAPACITY
        _piece(flat[start:stop], rows, out[:, start:stop], scratch)
    return out


def _piece(flat: np.ndarray, rows, out: np.ndarray, scratch) -> None:
    """`_kernel` of at most `_CAPACITY` values into `out`, its temporaries in `scratch`."""
    n = flat.size
    x, inv, inv2, tmp, acc, _, x0 = (row[:n] for row in scratch)
    low = np.less(flat, _LIFT, out=inv.view(bool)[:n]).nonzero()[0]  # the mask borrows 1/x's row
    x[...] = flat
    if low.size:
        x0 = flat.take(low, out=x0[: low.size], mode="clip")
        x[low] = np.add(x0, _LIFT, out=acc[: low.size])
    np.divide(_ONE, x, out=inv)
    np.multiply(inv, inv, out=inv2)
    if 0 in rows or 1 in rows:
        log_x = np.log(x, out=tmp)
    for row, r in zip(out, rows):
        if r == 0:
            np.multiply(np.subtract(x, _HALF, out=acc), log_x, out=row)
            row -= x
            row += _HALF_LOG_2PI
            row += np.multiply(_horner(_LGAMMA_TAIL, inv2, acc), inv, out=acc)
        elif r == 1:
            np.subtract(log_x, np.multiply(inv, _HALF, out=acc), out=row)
            row -= np.multiply(_horner(_DIGAMMA_TAIL, inv2, acc), inv2, out=acc)
        else:
            np.add(inv, np.multiply(inv2, _HALF, out=acc), out=row)
            # log x is read by rows 0 and 1 only, so its row is free here
            cube = np.multiply(inv, inv2, out=tmp)
            row += np.multiply(cube, _horner(_TRIGAMMA_TAIL, inv2, acc), out=cube)
    if low.size:
        for row, term in zip(out, _lift(x0, rows, [r[: low.size] for r in scratch[:6]])):
            np.add.at(row, low, term)  # row[low] += term, without the gather's copy


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
