"""Dirichlet containers and measures, plus the value types they share.

Everything downstream circulates the same three immutable values: a Dirichlet
concentration vector, a base rate (prior class proportions with a prior
weight), and a nonnegative evidence vector. They are frozen dataclasses over
read-only numpy arrays; all operations on them are pure.

The value classes of the package read their fields through one cast per kind
of value: `_real`, `_integer` and `_numeric`. Each takes what is a number of
its kind, in Python, numpy or parsed JSON, and raises a ValueError naming the
field for anything else, so `float("0.4")`, `int(True)` and a string array's
cast to float never decide what a number is.
"""

from __future__ import annotations

import itertools
import numbers
import reprlib
from dataclasses import dataclass

import numpy as np

from .specfun import gammas

# The least integer magnitude float() refuses: halfway between the largest
# float, 2**1024 - 2**971, and 2**1024, which the tie rounds up to.
_FLOAT_OVERFLOW = 2**1024 - 2**970


def _is_real(value) -> bool:
    """True for a number float() reads without overflow; False for a boolean."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    return not isinstance(value, numbers.Integral) or abs(int(value)) < _FLOAT_OVERFLOW


def _real(value, name) -> float:
    """`value` as a float; None, strings, booleans and containers are a ValueError."""
    if not _is_real(value):
        raise ValueError(f"{name} must be a real number, not {reprlib.repr(value)}")
    return float(value)


def _integer(value, name) -> int:
    """`value` as an int: any integer, or an integral real such as 3.0.

    2.7, inf, booleans and strings are a ValueError.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if not (_is_real(value) and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, not {reprlib.repr(value)}")
    return int(value)


def _numeric(values, name) -> np.ndarray:
    """`values` as an array of numbers, of numpy's own dtype for them.

    Python integers beyond int64 make an object array, which passes when
    every element is a real number. Strings, booleans, None, mappings and
    ragged nesting are a ValueError.
    """
    try:
        arr = np.asarray(values)
    except ValueError as exc:
        raise ValueError(f"{name} must be a regular array of numbers: {exc}") from None
    # numpy casts a boolean among numbers to a number, so the elements of a
    # list are checked by type too; an array's dtype tells
    flat = values if isinstance(values, list) else ()
    for _ in range(arr.ndim - 1):
        flat = itertools.chain.from_iterable(flat)
    kind = arr.dtype.kind
    all_real = kind in "iuf" or (kind == "O" and all(map(_is_real, arr.flat)))
    if not all_real or {bool, np.bool_} & set(map(type, flat)):
        raise ValueError(f"{name} must hold only numbers, not {reprlib.repr(values)}")
    return arr


def _read_only(values, name, min_size=2):
    arr = np.array(_numeric(values, name), dtype=float)
    if arr.ndim != 1 or arr.size < min_size:
        raise ValueError(f"{name} must be a vector with at least {min_size} components")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution over class probabilities."""

    alpha: np.ndarray

    def __post_init__(self):
        alpha = _read_only(self.alpha, "alpha")
        if np.any(alpha <= 0.0):
            raise ValueError("alpha components must be strictly positive")
        object.__setattr__(self, "alpha", alpha)

    @property
    def num_classes(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class BaseRate:
    """Prior class proportions a (summing to 1) with prior weight W.

    The weight defaults to the number of classes, which makes zero evidence
    correspond to the uniform unit prior alpha = a*W = 1.
    """

    rates: np.ndarray
    weight: float | None = None

    def __post_init__(self):
        rates = _read_only(self.rates, "base rates")
        if np.any(rates <= 0.0):
            raise ValueError("base rates must be strictly positive")
        if abs(rates.sum() - 1.0) > 1e-9:
            raise ValueError("base rates must sum to 1")
        weight = _real(self.weight, "base rate weight") if self.weight is not None else float(rates.size)
        if not np.isfinite(weight) or weight <= 0.0:
            raise ValueError("prior weight must be a positive real")
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weight", weight)

    @property
    def num_classes(self) -> int:
        return self.rates.size

    def to_dict(self) -> dict:
        return {"rates": [float(a) for a in self.rates], "weight": self.weight}

    @classmethod
    def from_dict(cls, obj: dict) -> "BaseRate":
        if not isinstance(obj, dict) or "rates" not in obj:
            raise ValueError('base rate object needs a "rates" list')
        return cls(obj["rates"], obj.get("weight"))


@dataclass(frozen=True, eq=False)
class EvidenceVector:
    """Nonnegative per-class evidence produced by a network head."""

    evidence: np.ndarray

    def __post_init__(self):
        evidence = _read_only(self.evidence, "evidence")
        if np.any(evidence < 0.0):
            raise ValueError("evidence must be nonnegative")
        object.__setattr__(self, "evidence", evidence)

    @property
    def num_classes(self) -> int:
        return self.evidence.size


def strength(p: DirichletParams) -> float:
    """Total concentration S = sum(alpha)."""
    return float(p.alpha.sum())


def expected_probabilities(p: DirichletParams) -> np.ndarray:
    """Mean of the Dirichlet: alpha / S."""
    return p.alpha / p.alpha.sum()


def predict_class(p: DirichletParams) -> int:
    """Index of the largest expected probability; ties go to the smallest index."""
    return int(np.argmax(p.alpha))


def kl_dirichlet(p: DirichletParams, q: DirichletParams) -> float:
    """KL divergence KL[Dir(p) || Dir(q)] in closed form.

    Tiny negative rounding residue is clamped to zero, since the divergence
    is nonnegative by definition.
    """
    if p.num_classes != q.num_classes:
        raise ValueError("KL divergence needs equal numbers of classes")
    a, b = p.alpha, q.alpha
    return float(kl_from_gammas(a, b, *gammas(a, a.sum(axis=-1), b, b.sum(axis=-1))))


def kl_from_gammas(a, b, g_a, g_sa, g_b, g_sb) -> np.ndarray:
    """KL[Dir(a) || Dir(b)] over the last axis, from `gammas` of a, sum(a), b, sum(b).

    Lets a caller that needs more special-function values than the KL fetch
    all of them in one `gammas` call.
    """
    value = (
        g_sa[0]
        - g_sb[0]
        - g_a[0].sum(axis=-1)
        + g_b[0].sum(axis=-1)
        + ((a - b) * (g_a[1] - np.expand_dims(g_sa[1], -1))).sum(axis=-1)
    )
    return np.maximum(value, 0.0)


def combined_evidence(view_evidences, weight: float) -> np.ndarray:
    """Evidence of the multi-view combination rule under a shared base rate.

    Folding cumulative fusion over the local views adds their evidence, L;
    the constraint step with the global view g then yields L + g + L*g/W,
    with W the prior weight (derived in `evifuse.losses`). A single view is
    its own combination. Views are (..., K) arrays; the last one is global.
    """
    *local, glob = view_evidences
    if not local:
        return np.asarray(glob, dtype=float)
    total = np.sum(local, axis=0)
    return total + glob + total * glob / weight


def rebase(e: EvidenceVector, new_a: BaseRate) -> DirichletParams:
    """Dirichlet of evidence under a prior: alpha = e + a'*W.

    Zero evidence yields the bare prior. The evidence is left untouched, so
    beliefs and uncertainty are preserved only when the new prior has the
    old weight; then only expected probabilities move toward the new rates.
    A different weight moves the opinion too: e = [4, 1] has uncertainty
    2/7 = 0.286 at W = 2 and 4/9 = 0.444 at W = 4. `opinions` binds the
    same function as `dirichlet_from_evidence`.
    """
    if e.num_classes != new_a.num_classes:
        raise ValueError("evidence and base rate disagree on the number of classes")
    return DirichletParams(e.evidence + new_a.rates * new_a.weight)
