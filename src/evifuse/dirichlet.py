"""Dirichlet containers and measures, plus the value types they share.

Everything downstream circulates the same three immutable values: a Dirichlet
concentration vector, a base rate (prior class proportions with a prior
weight), and a nonnegative evidence vector. They are frozen dataclasses over
read-only numpy arrays; all operations on them are pure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._casts import _cast_fields, _field_keys, _numeric, _object, _read_only, _real
from .specfun import _triples


@dataclass(frozen=True, eq=False)
class DirichletParams:
    """Concentration vector of a Dirichlet distribution over class probabilities."""

    alpha: np.ndarray = field(metadata={"cast": _read_only})

    def __post_init__(self):
        _cast_fields(self)
        if np.any(self.alpha <= 0.0):
            raise ValueError("alpha components must be strictly positive")

    @property
    def num_classes(self) -> int:
        return self.alpha.size


@dataclass(frozen=True, eq=False)
class BaseRate:
    """Prior class proportions a (summing to 1) with prior weight W.

    The weight defaults to the number of classes, which makes zero evidence
    correspond to the uniform unit prior alpha = a*W = 1.
    """

    rates: np.ndarray = field(metadata={"cast": _read_only, "name": "base rates"})
    weight: float | None = field(default=None, metadata={"cast": _real, "name": "base rate weight"})

    def __post_init__(self):
        _cast_fields(self)
        rates = self.rates
        if np.any(rates <= 0.0):
            raise ValueError("base rates must be strictly positive")
        if abs(rates.sum() - 1.0) > 1e-9:
            raise ValueError("base rates must sum to 1")
        if self.weight is None:
            object.__setattr__(self, "weight", float(rates.size))
        if not np.isfinite(self.weight) or self.weight <= 0.0:
            raise ValueError("prior weight must be a positive real")

    @property
    def num_classes(self) -> int:
        return self.rates.size

    def to_dict(self) -> dict:
        return {"rates": [float(a) for a in self.rates], "weight": self.weight}

    @classmethod
    def from_dict(cls, obj: dict) -> "BaseRate":
        return cls(**_object(obj, "base rate", *_field_keys(cls)))


@dataclass(frozen=True, eq=False)
class EvidenceVector:
    """Nonnegative per-class evidence produced by a network head."""

    evidence: np.ndarray = field(metadata={"cast": _read_only})

    def __post_init__(self):
        _cast_fields(self)
        if np.any(self.evidence < 0.0):
            raise ValueError("evidence must be nonnegative")

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
    gammas = _triples([a, a.sum(axis=-1), b, b.sum(axis=-1)], "kl_dirichlet", (0, 1))
    return float(kl_from_gammas(a, b, *gammas))


def kl_from_gammas(a, b, g_a, g_sa, g_b, g_sb) -> np.ndarray:
    """KL[Dir(a) || Dir(b)] over the last axis, from the `_triples` of a, sum(a), b, sum(b).

    Reads only ln Gamma and psi, the first two entries of each tuple. Lets a
    caller that needs more special-function values than the KL fetch all of
    them in one `_triples` call.
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
    its own combination. Views are (..., K) arrays of one shape, the last one
    global; other views, negative evidence, or a weight not finite and
    positive, are a ValueError.
    """
    views, weight = _numeric(view_evidences, "view_evidences"), _real(weight, "weight")
    if views.ndim < 2 or len(views) == 0:
        raise ValueError("view_evidences must be one or more (..., K) arrays")
    if not (np.isfinite(weight) and weight > 0.0):
        raise ValueError(f"weight must be a finite positive number, not {weight}")
    if np.any(views < 0.0):
        raise ValueError("evidence must be nonnegative")
    return _combined_evidence(np.asarray(views, dtype=float), weight)


def _combined_evidence(view_evidences, weight: float) -> np.ndarray:
    """`combined_evidence` of views and a weight that the caller checked.

    The local views are summed as one slice of the (V, ..., K) array, so an
    array of views is not copied first.
    """
    views = np.asarray(view_evidences, dtype=float)
    if len(views) == 1:
        return views[0]
    total, glob = np.sum(views[:-1], axis=0), views[-1]
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
