"""Opinion algebra: evidence/Dirichlet/opinion mappings and belief fusion.

An opinion assigns a belief mass to every class plus one shared uncertainty
mass, all summing to 1. Opinions are interchangeable with Dirichlet
parameters through a base rate: alpha = b*W/u + a*W, and back. Two fusion
operators combine opinions from different sources:

- cumulative fusion, for independent evidence; under a shared base rate it
  is exactly evidence addition,
- constraint fusion, for reconciling confident and possibly conflicting
  sources; it rewards agreement and fails on total conflict.

The multi-view combination rule folds cumulative fusion over the local-view
opinions and applies one constraint fusion with the global view.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import BaseRate, DirichletParams, _read_only
# alpha = e + a*W, zero evidence giving the bare prior, is the map that
# re-anchors evidence to a new prior, so one body serves both names.
from .dirichlet import rebase as dirichlet_from_evidence

_CLOSURE_TOL = 1e-9
_CONFLICT_EPS = 1e-12


class FusionConflictError(ValueError):
    """Raised when a fusion operator is undefined for its operands."""


@dataclass(frozen=True, eq=False)
class Opinion:
    """Belief masses per class plus uncertainty mass, summing to 1."""

    beliefs: np.ndarray
    uncertainty: float

    def __post_init__(self):
        beliefs = _read_only(self.beliefs, "beliefs")
        u = float(self.uncertainty)
        if np.any(beliefs < -_CLOSURE_TOL) or np.any(beliefs > 1.0 + _CLOSURE_TOL):
            raise ValueError("belief masses must lie in [0, 1]")
        if not np.isfinite(u) or u < -_CLOSURE_TOL or u > 1.0 + _CLOSURE_TOL:
            raise ValueError("uncertainty mass must lie in [0, 1]")
        if abs(u + beliefs.sum() - 1.0) > _CLOSURE_TOL:
            raise ValueError("uncertainty and beliefs must sum to 1")
        object.__setattr__(self, "beliefs", beliefs)
        object.__setattr__(self, "uncertainty", u)

    @property
    def num_classes(self) -> int:
        return self.beliefs.size

    @classmethod
    def vacuous(cls, num_classes: int) -> "Opinion":
        """The neutral opinion: zero beliefs, full uncertainty."""
        return cls(np.zeros(num_classes), 1.0)

    def to_dict(self) -> dict:
        return {
            "beliefs": [float(b) for b in self.beliefs],
            "uncertainty": self.uncertainty,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "Opinion":
        if not isinstance(obj, dict) or "beliefs" not in obj or "uncertainty" not in obj:
            raise ValueError('opinion object needs "beliefs" and "uncertainty"')
        return cls(obj["beliefs"], obj["uncertainty"])


def _same_classes(dm: Opinion, dn: Opinion):
    if dm.num_classes != dn.num_classes:
        raise ValueError("opinions disagree on the number of classes")


def opinion_from_dirichlet(alpha: DirichletParams, a: BaseRate) -> Opinion:
    """b = (alpha - a*W)/S, u = W/S. Requires nonnegative implied evidence."""
    if alpha.num_classes != a.num_classes:
        raise ValueError("alpha and base rate disagree on the number of classes")
    implied = alpha.alpha - a.rates * a.weight
    if np.any(implied < -_CLOSURE_TOL):
        raise ValueError("alpha implies negative evidence under this base rate")
    s = alpha.alpha.sum()
    return Opinion(np.maximum(implied, 0.0) / s, a.weight / s)


def dirichlet_from_opinion(d: Opinion, a: BaseRate) -> DirichletParams:
    """Inverse mapping, alpha = b*W/u + a*W. Undefined for dogmatic opinions."""
    if d.num_classes != a.num_classes:
        raise ValueError("opinion and base rate disagree on the number of classes")
    if d.uncertainty <= 0.0:
        raise ValueError("dogmatic opinion (u = 0) has unbounded Dirichlet strength")
    s = a.weight / d.uncertainty
    return DirichletParams(d.beliefs * s + a.rates * a.weight)


def projected_probability(d: Opinion, a: BaseRate) -> np.ndarray:
    """p = b + a*u: beliefs plus the uncertainty mass split by the prior."""
    if d.num_classes != a.num_classes:
        raise ValueError("opinion and base rate disagree on the number of classes")
    return d.beliefs + a.rates * d.uncertainty


def cbf_fuse(dm: Opinion, dn: Opinion) -> Opinion:
    """Cumulative fusion of two opinions over independent evidence.

    b_k = (b_k^m u^n + b_k^n u^m) / (u^m + u^n - u^m u^n)
    u   = u^m u^n / (u^m + u^n - u^m u^n)

    The denominator vanishes only when both operands are dogmatic, which is
    rejected; a single dogmatic operand simply dominates the result.
    """
    _same_classes(dm, dn)
    um, un = dm.uncertainty, dn.uncertainty
    denom = um + un - um * un
    if denom == 0.0:
        raise FusionConflictError("cumulative fusion of two dogmatic opinions is undefined")
    beliefs = (dm.beliefs * un + dn.beliefs * um) / denom
    return Opinion(beliefs, um * un / denom)


def bcf_fuse(dm: Opinion, dn: Opinion) -> Opinion:
    """Constraint fusion of two opinions, favoring agreement.

    b_k = (b_k^m b_k^n + b_k^m u^n + b_k^n u^m) / C
    u   = u^m u^n / C
    C   = 1 - sum_{i != j} b_i^m b_j^n

    C measures how much the operands do not outright contradict each other;
    total conflict (C ~ 0) has no defined fusion and raises.
    """
    _same_classes(dm, dn)
    um, un = dm.uncertainty, dn.uncertainty
    agreement = float(dm.beliefs @ dn.beliefs)
    c = agreement + um + un - um * un
    if c <= _CONFLICT_EPS:
        raise FusionConflictError(
            f"total belief conflict, normalization constant {c:.3e}"
        )
    beliefs = (dm.beliefs * dn.beliefs + dm.beliefs * un + dn.beliefs * um) / c
    return Opinion(beliefs, um * un / c)


def combine_multiview(local_opinions, global_opinion: Opinion) -> Opinion:
    """Fuse local-view opinions cumulatively, then constrain with the global view.

    Cumulative fusion is associative, so the left-to-right fold order is a
    reproducibility convention, not a modeling choice. Operator failures are
    re-raised with the failing stage named.
    """
    locals_ = list(local_opinions)
    if not locals_:
        raise ValueError("need at least one local opinion")
    fused = locals_[0]
    for i, op in enumerate(locals_[1:], start=1):
        try:
            fused = cbf_fuse(fused, op)
        except FusionConflictError as exc:
            raise FusionConflictError(
                f"cumulative stage {i} (folding local opinion {i}): {exc}"
            ) from exc
    try:
        return bcf_fuse(fused, global_opinion)
    except FusionConflictError as exc:
        raise FusionConflictError(f"constraint stage (global view): {exc}") from exc
