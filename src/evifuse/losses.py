"""Evidential objectives and their exact gradients, batched over samples.

The loss is an integrated cross-entropy under the predicted Dirichlet plus a
KL regularizer toward the non-evidence prior computed on a label-masked copy
of alpha, summed over every view's Dirichlet and the combined one. All of it
runs on (N, K) arrays: one call scores a whole minibatch.

The combined Dirichlet comes from the multi-view rule (cumulative fusion over
the local views, then one constraint fusion with the global view g), which
under a shared base rate a of weight W has a closed form in evidence space.
Write an opinion as b = e/S, u = W/S with S = W + sum(e), so b/u = e/W and
alpha = (b/u)*W + a*W. Cumulative fusion gives b/u = b^m/u^m + b^n/u^n, so
the local fold carries the summed evidence L. For the constraint step,
bcf_fuse gives

    b/u = (b^m b^n + b^m u^n + b^n u^m) / (u^m u^n)
        = (b^m/u^m)(b^n/u^n) + b^m/u^m + b^n/u^n
        = (L/W)(g/W) + L/W + g/W,

so the combined evidence is e = L + g + L*g/W and alpha = e + a*W; the
normalizer C cancels. Its Jacobians are diagonal: d e / d e^v = 1 + g/W for
every local view and 1 + L/W for the global one. Finite evidence therefore
never meets total conflict. No autodiff framework is involved; finite
differences, and the opinion-space chain kept in the tests, are the referees.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dirichlet import (
    BaseRate,
    DirichletParams,
    EvidenceVector,
    combined_evidence,
    kl_from_gammas,
)
from .specfun import gammas

# Floor for alpha, applied once before any loss argument is formed: the ICE
# arguments (S, alpha_label) and the masked alpha all come from the floored
# alpha, so the KL value and its gradient are taken at the same point. Every
# alpha is at least beta = a*W, since evidence is nonnegative, so the floor
# binds only where some a_k*W lies below it.
_ALPHA_FLOOR = 1e-8


@dataclass(frozen=True)
class LossConfig:
    """Balance factor lam in [0, 1] and the non-evidence prior beta = a*W."""

    lam: float
    beta: DirichletParams

    def __post_init__(self):
        lam = float(self.lam)
        if not np.isfinite(lam) or lam < 0.0 or lam > 1.0:
            raise ValueError("balance factor must lie in [0, 1]")
        object.__setattr__(self, "lam", lam)


def annealed_lambda(epoch: int, annealing_epochs: int) -> float:
    """Linear 0 to 1 schedule: min(1, epoch / annealing_epochs)."""
    if annealing_epochs < 1:
        raise ValueError("annealing_epochs must be at least 1")
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    return min(1.0, epoch / annealing_epochs)


def _checked_labels(labels, num_rows: int, num_classes: int) -> np.ndarray:
    arr = np.asarray(labels)
    if arr.shape != (num_rows,) or not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"need {num_rows} integer labels")
    bad = (arr < 0) | (arr >= num_classes)
    if bad.any():
        raise ValueError(f"label {int(arr[bad][0])} outside [0, {num_classes})")
    return arr


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return labels[..., None] == np.arange(num_classes)


def _special(alpha: np.ndarray, hot: np.ndarray, beta: np.ndarray):
    """The loss arguments of alpha (..., K) and their `gammas`, from one call.

    The arguments are S, alpha_label, the masked alpha (the floored alpha
    with its label entry replaced by beta's), its sum, beta and sum(beta).
    """
    a = np.maximum(alpha, _ALPHA_FLOOR)
    masked = np.where(hot, beta, a)
    args = (a.sum(axis=-1), np.where(hot, a, 0.0).sum(axis=-1),
            masked, masked.sum(axis=-1), beta, beta.sum())
    return args, gammas(*args)


def _values(args, g):
    """ICE psi(S) - psi(alpha_label) and the masked KL, each (...,), from _special."""
    return g[0][1] - g[1][1], kl_from_gammas(args[2], args[4], *g[2:])


def _grads(hot: np.ndarray, args, g):
    """Gradients (..., K) of both _values w.r.t. alpha, from the same triples' psi'.

    The KL gradient is zero at the label, whose masked entry is beta's.
    """
    _, _, masked, s_masked, beta, s_beta = args
    ice = np.expand_dims(g[0][2], -1) - hot * np.expand_dims(g[1][2], -1)
    kl = (masked - beta) * g[2][2] - np.expand_dims((s_masked - s_beta) * g[3][2], -1)
    return ice, np.where(hot, 0.0, kl)


def _one(alpha: DirichletParams, label: int, beta: DirichletParams | None = None):
    """ICE and KL values and gradients of a single Dirichlet and label.

    The ICE ignores beta; without one, unit concentrations stand in.
    """
    k = alpha.num_classes
    if beta is not None and beta.num_classes != k:
        raise ValueError("alpha and beta disagree on the number of classes")
    hot = _one_hot(_checked_labels([int(label)], 1, k), k)
    args, triples = _special(alpha.alpha[None, :], hot, np.ones(k) if beta is None else beta.alpha)
    (ice, kl), (ice_g, kl_g) = _values(args, triples), _grads(hot, args, triples)
    return float(ice[0]), float(kl[0]), ice_g[0], kl_g[0]


def ice_loss(alpha: DirichletParams, label: int) -> float:
    """Expected cross-entropy under Dir(alpha): psi(S) - psi(alpha_label).

    Nonnegative, since the label component never exceeds the total strength.
    """
    return _one(alpha, label)[0]


def ice_grad(alpha: DirichletParams, label: int) -> np.ndarray:
    """d ice_loss / d alpha_j = psi'(S) - [j == label] psi'(alpha_label)."""
    return _one(alpha, label)[2]


def kl_reg_loss(alpha: DirichletParams, label: int, beta: DirichletParams) -> float:
    """KL[Dir(masked alpha) || Dir(beta)]: pulls off-label evidence to zero.

    The masked alpha is alpha with its label entry replaced by beta's, so
    evidence for the true class is never penalized.
    """
    return _one(alpha, label, beta)[1]


def kl_reg_grad(alpha: DirichletParams, label: int, beta: DirichletParams) -> np.ndarray:
    """Gradient of kl_reg_loss w.r.t. alpha; zero at the masked label entry."""
    return _one(alpha, label, beta)[3]


def overall_loss(view_alphas, combined_alpha: DirichletParams, label: int, cfg: LossConfig) -> float:
    """Combined-opinion loss plus the sum of the per-view losses.

    Each Dirichlet's loss is ice_loss + lam * kl_reg_loss.
    """
    terms = (_one(alpha, label, cfg.beta) for alpha in [combined_alpha, *view_alphas])
    return sum(ice + cfg.lam * kl for ice, kl, _, _ in terms)


def _evidence_array(e) -> np.ndarray:
    return e.evidence if isinstance(e, EvidenceVector) else np.asarray(e, dtype=float)


def _checked_alphas(view_evidences, base_rate: BaseRate, labels):
    """Checked, stacked inputs of a batched loss call and the V+1 Dirichlets.

    Returns (single, stacked evidence (V, N, K), alphas (V+1, N, K) with the
    combined one last, label mask (N, K), diverged row indices). A diverged
    row's alphas are set to 1 and its evidence to 0, placeholders that keep
    the special functions finite; the callers score those rows NaN.
    """
    evidences = [_evidence_array(e) for e in view_evidences]
    if not evidences:
        raise ValueError("need at least one view")
    single = evidences[0].ndim == 1
    if single:
        evidences = [e[None, :] for e in evidences]
        labels = [labels]
    if any(e.ndim != 2 or e.shape != evidences[0].shape for e in evidences):
        raise ValueError("every view's evidence must be an (N, K) array of one shape")
    stacked = np.stack(evidences)
    if np.any(stacked < 0.0):
        raise ValueError("evidence must be nonnegative")
    _, num_rows, num_classes = stacked.shape
    if num_classes != base_rate.num_classes:
        raise ValueError("evidence and base rate disagree on the number of classes")
    hot = _one_hot(_checked_labels(labels, num_rows, num_classes), num_classes)
    w = base_rate.weight

    fused = combined_evidence(stacked, w)
    alphas = np.concatenate([stacked, fused[None]]) + base_rate.rates * w
    diverged = np.flatnonzero(~np.isfinite(alphas.sum(axis=(0, 2))))
    if diverged.size:
        alphas[:, diverged] = 1.0
        stacked[:, diverged] = 0.0
    return single, stacked, alphas, hot, diverged


def overall_loss_and_grad(view_evidences, base_rate: BaseRate, labels, cfg: LossConfig):
    """Overall loss per sample and its exact gradient w.r.t. every view's evidence.

    Takes V evidence arrays of shape (N, K), the last one the global view,
    and N labels. Returns (losses of shape (N,), [gradient of shape (N, K)
    per view]). Each view's gradient has two routes: the direct per-view
    loss, where d alpha^v / d e^v is the identity, and the combined loss
    through the diagonal Jacobian of the closed-form combination. With one
    view the combined Dirichlet is the view's own.

    One sample may be passed as 1-d evidence vectors and a scalar label; the
    result is then a float loss and 1-d gradients.

    Negative evidence is a ValueError. A row whose concentrations do not sum
    to a finite value, because its evidence is inf or NaN or its combined
    evidence overflowed, gets a NaN loss and NaN gradients; the other rows
    are scored as usual, and the caller decides what divergence means.
    """
    single, stacked, alphas, hot, diverged = _checked_alphas(view_evidences, base_rate, labels)
    args, triples = _special(alphas, hot, cfg.beta.alpha)
    ice, kl = _values(args, triples)
    ice_g, kl_g = _grads(hot, args, triples)
    loss = (ice + cfg.lam * kl).sum(axis=0)
    term_grads = ice_g + cfg.lam * kl_g

    g_combined = term_grads[-1]
    num_views, w = stacked.shape[0], base_rate.weight
    if num_views == 1:
        grads = [term_grads[0] + g_combined]
    else:
        local, glob = np.sum(stacked[:-1], axis=0), stacked[-1]
        g_local = g_combined * (1.0 + glob / w)
        grads = [term_grads[v] + g_local for v in range(num_views - 1)]
        grads.append(term_grads[-2] + g_combined * (1.0 + local / w))
    if diverged.size:
        loss[diverged] = np.nan
        for g in grads:
            g[diverged] = np.nan
    if single:
        return float(loss[0]), [g[0] for g in grads]
    return loss, grads


def overall_loss_rows(view_evidences, base_rate: BaseRate, labels, cfg: LossConfig):
    """Overall loss per sample and the combined alpha, without gradients.

    Takes the inputs of overall_loss_and_grad and returns (losses of shape
    (N,), combined alpha of shape (N, K)); each loss is bit for bit the one
    overall_loss_and_grad gives: it makes the same special-function call
    and skips the gradient step. A diverged row gets a NaN loss
    and a NaN alpha. One sample as 1-d vectors gives a float and a (K,) alpha.
    """
    single, _, alphas, hot, diverged = _checked_alphas(view_evidences, base_rate, labels)
    ice, kl = _values(*_special(alphas, hot, cfg.beta.alpha))
    loss = (ice + cfg.lam * kl).sum(axis=0)
    combined = alphas[-1]
    loss[diverged] = np.nan
    combined[diverged] = np.nan
    if single:
        return float(loss[0]), combined[0]
    return loss, combined


def overall_grad(view_evidences, base_rate: BaseRate, labels, cfg: LossConfig):
    """Gradient of overall_loss w.r.t. each view's evidence."""
    return overall_loss_and_grad(view_evidences, base_rate, labels, cfg)[1]
