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

# Floor for the alphas behind the ICE arguments (S, alpha_label) and behind
# the psi' arguments of the KL gradient. The KL value itself is taken on the
# unfloored masked alpha. Evidence is nonnegative by construction upstream,
# so this only guards degenerate configurations.
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


def _floored(alpha: np.ndarray) -> np.ndarray:
    return np.maximum(alpha, _ALPHA_FLOOR)


def _one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    return labels[..., None] == np.arange(num_classes)


def _ice_args(alpha: np.ndarray, hot: np.ndarray):
    """The arguments whose special functions the ICE term needs: S, alpha_label."""
    a = _floored(alpha)
    return a.sum(axis=-1), np.where(hot, a, 0.0).sum(axis=-1)


def _ice_loss_from(g_s, g_label):
    """ICE loss (...,) from the `gammas` of _ice_args: psi(S) - psi(alpha_label)."""
    return g_s[1] - g_label[1]


def _ice_from(hot: np.ndarray, g_s, g_label):
    """ICE loss (...,) and its gradient (..., K) from the `gammas` of _ice_args."""
    grad = np.expand_dims(g_s[2], -1) - hot * np.expand_dims(g_label[2], -1)
    return _ice_loss_from(g_s, g_label), grad


def _kl_loss_args(alpha: np.ndarray, hot: np.ndarray, beta: np.ndarray):
    """Masked alpha and beta, each followed by its sum: the KL value's arguments."""
    masked = np.where(hot, beta, alpha)
    return masked, masked.sum(axis=-1), beta, beta.sum()


def _kl_args(alpha: np.ndarray, hot: np.ndarray, beta: np.ndarray):
    """_kl_loss_args plus the floored masked alpha and its sum, for the gradient."""
    args = _kl_loss_args(alpha, hot, beta)
    floored = _floored(args[0])
    return (*args, floored, floored.sum(axis=-1))


def _kl_from(hot: np.ndarray, args, g_m, g_sm, g_b, g_sb, g_f, g_sf):
    """Masked-KL loss (...,) and its gradient (..., K), zero at the label."""
    masked, _, beta, s_beta, floored, s_floored = args
    loss = kl_from_gammas(masked, beta, g_m, g_sm, g_b, g_sb)
    grad = (floored - beta) * g_f[2] - np.expand_dims((s_floored - s_beta) * g_sf[2], -1)
    return loss, np.where(hot, 0.0, grad)


def _ice_terms(alpha: np.ndarray, hot: np.ndarray):
    return _ice_from(hot, *gammas(*_ice_args(alpha, hot)))


def _kl_terms(alpha: np.ndarray, hot: np.ndarray, beta: np.ndarray):
    args = _kl_args(alpha, hot, beta)
    return _kl_from(hot, args, *gammas(*args))


def _per_view_terms(alpha: np.ndarray, hot: np.ndarray, cfg: LossConfig):
    """ICE + lam * masked KL, and its gradient, from one `gammas` call."""
    ice_args = _ice_args(alpha, hot)
    kl_args = _kl_args(alpha, hot, cfg.beta.alpha)
    g = gammas(*ice_args, *kl_args)
    ice, ice_g = _ice_from(hot, *g[:2])
    kl, kl_g = _kl_from(hot, kl_args, *g[2:])
    return ice + cfg.lam * kl, ice_g + cfg.lam * kl_g


def _per_view_losses(alpha: np.ndarray, hot: np.ndarray, cfg: LossConfig):
    """The losses of _per_view_terms without gradients, from one `gammas` call."""
    masked, s_masked, beta, s_beta = _kl_loss_args(alpha, hot, cfg.beta.alpha)
    g_s, g_label, *g_kl = gammas(*_ice_args(alpha, hot), masked, s_masked, beta, s_beta)
    return _ice_loss_from(g_s, g_label) + cfg.lam * kl_from_gammas(masked, beta, *g_kl)


def _one(alpha: DirichletParams, label: int):
    """A single Dirichlet and label as a batch of one, with its label mask."""
    labels = _checked_labels([int(label)], 1, alpha.num_classes)
    return alpha.alpha[None, :], _one_hot(labels, alpha.num_classes)


def ice_loss(alpha: DirichletParams, label: int) -> float:
    """Expected cross-entropy under Dir(alpha): psi(S) - psi(alpha_label).

    Nonnegative, since the label component never exceeds the total strength.
    """
    return float(_ice_terms(*_one(alpha, label))[0][0])


def ice_grad(alpha: DirichletParams, label: int) -> np.ndarray:
    """d ice_loss / d alpha_j = psi'(S) - [j == label] psi'(alpha_label)."""
    return _ice_terms(*_one(alpha, label))[1][0]


def _checked_kl_terms(alpha: DirichletParams, label: int, beta: DirichletParams):
    if alpha.num_classes != beta.num_classes:
        raise ValueError("alpha and beta disagree on the number of classes")
    return _kl_terms(*_one(alpha, label), beta.alpha)


def kl_reg_loss(alpha: DirichletParams, label: int, beta: DirichletParams) -> float:
    """KL[Dir(masked alpha) || Dir(beta)]: pulls off-label evidence to zero.

    The masked alpha is alpha with its label entry replaced by beta's, so
    evidence for the true class is never penalized.
    """
    return float(_checked_kl_terms(alpha, label, beta)[0][0])


def kl_reg_grad(alpha: DirichletParams, label: int, beta: DirichletParams) -> np.ndarray:
    """Gradient of kl_reg_loss w.r.t. alpha; zero at the masked label entry."""
    return _checked_kl_terms(alpha, label, beta)[1][0]


def overall_loss(view_alphas, combined_alpha: DirichletParams, label: int, cfg: LossConfig) -> float:
    """Combined-opinion loss plus the sum of the per-view losses.

    Each Dirichlet's loss is ice_loss + lam * kl_reg_loss.
    """
    return sum(
        ice_loss(alpha, label) + cfg.lam * kl_reg_loss(alpha, label, cfg.beta)
        for alpha in [combined_alpha, *view_alphas]
    )


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
    terms, term_grads = _per_view_terms(alphas, hot, cfg)
    loss = terms.sum(axis=0)

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
    overall_loss_and_grad gives. It hands the special functions only the
    loss's arguments and builds no gradient. A diverged row gets a NaN loss
    and a NaN alpha. One sample as 1-d vectors gives a float and a (K,) alpha.
    """
    single, _, alphas, hot, diverged = _checked_alphas(view_evidences, base_rate, labels)
    loss = _per_view_losses(alphas, hot, cfg).sum(axis=0)
    combined = alphas[-1]
    loss[diverged] = np.nan
    combined[diverged] = np.nan
    if single:
        return float(loss[0]), combined[0]
    return loss, combined


def overall_grad(view_evidences, base_rate: BaseRate, labels, cfg: LossConfig):
    """Gradient of overall_loss w.r.t. each view's evidence."""
    return overall_loss_and_grad(view_evidences, base_rate, labels, cfg)[1]
