"""Independent reference implementations the test suite checks against.

Everything here is deliberately written from the defining formulas using
only the standard library, scipy, and brute force, never the package under
test. Slow and simple beats fast and shared.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


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


def gammas_kernel_reference(flat: np.ndarray) -> np.ndarray:
    """(3, n) rows ln Gamma, psi, psi' of a flat array of finite x > 0.

    The special-function kernel as it was before its lift went in pairs:
    nine single recurrence steps, one division and one product factor
    each, then the same Bernoulli series at the lifted point.
    """
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


# (x+k)(x+9-k) - x(x+9) for k = 1..4, the offsets of the paired lift
_PAIR_OFFSETS = (8.0, 14.0, 18.0, 20.0)


def _paired_lift(x0: np.ndarray, rows) -> list:
    """Paired-lift recurrence terms taking x0 < 10 to x0 + 10, one array per row."""
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
        np.subtract(tg, dg + dg, out=tg, where=np.isfinite(dg))
        terms[2] = tg
    if 1 in rows:
        dg *= neg_s
        terms[1] = dg
    if with_log:
        np.log(prod, out=prod)
        terms[0] = np.negative(prod, out=prod)
    return [terms[r] for r in rows]


def paired_kernel_reference(flat: np.ndarray, rows=(0, 1, 2)) -> np.ndarray:
    """Rows `rows` of (ln Gamma, psi, psi') of a flat array of finite x > 0.

    The special-function kernel as it was before its temporaries moved into
    a reused scratch: the lift in five pairs, every temporary a fresh array.
    The scratch kernel must give these bits exactly.
    """
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
        for row, term in zip(out, _paired_lift(x0, rows)):
            row[low] += term
    return out


def fd_grad(f, x, h=1e-5):
    """Central finite-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        hi = np.zeros_like(x)
        hi[i] = h
        g[i] = (f(x + hi) - f(x - hi)) / (2.0 * h)
    return g


def _log_dirichlet_pdf(theta, alpha):
    norm = math.lgamma(sum(alpha)) - sum(math.lgamma(a) for a in alpha)
    return norm + sum((a - 1.0) * math.log(t) for a, t in zip(alpha, theta))


def kl_dirichlet_quadrature(alpha_p, alpha_q):
    """KL[Dir(p) || Dir(q)] by direct numeric integration, K = 2 or 3."""
    alpha_p = [float(a) for a in alpha_p]
    alpha_q = [float(a) for a in alpha_q]
    if len(alpha_p) == 2:
        def integrand(t):
            lp = _log_dirichlet_pdf((t, 1.0 - t), alpha_p)
            lq = _log_dirichlet_pdf((t, 1.0 - t), alpha_q)
            return math.exp(lp) * (lp - lq)

        value, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        return value
    if len(alpha_p) == 3:
        def integrand(t2, t1):
            t3 = 1.0 - t1 - t2
            if t3 <= 0.0:
                return 0.0
            lp = _log_dirichlet_pdf((t1, t2, t3), alpha_p)
            lq = _log_dirichlet_pdf((t1, t2, t3), alpha_q)
            return math.exp(lp) * (lp - lq)

        value, _ = integrate.dblquad(
            integrand, 0.0, 1.0, lambda t1: 0.0, lambda t1: 1.0 - t1)
        return value
    raise ValueError("quadrature oracle covers K = 2 and K = 3 only")


def cbf_reference(bm, um, bn, un):
    """Cumulative fusion, transcribed directly from its defining formula."""
    denom = um + un - um * un
    b = [(bmk * un + bnk * um) / denom for bmk, bnk in zip(bm, bn)]
    return b, um * un / denom


def bcf_reference(bm, um, bn, un):
    """Constraint fusion, transcribed directly from its defining formula.

    The normalizer is written as 1 minus the cross-belief conflict mass,
    the complementary form to the implementation's agreement-based one.
    """
    conflict = sum(
        bm[i] * bn[j]
        for i in range(len(bm))
        for j in range(len(bn))
        if i != j
    )
    c = 1.0 - conflict
    b = [(bmk * bnk + bmk * un + bnk * um) / c for bmk, bnk in zip(bm, bn)]
    return b, um * un / c


# ---------------------------------------------------------------------------
# The multi-view objective differentiated in opinion space, one sample at a
# time. Opinions travel as stacked nodes z = (b_1..b_K, u); every fusion stage
# exposes explicit Jacobians and the backward pass composes them transposed.
# This is the chain the batched evidence-space routine replaced, kept as its
# reference.


def _opinion_node(e, w):
    s = w + e.sum()
    z = np.append(e / s, w / s)
    return z, s


def _evidence_jacobian(e, s, w):
    """d(b, u)/d e for b = e/S, u = W/S, S = W + sum(e)."""
    k = e.size
    jac = np.empty((k + 1, k))
    jac[:k] = (np.eye(k) * s - e[:, None]) / (s * s)
    jac[k] = -w / (s * s)
    return jac


def _cbf_node(zm, zn):
    k = zm.size - 1
    um, un = zm[k], zn[k]
    denom = um + un - um * un
    z = np.append((zm[:k] * un + zn[:k] * um) / denom, um * un / denom)
    return z, denom


def _cbf_jacobians(zm, zn, z, denom):
    k = zm.size - 1
    um, un = zm[k], zn[k]
    jm = np.zeros((k + 1, k + 1))
    jn = np.zeros((k + 1, k + 1))
    jm[:k, :k] = np.eye(k) * (un / denom)
    jm[:k, k] = (zn[:k] - z[:k] * (1.0 - un)) / denom
    jm[k, k] = (un - z[k] * (1.0 - un)) / denom
    jn[:k, :k] = np.eye(k) * (um / denom)
    jn[:k, k] = (zm[:k] - z[:k] * (1.0 - um)) / denom
    jn[k, k] = (um - z[k] * (1.0 - um)) / denom
    return jm, jn


def _bcf_node(zm, zn):
    k = zm.size - 1
    um, un = zm[k], zn[k]
    c = float(zm[:k] @ zn[:k]) + um + un - um * un
    z = np.append((zm[:k] * zn[:k] + zm[:k] * un + zn[:k] * um) / c, um * un / c)
    return z, c


def _bcf_jacobians(zm, zn, z, c):
    k = zm.size - 1
    um, un = zm[k], zn[k]
    jm = np.empty((k + 1, k + 1))
    jn = np.empty((k + 1, k + 1))
    jm[:k, :k] = (np.diag(zn[:k] + un) - np.outer(z[:k], zn[:k])) / c
    jm[:k, k] = (zn[:k] - z[:k] * (1.0 - un)) / c
    jm[k, :k] = -z[k] * zn[:k] / c
    jm[k, k] = (un - z[k] * (1.0 - un)) / c
    jn[:k, :k] = (np.diag(zm[:k] + um) - np.outer(z[:k], zm[:k])) / c
    jn[:k, k] = (zm[:k] - z[:k] * (1.0 - um)) / c
    jn[k, :k] = -z[k] * zm[:k] / c
    jn[k, k] = (um - z[k] * (1.0 - um)) / c
    return jm, jn


def _alpha_jacobian(z, w):
    """d alpha / d (b, u) for alpha = b*W/u + a*W."""
    k = z.size - 1
    u = z[k]
    jac = np.empty((k, k + 1))
    jac[:, :k] = np.eye(k) * (w / u)
    jac[:, k] = -z[:k] * w / (u * u)
    return jac


def masked_alpha_reference(alpha, label, beta):
    """Copy of alpha with the label entry replaced by the prior's."""
    masked = np.array(alpha, dtype=float)
    masked[label] = beta[label]
    return masked


def per_view_loss_and_grad_reference(alpha, label, lam, beta):
    """ICE plus lam times the label-masked KL, from scipy's special functions."""
    alpha = np.maximum(np.asarray(alpha, dtype=float), 1e-8)
    beta = np.asarray(beta, dtype=float)
    s = alpha.sum()
    ice = special.digamma(s) - special.digamma(alpha[label])
    ice_g = np.full(alpha.size, special.polygamma(1, s))
    ice_g[label] -= special.polygamma(1, alpha[label])

    at = masked_alpha_reference(alpha, label, beta)
    sa, sb = at.sum(), beta.sum()
    kl = max(0.0, float(
        special.gammaln(sa) - special.gammaln(sb)
        - special.gammaln(at).sum() + special.gammaln(beta).sum()
        + ((at - beta) * (special.digamma(at) - special.digamma(sa))).sum()
    ))
    kl_g = (at - beta) * special.polygamma(1, at) - (sa - sb) * special.polygamma(1, sa)
    kl_g[label] = 0.0
    return ice + lam * kl, ice_g + lam * kl_g


def overall_loss_and_grad_chain(evidences, rates, weight, label, lam):
    """Overall loss of one sample and its gradient per view, in opinion space.

    Folds cumulative fusion over the local views and applies one constraint
    fusion with the last (global) view, keeping every stage's Jacobians, then
    pushes the combined loss's gradient back down the chain.
    """
    evidences = [np.asarray(e, dtype=float) for e in evidences]
    w = float(weight)
    prior = np.asarray(rates, dtype=float) * w
    nodes, ev_jacobians = [], []
    for e in evidences:
        z, s = _opinion_node(e, w)
        nodes.append(z)
        ev_jacobians.append(_evidence_jacobian(e, s, w))

    fold = nodes[0]
    fold_jacobians = []
    combined = fold
    if len(nodes) >= 2:
        for z in nodes[1:-1]:
            fused, denom = _cbf_node(fold, z)
            fold_jacobians.append(_cbf_jacobians(fold, z, fused, denom))
            fold = fused
        combined, c = _bcf_node(fold, nodes[-1])
        bcf_jm, bcf_jn = _bcf_jacobians(fold, nodes[-1], combined, c)

    combined_alpha = combined[:-1] * (w / combined[-1]) + prior
    loss, g_alpha = per_view_loss_and_grad_reference(combined_alpha, label, lam, prior)
    g_combined = _alpha_jacobian(combined, w).T @ g_alpha
    node_grads = [None] * len(nodes)
    if len(nodes) >= 2:
        node_grads[-1] = bcf_jn.T @ g_combined
        g_fold = bcf_jm.T @ g_combined
        for i in range(len(nodes) - 2, 0, -1):
            jm, jn = fold_jacobians[i - 1]
            node_grads[i] = jn.T @ g_fold
            g_fold = jm.T @ g_fold
        node_grads[0] = g_fold
    else:
        node_grads[0] = g_combined

    grads = []
    for e, jac, g_node in zip(evidences, ev_jacobians, node_grads):
        view_loss, direct = per_view_loss_and_grad_reference(e + prior, label, lam, prior)
        loss += view_loss
        grads.append(jac.T @ g_node + direct)
    return loss, grads


def head_forward_reference(weights, biases, x):
    """One evidence head's pass on (N, d) features: (evidence, (activations, z_out)).

    Tanh hidden layers and a softplus output, one (out, in) matrix per layer,
    as `fit` ran each head on its own before heads of one input size were
    stacked.
    """
    acts = [x]
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w.T + b)
        acts.append(h)
    z_out = h @ weights[-1].T + biases[-1]
    softplus = np.maximum(z_out, 0.0) + np.log1p(np.exp(-np.abs(z_out)))
    return softplus, (acts, z_out)


def _sigmoid_reference(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _head_backward_reference(weights, cache, grad_evidence):
    """Gradients of one head's parameters, summed over the rows, as w0, b0, w1, b1, ..."""
    acts, z_out = cache
    delta = grad_evidence * _sigmoid_reference(z_out)
    grads = [None] * (2 * len(weights))
    for layer in range(len(weights) - 1, -1, -1):
        grads[2 * layer] = delta.T @ acts[layer]
        grads[2 * layer + 1] = delta.sum(axis=0)
        if layer:
            delta = (delta @ weights[layer]) * (1.0 - acts[layer] ** 2)
    return grads


def fit_step_reference(heads, moments, step, views, loss_and_grad, learning_rate):
    """One minibatch of `fit`, one pass per head and one Adam update per array.

    `heads` holds each view's (weights, biases) lists and `moments` one
    Adam (m, v) pair per parameter array, in head order and w0, b0, w1, b1,
    ... within a head; both are updated in place. `views` are the
    minibatch's per-view (B, d) features, `loss_and_grad` maps per-view
    evidence to (losses, per-view evidence gradients), and `step` is the
    1-based Adam step. Returns the losses.
    """
    results = [head_forward_reference(w, b, x) for (w, b), x in zip(heads, views)]
    losses, ev_grads = loss_and_grad([e for e, _ in results])
    grads = []
    for (weights, _), (_, cache), g_e in zip(heads, results, ev_grads):
        grads += _head_backward_reference(weights, cache, g_e)
    params = [p for weights, biases in heads for pair in zip(weights, biases) for p in pair]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    lr_t = learning_rate * np.sqrt(1.0 - beta2**step) / (1.0 - beta1**step)
    for p, g, (m, v) in zip(params, grads, moments):
        g /= len(views[0])
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= lr_t * m / (np.sqrt(v) + eps)
    return losses


def ece_reference(confidences, correct, num_bins):
    """Calibration error by scanning half-open upper-closed bin edges."""
    n = len(confidences)
    total = 0.0
    for m in range(1, num_bins + 1):
        lo, hi = (m - 1) / num_bins, m / num_bins
        members = [
            i for i, c in enumerate(confidences)
            if (lo < c <= hi) or (m == 1 and c <= lo)
        ]
        if not members:
            continue
        acc = sum(1.0 for i in members if correct[i]) / len(members)
        conf = sum(confidences[i] for i in members) / len(members)
        total += len(members) / n * abs(acc - conf)
    return total


def calibration_loop_reference(confidence, correct, num_bins):
    """(ECE, per-bin stats) with one mask per bin, every bin visited.

    The calibration loop as it was before it visited nonempty bins only;
    bins are upper-closed, ((m-1)/M, m/M], with confidence 0 in the first.
    """
    idx = np.ceil(confidence * num_bins).astype(int) - 1
    idx[confidence <= 0.0] = 0
    idx = np.clip(idx, 0, num_bins - 1)
    total, bins = 0.0, []
    for m in range(num_bins):
        mask = idx == m
        count = int(np.count_nonzero(mask))
        acc = conf = None
        if count:
            acc = float(correct[mask].mean())
            conf = float(confidence[mask].mean())
            total += count / confidence.size * abs(acc - conf)
        bins.append({"lo": m / num_bins, "hi": (m + 1) / num_bins, "count": count, "acc": acc, "conf": conf})
    return total, bins


def auc_reference(scores, labels):
    """Pairwise win counting with half credit for ties."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def logistic_accuracy(train_x, train_y, test_x, test_y,
                      lr=0.1, steps=2000):
    """Validation accuracy of plain logistic regression on stacked features.

    Serves as an attainability bound: if this simple linear oracle separates
    the data, a trained evidential model is expected to as well.
    """
    x = np.asarray(train_x, dtype=float)
    y = np.asarray(train_y, dtype=float)
    x = np.hstack([x, np.ones((x.shape[0], 1))])
    w = np.zeros(x.shape[1])
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(x @ w)))
        w -= lr * (x.T @ (p - y)) / x.shape[0]
    tx = np.hstack([np.asarray(test_x, dtype=float),
                    np.ones((len(test_x), 1))])
    pred = (tx @ w) > 0.0
    return float(np.mean(pred == np.asarray(test_y, dtype=bool)))


# ---------------------------------------------------------------------------
# The per-sample dataset IO and the record-based report that the columnar
# dataset and the array-valued metrics replaced, kept as their references.


def load_csv_reference(path, num_classes, view_dims):
    """Parse a dataset CSV one line at a time: (ids, labels, per-view arrays).

    Blank lines are skipped; every error names the file and the line.
    """
    dims = [int(d) for d in view_dims]
    n_fields = 2 + sum(dims)
    header = ["id", "label"]
    for v, dim in enumerate(dims):
        header.extend(f"v{v}_{j}" for j in range(dim))
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    if lines[0] != ",".join(header):
        raise ValueError(f"{path}: line 1: header does not match the declared shape")
    ids, labels, rows = [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n_fields:
            raise ValueError(
                f"{path}: line {lineno}: expected {n_fields} fields, got {len(fields)}"
            )
        try:
            label = int(fields[1])
            values = [float(x) for x in fields[2:]]
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
        if not 0 <= label < num_classes:
            raise ValueError(f"{path}: line {lineno}: label {label} outside [0, {num_classes})")
        if not all(math.isfinite(x) for x in values):
            raise ValueError(f"{path}: line {lineno}: features must be finite")
        ids.append(fields[0])
        labels.append(label)
        rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no sample rows")
    views, pos = [], 0
    for dim in dims:
        views.append(np.array([row[pos : pos + dim] for row in rows], dtype=float))
        pos += dim
    return ids, labels, views


def save_csv_reference(ids, labels, views, path):
    """Write a dataset CSV one sample at a time, features as repr(float)."""
    dims = [v.shape[1] for v in views]
    header = ["id", "label"]
    for v, dim in enumerate(dims):
        header.extend(f"v{v}_{j}" for j in range(dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for i, (sample_id, label) in enumerate(zip(ids, labels)):
            fields = [str(sample_id), str(int(label))]
            for view in views:
                fields.extend(repr(float(x)) for x in view[i])
            fh.write(",".join(fields) + "\n")


def rank_auc_reference(scores, labels):
    """Mann-Whitney AUC from tie-averaged ranks, half credit for ties.

    Ranks come from a stable sort and each tie group's ranks are summed and
    divided by its size, the formula `auc_binary` used before it read the
    mean rank of a group off its last rank.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels, dtype=int)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    order = np.argsort(scores, kind="stable")
    ranks = np.empty(scores.size)
    ranks[order] = np.arange(1, scores.size + 1)
    _, inverse = np.unique(scores, return_inverse=True)
    ranks = (np.bincount(inverse, weights=ranks) / np.bincount(inverse))[inverse]
    return float((ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def metrics_report_reference(records, num_bins):
    """The report dict built record by record: acc, auc, ece, n, per-bin stats.

    Bins are ((m-1)/M, m/M] with confidence 0 in the first bin; each bin's
    means run over its members in record order.
    """
    records = list(records)
    conf = np.array([r.confidence for r in records])
    correct = np.array([r.predicted == r.label for r in records], dtype=float)
    acc = float(np.mean([r.predicted == r.label for r in records]))
    labels = [r.label for r in records]
    auc = None
    if max(max(labels), max(r.predicted for r in records)) + 1 == 2 and len(set(labels)) == 2:
        scores = [r.confidence if r.predicted == 1 else 1.0 - r.confidence for r in records]
        auc = rank_auc_reference(scores, labels)
    idx = np.ceil(conf * num_bins).astype(int) - 1
    idx[conf <= 0.0] = 0
    idx = np.clip(idx, 0, num_bins - 1)
    bins, ece = [], 0.0
    for m in range(num_bins):
        mask = idx == m
        bins.append({
            "lo": m / num_bins,
            "hi": (m + 1) / num_bins,
            "count": int(mask.sum()),
            "acc": float(correct[mask].mean()) if mask.any() else None,
            "conf": float(conf[mask].mean()) if mask.any() else None,
        })
        if mask.any():
            ece += mask.mean() * abs(correct[mask].mean() - conf[mask].mean())
    return {"acc": acc, "auc": auc, "ece": float(ece), "n": len(records), "bins": bins}
