"""Numbered acceptance checks for the whole toolkit.

Each block prints a banner line to stderr (visible under -s, or on failure)
so a full run reads as a checklist. Timed blocks assert their own
wall-clock budgets. Tolerances, instance counts, and experiment shapes are
frozen here on purpose; loosening them is a contract change, not a fix.
"""

import contextlib
import json
import sys
import time

import numpy as np
import pytest
from click.testing import CliRunner

from evifuse.cli import main
from evifuse.data import (
    SyntheticSpec,
    ViewGeometry,
    extract_views,
    gen_ood,
    gen_synthetic,
    resample_class_ratio,
)
from evifuse.dirichlet import BaseRate, DirichletParams, EvidenceVector, kl_dirichlet
from evifuse.losses import LossConfig, ice_grad, ice_loss, kl_reg_grad, kl_reg_loss, overall_grad, overall_loss_and_grad
from evifuse.metrics import EvalRecord, ece, metrics_report, ood_detect
from evifuse.model import (
    EvidentialModel,
    ModelConfig,
    compute_base_rate,
    evaluate,
    fit,
)
from evifuse.opinions import (
    Opinion,
    bcf_fuse,
    cbf_fuse,
    dirichlet_from_evidence,
    dirichlet_from_opinion,
    opinion_from_dirichlet,
    projected_probability,
)
from evifuse.specfun import digamma, trigamma

from oracles import fd_grad, kl_dirichlet_quadrature


@contextlib.contextmanager
def banner(tag):
    try:
        yield
    except BaseException:
        print(f"criterion {tag}: FAIL", file=sys.stderr)
        raise
    print(f"criterion {tag}: PASS", file=sys.stderr)


def grad_err(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


def eval_records(model, ds, override=None):
    pred, u, probs = evaluate(model, ds, override)
    return [
        EvalRecord(p, probs[i, p], u[i], s.label, s.id)
        for i, (s, p) in enumerate(zip(ds, pred))
    ]


# --- 1. combination-operator reference table ------------------------------

TABLE_ROWS = [
    ("cbf", ((0.2, 0.4), 0.4), ((0.3, 0.1), 0.6), (0.32, 0.37), 0.31),
    ("bcf", ((0.1, 0.5), 0.4), ((0.4, 0.2), 0.4), (0.31, 0.49), 0.21),
    ("bcf", ((0.2, 0.7), 0.1), ((0.3, 0.1), 0.6), (0.27, 0.65), 0.08),
    ("bcf", ((0.1, 0.2), 0.7), ((0.2, 0.1), 0.7), (0.24, 0.24), 0.52),
]


@pytest.mark.parametrize(
    "row,op_name,dm,dn,want_b,want_u",
    [(i + 1, *r) for i, r in enumerate(TABLE_ROWS)],
    ids=[f"row{i + 1}" for i in range(len(TABLE_ROWS))],
)
def test_criterion_01_fusion_table(row, op_name, dm, dn, want_b, want_u):
    with banner(f"01 row {row}"):
        op = cbf_fuse if op_name == "cbf" else bcf_fuse
        got = op(Opinion(*dm), Opinion(*dn))
        for k in range(2):
            assert abs(got.beliefs[k] - want_b[k]) <= 0.005, (
                f"row {row} belief {k}: got {got.beliefs[k]:.6f}, table says {want_b[k]}"
            )
        assert abs(got.uncertainty - want_u) <= 0.005, (
            f"row {row} uncertainty: got {got.uncertainty:.6f}, table says {want_u}"
        )


def test_criterion_01_runtime():
    with banner("01 runtime"):
        t0 = time.perf_counter()
        for op_name, dm, dn, _, _ in TABLE_ROWS:
            op = cbf_fuse if op_name == "cbf" else bcf_fuse
            op(Opinion(*dm), Opinion(*dn))
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0, f"{elapsed:.3f}s"


# --- 2. cumulative fusion is evidence addition ----------------------------


def test_criterion_02_evidence_additivity():
    with banner("02"):
        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(10_000):
            k = int(rng.integers(2, 6))
            raw = rng.uniform(0.05, 1.0, k)
            a = BaseRate(raw / raw.sum(), weight=float(rng.uniform(0.5, 8.0)))
            em = EvidenceVector(rng.uniform(0.0, 30.0, k))
            en = EvidenceVector(rng.uniform(0.0, 30.0, k))
            dm = opinion_from_dirichlet(dirichlet_from_evidence(em, a), a)
            dn = opinion_from_dirichlet(dirichlet_from_evidence(en, a), a)
            fused = cbf_fuse(dm, dn)
            recovered = dirichlet_from_opinion(fused, a).alpha - a.rates * a.weight
            worst = max(worst, float(np.max(np.abs(recovered - (em.evidence + en.evidence)))))
        assert worst < 1e-9, f"worst additivity deviation {worst:.3e}"


# --- 3. opinion/Dirichlet bijection ---------------------------------------


def test_criterion_03_bijection():
    with banner("03"):
        rng = np.random.default_rng(2003)
        worst_rt = 0.0
        worst_pp = 0.0
        for _ in range(10_000):
            k = int(rng.integers(2, 6))
            shape = rng.dirichlet(np.ones(k))
            u = float(np.exp(rng.uniform(np.log(1e-6), np.log(0.999))))
            op = Opinion(shape * (1.0 - u), u)
            raw = rng.uniform(0.05, 1.0, k)
            a = BaseRate(raw / raw.sum(), weight=float(rng.uniform(0.5, 8.0)))

            alpha = dirichlet_from_opinion(op, a)
            back = opinion_from_dirichlet(alpha, a)
            worst_rt = max(
                worst_rt,
                float(np.max(np.abs(back.beliefs - op.beliefs))),
                abs(back.uncertainty - op.uncertainty),
            )
            want = alpha.alpha / alpha.alpha.sum()
            worst_pp = max(worst_pp, float(np.max(np.abs(projected_probability(op, a) - want))))
        assert worst_rt < 1e-12, f"worst round-trip deviation {worst_rt:.3e}"
        assert worst_pp < 1e-12, f"worst projection deviation {worst_pp:.3e}"


# --- 4. fusion guarantees ---------------------------------------------------


def test_criterion_04_dominant_product_argmax():
    # constraint fusion keeps the class whose belief product dominates, as
    # long as the shared uncertainty sits strictly under the stated bound
    with banner("04a"):
        rng = np.random.default_rng(2004)
        count = 0
        while count < 10_000:
            k = int(rng.integers(2, 6))
            cm = rng.dirichlet(np.ones(k))
            cn = rng.dirichlet(np.ones(k))
            prod = cm * cn
            order = np.sort(prod)
            if k > 1 and order[-1] - order[-2] < 1e-12:
                continue  # the argmax must be unique for the claim to bind
            kt = int(np.argmax(prod))
            rho = np.inf
            for j in range(k):
                if j == kt:
                    continue
                den = abs(cm[j] + cn[j] - cm[kt] - cn[kt])
                if den > 0.0:
                    rho = min(rho, (prod[kt] - prod[j]) / den)
            cap = 0.999 * (rho / (1.0 + rho)) if np.isfinite(rho) else 0.999
            if cap <= 1e-6:
                continue
            u = float(rng.uniform(1e-6, cap))
            fused = bcf_fuse(Opinion(cm * (1.0 - u), u), Opinion(cn * (1.0 - u), u))
            assert int(np.argmax(fused.beliefs)) == kt
            count += 1


def test_criterion_04_vacuous_limit_monotonicity():
    # as one operand drains to vacuous, the fused beliefs stop undercutting
    # the fixed operand: the worst shortfall shrinks monotonically to zero
    with banner("04b"):
        rng = np.random.default_rng(2014)
        for _ in range(10_000):
            k = int(rng.integers(2, 6))
            cm = rng.dirichlet(np.ones(k))
            um = float(rng.uniform(0.01, 0.95))
            dm = Opinion(cm * (1.0 - um), um)
            cn = rng.dirichlet(np.ones(k))
            grid = np.linspace(rng.uniform(0.01, 0.5), 1.0, 6)
            deficits = []
            for un in grid:
                dn = Opinion(cn * (1.0 - un), float(un))
                fused = bcf_fuse(dm, dn)
                deficits.append(float(np.max(np.maximum(dm.beliefs - fused.beliefs, 0.0))))
            for earlier, later in zip(deficits, deficits[1:]):
                assert later <= earlier + 1e-12
            assert deficits[-1] <= 1e-9


# --- 5. analytic gradients against central differences --------------------


def test_criterion_05_gradients():
    with banner("05"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2005)
        worst = 0.0

        for k in (2, 4):
            beta = DirichletParams(np.full(k, 1.0))
            for _ in range(10):
                alpha = rng.uniform(0.1, 50.0, k)
                label = int(rng.integers(0, k))
                got = ice_grad(DirichletParams(alpha), label)
                want = fd_grad(lambda x: ice_loss(DirichletParams(x), label), alpha)
                worst = max(worst, grad_err(got, want))

                got = kl_reg_grad(DirichletParams(alpha), label, beta)
                want = fd_grad(lambda x: kl_reg_loss(DirichletParams(x), label, beta), alpha)
                worst = max(worst, grad_err(got, want))

        for k in (2, 4):
            for v in (2, 4):
                raw = rng.uniform(0.05, 1.0, k)
                base = BaseRate(raw / raw.sum(), weight=float(k))
                cfg = LossConfig(0.5, DirichletParams(base.rates * base.weight))
                for _ in range(10):
                    evidences = [rng.uniform(0.05, 48.0, k) for _ in range(v)]
                    label = int(rng.integers(0, k))
                    grads = overall_grad(evidences, base, label, cfg)
                    for i in range(v):
                        def f(x, i=i):
                            trial = [x if j == i else evidences[j] for j in range(v)]
                            return overall_loss_and_grad(trial, base, label, cfg)[0]

                        worst = max(worst, grad_err(grads[i], fd_grad(f, evidences[i])))

        elapsed = time.perf_counter() - t0
        assert worst < 1e-4, f"worst gradient error {worst:.3e}"
        assert elapsed < 10.0, f"{elapsed:.1f}s"


# --- 6. special functions -------------------------------------------------


def test_criterion_06_specfun():
    with banner("06"):
        rng = np.random.default_rng(2006)
        x = rng.uniform(0.01, 1e4, 10_000)
        resid = digamma(x + 1.0) - digamma(x) - 1.0 / x
        assert np.max(np.abs(resid)) < 1e-10
        resid = trigamma(x + 1.0) - trigamma(x) + 1.0 / (x * x)
        assert np.max(np.abs(resid)) < 1e-10

        worst = 0.0
        for i in range(20):
            k = 2 if i < 12 else 3
            ap = rng.uniform(0.5, 8.0, k)
            aq = rng.uniform(0.5, 8.0, k)
            got = kl_dirichlet(DirichletParams(ap), DirichletParams(aq))
            worst = max(worst, abs(got - kl_dirichlet_quadrature(ap, aq)))
        assert worst < 1e-3, f"worst KL deviation from quadrature {worst:.3e}"


# --- 7. feature-shift experiment ------------------------------------------


def shift_spec(n_per_class, seed):
    return SyntheticSpec.blobs(
        num_classes=2, num_views=4, view_dim=2,
        separation=4.0, scale=1.0, n_per_class=n_per_class, seed=seed,
    )


def test_criterion_07_feature_shift():
    with banner("07"):
        t0 = time.perf_counter()
        train = gen_synthetic(shift_spec(200, seed=0))
        valid = gen_synthetic(shift_spec(100, seed=1))
        shifted = gen_ood(shift_spec(100, seed=2), shift=5.0)
        assert len(train) == 400

        cfg = ModelConfig(
            num_classes=2, num_views=4, view_dims=(2, 2, 2, 2), hidden=(64,),
            learning_rate=1e-3, epochs=25, batch_size=32, seed=0,
        )
        model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), 2))
        fit(model, train, valid)

        id_u = evaluate(model, valid)[1]
        ood_u = evaluate(model, shifted)[1]
        res = ood_detect(id_u, ood_u, percentile=50.0)
        gap = float(res.scaled_test.mean() - res.scaled_val.mean())
        id_flags = res.scaled_val > res.threshold
        detection = (int((~id_flags).sum()) + int(res.flags.sum())) / (id_u.size + ood_u.size)
        elapsed = time.perf_counter() - t0

        assert float(ood_u.mean()) > float(id_u.mean())
        assert gap >= 0.2, f"scaled mean-uncertainty gap {gap:.3f}"
        assert detection >= 0.85, f"detection accuracy {detection:.3f}"
        assert elapsed < 120.0, f"{elapsed:.1f}s"


# --- 8. class-shift adaptation --------------------------------------------


def adapt_spec(n_per_class, seed):
    return SyntheticSpec.blobs(
        num_classes=2, num_views=2, view_dim=2,
        separation=4.0, scale=1.0, n_per_class=n_per_class, seed=seed,
    )


def test_criterion_08_class_shift():
    with banner("08"):
        pool = gen_synthetic(adapt_spec(300, seed=10))
        train = resample_class_ratio(pool, (0.8, 0.2), seed=100)
        valid = gen_synthetic(adapt_spec(60, seed=12))
        test_pool = gen_synthetic(adapt_spec(400, seed=11))
        assert np.array_equal(np.bincount(train.labels()), [300, 75])

        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(16,),
            learning_rate=1e-3, epochs=15, batch_size=32, seed=0,
        )
        base = compute_base_rate(train.labels(), 2, cfg.prior_weight)
        model = EvidentialModel.initialize(cfg, base)
        fit(model, train, valid)

        wins = 0
        for rt in ((0.2, 0.8), (0.3, 0.7), (0.7, 0.3), (0.8, 0.2)):
            sub = resample_class_ratio(test_pool, rt, seed=200)
            tp = metrics_report(eval_records(model, sub), 10)
            override = BaseRate(np.array(rt), model.base_rate.weight)
            tt = metrics_report(eval_records(model, sub, override), 10)
            if tt["ece"] <= tp["ece"]:
                wins += 1
            assert tt["auc"] >= tp["auc"] - 0.02, (
                f"ratio {rt}: adapted AUC {tt['auc']:.4f} vs {tp['auc']:.4f}"
            )
        assert wins >= 3, f"adapted prior won ECE on only {wins} of 4 ratios"


# --- 9. minority labels pay more -------------------------------------------


def test_criterion_09_minority_penalty():
    with banner("09"):
        rng = np.random.default_rng(2009)
        for _ in range(1000):
            r = float(rng.uniform(0.55, 0.95))
            w = float(rng.uniform(1.0, 5.0))
            x, y = rng.uniform(0.0, 30.0, 2)
            prior = np.array([r, 1.0 - r]) * w
            majority = ice_loss(DirichletParams(np.array([x, y]) + prior), 0)
            minority = ice_loss(DirichletParams(np.array([y, x]) + prior), 1)
            assert minority > majority


# --- 10. calibration error -------------------------------------------------


def test_criterion_10_ece():
    with banner("10"):
        records = [
            EvalRecord(0, c, 0.5, 0 if ok else 1, str(i))
            for i, (c, ok) in enumerate(
                zip((0.3, 0.4, 0.8, 0.9), (False, True, True, True))
            )
        ]
        assert abs(ece(records, 2) - 0.15) <= 1e-12
        assert abs(ece(records, 1) - 0.15) <= 1e-12

        rng = np.random.default_rng(2010)
        confs = rng.uniform(0.0, 1.0, 200)
        corrects = rng.uniform(size=200) < confs
        big = [
            EvalRecord(0, float(c), 0.5, 0 if ok else 1, str(i))
            for i, (c, ok) in enumerate(zip(confs, corrects))
        ]
        want = ece(big, 10)
        for _ in range(100):
            perm = rng.permutation(len(big))
            assert abs(ece([big[i] for i in perm], 10) - want) <= 1e-12


# --- 11. view extraction geometry ------------------------------------------


def test_criterion_11_view_extraction():
    with banner("11"):
        rng = np.random.default_rng(2011)
        grid = rng.normal(size=(256, 256))
        geom = ViewGeometry(160, 96, 32)
        patches, roi = extract_views(grid, geom)

        assert len(patches) == 9
        top = left = 128 - 80
        assert np.array_equal(roi, grid[top : top + 160, left : left + 160])
        idx = 0
        for i in range(3):
            for j in range(3):
                r0, c0 = top + 32 * i, left + 32 * j
                assert np.array_equal(patches[idx], grid[r0 : r0 + 96, c0 : c0 + 96])
                idx += 1


# --- 12. byte determinism of the training/eval front end -------------------


def test_criterion_12_determinism(tmp_path):
    with banner("12"):
        runner = CliRunner()

        def run(args):
            result = runner.invoke(main, args)
            assert result.exit_code == 0, result.stderr
            return result

        data, valid, ck = (tmp_path / n for n in ("train.csv", "valid.csv", "model.json"))
        run([
            "--seed", "0", "gen", "--classes", "2", "--views", "2", "--dim", "2",
            "--separation", "4.0", "--n-per-class", "25", "--out", str(data),
        ])
        run([
            "--seed", "1", "gen", "--classes", "2", "--views", "2", "--dim", "2",
            "--separation", "4.0", "--n-per-class", "15", "--out", str(valid),
        ])

        train_args = [
            "--seed", "0", "train", "--data", str(data), "--valid", str(valid),
            "--classes", "2", "--views", "2", "--dims", "2,2", "--hidden", "8",
            "--lr", "1e-3", "--epochs", "4", "--batch-size", "16", "--out", str(ck),
        ]
        first = run(train_args)
        first_bytes = ck.read_bytes()
        second = run(train_args)
        assert ck.read_bytes() == first_bytes
        assert first.stdout == second.stdout
        assert json.loads(first.stdout)["checkpoint"] == str(ck)

        eval_args = ["eval", "--model", str(ck), "--data", str(valid)]
        assert run(eval_args).stdout == run(eval_args).stdout
