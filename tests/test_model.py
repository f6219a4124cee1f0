import json
import warnings
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evifuse.model as model_module

from evifuse.data import MultiViewDataset, MultiViewSample, SyntheticSpec, gen_synthetic
from evifuse.dirichlet import BaseRate, DirichletParams, combined_evidence, predict_class
from evifuse.losses import LossConfig, annealed_lambda, overall_loss_and_grad
from evifuse.model import (
    EvidenceHead,
    EvidentialModel,
    ModelConfig,
    NonFiniteEvidence,
    TrainingDiverged,
    TrainingReport,
    compute_base_rate,
    evaluate,
    fit,
    forward,
    load_checkpoint,
    predict,
    save_checkpoint,
    score,
)
from evifuse.opinions import dirichlet_from_opinion

from oracles import (
    bcf_reference,
    cbf_reference,
    fd_grad,
    fit_step_reference,
    head_forward_reference,
    logistic_accuracy,
)


def tiny_config(**overrides):
    kwargs = dict(
        num_classes=2,
        num_views=2,
        view_dims=(3, 2),
        hidden=(4,),
        learning_rate=1e-3,
        epochs=1,
        seed=42,
    )
    kwargs.update(overrides)
    return ModelConfig(**kwargs)


def params_equal(a, b):
    return all(np.array_equal(p, q) for p, q in zip(a.parameters(), b.parameters()))


class TestModelConfig:
    def test_defaults(self):
        cfg = ModelConfig(num_classes=3, num_views=2, view_dims=(4, 4), epochs=50)
        assert cfg.prior_weight == 3.0
        assert cfg.anneal_epochs == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            ModelConfig(num_classes=1, num_views=2, view_dims=(1, 1))
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, num_views=1, view_dims=(1,))
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, num_views=2, view_dims=(1,))
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, num_views=2, view_dims=(1, 1), hidden=(0,))
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, num_views=2, view_dims=(1, 1), learning_rate=-1.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="learning rate"):
                ModelConfig(num_classes=2, num_views=2, view_dims=(1, 1), learning_rate=lr)
        with pytest.raises(ValueError):
            ModelConfig(num_classes=2, num_views=2, view_dims=(1, 1), prior_weight=0.0)

    def test_dict_round_trip(self):
        cfg = tiny_config(prior_weight=3.5, anneal_epochs=7)
        assert ModelConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("field,value,match", [
        ("hidden", "32", "hidden must hold only numbers, not '32'"),
        ("hidden", 32, "hidden must be a list of integers"),
        ("hidden", [2.7], "hidden entry must be an integer, not 2.7"),
        ("view_dims", [3, "2"], "view_dims must hold only numbers"),
        ("epochs", 1.9, "epochs must be an integer, not 1.9"),
        ("epochs", True, "epochs must be an integer, not True"),
        ("batch_size", None, "batch_size must be an integer, not None"),
        ("num_classes", float("inf"), "num_classes must be an integer, not inf"),
        ("anneal_epochs", 2.5, "anneal_epochs must be an integer, not 2.5"),
        ("seed", "3", "seed must be an integer, not '3'"),
        ("learning_rate", "1e-3", "learning_rate must be a real number, not '1e-3'"),
        ("prior_weight", [2.0], r"prior_weight must be a real number, not \[2.0\]"),
    ])
    def test_each_setting_is_read_by_the_cast_of_its_kind(self, field, value, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            tiny_config(**{field: value})

    def test_integral_settings_of_any_numeric_type_read_as_ints(self):
        cfg = tiny_config(
            num_classes=2.0, num_views=np.int64(2), view_dims=[3.0, np.int32(2)], hidden=np.array([4]),
            epochs=np.float64(1.0), seed=10**31,
        )
        assert cfg == tiny_config(seed=10**31)
        assert all(type(n) is int for n in (cfg.num_classes, cfg.num_views, *cfg.view_dims, *cfg.hidden, cfg.epochs))


# A value other than the field default for every ModelConfig field that has one.
NON_DEFAULTS = dict(
    hidden=(4,), prior_weight=3.0, learning_rate=1e-3, epochs=3, batch_size=8,
    anneal_epochs=2, seed=5,
)


class TestEvidenceHead:
    def test_initialization_is_seeded(self):
        a = EvidenceHead.initialize(3, (4,), 2, np.random.default_rng(0))
        b = EvidenceHead.initialize(3, (4,), 2, np.random.default_rng(0))
        assert all(np.array_equal(w, v) for w, v in zip(a.weights, b.weights))
        assert all(np.array_equal(w, v) for w, v in zip(a.biases, b.biases))

    def test_output_is_nonnegative_everywhere(self):
        head = EvidenceHead.initialize(5, (8, 6), 3, np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(2000):
            e = head.forward(rng.normal(0.0, 10.0, 5))
            assert e.shape == (3,) and np.all(e >= 0.0)

    def test_large_negative_bias_gives_near_zero_evidence(self):
        head = EvidenceHead.initialize(2, (), 2, np.random.default_rng(3))
        head.biases[-1][:] = -40.0
        head.weights[-1][:] = 0.0
        assert np.all(head.forward(np.array([5.0, -3.0])) < 1e-15)

    def test_softplus_is_logaddexp_within_4_ulp(self):
        rng = np.random.default_rng(14)
        z = np.concatenate([
            rng.normal(0.0, 3.0, 200_000),
            rng.uniform(-750.0, 750.0, 200_000),
            rng.normal(0.0, 1e-3, 20_000),
        ])
        got, want = model_module._softplus(z), np.logaddexp(0.0, z)
        assert np.all(np.abs(got - want) <= 4 * np.spacing(want))

    def test_softplus_is_logaddexp_exactly_at_the_edges(self):
        z = np.array([0.0, -0.0, 1e200, -1e200, np.inf, -np.inf, np.nan])
        got = model_module._softplus(z)
        with np.errstate(invalid="ignore"):  # logaddexp flags NaN; softplus passes it on
            want = np.logaddexp(0.0, z)
        assert np.array_equal(got, want, equal_nan=True)
        assert got[0] == np.log(2.0)

    def test_backward_matches_finite_differences(self):
        head = EvidenceHead.initialize(3, (4,), 2, np.random.default_rng(4))
        x = np.array([0.3, -1.2, 0.7])
        c = np.array([0.8, -0.5])  # arbitrary linear functional of the evidence

        evidence, cache = head.forward_cached(x)
        grads_w, grads_b = head.backward(cache, c)

        for layer in range(len(head.weights)):
            for arr, got in ((head.weights, grads_w), (head.biases, grads_b)):
                flat = arr[layer].ravel()
                want = fd_grad(
                    lambda vals: float(
                        np.dot(c, _forward_with(head, layer, arr, vals, x))
                    ),
                    flat.copy(),
                    h=1e-6,
                )
                err = np.max(np.abs(got[layer].ravel() - want) / np.maximum(1.0, np.abs(want)))
                assert err < 1e-6


    def test_batched_pass_equals_stacked_rows(self):
        head = EvidenceHead.initialize(3, (5, 4), 3, np.random.default_rng(5))
        rng = np.random.default_rng(6)
        x = rng.normal(size=(7, 3))
        upstream = rng.normal(size=(7, 3))

        evidence, cache = head.forward_cached(x)
        assert evidence.shape == (7, 3)
        assert np.allclose(head.forward(x), evidence, rtol=1e-14, atol=0.0)
        grads_w, grads_b = head.backward(cache, upstream)

        sum_w = [np.zeros_like(w) for w in head.weights]
        sum_b = [np.zeros_like(b) for b in head.biases]
        for i, (row, c) in enumerate(zip(x, upstream)):
            e_row, cache_row = head.forward_cached(row)
            assert np.allclose(e_row, evidence[i], rtol=1e-14, atol=0.0)
            gw, gb = head.backward(cache_row, c)
            for acc, g in zip(sum_w + sum_b, gw + gb):
                acc += g
        for got, want in zip(grads_w + grads_b, sum_w + sum_b):
            assert got.shape == want.shape
            assert np.allclose(got, want, rtol=1e-12, atol=1e-15)


    def test_float64_layers_are_kept_as_views(self):
        w, b = np.zeros((2, 3)), np.zeros(2)
        head = EvidenceHead([w], [b])
        assert head.weights[0] is w and head.biases[0] is b

    @pytest.mark.parametrize("weights,biases,match", [
        ([[["0.1"] * 3] * 2], [[0.0] * 2], "layer 0 weights must hold only numbers"),
        ([[[0.1] * 3] * 2], [None], "layer 0 bias must hold only numbers, not None"),
        ([[[0.1] * 3] * 2], [[True, False]], "layer 0 bias must hold only numbers"),
    ])
    def test_layers_of_non_numbers_are_refused(self, weights, biases, match):
        with pytest.raises(ValueError, match=f"^{match}"):
            EvidenceHead(weights, biases)

    def test_stack_equals_each_head_bit_for_bit(self):
        rng = np.random.default_rng(7)
        heads = [EvidenceHead.initialize(3, (5, 4), 2, rng) for _ in range(3)]
        stack = EvidenceHead(
            [np.stack(layer) for layer in zip(*(h.weights for h in heads))],
            [np.stack(layer) for layer in zip(*(h.biases for h in heads))],
        )
        x, upstream = rng.normal(size=(3, 9, 3)), rng.normal(size=(3, 9, 2))

        evidence, cache = stack.forward_cached(x)
        out = ([np.empty_like(w) for w in stack.weights], [np.empty_like(b) for b in stack.biases])
        grads_w, grads_b = stack.backward(cache, upstream, out=out)
        assert all(got is want for got, want in zip(grads_w + grads_b, out[0] + out[1]))
        assert evidence.shape == (3, 9, 2)
        for g, head in enumerate(heads):
            e_g, cache_g = head.forward_cached(x[g])
            assert np.array_equal(evidence[g], e_g)
            gw, gb = head.backward(cache_g, upstream[g])
            for got, want in zip(grads_w + grads_b, gw + gb):
                assert np.array_equal(got[g], want)


def _forward_with(head, layer, arr_list, flat_vals, x):
    saved = arr_list[layer].copy()
    arr_list[layer].ravel()[:] = flat_vals
    try:
        return head.forward(x)
    finally:
        arr_list[layer][...] = saved


class TestBaseRateComputation:
    def test_counts(self):
        labels = np.repeat([0, 1, 2, 3], [155, 91, 76, 381])
        base = compute_base_rate(labels, 4)
        assert np.array_equal(base.rates, np.array([155, 91, 76, 381]) / 703.0)
        assert base.weight == 4.0

    def test_explicit_weight(self):
        assert compute_base_rate([0, 1], 2, weight=6.0).weight == 6.0

    def test_missing_class(self):
        with pytest.raises(ValueError, match="absent"):
            compute_base_rate([0, 0, 0], 2)

    def test_bad_labels(self):
        with pytest.raises(ValueError):
            compute_base_rate([0, 5], 2)
        with pytest.raises(ValueError):
            compute_base_rate([], 2)


class TestModelAssembly:
    def test_initialization_is_deterministic(self):
        cfg = tiny_config()
        base = BaseRate([0.5, 0.5], weight=2.0)
        assert params_equal(EvidentialModel.initialize(cfg, base), EvidentialModel.initialize(cfg, base))

    def test_consistency_checks(self):
        cfg = tiny_config()
        base = BaseRate([0.5, 0.5], weight=2.0)
        model = EvidentialModel.initialize(cfg, base)
        with pytest.raises(ValueError, match="head count"):
            EvidentialModel(model.heads[:1], base, cfg)
        with pytest.raises(ValueError, match=r"head count 3 is not one head per view \(2\)"):
            EvidentialModel([*model.heads, model.heads[0]], base, cfg)
        with pytest.raises(ValueError, match="number of classes"):
            EvidentialModel(model.heads, BaseRate([0.3, 0.3, 0.4], weight=2.0), cfg)
        with pytest.raises(ValueError, match="prior_weight"):
            EvidentialModel(model.heads, BaseRate([0.5, 0.5], weight=3.0), cfg)
        wider = EvidentialModel.initialize(tiny_config(hidden=(5,)), base)
        with pytest.raises(ValueError, match=r"head 0: layer 0 has weights \(5, 3\) and bias \(5,\),"
                                             r" the config needs \(4, 3\) and \(4,\)"):
            EvidentialModel(wider.heads, base, cfg)
        deeper = EvidentialModel.initialize(tiny_config(hidden=(4, 4)), base)
        with pytest.raises(ValueError, match="head 0: a head needs 2 layers"):
            EvidentialModel(deeper.heads, base, cfg)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("layer,part", [(0, "weights"), (1, "biases")])
    def test_non_finite_parameter_is_refused_at_construction(self, value, layer, part):
        cfg = tiny_config()
        base = BaseRate([0.5, 0.5], weight=2.0)
        heads = EvidentialModel.initialize(cfg, base).heads
        getattr(heads[1], part)[layer].flat[0] = value
        with pytest.raises(ValueError, match=f"head 1: layer {layer} holds non-finite values"):
            EvidentialModel(heads, base, cfg)

    def test_model_owns_its_parameters(self):
        train, valid = blob_data(2, 20), blob_data(3, 10)
        cfg = tiny_config(view_dims=(2, 2), learning_rate=1e-2, epochs=2, batch_size=8)
        base = compute_base_rate(train.labels(), 2)
        m1 = EvidentialModel.initialize(cfg, base)
        before = [p.copy() for p in m1.parameters()]
        m2 = EvidentialModel(m1.heads, base, cfg)
        assert params_equal(m1, m2)
        fit(m2, train, valid)
        assert all(np.array_equal(p, q) for p, q in zip(m1.parameters(), before))
        assert not params_equal(m1, m2)

    def test_in_place_head_edit_reaches_every_pass(self):
        # view 2 shares a stack with view 0; silence it through its head alone
        cfg = tiny_config(num_views=3, view_dims=(3, 2, 3))
        base = BaseRate([0.5, 0.5], weight=2.0)
        model = EvidentialModel.initialize(cfg, base)
        ds = mixed_data(cfg.view_dims, 2, 12, seed=8)
        before = evaluate(model, ds)
        model.heads[2].weights[-1][:] = 0.0
        model.heads[2].biases[-1][:] = -40.0
        after = evaluate(model, ds)
        assert not np.array_equal(before[2], after[2])
        for a, b in zip(after, evaluate(EvidentialModel(model.heads, base, cfg), ds)):
            assert np.array_equal(a, b)
        evidences = forward(model, next(iter(ds)))[0]
        assert np.all(evidences[2].evidence < 1e-15) and np.all(evidences[0].evidence > 1e-3)


GOLDEN_SAMPLE = MultiViewSample((np.array([0.5, -1.0, 2.0]), np.array([1.5, -0.5])), 0, "golden")


def golden_model():
    return EvidentialModel.initialize(tiny_config(), BaseRate([0.6, 0.4], weight=2.0))


class TestForward:
    def test_golden_vector(self):
        # frozen from seed 42; guards the full head + fusion pipeline bit for bit
        evidences, ops, combined, alpha = forward(golden_model(), GOLDEN_SAMPLE)
        assert np.allclose(
            evidences[0].evidence, [0.5656197388009996, 0.5344074681492655], atol=1e-12
        )
        assert np.allclose(
            evidences[1].evidence, [0.5148150140203861, 0.5945133108807226], atol=1e-12
        )
        assert np.allclose(
            combined.beliefs, [0.2716176527273759, 0.28529733445267824], atol=1e-12
        )
        assert combined.uncertainty == pytest.approx(0.443085012819946, abs=1e-12)
        assert np.allclose(alpha.alpha, [2.426029519701907, 2.08777695565439], atol=1e-12)

    def test_combined_opinion_matches_reference_chain(self):
        cfg = ModelConfig(
            num_classes=3, num_views=4, view_dims=(2, 3, 2, 4), hidden=(5,), epochs=1, seed=9
        )
        base = BaseRate([0.2, 0.5, 0.3], weight=3.0)
        model = EvidentialModel.initialize(cfg, base)
        rng = np.random.default_rng(10)
        for i in range(20):
            sample = MultiViewSample(
                tuple(rng.normal(size=d) for d in cfg.view_dims), 0, f"s{i}"
            )
            _, ops, combined, _ = forward(model, sample)
            b, u = ops[0].beliefs.tolist(), ops[0].uncertainty
            for op in ops[1:-1]:
                b, u = cbf_reference(b, u, op.beliefs.tolist(), op.uncertainty)
            b, u = bcf_reference(b, u, ops[-1].beliefs.tolist(), ops[-1].uncertainty)
            assert np.max(np.abs(combined.beliefs - np.asarray(b))) < 1e-12
            assert abs(combined.uncertainty - u) < 1e-12

    def test_shape_mismatch(self):
        bad = MultiViewSample((np.array([1.0]), np.array([1.0, 2.0])), 0, "bad")
        with pytest.raises(ValueError, match="view shapes"):
            forward(golden_model(), bad)


class TestPredict:
    def test_probs_are_a_distribution(self):
        model = golden_model()
        rng = np.random.default_rng(11)
        for i in range(50):
            sample = MultiViewSample(
                (rng.normal(size=3), rng.normal(size=2)), 0, f"s{i}"
            )
            cls, u, probs = predict(model, sample)
            assert 0 <= cls < 2
            assert 0.0 <= u <= 1.0
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_override_with_training_rate_is_a_no_op(self):
        model = golden_model()
        cls_a, u_a, p_a = predict(model, GOLDEN_SAMPLE)
        cls_b, u_b, p_b = predict(model, GOLDEN_SAMPLE, base_rate_override=model.base_rate)
        assert cls_a == cls_b and u_a == u_b
        assert np.allclose(p_a, p_b, atol=1e-12)

    def test_override_steers_a_near_vacuous_model(self):
        # silence every head, so the prediction is the prior and nothing else
        model = golden_model()
        for head in model.heads:
            head.weights[-1][:] = 0.0
            head.biases[-1][:] = -40.0
        override = BaseRate([0.8, 0.2], weight=2.0)
        cls, u, probs = predict(model, GOLDEN_SAMPLE, base_rate_override=override)
        assert u == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(probs, [0.8, 0.2], atol=1e-12)
        assert cls == 0


class TestEvaluate:
    def test_matches_forward_per_sample(self):
        cfg = ModelConfig(
            num_classes=3, num_views=4, view_dims=(2, 3, 2, 4), hidden=(5,), epochs=1, seed=9
        )
        model = EvidentialModel.initialize(cfg, BaseRate([0.2, 0.5, 0.3], weight=3.0))
        rng = np.random.default_rng(13)
        samples = [
            MultiViewSample(tuple(rng.normal(size=d) for d in cfg.view_dims), 0, f"s{i}")
            for i in range(25)
        ]
        override = BaseRate([0.6, 0.3, 0.1], weight=3.0)
        for rate in (None, override):
            classes, u, probs = evaluate(model, samples, rate)
            assert classes.shape == (25,) and u.shape == (25,) and probs.shape == (25, 3)
            for i, sample in enumerate(samples):
                _, _, combined, alpha = forward(model, sample)
                if rate is not None:
                    alpha = dirichlet_from_opinion(combined, rate)
                want = alpha.alpha / alpha.alpha.sum()
                assert classes[i] == int(np.argmax(alpha.alpha))
                assert u[i] == pytest.approx(combined.uncertainty, abs=1e-12)
                assert np.allclose(probs[i], want, atol=1e-12)

    def test_dataset_and_sample_list_agree(self):
        model = golden_model()
        rng = np.random.default_rng(14)
        ds = MultiViewDataset.from_arrays(
            [rng.normal(size=(30, 3)), rng.normal(size=(30, 2))], np.arange(30) % 2,
            [f"s{i}" for i in range(30)], 2,
        )
        override = BaseRate([0.7, 0.3], weight=2.0)
        for rate in (None, override):
            for a, b in zip(evaluate(model, ds, rate), evaluate(model, list(ds), rate)):
                assert np.array_equal(a, b)

    def test_override_reads_only_its_class_rates(self):
        # alpha = e + a'W at the model's weight W, so the override's own weight is not read
        cfg = ModelConfig(num_classes=3, num_views=3, view_dims=(2, 3, 2), hidden=(5,), epochs=1, seed=4)
        model = EvidentialModel.initialize(cfg, BaseRate([0.2, 0.5, 0.3], weight=3.0))
        rng = np.random.default_rng(15)
        samples = [
            MultiViewSample(tuple(rng.normal(size=d) for d in cfg.view_dims), 0, f"s{i}")
            for i in range(40)
        ]
        rates = [0.6, 0.3, 0.1]
        want = evaluate(model, samples, BaseRate(rates, weight=3.0))
        for weight in (1.5, 120.0):
            got = evaluate(model, samples, BaseRate(rates, weight=weight))
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    def test_overflowing_evidence_names_the_first_sample(self):
        # evidence softplus(1e200 * tanh(x0)) overflows L*g/W only where both
        # views have x0 > 0, which is sample "c" alone
        model = golden_model()
        for head in model.heads:
            head.weights[0][:] = 0.0
            head.weights[0][:, 0] = 1.0
            head.biases[0][:] = 0.0
            head.weights[-1][:] = 1e200
            head.biases[-1][:] = 0.0
        views = ([-1.0, 0.0, 0.0], [-1.0, 0.0]), ([1.0, 0.0, 0.0], [-1.0, 0.0]), ([1.0, 0.0, 0.0], [1.0, 0.0])
        samples = [MultiViewSample(v, 0, sid) for v, sid in zip(views, "abc")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEvidence, match="non-finite combined evidence for sample c$"):
                evaluate(model, samples)
            with pytest.raises(NonFiniteEvidence, match="sample c$"):
                predict(model, samples[2])
            assert evaluate(model, samples[:2])[1].shape == (2,)

    def test_overflowing_bias_fails_every_sample(self):
        model = golden_model()
        for head in model.heads:
            head.biases[-1][:] = 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteEvidence, match="sample golden"):
                evaluate(model, [GOLDEN_SAMPLE], BaseRate([0.5, 0.5], weight=2.0))

    @settings(max_examples=25)
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_a_row_scores_alike_in_any_subset(self, seed, data):
        # rows never mix, but a batch of another size may sum in another
        # order, so a row is equal up to rounding, not bit for bit
        cfg = ModelConfig(num_classes=3, num_views=3, view_dims=(2, 3, 2), hidden=(6,), epochs=1, seed=seed)
        model = EvidentialModel.initialize(cfg, BaseRate([0.2, 0.5, 0.3], weight=3.0))
        rng = np.random.default_rng(seed)
        samples = [
            MultiViewSample(tuple(rng.normal(scale=3.0, size=d) for d in cfg.view_dims), 0, f"s{i}")
            for i in range(40)
        ]
        rate = data.draw(st.sampled_from([None, BaseRate([0.6, 0.3, 0.1], weight=3.0)]))
        rows = data.draw(st.lists(st.integers(0, 39), min_size=1, max_size=40, unique=True))
        full = evaluate(model, samples, rate)
        for subset in (rows, rows[:1]):
            part = evaluate(model, [samples[i] for i in subset], rate)
            assert np.array_equal(part[0], full[0][subset])
            for got, want in zip(part[1:], full[1:]):
                assert np.allclose(got, want[subset], rtol=0.0, atol=1e-14)

    def test_rejects_mismatched_inputs(self):
        model = golden_model()
        bad = MultiViewSample((np.array([1.0]), np.array([1.0, 2.0])), 0, "bad")
        with pytest.raises(ValueError, match="view shapes"):
            evaluate(model, [GOLDEN_SAMPLE, bad])
        with pytest.raises(ValueError, match="no samples"):
            evaluate(model, [])
        with pytest.raises(ValueError, match="number of classes"):
            evaluate(model, [GOLDEN_SAMPLE], BaseRate([0.2, 0.3, 0.5]))


def blob_data(seed, n, separation=4.0):
    return gen_synthetic(
        SyntheticSpec.blobs(2, 2, 2, separation=separation, n_per_class=n, seed=seed)
    )


class TestScore:
    def test_reads_the_predicted_class_off_evaluate(self):
        model = golden_model()
        rng = np.random.default_rng(15)
        samples = [
            MultiViewSample((rng.normal(size=3), rng.normal(size=2)), 0, f"s{i}") for i in range(12)
        ]
        for rate in (None, BaseRate([0.2, 0.8], weight=2.0)):
            classes, u, probs = evaluate(model, samples, rate)
            predicted, confidence, uncertainty = score(model, samples, rate)
            assert np.array_equal(predicted, classes) and np.array_equal(uncertainty, u)
            for i, c in enumerate(classes.tolist()):
                assert confidence[i] == probs[i, c] == probs[i].max()

    def test_uncertainty_outside_the_unit_interval_is_rejected(self, monkeypatch):
        bad = (np.array([0]), np.array([1.5]), np.array([[0.6, 0.4]]))
        monkeypatch.setattr(model_module, "evaluate", lambda *args: bad)
        with pytest.raises(ValueError, match="uncertainty"):
            score(golden_model(), [GOLDEN_SAMPLE])


def mixed_data(view_dims, num_classes, n, seed):
    """n samples whose views have the given dimensions; each class shifts every feature."""
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % num_classes
    views = [rng.normal(size=(n, d)) + labels[:, None] for d in view_dims]
    return MultiViewDataset.from_arrays(views, labels, [f"s{i}" for i in range(n)], num_classes)


def fit_reference(model, train, valid):
    """`fit`'s epochs as a loop over fit_step_reference: (per-head parameter lists, curves).

    Starts from the model's current parameters and leaves the model as it is.
    """
    cfg, base = model.config, model.base_rate
    heads = [([w.copy() for w in h.weights], [b.copy() for b in h.biases]) for h in model.heads]
    moments = [(np.zeros_like(p), np.zeros_like(p)) for h in model.heads for p in h.parameters()]
    beta = DirichletParams(base.rates * base.weight)
    rows = max(1, model_module._EVAL_BLOCK // ((cfg.num_views + 1) * (cfg.num_classes + 3)))
    rng = np.random.default_rng(cfg.seed + 1)
    curves = {name: [] for name in ("train_loss", "train_acc", "valid_loss", "valid_acc")}
    step = 0
    for epoch in range(cfg.epochs):
        loss_cfg = LossConfig(annealed_lambda(epoch, cfg.anneal_epochs), beta)
        order = rng.permutation(len(train))
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            labels = train.labels()[batch]
            step += 1
            fit_step_reference(
                heads, moments, step, [x[batch] for x in train.views],
                lambda evidences: overall_loss_and_grad(evidences, base, labels, loss_cfg),
                cfg.learning_rate,
            )
        for name, ds in (("train", train), ("valid", valid)):
            labels, total, correct = ds.labels(), 0.0, 0
            for start in range(0, len(ds), rows):
                block = slice(start, start + rows)
                evidences = [head_forward_reference(w, b, x[block])[0] for (w, b), x in zip(heads, ds.views)]
                losses = overall_loss_and_grad(evidences, base, labels[block], loss_cfg)[0]
                alpha = combined_evidence(evidences, base.weight) + base.rates * base.weight
                total += losses.sum()
                correct += int(np.count_nonzero(np.argmax(alpha, axis=1) == labels[block]))
            curves[f"{name}_loss"].append(float(total / labels.size))
            curves[f"{name}_acc"].append(correct / labels.size)
    return heads, curves


class TestFit:
    def test_learns_separable_blobs(self):
        train, valid = blob_data(0, 100), blob_data(1, 50)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(8,),
            learning_rate=3e-3, epochs=12, batch_size=32, seed=0,
        )
        model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), 2))
        report = fit(model, train, valid)
        assert len(report.valid_acc) == 12
        assert report.final_valid_acc >= 0.9

        feats = lambda ds: np.array([np.concatenate(s.views) for s in ds])
        oracle = logistic_accuracy(feats(train), train.labels(), feats(valid), valid.labels())
        assert report.final_valid_acc >= oracle - 0.05

    def test_zero_learning_rate_changes_nothing(self):
        train, valid = blob_data(2, 20), blob_data(3, 10)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(4,),
            learning_rate=0.0, epochs=2, batch_size=8, seed=1,
        )
        base = compute_base_rate(train.labels(), 2)
        model = EvidentialModel.initialize(cfg, base)
        before = [p.copy() for p in model.parameters()]
        report = fit(model, train, valid)
        assert all(np.array_equal(p, q) for p, q in zip(model.parameters(), before))
        assert len(report.train_loss) == 2

    def test_training_is_bit_reproducible(self):
        train, valid = blob_data(4, 30), blob_data(5, 15)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(4,),
            learning_rate=1e-3, epochs=3, batch_size=16, seed=2,
        )
        base = compute_base_rate(train.labels(), 2)
        m1, m2 = EvidentialModel.initialize(cfg, base), EvidentialModel.initialize(cfg, base)
        r1, r2 = fit(m1, train, valid), fit(m2, train, valid)
        assert params_equal(m1, m2)
        assert r1.train_loss == r2.train_loss
        assert r1.valid_acc == r2.valid_acc

    def test_epoch_eval_in_blocks_matches_per_sample_scores(self, monkeypatch):
        monkeypatch.setattr("evifuse.model._EVAL_BLOCK", 7 * 3 * 5)  # 7 rows a block
        train, valid = blob_data(10, 20), blob_data(11, 9)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(4,),
            learning_rate=1e-2, epochs=1, batch_size=8, seed=4,
        )
        base = compute_base_rate(train.labels(), 2)
        model = EvidentialModel.initialize(cfg, base)
        report = fit(model, train, valid)
        loss_cfg = LossConfig(0.0, DirichletParams(base.rates * base.weight))  # lambda at epoch 0
        losses, correct = [], 0
        for sample in valid:
            evidences, _, _, alpha = forward(model, sample)
            losses.append(overall_loss_and_grad(evidences, base, sample.label, loss_cfg)[0])
            correct += predict_class(alpha) == sample.label
        assert report.valid_loss[0] == pytest.approx(np.mean(losses), rel=1e-12)
        assert report.valid_acc[0] == correct / len(valid)

    def test_gradients_only_for_minibatches(self, monkeypatch):
        import evifuse.model as model_module

        calls = []
        real = model_module._overall
        monkeypatch.setattr(
            model_module, "_overall", lambda *a, grad=True: calls.append(grad) or real(*a, grad=grad)
        )
        train, valid = blob_data(12, 20), blob_data(13, 9)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(4,),
            learning_rate=1e-2, epochs=3, batch_size=16, seed=5,
        )
        model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), 2))
        fit(model, train, valid)
        assert calls.count(True) == 3 * -(-len(train) // 16)  # epochs * ceil(N / batch_size)

    @pytest.mark.parametrize("num_classes,view_dims,hidden", [
        (2, (2, 2, 2, 2), (64,)),  # the criterion-07 shape: one stack of four
        (3, (2, 3, 2), (5,)),  # two stacks, one of them non-contiguous
        (2, (3, 2), ()),
        (4, (2, 2, 3), (8, 6)),
    ])
    def test_matches_the_per_head_reference(self, monkeypatch, num_classes, view_dims, hidden):
        # 7-row evaluation blocks, and 25 training rows in batches of 6, 6, 6, 6 and 1
        monkeypatch.setattr(
            "evifuse.model._EVAL_BLOCK", 7 * (len(view_dims) + 1) * (num_classes + 3)
        )
        train = mixed_data(view_dims, num_classes, 25, seed=20)
        valid = mixed_data(view_dims, num_classes, 16, seed=21)
        cfg = ModelConfig(
            num_classes=num_classes, num_views=len(view_dims), view_dims=view_dims,
            hidden=hidden, learning_rate=1e-2, epochs=3, batch_size=6, seed=6,
        )
        model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), num_classes))
        rng = np.random.default_rng(cfg.seed)  # every head drawn in view order from one stream
        drawn = [EvidenceHead.initialize(d, hidden, num_classes, rng) for d in view_dims]
        for head, want in zip(model.heads, drawn):
            assert all(np.array_equal(p, q) for p, q in zip(head.parameters(), want.parameters()))

        ref_heads, ref_curves = fit_reference(model, train, valid)
        report = fit(model, train, valid)
        for head, (weights, biases) in zip(model.heads, ref_heads):
            assert all(np.array_equal(p, q) for p, q in zip(head.weights + head.biases, weights + biases))
        assert report.to_dict() == {**ref_curves, "skipped": [0] * cfg.epochs}

    @pytest.mark.parametrize("view_dims,stacks", [((2, 2, 2, 2), 1), ((2, 3, 2), 2), ((3, 2), 2)])
    def test_one_head_pass_per_stack(self, monkeypatch, view_dims, stacks):
        counts = {"forward": 0, "forward_cached": 0, "backward": 0}

        def counted(name):
            real = getattr(EvidenceHead, name)

            def method(self, *args, **kwargs):
                counts[name] += 1
                return real(self, *args, **kwargs)
            return method

        for name in counts:
            monkeypatch.setattr(EvidenceHead, name, counted(name))
        monkeypatch.setattr("evifuse.model._EVAL_BLOCK", 7 * (len(view_dims) + 1) * 5)  # 7 rows
        train, valid = mixed_data(view_dims, 2, 20, seed=22), mixed_data(view_dims, 2, 9, seed=23)
        cfg = tiny_config(num_views=len(view_dims), view_dims=view_dims, epochs=2, batch_size=8)
        model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), 2))
        fit(model, train, valid)
        batches, blocks = -(-20 // 8), -(-20 // 7) + -(-9 // 7)
        assert counts["backward"] == stacks * cfg.epochs * batches
        assert counts["forward"] == stacks * cfg.epochs * blocks  # the per-epoch evaluation
        assert counts["forward_cached"] == counts["backward"] + counts["forward"]

        counts.update(forward=0, forward_cached=0)
        evaluate(model, valid)
        assert counts["forward"] == stacks

    def test_dataset_shape_must_match(self):
        train, valid = blob_data(6, 10), blob_data(7, 5)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(3, 3), hidden=(4,), epochs=1
        )
        model = EvidentialModel.initialize(cfg, BaseRate([0.5, 0.5], weight=2.0))
        with pytest.raises(ValueError, match="does not match"):
            fit(model, train, valid)

    def test_class_count_must_match(self):
        # a K=3 dataset of the model's view shapes is refused by training and scoring alike
        two = blob_data(6, 5)
        three = gen_synthetic(SyntheticSpec.blobs(3, 2, 2, n_per_class=5, seed=7))
        model = EvidentialModel.initialize(tiny_config(view_dims=(2, 2), epochs=1), BaseRate([0.5, 0.5]))
        with pytest.raises(ValueError, match="3 classes .* does not match the model's 2 classes"):
            fit(model, three, two)
        with pytest.raises(ValueError, match="3 classes .* does not match the model's 2 classes"):
            fit(model, two, three)
        with pytest.raises(ValueError, match="3 classes .* does not match the model's 2 classes"):
            evaluate(model, three)

    def test_report_dict_keys_are_its_fields(self):
        train, valid = blob_data(4, 6), blob_data(5, 4)
        model = EvidentialModel.initialize(
            tiny_config(view_dims=(2, 2), epochs=2), compute_base_rate(train.labels(), 2)
        )
        report = fit(model, train, valid)
        doc = report.to_dict()
        assert list(doc) == [f.name for f in fields(TrainingReport)]
        assert all(doc[name] == list(getattr(report, name)) for name in doc)
        assert all(len(curve) == 2 for curve in doc.values())

    def test_diverged_is_a_runtime_error(self):
        assert issubclass(TrainingDiverged, RuntimeError)


class TestCheckpoint:
    def test_round_trip_is_exact(self, tmp_path):
        train, valid = blob_data(8, 20), blob_data(9, 10)
        cfg = ModelConfig(
            num_classes=2, num_views=2, view_dims=(2, 2), hidden=(4,),
            learning_rate=1e-3, epochs=2, batch_size=8, seed=3,
        )
        model = EvidentialModel.initialize(cfg, compute_base_rate(train.labels(), 2))
        fit(model, train, valid)

        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        back = load_checkpoint(path)
        assert params_equal(model, back)
        assert back.config == model.config
        assert np.array_equal(back.base_rate.rates, model.base_rate.rates)

        rng = np.random.default_rng(12)
        for i in range(10):
            sample = MultiViewSample((rng.normal(size=2), rng.normal(size=2)), 0, f"s{i}")
            cls_a, u_a, p_a = predict(model, sample)
            cls_b, u_b, p_b = predict(back, sample)
            assert cls_a == cls_b and u_a == u_b and np.array_equal(p_a, p_b)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        with pytest.raises(ValueError, match="not a valid checkpoint"):
            load_checkpoint(path)
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="not an evidential model"):
            load_checkpoint(path)

    def test_write_replaces_atomically(self, tmp_path, monkeypatch):
        path = tmp_path / "model.json"
        save_checkpoint(golden_model(), path)
        before = path.read_bytes()

        def broken_fsync(*args, **kwargs):
            raise OSError("disk full")

        # fails after the whole document reached the temporary file
        monkeypatch.setattr("evifuse.model.os.fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(golden_model(), path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @pytest.mark.parametrize("edit,match", [
        (lambda doc: doc.pop("config"), "missing 'config'"),
        (lambda doc: doc.pop("heads"), "missing 'heads'"),
        (lambda doc: doc["config"].pop("num_classes"), "missing key 'num_classes'"),
        (lambda doc: doc["heads"].pop(), "one head per view"),
        (lambda doc: doc["heads"][1]["layers"].pop(), "head 1: a head needs 2 layers"),
        (lambda doc: doc["heads"][0]["layers"][0].update(weights=[[0.0] * 3] * 5), r"head 0: layer 0"),
        (lambda doc: doc["heads"][1]["layers"][1].update(bias=[0.0]), r"head 1: layer 1"),
        (lambda doc: doc["heads"][0]["layers"][0].update(weights={"a": 1}), "head 0: "),
        (lambda doc: doc["config"].update(hidden_size=[8]), "unknown config key 'hidden_size'"),
        (lambda doc: doc.update(version=True), "checkpoint version must be an integer, not True"),
    ])
    def test_rejects_malformed_documents(self, tmp_path, edit, match):
        import json

        path = tmp_path / "model.json"
        save_checkpoint(golden_model(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("edit,match", [
        (lambda doc: doc["heads"][0]["layers"][1]["bias"].__setitem__(0, float("nan")),
         "head 0: layer 1 holds non-finite values"),
        (lambda doc: doc["heads"][1]["layers"][0]["weights"][0].__setitem__(1, float("-inf")),
         "head 1: layer 0 holds non-finite values"),
        (lambda doc: doc.update(heads={"0": {}, "1": {}}), "'heads' is not a list"),
        (lambda doc: doc["heads"].append(doc["heads"][0]), r"head count 3 is not one head per view \(2\)"),
        (lambda doc: doc["heads"][1].update(layers=[]), "head 1: a head needs a nonempty list of layer objects"),
        (lambda doc: doc["heads"][1]["layers"].__setitem__(0, [1.0]), "head 1: a head needs a nonempty list"),
        (lambda doc: doc["heads"].__setitem__(0, []), "head 0: a head needs a nonempty list"),
        (lambda doc: doc.update(config=[2, 2]), "'config' is not an object"),
    ])
    def test_the_constructor_checks_what_the_loader_reads(self, tmp_path, edit, match):
        path = tmp_path / "model.json"
        save_checkpoint(golden_model(), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=match) as info:
            load_checkpoint(path)
        assert str(info.value).startswith(f"{path}: malformed checkpoint: ")

    @pytest.mark.parametrize("name", [f.name for f in fields(ModelConfig) if f.default is not MISSING])
    def test_missing_optional_config_key_takes_the_default(self, tmp_path, name):
        # every other defaulted field holds a non-default value, so only `name`
        # can fall back; a field missing from NON_DEFAULTS fails here
        others = {
            f.name: NON_DEFAULTS[f.name] for f in fields(ModelConfig)
            if f.default is not MISSING and f.name != name
        }
        cfg = ModelConfig(num_classes=2, num_views=2, view_dims=(3, 2), **others)
        model = EvidentialModel.initialize(cfg, BaseRate([0.4, 0.6], cfg.prior_weight))
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        del doc["config"][name]
        path.write_text(json.dumps(doc))
        back = load_checkpoint(path)
        assert back.config == cfg
        assert params_equal(model, back)

    def test_rejects_unknown_version(self, tmp_path):
        model = golden_model()
        path = tmp_path / "model.json"
        save_checkpoint(model, path)
        import json

        doc = json.loads(path.read_text())
        doc["version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="version"):
            load_checkpoint(path)
