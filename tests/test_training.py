"""Optimizer, composite loss, and training-loop checks."""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anchorft.training as training
from anchorft.anchors import (
    ANCHOR_LAYOUTS,
    CaptionSet,
    MissingCaptionError,
    PairSet,
    build_candidate_index,
)
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.contrastive import PairBatch, contrastive_loss_and_grads
from anchorft.encoders import DEFAULT_LOG_TAU, MODALITIES, encode_batch, init_params
from anchorft.numerics import RandomStream, ZeroVectorError, derive_seed
from anchorft.training import (
    DivergenceError,
    EmptyFinetuneSetError,
    LossBreakdown,
    TrainConfig,
    adamw_update,
    check_gradients,
    compute_total_loss_and_grads,
    config_fingerprint,
    finetune_batcher,
    init_optimizer_state,
    make_checkpoint,
    pretrain,
    run_finetune,
)
from test_encoders import tower_backward


def tiny_gen_config(**overrides) -> GenConfig:
    base = dict(
        n_id_classes=3,
        n_zsl_classes=2,
        n_domains=2,
        d_latent=4,
        d_img_raw=6,
        d_txt_raw=7,
        n_pretrain_per_class=6,
        n_finetune_per_class=4,
        n_test_per_class=2,
        candidate_pool_size=16,
        seed=0,
    )
    base.update(overrides)
    return GenConfig(**base)


def tiny_train_config(**overrides) -> TrainConfig:
    base = dict(batch_size=4, epochs=2, hidden=10, embed_dim=5, seed=0)
    base.update(overrides)
    return TrainConfig(**base)


def finetune_inputs(gen_cfg=None, train_cfg=None):
    gen_cfg = gen_cfg or tiny_gen_config()
    train_cfg = train_cfg or tiny_train_config()
    bundle = generate_benchmark(gen_cfg)
    start, _ = pretrain(bundle.pretrain_pool, train_cfg)
    index = build_candidate_index(start.params, bundle.candidates)
    return bundle, start, index, train_cfg


def step_inputs(bundle, params, index, cfg, n):
    """(batch, prompts, anchor_batch) of the first n finetune samples, cut as run_finetune cuts them."""
    batch_inputs = finetune_batcher(
        bundle.finetune[:n], bundle.prompts_id, bundle.captions, index, bundle.candidates,
        params, cfg,
    )
    return batch_inputs(np.arange(n))


def per_term_path(params, images, texts, weights, tau_trainable):
    """(losses, rows) of each term run alone through the one-tower encoder,
    the 2-D loss and the one-tower backward. rows holds the weighted
    gradient of each term whose weight is not zero, in term order: image
    span, text span, then log_tau. Every buffer is new."""
    expected, rows = [], []
    f, cache_f = encode_batch(params, "image", images)
    for term_texts, weight in zip(texts, weights):
        g, cache_g = encode_batch(params, "text", term_texts)
        loss, df, dg, dlog_tau = contrastive_loss_and_grads(
            PairBatch._from_encoded(f, g), params.tau
        )
        expected.append(loss.total)
        if weight != 0.0:
            row = np.concatenate([
                tower_backward(params, "image", cache_f, df),
                tower_backward(params, "text", cache_g, dg),
                [dlog_tau if tau_trainable else 0.0],
            ])
            rows.append(weight * row)
    return expected, rows


def pair_term(params, images, texts, weights, tau_trainable):
    """training._pair_term on one term's (n, text_in) texts, or on a (T, n, text_in) stack."""
    if len(weights) == 1:
        return training._pair_term(params, images, texts[0], weights[0], tau_trainable)
    return training._pair_term(params, images, texts, weights, tau_trainable)


def assert_same_rows(got, want):
    assert [row.tobytes() for row in got] == [row.tobytes() for row in want]


class TestTrainConfig:
    def test_batch_floor(self):
        with pytest.raises(ValueError):
            tiny_train_config(batch_size=1).validate()

    def test_merge_needs_caption_term_for_ret(self):
        with pytest.raises(ValueError):
            tiny_train_config(anchor_layout="merge", enabled_losses=("cl", "ret")).validate()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "name", ["learning_rate", "weight_decay", "lambda_cl", "lambda_cap", "lambda_ret"]
    )
    def test_non_finite_floats_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            tiny_train_config(**{name: value}).validate()

    @pytest.mark.parametrize("enabled", [(), []])
    def test_empty_loss_set_rejected(self, enabled):
        with pytest.raises(ValueError, match="enabled_losses must name at least one term"):
            tiny_train_config(enabled_losses=enabled).validate()

    def test_fingerprint_tracks_content(self):
        a = tiny_train_config()
        b = tiny_train_config()
        assert config_fingerprint(a) == config_fingerprint(b)
        assert config_fingerprint(a) != config_fingerprint(tiny_train_config(epochs=3))


class TestAdamW:
    DIMS = (1, 1, 1, 2)  # one input, one hidden unit, two embedding dims per tower

    def scalar_setup(self, theta=1.0, g=1.0):
        # Every tower entry is theta (gradient g); log_tau keeps its default.
        params = init_params(0, self.DIMS[:2], *self.DIMS[2:])
        params.theta[:-1] = theta
        grads = np.full(params.theta.size, g)
        grads[-1] = 0.0
        return params, grads

    def test_first_step_matches_hand_formula(self):
        # g = 1: m_hat = 1, v_hat = 1, so the step is lr/(1 + 1e-8).
        params, grads = self.scalar_setup(theta=1.0, g=1.0)
        state = init_optimizer_state(params)
        new_params, new_state = adamw_update(params, grads, state, lr=0.1, wd=0.0)
        expected = 1.0 - 0.1 / (1.0 + 1e-8)
        assert abs(new_params.tower("image")[0][0, 0] - expected) <= 1e-15
        assert new_state.step == 1

    def test_zero_grads_no_decay_leaves_params(self):
        params, _ = self.scalar_setup()
        before = params.theta.copy()
        zero = np.zeros_like(params.theta)
        new_params, _ = adamw_update(params, zero, init_optimizer_state(params), 0.1, 0.0)
        assert new_params.theta.tobytes() == before.tobytes()

    def test_zero_grads_with_decay_shrinks(self):
        params, _ = self.scalar_setup(theta=2.0)
        zero = np.zeros_like(params.theta)
        new_params, _ = adamw_update(params, zero, init_optimizer_state(params), 0.1, 0.5)
        expected = 2.0 * (1.0 - 0.1 * 0.5)
        assert abs(new_params.tower("image")[0][0, 0] - expected) <= 1e-15 * abs(expected)

    def test_log_tau_frozen_by_default(self):
        params, grads = self.scalar_setup()
        log_tau = params.log_tau
        grads[-1] = 5.0
        new_params, new_state = adamw_update(
            params, grads, init_optimizer_state(params), 0.1, 0.5
        )
        assert new_params.log_tau == log_tau
        assert new_state.m[-1] == 0.0 and new_state.v[-1] == 0.0

    def test_log_tau_moves_when_trainable(self):
        params, grads = self.scalar_setup()
        log_tau = params.log_tau
        grads[-1] = 5.0
        new_params, new_state = adamw_update(
            params, grads, init_optimizer_state(params), 0.01, 0.0, tau_trainable=True
        )
        assert new_params.log_tau != log_tau
        assert new_state.m[-1] != 0.0

    def test_update_is_in_place_and_returns_its_inputs(self):
        params, grads = self.scalar_setup()
        theta, state = params.theta, init_optimizer_state(params)
        m, v = state.m, state.v
        before = theta.copy()
        new_params, new_state = adamw_update(params, grads, state, 0.1, 0.1)
        assert new_params is params and new_state is state
        assert params.theta is theta and state.m is m and state.v is v
        assert theta.tobytes() != before.tobytes()
        assert m.any() and v.any() and state.step == 1
        assert params.tower("image")[0].base is theta  # the leaves still view theta

    @pytest.mark.parametrize("tau_trainable", [False, True])
    def test_matches_the_out_of_place_formula_bitwise(self, tau_trainable):
        def reference(theta, m, v, step, g, lr, wd):
            t = step + 1
            bc1 = 1.0 - training.ADAM_BETA1**t
            bc2 = 1.0 - training.ADAM_BETA2**t
            m_new = training.ADAM_BETA1 * m + (1.0 - training.ADAM_BETA1) * g
            v_new = training.ADAM_BETA2 * v + (1.0 - training.ADAM_BETA2) * g * g
            step_dir = (m_new / bc1) / (np.sqrt(v_new / bc2) + training.ADAM_EPS)
            theta_new = theta - lr * (step_dir + wd * theta)
            if not tau_trainable:
                theta_new[-1], m_new[-1], v_new[-1] = theta[-1], m[-1], v[-1]
            return theta_new, m_new, v_new, t

        params = init_params(3, (4, 5), 6, 3)
        state = init_optimizer_state(params)
        ref = (params.theta.copy(), state.m.copy(), state.v.copy(), 0)
        rng = np.random.default_rng(0)
        for step in range(6):
            grads = rng.normal(scale=10.0 ** (step - 3), size=params.theta.size)
            grads[::7] = 0.0
            grads[3::7] = -0.0
            grads[-1] = 0.3 * (step - 2)  # log_tau's gradient, 0.0 at step 2
            lr, wd = 10.0 ** -(step % 3 + 1), 0.1 * (step % 2)
            ref = reference(*ref, grads, lr, wd)
            params, state = adamw_update(params, grads, state, lr, wd, tau_trainable=tau_trainable)
            for got, want in zip((params.theta, state.m, state.v), ref[:3]):
                assert got.tobytes() == want.tobytes()
            assert state.step == ref[3]
        assert (params.log_tau != DEFAULT_LOG_TAU) == tau_trainable

    def test_steps_past_a_unit_bias_correction_match_the_two_divide_formula(self):
        # From step 356, 1 - 0.9**t rounds to 1.0 and the update divides m by
        # the denominator alone; the formula still divides by bc1 first.
        # Signed zeros and subnormals in m and v must come out bit for bit.
        assert [t for t in range(350, 361) if 1.0 - training.ADAM_BETA1**t == 1.0][0] == 356
        tiny = np.nextafter(0.0, 1.0)
        params = init_params(5, (4, 5), 6, 3)
        state = init_optimizer_state(params)
        rng = np.random.default_rng(1)
        state.m[:] = rng.normal(scale=1e-3, size=state.m.size)
        state.v[:] = rng.random(state.v.size) * 1e-6
        state.m[::5], state.v[::5] = -0.0, 0.0
        state.m[1::5], state.v[1::5] = tiny, tiny
        state.m[2::5], state.v[2::5] = -4 * tiny, 3 * tiny
        state.step = 349
        theta, m, v = params.theta.copy(), state.m.copy(), state.v.copy()
        for t in range(350, 361):
            grads = rng.normal(size=theta.size)
            grads[::5] = -0.0  # keeps m at -0.0 and v at 0.0
            grads[1::5] = grads[2::5] = 0.0  # keeps the subnormals
            grads[-1] = 0.0
            lr, wd = 1e-2, 0.1 * (t % 2)
            m = training.ADAM_BETA1 * m + (1.0 - training.ADAM_BETA1) * grads
            v = training.ADAM_BETA2 * v + (1.0 - training.ADAM_BETA2) * grads * grads
            bc1, bc2 = 1.0 - training.ADAM_BETA1**t, 1.0 - training.ADAM_BETA2**t
            step_dir = (m / bc1) / (np.sqrt(v / bc2) + training.ADAM_EPS)
            theta = theta - lr * (step_dir + wd * theta)
            theta[-1], m[-1], v[-1] = params.theta[-1], state.m[-1], state.v[-1]
            params, state = adamw_update(params, grads, state, lr, wd)
            assert state.step == t
            for got, want in zip((params.theta, state.m, state.v), (theta, m, v)):
                assert got.tobytes() == want.tobytes(), t
        assert np.signbit(state.m[::5]).all() and (state.m[1::5][:-1] == tiny).all()

    @pytest.mark.parametrize("tau_trainable", [False, True])
    def test_the_sign_of_a_zero_gradient_changes_no_bit(self, tau_trainable):
        # A step's gradient is its first term's row, not that row added into
        # zeros, so an entry may be -0.0 where a zero-filled sum has +0.0.
        # m and v start at +0.0, and 0.9 x and 0.999 x never round a nonzero
        # double to 0, so no update can tell the two apart. Entries of a few
        # subnormals leave m at the smallest subnormal, which maps to itself.
        tiny = np.nextafter(0.0, 1.0)
        assert training.ADAM_BETA1 * tiny == tiny and training.ADAM_BETA2 * tiny == tiny
        runs = []
        for flip in (False, True):
            params = init_params(3, (4, 5), 6, 3)
            state = init_optimizer_state(params)
            rng = np.random.default_rng(0)
            for step in range(8):
                grads = rng.normal(size=params.theta.size)
                grads[step % 3 :: 3] = 0.0
                grads[1::7] = -0.0
                # m of these entries becomes +-tiny at step 0 and stays there
                signs = rng.choice([-1.0, 1.0], size=grads[2::7].size)
                grads[2::7] = signs * (10 * tiny if step == 0 else 0.0)
                if flip:
                    zeros = grads == 0.0
                    grads[zeros] = -grads[zeros]
                    assert 0 < np.signbit(grads[zeros]).sum() < zeros.sum()
                params, state = adamw_update(
                    params, grads, state, 1e-3, 0.1, tau_trainable=tau_trainable
                )
                assert (np.abs(state.m[2::7]) == tiny).all()
            runs.append([a.tobytes() for a in (params.theta, state.m, state.v)])
        assert runs[0] == runs[1]

    def test_two_steps_accumulate_moments(self):
        # Same gradient twice: with bias correction the normalized step stays
        # lr/(1+eps)-sized, so theta decreases by about 2*lr.
        params, grads = self.scalar_setup(theta=1.0, g=1.0)
        state = init_optimizer_state(params)
        params, state = adamw_update(params, grads, state, 0.1, 0.0)
        params, state = adamw_update(params, grads, state, 0.1, 0.0)
        assert state.step == 2
        assert abs(params.tower("image")[0][0, 0] - 0.8) <= 1e-7


class TestComputeTotalLoss:
    def test_breakdown_identity(self):
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(lambda_cl=0.7, lambda_cap=1.3, lambda_ret=0.5, retrieval_k=2)
        problem = step_inputs(bundle, start.params, index, cfg, cfg.batch_size)
        breakdown, _ = compute_total_loss_and_grads(start.params, *problem, cfg)
        recomputed = (
            cfg.lambda_cl * breakdown.l_cl
            + cfg.lambda_cap * breakdown.l_cap
            + cfg.lambda_ret * breakdown.l_ret
        )
        assert abs(breakdown.total - recomputed) <= 1e-12
        assert not breakdown.skip_ret

    def test_single_sample_batch_all_zero(self):
        bundle, start, index, cfg = finetune_inputs()
        problem = step_inputs(bundle, start.params, index, cfg, 1)
        breakdown, grads = compute_total_loss_and_grads(start.params, *problem, cfg)
        assert breakdown.l_cl == 0.0
        assert breakdown.l_cap == 0.0
        assert breakdown.l_ret == 0.0
        assert breakdown.total == 0.0
        assert not grads.any()

    def test_disabled_terms_are_exactly_zero(self):
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(enabled_losses=("cl",))
        problem = step_inputs(bundle, start.params, index, cfg, cfg.batch_size)
        breakdown, _ = compute_total_loss_and_grads(start.params, *problem, cfg)
        assert breakdown.l_cap == 0.0 and breakdown.l_ret == 0.0
        assert breakdown.total == breakdown.l_cl

    def test_zero_weights_match_disabled_grads_bitwise(self):
        bundle, start, index, _ = finetune_inputs()
        only_cl = tiny_train_config(enabled_losses=("cl",))
        zero_weight = tiny_train_config(lambda_cap=0.0, lambda_ret=0.0)
        problem = step_inputs(bundle, start.params, index, only_cl, 4)
        _, g_a = compute_total_loss_and_grads(start.params, *problem, only_cl)
        _, g_b = compute_total_loss_and_grads(start.params, *problem, zero_weight)
        assert g_a.tobytes() == g_b.tobytes()

    def test_shared_image_forward_matches_separate_forwards_bitwise(self, monkeypatch):
        # cl and cap share the batch images, so they run as one two-term
        # stack over one image matrix; given a copy of the images they run
        # as two one-term stacks. Both give the same bits.
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(tau_trainable=True, retrieval_k=2)
        batch, prompts, anchor_batch = step_inputs(bundle, start.params, index, cfg, 4)
        captions, retrieved = anchor_batch.caption_pairs, anchor_batch.retrieved_pairs
        assert captions.images is batch.features
        stacks = []  # (image rows, terms) of each pair encode
        real_encode = training.encode_batch

        def counted_encode(params, modality, raw):
            if modality == MODALITIES:
                images, texts = raw
                stacks.append((len(images), 1 if np.ndim(texts) == 2 else len(texts)))
            return real_encode(params, modality, raw)

        monkeypatch.setattr(training, "encode_batch", counted_encode)
        shared = compute_total_loss_and_grads(start.params, batch, prompts, anchor_batch, cfg)
        assert stacks == [(4, 2), (len(retrieved), 1)]
        copied = PairSet(captions.ids, captions.images.copy(), captions.texts)
        separate = compute_total_loss_and_grads(
            start.params, batch, prompts, replace(anchor_batch, caption_pairs=copied), cfg
        )
        assert stacks[2:] == [(4, 1), (4, 1), (len(retrieved), 1)]
        assert vars(shared[0]) == vars(separate[0])
        assert shared[1].tobytes() == separate[1].tobytes()

    def anchored_problem(self):
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(tau_trainable=True, retrieval_k=2)
        return (start.params, *step_inputs(bundle, start.params, index, cfg, 4), cfg)

    def test_full_objective_matches_finite_differences(self):
        # The all-terms composite gradient against central differences over
        # every element of theta, log_tau included.
        problem = self.anchored_problem()
        report = check_gradients(*problem, eps=1e-5, skip_below=1e-8, tol=1e-4)
        assert report.passed
        assert report.n_checked > 0.9 * problem[0].theta.size

    @pytest.mark.parametrize("eps", [0.0, -1e-5, math.nan, math.inf, -math.inf])
    def test_eps_must_be_positive_and_finite(self, eps):
        problem = self.anchored_problem()
        theta = problem[0].theta.copy()
        with pytest.raises(ValueError, match="eps must be a positive finite number"):
            check_gradients(*problem, eps=eps)
        assert problem[0].theta.tobytes() == theta.tobytes()

    def test_an_eps_that_overflows_the_model_is_named(self):
        with pytest.raises(ValueError, match=r"a step of eps=1e\+300 left the model non-finite"):
            check_gradients(*self.anchored_problem(), eps=1e300)

    def test_checker_catches_a_wrong_log_tau_gradient(self, monkeypatch):
        # log_tau is checked like any other element: a 1% error in its
        # analytic gradient, with the loss left exact, must fail.
        problem = self.anchored_problem()
        real_loss = training.contrastive_loss_and_grads

        def skewed_loss(batch, tau, **kwargs):
            loss, df, dg, dlog_tau = real_loss(batch, tau, **kwargs)
            return loss, df, dg, 1.01 * dlog_tau

        monkeypatch.setattr(training, "contrastive_loss_and_grads", skewed_loss)
        report = check_gradients(*problem, eps=1e-5, skip_below=1e-8, tol=1e-4)
        assert not report.passed
        assert report.max_rel_err > 1e-3


class TestStepChecks:
    """The pair term and the step keep every check that can fail."""

    def pair_problem(self):
        rng = np.random.default_rng(0)
        return init_params(0, (6, 7), 10, 5), rng.normal(size=(4, 6)), rng.normal(size=(2, 4, 7))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("where", ["images", "texts", "second slice"])
    def test_a_non_finite_raw_row_raises_in_the_pair_term(self, bad, where):
        params, images, texts = self.pair_problem()
        {"images": images[1], "texts": texts[0, 3], "second slice": texts[1, 0]}[where][2] = bad
        with pytest.raises(ValueError, match="raw features contains non-finite"):
            training._pair_term(params, images, texts, (1.0, 1.0), False)
        if where != "second slice":
            with pytest.raises(ValueError, match="raw features contains non-finite"):
                training._pair_term(params, images, texts[0], 1.0, False)

    @pytest.mark.parametrize("where", ["images", "texts", "second slice"])
    def test_a_zero_length_row_raises_in_the_pair_term(self, where):
        # Biases start at zero, so a raw row of zeros encodes to u = 0.
        params, images, texts = self.pair_problem()
        {"images": images[1], "texts": texts[0, 3], "second slice": texts[1, 0]}[where][:] = 0.0
        with pytest.raises(ZeroVectorError):
            training._pair_term(params, images, texts, (1.0, 0.0), False)

    @pytest.mark.parametrize(
        "image_shape, text_shape, match",
        [
            ((4, 6), (2, 3, 7), "must match"),
            ((4, 6), (2, 4, 8), "text features must have 7 columns"),
            ((4, 6), (1, 2, 4, 7), "text features must have 7 columns"),
            ((4, 5), (2, 4, 7), "image features must have 6 columns"),
        ],
    )
    def test_stack_shapes_that_do_not_match_raise(self, image_shape, text_shape, match):
        params, _, _ = self.pair_problem()
        with pytest.raises(ValueError, match=match):
            training._pair_term(
                params, np.ones(image_shape), np.ones(text_shape), (1.0, 1.0), False
            )

    def step_problem(self):
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(retrieval_k=2)
        batch, prompts, anchor_batch = step_inputs(bundle, start.params, index, cfg, 4)
        assert anchor_batch.caption_pairs.images is batch.features  # cl and cap stack
        rows = {
            "batch images": batch.features[1],
            "prompts": prompts[2],  # the cl slice of the stack
            "caption texts": anchor_batch.caption_pairs.texts[0],  # the cap slice
            "retrieved images": anchor_batch.retrieved_pairs.images[0],
            "retrieved texts": anchor_batch.retrieved_pairs.texts[-1],
        }
        return start.params, (batch, prompts, anchor_batch), cfg, rows

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    @pytest.mark.parametrize(
        "where",
        ["batch images", "prompts", "caption texts", "retrieved images", "retrieved texts"],
    )
    def test_a_non_finite_raw_row_raises_in_the_step(self, bad, where):
        params, problem, cfg, rows = self.step_problem()
        rows[where][0] = bad
        with pytest.raises(ValueError, match="raw features contains non-finite"):
            compute_total_loss_and_grads(params, *problem, cfg)

    @pytest.mark.parametrize(
        "where",
        ["batch images", "prompts", "caption texts", "retrieved images", "retrieved texts"],
    )
    def test_a_zero_length_row_raises_in_the_step(self, where):
        params, problem, cfg, rows = self.step_problem()
        fresh = init_params(1, params.dims[:2], *params.dims[2:])  # zero biases
        rows[where][:] = 0.0
        with pytest.raises(ZeroVectorError):
            compute_total_loss_and_grads(fresh, *problem, cfg)

    def test_stack_shapes_that_do_not_match_raise_in_the_step(self):
        params, (batch, prompts, anchor_batch), cfg, _ = self.step_problem()
        with pytest.raises(ValueError):
            compute_total_loss_and_grads(params, batch, prompts[:3], anchor_batch, cfg)
        short = replace(anchor_batch, caption_pairs=anchor_batch.caption_pairs[:3])
        with pytest.raises(ValueError, match="caption pairs must cover the batch"):
            compute_total_loss_and_grads(params, batch, prompts, short, cfg)


class TestLayerBoundaries:
    LAYERS = ("encode_batch", "contrastive_loss_and_grads", "encoder_backward_batch")

    @pytest.mark.parametrize("enabled, calls", [(training.LOSS_TERMS, 2), (("cl",), 1)])
    def test_a_step_calls_each_layer_through_the_training_names(
        self, monkeypatch, enabled, calls
    ):
        # perfbench times encoders.encode_s, contrastive.loss_s and
        # encoders.backward_s by wrapping these names where training looks
        # them up, so a step must go through them: cl and cap as one stack,
        # then ret.
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(enabled_losses=enabled, retrieval_k=2)
        problem = step_inputs(bundle, start.params, index, cfg, 4)
        assert len(problem[2].retrieved_pairs) >= 2 or enabled == ("cl",)
        counts = dict.fromkeys(self.LAYERS, 0)
        for name in self.LAYERS:

            def counted(*args, _name=name, _real=getattr(training, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)
        breakdown, grads = compute_total_loss_and_grads(start.params, *problem, cfg)
        assert counts == dict.fromkeys(self.LAYERS, calls)
        assert breakdown.total > 0.0 and grads.any()

    def test_the_step_gradient_is_the_per_term_rows_added_in_order(self):
        # cl, cap and ret against the per-term path: the first term's row,
        # then the others added into it, zero signs included.
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(lambda_cap=0.37, tau_trainable=True, retrieval_k=2)
        batch, prompts, anchor_batch = step_inputs(bundle, start.params, index, cfg, 4)
        captions, retrieved = anchor_batch.caption_pairs, anchor_batch.retrieved_pairs
        losses, rows = per_term_path(
            start.params, batch.features, [prompts, captions.texts],
            [cfg.lambda_cl, cfg.lambda_cap], cfg.tau_trainable,
        )
        ret_losses, ret_rows = per_term_path(
            start.params, retrieved.images, [retrieved.texts], [cfg.lambda_ret],
            cfg.tau_trainable,
        )
        want = rows[0] + rows[1] + ret_rows[0]
        breakdown, grads = compute_total_loss_and_grads(
            start.params, batch, prompts, anchor_batch, cfg
        )
        assert [breakdown.l_cl, breakdown.l_cap, breakdown.l_ret] == losses + ret_losses
        assert grads.tobytes() == want.tobytes()


class TestPretrain:
    def test_zero_epochs_returns_init(self):
        bundle = generate_benchmark(tiny_gen_config())
        cfg = tiny_train_config(epochs=0)
        ckpt, log = pretrain(bundle.pretrain_pool, cfg)
        fresh = init_params(
            cfg.seed,
            (bundle.gen_config.d_img_raw, bundle.gen_config.d_txt_raw),
            cfg.hidden,
            cfg.embed_dim,
        )
        assert ckpt.params.tower("image")[0].tobytes() == fresh.tower("image")[0].tobytes()
        assert ckpt.params.tower("text")[2].tobytes() == fresh.tower("text")[2].tobytes()
        assert log == []
        assert ckpt.provenance == "pretrained"

    def test_loss_decreases_over_epochs(self):
        bundle = generate_benchmark(tiny_gen_config(n_pretrain_per_class=10))
        cfg = tiny_train_config(batch_size=16, epochs=5)
        _, log = pretrain(bundle.pretrain_pool, cfg)
        first = np.mean([r["total"] for r in log if r["epoch"] == 0])
        last = np.mean([r["total"] for r in log if r["epoch"] == cfg.epochs - 1])
        assert last < first

    def test_deterministic(self):
        bundle = generate_benchmark(tiny_gen_config())
        a, _ = pretrain(bundle.pretrain_pool, tiny_train_config())
        b, _ = pretrain(bundle.pretrain_pool, tiny_train_config())
        assert a.id == b.id
        assert a.params.tower("image")[0].tobytes() == b.params.tower("image")[0].tobytes()

    def test_pool_too_small(self):
        bundle = generate_benchmark(tiny_gen_config())
        with pytest.raises(ValueError):
            pretrain(bundle.pretrain_pool[:3], tiny_train_config(batch_size=8))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_names_the_step(self):
        # lr 1e3 with weight decay 0.1 multiplies the weights by -99 a step,
        # until the pre-normalization norms overflow. No numpy warning may
        # come before the error.
        bundle = generate_benchmark(GenConfig(seed=0))
        with pytest.raises(DivergenceError, match=r"at step 76 \(epoch 0\): image encoder"):
            pretrain(bundle.pretrain_pool, TrainConfig(seed=0, epochs=2, learning_rate=1e3))

    def test_tau_leaving_its_range_is_a_divergence(self):
        # lr 1 on a trainable temperature pushes tau past its upper bound.
        bundle = generate_benchmark(
            GenConfig(
                n_id_classes=4, n_zsl_classes=2, n_domains=1, d_latent=5, d_img_raw=6,
                d_txt_raw=7, n_pretrain_per_class=1, n_finetune_per_class=4,
                n_test_per_class=1, candidate_pool_size=10, seed=0,
            )
        )
        cfg = TrainConfig(
            batch_size=4, epochs=20, hidden=10, embed_dim=5, tau_trainable=True,
            learning_rate=1.0, weight_decay=0.0,
        )
        with pytest.raises(DivergenceError, match=r"at step 8 \(epoch 4\): tau 11\.69 outside"):
            pretrain(bundle.pretrain_pool, cfg)


class TestRunFinetune:
    @pytest.mark.parametrize(
        "overrides",
        [{}, {"enabled_losses": ("cl",)}, {"anchor_layout": "merge"}, {"retrieval_k": 2}],
    )
    def test_each_step_updates_once_and_runs_one_loss_per_engaged_term(
        self, monkeypatch, overrides
    ):
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(**overrides)
        calls = {"adamw": 0, "loss": 0, "pairbatch": 0}

        def counted(key, real):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return real(*args, **kwargs)

            return wrapper

        real_loss = training.contrastive_loss_and_grads

        def counted_loss(batch, tau, **kwargs):
            # one loss per slice of a stacked batch
            calls["loss"] += math.prod(batch.image_embeddings.shape[:-2])
            return real_loss(batch, tau, **kwargs)

        monkeypatch.setattr(training, "adamw_update", counted("adamw", training.adamw_update))
        monkeypatch.setattr(training, "contrastive_loss_and_grads", counted_loss)
        monkeypatch.setattr(
            PairBatch, "__post_init__", counted("pairbatch", PairBatch.__post_init__)
        )
        _, log = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        sep_ret = "ret" in cfg.enabled_losses and cfg.anchor_layout == "sep"
        terms = [
            1 + ("cap" in cfg.enabled_losses) + (sep_ret and not r["skip_ret"]) for r in log
        ]
        assert log and calls == {"adamw": len(log), "loss": sum(terms), "pairbatch": 0}

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 40),
        weights=st.lists(st.sampled_from([0.0, 1.0, 0.37]), min_size=1, max_size=2),
        widths=st.tuples(st.integers(1, 9), st.integers(1, 9)).filter(lambda w: w[0] != w[1]),
        hidden=st.integers(1, 12),
        embed=st.integers(2, 6),
        tau_trainable=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_stacked_terms_match_the_per_term_path_bitwise(
        self, n, weights, widths, hidden, embed, tau_trainable, seed
    ):
        # One- and two-term stacks against each term run alone through the
        # one-tower encoder, the 2-D loss and the one-tower backward: every
        # weighted gradient row, zero signs included, in term order.
        rng = np.random.default_rng(seed)
        params = init_params(seed % 1000, widths, hidden, embed)
        images = rng.normal(size=(n, widths[0]))
        texts = rng.normal(size=(len(weights), n, widths[1]))
        expected, want = per_term_path(params, images, texts, weights, tau_trainable)

        losses, got = pair_term(params, images, texts, weights, tau_trainable)
        assert losses == expected
        assert_same_rows(got, want)

    @settings(max_examples=60, deadline=None)
    @given(
        calls=st.lists(
            st.tuples(
                st.integers(2, 12),
                st.lists(st.sampled_from([0.0, 1.0, 0.37]), min_size=1, max_size=2),
                st.booleans(),
            ),
            min_size=2,
            max_size=6,
        ),
        widths=st.tuples(st.integers(1, 7), st.integers(1, 7)).filter(lambda w: w[0] != w[1]),
        hidden=st.integers(1, 8),
        embed=st.integers(2, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_a_sequence_of_calls_matches_fresh_buffers_bitwise(
        self, calls, widths, hidden, embed, seed
    ):
        # One params serves calls of every row count, stack depth, weight
        # mix and tau setting in turn. Each call must match the per-term
        # path, whose buffers are all new. The loss and backward write into
        # uninitialized arrays, often the memory the previous call freed: an
        # entry that one call leaves behind and the next does not overwrite
        # shows up here.
        rng = np.random.default_rng(seed)
        params = init_params(seed % 1000, widths, hidden, embed)
        for n, weights, tau_trainable in calls:
            images = rng.normal(size=(n, widths[0]))
            texts = rng.normal(size=(len(weights), n, widths[1]))
            expected, want = per_term_path(params, images, texts, weights, tau_trainable)
            losses, got = pair_term(params, images, texts, weights, tau_trainable)
            assert losses == expected
            assert_same_rows(got, want)

    @pytest.mark.parametrize("layout", ANCHOR_LAYOUTS)
    def test_the_sets_built_unchecked_have_unique_keys(self, monkeypatch, layout):
        # A step's caption pairs and retrieved pairs are built unchecked,
        # since their keys are unique by construction. Rebuild them, and the
        # batch, through the checked constructor here.
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(anchor_layout=layout, retrieval_k=2, epochs=3)
        real_batcher = training.finetune_batcher
        retrieved_rows = []

        def checked_batcher(*args):
            cut = real_batcher(*args)

            def checked_cut(batch_idx):
                batch, prompts, anchor_batch = cut(batch_idx)
                captions = anchor_batch.caption_pairs
                if layout == "merge":  # the retrieved pairs follow the captions
                    captions, retrieved = captions[: len(batch)], captions[len(batch) :]
                else:
                    retrieved = anchor_batch.retrieved_pairs
                for columns in (batch, captions, retrieved, anchor_batch.caption_pairs):
                    type(columns)(*(getattr(columns, f.name) for f in fields(columns)))
                assert captions.ids.tolist() == batch.ids.tolist()
                retrieved_rows.append(len(retrieved))
                return batch, prompts, anchor_batch

            return checked_cut

        monkeypatch.setattr(training, "finetune_batcher", checked_batcher)
        _, log = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        assert log and len(retrieved_rows) == len(log) and min(retrieved_rows) >= 2

    def test_the_cutter_checks_a_caller_index(self):
        bundle, start, index, cfg = finetune_inputs()
        batch_inputs = finetune_batcher(
            bundle.finetune, bundle.prompts_id, bundle.captions, index, bundle.candidates,
            start.params, cfg,
        )
        with pytest.raises(ValueError, match="ids must be unique"):
            batch_inputs(np.array([3, 1, 3]))
        batch, _, anchor_batch = batch_inputs(np.array([3, 1, 2]))
        assert batch.ids.tolist() == bundle.finetune.ids[[3, 1, 2]].tolist()
        assert anchor_batch.caption_pairs.ids.tolist() == batch.ids.tolist()

    def test_frozen_tau_leaves_the_log_tau_gradient_at_zero(self):
        # With tau frozen no d(loss)/d(log tau) is computed, and the last
        # gradient entry is exactly +0.0, also right after a trainable step
        # wrote a nonzero one.
        bundle, start, index, _ = finetune_inputs()
        last = {}
        for tau_trainable in (True, False, True, False):
            cfg = tiny_train_config(tau_trainable=tau_trainable, retrieval_k=2)
            inputs = step_inputs(bundle, start.params, index, cfg, 4)
            _, grads = compute_total_loss_and_grads(start.params, *inputs, cfg)
            last[tau_trainable] = grads[-1]
        assert last[True] != 0.0
        assert last[False].tobytes() == np.float64(0.0).tobytes()

    def test_pair_term_rejects_misaligned_rows(self):
        params = init_params(0, (6, 7), 10, 5)
        images, texts = np.ones((3, 6)), np.ones((4, 7))
        with pytest.raises(ValueError, match=r"must match, got \(3, 5\) vs \(4, 5\)"):
            training._pair_term(params, images, texts, 1.0, False)

    def test_log_record_count_full_batches(self):
        # 12 finetune samples, batch 4: exactly 3 steps per epoch.
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(epochs=3)
        ckpt, log = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        assert len(log) == cfg.epochs * (len(bundle.finetune) // cfg.batch_size)
        assert ckpt.provenance == "finetuned"
        assert [r["step"] for r in log] == list(range(len(log)))

    def test_partial_batch_of_two_is_kept(self):
        # 10 samples, batch 4 -> batches of 4, 4, 2: the trailing pair still
        # trains, only singletons are dropped.
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(epochs=1)
        subset = bundle.finetune[:10]
        _, log = run_finetune(
            subset, bundle.prompts_id, bundle.captions, index, bundle.candidates, start, cfg
        )
        assert len(log) == 3

    def test_deterministic_checkpoints(self):
        bundle, start, index, cfg = finetune_inputs()
        a, log_a = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        b, log_b = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        assert a.id == b.id
        assert a.params.tower("text")[0].tobytes() == b.params.tower("text")[0].tobytes()
        assert log_a == log_b

    def test_cl_only_equals_zero_weight_anchors(self):
        bundle, start, index, _ = finetune_inputs()
        only_cl = tiny_train_config(enabled_losses=("cl",))
        zero_w = tiny_train_config(lambda_cap=0.0, lambda_ret=0.0)
        a, _ = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, only_cl,
        )
        b, _ = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, zero_w,
        )
        assert a.params.tower("image")[0].tobytes() == b.params.tower("image")[0].tobytes()
        assert a.params.tower("text")[2].tobytes() == b.params.tower("text")[2].tobytes()
        assert a.params.log_tau == b.params.log_tau

    def test_requires_pretrained_start(self):
        bundle, start, index, cfg = finetune_inputs()
        finetuned, _ = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        with pytest.raises(ValueError):
            run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions, index,
                bundle.candidates, finetuned, cfg,
            )

    def test_empty_finetune_set(self):
        bundle, start, index, cfg = finetune_inputs()
        with pytest.raises(EmptyFinetuneSetError):
            run_finetune([], bundle.prompts_id, bundle.captions, index,
                         bundle.candidates, start, cfg)

    def test_non_finite_gradient_names_the_step(self, monkeypatch):
        bundle, start, index, cfg = finetune_inputs()
        real_backward = training.encoder_backward_batch

        def backward_with_nan(params, cache, grad_embeddings):
            grad = real_backward(params, cache, grad_embeddings)
            grad[0] = np.nan
            return grad

        monkeypatch.setattr(training, "encoder_backward_batch", backward_with_nan)
        with pytest.raises(DivergenceError, match=r"at step 0 \(epoch 0\): non-finite"):
            run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions, index,
                bundle.candidates, start, cfg,
            )

    def test_missing_caption_raises_before_the_first_step(self, monkeypatch):
        bundle, start, index, cfg = finetune_inputs()
        steps = []
        real_step = training.compute_total_loss_and_grads

        def counted_step(*args):
            steps.append(1)
            return real_step(*args)

        monkeypatch.setattr(training, "compute_total_loss_and_grads", counted_step)
        with pytest.raises(MissingCaptionError, match=str(bundle.finetune.ids[-1])):
            run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions[:-1], index,
                bundle.candidates, start, cfg,
            )
        assert steps == []

    def test_non_finite_caption_raises_naming_the_sample_before_the_first_step(
        self, monkeypatch
    ):
        bundle, start, index, cfg = finetune_inputs()
        steps = []
        real_step = training.compute_total_loss_and_grads

        def counted_step(*args):
            steps.append(1)
            return real_step(*args)

        monkeypatch.setattr(training, "compute_total_loss_and_grads", counted_step)
        features = bundle.captions.features.copy()
        features[5, 1] = np.inf
        bad_id = bundle.captions.ids[5]
        with pytest.raises(ValueError, match=rf"the row with ids {bad_id} contains non-finite"):
            captions = CaptionSet(bundle.captions.ids, features)
            run_finetune(
                bundle.finetune, bundle.prompts_id, captions, index, bundle.candidates, start, cfg
            )
        assert steps == []

    def test_ret_needs_index(self):
        bundle, start, _, cfg = finetune_inputs()
        with pytest.raises(ValueError):
            run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions, None, None, start, cfg
            )

    def test_merge_layout_runs_and_logs_zero_ret(self):
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(anchor_layout="merge")
        _, log = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        assert all(r["l_ret"] == 0.0 for r in log)
        assert all(r["l_cap"] > 0.0 for r in log)

    def test_merge_layout_rejects_candidate_ids_shared_with_samples(self, monkeypatch):
        # 18 finetune samples and 16 candidates renamed to the first 16 sample
        # ids: every retrieved candidate clashes with a sample in the merged set.
        bundle, start, _, _ = finetune_inputs(tiny_gen_config(n_finetune_per_class=6))
        pool = bundle.candidates
        clashing = PairSet(bundle.finetune.ids[: len(pool)], pool.images, pool.texts)
        index = build_candidate_index(start.params, clashing)
        steps = []
        real_step = training.compute_total_loss_and_grads

        def counted_step(*args):
            steps.append(1)
            return real_step(*args)

        monkeypatch.setattr(training, "compute_total_loss_and_grads", counted_step)
        with pytest.raises(ValueError, match="merge layout .* ids must be distinct"):
            run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions, index, clashing, start,
                tiny_train_config(anchor_layout="merge"),
            )
        assert steps == []
        _, log = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index, clashing, start,
            tiny_train_config(),
        )
        assert steps and any(r["l_ret"] > 0.0 for r in log)

    def test_text_side_queries_use_prompts(self):
        # t2t retrieval must run (queries come from the prompt table, whose
        # width differs from the image features here: txt 7 vs img 6).
        bundle, start, index, _ = finetune_inputs()
        cfg = tiny_train_config(retrieval_mode="t2t")
        ckpt, log = run_finetune(
            bundle.finetune, bundle.prompts_id, bundle.captions, index,
            bundle.candidates, start, cfg,
        )
        assert len(log) > 0


class TestEpochBatches:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 150),
        batch_size=st.integers(2, 40),
        seed=st.integers(0, 2**64 - 1),
        epoch=st.integers(0, 30),
        tag=st.sampled_from([training._TAG_PRETRAIN_EPOCH, training._TAG_FINETUNE_EPOCH]),
    )
    def test_is_the_seeded_shuffle_split_and_never_repeats_an_index(
        self, n, batch_size, seed, epoch, tag
    ):
        batches = training._epoch_batches(n, batch_size, seed, epoch, tag)
        perm = RandomStream(derive_seed(seed, tag, epoch)).permutation(n)
        want = [perm[i : i + batch_size] for i in range(0, n, batch_size)]
        assert isinstance(batches, tuple)
        assert [b.tolist() for b in batches] == [b for b in want if len(b) >= 2]
        assert all(b.dtype == np.int64 for b in batches)
        flat = [i for b in batches for i in b.tolist()]
        assert len(set(flat)) == len(flat) >= n - 1
        assert set(flat) <= set(range(n))

    def test_a_repeat_finetuning_call_returns_the_same_read_only_arrays(self):
        first = training._finetune_epoch_batches(65, 32, 5, 2)
        assert training._finetune_epoch_batches(65, 32, 5, 2) is first
        fresh = training._epoch_batches(65, 32, 5, 2, training._TAG_FINETUNE_EPOCH)
        assert fresh is not first
        assert [b.tolist() for b in fresh] == [b.tolist() for b in first]
        for batch in first:
            assert not batch.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                batch[0] = 0
        again = RandomStream(derive_seed(5, training._TAG_FINETUNE_EPOCH, 2)).permutation(65)
        assert np.concatenate(first).tolist() == again[:64]


class TestCheckpointIdentity:
    def test_id_deterministic_and_sensitive(self):
        params = init_params(0, (4, 4), 5, 3)
        cfg = tiny_train_config()
        a = make_checkpoint(params, cfg, "pretrained")
        b = make_checkpoint(params.copy(), cfg, "pretrained")
        assert a.id == b.id
        c = make_checkpoint(params, cfg, "finetuned")
        assert c.id != a.id
        params.tower("image")[3][0] += 1e-9
        assert make_checkpoint(params, cfg, "pretrained").id != a.id
