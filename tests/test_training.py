"""Optimizer, composite loss, and training-loop checks."""

import numpy as np
import pytest

import anchorft.training as training
from anchorft.anchors import MissingCaptionError, build_candidate_index
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.encoders import init_params
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


class TestTrainConfig:
    def test_batch_floor(self):
        with pytest.raises(ValueError):
            tiny_train_config(batch_size=1).validate()

    def test_merge_needs_caption_term_for_ret(self):
        with pytest.raises(ValueError):
            tiny_train_config(anchor_layout="merge", enabled_losses=("cl", "ret")).validate()

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
        assert abs(new_params.image.w1[0, 0] - expected) <= 1e-15
        assert new_state.step == 1

    def test_zero_grads_no_decay_leaves_params(self):
        params, _ = self.scalar_setup()
        zero = np.zeros_like(params.theta)
        new_params, _ = adamw_update(params, zero, init_optimizer_state(params), 0.1, 0.0)
        assert new_params.image.w1.tobytes() == params.image.w1.tobytes()
        assert new_params.text.w2.tobytes() == params.text.w2.tobytes()

    def test_zero_grads_with_decay_shrinks(self):
        params, _ = self.scalar_setup(theta=2.0)
        zero = np.zeros_like(params.theta)
        new_params, _ = adamw_update(params, zero, init_optimizer_state(params), 0.1, 0.5)
        expected = 2.0 * (1.0 - 0.1 * 0.5)
        assert abs(new_params.image.w1[0, 0] - expected) <= 1e-15 * abs(expected)

    def test_log_tau_frozen_by_default(self):
        params, grads = self.scalar_setup()
        grads[-1] = 5.0
        new_params, new_state = adamw_update(
            params, grads, init_optimizer_state(params), 0.1, 0.5
        )
        assert new_params.log_tau == params.log_tau
        assert new_state.m[-1] == 0.0 and new_state.v[-1] == 0.0

    def test_log_tau_moves_when_trainable(self):
        params, grads = self.scalar_setup()
        grads[-1] = 5.0
        new_params, new_state = adamw_update(
            params, grads, init_optimizer_state(params), 0.01, 0.0, tau_trainable=True
        )
        assert new_params.log_tau != params.log_tau
        assert new_state.m[-1] != 0.0

    def test_update_leaves_its_inputs_alone(self):
        params, grads = self.scalar_setup()
        before = params.theta.copy()
        state = init_optimizer_state(params)
        adamw_update(params, grads, state, 0.1, 0.1)
        assert params.theta.tobytes() == before.tobytes()
        assert not state.m.any() and not state.v.any()

    def test_two_steps_accumulate_moments(self):
        # Same gradient twice: with bias correction the normalized step stays
        # lr/(1+eps)-sized, so theta decreases by about 2*lr.
        params, grads = self.scalar_setup(theta=1.0, g=1.0)
        state = init_optimizer_state(params)
        params, state = adamw_update(params, grads, state, 0.1, 0.0)
        params, state = adamw_update(params, grads, state, 0.1, 0.0)
        assert state.step == 2
        assert abs(params.image.w1[0, 0] - 0.8) <= 1e-7


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

    def test_checker_catches_a_wrong_log_tau_gradient(self, monkeypatch):
        # log_tau is checked like any other element: a 1% error in its
        # analytic gradient, with the loss left exact, must fail.
        problem = self.anchored_problem()
        real_loss = training.contrastive_loss_and_grads

        def skewed_loss(batch, tau):
            loss, df, dg, dlog_tau = real_loss(batch, tau)
            return loss, df, dg, 1.01 * dlog_tau

        monkeypatch.setattr(training, "contrastive_loss_and_grads", skewed_loss)
        report = check_gradients(*problem, eps=1e-5, skip_below=1e-8, tol=1e-4)
        assert not report.passed
        assert report.max_rel_err > 1e-3


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
        assert ckpt.params.image.w1.tobytes() == fresh.image.w1.tobytes()
        assert ckpt.params.text.w2.tobytes() == fresh.text.w2.tobytes()
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
        assert a.params.image.w1.tobytes() == b.params.image.w1.tobytes()

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
        assert a.params.text.w1.tobytes() == b.params.text.w1.tobytes()
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
        assert a.params.image.w1.tobytes() == b.params.image.w1.tobytes()
        assert a.params.text.w2.tobytes() == b.params.text.w2.tobytes()
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

        def backward_with_nan(params, modality, cache, grad_embeddings):
            grad = real_backward(params, modality, cache, grad_embeddings)
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
        with pytest.raises(MissingCaptionError, match=str(bundle.finetune[-1].id)):
            run_finetune(
                bundle.finetune, bundle.prompts_id, bundle.captions[:-1], index,
                bundle.candidates, start, cfg,
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


class TestCheckpointIdentity:
    def test_id_deterministic_and_sensitive(self):
        params = init_params(0, (4, 4), 5, 3)
        cfg = tiny_train_config()
        a = make_checkpoint(params, cfg, "pretrained")
        b = make_checkpoint(params.copy(), cfg, "pretrained")
        assert a.id == b.id
        c = make_checkpoint(params, cfg, "finetuned")
        assert c.id != a.id
        params.image.b2[0] += 1e-9
        assert make_checkpoint(params, cfg, "pretrained").id != a.id
