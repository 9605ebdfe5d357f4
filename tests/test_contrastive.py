"""Pair-loss checks against closed forms and a naive softmax oracle."""

import math

import numpy as np
import pytest

import anchorft.training as training
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.contrastive import PairBatch, contrastive_loss, contrastive_loss_and_grads
from anchorft.encoders import init_params
from anchorft.numerics import RandomStream, l2_normalize
from anchorft.training import TrainConfig, check_gradients, finetune_batcher


def unit_rows(seed: int, n: int, d: int) -> np.ndarray:
    stream = RandomStream(seed)
    return np.stack([l2_normalize(stream.normals(d)) for _ in range(n)])


def random_batch(seed: int, n: int = 5, d: int = 6) -> PairBatch:
    return PairBatch(unit_rows(seed, n, d), unit_rows(seed + 1000, n, d))


def naive_cross_entropy(f: np.ndarray, g: np.ndarray, tau: float) -> float:
    # Direct exp/sum evaluation, no max subtraction: an independent route
    # that is safe because unit rows keep |S| <= 1/tau.
    s = f @ g.T / tau
    b = s.shape[0]
    i2t = -sum(math.log(math.exp(s[i, i]) / sum(math.exp(v) for v in s[i])) for i in range(b))
    t2i = -sum(
        math.log(math.exp(s[i, i]) / sum(math.exp(s[j, i]) for j in range(b))) for i in range(b)
    )
    return (i2t + t2i) / b


class TestContrastiveLoss:
    def test_single_pair_is_zero(self):
        batch = random_batch(0, n=1)
        loss = contrastive_loss(batch, 0.07)
        assert abs(loss.total) <= 1e-12

    def test_two_matched_orthonormal_pairs(self):
        # S/tau = I at tau = 1; both directions give mean -log(e/(e+1)).
        eye = np.eye(2)
        loss = contrastive_loss(PairBatch(eye, eye.copy()), 1.0)
        expected = 2 * math.log(1 + math.exp(-1))
        assert abs(loss.total - expected) <= 1e-12
        assert abs(loss.image_to_text - loss.text_to_image) <= 1e-12

    def test_matches_naive_oracle(self):
        for seed in range(30):
            batch = random_batch(seed, n=4 + seed % 4, d=5)
            tau = 0.5 + 0.1 * (seed % 7)
            ours = contrastive_loss(batch, tau).total
            oracle = naive_cross_entropy(
                batch.image_embeddings, batch.text_embeddings, tau
            )
            assert abs(ours - oracle) <= 1e-10, f"seed {seed}"

    def test_total_is_sum_of_directions(self):
        loss = contrastive_loss(random_batch(3), 0.07)
        assert abs(loss.total - (loss.image_to_text + loss.text_to_image)) <= 1e-12

    def test_nonnegative(self):
        for seed in range(25):
            loss = contrastive_loss(random_batch(seed, n=2 + seed % 5), 0.07)
            assert loss.total >= -1e-12
            assert loss.image_to_text >= -1e-12

    def test_swap_sides_swaps_directions(self):
        batch = random_batch(9)
        fwd = contrastive_loss(batch, 0.3)
        swapped = contrastive_loss(
            PairBatch(batch.text_embeddings, batch.image_embeddings), 0.3
        )
        assert abs(fwd.image_to_text - swapped.text_to_image) <= 1e-12
        assert abs(fwd.total - swapped.total) <= 1e-12

    def test_joint_rotation_invariance(self):
        # Similarities depend only on dot products, so a shared orthogonal
        # map of both sides leaves the loss unchanged.
        from anchorft.benchgen import random_rotation

        batch = random_batch(11, n=5, d=6)
        rot = random_rotation(5, 6)
        rotated = PairBatch(batch.image_embeddings @ rot, batch.text_embeddings @ rot)
        assert abs(
            contrastive_loss(batch, 0.07).total - contrastive_loss(rotated, 0.07).total
        ) <= 1e-9

    def test_batch_permutation_invariance(self):
        batch = random_batch(13, n=6)
        perm = RandomStream(1).permutation(6)
        shuffled = PairBatch(batch.image_embeddings[perm], batch.text_embeddings[perm])
        assert abs(
            contrastive_loss(batch, 0.07).total - contrastive_loss(shuffled, 0.07).total
        ) <= 1e-12

    def test_tau_must_be_positive(self):
        with pytest.raises(ValueError):
            contrastive_loss(random_batch(0), 0.0)

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ValueError):
            PairBatch(2.0 * np.eye(3), np.eye(3))

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            PairBatch(np.eye(3), np.eye(4))


class TestContrastiveGrads:
    def test_single_pair_zero_grads(self):
        batch = random_batch(0, n=1)
        _, df, dg, _ = contrastive_loss_and_grads(batch, 0.07)
        assert not df.any() and not dg.any()

    def test_identical_sides_give_identical_grads(self):
        # F = G makes S symmetric, so the row and column softmaxes are
        # transposes and both sides receive the same gradient.
        f = unit_rows(7, 4, 5)
        _, df, dg, _ = contrastive_loss_and_grads(PairBatch(f, f.copy()), 0.07)
        assert np.max(np.abs(df - dg)) <= 1e-12

    def test_embedding_gradients_match_finite_differences(self):
        eps = 1e-6
        batch = random_batch(21, n=3, d=4)
        tau = 0.2
        _, df, dg, _ = contrastive_loss_and_grads(batch, tau)
        f = batch.image_embeddings.copy()
        g = batch.text_embeddings.copy()
        # Perturbing an entry breaks the unit-row property, so differences
        # are taken on a raw objective that skips batch validation.
        for i in range(f.shape[0]):
            for j in range(f.shape[1]):
                for side, grad in ((0, df), (1, dg)):
                    mats = [f.copy(), g.copy()]
                    mats[side][i, j] += eps
                    hi = _raw_loss(mats[0], mats[1], tau)
                    mats = [f.copy(), g.copy()]
                    mats[side][i, j] -= eps
                    lo = _raw_loss(mats[0], mats[1], tau)
                    numeric = (hi - lo) / (2 * eps)
                    assert abs(grad[i, j] - numeric) <= 1e-6

    def test_log_tau_gradient_matches_finite_differences(self):
        batch = random_batch(5, n=4, d=5)
        log_tau = math.log(0.4)
        _, _, _, dlog = contrastive_loss_and_grads(batch, math.exp(log_tau))
        eps = 1e-6
        hi = contrastive_loss(batch, math.exp(log_tau + eps)).total
        lo = contrastive_loss(batch, math.exp(log_tau - eps)).total
        assert abs(dlog - (hi - lo) / (2 * eps)) <= 1e-6


def _raw_loss(f: np.ndarray, g: np.ndarray, tau: float) -> float:
    # Same objective without the unit-row validation, for finite differences.
    s = f @ g.T / tau
    b = s.shape[0]
    total = 0.0
    for i in range(b):
        total -= s[i, i] - math.log(sum(math.exp(v) for v in s[i]))
        total -= s[i, i] - math.log(sum(math.exp(s[j, i]) for j in range(b)))
    return total / b


def pair_term_problem(seed: int):
    """Generated images paired with their class prompts, the pair term alone."""
    bundle = generate_benchmark(
        GenConfig(
            n_id_classes=4, n_zsl_classes=2, n_domains=1, d_latent=6, d_img_raw=6,
            d_txt_raw=7, n_pretrain_per_class=1, n_finetune_per_class=4,
            n_test_per_class=1, candidate_pool_size=6, seed=seed,
        )
    )
    config = TrainConfig(
        hidden=8, embed_dim=4, seed=seed, enabled_losses=("cl",), tau_trainable=True
    )
    params = init_params(seed, (6, 7), config.hidden, config.embed_dim)
    batch_inputs = finetune_batcher(
        bundle.finetune[:4], bundle.prompts_id, bundle.captions, None, None, params, config
    )
    return (params, *batch_inputs(np.arange(4)), config)


class TestGradCheck:
    # The training objective's finite-difference checker, on the pair term.
    def test_passes_on_clean_gradients(self):
        report = check_gradients(*pair_term_problem(0))
        assert report.passed
        assert report.max_rel_err <= 1e-4
        assert report.n_checked > 50
        assert report.eps == 1e-5

    def test_fails_when_corrupted(self, monkeypatch):
        def corrupted(batch, tau):
            loss, df, dg, dlog_tau = contrastive_loss_and_grads(batch, tau)
            df[0, 0] += 1e-2
            return loss, df, dg, dlog_tau

        monkeypatch.setattr(training, "contrastive_loss_and_grads", corrupted)
        report = check_gradients(*pair_term_problem(0))
        assert not report.passed

    def test_deterministic(self):
        assert check_gradients(*pair_term_problem(3)) == check_gradients(*pair_term_problem(3))
