"""Encoder forward/backward checks, including the finite-difference oracle."""

import math

import numpy as np
import pytest

from anchorft.encoders import (
    DEFAULT_LOG_TAU,
    MODALITIES,
    DualEncoderParams,
    _leaf_at,
    _param_count,
    encode_batch,
    encoder_backward_batch,
    init_params,
    param_fingerprint,
)
from anchorft.numerics import NonFiniteError, RandomStream, l2_normalize


def tiny_params(seed=0, img_dim=5, txt_dim=6, hidden=7, embed=4):
    return init_params(seed, (img_dim, txt_dim), hidden, embed)


def encode_row(p, modality, x):
    return encode_batch(p, modality, x)[0][0]


def span(params, modality):
    """The slice of theta that holds one tower's leaves, in layout order."""
    split = sum(leaf.size for leaf in params.tower("image"))
    return slice(0, split) if modality == "image" else slice(split, params.theta.size - 1)


def tower_backward(params, modality, cache, grad_embeddings):
    """One tower's backward over a one-tower encode_batch cache, rows summed.

    The 2-D reference for the pair backward: a gradient over
    theta[span(params, modality)], the leaf gradients in layout order.
    """
    x, h, e, norms = cache
    de = np.asarray(grad_embeddings, dtype=np.float64)
    du = (de - (de * e).sum(axis=1, keepdims=True) * e) / norms[:, None]
    dz1 = (1.0 - h**2) * (du @ params.tower(modality)[2])
    leaves = (dz1.T @ x, dz1.sum(axis=0), du.T @ h, du.sum(axis=0))
    return np.concatenate([leaf.reshape(-1) for leaf in leaves])


def backward_row(p, modality, x, grad_embedding):
    _, cache = encode_batch(p, modality, x)
    return tower_backward(p, modality, cache, np.asarray(grad_embedding)[None, :])


class TestParamLayout:
    def test_leaves_are_views_in_layout_order(self):
        p = tiny_params()
        img, txt, hidden, embed = p.dims
        assert p.theta.shape == (hidden * (img + txt + 2) + 2 * embed * (hidden + 1) + 1,)
        offset = 0
        for leaf in (*p.tower("image"), *p.tower("text")):
            assert np.shares_memory(leaf, p.theta)
            assert np.array_equal(leaf.reshape(-1), p.theta[offset : offset + leaf.size])
            offset += leaf.size
        assert offset == p.theta.size - 1
        assert p.theta[-1] == p.log_tau

    @pytest.mark.parametrize("dims", [(6, 7, 8, 4), (1, 1, 1, 2), (3, 5, 2, 3), (9, 2, 4, 5)])
    def test_leaf_at_names_the_leaf_that_holds_each_position(self, dims):
        # theta holds its own positions, so each leaf view lists the
        # positions it covers; log_tau holds the last.
        size = _param_count(dims)
        theta = np.arange(size, dtype=np.float64)
        theta[-1] = DEFAULT_LOG_TAU
        params = DualEncoderParams(theta, dims)
        owner = {size - 1: "log_tau"}
        for modality in MODALITIES:
            for name, leaf in zip(("w1", "b1", "w2", "b2"), params.tower(modality)):
                owner.update(dict.fromkeys(leaf.ravel().astype(int).tolist(), f"{modality} {name}"))
        assert sorted(owner) == list(range(size))
        assert [_leaf_at(position, dims) for position in range(size)] == [
            owner[position] for position in range(size)
        ]

    @pytest.mark.parametrize("dims", [(6, 7, 8, -1), (0, 7, 8, 4)])
    def test_leaf_at_names_theta_when_dims_lay_out_no_towers(self, dims):
        assert _leaf_at(0, dims) == "theta"

    def test_writes_through_theta_reach_the_leaves(self):
        p = tiny_params()
        p.theta[span(p, "text")] = 0.0
        assert not p.tower("text")[0].any() and not p.tower("text")[3].any()
        assert p.tower("image")[0].any()

    def test_wrong_length_rejected(self):
        p = tiny_params()
        with pytest.raises(ValueError):
            DualEncoderParams(p.theta[:-1], p.dims)

    def test_tau_out_of_band_rejected(self):
        p = tiny_params()
        theta = p.theta.copy()
        theta[-1] = math.log(20.0)
        with pytest.raises(ValueError):
            DualEncoderParams(theta, p.dims)

    def test_copy_is_independent(self):
        p = tiny_params()
        q = p.copy()
        q.tower("image")[0][0, 0] += 1.0
        assert q.tower("image")[0][0, 0] != p.tower("image")[0][0, 0]


class TestInitParams:
    def test_deterministic(self):
        a = tiny_params(3)
        b = tiny_params(3)
        assert a.tower("image")[0].tobytes() == b.tower("image")[0].tobytes()
        assert a.tower("text")[2].tobytes() == b.tower("text")[2].tobytes()

    def test_seeds_differ(self):
        w1_seed0, w1_seed1 = (tiny_params(seed).tower("image")[0] for seed in (0, 1))
        assert not np.array_equal(w1_seed0, w1_seed1)

    def test_biases_zero_and_log_tau_default(self):
        p = tiny_params()
        assert not p.tower("image")[1].any()
        assert not p.tower("text")[3].any()
        assert p.log_tau == DEFAULT_LOG_TAU
        assert abs(p.tau - 0.07) <= 1e-15

    def test_weight_scale_tracks_fan_in(self):
        # 1/sqrt(fan_in) scaling: empirical std of a wide layer is close to it.
        p = init_params(0, (400, 400), 200, 8)
        w1, _, w2, _ = p.tower("image")
        assert abs(w1.std() - 1 / math.sqrt(400)) < 0.01
        assert abs(w2.std() - 1 / math.sqrt(200)) < 0.01

    def test_embed_dim_floor(self):
        with pytest.raises(ValueError):
            init_params(0, (4, 4), 4, 1)


class TestEncodeForward:
    def test_unit_norm(self):
        p = tiny_params()
        e, _ = encode_batch(p, "image", RandomStream(5).normal_matrix(20, 5))
        assert np.max(np.abs(np.linalg.norm(e, axis=1) - 1.0)) <= 1e-12

    def test_constant_tower(self):
        # With w2 = 0 the pre-normalization output is b2 for every input.
        p = tiny_params()
        _, _, w2, b2 = p.tower("image")
        w2[:] = 0.0
        b2[:] = [3.0, 0.0, 4.0, 0.0]
        e = encode_row(p, "image", np.ones(5))
        assert np.allclose(e, [0.6, 0.0, 0.8, 0.0], atol=1e-15)

    def test_one_hidden_unit_by_hand(self):
        # Single hidden unit, x = 0.5: u = (tanh 0.5, tanh 0.5 + 1), normalized.
        # theta: image w1, b1, w2, b2, then text w1, b1, w2, b2, then log_tau.
        theta = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0] + [1.0, 0.0, 1.0, 1.0, 0.0, 0.0] + [DEFAULT_LOG_TAU]
        p = DualEncoderParams(theta, (1, 1, 1, 2))
        t = math.tanh(0.5)
        expected = l2_normalize([t, t + 1.0])
        e = encode_row(p, "image", [0.5])
        assert np.max(np.abs(e - expected)) <= 1e-15

    def test_output_scale_invariance(self):
        # Scaling (w2, b2) jointly rescales u and cancels in the normalization.
        p = tiny_params(2)
        x = RandomStream(0).normals(5)
        base = encode_row(p, "image", x)
        _, _, w2, b2 = p.tower("image")
        w2 *= 3.7
        b2 *= 3.7
        assert np.max(np.abs(encode_row(p, "image", x) - base)) <= 1e-12

    def test_batch_matches_single(self):
        # Different BLAS kernels may reorder the dot sums, so agreement is to
        # rounding, not bitwise.
        p = tiny_params(4)
        xs = RandomStream(1).normal_matrix(6, 5)
        batch, _ = encode_batch(p, "image", xs)
        for i, row in enumerate(xs):
            assert np.max(np.abs(batch[i] - encode_row(p, "image", row))) <= 1e-14

    def test_modalities_have_separate_towers(self):
        p = tiny_params(6, img_dim=5, txt_dim=5)
        x = RandomStream(2).normals(5)
        assert not np.array_equal(encode_row(p, "image", x), encode_row(p, "text", x))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            encode_batch(tiny_params(), "image", np.ones(9))

    def test_unknown_modality(self):
        with pytest.raises(ValueError):
            encode_batch(tiny_params(), "audio", np.ones(5))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_norm_rejected(self):
        p = tiny_params()
        p.tower("image")[2][...] *= 1e300
        with pytest.raises(NonFiniteError):
            encode_batch(p, "image", np.ones(5))


class TestEncoderBackward:
    def test_zero_grad_in_zero_out(self):
        p = tiny_params()
        g = backward_row(p, "image", np.ones(5), np.zeros(4))
        assert g.shape == p.theta[span(p, "image")].shape
        assert not g.any()

    def test_grad_parallel_to_embedding_vanishes(self):
        # A gradient along e is annihilated by (I - e e^T): unit outputs
        # cannot grow along themselves.
        p = tiny_params(8)
        x = RandomStream(3).normals(5)
        e = encode_row(p, "image", x)
        g = backward_row(p, "image", x, 2.5 * e)
        assert np.max(np.abs(g)) <= 1e-12

    def test_batch_backward_sums_rows(self):
        p = tiny_params(9)
        xs = RandomStream(4).normal_matrix(3, 5)
        de = RandomStream(5).normal_matrix(3, 4)
        _, cache = encode_batch(p, "image", xs)
        batch_grads = tower_backward(p, "image", cache, de)
        acc = sum(backward_row(p, "image", row, grad_row) for row, grad_row in zip(xs, de))
        assert np.max(np.abs(batch_grads - acc)) <= 1e-12

    def test_finite_difference_oracle(self):
        # Central differences of J = g_e . e(x) against the analytic backward,
        # element by element, across 20 seeds.
        eps = 1e-5
        for seed in range(20):
            p = tiny_params(seed)
            stream = RandomStream(1000 + seed)
            x = stream.normals(5)
            ge = stream.normals(4)
            analytic = backward_row(p, "image", x, ge)

            def objective() -> float:
                return float(np.dot(ge, encode_row(p, "image", x)))

            tower = p.theta[span(p, "image")]
            for idx in range(tower.size):
                orig = tower[idx]
                tower[idx] = orig + eps
                hi = objective()
                tower[idx] = orig - eps
                lo = objective()
                tower[idx] = orig
                numeric = (hi - lo) / (2 * eps)
                a = analytic[idx]
                if abs(a) > 1e-8:
                    rel = abs(a - numeric) / max(abs(a), abs(numeric))
                    assert rel <= 1e-4, f"seed {seed} image[{idx}]: {rel:.2e}"


class TestPairBackward:
    @pytest.mark.parametrize("terms", [None, 1, 3])
    @pytest.mark.parametrize("widths", [(5, 6), (6, 5), (4, 4)])
    def test_each_tower_is_the_one_tower_forward_and_backward_bitwise(self, terms, widths):
        # Both towers, and every term of a stack, through one call; each
        # tower of each term's embeddings against the one-tower forward, and
        # each span of each term's gradient against the 2-D reference alone.
        p = tiny_params(11, *widths)
        stream = RandomStream(12)
        images = stream.normal_matrix(9, widths[0])
        texts = [stream.normal_matrix(9, widths[1]) for _ in range(terms or 1)]
        e, cache = encode_batch(p, MODALITIES, (images, texts[0] if terms is None else texts))
        de = np.array(RandomStream(13).normals(e.size)).reshape(e.shape)
        de[..., 0, :2, :] = 0.0  # a zero row of an embedding gradient keeps its zeros
        rows = encoder_backward_batch(p, cache, de).reshape(terms or 1, -1)
        f, cache_f = encode_batch(p, "image", images)
        for row, term_texts, term_e, term_de in zip(
            rows, texts, e.reshape(-1, *e.shape[-3:]), de.reshape(-1, *e.shape[-3:])
        ):
            g, cache_g = encode_batch(p, "text", term_texts)
            assert term_e[0].tobytes() == f.tobytes()
            assert term_e[1].tobytes() == g.tobytes()
            assert row[span(p, "image")].tobytes() == tower_backward(
                p, "image", cache_f, term_de[0]
            ).tobytes()
            assert row[span(p, "text")].tobytes() == tower_backward(
                p, "text", cache_g, term_de[1]
            ).tobytes()
            assert row[-1:].tobytes() == np.zeros(1).tobytes()

    def test_gradient_shape_must_match_the_embeddings(self):
        p = tiny_params()
        _, cache = encode_batch(p, MODALITIES, (np.ones((2, 5)), np.ones((2, 6))))
        with pytest.raises(ValueError, match="must match the cached embeddings"):
            encoder_backward_batch(p, cache, np.zeros((2, 3, 4)))


class TestParamFingerprint:
    def test_stable_and_sensitive(self):
        p = tiny_params(1)
        q = tiny_params(1)
        assert param_fingerprint(p) == param_fingerprint(q)
        q.tower("text")[3][0] += 1e-12
        assert param_fingerprint(p) != param_fingerprint(q)

    def test_log_tau_included(self):
        p = tiny_params(1)
        q = tiny_params(1)
        q.theta[-1] += 1e-9
        assert param_fingerprint(p) != param_fingerprint(q)

    def test_copy_preserves_fingerprint(self):
        p = tiny_params(2)
        assert param_fingerprint(p.copy()) == param_fingerprint(p)
