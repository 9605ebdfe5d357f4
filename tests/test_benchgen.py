"""Generator checks: determinism, class coverage, rotations, captions."""

import numpy as np
import pytest

from anchorft.benchgen import (
    GenConfig,
    SynthCaptionProvider,
    generate_benchmark,
    random_rotation,
)


def small_config(**overrides) -> GenConfig:
    base = dict(
        n_id_classes=3,
        n_zsl_classes=2,
        n_domains=2,
        d_latent=5,
        d_img_raw=8,
        d_txt_raw=7,
        n_pretrain_per_class=4,
        n_finetune_per_class=3,
        n_test_per_class=2,
        candidate_pool_size=11,
        seed=0,
    )
    base.update(overrides)
    return GenConfig(**base)


class TestRandomRotation:
    def test_orthogonal(self):
        for seed in range(5):
            r = random_rotation(seed, 12)
            assert np.max(np.abs(r.T @ r - np.eye(12))) <= 1e-10

    def test_preserves_norms(self):
        r = random_rotation(3, 9)
        from anchorft.numerics import RandomStream

        for _ in range(10):
            x = RandomStream(5).normals(9)
            assert abs(np.linalg.norm(r @ x) - np.linalg.norm(x)) <= 1e-10

    def test_deterministic(self):
        assert random_rotation(7, 6).tobytes() == random_rotation(7, 6).tobytes()

    def test_seeds_differ(self):
        assert not np.array_equal(random_rotation(0, 6), random_rotation(1, 6))

    def test_dim_one(self):
        r = random_rotation(0, 1)
        assert r.shape == (1, 1) and abs(abs(r[0, 0]) - 1.0) <= 1e-12


class TestGenConfig:
    def test_latent_must_fit(self):
        with pytest.raises(ValueError):
            small_config(d_latent=9).validate()

    def test_pool_must_cover_classes(self):
        with pytest.raises(ValueError):
            small_config(candidate_pool_size=4).validate()

    def test_contexts_must_fit_bank(self):
        with pytest.raises(ValueError):
            small_config(contexts_per_sample=99).validate()

    def test_default_config_is_valid(self):
        GenConfig().validate()


class TestGenerateBenchmark:
    def test_class_sets_disjoint(self):
        bundle = generate_benchmark(small_config())
        assert not set(bundle.id_class_ids) & set(bundle.zsl_class_ids)

    def test_split_sizes(self):
        cfg = small_config()
        bundle = generate_benchmark(cfg)
        n_classes = cfg.n_id_classes + cfg.n_zsl_classes
        assert len(bundle.pretrain_pool) == n_classes * cfg.n_domains * cfg.n_pretrain_per_class
        assert len(bundle.finetune) == cfg.n_id_classes * cfg.n_finetune_per_class
        assert len(bundle.captions) == len(bundle.finetune)
        assert len(bundle.candidates) == cfg.candidate_pool_size
        assert len(bundle.id_test) == cfg.n_id_classes * cfg.n_test_per_class
        assert sorted(bundle.ds_tests) == list(range(1, cfg.n_domains))
        assert len(bundle.zsl_test) == cfg.n_zsl_classes * cfg.n_test_per_class

    def test_finetune_split_is_domain_zero_seen_classes(self):
        bundle = generate_benchmark(small_config())
        assert all(s.domain_id == 0 for s in bundle.finetune)
        assert set(s.class_id for s in bundle.finetune) <= set(bundle.id_class_ids)

    def test_prompts_are_unit_lifts_without_offset(self):
        # With the template offset silenced, prompt rows are isometric lifts
        # of the unit prototypes, so every row must have norm exactly 1.
        bundle = generate_benchmark(small_config(template_offset_scale=0.0))
        rows = np.vstack(
            [bundle.prompts_id.prompt_features, bundle.prompts_zsl.prompt_features]
        )
        assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, atol=1e-12)

    def test_candidate_pool_covers_every_class(self):
        # Round-robin assigns classes first, so a pool of exactly n_classes
        # still holds one candidate per class.
        cfg = small_config(candidate_pool_size=5)
        bundle = generate_benchmark(cfg)
        all_ids = bundle.id_class_ids + bundle.zsl_class_ids
        assert len(bundle.candidates) == len(all_ids)

    def test_ids_globally_unique(self):
        bundle = generate_benchmark(small_config())
        ids = (
            [p.id for p in bundle.pretrain_pool]
            + [s.id for s in bundle.finetune]
            + [c.id for c in bundle.candidates]
            + [s.id for s in bundle.id_test]
            + [s.id for split in bundle.ds_tests.values() for s in split]
            + [s.id for s in bundle.zsl_test]
        )
        assert len(ids) == len(set(ids))

    def test_deterministic_bundles(self):
        a = generate_benchmark(small_config())
        b = generate_benchmark(small_config())
        assert a.finetune[5].feature.tobytes() == b.finetune[5].feature.tobytes()
        assert a.candidates[3].text_feature.tobytes() == b.candidates[3].text_feature.tobytes()
        assert a.prompts_id.prompt_features.tobytes() == b.prompts_id.prompt_features.tobytes()
        assert a.zsl_test[0].feature.tobytes() == b.zsl_test[0].feature.tobytes()

    def test_seed_changes_everything(self):
        a = generate_benchmark(small_config(seed=0))
        b = generate_benchmark(small_config(seed=1))
        assert not np.array_equal(a.finetune[0].feature, b.finetune[0].feature)
        assert not np.array_equal(a.prompts_id.prompt_features, b.prompts_id.prompt_features)

    def test_prompt_tables_match_class_lists(self):
        bundle = generate_benchmark(small_config())
        assert bundle.prompts_id.class_ids == bundle.id_class_ids
        assert bundle.prompts_zsl.class_ids == bundle.zsl_class_ids

    def test_domain_rotations_preserve_feature_norms(self):
        # Same class and noise scale in every domain; rotations keep the
        # expected norm, so per-domain mean norms should be close.
        cfg = small_config(n_pretrain_per_class=50, n_domains=3, sigma_img=0.1)
        bundle = generate_benchmark(cfg)
        norms = {d: [] for d in range(cfg.n_domains)}
        per_domain = cfg.n_pretrain_per_class
        i = 0
        for _class in range(cfg.n_id_classes + cfg.n_zsl_classes):
            for d in range(cfg.n_domains):
                for _ in range(per_domain):
                    norms[d].append(np.linalg.norm(bundle.pretrain_pool[i].image_feature))
                    i += 1
        means = [np.mean(norms[d]) for d in range(cfg.n_domains)]
        assert max(means) - min(means) <= 0.05

    def test_caption_differs_from_prompt(self):
        # Captions carry context and noise; they must not collapse onto the
        # class prompts, otherwise the caption anchors would be vacuous.
        bundle = generate_benchmark(small_config())
        for sample, record in zip(bundle.finetune, bundle.captions):
            prompt = bundle.prompts_id.feature_for(sample.class_id)
            assert np.linalg.norm(record.caption_feature - prompt) > 1e-3

    def test_image_and_caption_share_latent_content(self):
        # Both sides lift the identical latent point through isometries, so
        # with the noise knobs off their norms agree exactly even though the
        # raw spaces have different widths.
        cfg = small_config(sigma_img=0.0, sigma_txt=0.0)
        bundle = generate_benchmark(cfg)
        for pair in bundle.pretrain_pool:
            assert abs(
                np.linalg.norm(pair.image_feature) - np.linalg.norm(pair.text_feature)
            ) <= 1e-12
        for sample, record in zip(bundle.finetune, bundle.captions):
            assert abs(
                np.linalg.norm(sample.feature) - np.linalg.norm(record.caption_feature)
            ) <= 1e-12


class TestSynthCaptionProvider:
    def test_direct_provider_calls_are_deterministic(self):
        provider = SynthCaptionProvider(
            seed=5,
            latent_prototypes={0: np.ones(4), 1: -np.ones(4)},
            context_bank=np.eye(4),
            m_txt=np.eye(6)[:, :4],
            strength=0.3,
            contexts_per_sample=2,
            sigma_txt=0.1,
        )
        a = provider.caption_feature(17, 1)
        b = provider.caption_feature(17, 1)
        assert a.tobytes() == b.tobytes()
        assert not np.array_equal(a, provider.caption_feature(18, 1))

    def test_context_mix_sums_distinct_bank_rows(self):
        # With an identity bank the mix of k picks must be a 0/1 vector with
        # exactly k ones: a sum over distinct rows, never a repeat or an
        # average.
        provider = SynthCaptionProvider(
            seed=11,
            latent_prototypes={0: np.zeros(6)},
            context_bank=np.eye(6),
            m_txt=np.eye(6),
            strength=1.0,
            contexts_per_sample=3,
            sigma_txt=0.0,
        )
        for entity_id in range(20):
            mix = provider.context_mix(entity_id)
            assert set(np.unique(mix)) <= {0.0, 1.0}
            assert int(mix.sum()) == 3

    def test_deterministic_per_id(self):
        bundle = generate_benchmark(small_config())
        a = bundle.captions[0].caption_feature
        regenerated = generate_benchmark(small_config()).captions[0].caption_feature
        assert a.tobytes() == regenerated.tobytes()

    def test_zero_knobs_reduce_to_class_lift(self):
        # With no context and no noise the caption is exactly the lifted
        # class center (prompt minus its template offset).
        cfg = small_config(context_strength=0.0, sigma_txt=0.0)
        bundle = generate_benchmark(cfg)
        sample = bundle.finetune[0]
        caption = bundle.captions[0].caption_feature
        regen = generate_benchmark(small_config(context_strength=0.0, sigma_txt=0.0))
        assert caption.tobytes() == regen.captions[0].caption_feature.tobytes()
        # Same class center reappears in every caption of the class.
        same_class = [
            r.caption_feature
            for s, r in zip(bundle.finetune, bundle.captions)
            if s.class_id == sample.class_id
        ]
        for other in same_class[1:]:
            assert np.array_equal(caption, other)

    def test_context_mean_shift_is_positive(self):
        # Context vectors are added, never subtracted: the mean caption sits
        # strictly away from the bare class lift when strength > 0.
        cfg = small_config(sigma_txt=0.0, context_strength=0.5)
        zero = generate_benchmark(small_config(sigma_txt=0.0, context_strength=0.0))
        rich = generate_benchmark(cfg)
        diffs = [
            np.linalg.norm(a.caption_feature - b.caption_feature)
            for a, b in zip(rich.captions, zero.captions)
        ]
        assert min(diffs) > 0.1
