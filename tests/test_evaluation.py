"""Prompt classification, split metrics, and weight-ensemble checks."""

from types import SimpleNamespace

import numpy as np
import pytest

import anchorft.anchors as anchors
import anchorft.evaluation as evaluation
from anchorft.anchors import PromptTable, SampleSet, lookup_rows
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.encoders import encode_batch, init_params
from anchorft.evaluation import (
    EmptySplitError,
    best_alpha,
    build_prompt_classifier,
    classify,
    ensemble_sweep,
    ensemble_weights,
    evaluate_splits,
)
from anchorft.training import make_checkpoint, TrainConfig


def tiny_bundle(seed=0, n_domains=3):
    cfg = GenConfig(
        n_id_classes=3,
        n_zsl_classes=2,
        n_domains=n_domains,
        d_latent=4,
        d_img_raw=6,
        d_txt_raw=7,
        n_pretrain_per_class=4,
        n_finetune_per_class=3,
        n_test_per_class=5,
        candidate_pool_size=12,
        seed=seed,
    )
    return generate_benchmark(cfg)


def tiny_params(seed=0, dims=(6, 7)):
    return init_params(seed, dims, 10, 5)


def oracle_predict(sims_row, ids):
    """Scan for the max score, lowest id on exact ties."""
    best_id, best_score = None, -np.inf
    for j, class_id in enumerate(ids):
        score = sims_row[j]
        if score > best_score or (score == best_score and class_id < best_id):
            best_id, best_score = class_id, score
    return best_id


class TestPromptTable:
    def test_feature_lookup(self):
        rows = np.arange(6.0).reshape(3, 2)
        table = PromptTable(class_ids=[4, 1, 9], prompt_features=rows)
        assert table.class_ids.dtype == np.int64
        got = table.prompt_features[lookup_rows(table.class_ids, [1, 9])]
        assert np.array_equal(got, rows[[1, 2]])

    def test_row_count_mismatch(self):
        with pytest.raises(ValueError):
            PromptTable(class_ids=[0, 1], prompt_features=np.zeros((3, 2)))

    def test_duplicate_ids(self):
        with pytest.raises(ValueError):
            PromptTable(class_ids=[2, 2], prompt_features=np.zeros((2, 4)))


class TestClassify:
    def test_rows_follow_table_order(self):
        params = tiny_params()
        table = PromptTable([5, 2, 8], np.arange(21.0).reshape(3, 7) + 1)
        classifier = build_prompt_classifier(params, table)
        single, _ = encode_batch(params, "text", table.prompt_features[1:2])
        assert np.allclose(classifier[1], single[0], atol=1e-14)

    def test_matches_scan_oracle(self):
        params = tiny_params()
        rng = np.random.default_rng(3)
        images = rng.normal(size=(40, 6))
        classifier = rng.normal(size=(9, 5))
        ids = [3, 1, 4, 15, 9, 2, 6, 5, 30]
        preds = classify(params, images, classifier, ids)
        embeddings, _ = encode_batch(params, "image", images)
        order = np.argsort(ids)
        sims = embeddings @ classifier[order].T
        sorted_ids = [ids[i] for i in order]
        for row, pred in zip(sims, preds):
            assert pred == oracle_predict(row, sorted_ids)

    def test_tie_goes_to_lowest_id(self):
        # Classes 7 and 3 share one classifier row bitwise; every tie must
        # resolve to 3 even though 7 is listed first.
        params = tiny_params()
        rng = np.random.default_rng(5)
        shared = rng.normal(size=5)
        classifier = np.stack([shared, rng.normal(size=5), shared])
        ids = [7, 50, 3]
        preds = classify(params, rng.normal(size=(30, 6)), classifier, ids)
        assert 7 not in preds
        assert 3 in preds

    def test_scale_invariance(self):
        params = tiny_params()
        rng = np.random.default_rng(11)
        images = rng.normal(size=(20, 6))
        classifier = rng.normal(size=(4, 5))
        ids = [0, 1, 2, 3]
        base = classify(params, images, classifier, ids)
        scaled = classify(params, images, 7.3 * classifier, ids)
        assert np.array_equal(base, scaled)

    def test_row_blocks_give_the_one_block_predictions(self, monkeypatch):
        # Four rows per score block (three blocks plus two rows) predicts
        # byte for byte what one block does.
        params = tiny_params()
        rng = np.random.default_rng(13)
        images = rng.normal(size=(14, 6))
        classifier = rng.normal(size=(5, 5))
        ids = [8, 2, 6, 4, 0]
        whole = classify(params, images, classifier, ids)
        monkeypatch.setattr(anchors, "_SCORE_BLOCK_ENTRIES", 4 * len(ids))
        assert classify(params, images, classifier, ids).tobytes() == whole.tobytes()

    def test_shape_and_id_validation(self):
        params = tiny_params()
        images = np.zeros((2, 6))
        with pytest.raises(ValueError):
            classify(params, images, np.zeros((3, 5)), [0, 1])
        with pytest.raises(ValueError):
            classify(params, images, np.zeros((2, 5)), [4, 4])


class TestEvaluateSplits:
    def test_fixed_split_order(self):
        bundle = tiny_bundle(n_domains=3)
        params = tiny_params()
        metrics = evaluate_splits(params, bundle, ("zsl", "id", "ds"))
        assert metrics.split_names == ["id", "ds1", "ds2", "zsl"]

    def test_avg_ood_is_unweighted_mean(self):
        bundle = tiny_bundle(n_domains=3)
        metrics = evaluate_splits(tiny_params(), bundle)
        ood = [r.accuracy_percent for r in metrics.splits if r.split_name != "id"]
        assert abs(metrics.avg_ood - np.mean(ood)) <= 1e-12

    def test_id_only_has_no_ood(self):
        bundle = tiny_bundle()
        metrics = evaluate_splits(tiny_params(), bundle, ("id",))
        assert metrics.split_names == ["id"]
        assert metrics.avg_ood is None

    def test_perfect_when_images_equal_prompts(self):
        # Shared towers plus image features copied from the prompts give
        # self-similarity 1 per class, so ID accuracy is exactly 100.
        params = tiny_params(dims=(7, 7))
        for text_leaf, image_leaf in zip(params.tower("text"), params.tower("image")):
            text_leaf[...] = image_leaf
        rng = np.random.default_rng(8)
        prompts = PromptTable([0, 1, 2], rng.normal(size=(3, 7)))
        classes = np.arange(9) % 3
        id_test = SampleSet(np.arange(9), prompts.prompt_features[classes], classes, np.zeros(9))
        bundle = SimpleNamespace(
            id_test=id_test, ds_tests={}, zsl_test=[], prompts_id=prompts, prompts_zsl=None
        )
        metrics = evaluate_splits(params, bundle, ("id",))
        assert metrics.accuracy("id") == 100.0

    def test_each_prompt_table_is_encoded_once(self, monkeypatch):
        # id and the three ds splits share one seen-class classifier; the
        # accuracies are those of a classifier encoded per split.
        bundle = tiny_bundle()
        params = tiny_params()
        encoded = []
        real_build = evaluation.build_prompt_classifier

        def counted_build(params, prompts):
            encoded.append(prompts)
            return real_build(params, prompts)

        monkeypatch.setattr(evaluation, "build_prompt_classifier", counted_build)
        metrics = evaluate_splits(params, bundle)
        assert encoded == [bundle.prompts_id, bundle.prompts_zsl]

        def accuracy(samples, prompts):
            classifier = build_prompt_classifier(params, prompts)
            predictions = classify(params, samples.features, classifier, prompts.class_ids)
            return 100.0 * int(np.sum(predictions == samples.class_ids)) / len(samples)

        assert [r.accuracy_percent for r in metrics.splits] == [
            accuracy(bundle.id_test, bundle.prompts_id),
            *(accuracy(bundle.ds_tests[d], bundle.prompts_id) for d in sorted(bundle.ds_tests)),
            accuracy(bundle.zsl_test, bundle.prompts_zsl),
        ]

    def test_unknown_split_rejected(self):
        with pytest.raises(ValueError):
            evaluate_splits(tiny_params(), tiny_bundle(), ("id", "ood"))

    def test_empty_split_list_rejected(self):
        with pytest.raises(ValueError, match="need at least one split"):
            evaluate_splits(tiny_params(), tiny_bundle(), [])

    def test_empty_split_raises(self):
        bundle = tiny_bundle()
        hollow = SimpleNamespace(
            id_test=[],
            ds_tests=bundle.ds_tests,
            zsl_test=bundle.zsl_test,
            prompts_id=bundle.prompts_id,
            prompts_zsl=bundle.prompts_zsl,
        )
        with pytest.raises(EmptySplitError):
            evaluate_splits(tiny_params(), hollow, ("id",))

    def test_default_splits_are_the_bundles_own(self):
        params = tiny_params()
        assert evaluate_splits(params, tiny_bundle()).split_names == ["id", "ds1", "ds2", "zsl"]
        one_domain = tiny_bundle(n_domains=1)
        assert evaluate_splits(params, one_domain).split_names == ["id", "zsl"]
        with pytest.raises(EmptySplitError, match="no domain-shift splits"):
            evaluate_splits(params, one_domain, ("ds",))

    def test_zsl_label_space_default_vs_strict(self):
        bundle = tiny_bundle()
        params = tiny_params()
        preds = classify(
            params,
            bundle.zsl_test.features,
            build_prompt_classifier(params, bundle.prompts_zsl),
            bundle.prompts_zsl.class_ids,
        )
        assert set(preds.tolist()) <= set(bundle.prompts_zsl.class_ids)
        default = evaluate_splits(params, bundle, ("zsl",)).accuracy("zsl")
        strict = evaluate_splits(params, bundle, ("zsl",), zsl_strict=True).accuracy("zsl")
        assert strict <= default

    def test_metrics_accessors(self):
        metrics = evaluate_splits(tiny_params(), tiny_bundle())
        with pytest.raises(KeyError):
            metrics.accuracy("nope")
        payload = metrics.to_dict()
        assert [row["split"] for row in payload["splits"]] == metrics.split_names
        assert payload["avg_ood"] == metrics.avg_ood


def two_checkpoints():
    cfg = TrainConfig(batch_size=4, epochs=1, hidden=10, embed_dim=5, seed=0)
    pre = make_checkpoint(tiny_params(seed=0), cfg, "pretrained")
    ft = make_checkpoint(tiny_params(seed=1), cfg, "finetuned")
    return pre, ft


class TestEnsembleWeights:
    def test_endpoints_are_exact_copies(self):
        pre, ft = two_checkpoints()
        at0 = ensemble_weights(pre, ft, 0.0)
        at1 = ensemble_weights(pre, ft, 1.0)
        assert at0.tower("image")[0].tobytes() == pre.params.tower("image")[0].tobytes()
        assert at1.tower("text")[3].tobytes() == ft.params.tower("text")[3].tobytes()
        assert at0.log_tau == pre.params.log_tau
        at0.tower("image")[0][0, 0] += 1.0
        assert at0.tower("image")[0][0, 0] != pre.params.tower("image")[0][0, 0]

    def test_midpoint_blend(self):
        pre, ft = two_checkpoints()
        mid = ensemble_weights(pre, ft, 0.5)
        expected = 0.5 * (pre.params.tower("image")[0] + ft.params.tower("image")[0])
        assert np.allclose(mid.tower("image")[0], expected, atol=1e-15)
        assert mid.log_tau == 0.5 * pre.params.log_tau + 0.5 * ft.params.log_tau

    def test_alpha_bounds(self):
        pre, ft = two_checkpoints()
        for bad in (-0.1, 1.5):
            with pytest.raises(ValueError):
                ensemble_weights(pre, ft, bad)

    def test_shape_mismatch(self):
        pre, _ = two_checkpoints()
        cfg = TrainConfig(batch_size=4, epochs=1, hidden=9, embed_dim=5, seed=0)
        other = make_checkpoint(init_params(2, (6, 7), 9, 5), cfg, "finetuned")
        with pytest.raises(ValueError):
            ensemble_weights(pre, other, 0.5)


class TestEnsembleSweep:
    def test_endpoints_match_direct_eval(self):
        pre, ft = two_checkpoints()
        bundle = tiny_bundle()
        curve = ensemble_sweep(pre, ft, [0.0, 0.5, 1.0], bundle)
        assert [alpha for alpha, _ in curve.rows] == [0.0, 0.5, 1.0]
        direct = evaluate_splits(pre.params, bundle)
        assert curve.rows[0][1].to_dict() == direct.to_dict()
        direct_ft = evaluate_splits(ft.params, bundle)
        assert curve.rows[-1][1].to_dict() == direct_ft.to_dict()
        assert curve.best_id_alpha in [alpha for alpha, _ in curve.rows]

    def test_tied_id_accuracy_prefers_smaller_alpha(self):
        pre, _ = two_checkpoints()
        cfg = TrainConfig(batch_size=4, epochs=1, hidden=10, embed_dim=5, seed=0)
        clone = make_checkpoint(pre.params.copy(), cfg, "finetuned")
        curve = ensemble_sweep(pre, clone, [0.0, 0.5, 1.0], tiny_bundle())
        assert curve.best_id_alpha == 0.0

    def test_best_alpha_takes_top_id_accuracy_then_smaller_alpha(self):
        assert best_alpha([0.0, 0.5, 1.0], [80.0, 90.0, 85.0]) == 0.5
        assert best_alpha([0.0, 0.5, 1.0], [80.0, 90.0, 90.0]) == 0.5
        assert best_alpha([1.0, 0.25, 0.5], [70.0, 70.0, 70.0]) == 0.25

    def test_alpha_validation(self):
        pre, ft = two_checkpoints()
        bundle = tiny_bundle()
        with pytest.raises(ValueError):
            ensemble_sweep(pre, ft, [], bundle)
        with pytest.raises(ValueError):
            ensemble_sweep(pre, ft, [0.0, 0.5, 0.5], bundle)
        with pytest.raises(ValueError):
            ensemble_sweep(pre, ft, [0.0, 1.0], bundle, splits=("zsl",))
