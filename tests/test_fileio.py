"""Codec contracts: round trips, corruption detection, strict configs."""

import json
import struct

import numpy as np
import pytest

from anchorft.anchors import build_candidate_index
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.encoders import init_params
from anchorft.evaluation import ensemble_sweep
from anchorft.fileio import (
    BadMagicError,
    CodecError,
    EMBEDDING_MAGIC,
    FeatureSet,
    HashMismatchError,
    ManifestRecord,
    MissingFieldError,
    RowCountMismatchError,
    UnknownKeyError,
    VersionUnsupportedError,
    load_bundle,
    parse_gen_config,
    parse_train_config,
    read_candidate_index,
    read_checkpoint,
    read_curve_csv,
    read_feature_set,
    read_jsonl,
    read_matrix,
    read_metrics,
    write_bundle,
    write_candidate_index,
    write_checkpoint,
    write_curve_csv,
    write_feature_set,
    write_json,
    write_jsonl,
    write_matrix,
    write_metrics,
)
from anchorft.training import TrainConfig, make_checkpoint, pretrain


def small_bundle(seed=0):
    cfg = GenConfig(
        n_id_classes=3,
        n_zsl_classes=2,
        n_domains=2,
        d_latent=4,
        d_img_raw=6,
        d_txt_raw=7,
        n_pretrain_per_class=4,
        n_finetune_per_class=3,
        n_test_per_class=2,
        candidate_pool_size=12,
        seed=seed,
    )
    return generate_benchmark(cfg)


def sample_feature_set(n=10, d=4, seed=0):
    rng = np.random.default_rng(seed)
    records = [
        ManifestRecord(id=100 + i, kind="image", class_id=i % 3, domain_id=i % 2)
        for i in range(n)
    ]
    return FeatureSet(records=records, matrix=rng.normal(size=(n, d)))


class TestMatrixCodec:
    def test_round_trip_is_float32_exact(self, tmp_path):
        path = tmp_path / "m.arfm"
        matrix = np.random.default_rng(0).normal(size=(5, 3))
        write_matrix(path, matrix)
        back = read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, matrix.astype(np.float32).astype(np.float64))

    def test_embedding_variant_is_lossless(self, tmp_path):
        path = tmp_path / "m.arfi"
        matrix = np.random.default_rng(1).normal(size=(4, 6))
        write_matrix(path, matrix, EMBEDDING_MAGIC)
        assert read_matrix(path, EMBEDDING_MAGIC).tobytes() == matrix.tobytes()

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.arfm"
        write_matrix(path, np.zeros((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(BadMagicError):
            read_matrix(path)

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "m.arfm"
        write_matrix(path, np.zeros((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(VersionUnsupportedError):
            read_matrix(path)

    def test_header_row_tamper(self, tmp_path):
        path = tmp_path / "m.arfm"
        write_matrix(path, np.zeros((10, 3)))
        raw = bytearray(path.read_bytes())
        raw[8:12] = struct.pack("<I", 9)
        path.write_bytes(bytes(raw))
        with pytest.raises(RowCountMismatchError):
            read_matrix(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "m.arfm"
        path.write_bytes(b"ARFM\x01")
        with pytest.raises(CodecError):
            read_matrix(path)

    def test_empty_matrix(self, tmp_path):
        path = tmp_path / "m.arfm"
        write_matrix(path, np.zeros((0, 7)))
        assert read_matrix(path).shape == (0, 7)

    def test_no_temp_files_left(self, tmp_path):
        write_matrix(tmp_path / "m.arfm", np.zeros((2, 2)))
        assert [p.name for p in tmp_path.iterdir()] == ["m.arfm"]

    def test_leftover_tmp_directory_does_not_block_writes(self, tmp_path):
        # Temp files get unique names, so a stale "<name>.tmp" is not in the way.
        (tmp_path / "doc.json.tmp").mkdir()
        write_json(tmp_path / "doc.json", {"a": 1})
        assert json.loads((tmp_path / "doc.json").read_text()) == {"a": 1}
        assert sorted(p.name for p in tmp_path.iterdir()) == ["doc.json", "doc.json.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr("anchorft.fileio.os.replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            write_json(tmp_path / "doc.json", {"a": 1})
        assert list(tmp_path.iterdir()) == []


class TestFeatureSetCodec:
    def test_round_trip(self, tmp_path):
        fs = sample_feature_set()
        write_feature_set(tmp_path / "fs", fs)
        back = read_feature_set(tmp_path / "fs")
        assert back.records == fs.records
        assert np.array_equal(back.matrix, fs.matrix.astype(np.float32).astype(np.float64))

    def test_manifest_key_order(self, tmp_path):
        write_feature_set(tmp_path / "fs", sample_feature_set(n=1))
        line = (tmp_path / "fs.manifest.jsonl").read_text().splitlines()[0]
        assert list(json.loads(line)) == ["id", "class_id", "domain_id", "kind"]

    def test_manifest_vs_matrix_rows(self, tmp_path):
        fs = sample_feature_set(n=10)
        write_feature_set(tmp_path / "fs", fs)
        write_matrix(tmp_path / "fs.arfm", fs.matrix[:9])
        with pytest.raises(RowCountMismatchError):
            read_feature_set(tmp_path / "fs")

    def test_unknown_manifest_key(self, tmp_path):
        write_feature_set(tmp_path / "fs", sample_feature_set(n=2, d=2))
        manifest = tmp_path / "fs.manifest.jsonl"
        lines = manifest.read_text().splitlines()
        doc = json.loads(lines[0])
        doc["surprise"] = 1
        lines[0] = json.dumps(doc)
        manifest.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(UnknownKeyError):
            read_feature_set(tmp_path / "fs")

    def test_missing_id(self, tmp_path):
        write_feature_set(tmp_path / "fs", sample_feature_set(n=1, d=2))
        manifest = tmp_path / "fs.manifest.jsonl"
        manifest.write_text(json.dumps({"kind": "image"}) + "\n")
        with pytest.raises(MissingFieldError):
            read_feature_set(tmp_path / "fs")

    def test_duplicate_ids_rejected(self):
        records = [ManifestRecord(id=1, kind="image"), ManifestRecord(id=1, kind="image")]
        with pytest.raises(ValueError):
            FeatureSet(records=records, matrix=np.zeros((2, 2)))


class TestCheckpointCodec:
    def checkpoint(self, seed=0):
        params = init_params(seed, (6, 7), 8, 4)
        cfg = TrainConfig(batch_size=4, epochs=1, hidden=8, embed_dim=4, seed=seed)
        return make_checkpoint(params, cfg, "pretrained")

    def test_round_trip_bit_identical(self, tmp_path):
        ckpt = self.checkpoint()
        write_checkpoint(tmp_path / "ck.json", ckpt)
        back = read_checkpoint(tmp_path / "ck.json")
        assert back.id == ckpt.id
        assert back.provenance == "pretrained"
        assert back.params.theta.tobytes() == ckpt.params.theta.tobytes()
        assert back.params.dims == ckpt.params.dims

    def test_tampered_weight(self, tmp_path):
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        doc["image"]["w1"][0][0] += 1e-9
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(HashMismatchError):
            read_checkpoint(tmp_path / "ck.json")

    def test_inconsistent_leaf_shapes(self, tmp_path):
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        doc["text"]["b1"] = doc["text"]["b1"][:-1]
        doc["text"]["b2"].append(0.0)
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(CodecError):
            read_checkpoint(tmp_path / "ck.json")

    def test_missing_log_tau(self, tmp_path):
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        del doc["log_tau"]
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(MissingFieldError):
            read_checkpoint(tmp_path / "ck.json")

    def test_unsupported_version(self, tmp_path):
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        doc["version"] = 3
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(VersionUnsupportedError):
            read_checkpoint(tmp_path / "ck.json")


class TestIndexCodec:
    def test_round_trip(self, tmp_path):
        bundle = small_bundle()
        params = init_params(0, (6, 7), 8, 4)
        index = build_candidate_index(params, bundle.candidates)
        write_candidate_index(tmp_path / "idx", index)
        back = read_candidate_index(tmp_path / "idx")
        assert back.candidate_ids == index.candidate_ids
        assert back.image_embeddings.tobytes() == index.image_embeddings.tobytes()
        assert back.text_embeddings.tobytes() == index.text_embeddings.tobytes()
        assert back.source_checkpoint_id == index.source_checkpoint_id

    def test_id_row_mismatch(self, tmp_path):
        bundle = small_bundle()
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), bundle.candidates)
        write_candidate_index(tmp_path / "idx", index)
        meta = json.loads((tmp_path / "idx" / "meta.json").read_text())
        meta["candidate_ids"] = meta["candidate_ids"][:-1]
        (tmp_path / "idx" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(RowCountMismatchError):
            read_candidate_index(tmp_path / "idx")


class TestStrictConfigs:
    def test_unknown_gen_key(self):
        with pytest.raises(UnknownKeyError):
            parse_gen_config({"n_id_classes": 3, "n_clases": 4})

    def test_unknown_train_key(self):
        with pytest.raises(UnknownKeyError):
            parse_train_config({"learning_rte": 1e-4})

    def test_defaults_fill_missing(self):
        config = parse_train_config({"epochs": 3})
        assert config.epochs == 3
        assert config.batch_size == TrainConfig().batch_size

    def test_enabled_losses_list_becomes_tuple(self):
        config = parse_train_config({"enabled_losses": ["cl", "cap"]})
        assert config.enabled_losses == ("cl", "cap")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            parse_train_config({"batch_size": 1})
        with pytest.raises(ValueError):
            parse_gen_config({"n_domains": 0})


class TestBundleCodec:
    def test_round_trip_structure(self, tmp_path):
        bundle = small_bundle()
        write_bundle(tmp_path / "b", bundle)
        back = load_bundle(tmp_path / "b")
        assert back.gen_config == bundle.gen_config
        assert back.id_class_ids == bundle.id_class_ids
        assert back.zsl_class_ids == bundle.zsl_class_ids
        assert [s.id for s in back.finetune] == [s.id for s in bundle.finetune]
        assert [p.id for p in back.pretrain_pool] == [p.id for p in bundle.pretrain_pool]
        assert [c.sample_id for c in back.captions] == [c.sample_id for c in bundle.captions]
        assert sorted(back.ds_tests) == sorted(bundle.ds_tests)
        assert np.allclose(
            back.candidates[3].text_feature, bundle.candidates[3].text_feature, atol=1e-6
        )

    def test_rewrite_is_byte_identical(self, tmp_path):
        bundle = small_bundle()
        write_bundle(tmp_path / "a", bundle)
        write_bundle(tmp_path / "b", bundle)
        for name in sorted(p.name for p in (tmp_path / "a").iterdir()):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_pair_manifest_disagreement(self, tmp_path):
        bundle = small_bundle()
        write_bundle(tmp_path / "b", bundle)
        manifest = tmp_path / "b" / "candidates.text.manifest.jsonl"
        lines = manifest.read_text().splitlines()
        lines[0], lines[1] = lines[1], lines[0]
        manifest.write_text("".join(line + "\n" for line in lines))
        with pytest.raises(CodecError):
            load_bundle(tmp_path / "b")


class TestMetricsAndCurves:
    def curve(self):
        bundle = small_bundle()
        cfg = TrainConfig(batch_size=4, epochs=1, hidden=8, embed_dim=4, seed=0)
        pre = make_checkpoint(init_params(0, (6, 7), 8, 4), cfg, "pretrained")
        ft = make_checkpoint(init_params(1, (6, 7), 8, 4), cfg, "finetuned")
        return ensemble_sweep(pre, ft, [0.0, 0.5, 1.0], bundle), bundle

    def test_metrics_round_trip(self, tmp_path):
        curve, _ = self.curve()
        metrics = curve.rows[0][1]
        write_metrics(tmp_path / "m.json", metrics, checkpoint="abc123")
        doc = read_metrics(tmp_path / "m.json")
        assert doc["checkpoint_id"] == "abc123"
        assert doc["avg_ood"] == metrics.avg_ood
        assert [s["split"] for s in doc["splits"]] == metrics.split_names

    def test_curve_round_trip(self, tmp_path):
        curve, _ = self.curve()
        write_curve_csv(tmp_path / "c.csv", curve)
        header, rows = read_curve_csv(tmp_path / "c.csv")
        assert header == ["alpha", "id", "ds1", "zsl", "avg_ood"]
        assert [r["alpha"] for r in rows] == [0.0, 0.5, 1.0]
        for (alpha, metrics), row in zip(curve.rows, rows):
            assert row["id"] == metrics.accuracy("id")
            assert row["avg_ood"] == metrics.avg_ood

    def test_curve_cell_count_checked(self, tmp_path):
        curve, _ = self.curve()
        write_curve_csv(tmp_path / "c.csv", curve)
        path = tmp_path / "c.csv"
        path.write_text(path.read_text() + "0.9,1.0\n")
        with pytest.raises(RowCountMismatchError):
            read_curve_csv(path)

    def test_jsonl_round_trip(self, tmp_path):
        records = [{"step": 0, "total": 1.5}, {"step": 1, "total": 0.75}]
        write_jsonl(tmp_path / "log.jsonl", records)
        assert read_jsonl(tmp_path / "log.jsonl") == records
