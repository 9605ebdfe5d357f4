"""Codec contracts: round trips, corruption detection, strict configs."""

import dataclasses
import json
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorft import fileio
from anchorft.anchors import build_candidate_index
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.encoders import EncoderParams, init_params
from anchorft.evaluation import ensemble_sweep
from anchorft.fileio import (
    BadMagicError,
    BundleReader,
    CodecError,
    EMBEDDING_MAGIC,
    FieldTypeError,
    HashMismatchError,
    MissingFieldError,
    RowCountMismatchError,
    UnknownKeyError,
    VersionUnsupportedError,
    WidthMismatchError,
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
    """(ids, class_ids, domain_ids, matrix) columns of an "image" feature set."""
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    return 100 + rows, rows % 3, rows % 2, rng.normal(size=(n, d))


def write_sample_feature_set(stem, n=10, d=4):
    ids, class_ids, domain_ids, matrix = sample_feature_set(n, d)
    write_feature_set(stem, "image", ids, matrix, class_ids, domain_ids)
    return ids, class_ids, domain_ids, matrix


def edit_one_byte(path, edit, byte, data):
    """Flip (xor with byte), delete or insert byte at a drawn offset of the file."""
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")), label="at")
    if edit == "flip":
        raw[at] ^= byte
    elif edit == "delete":
        del raw[at]
    else:
        raw.insert(at, byte)
    path.write_bytes(bytes(raw))


ONE_BYTE_EDITS = dict(
    edit=st.sampled_from(["flip", "delete", "insert"]), byte=st.integers(1, 255), data=st.data()
)


def column_file(stem):
    return stem.parent / (stem.name + ".arfc")


def encode_columns(header, columns):
    """Column-file bytes as the format lays them out, written independently of the codec.

    Magic ARFC, u32 LE version 1, rows and header length, the compact JSON
    header, then each column (all of one length) as LE int64.
    """
    text = json.dumps(header, separators=(",", ":")).encode()
    rows = len(next(iter(columns.values())))
    body = b"".join(np.asarray(c, dtype="<i8").tobytes() for c in columns.values())
    return b"ARFC" + struct.pack("<III", 1, rows, len(text)) + text + body


def decode_columns(stem):
    """(kind, {name: column}) of a well-formed column file, parsed here without the codec."""
    raw = column_file(stem).read_bytes()
    _, rows, size = struct.unpack_from("<III", raw, 4)
    header = json.loads(raw[16 : 16 + size])
    block = np.frombuffer(raw[16 + size :], dtype="<i8").reshape(-1, rows)
    return header["kind"], dict(zip(header["columns"], block.copy()))


def rewrite_columns(stem, kind=None, row=0, **values):
    """Rewrite a column file with another kind and/or new values at one row."""
    old_kind, columns = decode_columns(stem)
    for name, value in values.items():
        columns[name][row] = value
    header = {"kind": old_kind if kind is None else kind, "columns": list(columns)}
    column_file(stem).write_bytes(encode_columns(header, columns))


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
        ids, class_ids, domain_ids, matrix = write_sample_feature_set(tmp_path / "fs")
        back = read_feature_set(tmp_path / "fs", "image")
        for got, want in zip(back[:3], (ids, class_ids, domain_ids)):
            assert got.dtype == np.int64 and np.array_equal(got, want)
        assert np.array_equal(back[3], matrix.astype(np.float32).astype(np.float64))

    def test_manifest_key_order(self, tmp_path):
        # The column file's header is compact JSON with kind first, and the
        # columns run id, class_id, domain_id.
        ids, class_ids, domain_ids, _ = write_sample_feature_set(tmp_path / "fs", n=3)
        raw = (tmp_path / "fs.arfc").read_bytes()
        header = b'{"kind":"image","columns":["id","class_id","domain_id"]}'
        assert raw[:16] == b"ARFC" + struct.pack("<III", 1, 3, len(header))
        assert raw[16 : 16 + len(header)] == header
        assert raw[16 + len(header) :] == np.concatenate([ids, class_ids, domain_ids]).astype(
            "<i8"
        ).tobytes()

    def test_manifest_vs_matrix_rows(self, tmp_path):
        *_, matrix = write_sample_feature_set(tmp_path / "fs", n=10)
        write_matrix(tmp_path / "fs.arfm", matrix[:9])
        with pytest.raises(RowCountMismatchError):
            read_feature_set(tmp_path / "fs", "image")

    def test_writer_needs_a_column_entry_per_matrix_row(self, tmp_path):
        ids, class_ids, domain_ids, matrix = sample_feature_set(n=3)
        with pytest.raises(RowCountMismatchError):
            write_feature_set(tmp_path / "fs", "image", ids, matrix, class_ids[:2], domain_ids)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_manifest_key(self, tmp_path):
        ids, class_ids, domain_ids, _ = write_sample_feature_set(tmp_path / "fs", n=2, d=2)
        columns = {"id": ids, "class_id": class_ids, "domain_id": domain_ids, "surprise": ids}
        header = {"kind": "image", "columns": list(columns)}
        (tmp_path / "fs.arfc").write_bytes(encode_columns(header, columns))
        with pytest.raises(UnknownKeyError, match=re.escape("unknown columns ['surprise']")):
            read_feature_set(tmp_path / "fs", "image")

    def test_missing_id(self, tmp_path):
        _, class_ids, domain_ids, _ = write_sample_feature_set(tmp_path / "fs", n=1, d=2)
        columns = {"class_id": class_ids, "domain_id": domain_ids}
        header = {"kind": "image", "columns": list(columns)}
        (tmp_path / "fs.arfc").write_bytes(encode_columns(header, columns))
        with pytest.raises(MissingFieldError):
            read_feature_set(tmp_path / "fs", "image")

    def test_duplicate_ids_rejected(self, tmp_path):
        # The codec returns columns; the set built from them rejects repeated keys.
        write_bundle(tmp_path / "b", small_bundle())
        rewrite_columns(tmp_path / "b" / "finetune", row=1, id=0)
        rewrite_columns(tmp_path / "b" / "finetune", row=0, id=0)
        with pytest.raises(ValueError, match="ids must be unique"):
            load_bundle(tmp_path / "b")

    def test_kind_must_match_the_reader(self, tmp_path):
        write_sample_feature_set(tmp_path / "fs", n=3)
        with pytest.raises(CodecError, match="kind 'image', expected 'caption'"):
            read_feature_set(tmp_path / "fs", "caption")
        rewrite_columns(tmp_path / "fs", kind="caption")
        with pytest.raises(CodecError, match="kind 'caption', expected 'image'"):
            read_feature_set(tmp_path / "fs", "image")

    @pytest.mark.parametrize("field", ["id", "class_id", "domain_id"])
    @pytest.mark.parametrize("value", [2.9, 2.0, "0", True, False, None, 2**63, -(2**63) - 1])
    def test_ids_and_tags_must_be_64_bit_json_integers(self, tmp_path, field, value):
        # An int64 column cannot hold anything else, so the writer is where
        # these values are refused; the object column keeps each value's type.
        ids, class_ids, domain_ids, matrix = sample_feature_set(n=3)
        columns = {"id": ids, "class_id": class_ids, "domain_id": domain_ids}
        columns[field] = np.array(columns[field], dtype=object)
        columns[field][1] = value
        with pytest.raises(FieldTypeError, match=re.escape(f"{field}: {json.dumps(value)} is not")):
            write_feature_set(tmp_path / "fs", "image", columns["id"], matrix,
                              columns["class_id"], columns["domain_id"])
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "header,message",
        [
            (5, "the header must be a JSON object of kind and columns"),
            (None, "the header must be a JSON object of kind and columns"),
            (True, "the header must be a JSON object of kind and columns"),
            ("abc", "the header must be a JSON object of kind and columns"),
            ([], "the header must be a JSON object of kind and columns"),
            (2.5, "the header must be a JSON object of kind and columns"),
            ([{"kind": "image", "columns": ["id"]}],
             "the header must be a JSON object of kind and columns"),
            ({"kind": ["image"], "columns": ["id"]}, "kind ['image'], expected 'image'"),
            ({"kind": {"image": 1}, "columns": ["id"]}, "kind {'image': 1}, expected 'image'"),
            ({"kind": "image"}, "the header must be a JSON object of kind and columns"),
            ({"columns": ["id"]}, "the header must be a JSON object of kind and columns"),
            ({"kind": "image", "columns": ["id"], "rows": 2},
             "the header must be a JSON object of kind and columns"),
        ],
        ids=["int", "null", "bool", "string", "list", "float", "list-of-object", "list-kind",
             "object-kind", "no-columns", "no-kind", "extra-key"],
    )
    def test_every_line_must_be_an_object_of_the_kind(self, tmp_path, header, message):
        # The column file's header is the one JSON line a feature set keeps.
        ids, *_ = write_sample_feature_set(tmp_path / "fs", n=2, d=2)
        (tmp_path / "fs.arfc").write_bytes(encode_columns(header, {"id": ids}))
        with pytest.raises(CodecError, match=re.escape(f"fs.arfc: {message}")):
            read_feature_set(tmp_path / "fs", "image")

    @pytest.mark.parametrize(
        "edit,error,message",
        [
            (lambda raw: b"ARFX" + raw[4:], BadMagicError, "magic b'ARFX', expected b'ARFC'"),
            (lambda raw: raw[:4] + struct.pack("<I", 2) + raw[8:], VersionUnsupportedError,
             "version 2, supported 1"),
            (lambda raw: raw + b"\0", RowCountMismatchError, "49 bytes for 3x2 int64"),
            (lambda raw: raw[:-8], RowCountMismatchError, "40 bytes for 3x2 int64"),
            (lambda raw: raw[:8] + struct.pack("<I", 3) + raw[12:], RowCountMismatchError,
             "48 bytes for 3x3 int64"),
            (lambda raw: raw[:12] + struct.pack("<I", 999) + raw[16:], CodecError,
             "the JSON header runs past the end of the file"),
            (lambda raw: raw[:15], CodecError, "shorter than the fixed header"),
            (lambda raw: raw[:16] + b"x" + raw[17:], CodecError, "the header is not valid JSON"),
            (lambda raw: raw[:16] + b"\xff" + raw[17:], CodecError,
             "the header is not valid JSON"),
        ],
        ids=["magic", "version", "trailing-byte", "short-payload", "rows", "header-length",
             "fixed-header", "header-json", "header-utf8"],
    )
    def test_malformed_column_file_rejected(self, tmp_path, edit, error, message):
        write_sample_feature_set(tmp_path / "fs", n=2, d=2)
        path = tmp_path / "fs.arfc"
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            read_feature_set(tmp_path / "fs", "image")

    @pytest.mark.parametrize(
        "names,error,message",
        [
            (["class_id", "id", "domain_id"], CodecError, "repeat or are out of the order"),
            (["id", "id", "domain_id"], CodecError, "repeat or are out of the order"),
            (["id", "class_id", 3], FieldTypeError, "columns must be a JSON list of strings"),
            ("id", FieldTypeError, "columns must be a JSON list of strings"),
        ],
        ids=["out-of-order", "repeated", "not-a-string", "not-a-list"],
    )
    def test_column_names_checked(self, tmp_path, names, error, message):
        ids, class_ids, domain_ids, _ = write_sample_feature_set(tmp_path / "fs", n=2, d=2)
        columns = {"a": ids, "b": class_ids, "c": domain_ids}
        header = {"kind": "image", "columns": names}
        (tmp_path / "fs.arfc").write_bytes(encode_columns(header, columns))
        with pytest.raises(error, match=re.escape(message)):
            read_feature_set(tmp_path / "fs", "image")

    @pytest.mark.parametrize(
        "field,column,shown",
        [
            ("id", [100.0, 101.0, 102.0], "100.0"),
            ("id", np.array([2**63, 1, 2], dtype=np.uint64), str(2**63)),
            ("class_id", [True, False, True], "true"),
            ("class_id", [0, 1.5, 2], "0.0"),
            ("domain_id", np.array([2.0, 1.0, 0.0]), "2.0"),
            ("domain_id", [0, None, 1], "null"),
        ],
        ids=["float-id", "uint64-id", "bool-tag", "mixed-tag", "float-tag", "null-in-tag"],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, field, column, shown):
        ids, class_ids, domain_ids, matrix = sample_feature_set(n=3)
        columns = {"id": ids, "class_id": class_ids, "domain_id": domain_ids, field: column}
        with pytest.raises(FieldTypeError, match=re.escape(f"{field}: {shown} is not")):
            write_feature_set(
                tmp_path / "fs", "image", columns["id"], matrix,
                columns["class_id"], columns["domain_id"],
            )
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["100%", "%d %s %%", 'say "hi"\\', "caf\xe9 \u2028"])
    def test_kind_with_format_and_escape_characters(self, tmp_path, kind):
        ids, class_ids, domain_ids, matrix = sample_feature_set(n=2)
        write_feature_set(tmp_path / "fs", kind, ids, matrix, None, domain_ids)
        header = {"kind": kind, "columns": ["id", "domain_id"]}
        expected = encode_columns(header, {"id": ids, "domain_id": domain_ids})
        assert (tmp_path / "fs.arfc").read_bytes() == expected
        back_ids, back_class, back_domain, _ = read_feature_set(tmp_path / "fs", kind)
        assert back_ids.tolist() == ids.tolist() and back_domain.tolist() == domain_ids.tolist()
        assert back_class is None

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8, unique=True),
        tags=st.lists(st.none() | st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=2),
        kind=st.text(max_size=12),
        data=st.data(),
    )
    def test_codec_property(self, tmp_path_factory, ids, tags, kind, data):
        # A tag is either left out (None) or an integer column.
        n = len(ids)
        class_ids, domain_ids = (
            None if tag is None else [tag ^ i for i in range(n)] for tag in tags
        )
        finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(finite32, min_size=3 * n, max_size=3 * n), label="matrix")
        matrix = np.array(values).reshape(n, 3)
        stem = tmp_path_factory.mktemp("fs") / "fs"
        write_feature_set(stem, kind, ids, matrix, class_ids, domain_ids)

        # The column file is byte for byte the format's layout of the given columns.
        given = {"id": ids, "class_id": class_ids, "domain_id": domain_ids}
        columns = {name: c for name, c in given.items() if c is not None}
        oracle = encode_columns({"kind": kind, "columns": list(columns)}, columns)
        assert (stem.parent / "fs.arfc").read_bytes() == oracle

        back_ids, back_class, back_domain, back_matrix = read_feature_set(stem, kind)
        assert back_ids.dtype == np.int64 and back_ids.tolist() == ids
        for got, want in ((back_class, class_ids), (back_domain, domain_ids)):
            if want is None:
                assert got is None
            else:
                assert got.dtype == np.int64 and got.tolist() == want
        assert back_matrix.tobytes() == matrix.tobytes()

        name = data.draw(st.sampled_from(["fs.arfm", "fs.arfc"]), label="truncated file")
        payload = (stem.parent / name).read_bytes()
        cut = data.draw(st.integers(0, len(payload) - 1), label="truncate at")
        (stem.parent / name).write_bytes(payload[:cut])
        with pytest.raises(CodecError):
            read_feature_set(stem, kind)


# JSON text pieces: values with random separators, escapes and padding, and
# lines that are blank, truncated, doubled, split in two or junk. Padding mixes
# JSON whitespace with whitespace only Python strips (no-break and ideographic
# spaces), which json.loads rejects.
PADDING = st.text(alphabet=" \t\r\xa0\u3000", max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3)
    ),
    max_leaves=8,
)
SEPARATORS = st.tuples(
    st.sampled_from([",", ", ", " ,\t", ",\r"]), st.sampled_from([":", ": ", "\t: "])
)
ESCAPES = ["\\ud83d\\ude00", "\\ud800", "\\udc00x", "\\u00e9", "\\u12", "\\x41", "\\n"]
BLANKS = ["", " ", "\t \r", "\x0c", "\x0b", "\xa0", "\u2028", " \x85 "]
JUNK = st.text(alphabet=' \t{}[]",:0123456789-+.eEtrufalsnNIy\\\ufeff\xe9', max_size=12)


@st.composite
def jsonl_lines(draw):
    value, ascii_only = draw(JSON_VALUES), draw(st.booleans())
    text = json.dumps(value, separators=draw(SEPARATORS), ensure_ascii=ascii_only)
    forms = ["value", "two values", "split", "truncated", "escape", "blank", "junk"]
    form = draw(st.sampled_from(forms))
    if form == "two values":
        text += draw(PADDING) + json.dumps(draw(JSON_VALUES))
    elif form == "split":
        cut = draw(st.integers(0, len(text)))
        text = text[:cut] + "\n" + text[cut:]
    elif form == "truncated":
        text = text[: draw(st.integers(0, len(text)))]
    elif form == "escape":
        text = '"' + draw(st.sampled_from(ESCAPES)) + '"'
    elif form == "blank":
        text = draw(st.sampled_from(BLANKS))
    elif form == "junk":
        text = draw(JUNK)
    return draw(PADDING) + text + draw(PADDING)


class TestJsonl:
    @settings(max_examples=200, deadline=None)
    @given(lines=st.lists(jsonl_lines(), max_size=6))
    def test_decodes_each_line_as_json_loads_does(self, tmp_path_factory, lines):
        path = tmp_path_factory.mktemp("jsonl") / "doc.jsonl"
        path.write_bytes("\n".join(lines).encode("utf-8"))
        # The oracle: json.loads on every non-blank line, up to the first it rejects.
        values, fault = [], None
        for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
            if not line.strip():
                continue
            try:
                values.append(json.loads(line))
            except json.JSONDecodeError as exc:
                fault = f"{path}:{lineno}: not valid JSON ({exc})"
                break
        if fault is None:
            # repr tells 1 from 1.0 and True, and NaN equals itself.
            assert repr(read_jsonl(path)) == repr(values)
        else:
            with pytest.raises(CodecError) as info:
                read_jsonl(path)
            assert str(info.value) == fault


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
        doc["theta"][0] += 1e-9
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(HashMismatchError):
            read_checkpoint(tmp_path / "ck.json")

    def test_inconsistent_leaf_shapes(self, tmp_path):
        # theta is the leaves laid end to end, so a leaf of the wrong shape
        # shows as a theta whose length does not fit dims.
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        doc["theta"].append(0.0)
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(CodecError, match="theta must have shape"):
            read_checkpoint(tmp_path / "ck.json")

    def test_missing_log_tau(self, tmp_path):
        # log_tau is theta's last element, so it goes missing with theta.
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        del doc["theta"]
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(MissingFieldError):
            read_checkpoint(tmp_path / "ck.json")

    @pytest.mark.parametrize(
        "edit,message",
        [
            (lambda doc: doc.update(theta=5), "theta: 5 is not a JSON list of finite JSON numbers"),
            (lambda doc: doc.update(theta=None),
             "theta: null is not a JSON list of finite JSON numbers"),
            (lambda doc: doc.update(theta="w1 b1 w2 b2"),
             'theta: "w1 b1 w2 b2" is not a JSON list of finite JSON numbers'),
            (lambda doc: doc["theta"].__setitem__(-1, [1]),
             "theta: [1] is not a finite JSON number"),
            (lambda doc: doc["theta"].__setitem__(-1, True),
             "theta: true is not a finite JSON number"),
            (lambda doc: doc.update(provenance=5), "provenance: 5 is not a JSON string"),
            (lambda doc: doc.update(config_fingerprint=None),
             "config_fingerprint: null is not a JSON string"),
            (lambda doc: doc["dims"].pop(), "dims must be four JSON integers"),
            (lambda doc: doc["dims"].__setitem__(3, 4.0), "dims: 4.0 is not a 64-bit JSON integer"),
        ],
        ids=["int-tower", "null-tower", "string-tower", "list-log-tau", "bool-log-tau",
             "int-provenance", "null-fingerprint", "three-dims", "float-dim"],
    )
    def test_field_of_the_wrong_type(self, tmp_path, edit, message):
        # The towers and log_tau are theta: the "tower" cases replace all of
        # it and the "log-tau" cases its last element.
        path = tmp_path / "ck.json"
        write_checkpoint(path, self.checkpoint())
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldTypeError, match=re.escape(f"{path}: {message}")):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "leaf", [{"a": 1}, "abc", [[1.0, 2.0], [3.0]]], ids=["object", "string", "ragged"]
    )
    def test_leaf_that_is_not_numeric(self, tmp_path, leaf):
        path = tmp_path / "ck.json"
        ckpt = self.checkpoint()
        write_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        doc["theta"][ckpt.params.span("text").start] = leaf
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldTypeError, match=re.escape(
            f"{path}: theta: {json.dumps(leaf)} is not a finite JSON number"
        )):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "leaf,value",
        [("log_tau", 10**400), ("text b2", 10**400), ("image w1", -(10**400))],
        ids=["log-tau", "vector-leaf", "matrix-leaf"],
    )
    def test_integer_past_float_range(self, tmp_path, leaf, value):
        path = tmp_path / "ck.json"
        ckpt = self.checkpoint()
        write_checkpoint(path, ckpt)
        doc = json.loads(path.read_text())
        span = ckpt.params.span
        at = {"log_tau": -1, "text b2": span("text").stop - 1, "image w1": span("image").start}
        doc["theta"][at[leaf]] = value
        path.write_text(json.dumps(doc))
        with pytest.raises(FieldTypeError, match=re.escape(f"{path}: theta: {str(value)[:10]}")):
            read_checkpoint(path)

    @pytest.mark.parametrize("log_tau", [1e300, -1e300, 5.0])
    def test_log_tau_outside_the_tau_range(self, tmp_path, log_tau):
        # exp(1e300) overflows rather than giving a tau to check, and is
        # rejected as a bad checkpoint all the same.
        path = tmp_path / "ck.json"
        write_checkpoint(path, self.checkpoint())
        doc = json.loads(path.read_text())
        doc["theta"][-1] = log_tau
        path.write_text(json.dumps(doc))
        with pytest.raises(CodecError, match=re.escape(f"{path}: ")):
            read_checkpoint(path)

    def test_version_1_layout_rejected(self, tmp_path):
        # Version 1 stored each tower's leaves by name and log_tau apart.
        params = self.checkpoint().params
        towers = {m: dict(zip(EncoderParams._fields, (leaf.tolist() for leaf in params.tower(m))))
                  for m in ("image", "text")}
        doc = {"version": 1, "provenance": "pretrained", "config_fingerprint": "f", "id": "i",
               "log_tau": params.log_tau, **towers}
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(VersionUnsupportedError, match="version 1, supported 2"):
            read_checkpoint(tmp_path / "ck.json")

    def test_unsupported_version(self, tmp_path):
        write_checkpoint(tmp_path / "ck.json", self.checkpoint())
        doc = json.loads((tmp_path / "ck.json").read_text())
        doc["version"] = 3
        (tmp_path / "ck.json").write_text(json.dumps(doc))
        with pytest.raises(VersionUnsupportedError):
            read_checkpoint(tmp_path / "ck.json")

    @settings(max_examples=200, deadline=None)
    @given(**ONE_BYTE_EDITS)
    def test_one_byte_edit_reads_back_equal_or_raises_value_error(
        self, tmp_path_factory, edit, byte, data
    ):
        # ValueError covers CodecError and UnicodeDecodeError. An edit that
        # reads back at all (whitespace, a redundant digit) must not change
        # a single parameter bit or string.
        ckpt = self.checkpoint()
        path = tmp_path_factory.mktemp("ck") / "ck.json"
        write_checkpoint(path, ckpt)
        edit_one_byte(path, edit, byte, data)
        try:
            back = read_checkpoint(path)
        except ValueError:
            return
        assert back.params.theta.tobytes() == ckpt.params.theta.tobytes()
        assert back.params.dims == ckpt.params.dims
        assert (back.id, back.provenance, back.config_fingerprint) == (
            ckpt.id, ckpt.provenance, ckpt.config_fingerprint
        )


class TestIndexCodec:
    def test_round_trip(self, tmp_path):
        bundle = small_bundle()
        params = init_params(0, (6, 7), 8, 4)
        index = build_candidate_index(params, bundle.candidates)
        write_candidate_index(tmp_path / "idx", index)
        back = read_candidate_index(tmp_path / "idx")
        assert back.candidate_ids.dtype == np.int64
        assert np.array_equal(back.candidate_ids, index.candidate_ids)
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

    @pytest.mark.parametrize(
        "value", [5, None, "0", {"0": 0}], ids=["int", "null", "string", "object"]
    )
    def test_candidate_ids_must_be_a_list(self, tmp_path, value):
        bundle = small_bundle()
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), bundle.candidates)
        write_candidate_index(tmp_path / "idx", index)
        meta_path = tmp_path / "idx" / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "candidate_ids": value}))
        with pytest.raises(FieldTypeError, match=re.escape(
            f"{meta_path}: candidate_ids: {json.dumps(value)} is not a JSON list"
        )):
            read_candidate_index(tmp_path / "idx")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("name", ["image_embeddings.arfi", "text_embeddings.arfi"])
    def test_non_finite_embedding_rejected_naming_the_file(self, tmp_path, name, bad):
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), small_bundle().candidates)
        write_candidate_index(tmp_path / "idx", index)
        path = tmp_path / "idx" / name
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, 4 + 12 + 8 * 5, bad)
        path.write_bytes(bytes(raw))
        with pytest.raises(CodecError, match=re.escape(f"{path}: embeddings contain non-finite")):
            read_candidate_index(tmp_path / "idx")

    @settings(max_examples=200, deadline=None)
    @given(
        name=st.sampled_from(["meta.json", "image_embeddings.arfi", "text_embeddings.arfi"]),
        **ONE_BYTE_EDITS,
    )
    def test_one_byte_edit_raises_value_error_or_reads_finite(
        self, tmp_path_factory, name, edit, byte, data
    ):
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), small_bundle().candidates)
        root = tmp_path_factory.mktemp("idx") / "idx"
        write_candidate_index(root, index)
        edit_one_byte(root / name, edit, byte, data)
        try:
            back = read_candidate_index(root)
        except ValueError:
            return
        assert np.isfinite(back.image_embeddings).all()
        assert np.isfinite(back.text_embeddings).all()
        assert back.image_embeddings.shape == index.image_embeddings.shape
        assert back.text_embeddings.shape == index.text_embeddings.shape


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

    @pytest.mark.parametrize(
        "parse,doc,message",
        [
            (parse_train_config, {"batch_size": "32"},
             'TrainConfig: batch_size: "32" is not a 64-bit JSON integer'),
            (parse_train_config, {"epochs": 1.5}, "TrainConfig: epochs: 1.5 is not"),
            (parse_train_config, {"enabled_losses": 5},
             "TrainConfig: enabled_losses: 5 is not a JSON list of JSON strings"),
            (parse_train_config, {"enabled_losses": ["cl", 5]},
             "TrainConfig: enabled_losses: 5 is not a JSON string"),
            (parse_train_config, {"tau_trainable": "no"},
             'TrainConfig: tau_trainable: "no" is not a JSON boolean'),
            (parse_train_config, {"hidden": True}, "TrainConfig: hidden: true is not"),
            (parse_train_config, {"lambda_cl": float("nan")},
             "TrainConfig: lambda_cl: NaN is not a finite JSON number"),
            (parse_train_config, {"learning_rate": float("inf")},
             "TrainConfig: learning_rate: Infinity is not a finite JSON number"),
            (parse_train_config, {"weight_decay": 10**400}, "TrainConfig: weight_decay: 1000"),
            (parse_gen_config, {"seed": "1"}, 'GenConfig: seed: "1" is not'),
            (parse_gen_config, {"sigma_img": float("-inf")},
             "GenConfig: sigma_img: -Infinity is not a finite JSON number"),
            (parse_gen_config, {"n_domains": 2**63}, "GenConfig: n_domains: 9223372036854775808"),
        ],
    )
    def test_values_must_have_their_defaults_json_type(self, parse, doc, message):
        with pytest.raises(FieldTypeError, match=re.escape(message)):
            parse(doc)

    def test_numbers_may_be_integers_and_keep_their_value(self):
        config = parse_train_config({"learning_rate": 1, "lambda_ret": 0})
        assert (config.learning_rate, config.lambda_ret) == (1, 0)

    @settings(max_examples=400, deadline=None)
    @given(data=st.data(), value=JSON_VALUES)
    def test_any_json_value_in_any_field_parses_or_raises_value_error(self, data, value):
        cls, parse = data.draw(st.sampled_from(
            [(GenConfig, parse_gen_config), (TrainConfig, parse_train_config)]
        ))
        name = data.draw(st.sampled_from([f.name for f in dataclasses.fields(cls)]), label="field")
        try:
            config = parse({name: value})
        except ValueError:
            return
        # What parses is finite, so it has a strict JSON form (the config fingerprint).
        json.dumps(config.to_dict(), allow_nan=False)


BUNDLE_STEMS = [
    "pretrain.image", "pretrain.text", "candidates.image", "candidates.text", "finetune",
    "captions", "prompts_id", "prompts_zsl", "test_id", "test_ds1", "test_zsl",
]
BUNDLE_FILES = ["gen_config.json"] + [
    stem + ext for stem in BUNDLE_STEMS for ext in (".arfc", ".arfm")
]


class TestBundleCodec:
    def test_round_trip_structure(self, tmp_path):
        bundle = small_bundle()
        write_bundle(tmp_path / "b", bundle)
        back = load_bundle(tmp_path / "b")
        assert back.gen_config == bundle.gen_config
        for name in ("prompts_id", "prompts_zsl"):
            assert np.array_equal(getattr(back, name).class_ids, getattr(bundle, name).class_ids)
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

    def test_swapped_pair_sides_rejected(self, tmp_path):
        root = tmp_path / "b"
        write_bundle(root, small_bundle())
        for suffix in (".arfc", ".arfm"):
            image, text = (root / f"pretrain.{side}{suffix}" for side in ("image", "text"))
            image.rename(tmp_path / "swap")
            text.rename(image)
            (tmp_path / "swap").rename(text)
        with pytest.raises(CodecError, match="kind 'pair_text', expected 'pair_image'"):
            load_bundle(root)

    def test_swapped_pair_matrices_rejected_by_width(self, tmp_path):
        # Column files stay put, so every kind check passes; only the widths
        # (d_img_raw 6, d_txt_raw 7) tell the two matrices apart.
        root = tmp_path / "b"
        write_bundle(root, small_bundle())
        image, text = root / "pretrain.image.arfm", root / "pretrain.text.arfm"
        image.rename(tmp_path / "swap")
        text.rename(image)
        (tmp_path / "swap").rename(text)
        with pytest.raises(
            WidthMismatchError, match=r"pretrain\.image\.arfm: 7 columns, gen_config says 6"
        ):
            load_bundle(root)

    @pytest.mark.parametrize(
        "stem,width",
        [("pretrain.text", 7), ("candidates.image", 6), ("candidates.text", 7),
         ("finetune", 6), ("captions", 7), ("prompts_id", 7), ("prompts_zsl", 7),
         ("test_id", 6), ("test_ds1", 6), ("test_zsl", 6)],
    )
    def test_every_matrix_width_is_checked(self, tmp_path, stem, width):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / f"{stem}.arfm"
        matrix = read_matrix(path)
        write_matrix(path, np.hstack([matrix, matrix[:, :1]]))
        with pytest.raises(
            WidthMismatchError, match=rf"{stem}\.arfm: {width + 1} columns, gen_config says {width}"
        ):
            load_bundle(tmp_path / "b")

    def test_finetune_of_another_kind_rejected(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        rewrite_columns(tmp_path / "b" / "finetune", kind="caption")
        with pytest.raises(CodecError, match="kind 'caption', expected 'image'"):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("field,value", [("class_id", 2.9), ("id", "0"), ("domain_id", True)])
    def test_finetune_ids_and_tags_must_be_integers(self, tmp_path, field, value):
        # An int64 column file cannot hold such a value, so the bundle writer
        # refuses it and leaves no bundle behind.
        bundle = small_bundle()
        column = getattr(bundle.finetune, f"{field}s").astype(object)
        column[0] = value
        setattr(bundle.finetune, f"{field}s", column)
        with pytest.raises(FieldTypeError, match=re.escape(f"{field}: {json.dumps(value)} is not")):
            write_bundle(tmp_path / "b", bundle)
        assert list(tmp_path.iterdir()) == []

    def test_finetune_without_a_tag_column_rejected(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        _, columns = decode_columns(tmp_path / "b" / "finetune")
        del columns["domain_id"]
        header = {"kind": "image", "columns": list(columns)}
        (tmp_path / "b" / "finetune.arfc").write_bytes(encode_columns(header, columns))
        with pytest.raises(MissingFieldError, match="sample records need class_id and domain_id"):
            load_bundle(tmp_path / "b")

    @settings(max_examples=100, deadline=None)
    @given(
        stem=st.sampled_from(BUNDLE_STEMS),
        **ONE_BYTE_EDITS,
    )
    def test_one_byte_edit_of_a_manifest_loads_or_raises_value_error(
        self, tmp_path_factory, stem, edit, byte, data
    ):
        # ValueError covers CodecError and the sets' own checks.
        root = tmp_path_factory.mktemp("b")
        write_bundle(root, small_bundle())
        edit_one_byte(root / f"{stem}.arfc", edit, byte, data)
        try:
            load_bundle(root)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(stem=st.sampled_from(BUNDLE_STEMS), **ONE_BYTE_EDITS)
    def test_one_byte_edit_of_a_matrix_past_its_header_loads_or_raises_value_error(
        self, tmp_path_factory, stem, edit, byte, data
    ):
        # Past the 16-byte header an edit changes a float or the payload
        # length: the bundle loads with finite features of the same shape,
        # or a non-finite entry or a length mismatch raises ValueError.
        root = tmp_path_factory.mktemp("b")
        bundle = small_bundle()
        write_bundle(root, bundle)
        path = root / f"{stem}.arfm"
        raw = bytearray(path.read_bytes())
        at = data.draw(st.integers(16, len(raw) - (edit != "insert")), label="at")
        if edit == "flip":
            raw[at] ^= byte
        elif edit == "delete":
            del raw[at]
        else:
            raw.insert(at, byte)
        path.write_bytes(bytes(raw))
        try:
            back = load_bundle(root)
        except ValueError:
            return
        for name in ("pretrain_pool", "finetune", "captions", "prompts_zsl", "zsl_test"):
            for f in dataclasses.fields(getattr(back, name)):
                column = getattr(getattr(back, name), f.name)
                want = getattr(getattr(bundle, name), f.name)
                assert column.shape == want.shape
                assert column.dtype == np.int64 or np.isfinite(column).all()

    def test_pair_manifest_disagreement(self, tmp_path):
        bundle = small_bundle()
        write_bundle(tmp_path / "b", bundle)
        stem = tmp_path / "b" / "candidates.text"
        _, columns = decode_columns(stem)
        rewrite_columns(stem, row=0, id=columns["id"][1])
        rewrite_columns(stem, row=1, id=columns["id"][0])
        with pytest.raises(CodecError, match="image and text column files disagree on ids"):
            load_bundle(tmp_path / "b")


def same_part(a, b) -> bool:
    """A bundle field of two bundles holds equal columns (dict parts key by domain)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_part(a[k], b[k]) for k in a)
    if isinstance(a, GenConfig):
        return a == b
    return all(
        np.array_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a)
    )


class TestBundleReader:
    def test_parts_equal_load_bundle(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        reader, loaded = BundleReader(tmp_path / "b"), load_bundle(tmp_path / "b")
        for f in dataclasses.fields(loaded):
            assert same_part(getattr(reader, f.name), getattr(loaded, f.name)), f.name

    def test_each_part_is_read_on_first_use_only(self, tmp_path, monkeypatch):
        write_bundle(tmp_path / "b", small_bundle())
        read = []
        original = fileio.read_feature_set

        def recording(stem, kind):
            read.append(Path(stem).name)
            return original(stem, kind)

        monkeypatch.setattr(fileio, "read_feature_set", recording)
        reader = BundleReader(tmp_path / "b")
        assert read == []
        assert reader.id_test is reader.id_test
        assert reader.candidates is reader.candidates
        assert read == ["test_id", "candidates.image", "candidates.text"]
        load_bundle(tmp_path / "b")  # every part, in BenchmarkBundle field order
        assert read[3:] == [
            "pretrain.image", "pretrain.text", "finetune", "captions", "prompts_id",
            "prompts_zsl", "candidates.image", "candidates.text", "test_id", "test_ds1",
            "test_zsl",
        ]

    def test_mistyped_gen_config_rejected_on_open(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / "gen_config.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "n_domains": "2"}))
        with pytest.raises(FieldTypeError, match=re.escape('GenConfig: n_domains: "2" is not')):
            BundleReader(tmp_path / "b")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_signalling_nan_feature_raises_only_the_finite_check(self, tmp_path):
        # Widening a float32 signalling NaN raises the FP invalid flag; the
        # set's own non-finite check is the one error the read may give.
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / "finetune.arfm"
        raw = bytearray(path.read_bytes())
        struct.pack_into("<I", raw, 4 + 12, 0x7F800001)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="contains non-finite entries"):
            BundleReader(tmp_path / "b").finetune

    def test_corrupt_part_raises_when_read(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / "pretrain.image.arfc"
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01
        path.write_bytes(bytes(raw))
        reader = BundleReader(tmp_path / "b")
        assert len(reader.finetune) and len(reader.candidates)
        match = re.escape(f"{path}: magic b'@RFC', expected b'ARFC'")
        with pytest.raises(BadMagicError, match=match):
            reader.pretrain_pool
        with pytest.raises(CodecError, match=match):
            load_bundle(tmp_path / "b")

    def test_writes_exactly_the_files_it_requires(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == sorted(BUNDLE_FILES)

    @pytest.mark.parametrize("name", BUNDLE_FILES)
    def test_missing_file_rejected_at_open(self, tmp_path, name):
        write_bundle(tmp_path / "b", small_bundle())
        (tmp_path / "b" / name).unlink()
        for open_bundle in (BundleReader, load_bundle):
            with pytest.raises(FileNotFoundError, match=re.escape(name)):
                open_bundle(tmp_path / "b")


def _fail_on_call(monkeypatch, owner, name: str, n: int) -> None:
    """Make the n-th call of owner.<name> raise, as a crash mid-write would."""
    original, calls = getattr(owner, name), []

    def failing(*args, **kwargs):
        calls.append(1)
        if len(calls) == n:
            raise OSError("disk full")
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, failing)


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))}


class TestDirectoryWrites:
    def test_rewrite_replaces_the_whole_bundle(self, tmp_path):
        three = dataclasses.replace(small_bundle().gen_config, n_domains=3)
        write_bundle(tmp_path / "b", generate_benchmark(three))
        assert (tmp_path / "b" / "test_ds2.arfm").exists()
        write_bundle(tmp_path / "b", small_bundle())
        write_bundle(tmp_path / "fresh", small_bundle())
        assert tree_bytes(tmp_path / "b") == tree_bytes(tmp_path / "fresh")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "fresh"]

    def test_failed_rewrite_keeps_the_old_bundle(self, tmp_path, monkeypatch):
        write_bundle(tmp_path / "b", small_bundle())
        before = tree_bytes(tmp_path / "b")
        _fail_on_call(monkeypatch, fileio, "write_matrix", 5)
        with pytest.raises(OSError, match="disk full"):
            write_bundle(tmp_path / "b", small_bundle(seed=1))
        assert tree_bytes(tmp_path / "b") == before
        assert [p.name for p in tmp_path.iterdir()] == ["b"]

    def test_failed_index_write_leaves_nothing(self, tmp_path, monkeypatch):
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), small_bundle().candidates)
        _fail_on_call(monkeypatch, fileio, "write_matrix", 2)
        with pytest.raises(OSError, match="disk full"):
            write_candidate_index(tmp_path / "idx", index)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_restores_the_old_directory(self, tmp_path, monkeypatch):
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), small_bundle().candidates)
        write_candidate_index(tmp_path / "idx", index)
        before = tree_bytes(tmp_path / "idx")
        _fail_on_call(monkeypatch, fileio.os, "rename", 2)
        with pytest.raises(OSError, match="disk full"):
            write_candidate_index(tmp_path / "idx", index)
        assert tree_bytes(tmp_path / "idx") == before
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]

    @pytest.mark.parametrize("other", ["notes.txt", "gen_config.json"])
    def test_foreign_directory_is_not_replaced(self, tmp_path, other):
        index = build_candidate_index(init_params(0, (6, 7), 8, 4), small_bundle().candidates)
        (tmp_path / "out").mkdir()
        (tmp_path / "out" / other).write_text("keep")
        with pytest.raises(FileExistsError, match="not an empty directory or one holding meta"):
            write_candidate_index(tmp_path / "out", index)
        assert [p.name for p in (tmp_path / "out").iterdir()] == [other]
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    def test_file_or_symlink_target_is_not_replaced(self, tmp_path):
        (tmp_path / "b").write_text("keep")
        (tmp_path / "empty").mkdir()
        (tmp_path / "link").symlink_to(tmp_path / "empty")
        for target in ("b", "link"):
            with pytest.raises(FileExistsError):
                write_bundle(tmp_path / target, small_bundle())
        assert (tmp_path / "b").read_text() == "keep"
        assert (tmp_path / "link").is_symlink() and not any((tmp_path / "empty").iterdir())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b", "empty", "link"]


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

    @pytest.mark.parametrize(
        "field,value",
        [("splits", 5), ("splits", [5]), ("splits", [{"split": 1, "accuracy_percent": 50.0}]),
         ("splits", [{"split": "id", "accuracy_percent": "50"}]), ("splits", [{"split": "id"}]),
         ("splits", [{"split": "id", "accuracy_percent": True}]),
         ("splits", [{"split": "id", "accuracy_percent": 10**400}]), ("avg_ood", "45"),
         ("avg_ood", [45.0]), ("avg_ood", -(10**400))],
    )
    def test_metrics_field_types_checked(self, tmp_path, field, value):
        curve, _ = self.curve()
        write_metrics(tmp_path / "m.json", curve.rows[0][1])
        doc = json.loads((tmp_path / "m.json").read_text())
        (tmp_path / "m.json").write_text(json.dumps({**doc, field: value}))
        with pytest.raises(FieldTypeError, match=re.escape(f"{tmp_path / 'm.json'}: {field}")):
            read_metrics(tmp_path / "m.json")

    @pytest.mark.parametrize(
        "text,match",
        [("alpha,id,zsl\n0.0,,1.0\n", "empty alpha or id cell"),
         ("alpha,id,zsl\n,50.0,1.0\n", "empty alpha or id cell"),
         ("alpha,id,zsl\n0.0,fifty,1.0\n", "could not convert"),
         ("alpha,ids,zsl\n0.0,50.0,1.0\n", "no id column"),
         ("alpha,id,zsl\n", "at least one row"),
         ("alpha,id,zsl\nnan,50.0,1.0\n", r"c.csv:2: alpha cell is nan"),
         ("alpha,id,zsl\n0.0,50.0,1.0\n0.5,inf,1.0\n", r"c.csv:3: id cell is inf"),
         ("alpha,id,zsl\n0.0,50.0,-inf\n", r"c.csv:2: zsl cell is -inf")],
    )
    def test_curve_cells_checked(self, tmp_path, text, match):
        (tmp_path / "c.csv").write_text(text)
        with pytest.raises(CodecError, match=match):
            read_curve_csv(tmp_path / "c.csv")
