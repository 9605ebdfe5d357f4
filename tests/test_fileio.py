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
from anchorft.anchors import SampleSet, build_candidate_index
from anchorft.benchgen import GenConfig, generate_benchmark
from anchorft.encoders import EncoderParams, init_params
from anchorft.evaluation import ensemble_sweep
from anchorft.fileio import (
    BadMagicError,
    BundleReader,
    CodecError,
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


def small_bundle(seed=0, n_domains=2):
    cfg = GenConfig(
        n_id_classes=3,
        n_zsl_classes=2,
        n_domains=n_domains,
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


def small_index():
    return build_candidate_index(init_params(0, (6, 7), 8, 4), small_bundle().candidates)


def sample_set(n=10, d=4, seed=0):
    rng = np.random.default_rng(seed)
    rows = np.arange(n)
    return SampleSet(100 + rows, rng.normal(size=(n, d)), rows % 3, rows % 2)


def edit_one_byte(path, edit, byte, data, start=0):
    """Flip (xor with byte), delete or insert byte at a drawn offset of the file from start."""
    raw = bytearray(path.read_bytes())
    at = data.draw(st.integers(start, len(raw) - (edit != "insert")), label="at")
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


def pack_table(header, body: bytes, version=1, magic=b"ARFT") -> bytes:
    """Table-file bytes as the format lays them out, packed independently of the codec.

    The magic, u32 LE version and header length, the header (a dict as
    compact JSON, or raw bytes), then the column blocks.
    """
    text = header if isinstance(header, bytes) else json.dumps(header, separators=(",", ":"))
    text = text if isinstance(text, bytes) else text.encode()
    return struct.pack("<4sII", magic, version, len(text)) + text + body


def encode_table(kind, columns) -> bytes:
    """pack_table of (name, dtype, array) columns: each one LE block, a matrix row-major."""
    arrays = [np.asarray(array, dtype) for _, dtype, array in columns]
    spec = [[name, dtype, a.shape[1] if a.ndim == 2 else 1]
            for (name, dtype, _), a in zip(columns, arrays)]
    header = {"kind": kind, "rows": len(arrays[0]), "columns": spec}
    return pack_table(header, b"".join(a.tobytes() for a in arrays))


def decode_table(path):
    """(header, body) of a well-formed table file, split here without the codec."""
    raw = Path(path).read_bytes()
    size = struct.unpack_from("<I", raw, 8)[0]
    return json.loads(raw[12 : 12 + size]), raw[12 + size :]


def table_columns(path):
    """[(name, dtype, column)] of a well-formed table file, decoded without the codec."""
    header, body = decode_table(path)
    columns, at = [], 0
    for name, dtype, width in header["columns"]:
        block = np.frombuffer(body, dtype, header["rows"] * width, at).copy()
        at += block.nbytes
        columns.append((name, dtype, block if dtype == "<i8" else block.reshape(-1, width)))
    return columns


def rewrite_table(path, kind=None, **replace):
    """Rewrite a table file with another kind and/or new values of some columns."""
    header, _ = decode_table(path)
    columns = [(n, d, replace.get(n, c)) for n, d, c in table_columns(path)]
    Path(path).write_bytes(encode_table(kind or header["kind"], columns))


def sample_columns(samples, float_dtype="<f4"):
    return [("ids", "<i8", samples.ids), ("features", float_dtype, samples.features),
            ("class_ids", "<i8", samples.class_ids), ("domain_ids", "<i8", samples.domain_ids)]


class TestTableCodec:
    def test_writer_and_reader_follow_the_hand_packed_layout(self, tmp_path):
        samples = sample_set(n=3, d=2)
        body = b"".join([
            samples.ids.astype("<i8").tobytes(), samples.features.astype("<f4").tobytes(),
            samples.class_ids.astype("<i8").tobytes(), samples.domain_ids.astype("<i8").tobytes(),
        ])
        header = (b'{"kind":"samples","rows":3,"columns":[["ids","<i8",1],["features","<f4",2],'
                  b'["class_ids","<i8",1],["domain_ids","<i8",1]]}')
        oracle = b"ARFT" + struct.pack("<II", 1, len(header)) + header + body
        write_feature_set(tmp_path / "written.arft", "samples", samples)
        assert (tmp_path / "written.arft").read_bytes() == oracle
        (tmp_path / "packed.arft").write_bytes(oracle)
        back = read_feature_set(tmp_path / "packed.arft", "samples", {"features": 2})
        for name in ("ids", "class_ids", "domain_ids"):
            assert getattr(back, name).dtype == np.int64
            assert getattr(back, name).tobytes() == getattr(samples, name).tobytes()
        stored = samples.features.astype(np.float32).astype(np.float64)
        assert back.features.tobytes() == stored.tobytes()

    def test_index_embeddings_are_lossless(self, tmp_path):
        index = small_index()
        write_feature_set(tmp_path / "e.arft", "index", index)
        columns = [("candidate_ids", "<i8", index.candidate_ids),
                   ("image_embeddings", "<f8", index.image_embeddings),
                   ("text_embeddings", "<f8", index.text_embeddings)]
        assert (tmp_path / "e.arft").read_bytes() == encode_table("index", columns)
        back = read_feature_set(tmp_path / "e.arft", "index", {}, "source")
        for name, _, column in columns:
            assert getattr(back, name).tobytes() == column.tobytes()
        assert back.source_checkpoint_id == "source"

    def test_file_that_shrinks_while_read_is_rejected(self, tmp_path, monkeypatch):
        path = tmp_path / "t.arft"
        write_feature_set(path, "samples", sample_set(n=3, d=2))
        fstat = fileio.os.fstat

        def stat_then_truncate(fd):
            result = fstat(fd)
            fileio.os.truncate(path, result.st_size - 8)
            return result

        monkeypatch.setattr(fileio.os, "fstat", stat_then_truncate)
        with pytest.raises(RowCountMismatchError, match=re.escape(f"{path}: the file shrank")):
            read_feature_set(path, "samples", {"features": 2})

    def test_empty_table(self, tmp_path):
        write_feature_set(tmp_path / "t.arft", "samples", sample_set(n=0, d=7))
        back = read_feature_set(tmp_path / "t.arft", "samples", {"features": 7})
        assert back.features.shape == (0, 7) and back.ids.shape == (0,)

    def test_writer_needs_one_length_for_every_column(self, tmp_path):
        samples = sample_set(n=3)
        columns = sample_columns(samples)
        columns[2] = ("class_ids", "<i8", samples.class_ids[:2])
        with pytest.raises(RowCountMismatchError, match="every column needs 3 rows"):
            write_matrix(tmp_path / "t.arft", "samples", columns)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["100%", "%d %s %%", 'say "hi"\\', "caf\xe9 \u2028"])
    def test_kind_with_format_and_escape_characters(self, tmp_path, kind):
        columns = sample_columns(sample_set(n=2))
        write_matrix(tmp_path / "t.arft", kind, columns)
        assert (tmp_path / "t.arft").read_bytes() == encode_table(kind, columns)
        back = read_matrix(tmp_path / "t.arft", kind, [(n, d, None) for n, d, _ in columns])
        assert back["ids"].tolist() == columns[0][2].tolist()

    def test_no_temp_files_left(self, tmp_path):
        write_feature_set(tmp_path / "t.arft", "samples", sample_set(n=2))
        assert [p.name for p in tmp_path.iterdir()] == ["t.arft"]

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


IDS, FEATURES = ["ids", "<i8", 1], ["features", "<f4", 2]
CLASSES, DOMAINS = ["class_ids", "<i8", 1], ["domain_ids", "<i8", 1]
SURPRISE = ["surprise", "<i8", 1]
NOT_AN_OBJECT = "the header must be a JSON object of kind, rows and columns"
NOT_TRIPLES = "columns must be a JSON list of [name, dtype, width]"


def _header(**changes):
    """Replace header fields, and with `extra` append that many int64 blocks to the body."""
    extra = changes.pop("extra", 0)
    return lambda h, b: pack_table({**h, **changes}, b + bytes(24 * extra))


# A 3-row samples table with 2-wide features: its header and 96-byte body,
# as edited into each corrupt file.
CORRUPTIONS = {
    "magic": (lambda h, b: pack_table(h, b, magic=b"ARFX"), BadMagicError,
              "magic b'ARFX', expected b'ARFT'"),
    "version": (lambda h, b: pack_table(h, b, version=2), VersionUnsupportedError,
                "version 2, supported 1"),
    "fixed-header": (lambda h, b: pack_table(h, b)[:11], CodecError,
                     "shorter than the fixed header"),
    "header-past-eof": (lambda h, b: pack_table(h, b)[:40], CodecError,
                        "the JSON header runs past the end of the file"),
    "header-length": (lambda h, b: pack_table(h, b)[:8] + struct.pack("<I", 999)
                      + pack_table(h, b)[12:], CodecError,
                      "the JSON header runs past the end of the file"),
    "header-json": (lambda h, b: pack_table(b'{"kind":', b), CodecError,
                    "the header is not valid JSON"),
    "header-utf8": (lambda h, b: pack_table(b"\xff", b), CodecError,
                    "the header is not valid JSON"),
    "header-list": (lambda h, b: pack_table([h], b), CodecError, NOT_AN_OBJECT),
    "header-empty-list": (lambda h, b: pack_table([], b), CodecError, NOT_AN_OBJECT),
    "header-extra-key": (_header(extra_key=1), CodecError, NOT_AN_OBJECT),
    "header-no-rows": (lambda h, b: pack_table({"kind": h["kind"], "columns": h["columns"]}, b),
                       CodecError, NOT_AN_OBJECT),
    "header-no-kind": (lambda h, b: pack_table({"rows": h["rows"], "columns": h["columns"]}, b),
                       CodecError, NOT_AN_OBJECT),
    "header-no-columns": (lambda h, b: pack_table({"kind": h["kind"], "rows": h["rows"]}, b),
                          CodecError, NOT_AN_OBJECT),
    "header-int": (lambda h, b: pack_table(5, b), CodecError, NOT_AN_OBJECT),
    "header-null": (lambda h, b: pack_table(None, b), CodecError, NOT_AN_OBJECT),
    "header-bool": (lambda h, b: pack_table(True, b), CodecError, NOT_AN_OBJECT),
    "header-string": (lambda h, b: pack_table("abc", b), CodecError, NOT_AN_OBJECT),
    "header-float": (lambda h, b: pack_table(2.5, b), CodecError, NOT_AN_OBJECT),
    "kind": (_header(kind="captions"), CodecError, "kind 'captions', expected 'samples'"),
    "list-kind": (_header(kind=["samples"]), CodecError, "kind ['samples'], expected 'samples'"),
    "object-kind": (_header(kind={"samples": 1}), CodecError,
                    "kind {'samples': 1}, expected 'samples'"),
    "rows-negative": (_header(rows=-1), FieldTypeError, "rows -1 is not a row count"),
    "rows-bool": (_header(rows=True), FieldTypeError, "rows true is not a row count"),
    "rows": (_header(rows=4), RowCountMismatchError,
             "payload holds 96 bytes, the header claims 128 for 4 rows"),
    "columns-string": (_header(columns="ids"), FieldTypeError, NOT_TRIPLES),
    "column-pair": (_header(columns=[["ids", "<i8"], FEATURES, CLASSES, DOMAINS]),
                    FieldTypeError, NOT_TRIPLES),
    "column-name-number": (_header(columns=[[3, "<i8", 1], FEATURES, CLASSES, DOMAINS]),
                           FieldTypeError, NOT_TRIPLES),
    "unknown-column": (_header(columns=[IDS, FEATURES, CLASSES, DOMAINS, SURPRISE], extra=1),
                       UnknownKeyError, "unknown columns ['surprise']"),
    "missing-column": (lambda h, b: pack_table({**h, "columns": [IDS, FEATURES, CLASSES]},
                                               b[:-24]),
                       MissingFieldError, "missing columns ['domain_ids']"),
    "repeated-column": (_header(columns=[IDS, FEATURES, CLASSES, DOMAINS, IDS], extra=1),
                        CodecError, "columns ['ids', 'features', 'class_ids', 'domain_ids', 'ids'] "
                        "repeat or are out of the order ['ids', 'features', 'class_ids', "
                        "'domain_ids']"),
    "out-of-order": (_header(columns=[IDS, FEATURES, DOMAINS, CLASSES]), CodecError,
                     "columns ['ids', 'features', 'domain_ids', 'class_ids'] repeat or are out"),
    "dtype": (_header(columns=[IDS, ["features", "<f8", 1], CLASSES, DOMAINS]), FieldTypeError,
              "column features is <f8, expected <f4"),
    "id-dtype": (_header(columns=[["ids", "<f8", 1], FEATURES, CLASSES, DOMAINS]),
                 FieldTypeError, "column ids is <f8, expected <i8"),
    "width": (_header(columns=[IDS, ["features", "<f4", 3], CLASSES, DOMAINS]),
              WidthMismatchError, "column features is 3 wide, expected 2"),
    "id-width": (_header(columns=[["ids", "<i8", 2], FEATURES, CLASSES, DOMAINS]),
                 WidthMismatchError, "column ids is 2 wide, expected 1"),
    "width-zero": (_header(columns=[IDS, ["features", "<f4", 0], CLASSES, DOMAINS]),
                   WidthMismatchError, "column features is 0 wide, expected 2"),
    "width-string": (_header(columns=[IDS, ["features", "<f4", "2"], CLASSES, DOMAINS]),
                     WidthMismatchError, 'column features is "2" wide, expected 2'),
    "short-payload": (lambda h, b: pack_table(h, b[:-1]), RowCountMismatchError,
                      "payload holds 95 bytes, the header claims 96 for 3 rows"),
    "long-payload": (lambda h, b: pack_table(h, b + b"\0"), RowCountMismatchError,
                     "payload holds 97 bytes, the header claims 96 for 3 rows"),
}


class TestSetCodec:
    def test_round_trip_is_float32_exact(self, tmp_path):
        samples = sample_set(n=5, d=3)
        write_feature_set(tmp_path / "t.arft", "samples", samples)
        back = read_feature_set(tmp_path / "t.arft", "samples", {"features": 3})
        assert back.features.dtype == np.float64
        assert np.array_equal(back.features, samples.features.astype(np.float32))

    @pytest.mark.parametrize("case", CORRUPTIONS)
    def test_corrupt_table_rejected_naming_the_file(self, tmp_path, case):
        edit, error, message = CORRUPTIONS[case]
        path = tmp_path / "t.arft"
        write_feature_set(path, "samples", sample_set(n=3, d=2))
        header, body = decode_table(path)
        assert len(body) == 96
        path.write_bytes(edit(header, body))
        with pytest.raises(error, match=re.escape(f"{path}: {message}")):
            read_feature_set(path, "samples", {"features": 2})

    @pytest.mark.parametrize("kind", ["samples", "captions", "prompts", "pairs", "index"])
    def test_every_kind_stores_its_set_fields(self, tmp_path, kind):
        bundle, index = small_bundle(), small_index()
        table = {"samples": bundle.finetune, "captions": bundle.captions,
                 "prompts": bundle.prompts_id, "pairs": bundle.candidates, "index": index}[kind]
        path = tmp_path / "t.arft"
        write_feature_set(path, kind, table)
        names = [f.name for f in dataclasses.fields(table) if f.name != "source_checkpoint_id"]
        assert [c[0] for c in decode_table(path)[0]["columns"]] == names
        rest = [index.source_checkpoint_id] if kind == "index" else []
        back = read_feature_set(path, kind, {}, *rest)
        assert type(back) is type(table)
        stored = "<f8" if kind == "index" else "<f4"
        for name in names:
            want = getattr(table, name)
            want = want.astype(stored).astype(np.float64) if want.ndim == 2 else want
            assert getattr(back, name).tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("field", ["ids", "class_ids", "domain_ids"])
    @pytest.mark.parametrize("value", [2.9, 2.0, "0", True, False, None, 2**63, -(2**63) - 1])
    def test_ids_and_tags_must_be_64_bit_json_integers(self, tmp_path, field, value):
        # An int64 column cannot hold anything else, so the writer is where
        # these values are refused; the object column keeps each value's type.
        samples = sample_set(n=3)
        columns = {n: getattr(samples, n) for n in ("ids", "features", "class_ids", "domain_ids")}
        columns[field] = np.array(columns[field], dtype=object)
        columns[field][1] = value
        with pytest.raises(FieldTypeError, match=re.escape(f"{field}: {json.dumps(value)} is not")):
            write_feature_set(tmp_path / "t.arft", "samples", SampleSet._from_columns(
                *columns.values()
            ))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "field,column,shown",
        [
            ("ids", [100.0, 101.0, 102.0], "100.0"),
            ("ids", np.array([2**63, 1, 2], dtype=np.uint64), str(2**63)),
            ("class_ids", [True, False, True], "true"),
            ("class_ids", [0, 1.5, 2], "0.0"),
            ("domain_ids", np.array([2.0, 1.0, 0.0]), "2.0"),
            ("domain_ids", [0, None, 1], "null"),
        ],
        ids=["float-id", "uint64-id", "bool-tag", "mixed-tag", "float-tag", "null-in-tag"],
    )
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, field, column, shown):
        samples = sample_set(n=3)
        columns = {n: getattr(samples, n) for n in ("ids", "features", "class_ids", "domain_ids")}
        columns[field] = np.asarray(column)
        with pytest.raises(FieldTypeError, match=re.escape(f"{field}: {shown} is not")):
            write_feature_set(tmp_path / "t.arft", "samples", SampleSet._from_columns(
                *columns.values()
            ))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("value,row", [(1e39, 0), (-1e39, 1), (np.finfo(np.float64).max, 1)])
    def test_finite_value_past_float32_range_refused_before_writing(self, tmp_path, value, row):
        # Stored as inf, the value would make the writer's own reader refuse the file.
        features = np.array([[0.0, 1.0], [1.0, 0.0]])
        features[row, 0] = value
        path = tmp_path / "t.arft"
        match = re.escape(f"{path}: features: the row with ids {row + 1} does not fit in <f4")
        with pytest.raises(CodecError, match=match):
            write_feature_set(path, "samples", SampleSet([1, 2], features, [0, 0], [0, 0]))
        assert list(tmp_path.iterdir()) == []

    @settings(max_examples=60, deadline=None)
    @given(
        ids=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=8, unique=True),
        tags=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=2, max_size=2),
        kind=st.text(max_size=12),
        data=st.data(),
    )
    def test_codec_property(self, tmp_path_factory, ids, tags, kind, data):
        n = len(ids)
        class_ids, domain_ids = ([tag ^ i for i in range(n)] for tag in tags)
        finite32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
        values = data.draw(st.lists(finite32, min_size=3 * n, max_size=3 * n), label="matrix")
        matrix = np.array(values).reshape(n, 3)
        columns = [("ids", "<i8", ids), ("features", "<f4", matrix),
                   ("class_ids", "<i8", class_ids), ("domain_ids", "<i8", domain_ids)]
        path = tmp_path_factory.mktemp("t") / "t.arft"
        write_matrix(path, kind, columns)

        # The file is byte for byte the format's layout of the given columns.
        assert path.read_bytes() == encode_table(kind, columns)
        back = read_matrix(path, kind, [(name, dtype, None) for name, dtype, _ in columns])
        assert list(back) == ["ids", "features", "class_ids", "domain_ids"]
        for (name, _, want), got in zip(columns, back.values()):
            if name == "features":
                assert got.dtype == np.float64 and got.tobytes() == matrix.tobytes()
            else:
                assert got.dtype == np.int64 and got.tolist() == want

        payload = path.read_bytes()
        cut = data.draw(st.integers(0, len(payload) - 1), label="truncate at")
        path.write_bytes(payload[:cut])
        with pytest.raises(CodecError):
            read_matrix(path, kind, [(name, dtype, None) for name, dtype, _ in columns])


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
        index = small_index()
        write_candidate_index(tmp_path / "idx", index)
        assert sorted(p.name for p in (tmp_path / "idx").iterdir()) == [
            "embeddings.arft", "meta.json"
        ]
        back = read_candidate_index(tmp_path / "idx")
        assert back.candidate_ids.dtype == np.int64
        assert np.array_equal(back.candidate_ids, index.candidate_ids)
        assert back.image_embeddings.tobytes() == index.image_embeddings.tobytes()
        assert back.text_embeddings.tobytes() == index.text_embeddings.tobytes()
        assert back.source_checkpoint_id == index.source_checkpoint_id

    def test_version_1_meta_rejected(self, tmp_path):
        # A version-1 index kept its ids in meta.json beside two .arfi files.
        index = small_index()
        write_candidate_index(tmp_path / "idx", index)
        meta = {"version": 1, "source_checkpoint_id": index.source_checkpoint_id,
                "candidate_ids": index.candidate_ids.tolist()}
        (tmp_path / "idx" / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(VersionUnsupportedError, match="version 1, supported 2"):
            read_candidate_index(tmp_path / "idx")

    def test_embedding_widths_must_agree(self, tmp_path):
        index = small_index()
        write_candidate_index(tmp_path / "idx", index)
        path = tmp_path / "idx" / "embeddings.arft"
        rewrite_table(path, text_embeddings=index.text_embeddings[:, :3])
        with pytest.raises(CodecError, match=re.escape(f"{path}: image and text embeddings")):
            read_candidate_index(tmp_path / "idx")

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize("column", ["image_embeddings", "text_embeddings"])
    def test_non_finite_embedding_rejected_naming_the_file(self, tmp_path, column, bad):
        index = small_index()
        write_candidate_index(tmp_path / "idx", index)
        path = tmp_path / "idx" / "embeddings.arft"
        embeddings = getattr(index, column).copy()
        embeddings[5, 1] = bad
        rewrite_table(path, **{column: embeddings})
        with pytest.raises(CodecError, match=re.escape(f"{path}: ") + ".*non-finite entries"):
            read_candidate_index(tmp_path / "idx")

    @settings(max_examples=200, deadline=None)
    @given(name=st.sampled_from(["meta.json", "embeddings.arft"]), **ONE_BYTE_EDITS)
    def test_one_byte_edit_raises_value_error_or_reads_finite(
        self, tmp_path_factory, name, edit, byte, data
    ):
        index = small_index()
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
    "pretrain", "candidates", "finetune", "captions", "prompts_id", "prompts_zsl", "test_id",
    "test_ds1", "test_zsl",
]
# The files of a bundle of n domains: one test_ds<d> table per shifted domain d.
BUNDLE_FILES = {
    n: ["gen_config.json", *(stem + ".arft" for stem in BUNDLE_STEMS if stem != "test_ds1"),
        *(f"test_ds{d}.arft" for d in range(1, n))]
    for n in (1, 2, 3)
}
# Each bundle table's kind and its matrix columns with the widths of
# small_bundle's gen_config (d_img_raw 6, d_txt_raw 7).
BUNDLE_MATRICES = [
    ("pretrain", "images", 6), ("pretrain", "texts", 7), ("candidates", "images", 6),
    ("candidates", "texts", 7), ("finetune", "features", 6), ("captions", "features", 7),
    ("prompts_id", "prompt_features", 7), ("prompts_zsl", "prompt_features", 7),
    ("test_id", "features", 6), ("test_ds1", "features", 6), ("test_zsl", "features", 6),
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

    def test_swapped_tables_rejected_by_kind(self, tmp_path):
        root = tmp_path / "b"
        write_bundle(root, small_bundle())
        (root / "pretrain.arft").rename(tmp_path / "swap")
        (root / "finetune.arft").rename(root / "pretrain.arft")
        (tmp_path / "swap").rename(root / "finetune.arft")
        with pytest.raises(CodecError, match="kind 'samples', expected 'pairs'"):
            load_bundle(root)

    def test_swapped_pair_sides_rejected_by_width(self, tmp_path):
        # Kind and names stay right; only the widths tell the two sides apart.
        root = tmp_path / "b"
        write_bundle(root, small_bundle())
        columns = dict((n, c) for n, _, c in table_columns(root / "pretrain.arft"))
        rewrite_table(root / "pretrain.arft", images=columns["texts"], texts=columns["images"])
        with pytest.raises(
            WidthMismatchError, match=r"pretrain\.arft: column images is 7 wide, expected 6"
        ):
            load_bundle(root)

    @pytest.mark.parametrize("stem,column,width", BUNDLE_MATRICES)
    def test_every_matrix_width_is_checked(self, tmp_path, stem, column, width):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / f"{stem}.arft"
        matrix = dict((n, c) for n, _, c in table_columns(path))[column]
        rewrite_table(path, **{column: np.hstack([matrix, matrix[:, :1]])})
        with pytest.raises(WidthMismatchError, match=re.escape(
            f"{stem}.arft: column {column} is {width + 1} wide, expected {width}"
        )):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("stem", BUNDLE_STEMS)
    def test_every_table_of_another_kind_rejected(self, tmp_path, stem):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / f"{stem}.arft"
        kind = decode_table(path)[0]["kind"]
        rewrite_table(path, kind="captions" if kind != "captions" else "samples")
        with pytest.raises(CodecError, match=re.escape(f"{path}: kind ")):
            load_bundle(tmp_path / "b")
        rewrite_table(path, kind=kind)
        load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("stem", BUNDLE_STEMS)
    def test_repeated_key_rejected_naming_the_table(self, tmp_path, stem):
        # The reader returns columns; the set built from them rejects a repeated key.
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / f"{stem}.arft"
        name, _, key = table_columns(path)[0]
        rewrite_table(path, **{name: np.r_[key[1], key[1:]]})
        with pytest.raises(CodecError, match=re.escape(f"{path}: {name} must be unique")):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("stem,column,width", BUNDLE_MATRICES)
    def test_non_finite_entry_rejected_naming_the_table(self, tmp_path, stem, column, width):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / f"{stem}.arft"
        matrix = dict((n, c) for n, _, c in table_columns(path))[column].copy()
        matrix[1, width - 1] = np.inf
        rewrite_table(path, **{column: matrix})
        with pytest.raises(CodecError, match=re.escape(f"{path}: ") + ".*non-finite entries"):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize(
        "field,value", [("class_ids", 2.9), ("ids", "0"), ("domain_ids", True)]
    )
    def test_finetune_ids_and_tags_must_be_integers(self, tmp_path, field, value):
        # An int64 column cannot hold such a value, so the bundle writer
        # refuses it and leaves no bundle behind.
        bundle = small_bundle()
        column = getattr(bundle.finetune, field).astype(object)
        column[0] = value
        setattr(bundle.finetune, field, column)
        with pytest.raises(FieldTypeError, match=re.escape(f"{field}: {json.dumps(value)} is not")):
            write_bundle(tmp_path / "b", bundle)
        assert list(tmp_path.iterdir()) == []

    def test_finetune_without_a_tag_column_rejected(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / "finetune.arft"
        columns = [c for c in table_columns(path) if c[0] != "domain_ids"]
        path.write_bytes(encode_table("samples", columns))
        with pytest.raises(MissingFieldError, match=re.escape("missing columns ['domain_ids']")):
            load_bundle(tmp_path / "b")

    @settings(max_examples=100, deadline=None)
    @given(stem=st.sampled_from(BUNDLE_STEMS), **ONE_BYTE_EDITS)
    def test_one_byte_edit_of_a_table_loads_or_raises_value_error(
        self, tmp_path_factory, stem, edit, byte, data
    ):
        # ValueError covers CodecError and the sets' own checks.
        root = tmp_path_factory.mktemp("b")
        write_bundle(root, small_bundle())
        edit_one_byte(root / f"{stem}.arft", edit, byte, data)
        try:
            load_bundle(root)
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None)
    @given(stem=st.sampled_from(BUNDLE_STEMS), **ONE_BYTE_EDITS)
    def test_one_byte_edit_of_a_payload_loads_or_raises_value_error(
        self, tmp_path_factory, stem, edit, byte, data
    ):
        # Past the header an edit changes a value or the payload length: the
        # bundle loads with finite features of the same shape, or a
        # non-finite entry, a repeated id or a length mismatch raises
        # ValueError.
        root = tmp_path_factory.mktemp("b")
        bundle = small_bundle()
        write_bundle(root, bundle)
        path = root / f"{stem}.arft"
        header_end = len(path.read_bytes()) - len(decode_table(path)[1])
        edit_one_byte(path, edit, byte, data, start=header_end)
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

        def recording(path, kind, *args):
            read.append(Path(path).stem)
            return original(path, kind, *args)

        monkeypatch.setattr(fileio, "read_feature_set", recording)
        reader = BundleReader(tmp_path / "b")
        assert read == []
        assert reader.id_test is reader.id_test
        assert reader.candidates is reader.candidates
        assert read == ["test_id", "candidates"]
        load_bundle(tmp_path / "b")  # every part, in BenchmarkBundle field order
        assert read[2:] == [
            "pretrain", "finetune", "captions", "prompts_id", "prompts_zsl", "candidates",
            "test_id", "test_ds1", "test_zsl",
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
        path = tmp_path / "b" / "finetune.arft"
        raw = bytearray(path.read_bytes())
        features = len(raw) - len(decode_table(path)[1]) + 8 * 9  # past the 9 ids
        struct.pack_into("<I", raw, features, 0x7F800001)
        path.write_bytes(bytes(raw))
        with pytest.raises(CodecError, match="contains non-finite entries"):
            BundleReader(tmp_path / "b").finetune

    def test_corrupt_part_raises_when_read(self, tmp_path):
        write_bundle(tmp_path / "b", small_bundle())
        path = tmp_path / "b" / "pretrain.arft"
        raw = bytearray(path.read_bytes())
        raw[0] ^= 0x01
        path.write_bytes(bytes(raw))
        reader = BundleReader(tmp_path / "b")
        assert len(reader.finetune) and len(reader.candidates)
        match = re.escape(f"{path}: magic b'@RFT', expected b'ARFT'")
        with pytest.raises(BadMagicError, match=match):
            reader.pretrain_pool
        with pytest.raises(CodecError, match=match):
            load_bundle(tmp_path / "b")

    @pytest.mark.parametrize("n_domains", BUNDLE_FILES)
    def test_writes_exactly_the_files_it_requires(self, tmp_path, n_domains):
        write_bundle(tmp_path / "b", small_bundle(n_domains=n_domains))
        assert sorted(p.name for p in (tmp_path / "b").iterdir()) == sorted(BUNDLE_FILES[n_domains])

    @pytest.mark.parametrize("n_domains,name", [(n, name) for n in BUNDLE_FILES
                                                for name in BUNDLE_FILES[n]])
    def test_missing_file_rejected_at_open(self, tmp_path, n_domains, name):
        write_bundle(tmp_path / "b", small_bundle(n_domains=n_domains))
        (tmp_path / "b" / name).unlink()
        for open_bundle in (BundleReader, load_bundle):
            with pytest.raises(FileNotFoundError, match=re.escape(name)):
                open_bundle(tmp_path / "b")

    def test_bundle_of_the_column_and_matrix_files_rejected_at_open(self, tmp_path):
        # Bundles written before the table format kept each set as an .arfc
        # column file and an .arfm matrix, a pair set as two of each.
        write_bundle(tmp_path / "b", small_bundle())
        old = tmp_path / "old"
        old.mkdir()
        (old / "gen_config.json").write_bytes((tmp_path / "b" / "gen_config.json").read_bytes())
        for stem in ["pretrain.image", "pretrain.text", "candidates.image", "candidates.text",
                     *BUNDLE_STEMS[2:]]:
            for suffix in (".arfc", ".arfm"):
                (old / (stem + suffix)).write_bytes(b"")
        for open_bundle in (BundleReader, load_bundle):
            with pytest.raises(FileNotFoundError, match=re.escape(str(old / "pretrain.arft"))):
                open_bundle(old)


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
        assert (tmp_path / "b" / "test_ds2.arft").exists()
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
        index = small_index()
        _fail_on_call(monkeypatch, fileio, "write_matrix", 1)
        with pytest.raises(OSError, match="disk full"):
            write_candidate_index(tmp_path / "idx", index)
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_restores_the_old_directory(self, tmp_path, monkeypatch):
        index = small_index()
        write_candidate_index(tmp_path / "idx", index)
        before = tree_bytes(tmp_path / "idx")
        _fail_on_call(monkeypatch, fileio.os, "rename", 2)
        with pytest.raises(OSError, match="disk full"):
            write_candidate_index(tmp_path / "idx", index)
        assert tree_bytes(tmp_path / "idx") == before
        assert [p.name for p in tmp_path.iterdir()] == ["idx"]

    @pytest.mark.parametrize("other", ["notes.txt", "gen_config.json"])
    def test_foreign_directory_is_not_replaced(self, tmp_path, other):
        index = small_index()
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

    def test_metrics_with_a_repeated_split_rejected(self, tmp_path):
        curve, _ = self.curve()
        write_metrics(tmp_path / "m.json", curve.rows[0][1])
        doc = json.loads((tmp_path / "m.json").read_text())
        doc["splits"].append({**doc["splits"][0], "accuracy_percent": 0.0})
        (tmp_path / "m.json").write_text(json.dumps(doc))
        with pytest.raises(CodecError, match=re.escape("m.json: repeated splits ['id']")):
            read_metrics(tmp_path / "m.json")

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
         ("alpha,id,zsl\n0.0,50.0,-inf\n", r"c.csv:2: zsl cell is -inf"),
         ("alpha,id,zsl,zsl,avg_ood\n0.0,50,10,20,15\n", r"c.csv: repeated columns \['zsl'\]"),
         ("alpha,id,alpha\n0.0,50,0.5\n", r"c.csv: repeated columns \['alpha'\]")],
    )
    def test_curve_cells_checked(self, tmp_path, text, match):
        (tmp_path / "c.csv").write_text(text)
        with pytest.raises(CodecError, match=match):
            read_curve_csv(tmp_path / "c.csv")
