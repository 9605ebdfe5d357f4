"""Bit-exact artifact codecs: feature sets, checkpoints, indexes, bundles.

Feature matrices are stored at 32-bit precision (file size) and upcast to
64-bit on read (gradient-check precision); that boundary is the only lossy
step in the pipeline. Index embeddings and checkpoints round-trip the full
64-bit values. All writes go to a temp file first and are renamed into
place, so readers never observe a half-written artifact; a directory
artifact is built in a temp directory and renamed into place the same way.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import json
import os
import shutil
import struct
import sys
from functools import cached_property
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .anchors import CandidateIndex, CaptionSet, PairSet, SampleSet
from .benchgen import BenchmarkBundle, GenConfig
from .encoders import MODALITIES, DualEncoderParams, EncoderParams
from .evaluation import EnsembleCurve, Metrics, PromptTable
from .numerics import as_float_array
from .training import Checkpoint, TrainConfig, checkpoint_id

__all__ = [
    "BadMagicError",
    "BundleReader",
    "CodecError",
    "FieldTypeError",
    "HashMismatchError",
    "MissingFieldError",
    "RowCountMismatchError",
    "UnknownKeyError",
    "VersionUnsupportedError",
    "WidthMismatchError",
    "load_bundle",
    "parse_gen_config",
    "parse_train_config",
    "read_candidate_index",
    "read_checkpoint",
    "read_curve_csv",
    "read_feature_set",
    "read_json",
    "read_jsonl",
    "read_matrix",
    "read_metrics",
    "write_bundle",
    "write_candidate_index",
    "write_checkpoint",
    "write_curve_csv",
    "write_feature_set",
    "write_json",
    "write_jsonl",
    "write_matrix",
    "write_metrics",
    "write_text",
]

FEATURE_MAGIC = b"ARFM"  # 32-bit feature storage
EMBEDDING_MAGIC = b"ARFI"  # 64-bit embedding storage
MATRIX_VERSION = 1
CHECKPOINT_VERSION = 1
INDEX_VERSION = 1
METRICS_VERSION = 1

_HEADER = struct.Struct("<III")  # version, rows, cols


class CodecError(ValueError):
    """An artifact violates its format contract."""


class BadMagicError(CodecError):
    """The file does not start with the expected magic bytes."""


class VersionUnsupportedError(CodecError):
    """The file declares a format version this codec cannot read."""


class RowCountMismatchError(CodecError):
    """Row counts disagree between a header, payload, or manifest."""


class MissingFieldError(CodecError):
    """A required field is absent from a structured artifact."""


class FieldTypeError(CodecError):
    """A field has the wrong JSON type, e.g. an id or tag that is not a 64-bit integer."""


class HashMismatchError(CodecError):
    """Recomputed content hash disagrees with the stored one."""


class UnknownKeyError(CodecError):
    """A config or manifest carries a key this build does not define."""


class WidthMismatchError(CodecError):
    """A bundle matrix does not have the width its gen_config declares."""


# ---------------------------------------------------------------------------
# atomic primitives


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write payload to a uniquely named temp file beside path, then rename it over path.

    Concurrent writers never share a temp file; a failed write removes its own.
    """
    path = Path(path)
    tmp = _sibling(path, "tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _sibling(path: Path, suffix: str) -> Path:
    return path.with_name(f"{path.name}.{os.urandom(8).hex()}.{suffix}")


@contextlib.contextmanager
def _atomic_dir(dir_path, marker: str):
    """Yield a fresh temp directory beside dir_path, renamed onto dir_path when the body ends.

    An existing dir_path is replaced only once the new directory is
    complete, and only when it is a directory (not a symlink) that is empty
    or holds `marker`, the file every artifact of this kind has; anything
    else raises FileExistsError before a file is written. A failed write
    removes its temp directory and leaves dir_path as it was.
    """
    dir_path = Path(dir_path)
    if dir_path.is_symlink() or (dir_path.exists() and not (
        dir_path.is_dir() and ((dir_path / marker).is_file() or not any(dir_path.iterdir()))
    )):
        raise FileExistsError(
            f"{dir_path}: not an empty directory or one holding {marker}; not replacing it"
        )
    dir_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = _sibling(dir_path, "tmp")
    tmp.mkdir()
    try:
        yield tmp
        old = None
        if dir_path.exists():
            old = _sibling(dir_path, "old")
            os.rename(dir_path, old)
        try:
            os.rename(tmp, dir_path)
        except BaseException:
            if old is not None:
                os.rename(old, dir_path)
            raise
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise
    if old is not None:
        shutil.rmtree(old)


def write_text(path, text: str) -> None:
    """UTF-8 text, written to a temporary file and renamed into place."""
    _atomic_write_bytes(Path(path), text.encode("utf-8"))


def write_json(path, doc: dict) -> None:
    """JSON with fixed (insertion) key order and shortest round-trip floats."""
    write_text(path, json.dumps(doc, indent=2) + "\n")


def read_json(path) -> dict:
    try:
        doc = json.loads(Path(path).read_text("utf-8"))
    except json.JSONDecodeError as exc:
        raise CodecError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise CodecError(f"{path}: expected a JSON object")
    return doc


def write_jsonl(path, records: Iterable[dict]) -> None:
    write_text(path, "".join(json.dumps(r) + "\n" for r in records))


_DECODE = json.JSONDecoder().raw_decode
_JSON_SPACE = " \t\n\r"


def read_jsonl(path) -> list:
    """The JSON value of every non-blank line, each exactly what json.loads(line) gives.

    A line stripped of JSON whitespace must decode to its end in one
    raw_decode; any other line goes to json.loads, whose error is reported
    as a CodecError naming the line.
    """
    records = []
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        text = line.strip(_JSON_SPACE)
        try:
            value, end = _DECODE(text)
        except ValueError:
            end = None
        if end != len(text):
            try:
                value = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CodecError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
        records.append(value)
    return records


def _require(doc: dict, keys: Sequence[str], where: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise MissingFieldError(f"{where}: missing fields {missing}")


def _int_column(values: list, where: str) -> np.ndarray:
    """An int64 column of a JSON list; floats, strings, bools and nulls are rejected."""
    if type(values) is not list:
        raise FieldTypeError(f"{where}: expected a JSON list of integers")
    bad = [v for v in values if type(v) is not int or not -(2**63) <= v < 2**63]
    if bad:
        raise FieldTypeError(f"{where}: {json.dumps(bad[0])} is not a 64-bit JSON integer")
    return np.array(values, dtype=np.int64)


# ---------------------------------------------------------------------------
# binary matrices


def write_matrix(path, matrix: np.ndarray, magic: bytes = FEATURE_MAGIC) -> None:
    """Magic, then u32 LE version/rows/cols, then row-major LE floats.

    FEATURE_MAGIC stores 32-bit floats, EMBEDDING_MAGIC 64-bit.
    """
    matrix = as_float_array(matrix, name="matrix")
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    dtype = np.dtype("<f4") if magic == FEATURE_MAGIC else np.dtype("<f8")
    rows, cols = matrix.shape
    header = magic + _HEADER.pack(MATRIX_VERSION, rows, cols)
    payload = np.ascontiguousarray(matrix, dtype=dtype).tobytes()
    _atomic_write_bytes(Path(path), header + payload)


def read_matrix(path, magic: bytes = FEATURE_MAGIC) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 4 + _HEADER.size:
        raise CodecError(f"{path}: shorter than the fixed header")
    if raw[:4] != magic:
        raise BadMagicError(f"{path}: magic {raw[:4]!r}, expected {magic!r}")
    version, rows, cols = _HEADER.unpack_from(raw, 4)
    if version != MATRIX_VERSION:
        raise VersionUnsupportedError(f"{path}: version {version}, supported {MATRIX_VERSION}")
    dtype = np.dtype("<f4") if magic == FEATURE_MAGIC else np.dtype("<f8")
    body = raw[4 + _HEADER.size :]
    if len(body) != rows * cols * dtype.itemsize:
        raise RowCountMismatchError(
            f"{path}: payload holds {len(body)} bytes, header claims {rows}x{cols}"
        )
    return np.frombuffer(body, dtype=dtype).reshape(rows, cols).astype(np.float64)


# ---------------------------------------------------------------------------
# feature sets (manifest JSONL + matrix)

_MANIFEST_KEYS = ("id", "class_id", "domain_id", "kind")


def _manifest_path(stem) -> Path:
    return Path(str(stem) + ".manifest.jsonl")


def _matrix_path(stem) -> Path:
    return Path(str(stem) + ".arfm")


def write_feature_set(stem, kind: str, ids, matrix, class_ids=None, domain_ids=None) -> None:
    """A manifest line per row (id, class_id, domain_id, kind), then the 32-bit matrix.

    Row i of the matrix belongs to line i; a tag column given as None is
    null on every line. Every line is rendered from one template and equals
    json.dumps of the row's record. Ids and tags must be 64-bit integers, as
    the reader requires: anything else raises FieldTypeError before a file
    is written.
    """
    n = len(matrix)
    tags = {"class_id": class_ids, "domain_id": domain_ids}
    columns = {"id": ids, **{name: c for name, c in tags.items() if c is not None}}
    columns = {name: np.asarray(c).tolist() for name, c in columns.items()}
    if any(len(c) != n for c in columns.values()):
        raise RowCountMismatchError(f"{stem}: every id and tag column needs {n} rows")
    for name, values in columns.items():
        _int_column(values, f"{stem}: {name}")
    cells = [f'"{name}": ' + ("%d" if name in columns else "null") for name in ("id", *tags)]
    line = "{" + ", ".join(cells) + ', "kind": ' + json.dumps(kind).replace("%", "%%") + "}\n"
    write_text(_manifest_path(stem), "".join(map(line.__mod__, zip(*columns.values()))))
    write_matrix(_matrix_path(stem), matrix, FEATURE_MAGIC)


def _line_number(path, index: int) -> int:
    """The line of a JSONL file that read_jsonl returns as record `index`."""
    lines = Path(path).read_text("utf-8").splitlines()
    return [n for n, line in enumerate(lines, start=1) if line.strip()][index]


def read_feature_set(stem, kind: str) -> tuple:
    """(ids, class_ids, domain_ids, matrix) of a feature set whose lines all have `kind`.

    Every line must be a JSON object. Keys are checked once per distinct key
    layout and the columns are built a whole column at a time. Ids and tags
    come back as int64 columns. A tag column is None when a non-empty
    manifest has it null on every line; a null beside integers raises
    FieldTypeError.
    """
    manifest = _manifest_path(stem)
    docs = read_jsonl(manifest)
    if set(map(type, docs)) - {dict}:
        index = next(i for i, doc in enumerate(docs) if type(doc) is not dict)
        raise CodecError(f"{manifest}:{_line_number(manifest, index)}: expected a JSON object")
    for layout in dict.fromkeys(map(tuple, docs)):
        unknown = sorted(set(layout) - set(_MANIFEST_KEYS))
        if unknown:
            raise UnknownKeyError(f"{manifest}: unknown manifest keys {unknown}")
        _require(layout, ("id", "kind"), str(manifest))
    wrong = [doc["kind"] for doc in docs if doc["kind"] != kind]
    if wrong:
        raise CodecError(f"{manifest}: kind {wrong[0]!r}, expected {kind!r}")
    columns = [_int_column([doc["id"] for doc in docs], f"{manifest}: id")]
    for name in ("class_id", "domain_id"):
        values = [doc.get(name) for doc in docs]
        null = bool(values) and all(v is None for v in values)
        columns.append(None if null else _int_column(values, f"{manifest}: {name}"))
    matrix = read_matrix(_matrix_path(stem), FEATURE_MAGIC)
    if matrix.shape[0] != len(docs):
        raise RowCountMismatchError(
            f"{manifest}: {len(docs)} manifest lines vs {matrix.shape[0]} matrix rows"
        )
    return (*columns, matrix)


# ---------------------------------------------------------------------------
# checkpoints


def _tower_doc(tower: EncoderParams) -> dict:
    return {name: leaf.tolist() for name, leaf in zip(EncoderParams._fields, tower)}


def _params_from_doc(doc: dict, where: str) -> DualEncoderParams:
    """Pack the named leaves of both towers and log_tau into one theta vector."""
    leaves = []
    for modality in MODALITIES:
        tower = doc[modality]
        if type(tower) is not dict:
            raise FieldTypeError(f"{where}: the {modality} tower must be a JSON object")
        _require(tower, EncoderParams._fields, f"{where}: {modality} tower")
        for name in EncoderParams._fields:
            try:
                leaves.append(np.array(tower[name], dtype=np.float64))
            except (TypeError, ValueError) as exc:
                raise FieldTypeError(f"{where}: {modality} {name} is not numeric ({exc})") from exc
    image_w1, _, image_w2, _, text_w1, _, _, _ = leaves
    if image_w1.ndim != 2 or image_w2.ndim != 2 or text_w1.ndim != 2:
        raise CodecError(f"{where}: w1 and w2 must be matrices")
    dims = (image_w1.shape[1], text_w1.shape[1], image_w1.shape[0], image_w2.shape[0])
    if type(doc["log_tau"]) not in (int, float):
        raise FieldTypeError(f"{where}: log_tau {json.dumps(doc['log_tau'])} is not a JSON number")
    log_tau = np.array([float(doc["log_tau"])])
    params = DualEncoderParams(np.concatenate([leaf.ravel() for leaf in leaves] + [log_tau]), dims)
    if [leaf.shape for leaf in leaves] != [view.shape for view in (*params.image, *params.text)]:
        raise CodecError(f"{where}: encoder parameter shapes are inconsistent")
    return params


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    """JSON with a fixed key order; the id is verifiable on read."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "provenance": ckpt.provenance,
        "config_fingerprint": ckpt.config_fingerprint,
        "id": ckpt.id,
        "log_tau": ckpt.params.log_tau,
        "image": _tower_doc(ckpt.params.image),
        "text": _tower_doc(ckpt.params.text),
    }
    write_json(path, doc)


def read_checkpoint(path) -> Checkpoint:
    doc = read_json(path)
    _require(
        doc,
        ("version", "provenance", "config_fingerprint", "id", "log_tau", "image", "text"),
        str(path),
    )
    if doc["version"] != CHECKPOINT_VERSION:
        raise VersionUnsupportedError(
            f"{path}: version {doc['version']}, supported {CHECKPOINT_VERSION}"
        )
    for key in ("provenance", "config_fingerprint", "id"):
        if type(doc[key]) is not str:
            raise FieldTypeError(f"{path}: {key} must be a JSON string")
    params = _params_from_doc(doc, str(path))
    expected = checkpoint_id(params, doc["config_fingerprint"], doc["provenance"])
    if expected != doc["id"]:
        raise HashMismatchError(f"{path}: stored id does not match recomputed content hash")
    return Checkpoint(
        params=params,
        config_fingerprint=doc["config_fingerprint"],
        provenance=doc["provenance"],
        id=doc["id"],
    )


# ---------------------------------------------------------------------------
# candidate indexes


def write_candidate_index(dir_path, index: CandidateIndex) -> None:
    """Directory with a meta JSON and two 64-bit embedding matrices, renamed into place."""
    with _atomic_dir(dir_path, "meta.json") as tmp:
        write_json(
            tmp / "meta.json",
            {
                "version": INDEX_VERSION,
                "source_checkpoint_id": index.source_checkpoint_id,
                "candidate_ids": index.candidate_ids.tolist(),
            },
        )
        write_matrix(tmp / "image_embeddings.arfi", index.image_embeddings, EMBEDDING_MAGIC)
        write_matrix(tmp / "text_embeddings.arfi", index.text_embeddings, EMBEDDING_MAGIC)


def read_candidate_index(dir_path) -> CandidateIndex:
    dir_path = Path(dir_path)
    meta = read_json(dir_path / "meta.json")
    _require(meta, ("version", "source_checkpoint_id", "candidate_ids"), str(dir_path))
    if meta["version"] != INDEX_VERSION:
        raise VersionUnsupportedError(
            f"{dir_path}: version {meta['version']}, supported {INDEX_VERSION}"
        )
    image = read_matrix(dir_path / "image_embeddings.arfi", EMBEDDING_MAGIC)
    text = read_matrix(dir_path / "text_embeddings.arfi", EMBEDDING_MAGIC)
    ids = _int_column(meta["candidate_ids"], f"{dir_path / 'meta.json'}: candidate_ids")
    if image.shape[0] != len(ids) or text.shape[0] != len(ids):
        raise RowCountMismatchError(
            f"{dir_path}: {len(ids)} candidate ids vs "
            f"{image.shape[0]}/{text.shape[0]} embedding rows"
        )
    return CandidateIndex(
        candidate_ids=ids,
        image_embeddings=image,
        text_embeddings=text,
        source_checkpoint_id=meta["source_checkpoint_id"],
    )


# ---------------------------------------------------------------------------
# strict configs


def _strict_config(doc: dict, cls):
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - names)
    if unknown:
        raise UnknownKeyError(f"unknown {cls.__name__} keys {unknown}")
    return cls(**doc)


def parse_gen_config(doc: dict) -> GenConfig:
    """Strict parse: unknown keys rejected, omitted keys fall to defaults."""
    config = _strict_config(doc, GenConfig)
    config.validate()
    return config


def parse_train_config(doc: dict) -> TrainConfig:
    doc = dict(doc)
    if "enabled_losses" in doc:
        doc["enabled_losses"] = tuple(doc["enabled_losses"])
    config = _strict_config(doc, TrainConfig)
    config.validate()
    return config


# ---------------------------------------------------------------------------
# benchmark bundles

def _write_samples(stem: Path, samples: SampleSet) -> None:
    write_feature_set(
        stem, "image", samples.ids, samples.features, samples.class_ids, samples.domain_ids
    )


def _read_checked(stem: Path, kind: str, width: int) -> tuple:
    """read_feature_set, with the matrix width checked against the bundle's gen_config."""
    *columns, matrix = read_feature_set(stem, kind)
    if matrix.shape[1] != width:
        raise WidthMismatchError(
            f"{_matrix_path(stem)}: {matrix.shape[1]} columns, gen_config says {width}"
        )
    return (*columns, matrix)


def _read_samples(stem: Path, width: int) -> SampleSet:
    ids, class_ids, domain_ids, matrix = _read_checked(stem, "image", width)
    if class_ids is None or domain_ids is None:
        raise MissingFieldError(f"{stem}: sample records need class_id and domain_id")
    return SampleSet(ids, matrix, class_ids, domain_ids)


def _write_pairs(dir_path: Path, stem: str, pairs: PairSet) -> None:
    for side, matrix in (("image", pairs.images), ("text", pairs.texts)):
        write_feature_set(dir_path / f"{stem}.{side}", f"pair_{side}", pairs.ids, matrix)


def _read_pairs(dir_path: Path, stem: str, config: GenConfig) -> PairSet:
    image, text = dir_path / f"{stem}.image", dir_path / f"{stem}.text"
    ids, _, _, images = _read_checked(image, "pair_image", config.d_img_raw)
    text_ids, _, _, texts = _read_checked(text, "pair_text", config.d_txt_raw)
    if not np.array_equal(ids, text_ids):
        raise CodecError(f"{dir_path}/{stem}: image and text manifests disagree on ids")
    return PairSet(ids, images, texts)


def _read_keyed(stem: Path, kind: str, cls, width: int):
    """A set of a key column and one matrix: captions or prompts."""
    ids, _, _, matrix = _read_checked(stem, kind, width)
    return cls(ids, matrix)


def _bundle_files(config: GenConfig) -> list[str]:
    """The name of every file write_bundle writes for a bundle of this config."""
    stems = [
        "pretrain.image", "pretrain.text", "candidates.image", "candidates.text", "finetune",
        "captions", "prompts_id", "prompts_zsl", "test_id",
        *(f"test_ds{domain}" for domain in range(1, config.n_domains)), "test_zsl",
    ]
    return ["gen_config.json", *(s + ext for s in stems for ext in (".manifest.jsonl", ".arfm"))]


def write_bundle(dir_path, bundle: BenchmarkBundle) -> None:
    """One directory holding every artifact generate_benchmark produced, renamed into place."""
    with _atomic_dir(dir_path, "gen_config.json") as tmp:
        write_json(tmp / "gen_config.json", bundle.gen_config.to_dict())
        _write_pairs(tmp, "pretrain", bundle.pretrain_pool)
        _write_pairs(tmp, "candidates", bundle.candidates)
        _write_samples(tmp / "finetune", bundle.finetune)
        captions = bundle.captions
        write_feature_set(tmp / "captions", "caption", captions.ids, captions.features)
        for name in ("prompts_id", "prompts_zsl"):
            prompts = getattr(bundle, name)
            write_feature_set(
                tmp / name, "prompt", prompts.class_ids, prompts.prompt_features,
                prompts.class_ids,
            )
        _write_samples(tmp / "test_id", bundle.id_test)
        for domain in sorted(bundle.ds_tests):
            _write_samples(tmp / f"test_ds{domain}", bundle.ds_tests[domain])
        _write_samples(tmp / "test_zsl", bundle.zsl_test)


class BundleReader:
    """A bundle directory whose parts are read on first use, each with every check.

    Opening one parses gen_config.json strictly and checks that every file
    write_bundle writes is present, so a missing file raises
    FileNotFoundError naming it before any work starts. Every other
    BenchmarkBundle field is an attribute read and checked on first access
    and cached after: kinds, integer ids and tags, widths against
    gen_config (a matrix not d_img_raw or d_txt_raw wide raises
    WidthMismatchError), image/text id agreement and the set's own checks.
    Features come back through the 32-bit store.
    """

    def __init__(self, dir_path):
        self.path = Path(dir_path)
        self.gen_config = parse_gen_config(read_json(self.path / "gen_config.json"))
        for name in _bundle_files(self.gen_config):
            if not (self.path / name).is_file():
                raise FileNotFoundError(
                    errno.ENOENT, os.strerror(errno.ENOENT), str(self.path / name)
                )

    @cached_property
    def pretrain_pool(self) -> PairSet:
        return _read_pairs(self.path, "pretrain", self.gen_config)

    @cached_property
    def finetune(self) -> SampleSet:
        return _read_samples(self.path / "finetune", self.gen_config.d_img_raw)

    @cached_property
    def captions(self) -> CaptionSet:
        return self._prompts_or_captions("captions", "caption", CaptionSet)

    @cached_property
    def prompts_id(self) -> PromptTable:
        return self._prompts_or_captions("prompts_id", "prompt", PromptTable)

    @cached_property
    def prompts_zsl(self) -> PromptTable:
        return self._prompts_or_captions("prompts_zsl", "prompt", PromptTable)

    @cached_property
    def candidates(self) -> PairSet:
        return _read_pairs(self.path, "candidates", self.gen_config)

    @cached_property
    def id_test(self) -> SampleSet:
        return _read_samples(self.path / "test_id", self.gen_config.d_img_raw)

    @cached_property
    def ds_tests(self) -> dict[int, SampleSet]:
        return {
            domain: _read_samples(self.path / f"test_ds{domain}", self.gen_config.d_img_raw)
            for domain in range(1, self.gen_config.n_domains)
        }

    @cached_property
    def zsl_test(self) -> SampleSet:
        return _read_samples(self.path / "test_zsl", self.gen_config.d_img_raw)

    def _prompts_or_captions(self, stem: str, kind: str, cls):
        return _read_keyed(self.path / stem, kind, cls, self.gen_config.d_txt_raw)


def load_bundle(dir_path) -> BenchmarkBundle:
    """Every part of a bundle, read through a BundleReader in BenchmarkBundle field order."""
    reader = BundleReader(dir_path)
    return BenchmarkBundle(
        **{f.name: getattr(reader, f.name) for f in dataclasses.fields(BenchmarkBundle)}
    )


# ---------------------------------------------------------------------------
# metrics and ensemble curves


def write_metrics(path, metrics: Metrics, checkpoint: str | None = None) -> None:
    doc = {"version": METRICS_VERSION, "checkpoint_id": checkpoint}
    doc.update(metrics.to_dict())
    write_json(path, doc)


def _is_number(value) -> bool:
    """A JSON number that converts to a float: bools and ints past float range are not."""
    return type(value) is float or (type(value) is int and abs(value) <= sys.float_info.max)


def read_metrics(path) -> dict:
    """A metrics document, with the fields report reads type-checked."""
    doc = read_json(path)
    _require(doc, ("version", "splits", "avg_ood"), str(path))
    if doc["version"] != METRICS_VERSION:
        raise VersionUnsupportedError(
            f"{path}: version {doc['version']}, supported {METRICS_VERSION}"
        )
    splits = doc["splits"]
    if type(splits) is not list or not all(
        type(s) is dict and type(s.get("split")) is str and _is_number(s.get("accuracy_percent"))
        for s in splits
    ):
        raise FieldTypeError(
            f"{path}: splits must be a JSON list of objects with a string split "
            f"and a numeric accuracy_percent"
        )
    if doc["avg_ood"] is not None and not _is_number(doc["avg_ood"]):
        raise FieldTypeError(f"{path}: avg_ood must be a JSON number or null")
    return doc


def write_curve_csv(path, curve: EnsembleCurve) -> None:
    """Header alpha,<split names>,avg_ood; floats as shortest round-trip text."""
    names = curve.rows[0][1].split_names
    lines = [",".join(["alpha", *names, "avg_ood"])]
    for alpha, metrics in curve.rows:
        if metrics.split_names != names:
            raise ValueError("every sweep row must cover the same splits")
        cells = [repr(alpha)]
        cells += [repr(metrics.accuracy(n)) for n in names]
        cells.append("" if metrics.avg_ood is None else repr(metrics.avg_ood))
        lines.append(",".join(cells))
    write_text(path, "".join(line + "\n" for line in lines))


def read_curve_csv(path) -> tuple[list[str], list[dict]]:
    """Returns (column names, one dict per row); empty cells come back as None.

    There must be at least one row. The first column must be alpha and one
    column must be id; both are set on every row. A cell that is not a
    number raises CodecError.
    """
    lines = Path(path).read_text("utf-8").splitlines()
    if len(lines) < 2:
        raise CodecError(f"{path}: a curve needs a header and at least one row")
    header = lines[0].split(",")
    if header[0] != "alpha":
        raise CodecError(f"{path}: first column must be alpha, got {header[0]!r}")
    if "id" not in header:
        raise CodecError(f"{path}: no id column")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise RowCountMismatchError(
                f"{path}:{lineno}: {len(cells)} cells for {len(header)} columns"
            )
        row = dict(zip(header, cells))
        if not row["alpha"] or not row["id"]:
            raise CodecError(f"{path}:{lineno}: empty alpha or id cell")
        try:
            rows.append({name: (float(cell) if cell else None) for name, cell in row.items()})
        except ValueError as exc:
            raise CodecError(f"{path}:{lineno}: {exc}") from exc
    return header, rows
