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
import math
import os
import shutil
import struct
import sys
from functools import cached_property
from pathlib import Path
from typing import Iterable

import numpy as np

from .anchors import CandidateIndex, CaptionSet, PairSet, PromptTable, SampleSet
from .benchgen import BenchmarkBundle, GenConfig
from .encoders import DualEncoderParams
from .evaluation import EnsembleCurve, Metrics
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
COLUMN_MAGIC = b"ARFC"  # int64 id and tag columns of a feature set
MATRIX_VERSION = 1
COLUMN_VERSION = 1
CHECKPOINT_VERSION = 2
INDEX_VERSION = 1
METRICS_VERSION = 1

_HEADER = struct.Struct("<III")  # version, rows, then cols (.arfm) or header length (.arfc)


class CodecError(ValueError):
    """An artifact violates its format contract."""


class BadMagicError(CodecError):
    """The file does not start with the expected magic bytes."""


class VersionUnsupportedError(CodecError):
    """The file declares a format version this codec cannot read."""


class RowCountMismatchError(CodecError):
    """Row counts disagree between a header, payload, or column file."""


class MissingFieldError(CodecError):
    """A required field is absent from a structured artifact."""


class FieldTypeError(CodecError):
    """A field has the wrong type, e.g. an id or tag that is not a 64-bit integer."""


class HashMismatchError(CodecError):
    """Recomputed content hash disagrees with the stored one."""


class UnknownKeyError(CodecError):
    """A config or column file carries a key or column this build does not define."""


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


def read_jsonl(path) -> list:
    """json.loads of every non-blank line; a line it rejects raises CodecError naming the line."""
    records = []
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
        if line.strip():
            try:
                records.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CodecError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
    return records


_KINDS = {int: "64-bit JSON integer", float: "finite JSON number", str: "JSON string",
          bool: "JSON boolean", dict: "JSON object", type(None): "JSON null"}


def _is(value, kind) -> bool:
    """Whether a parsed JSON value has the JSON type `kind` (see _fields)."""
    if type(kind) is tuple:
        return any(_is(value, k) for k in kind)
    if type(kind) is list:
        return type(value) is list and all(_is(item, kind[0]) for item in value)
    if kind is int:
        return type(value) is int and -(2**63) <= value < 2**63
    if kind is float:
        return (type(value) is float and math.isfinite(value)) or (
            type(value) is int and abs(value) <= sys.float_info.max
        )
    return type(value) is kind


def _check(value, kind, label: str) -> None:
    """Raise FieldTypeError naming label and the value at fault (a list's first bad item)."""
    if _is(value, kind):
        return
    if type(kind) is list and type(value) is list:
        kind = kind[0]
        value = next(item for item in value if not _is(item, kind))
    shown = json.dumps(value)
    shown = shown if len(shown) <= 60 else shown[:57] + "..."
    raise FieldTypeError(f"{label}: {shown} is not {_describe(kind)}")


def _describe(kind) -> str:
    if type(kind) is tuple:
        return " or ".join(map(_describe, kind))
    return f"a JSON list of {_KINDS[kind[0]]}s" if type(kind) is list else f"a {_KINDS[kind]}"


def _fields(doc: dict, types: dict, where: str, version: int | None = None) -> dict:
    """doc, once every field of `types` is present (MissingFieldError) and of its JSON type.

    A type is int (a JSON integer in int64 range), float (a finite JSON
    number: a float, or an integer in float range; never a bool), str, bool,
    dict, type(None) (null), [type] (a list of that type) or a tuple of
    types (any one of them). A mistyped field raises FieldTypeError starting
    "<where>: <field>". With `version`, doc["version"] must be that integer
    (VersionUnsupportedError), checked first: other versions have other fields.
    """
    found = doc.get("version", version)
    if version and (type(found) is not int or found != version):
        raise VersionUnsupportedError(f"{where}: version {found}, supported {version}")
    missing = [k for k in (["version"] if version else []) + list(types) if k not in doc]
    if missing:
        raise MissingFieldError(f"{where}: missing fields {missing}")
    for key, kind in types.items():
        _check(doc[key], kind, f"{where}: {key}")
    return doc


def _read_binary(path, magic: bytes, version: int) -> tuple:
    """(rows, the header's third u32, the rest of the file) of a file of this magic and version."""
    raw = Path(path).read_bytes()
    if len(raw) < 4 + _HEADER.size:
        raise CodecError(f"{path}: shorter than the fixed header")
    if raw[:4] != magic:
        raise BadMagicError(f"{path}: magic {raw[:4]!r}, expected {magic!r}")
    found, rows, third = _HEADER.unpack_from(raw, 4)
    if found != version:
        raise VersionUnsupportedError(f"{path}: version {found}, supported {version}")
    return rows, third, memoryview(raw)[4 + _HEADER.size :]


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
    rows, cols, body = _read_binary(path, magic, MATRIX_VERSION)
    dtype = np.dtype("<f4") if magic == FEATURE_MAGIC else np.dtype("<f8")
    if len(body) != rows * cols * dtype.itemsize:
        raise RowCountMismatchError(
            f"{path}: payload holds {len(body)} bytes, header claims {rows}x{cols}"
        )
    with np.errstate(invalid="ignore"):  # a signalling NaN is left to the caller's finite check
        return np.frombuffer(body, dtype=dtype).reshape(rows, cols).astype(np.float64)


# ---------------------------------------------------------------------------
# feature sets (int64 column file + matrix)

_COLUMNS = ("id", "class_id", "domain_id")


def _column_path(stem) -> Path:
    return Path(str(stem) + ".arfc")


def _matrix_path(stem) -> Path:
    return Path(str(stem) + ".arfm")


def write_feature_set(stem, kind: str, ids, matrix, class_ids=None, domain_ids=None) -> None:
    """An .arfc column file of the ids and given tags, then the 32-bit .arfm matrix.

    The column file is magic ARFC, u32 LE version/rows/header length, the
    compact JSON header {"kind": kind, "columns": names}, then each named
    column as LE int64: id first, then class_id and domain_id unless passed
    as None. Row i of the matrix belongs to row i of every column. Ids and
    tags must be 64-bit integers, as the reader requires: anything else
    raises FieldTypeError before a file is written.
    """
    n = len(matrix)
    columns = {}
    for name, column in zip(_COLUMNS, (ids, class_ids, domain_ids)):
        if column is not None:
            column = np.asarray(column)
            if column.dtype.kind != "i":
                _check(column.tolist(), [int], f"{stem}: {name}")
            columns[name] = column.astype("<i8", copy=False)
    if any(len(c) != n for c in columns.values()):
        raise RowCountMismatchError(f"{stem}: every id and tag column needs {n} rows")
    header = json.dumps({"kind": kind, "columns": list(columns)}, separators=(",", ":")).encode()
    payload = [COLUMN_MAGIC, _HEADER.pack(COLUMN_VERSION, n, len(header)), header]
    payload += [c.tobytes() for c in columns.values()]
    _atomic_write_bytes(_column_path(stem), b"".join(payload))
    write_matrix(_matrix_path(stem), matrix, FEATURE_MAGIC)


def _read_columns(path: Path, kind: str) -> dict:
    """{name: int64 column} of a column file whose header has `kind`, every check applied."""
    rows, size, body = _read_binary(path, COLUMN_MAGIC, COLUMN_VERSION)
    if len(body) < size:
        raise CodecError(f"{path}: the JSON header runs past the end of the file")
    try:
        header = json.loads(bytes(body[:size]).decode("utf-8"))
    except ValueError as exc:
        raise CodecError(f"{path}: the header is not valid JSON ({exc})") from exc
    if type(header) is not dict or sorted(header) != ["columns", "kind"]:
        raise CodecError(f"{path}: the header must be a JSON object of kind and columns")
    if header["kind"] != kind:
        raise CodecError(f"{path}: kind {header['kind']!r}, expected {kind!r}")
    names = header["columns"]
    if not _is(names, [str]):
        raise FieldTypeError(f"{path}: columns must be a JSON list of strings")
    unknown = sorted(set(names) - set(_COLUMNS))
    if unknown:
        raise UnknownKeyError(f"{path}: unknown columns {unknown}")
    if "id" not in names:
        raise MissingFieldError(f"{path}: missing fields ['id']")
    if names != [name for name in _COLUMNS if name in names]:
        raise CodecError(f"{path}: columns {names} repeat or are out of the order {_COLUMNS}")
    body = body[size:]
    if len(body) != 8 * rows * len(names):
        raise RowCountMismatchError(f"{path}: {len(body)} bytes for {len(names)}x{rows} int64")
    block = np.frombuffer(body, dtype="<i8").reshape(len(names), rows).astype(np.int64)
    return dict(zip(names, block))


def read_feature_set(stem, kind: str) -> tuple:
    """(ids, class_ids, domain_ids, matrix) of a feature set whose column file has `kind`.

    Ids and tags come back as int64 columns, and a tag column the file
    leaves out as None. The column file must hold exactly its header's
    columns of rows, and as many rows as the matrix.
    """
    columns = _read_columns(_column_path(stem), kind)
    matrix = read_matrix(_matrix_path(stem), FEATURE_MAGIC)
    if matrix.shape[0] != len(columns["id"]):
        raise RowCountMismatchError(
            f"{_column_path(stem)}: {len(columns['id'])} rows vs {matrix.shape[0]} matrix rows"
        )
    return (*map(columns.get, _COLUMNS), matrix)


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    """JSON with a fixed key order, dims and the theta vector; the id is verifiable on read."""
    doc = {
        "version": CHECKPOINT_VERSION,
        "provenance": ckpt.provenance,
        "config_fingerprint": ckpt.config_fingerprint,
        "id": ckpt.id,
        "dims": list(ckpt.params.dims),
        "theta": ckpt.params.theta.tolist(),
    }
    write_json(path, doc)


def read_checkpoint(path) -> Checkpoint:
    types = {"provenance": str, "config_fingerprint": str, "id": str, "dims": [int],
             "theta": [float]}
    doc = _fields(read_json(path), types, str(path), CHECKPOINT_VERSION)
    if len(doc["dims"]) != 4:
        raise FieldTypeError(f"{path}: dims must be four JSON integers")
    try:
        params = DualEncoderParams(np.array(doc["theta"], dtype=np.float64), doc["dims"])
    except (ValueError, OverflowError) as exc:
        raise CodecError(f"{path}: {exc}") from exc
    expected = checkpoint_id(params, doc["config_fingerprint"], doc["provenance"])
    if expected != doc["id"]:
        raise HashMismatchError(f"{path}: stored id does not match recomputed content hash")
    return Checkpoint(params, doc["config_fingerprint"], doc["provenance"], doc["id"])


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


def _read_embeddings(path: Path) -> np.ndarray:
    matrix = read_matrix(path, EMBEDDING_MAGIC)
    if not np.isfinite(matrix).all():
        raise CodecError(f"{path}: embeddings contain non-finite entries")
    return matrix


def read_candidate_index(dir_path) -> CandidateIndex:
    dir_path = Path(dir_path)
    types = {"source_checkpoint_id": str, "candidate_ids": [int]}
    meta = _fields(read_json(dir_path / "meta.json"), types, str(dir_path / "meta.json"),
                   INDEX_VERSION)
    image = _read_embeddings(dir_path / "image_embeddings.arfi")
    text = _read_embeddings(dir_path / "text_embeddings.arfi")
    ids = meta["candidate_ids"]
    if image.shape[0] != len(ids) or text.shape[0] != len(ids):
        raise RowCountMismatchError(
            f"{dir_path}: {len(ids)} candidate ids vs "
            f"{image.shape[0]}/{text.shape[0]} embedding rows"
        )
    return CandidateIndex(ids, image, text, meta["source_checkpoint_id"])


# ---------------------------------------------------------------------------
# strict configs


def _strict_config(doc: dict, cls):
    """cls(**doc), validated, once every key is a field of cls holding its default's JSON type.

    A tuple default types a JSON list of its items' type, and every number
    must be finite. Unknown keys raise UnknownKeyError; omitted keys fall to
    the defaults.
    """
    kinds = {
        f.name: [type(f.default[0])] if type(f.default) is tuple else type(f.default)
        for f in dataclasses.fields(cls)
    }
    unknown = sorted(set(doc) - set(kinds))
    if unknown:
        raise UnknownKeyError(f"unknown {cls.__name__} keys {unknown}")
    config = cls(**_fields(doc, {key: kinds[key] for key in doc}, cls.__name__))
    config.validate()
    return config


def parse_gen_config(doc: dict) -> GenConfig:
    return _strict_config(doc, GenConfig)


def parse_train_config(doc: dict) -> TrainConfig:
    return _strict_config(doc, TrainConfig)


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
        raise CodecError(f"{dir_path}/{stem}: image and text column files disagree on ids")
    return PairSet(ids, images, texts)


def _bundle_files(config: GenConfig) -> list[str]:
    """The name of every file write_bundle writes for a bundle of this config."""
    stems = [
        "pretrain.image", "pretrain.text", "candidates.image", "candidates.text", "finetune",
        "captions", "prompts_id", "prompts_zsl", "test_id",
        *(f"test_ds{domain}" for domain in range(1, config.n_domains)), "test_zsl",
    ]
    return ["gen_config.json", *(s + ext for s in stems for ext in (".arfc", ".arfm"))]


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
        """A set of a key column and one matrix: captions or prompts."""
        ids, _, _, matrix = _read_checked(self.path / stem, kind, self.gen_config.d_txt_raw)
        return cls(ids, matrix)


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


def read_metrics(path) -> dict:
    """A metrics document, with the fields report reads type-checked."""
    types = {"splits": [dict], "avg_ood": (float, type(None))}
    doc = _fields(read_json(path), types, str(path), METRICS_VERSION)
    for split in doc["splits"]:
        _check(split.get("split"), str, f"{path}: splits: split")
        _check(split.get("accuracy_percent"), float, f"{path}: splits: accuracy_percent")
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
    finite number raises CodecError.
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
            values = {name: (float(cell) if cell else None) for name, cell in row.items()}
        except ValueError as exc:
            raise CodecError(f"{path}:{lineno}: {exc}") from exc
        for name, value in values.items():
            if value is not None and not math.isfinite(value):
                raise CodecError(f"{path}:{lineno}: {name} cell is {value}, not a finite number")
        rows.append(values)
    return header, rows
