"""Bit-exact artifact codecs: sets, checkpoints, indexes, bundles.

Every set (a sample split, captions, a prompt table, a pair set, a
candidate index) is one table file: one magic, a JSON header of its kind,
row count and columns, then each column as one little-endian block. A
checkpoint is one JSON document whose parameter vector is a base64 string
of its little-endian float64 bytes. Bundle
matrices are stored at 32-bit precision (file size) and upcast to 64-bit on
read (gradient-check precision); that boundary is the only lossy step in the
pipeline. Index embeddings and checkpoints round-trip the full 64-bit
values. All writes go to a temp file first and are renamed into place, so
readers never observe a half-written artifact; a directory artifact is
built in a temp directory and renamed into place the same way.
"""

from __future__ import annotations

import base64
import contextlib
import dataclasses
import errno
import json
import math
import os
import shutil
import struct
import sys
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .anchors import CandidateIndex, CaptionSet, PairSet, PromptTable, SampleSet, _column_names
from .benchgen import BenchmarkBundle, GenConfig
from .encoders import DualEncoderParams, _leaf_at, _param_count
from .evaluation import EnsembleCurve, Metrics
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

TABLE_MAGIC = b"ARFT"
TABLE_VERSION = 1
CHECKPOINT_VERSION = 3
INDEX_VERSION = 2
METRICS_VERSION = 1

_PREFIX = struct.Struct("<4sII")  # magic, version, header length


class CodecError(ValueError):
    """An artifact violates its format contract."""


class BadMagicError(CodecError):
    """The file does not start with the expected magic bytes."""


class VersionUnsupportedError(CodecError):
    """The file declares a format version this codec cannot read."""


class RowCountMismatchError(CodecError):
    """A payload or a column holds another number of rows than its header or its peers."""


class MissingFieldError(CodecError):
    """A required field is absent from a structured artifact."""


class FieldTypeError(CodecError):
    """A field has the wrong type, e.g. an id or tag that is not a 64-bit integer."""


class HashMismatchError(CodecError):
    """Recomputed content hash disagrees with the stored one."""


class UnknownKeyError(CodecError):
    """A config or table file carries a key or column this build does not define."""


class WidthMismatchError(CodecError):
    """A table column does not have the width its kind and gen_config declare."""


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


def _read_text(path) -> str:
    """A file's UTF-8 text; bytes that are not UTF-8 raise CodecError naming the file."""
    try:
        return Path(path).read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise CodecError(f"{path}: not UTF-8 text ({exc})") from exc


def _decode_json(text, where: str, what: str = "not valid JSON"):
    """json.loads of text, or of bytes as UTF-8, for every JSON reader.

    Bad UTF-8, bad JSON and nesting deeper than the parser's recursion
    limit all raise CodecError "<where>: <what> (<reason>)", so no reader
    lets a UnicodeDecodeError or RecursionError out without its file.
    """
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except (ValueError, RecursionError) as exc:
        raise CodecError(f"{where}: {what} ({exc})") from exc


def read_json(path) -> dict:
    doc = _decode_json(_read_text(path), str(path))
    if not isinstance(doc, dict):
        raise CodecError(f"{path}: expected a JSON object")
    return doc


def write_jsonl(path, records: Iterable[dict]) -> None:
    write_text(path, "".join(json.dumps(r) + "\n" for r in records))


def read_jsonl(path) -> list:
    """json.loads of every non-blank line; a line it rejects raises CodecError naming the line."""
    lines = _read_text(path).splitlines()
    return [_decode_json(line, f"{path}:{lineno}")
            for lineno, line in enumerate(lines, start=1) if line.strip()]


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


def _show(value, render=json.dumps) -> str:
    """A parsed value as an error message shows it: rendered, cut to 60 characters.

    The parser lets in values nested a few levels deeper than render can
    recurse, so those show as a placeholder rather than raise RecursionError.
    """
    try:
        shown = render(value)
    except RecursionError:
        return "<a value nested too deep to show>"
    return shown if len(shown) <= 60 else shown[:57] + "..."


def _check(value, kind, label: str) -> None:
    """Raise FieldTypeError naming label and the value at fault (a list's first bad item)."""
    if _is(value, kind):
        return
    if type(kind) is list and type(value) is list:
        kind = kind[0]
        value = next(item for item in value if not _is(item, kind))
    raise FieldTypeError(f"{label}: {_show(value)} is not {_describe(kind)}")


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
        raise VersionUnsupportedError(f"{where}: version {_show(found, str)}, supported {version}")
    missing = [k for k in (["version"] if version else []) + list(types) if k not in doc]
    if missing:
        raise MissingFieldError(f"{where}: missing fields {missing}")
    for key, kind in types.items():
        _check(doc[key], kind, f"{where}: {key}")
    return doc


# ---------------------------------------------------------------------------
# table files


def write_matrix(path, kind: str, columns: list) -> None:
    """A table file of `kind` holding `columns`, (name, dtype, array) triples of one length.

    The file is TABLE_MAGIC, u32 LE version and header length, the compact
    JSON header {"kind": kind, "rows": n, "columns": [[name, dtype, width],
    ...]}, then each column as one contiguous little-endian block of its
    dtype (`<i8`, `<f4` or `<f8`): a 1-D array is one entry per row (width
    1), a matrix row-major. Each array is cast straight into the payload; a
    finite value too large for its dtype raises CodecError naming its column
    and the key (first column) of its row before a file is written.
    """
    arrays = [np.asarray(array) for _, _, array in columns]
    dtypes = [np.dtype(dtype) for _, dtype, _ in columns]
    rows = len(arrays[0])
    if any(len(array) != rows for array in arrays):
        raise RowCountMismatchError(f"{path}: every column needs {rows} rows")
    spec = [[name, dtype, array.shape[1] if array.ndim == 2 else 1]
            for (name, dtype, _), array in zip(columns, arrays)]
    header = {"kind": kind, "rows": rows, "columns": spec}
    header = json.dumps(header, separators=(",", ":")).encode()
    head = _PREFIX.pack(TABLE_MAGIC, TABLE_VERSION, len(header)) + header
    payload = bytearray(len(head) + sum(a.size * d.itemsize for a, d in zip(arrays, dtypes)))
    payload[: len(head)] = head
    at = len(head)
    for (name, _, _), array, dtype in zip(columns, arrays, dtypes):
        try:
            with np.errstate(over="raise"):
                np.frombuffer(payload, dtype, array.size, at)[...] = array.reshape(-1)
        except FloatingPointError:
            with np.errstate(over="ignore"):
                fits = np.isfinite(array.astype(dtype)).reshape(rows, -1).all(axis=1)
            raise CodecError(
                f"{path}: {name}: the row with {columns[0][0]} {arrays[0][~fits][0]} "
                f"does not fit in {dtype.str}"
            ) from None
        at += array.size * dtype.itemsize
    _atomic_write_bytes(Path(path), payload)


def read_matrix(path, kind: str, columns: list) -> dict:
    """{name: column} of a table file of `kind` whose header lists exactly `columns`.

    `columns` holds (name, dtype, width) triples in file order; a width of
    None accepts any positive width. Every check of the format applies:
    magic, version, a JSON header of kind, rows and columns, the column
    names, dtypes and widths, and a payload of exactly rows of them. An
    `<i8` column comes back as a 1-D int64 array, a float column as a
    float64 matrix. Blocks are read one at a time, so at most one column's
    stored copy is held in memory.
    """
    with open(path, "rb") as handle:
        file_size = os.fstat(handle.fileno()).st_size
        if file_size < _PREFIX.size:
            raise CodecError(f"{path}: shorter than the fixed header")
        magic, version, size = _PREFIX.unpack(handle.read(_PREFIX.size))
        if magic != TABLE_MAGIC:
            raise BadMagicError(f"{path}: magic {magic!r}, expected {TABLE_MAGIC!r}")
        if version != TABLE_VERSION:
            raise VersionUnsupportedError(f"{path}: version {version}, supported {TABLE_VERSION}")
        if file_size < _PREFIX.size + size:
            raise CodecError(f"{path}: the JSON header runs past the end of the file")
        header = _decode_json(handle.read(size), str(path), "the header is not valid JSON")
        rows, found = _table_header(path, header, kind, columns)
        payload = file_size - _PREFIX.size - size
        expected = sum(rows * width * np.dtype(dtype).itemsize for _, dtype, width in found)
        if payload != expected:
            raise RowCountMismatchError(
                f"{path}: payload holds {payload} bytes, the header claims {expected} "
                f"for {rows} rows"
            )
        out = {}
        for name, dtype, width in found:
            nbytes = rows * width * np.dtype(dtype).itemsize
            stored = handle.read(nbytes)
            if len(stored) != nbytes:
                raise RowCountMismatchError(f"{path}: the file shrank while it was read")
            column = np.frombuffer(stored, dtype)
            if dtype == "<i8":
                out[name] = column.astype(np.int64)
            else:
                with np.errstate(invalid="ignore"):  # a signalling NaN is left to the set's check
                    out[name] = column.astype(np.float64).reshape(rows, width)
    return out


def _table_header(path, header, kind: str, columns: list) -> tuple[int, list]:
    """(rows, columns) of a parsed table header, once it is exactly what read_matrix expects."""
    if type(header) is not dict or sorted(header) != ["columns", "kind", "rows"]:
        raise CodecError(f"{path}: the header must be a JSON object of kind, rows and columns")
    if header["kind"] != kind:
        raise CodecError(f"{path}: kind {_show(header['kind'], repr)}, expected {kind!r}")
    rows, found = header["rows"], header["columns"]
    if type(rows) is not int or rows < 0:
        raise FieldTypeError(f"{path}: rows {_show(rows)} is not a row count")
    if not _is(found, [list]) or any(len(c) != 3 or not _is(c[:2], [str]) for c in found):
        raise FieldTypeError(f"{path}: columns must be a JSON list of [name, dtype, width]")
    names, wanted = [c[0] for c in found], [c[0] for c in columns]
    unknown = sorted(set(names) - set(wanted))
    if unknown:
        raise UnknownKeyError(f"{path}: unknown columns {unknown}")
    missing = [name for name in wanted if name not in names]
    if missing:
        raise MissingFieldError(f"{path}: missing columns {missing}")
    if names != wanted:
        raise CodecError(f"{path}: columns {names} repeat or are out of the order {wanted}")
    for (name, dtype, width), (_, want_dtype, want_width) in zip(found, columns):
        if dtype != want_dtype:
            raise FieldTypeError(f"{path}: column {name} is {dtype}, expected {want_dtype}")
        if type(width) is not int or width < 1 or want_width not in (None, width):
            raise WidthMismatchError(
                f"{path}: column {name} is {_show(width)} wide, expected {want_width}"
            )
    return rows, found


# ---------------------------------------------------------------------------
# sets

# kind: (set type, the dtype its matrices are stored at). Bundle sets keep
# the 32-bit storage boundary; an index keeps its full 64-bit embeddings.
_SETS = {
    "samples": (SampleSet, "<f4"),
    "captions": (CaptionSet, "<f4"),
    "prompts": (PromptTable, "<f4"),
    "pairs": (PairSet, "<f4"),
    "index": (CandidateIndex, "<f8"),
}

# kind: (name, dtype) of each column of its table, the set type's columns in order.
_COLUMNS = {
    kind: [(name, dtype if name in cls._matrices else "<i8") for name in _column_names(cls)]
    for kind, (cls, dtype) in _SETS.items()
}


def write_feature_set(path, kind: str, table) -> None:
    """The table file of a set of `kind`: one column per array field of its set type.

    An int column holding anything but 64-bit integers raises FieldTypeError
    before a file is written.
    """
    columns = []
    for name, dtype in _COLUMNS[kind]:
        column = np.asarray(getattr(table, name))
        if dtype == "<i8" and column.dtype.kind != "i":
            _check(column.tolist(), [int], f"{path}: {name}")
        columns.append((name, dtype, column))
    write_matrix(path, kind, columns)


def read_feature_set(path, kind: str, widths: dict, *rest):
    """The set of `kind` in a table file, built by its checked constructor.

    The constructor gets the table's columns, then `rest` (an index's source
    checkpoint id). widths maps a matrix column to the width it must have;
    one it leaves out may have any width. The constructor's own checks (a
    non-finite row, a repeated key) raise CodecError naming the file.
    """
    spec = [(name, dtype, 1 if dtype == "<i8" else widths.get(name))
            for name, dtype in _COLUMNS[kind]]
    columns = read_matrix(path, kind, spec)
    try:
        return _SETS[kind][0](*columns.values(), *rest)
    except ValueError as exc:
        raise CodecError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# checkpoints


def write_checkpoint(path, ckpt: Checkpoint) -> None:
    """JSON with a fixed key order, dims and theta; the id is verifiable on read.

    theta is one base64 string of its little-endian float64 bytes.
    """
    doc = {
        "version": CHECKPOINT_VERSION,
        "provenance": ckpt.provenance,
        "config_fingerprint": ckpt.config_fingerprint,
        "id": ckpt.id,
        "dims": list(ckpt.params.dims),
        "theta": base64.b64encode(ckpt.params.theta.astype("<f8").tobytes()).decode("ascii"),
    }
    write_json(path, doc)


def read_checkpoint(path) -> Checkpoint:
    """A checkpoint whose fields, theta bytes, tau and id all check out, or CodecError.

    The checks run in order: the version, each field's JSON type, theta's
    base64, its byte count against dims, finite entries, the tau range and
    the id. Theta comes back as an owned, writable float64 array.
    """
    types = {"provenance": str, "config_fingerprint": str, "id": str, "dims": [int],
             "theta": str}
    doc = _fields(read_json(path), types, str(path), CHECKPOINT_VERSION)
    if len(doc["dims"]) != 4:
        raise FieldTypeError(f"{path}: dims must be four JSON integers")
    try:
        raw = base64.b64decode(doc["theta"], validate=True)
    except ValueError as exc:  # binascii.Error, or text that is not ASCII
        raise CodecError(f"{path}: theta is not base64 ({exc})") from exc
    count = _param_count(doc["dims"])
    if len(raw) != 8 * count:
        raise CodecError(
            f"{path}: theta holds {len(raw)} bytes, but dims {doc['dims']} have {count} "
            f"parameters ({8 * count} bytes)"
        )
    theta = np.frombuffer(raw, dtype="<f8").astype(np.float64)
    finite = np.isfinite(theta)
    if not finite.all():
        at = int(np.argmin(finite))
        raise FieldTypeError(
            f"{path}: theta[{at}] ({_leaf_at(at, doc['dims'])}) is {theta[at]}, not finite"
        )
    try:
        params = DualEncoderParams(theta, doc["dims"])
    except (ValueError, OverflowError) as exc:
        raise CodecError(f"{path}: {exc}") from exc
    expected = checkpoint_id(params, doc["config_fingerprint"], doc["provenance"])
    if expected != doc["id"]:
        raise HashMismatchError(f"{path}: stored id does not match recomputed content hash")
    return Checkpoint(params, doc["config_fingerprint"], doc["provenance"], doc["id"])


# ---------------------------------------------------------------------------
# candidate indexes


def write_candidate_index(dir_path, index: CandidateIndex) -> None:
    """Directory of a meta JSON and the 64-bit embeddings table, renamed into place."""
    with _atomic_dir(dir_path, "meta.json") as tmp:
        meta = {"version": INDEX_VERSION, "source_checkpoint_id": index.source_checkpoint_id}
        write_json(tmp / "meta.json", meta)
        write_feature_set(tmp / "embeddings.arft", "index", index)


def read_candidate_index(dir_path) -> CandidateIndex:
    """The index in dir_path, every check made once, by the table reader and CandidateIndex."""
    path = Path(dir_path) / "meta.json"
    meta = _fields(read_json(path), {"source_checkpoint_id": str}, str(path), INDEX_VERSION)
    return read_feature_set(
        Path(dir_path) / "embeddings.arft", "index", {}, meta["source_checkpoint_id"]
    )


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


# BenchmarkBundle field: (file stem, table kind), in the order write_bundle
# writes them. ds_tests is one test_ds<d> table per shifted domain d.
_BUNDLE_SETS = {
    "pretrain_pool": ("pretrain", "pairs"),
    "candidates": ("candidates", "pairs"),
    "finetune": ("finetune", "samples"),
    "captions": ("captions", "captions"),
    "prompts_id": ("prompts_id", "prompts"),
    "prompts_zsl": ("prompts_zsl", "prompts"),
    "id_test": ("test_id", "samples"),
    "ds_tests": ("test_ds", "samples"),
    "zsl_test": ("test_zsl", "samples"),
}


def _bundle_tables(config: GenConfig) -> Iterator[tuple[str, int | None, str, str]]:
    """(field, domain, file name, kind) of every table of a bundle of config, in write order.

    domain is the shifted domain of a ds_tests table and None for every other field.
    """
    for field, (stem, kind) in _BUNDLE_SETS.items():
        for domain in range(1, config.n_domains) if field == "ds_tests" else [None]:
            yield field, domain, f"{stem}{domain or ''}.arft", kind


def write_bundle(dir_path, bundle: BenchmarkBundle) -> None:
    """One directory holding every artifact generate_benchmark produced, renamed into place."""
    with _atomic_dir(dir_path, "gen_config.json") as tmp:
        write_json(tmp / "gen_config.json", bundle.gen_config.to_dict())
        for field, domain, name, kind in _bundle_tables(bundle.gen_config):
            part = getattr(bundle, field)
            write_feature_set(tmp / name, kind, part if domain is None else part[domain])


class BundleReader:
    """A bundle directory whose parts are read on first use, each with every check.

    Opening one parses gen_config.json strictly and checks that every file
    write_bundle writes is present, so a missing file raises
    FileNotFoundError naming it before any work starts. Every other
    BenchmarkBundle field is an attribute read from its table files on first
    access and cached after, with every check of read_feature_set: matrix
    widths are those gen_config gives (d_img_raw for images, d_txt_raw for
    captions, prompts and texts). Features come back through the 32-bit
    store.
    """

    def __init__(self, dir_path):
        self.path = Path(dir_path)
        self.gen_config = parse_gen_config(read_json(self.path / "gen_config.json"))
        for _, _, name, _ in _bundle_tables(self.gen_config):
            if not (self.path / name).is_file():
                raise FileNotFoundError(
                    errno.ENOENT, os.strerror(errno.ENOENT), str(self.path / name)
                )

    def __getattr__(self, field: str):
        """Read a field that is not cached yet from its tables, and cache it."""
        if field not in _BUNDLE_SETS:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {field!r}")
        image, text = self.gen_config.d_img_raw, self.gen_config.d_txt_raw
        parts = {}
        for owner, domain, name, kind in _bundle_tables(self.gen_config):
            if owner == field:
                widths = {"features": text if kind == "captions" else image, "images": image,
                          "texts": text, "prompt_features": text}
                parts[domain] = read_feature_set(self.path / name, kind, widths)
        value = parts if field == "ds_tests" else parts[None]
        setattr(self, field, value)
        return value


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
    """A metrics document, with the fields report reads type-checked and split names unique."""
    types = {"splits": [dict], "avg_ood": (float, type(None))}
    doc = _fields(read_json(path), types, str(path), METRICS_VERSION)
    for split in doc["splits"]:
        _check(split.get("split"), str, f"{path}: splits: split")
        _check(split.get("accuracy_percent"), float, f"{path}: splits: accuracy_percent")
    _check_unique(path, "splits", [split["split"] for split in doc["splits"]])
    return doc


def _check_unique(path, what: str, names: list) -> None:
    """Raise CodecError naming every name that appears more than once."""
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise CodecError(f"{path}: repeated {what} {repeated}")


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

    There must be at least one row. Column names are unique; the first must
    be alpha and one must be id, both set on every row. A cell that is not a
    finite number raises CodecError.
    """
    lines = _read_text(path).splitlines()
    if len(lines) < 2:
        raise CodecError(f"{path}: a curve needs a header and at least one row")
    header = lines[0].split(",")
    _check_unique(path, "columns", header)
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
