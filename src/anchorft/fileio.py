"""Bit-exact artifact codecs: feature sets, checkpoints, indexes, bundles.

Feature matrices are stored at 32-bit precision (file size) and upcast to
64-bit on read (gradient-check precision); that boundary is the only lossy
step in the pipeline. Index embeddings and checkpoints round-trip the full
64-bit values. All writes go to a temp file first and are renamed into
place, so readers never observe a half-written artifact.
"""

from __future__ import annotations

import dataclasses
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .anchors import CandidateIndex, CaptionRecord, PairSet, SampleSet
from .benchgen import BenchmarkBundle, GenConfig
from .encoders import MODALITIES, DualEncoderParams, EncoderParams
from .evaluation import EnsembleCurve, Metrics, PromptTable
from .numerics import as_float_array
from .training import Checkpoint, TrainConfig, checkpoint_id

__all__ = [
    "BadMagicError",
    "CodecError",
    "FeatureSet",
    "HashMismatchError",
    "ManifestRecord",
    "MissingFieldError",
    "RowCountMismatchError",
    "UnknownKeyError",
    "VersionUnsupportedError",
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


class HashMismatchError(CodecError):
    """Recomputed content hash disagrees with the stored one."""


class UnknownKeyError(CodecError):
    """A config or manifest carries a key this build does not define."""


# ---------------------------------------------------------------------------
# atomic primitives


def _atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write payload to a uniquely named temp file beside path, then rename it over path.

    Concurrent writers never share a temp file; a failed write removes its own.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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


def read_jsonl(path) -> list[dict]:
    records = []
    for lineno, line in enumerate(Path(path).read_text("utf-8").splitlines(), start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise CodecError(f"{path}:{lineno}: not valid JSON ({exc})") from exc
    return records


def _require(doc: dict, keys: Sequence[str], where: str) -> None:
    missing = [k for k in keys if k not in doc]
    if missing:
        raise MissingFieldError(f"{where}: missing fields {missing}")


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


@dataclass(frozen=True)
class ManifestRecord:
    """One row of a feature set: identity and tags, features live in the matrix."""

    id: int
    kind: str
    class_id: int | None = None
    domain_id: int | None = None


@dataclass
class FeatureSet:
    """Ordered manifest records plus the matrix whose row i belongs to record i."""

    records: list[ManifestRecord]
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = as_float_array(self.matrix, name="feature matrix")
        if self.matrix.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if len(self.records) != self.matrix.shape[0]:
            raise RowCountMismatchError(
                f"{len(self.records)} manifest records vs {self.matrix.shape[0]} matrix rows"
            )
        ids = [r.id for r in self.records]
        if len(set(ids)) != len(ids):
            raise ValueError("feature set ids must be unique")


def _manifest_path(stem) -> Path:
    return Path(str(stem) + ".manifest.jsonl")


def _matrix_path(stem) -> Path:
    return Path(str(stem) + ".arfm")


def write_feature_set(stem, feature_set: FeatureSet) -> None:
    lines = []
    for r in feature_set.records:
        lines.append(
            json.dumps(
                {"id": r.id, "class_id": r.class_id, "domain_id": r.domain_id, "kind": r.kind}
            )
        )
    write_text(_manifest_path(stem), "".join(line + "\n" for line in lines))
    write_matrix(_matrix_path(stem), feature_set.matrix, FEATURE_MAGIC)


def read_feature_set(stem) -> FeatureSet:
    manifest = _manifest_path(stem)
    records = []
    for doc in read_jsonl(manifest):
        unknown = sorted(set(doc) - set(_MANIFEST_KEYS))
        if unknown:
            raise UnknownKeyError(f"{manifest}: unknown manifest keys {unknown}")
        _require(doc, ("id", "kind"), str(manifest))
        records.append(
            ManifestRecord(
                id=int(doc["id"]),
                kind=str(doc["kind"]),
                class_id=doc.get("class_id"),
                domain_id=doc.get("domain_id"),
            )
        )
    matrix = read_matrix(_matrix_path(stem), FEATURE_MAGIC)
    return FeatureSet(records=records, matrix=matrix)


# ---------------------------------------------------------------------------
# checkpoints


def _tower_doc(tower: EncoderParams) -> dict:
    return {name: leaf.tolist() for name, leaf in zip(EncoderParams._fields, tower)}


def _params_from_doc(doc: dict, where: str) -> DualEncoderParams:
    """Pack the named leaves of both towers and log_tau into one theta vector."""
    leaves = []
    for modality in MODALITIES:
        tower = doc[modality]
        _require(tower, EncoderParams._fields, f"{where}: {modality} tower")
        leaves += [np.array(tower[name], dtype=np.float64) for name in EncoderParams._fields]
    image_w1, _, image_w2, _, text_w1, _, _, _ = leaves
    if image_w1.ndim != 2 or image_w2.ndim != 2 or text_w1.ndim != 2:
        raise CodecError(f"{where}: w1 and w2 must be matrices")
    dims = (image_w1.shape[1], text_w1.shape[1], image_w1.shape[0], image_w2.shape[0])
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
    """Directory with a meta JSON and two 64-bit embedding matrices."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    write_json(
        dir_path / "meta.json",
        {
            "version": INDEX_VERSION,
            "source_checkpoint_id": index.source_checkpoint_id,
            "candidate_ids": list(index.candidate_ids),
        },
    )
    write_matrix(dir_path / "image_embeddings.arfi", index.image_embeddings, EMBEDDING_MAGIC)
    write_matrix(dir_path / "text_embeddings.arfi", index.text_embeddings, EMBEDDING_MAGIC)


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
    ids = [int(c) for c in meta["candidate_ids"]]
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

def _records(ids, kind: str, class_ids=None, domain_ids=None) -> list[ManifestRecord]:
    """One manifest record per id; the manifest is one JSON line per row."""
    tags = [[None] * len(ids) if c is None else np.asarray(c).tolist()
            for c in (ids, class_ids, domain_ids)]
    return [ManifestRecord(i, kind, c, d) for i, c, d in zip(*tags)]


def _write_samples(stem: Path, samples: SampleSet) -> None:
    records = _records(samples.ids, "image", samples.class_ids, samples.domain_ids)
    write_feature_set(stem, FeatureSet(records, samples.features))


def _read_samples(stem: Path) -> SampleSet:
    fs = read_feature_set(stem)
    tags = [(r.id, r.class_id, r.domain_id) for r in fs.records]
    if any(None in tag for tag in tags):
        raise MissingFieldError(f"{stem}: sample records need class_id and domain_id")
    ids, class_ids, domain_ids = np.array(tags, dtype=np.int64).reshape(-1, 3).T
    return SampleSet(ids, fs.matrix, class_ids, domain_ids)


def _write_pairs(dir_path: Path, stem: str, pairs: PairSet) -> None:
    for side, matrix in (("image", pairs.images), ("text", pairs.texts)):
        records = _records(pairs.ids, f"pair_{side}")
        write_feature_set(dir_path / f"{stem}.{side}", FeatureSet(records, matrix))


def _read_pairs(dir_path: Path, stem: str) -> PairSet:
    image = read_feature_set(dir_path / f"{stem}.image")
    text = read_feature_set(dir_path / f"{stem}.text")
    ids = [r.id for r in image.records]
    if ids != [r.id for r in text.records]:
        raise CodecError(f"{dir_path}/{stem}: image and text manifests disagree on ids")
    return PairSet(ids, image.matrix, text.matrix)


def _prompt_set(prompts: PromptTable) -> FeatureSet:
    records = _records(prompts.class_ids, "prompt", class_ids=prompts.class_ids)
    return FeatureSet(records, prompts.prompt_features)


def write_bundle(dir_path, bundle: BenchmarkBundle) -> None:
    """One directory holding every artifact generate_benchmark produced."""
    dir_path = Path(dir_path)
    dir_path.mkdir(parents=True, exist_ok=True)
    write_json(dir_path / "gen_config.json", bundle.gen_config.to_dict())
    _write_pairs(dir_path, "pretrain", bundle.pretrain_pool)
    _write_pairs(dir_path, "candidates", bundle.candidates)
    _write_samples(dir_path / "finetune", bundle.finetune)
    write_feature_set(
        dir_path / "captions",
        FeatureSet(
            _records([c.sample_id for c in bundle.captions], "caption"),
            np.array([c.caption_feature for c in bundle.captions]),
        ),
    )
    write_feature_set(dir_path / "prompts_id", _prompt_set(bundle.prompts_id))
    write_feature_set(dir_path / "prompts_zsl", _prompt_set(bundle.prompts_zsl))
    _write_samples(dir_path / "test_id", bundle.id_test)
    for domain in sorted(bundle.ds_tests):
        _write_samples(dir_path / f"test_ds{domain}", bundle.ds_tests[domain])
    _write_samples(dir_path / "test_zsl", bundle.zsl_test)


def load_bundle(dir_path) -> BenchmarkBundle:
    """Rebuild a bundle from disk; features come back through the 32-bit store."""
    dir_path = Path(dir_path)
    config = parse_gen_config(read_json(dir_path / "gen_config.json"))
    captions_set = read_feature_set(dir_path / "captions")
    prompts = {}
    for name in ("prompts_id", "prompts_zsl"):
        fs = read_feature_set(dir_path / name)
        prompts[name] = PromptTable(
            class_ids=[r.id for r in fs.records], prompt_features=fs.matrix
        )
    return BenchmarkBundle(
        gen_config=config,
        id_class_ids=prompts["prompts_id"].class_ids,
        zsl_class_ids=prompts["prompts_zsl"].class_ids,
        pretrain_pool=_read_pairs(dir_path, "pretrain"),
        finetune=_read_samples(dir_path / "finetune"),
        captions=[
            CaptionRecord(sample_id=r.id, caption_feature=row)
            for r, row in zip(captions_set.records, captions_set.matrix)
        ],
        prompts_id=prompts["prompts_id"],
        prompts_zsl=prompts["prompts_zsl"],
        candidates=_read_pairs(dir_path, "candidates"),
        id_test=_read_samples(dir_path / "test_id"),
        ds_tests={
            domain: _read_samples(dir_path / f"test_ds{domain}")
            for domain in range(1, config.n_domains)
        },
        zsl_test=_read_samples(dir_path / "test_zsl"),
    )


# ---------------------------------------------------------------------------
# metrics and ensemble curves


def write_metrics(path, metrics: Metrics, checkpoint: str | None = None) -> None:
    doc = {"version": METRICS_VERSION, "checkpoint_id": checkpoint}
    doc.update(metrics.to_dict())
    write_json(path, doc)


def read_metrics(path) -> dict:
    doc = read_json(path)
    _require(doc, ("version", "splits", "avg_ood"), str(path))
    if doc["version"] != METRICS_VERSION:
        raise VersionUnsupportedError(
            f"{path}: version {doc['version']}, supported {METRICS_VERSION}"
        )
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
    """Returns (column names, one dict per row); empty cells come back as None."""
    lines = Path(path).read_text("utf-8").splitlines()
    if not lines:
        raise CodecError(f"{path}: empty curve file")
    header = lines[0].split(",")
    if header[0] != "alpha":
        raise CodecError(f"{path}: first column must be alpha, got {header[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise RowCountMismatchError(
                f"{path}:{lineno}: {len(cells)} cells for {len(header)} columns"
            )
        rows.append(
            {name: (None if cell == "" else float(cell)) for name, cell in zip(header, cells)}
        )
    return header, rows
