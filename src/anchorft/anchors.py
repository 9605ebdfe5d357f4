"""Columnar datasets, anchor supervision, retrieval, and batch assembly.

A SampleSet holds a labeled split and a PairSet holds (image, text) pairs:
the pretraining pool, the candidate pool, and each step's anchor pairs.

Two kinds of anchors regularize finetuning: caption pairs attached to each
finetune sample, and image-text pairs retrieved from a fixed candidate pool
by embedding similarity. Retrieval is exact brute force over the pool; the
index is computed once from a checkpoint and never refreshed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable, Iterable, Mapping

import numpy as np

from .encoders import DualEncoderParams, encode_batch, param_fingerprint
from .numerics import as_float_array

__all__ = [
    "AnchorBatch",
    "CandidateIndex",
    "CandidatePair",
    "CaptionRecord",
    "CheckpointMismatchError",
    "MissingAssignmentError",
    "MissingCaptionError",
    "PairSet",
    "RETRIEVAL_MODES",
    "Sample",
    "SampleSet",
    "assemble_anchor_batch",
    "attach_captions",
    "build_candidate_index",
    "lookup_rows",
    "retrieve",
]

# First letter: query side (v = image tower, t = text tower on the class
# prompt). Second letter: which indexed embeddings are searched.
RETRIEVAL_MODES = ("v2t", "v2v", "t2t", "t2v")

ANCHOR_LAYOUTS = ("sep", "merge")


class MissingCaptionError(KeyError):
    """A sample had no caption available."""


class MissingAssignmentError(KeyError):
    """A batch sample had no precomputed retrieval assignment."""


class CheckpointMismatchError(ValueError):
    """Index and query parameters came from different checkpoints."""


@dataclass(frozen=True)
class Sample:
    """One labeled image-side data point: a row of a SampleSet."""

    id: int
    feature: np.ndarray
    class_id: int
    domain_id: int


@dataclass(frozen=True)
class CaptionRecord:
    """Caption feature attached to a sample."""

    sample_id: int
    caption_feature: np.ndarray


@dataclass(frozen=True)
class CandidatePair:
    """One (image, text) pair: a row of a PairSet."""

    id: int
    image_feature: np.ndarray
    text_feature: np.ndarray


class _Columns:
    """A set whose dataclass fields are columns with one entry per row.

    Checked once, when built: the fields named in _matrices become finite
    2-D float64 matrices, the others int64 vectors, every column has the
    same number of rows, and ids are unique. An int index gives one row as
    _row; a slice or an index array gives a set of the same kind.
    """

    _row: type
    _matrices: tuple[str, ...]

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name in self._matrices:
                column, ndim = as_float_array(value, name=f.name), 2
            else:
                column, ndim = np.asarray(value, dtype=np.int64), 1
            if column.ndim != ndim:
                raise ValueError(f"{f.name} must be {ndim}-D, got shape {column.shape}")
            setattr(self, f.name, column)
        if len({len(getattr(self, f.name)) for f in fields(self)}) != 1:
            raise ValueError("every column needs one entry per row")
        if np.unique(self.ids).size != self.ids.size:
            raise ValueError("ids must be unique")

    def __len__(self) -> int:
        return self.ids.size

    def __iter__(self):
        columns = [getattr(self, f.name) for f in fields(self)]
        return map(self._row, *(c.tolist() if c.ndim == 1 else c for c in columns))

    def __getitem__(self, key):
        columns = [getattr(self, f.name)[key] for f in fields(self)]
        if isinstance(key, (int, np.integer)):
            return self._row(*(c.item() if c.ndim == 0 else c for c in columns))
        return type(self)(*columns)


@dataclass(eq=False)
class SampleSet(_Columns):
    """Labeled samples as columns; row i is (ids[i], features[i], class_ids[i], domain_ids[i])."""

    _row, _matrices = Sample, ("features",)
    ids: np.ndarray
    features: np.ndarray
    class_ids: np.ndarray
    domain_ids: np.ndarray


@dataclass(eq=False)
class PairSet(_Columns):
    """(image, text) pairs as columns; row i is (ids[i], images[i], texts[i])."""

    _row, _matrices = CandidatePair, ("images", "texts")
    ids: np.ndarray
    images: np.ndarray
    texts: np.ndarray

    def concat(self, other: "PairSet") -> "PairSet":
        """This set's rows followed by other's; the ids of both must be disjoint."""
        return PairSet(
            np.concatenate([self.ids, other.ids]),
            np.concatenate([self.images, other.images]),
            np.concatenate([self.texts, other.texts]),
        )


def lookup_rows(ids, wanted) -> np.ndarray:
    """Row position in the unique id column `ids` of each id in `wanted`.

    Raises KeyError naming the first id of `wanted` that `ids` lacks.
    """
    ids = np.asarray(ids, dtype=np.int64)
    wanted = np.asarray(wanted, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    at = np.searchsorted(ids, wanted, sorter=order)
    found = at < ids.size
    found[found] = ids[order[at[found]]] == wanted[found]
    if not found.all():
        raise KeyError(int(wanted[~found][0]))
    return order[at]


@dataclass
class CandidateIndex:
    """Precomputed pool embeddings; row i belongs to candidate_ids[i]."""

    candidate_ids: list[int]
    image_embeddings: np.ndarray
    text_embeddings: np.ndarray
    source_checkpoint_id: str

    def __post_init__(self):
        n = len(self.candidate_ids)
        if len(set(self.candidate_ids)) != n:
            raise ValueError("candidate ids must be unique")
        if self.image_embeddings.shape[0] != n or self.text_embeddings.shape[0] != n:
            raise ValueError("embedding row count must match candidate_ids")

    @property
    def size(self) -> int:
        return len(self.candidate_ids)


@dataclass
class AnchorBatch:
    """Anchor pairs for one training step.

    In the `sep` layout caption and retrieved pairs feed two separate loss
    terms; `merge` concatenates retrieved pairs onto caption_pairs and leaves
    retrieved_pairs empty, so it needs sample and candidate ids to be
    disjoint, as generate_benchmark's are. skip_ret records that fewer than
    two unique retrieved pairs were available (a 1-pair contrastive term is
    degenerate).
    """

    caption_pairs: PairSet
    retrieved_pairs: PairSet
    layout: str
    skip_ret: bool


def attach_captions(
    samples: Iterable[Sample],
    provider: Callable[[Sample], np.ndarray],
) -> list[CaptionRecord]:
    """Fetch one caption feature per sample, in sample order.

    The provider must be a deterministic function of the sample; any failure
    (or a non-finite result) is surfaced as MissingCaptionError.
    """
    records = []
    for sample in samples:
        try:
            feature = as_float_array(provider(sample), name=f"caption for sample {sample.id}")
        except (MissingCaptionError, KeyError, ValueError) as exc:
            raise MissingCaptionError(f"no caption for sample {sample.id}") from exc
        records.append(CaptionRecord(sample_id=sample.id, caption_feature=feature))
    return records


def build_candidate_index(params: DualEncoderParams, candidates: PairSet) -> CandidateIndex:
    """Embed every candidate pair once; row order follows the input order."""
    if not len(candidates):
        raise ValueError("candidate pool is empty")
    image_emb, _ = encode_batch(params, "image", candidates.images)
    text_emb, _ = encode_batch(params, "text", candidates.texts)
    return CandidateIndex(
        candidate_ids=candidates.ids.tolist(),
        image_embeddings=image_emb,
        text_embeddings=text_emb,
        source_checkpoint_id=param_fingerprint(params),
    )


def retrieve(
    index: CandidateIndex,
    query_features: np.ndarray,
    params: DualEncoderParams,
    mode: str,
    k: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k retrieval for a matrix of raw query features, one row per query.

    Scores are inner products between the encoded query and the indexed side
    selected by `mode`. Returns (candidate_ids, scores), both (n_queries, k):
    row q holds query q's top k in strictly descending score order, equal
    scores broken toward the lower candidate id. The k argmax passes run
    over columns ordered by candidate id, and argmax picks the first of
    equal maxima.
    """
    if mode not in RETRIEVAL_MODES:
        raise ValueError(f"mode must be one of {RETRIEVAL_MODES}, got {mode!r}")
    if not 1 <= k <= index.size:
        raise ValueError(f"k must be in [1, {index.size}], got {k}")
    fingerprint = param_fingerprint(params)
    if fingerprint != index.source_checkpoint_id:
        raise CheckpointMismatchError(
            "query params do not match the checkpoint that built the index"
        )

    modality = "image" if mode[0] == "v" else "text"
    side = index.text_embeddings if mode[-1] == "t" else index.image_embeddings
    ids = np.asarray(index.candidate_ids, dtype=np.int64)
    order = np.argsort(ids, kind="stable")
    query_emb, _ = encode_batch(params, modality, query_features)
    scores = query_emb @ side[order].T

    queries = np.arange(scores.shape[0])
    top_ids = np.empty((queries.size, k), dtype=np.int64)
    top_scores = np.empty((queries.size, k))
    for rank in range(k):
        best = np.argmax(scores, axis=1)
        top_ids[:, rank] = ids[order[best]]
        top_scores[:, rank] = scores[queries, best]
        scores[queries, best] = -np.inf
    return top_ids, top_scores


def assemble_anchor_batch(
    batch: SampleSet,
    captions: np.ndarray,
    assignments: Mapping[int, np.ndarray] | None,
    candidates: PairSet | None,
    layout: str = "sep",
) -> AnchorBatch:
    """Collect anchor pairs for one batch of samples.

    captions holds one caption feature row per batch row, so caption pairs
    keep batch order. assignments maps a sample id to its ranked candidates
    as row positions in `candidates`; pass None when retrieval anchors are
    disabled. Retrieved pairs are the batch's ranked candidates (each
    sample's in rank order, samples in batch order) deduped with the first
    occurrence winning; a duplicated pair would appear as its own false
    negative in the contrastive term.
    """
    if layout not in ANCHOR_LAYOUTS:
        raise ValueError(f"layout must be one of {ANCHOR_LAYOUTS}, got {layout!r}")

    caption_pairs = PairSet(batch.ids, batch.features, captions)
    if assignments is None:
        retrieved_pairs = caption_pairs[:0]
    else:
        try:
            ranked = np.concatenate([assignments[i] for i in batch.ids.tolist()])
        except KeyError as exc:
            raise MissingAssignmentError(
                f"no retrieval assignment for sample {exc.args[0]}"
            ) from None
        _, first = np.unique(ranked, return_index=True)
        retrieved_pairs = candidates[ranked[np.sort(first)]]

    skip_ret = len(retrieved_pairs) < 2
    if layout == "merge":
        return AnchorBatch(
            caption_pairs.concat(retrieved_pairs), caption_pairs[:0], layout, skip_ret
        )
    return AnchorBatch(caption_pairs, retrieved_pairs, layout, skip_ret)
