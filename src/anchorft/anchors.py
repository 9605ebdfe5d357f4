"""Columnar datasets, anchor supervision, retrieval, and batch assembly.

A SampleSet holds a labeled split, a CaptionSet the finetune captions, a
PromptTable the class prompts, and a PairSet (image, text) pairs: the
pretraining pool, the candidate pool, and each step's anchor pairs.

Two kinds of anchors regularize finetuning: caption pairs attached to each
finetune sample, and image-text pairs retrieved from a fixed candidate pool
by embedding similarity. Retrieval is exact brute force over the pool; the
index is computed once from a checkpoint and never refreshed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cache
from typing import Mapping, Sequence, get_type_hints

import numpy as np

from .encoders import DualEncoderParams, encode_batch, param_fingerprint

__all__ = [
    "AnchorBatch",
    "CandidateIndex",
    "CandidatePair",
    "CaptionRecord",
    "CaptionSet",
    "CheckpointMismatchError",
    "MissingAssignmentError",
    "MissingCaptionError",
    "PairSet",
    "PromptTable",
    "RETRIEVAL_MODES",
    "Sample",
    "SampleSet",
    "assemble_anchor_batch",
    "build_candidate_index",
    "lookup_rows",
    "retrieve",
]

# First letter: query side (v = image tower, t = text tower on the class
# prompt). Second letter: which indexed embeddings are searched.
RETRIEVAL_MODES = ("v2t", "v2v", "t2t", "t2v")

ANCHOR_LAYOUTS = ("sep", "merge")

# _top_k scores about this many (query, key) entries at a time.
_SCORE_BLOCK_ENTRIES = 1 << 18


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
    """Caption feature attached to a sample: a row of a CaptionSet."""

    sample_id: int
    caption_feature: np.ndarray


@dataclass(frozen=True)
class CandidatePair:
    """One (image, text) pair: a row of a PairSet."""

    id: int
    image_feature: np.ndarray
    text_feature: np.ndarray


@cache
def _column_names(cls) -> tuple[str, ...]:
    """The columns of a set type: its np.ndarray fields in order, the key first."""
    hints = get_type_hints(cls)
    return tuple(f.name for f in fields(cls) if hints[f.name] is np.ndarray)


def _check_columns(table, names) -> None:
    """Convert and check the columns `names` of table as _Columns describes; names[0] is the key."""
    rows = set()
    for name in names:
        ndim = 2 if name in table._matrices else 1
        column = np.asarray(getattr(table, name), dtype=np.float64 if ndim == 2 else np.int64)
        if column.ndim != ndim:
            raise ValueError(f"{name} must be {ndim}-D, got shape {column.shape}")
        setattr(table, name, column)
        rows.add(len(column))
    if len(rows) != 1:
        raise ValueError("every column needs one entry per row")
    key = getattr(table, names[0])
    if len(set(key.tolist())) != len(key):
        raise ValueError(f"{names[0]} must be unique")
    for name in table._matrices:
        matrix = getattr(table, name)
        if not np.isfinite(matrix).all():
            finite = np.isfinite(matrix).all(axis=1)
            raise ValueError(
                f"{type(table).__name__}.{name}: the row with {names[0]} "
                f"{key[~finite][0]} contains non-finite entries"
            )


class _Columns:
    """A set whose dataclass fields are columns with one entry per row.

    The first field is the key column. The dataclass constructor is the one
    checked way to build a set: the fields named in _matrices become finite
    2-D float64 matrices, the others int64 vectors, every column has the same
    number of rows, and keys are unique. A non-finite matrix row raises
    ValueError naming its key. _from_columns is the one unchecked way, for
    columns already known to pass. A slice of a checked set is valid, so it
    is built unchecked; an index array and concat go through the checked
    constructor, so a repeated row or a shared key raises. A set has no int
    index: an int or bool key raises TypeError. Iteration gives each row as
    _row.
    """

    _matrices: tuple[str, ...]

    @staticmethod
    def _row(*entries):
        """A row of a set without a row type: the tuple of its column entries."""
        return entries

    def __post_init__(self):
        _check_columns(self, _column_names(type(self)))

    @classmethod
    def _from_columns(cls, *columns):
        """A set over columns known to be consistent, with unique keys: nothing is checked."""
        out = cls.__new__(cls)
        out.__dict__.update(zip(_column_names(cls), columns))
        return out

    def __len__(self) -> int:
        return len(getattr(self, _column_names(type(self))[0]))

    def __iter__(self):
        columns = [getattr(self, name) for name in _column_names(type(self))]
        return map(self._row, *(c.tolist() if c.ndim == 1 else c for c in columns))

    def __getitem__(self, key):
        if isinstance(key, (int, np.integer, np.bool_)):
            column = self._matrices[0]
            raise TypeError(
                f"{type(self).__name__} has no int index; read one entry from a column, "
                f"such as {column}[{key}]"
            )
        columns = [getattr(self, name)[key] for name in _column_names(type(self))]
        if isinstance(key, slice):
            return self._from_columns(*columns)
        return type(self)(*columns)

    def concat(self, other):
        """This set's rows followed by other's; the keys of both must be disjoint."""
        return type(self)(*(
            np.concatenate([getattr(self, name), getattr(other, name)])
            for name in _column_names(type(self))
        ))


@dataclass(eq=False)
class SampleSet(_Columns):
    """Labeled samples as columns; row i is (ids[i], features[i], class_ids[i], domain_ids[i])."""

    _row, _matrices = Sample, ("features",)
    ids: np.ndarray
    features: np.ndarray
    class_ids: np.ndarray
    domain_ids: np.ndarray


@dataclass(eq=False)
class CaptionSet(_Columns):
    """Captions as columns; row i is the caption feature of sample ids[i]."""

    _row, _matrices = CaptionRecord, ("features",)
    ids: np.ndarray
    features: np.ndarray


@dataclass(eq=False)
class PairSet(_Columns):
    """(image, text) pairs as columns; row i is (ids[i], images[i], texts[i])."""

    _row, _matrices = CandidatePair, ("images", "texts")
    ids: np.ndarray
    images: np.ndarray
    texts: np.ndarray


@dataclass(eq=False)
class PromptTable(_Columns):
    """Class prompts as columns keyed by class id; row i is the prompt for class_ids[i]."""

    _matrices = ("prompt_features",)
    class_ids: np.ndarray
    prompt_features: np.ndarray


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
    """Precomputed pool embeddings; row i belongs to candidate_ids[i], an int64 column."""

    _matrices = ("image_embeddings", "text_embeddings")
    candidate_ids: np.ndarray
    image_embeddings: np.ndarray
    text_embeddings: np.ndarray
    source_checkpoint_id: str

    def __post_init__(self):
        _check_columns(self, _column_names(type(self)))
        if self.image_embeddings.shape[1] != self.text_embeddings.shape[1]:
            raise ValueError("image and text embeddings must be matrices of one width")

    @property
    def size(self) -> int:
        return self.candidate_ids.size


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


def build_candidate_index(params: DualEncoderParams, candidates: PairSet) -> CandidateIndex:
    """Embed every candidate pair once; row order follows the input order."""
    if not len(candidates):
        raise ValueError("candidate pool is empty")
    image_emb, _ = encode_batch(params, "image", candidates.images)
    text_emb, _ = encode_batch(params, "text", candidates.texts)
    return CandidateIndex(
        candidate_ids=candidates.ids,
        image_embeddings=image_emb,
        text_embeddings=text_emb,
        source_checkpoint_id=param_fingerprint(params),
    )


def _top_k(queries: np.ndarray, keys: np.ndarray, ids: np.ndarray, k: int):
    """(top_ids, top_scores), both (len(queries), k), by inner product with rows of keys.

    keys has one row per entry of ids. Row q holds query q's top k in
    strictly descending score order, equal scores broken toward the lower
    id: the k argmax passes run over columns ordered by id, and argmax picks
    the first of equal maxima.

    Scores are computed one block of query rows at a time, so peak memory is
    one block's scores (about 2**18 entries) rather than queries x keys.
    Every block has at least two rows unless there is one query: numpy
    sends a one-row product to gemv, which can round differently from gemm,
    while gemm over any block of two or more rows gives the bytes of one
    gemm over all the queries on the kernel the goldens pin.
    """
    order = np.argsort(ids, kind="stable")
    ids, columns = ids[order], keys[order].T
    n = len(queries)
    top_ids = np.empty((n, k), dtype=np.int64)
    top_scores = np.empty((n, k))
    rows = max(2, _SCORE_BLOCK_ENTRIES // len(ids))
    starts = list(range(0, n, rows))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()  # a one-row tail joins the block before it
    for start, stop in zip(starts, [*starts[1:], n]):
        scores = queries[start:stop] @ columns
        block = np.arange(stop - start)
        for rank in range(k):
            best = np.argmax(scores, axis=1)
            top_ids[start:stop, rank] = ids[best]
            top_scores[start:stop, rank] = scores[block, best]
            if rank + 1 < k:
                scores[block, best] = -np.inf
        # Free this block before the next product is allocated, so one block
        # is live at a time and malloc hands its memory to the next one.
        del scores
    return top_ids, top_scores


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
    scores broken toward the lower candidate id (see _top_k).
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
    query_emb, _ = encode_batch(params, modality, query_features)
    return _top_k(query_emb, side, index.candidate_ids, k)


def assemble_anchor_batch(
    batch: SampleSet,
    captions: np.ndarray,
    assignments: Mapping[int, Sequence[int]] | None,
    candidates: PairSet | None,
    layout: str = "sep",
) -> AnchorBatch:
    """Collect anchor pairs for one batch of samples.

    captions holds one caption feature row per batch row, so caption pairs
    keep batch order, carry the batch's ids and use batch.features itself
    as their image matrix. Its rows are not scanned here: finetune_batcher
    checks every caption once, before the first step, and encode_batch
    rejects a non-finite row.
    assignments maps a sample id to its ranked candidates as row positions
    in `candidates`; pass None when retrieval anchors are disabled.
    Retrieved pairs are the batch's ranked candidates (each sample's in rank
    order, samples in batch order) deduped with the first occurrence
    winning; a duplicated pair would appear as its own false negative in the
    contrastive term. Both pair sets are built unchecked: the batch's ids
    are unique, and so are the first-seen rows of the checked pool.
    """
    if layout not in ANCHOR_LAYOUTS:
        raise ValueError(f"layout must be one of {ANCHOR_LAYOUTS}, got {layout!r}")
    captions = np.asarray(captions, dtype=np.float64)
    if captions.ndim != 2 or len(captions) != len(batch):
        raise ValueError(
            f"captions must hold one row per batch row, got shape {captions.shape} "
            f"for {len(batch)} rows"
        )

    caption_pairs = PairSet._from_columns(batch.ids, batch.features, captions)
    if assignments is None:
        retrieved_pairs = caption_pairs[:0]
    else:
        try:
            ranked = [row for i in batch.ids.tolist() for row in assignments[i]]
        except KeyError as exc:
            raise MissingAssignmentError(
                f"no retrieval assignment for sample {exc.args[0]}"
            ) from None
        rows = np.fromiter(dict.fromkeys(ranked), np.int64)
        retrieved_pairs = PairSet._from_columns(
            candidates.ids[rows], candidates.images[rows], candidates.texts[rows]
        )

    skip_ret = len(retrieved_pairs) < 2
    if layout == "merge":
        return AnchorBatch(
            caption_pairs.concat(retrieved_pairs), caption_pairs[:0], layout, skip_ret
        )
    return AnchorBatch(caption_pairs, retrieved_pairs, layout, skip_ret)
