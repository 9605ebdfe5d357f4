"""Columnar sets, candidate indexing, retrieval, and batch assembly."""

import re
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchorft import anchors
from anchorft.anchors import (
    CandidateIndex,
    CandidatePair,
    CaptionRecord,
    CaptionSet,
    CheckpointMismatchError,
    MissingAssignmentError,
    PairSet,
    PromptTable,
    RETRIEVAL_MODES,
    Sample,
    SampleSet,
    assemble_anchor_batch,
    build_candidate_index,
    lookup_rows,
    retrieve,
)
from anchorft.encoders import encode_batch, init_params
from anchorft.numerics import RandomStream


IMG_DIM, TXT_DIM = 6, 6


def make_params(seed=0):
    return init_params(seed, (IMG_DIM, TXT_DIM), 8, 4)


def make_samples(n, seed=0, dim=IMG_DIM):
    ids = np.arange(n)
    return SampleSet(ids, RandomStream(seed).normal_matrix(n, dim), ids % 3, np.zeros(n))


def make_candidates(n, seed=100, start_id=1000):
    stream = RandomStream(seed)
    images = stream.normal_matrix(n, IMG_DIM)
    return PairSet(start_id + np.arange(n), images, stream.normal_matrix(n, TXT_DIM))


def oracle_top_k(scores_row, ids, k):
    """Iterated masked argmax with an explicit lowest-id tie scan."""
    remaining = scores_row.astype(np.float64).copy()
    ids = np.asarray(ids)
    out = []
    for _ in range(k):
        best = remaining.max()
        tied = np.flatnonzero(remaining == best)
        winner = tied[np.argmin(ids[tied])]
        out.append(int(ids[winner]))
        remaining[winner] = -np.inf
    return out


class TestSets:
    def test_iteration_gives_rows(self):
        samples = make_samples(4)
        rows = list(samples)
        assert isinstance(rows[0], Sample) and isinstance(rows[0].id, int)
        assert [s.id for s in samples] == [0, 1, 2, 3]
        assert [s.class_id for s in samples] == [0, 1, 2, 0]
        assert np.array_equal(rows[-1].feature, samples.features[3])
        pair = list(make_candidates(3))[1]
        assert isinstance(pair, CandidatePair) and pair.id == 1001
        assert np.array_equal(pair.text_feature, make_candidates(3).texts[1])
        caption = list(CaptionSet([7, 3], np.eye(2)))[1]
        assert isinstance(caption, CaptionRecord) and caption.sample_id == 3
        assert caption.caption_feature.tolist() == [0.0, 1.0]

    def test_slices_and_index_arrays_give_sets(self):
        samples = make_samples(6)
        subset = samples[np.array([4, 1])]
        assert isinstance(subset, SampleSet) and len(subset) == 2
        assert subset.ids.tolist() == [4, 1]
        assert subset.features.tobytes() == samples.features[[4, 1]].tobytes()
        assert len(make_candidates(5)[:0]) == 0
        assert make_candidates(5)[:0].images.shape == (0, IMG_DIM)

    @pytest.mark.parametrize("key", [5, np.int64(2), True, np.bool_(False)])
    @pytest.mark.parametrize(
        "make, column",
        [(lambda: make_samples(6), "features"), (lambda: make_candidates(6), "images")],
    )
    def test_an_int_key_is_a_type_error_naming_a_column_read(self, make, column, key):
        # Sets have no int index; a bool is an int to Python and a mask to numpy.
        with pytest.raises(TypeError, match=re.escape(f"no int index") + ".*" + re.escape(
            f"such as {column}[{key}]"
        )):
            make()[key]

    def test_columns_must_have_one_entry_per_row(self):
        with pytest.raises(ValueError):
            SampleSet([0, 1], np.zeros((2, 3)), [0], [0, 0])
        with pytest.raises(ValueError):
            PairSet([0, 1], np.zeros((2, 3)), np.zeros((3, 3)))

    def test_features_must_be_finite_matrices(self):
        with pytest.raises(ValueError):
            SampleSet([0, 1], np.zeros(2), [0, 0], [0, 0])
        bad = np.zeros((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError):
            PairSet([0, 1], np.zeros((2, 3)), bad)

    def test_ids_must_be_unique(self):
        with pytest.raises(ValueError):
            SampleSet([3, 3], np.zeros((2, 2)), [0, 1], [0, 0])
        with pytest.raises(ValueError):
            make_candidates(2).concat(make_candidates(2))

    def test_the_first_column_is_the_key(self):
        bad = np.zeros((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(ValueError, match="PairSet.texts: the row with ids 7 contains"):
            PairSet([0, 7], np.zeros((2, 3)), bad)
        with pytest.raises(ValueError, match="prompt_features: the row with class_ids 9 contains"):
            PromptTable([4, 9], bad)
        with pytest.raises(ValueError, match="class_ids must be unique"):
            PromptTable([4, 4], np.zeros((2, 3)))
        prompts = PromptTable([4, 9], np.eye(2)).concat(PromptTable([1], np.ones((1, 2))))
        assert prompts.class_ids.tolist() == [4, 9, 1] and len(prompts) == 3
        assert list(prompts)[1][0] == 9  # a row starts with its key

    def test_concat_keeps_row_order(self):
        a, b = make_candidates(2), make_candidates(3, start_id=7)
        joined = a.concat(b)
        assert joined.ids.tolist() == [1000, 1001, 7, 8, 9]
        assert joined.texts.tobytes() == np.vstack([a.texts, b.texts]).tobytes()


def _columns(s):
    return [getattr(s, f.name) for f in fields(s)]


def _assert_same_columns(got, want):
    for a, b in zip(_columns(got), _columns(want), strict=True):
        assert (a.dtype, a.shape) == (b.dtype, b.shape)
        assert a.tobytes() == b.tobytes()


@st.composite
def sets_and_keys(draw):
    """A checked set with shuffled ids, and a slice or an index array of distinct rows."""
    n = draw(st.integers(0, 9))
    ids = np.array(draw(st.permutations(range(100, 100 + n))), dtype=np.int64)
    stream = RandomStream(draw(st.integers(0, 2**32)))
    s = draw(st.sampled_from([
        lambda: SampleSet(ids, stream.normal_matrix(n, 3), ids % 4, ids % 2),
        lambda: PairSet(ids, stream.normal_matrix(n, 3), stream.normal_matrix(n, 2)),
        lambda: CaptionSet(ids, stream.normal_matrix(n, 3)),
        lambda: PromptTable(ids, stream.normal_matrix(n, 3)),
    ]))()
    if n and draw(st.booleans()):
        rows = draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n))
        return s, np.array(rows, dtype=np.int64)
    return s, draw(st.slices(max(n, 1)))


class TestSubsets:
    @settings(max_examples=150, deadline=None)
    @given(sets_and_keys())
    def test_subset_equals_the_checked_constructor(self, set_and_key):
        s, key = set_and_key
        subset = s[key]
        assert type(subset) is type(s)
        _assert_same_columns(subset, type(s)(*(column[key] for column in _columns(s))))

    @settings(max_examples=60, deadline=None)
    @given(sets_and_keys(), st.data())
    def test_repeated_index_still_raises(self, set_and_key, data):
        s, _ = set_and_key
        if not len(s):
            return
        rows = data.draw(st.lists(st.integers(0, len(s) - 1), min_size=1, max_size=5))
        with pytest.raises(ValueError, match="ids must be unique"):
            s[np.array(rows + rows[:1], dtype=np.int64)]

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 6), st.integers(0, 5))
    def test_concat_equals_the_checked_constructor(self, n, m, shift):
        a = make_candidates(n, start_id=10)
        b = make_candidates(m, seed=7, start_id=10 + n)
        checked = PairSet(*(np.concatenate(pair) for pair in zip(_columns(a), _columns(b))))
        _assert_same_columns(a.concat(b), checked)
        overlapping = make_candidates(m + 1, seed=7, start_id=10 + min(shift, n - 1))
        with pytest.raises(ValueError, match="ids must be unique"):
            a.concat(overlapping)


class TestLookupRows:
    def test_positions_follow_the_wanted_order(self):
        assert lookup_rows([30, 10, 20], [20, 30, 20]).tolist() == [2, 0, 2]
        assert lookup_rows([5, 9], [[9, 5], [5, 5]]).tolist() == [[1, 0], [0, 0]]

    def test_absent_id_raises_naming_it(self):
        with pytest.raises(KeyError, match="40"):
            lookup_rows([30, 10, 20], [10, 40])
        with pytest.raises(KeyError):
            lookup_rows([], [1])


class TestBuildCandidateIndex:
    def test_rows_follow_input_order_and_are_unit(self):
        params = make_params()
        candidates = make_candidates(7)
        index = build_candidate_index(params, candidates)
        assert index.candidate_ids.dtype == np.int64
        assert index.candidate_ids.tolist() == [c.id for c in candidates]
        norms = np.linalg.norm(index.image_embeddings, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_rows_match_fresh_encodes(self):
        params = make_params(1)
        candidates = make_candidates(5)
        index = build_candidate_index(params, candidates)
        fresh, _ = encode_batch(params, "text", candidates.texts)
        assert np.array_equal(index.text_embeddings, fresh)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            build_candidate_index(make_params(), make_candidates(0))


class TestCandidateIndex:
    def embeddings(self, n=3, d=4):
        return np.eye(n, d), np.eye(n, d)[::-1].copy()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["image_embeddings", "text_embeddings"])
    def test_non_finite_embeddings_rejected(self, bad, side):
        image, text = self.embeddings()
        {"image_embeddings": image, "text_embeddings": text}[side][1, 2] = bad
        message = f"CandidateIndex.{side}: the row with candidate_ids 1 contains non-finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            CandidateIndex(np.arange(3), image, text, "fp")

    @pytest.mark.parametrize(
        "image,text,match",
        [(np.zeros(3), np.zeros((3, 4)), "image_embeddings must be 2-D"),
         (np.zeros((3, 4)), np.zeros((3, 4, 1)), "text_embeddings must be 2-D"),
         (np.zeros((3, 4)), np.zeros((3, 5)), "matrices of one width")],
        ids=["vector", "3-d", "widths-differ"],
    )
    def test_embeddings_must_be_matrices_of_one_width(self, image, text, match):
        with pytest.raises(ValueError, match=match):
            CandidateIndex(np.arange(3), image, text, "fp")

    def test_row_count_must_match_ids(self):
        image, text = self.embeddings()
        with pytest.raises(ValueError, match="one entry per row"):
            CandidateIndex(np.arange(2), image, text, "fp")

    def test_ids_must_be_unique(self):
        image, text = self.embeddings()
        with pytest.raises(ValueError, match="candidate_ids must be unique"):
            CandidateIndex([4, 2, 4], image, text, "fp")


def retrieval_oracle(index, params, mode, queries, k):
    """Per query row, np.lexsort on (id, -score): descending score, then ascending id."""
    modality = "image" if mode[0] == "v" else "text"
    side = index.text_embeddings if mode[-1] == "t" else index.image_embeddings
    scores = encode_batch(params, modality, queries)[0] @ side.T
    ids = np.asarray(index.candidate_ids)
    top = np.array([np.lexsort((ids, -row))[:k] for row in scores])
    return ids[top], np.take_along_axis(scores, top, axis=1)


def tied_candidates(rng, book, copies):
    """A pool where every codebook row appears `copies` times under shuffled ids.

    Equal scores are everywhere, and row order is not id order.
    """
    n = book * copies
    rows = np.tile(np.arange(book), copies)
    ids = rng.permutation(10 * n)[:n]
    return PairSet(
        ids, rng.normal(size=(book, IMG_DIM))[rows], rng.normal(size=(book, TXT_DIM))[rows]
    )


class TestRetrieve:
    def test_exact_match_query_wins(self):
        # Give both towers identical weights; then a query equal to a
        # candidate's text feature lands exactly on its text embedding.
        params = make_params(2)
        for text_leaf, image_leaf in zip(params.tower("text"), params.tower("image")):
            text_leaf[...] = image_leaf
        candidates = make_candidates(6)
        index = build_candidate_index(params, candidates)
        ids, scores = retrieve(index, candidates.texts[3:4], params, "v2t", k=1)
        assert ids.tolist() == [[candidates.ids[3]]]
        assert abs(scores[0, 0] - 1.0) <= 1e-9

    def test_known_scores_pick_largest(self):
        params = make_params(3)
        candidates = make_candidates(3)
        index = build_candidate_index(params, candidates)
        query = RandomStream(9).normal_matrix(1, IMG_DIM)
        q = encode_batch(params, "image", query)[0][0]
        scores = [float(q @ row) for row in index.text_embeddings]
        ids, top = retrieve(index, query, params, "v2t", k=1)
        assert ids.shape == top.shape == (1, 1)
        assert ids[0, 0] == candidates.ids[int(np.argmax(scores))]
        assert top[0, 0] == max(scores)

    def test_tie_goes_to_lower_candidate_id(self):
        params = make_params(4)
        base = make_candidates(4)
        # Two candidates share one text feature; their embeddings tie exactly.
        # The copy comes first in row order but has the higher id.
        dup = PairSet([base.ids[1] + 5000], base.images[1:2], base.texts[1:2])
        candidates = dup.concat(base)
        for text_leaf, image_leaf in zip(params.tower("text"), params.tower("image")):
            text_leaf[...] = image_leaf
        index = build_candidate_index(params, candidates)
        query = base.texts[1:2]  # lands exactly on the duplicated pair
        ids, scores = retrieve(index, query, params, "v2t", k=2)
        assert ids.tolist() == [[base.ids[1], dup.ids[0]]]  # lower id wins the tie
        assert scores[0, 0] == scores[0, 1]

    def test_full_k_returns_all_sorted(self):
        params = make_params(5)
        candidates = make_candidates(8)
        index = build_candidate_index(params, candidates)
        query = RandomStream(17).normal_matrix(1, IMG_DIM)
        ids, scores = retrieve(index, query, params, "v2v", k=8)
        assert sorted(ids[0].tolist()) == candidates.ids.tolist()
        assert scores[0].tolist() == sorted(scores[0].tolist(), reverse=True)

    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_agrees_with_argmax_oracle(self, mode, k):
        params = make_params(6)
        candidates = make_candidates(120)
        index = build_candidate_index(params, candidates)
        queries = RandomStream(23).normal_matrix(40, IMG_DIM)

        ids, _ = retrieve(index, queries, params, mode, k=k)
        assert ids.shape == (40, k)
        modality = "image" if mode[0] == "v" else "text"
        side = index.text_embeddings if mode[-1] == "t" else index.image_embeddings
        for q, got in zip(encode_batch(params, modality, queries)[0], ids):
            assert got.tolist() == oracle_top_k(side @ q, index.candidate_ids, k)

    @settings(max_examples=60, deadline=None)
    @given(
        book=st.integers(1, 6),
        copies=st.integers(1, 4),
        n_queries=st.integers(1, 5),
        k_frac=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        mode=st.sampled_from(RETRIEVAL_MODES),
    )
    def test_duplicated_rows_and_shuffled_ids_match_lexsort(
        self, book, copies, n_queries, k_frac, seed, mode
    ):
        rng = np.random.default_rng(seed)
        params = make_params(seed % 7)
        index = build_candidate_index(params, tied_candidates(rng, book, copies))
        queries = rng.normal(size=(n_queries, IMG_DIM))
        k = 1 + int(k_frac * (index.size - 1))

        got_ids, got_scores = retrieve(index, queries, params, mode, k)
        want_ids, want_scores = retrieval_oracle(index, params, mode, queries, k)
        assert got_ids.shape == got_scores.shape == (n_queries, k)
        assert np.array_equal(got_ids, want_ids)
        assert got_scores.tobytes() == want_scores.tobytes()

    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    @pytest.mark.parametrize(
        "n_queries", [1, 4, 5, 14], ids=["one-row", "one-block", "one-row-tail", "blocks+2"]
    )
    def test_row_blocks_match_one_gemm(self, monkeypatch, mode, n_queries):
        # Four query rows per score block: a single query, exactly one block,
        # one block plus a one-row tail, and three blocks plus two rows.
        rng = np.random.default_rng(n_queries)
        params = make_params(12)
        index = build_candidate_index(params, tied_candidates(rng, 5, 3))
        monkeypatch.setattr(anchors, "_SCORE_BLOCK_ENTRIES", 4 * index.size)
        queries = rng.normal(size=(n_queries, IMG_DIM))
        for k in (1, 4, index.size):
            got_ids, got_scores = retrieve(index, queries, params, mode, k)
            want_ids, want_scores = retrieval_oracle(index, params, mode, queries, k)
            assert np.array_equal(got_ids, want_ids)
            assert got_scores.tobytes() == want_scores.tobytes()

    def test_zero_queries_give_zero_rows(self):
        params = make_params(11)
        index = build_candidate_index(params, make_candidates(4))
        ids, scores = retrieve(index, np.empty((0, IMG_DIM)), params, "v2t", k=2)
        assert ids.shape == scores.shape == (0, 2)
        assert ids.dtype == np.int64

    def test_peak_memory_is_one_score_block(self):
        # The default shape: 1,200 finetune queries against the 2,048-pair
        # pool with 16-d embeddings. Scoring them all at once would hold a
        # 1,200 x 2,048 float64 matrix (19.7 MB).
        params = init_params(0, (48, 48), 64, 16)
        stream = RandomStream(31)
        images, texts = stream.normal_matrix(2048, 48), stream.normal_matrix(2048, 48)
        index = build_candidate_index(params, PairSet(np.arange(2048), images, texts))
        queries = stream.normal_matrix(1200, 48)
        tracemalloc.start()
        try:
            got_ids, got_scores = retrieve(index, queries, params, "v2t", k=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1200 * 2048 * 8 / 2
        want_ids, want_scores = retrieval_oracle(index, params, "v2t", queries, 4)
        assert np.array_equal(got_ids, want_ids)
        assert got_scores.tobytes() == want_scores.tobytes()

    def test_checkpoint_mismatch_detected(self):
        params = make_params(7)
        index = build_candidate_index(params, make_candidates(4))
        other = make_params(8)
        with pytest.raises(CheckpointMismatchError):
            retrieve(index, np.ones((1, IMG_DIM)), other, "v2t", k=1)

    def test_k_bounds(self):
        params = make_params(9)
        index = build_candidate_index(params, make_candidates(4))
        query = np.ones((1, IMG_DIM))
        with pytest.raises(ValueError):
            retrieve(index, query, params, "v2t", k=0)
        with pytest.raises(ValueError):
            retrieve(index, query, params, "v2t", k=5)

    def test_unknown_mode(self):
        params = make_params(10)
        index = build_candidate_index(params, make_candidates(4))
        with pytest.raises(ValueError):
            retrieve(index, np.ones((1, IMG_DIM)), params, "x2y", k=1)


def caption_rows(samples):
    """A caption feature per sample whose entries all equal the sample id."""
    return np.repeat(samples.ids[:, None].astype(float), TXT_DIM, axis=1)


def assignment_map(samples, ranked_rows):
    return {int(i): np.asarray(ranked_rows[int(i)]) for i in samples.ids}


class TestAssembleAnchorBatch:
    def test_sep_layout_shapes(self):
        samples = make_samples(8)
        candidates = make_candidates(20)
        per_sample = {i: [i] for i in range(8)}  # distinct candidates
        batch = assemble_anchor_batch(
            samples, caption_rows(samples), assignment_map(samples, per_sample), candidates, "sep"
        )
        assert len(batch.caption_pairs) == 8
        assert len(batch.retrieved_pairs) == 8
        assert batch.layout == "sep"
        assert not batch.skip_ret

    def test_caption_pairs_keep_batch_order(self):
        samples = make_samples(4)
        batch = assemble_anchor_batch(samples, caption_rows(samples), None, None, "sep")
        assert batch.caption_pairs.ids.tolist() == samples.ids.tolist()
        for sample, pair in zip(samples, batch.caption_pairs):
            assert np.array_equal(pair.image_feature, sample.feature)
            assert pair.text_feature[0] == float(sample.id)

    def test_shared_candidate_dedups_and_skips(self):
        samples = make_samples(2)
        per_sample = {0: [0], 1: [0]}
        batch = assemble_anchor_batch(
            samples, caption_rows(samples), assignment_map(samples, per_sample),
            make_candidates(3), "sep",
        )
        assert len(batch.retrieved_pairs) == 1
        assert batch.skip_ret

    def test_dedup_keeps_first_occurrence_in_batch_order(self):
        samples = make_samples(3)
        candidates = make_candidates(6)
        per_sample = {0: [2, 0], 1: [0, 3], 2: [2, 1]}
        batch = assemble_anchor_batch(
            samples, caption_rows(samples), assignment_map(samples, per_sample), candidates, "sep"
        )
        assert batch.retrieved_pairs.ids.tolist() == candidates.ids[[2, 0, 3, 1]].tolist()
        assert batch.retrieved_pairs.images.tobytes() == candidates.images[[2, 0, 3, 1]].tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        ranked=st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4), min_size=1,
                        max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_dedup_order_is_first_occurrence(self, ranked, seed):
        # Candidate ids are shuffled so that id order, row order and rank
        # order all disagree; repeats within and across samples are common.
        # The merge layout needs them disjoint from the sample ids.
        rng = np.random.default_rng(seed)
        samples = make_samples(len(ranked))
        candidates = PairSet(
            100 + rng.permutation(100)[:8], rng.normal(size=(8, IMG_DIM)), rng.normal(size=(8, TXT_DIM))
        )
        assignments = assignment_map(samples, dict(enumerate(ranked)))
        first_seen = list(dict.fromkeys(row for rows in ranked for row in rows))

        sep = assemble_anchor_batch(samples, caption_rows(samples), assignments, candidates)
        assert sep.retrieved_pairs.ids.tolist() == candidates.ids[first_seen].tolist()
        assert sep.skip_ret == (len(first_seen) < 2)
        merged = assemble_anchor_batch(
            samples, caption_rows(samples), assignments, candidates, "merge"
        )
        assert merged.caption_pairs.ids.tolist() == (
            samples.ids.tolist() + candidates.ids[first_seen].tolist()
        )

    def test_merge_concatenates(self):
        samples = make_samples(4)
        per_sample = {i: [i % 3] for i in range(4)}
        batch = assemble_anchor_batch(
            samples, caption_rows(samples), assignment_map(samples, per_sample),
            make_candidates(3), "merge",
        )
        assert len(batch.caption_pairs) == 4 + 3
        assert len(batch.retrieved_pairs) == 0
        assert batch.layout == "merge"

    def test_missing_assignment_raises(self):
        samples = make_samples(3)
        partial = assignment_map(samples[:1], {0: [0]})
        with pytest.raises(MissingAssignmentError):
            assemble_anchor_batch(
                samples, caption_rows(samples), partial, make_candidates(3), "sep"
            )

    def test_unknown_layout(self):
        samples = make_samples(1)
        with pytest.raises(ValueError):
            assemble_anchor_batch(samples, caption_rows(samples), None, None, "stacked")

    def test_no_assignments_means_skip(self):
        samples = make_samples(3)
        batch = assemble_anchor_batch(samples, caption_rows(samples), None, None, "sep")
        assert len(batch.retrieved_pairs) == 0
        assert batch.retrieved_pairs.texts.shape == (0, TXT_DIM)
        assert batch.skip_ret
