"""Caption attachment, candidate indexing, retrieval, and batch assembly."""

import numpy as np
import pytest

from anchorft.anchors import (
    AnchorBatch,
    CandidatePair,
    CaptionRecord,
    CheckpointMismatchError,
    MissingAssignmentError,
    MissingCaptionError,
    RETRIEVAL_MODES,
    RetrievalAssignment,
    Sample,
    assemble_anchor_batch,
    attach_captions,
    build_candidate_index,
    retrieve,
)
from anchorft.encoders import encode_batch, init_params
from anchorft.numerics import gaussian_stream


IMG_DIM, TXT_DIM = 6, 6


def make_params(seed=0):
    return init_params(seed, (IMG_DIM, TXT_DIM), 8, 4)


def make_samples(n, seed=0, dim=IMG_DIM):
    stream = gaussian_stream(seed)
    return [
        Sample(id=i, feature=stream.normals(dim), class_id=i % 3, domain_id=0)
        for i in range(n)
    ]


def make_candidates(n, seed=100, start_id=1000):
    stream = gaussian_stream(seed)
    return [
        CandidatePair(
            id=start_id + i,
            image_feature=stream.normals(IMG_DIM),
            text_feature=stream.normals(TXT_DIM),
        )
        for i in range(n)
    ]


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


class TestAttachCaptions:
    def test_one_record_per_sample_in_order(self):
        samples = make_samples(5)
        records = attach_captions(samples, lambda s: s.feature * 2.0)
        assert [r.sample_id for r in records] == [s.id for s in samples]
        assert np.array_equal(records[3].caption_feature, samples[3].feature * 2.0)

    def test_deterministic_provider_gives_identical_records(self):
        samples = make_samples(4)
        provider = lambda s: s.feature + 0.5
        a = attach_captions(samples, provider)
        b = attach_captions(samples, provider)
        for ra, rb in zip(a, b):
            assert ra.caption_feature.tobytes() == rb.caption_feature.tobytes()

    def test_provider_failure_becomes_missing_caption(self):
        def broken(sample):
            raise KeyError(sample.id)

        with pytest.raises(MissingCaptionError):
            attach_captions(make_samples(2), broken)

    def test_non_finite_caption_rejected(self):
        with pytest.raises(MissingCaptionError):
            attach_captions(make_samples(1), lambda s: np.full(TXT_DIM, np.nan))


class TestBuildCandidateIndex:
    def test_rows_follow_input_order_and_are_unit(self):
        params = make_params()
        candidates = make_candidates(7)
        index = build_candidate_index(params, candidates)
        assert index.candidate_ids == [c.id for c in candidates]
        norms = np.linalg.norm(index.image_embeddings, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-9

    def test_rows_match_fresh_encodes(self):
        params = make_params(1)
        candidates = make_candidates(5)
        index = build_candidate_index(params, candidates)
        fresh, _ = encode_batch(
            params, "text", np.stack([c.text_feature for c in candidates])
        )
        assert np.array_equal(index.text_embeddings, fresh)

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            build_candidate_index(make_params(), [])


class TestRetrieve:
    def test_exact_match_query_wins(self):
        # Give both towers identical weights; then a query equal to a
        # candidate's text feature lands exactly on its text embedding.
        params = make_params(2)
        params.theta[params.span("text")] = params.theta[params.span("image")]
        candidates = make_candidates(6)
        index = build_candidate_index(params, candidates)
        target = candidates[3]
        [hit] = retrieve(index, [(0, target.text_feature)], params, "v2t", k=1)
        assert hit.candidate_id == target.id
        assert abs(hit.score - 1.0) <= 1e-9

    def test_known_scores_pick_largest(self):
        params = make_params(3)
        candidates = make_candidates(3)
        index = build_candidate_index(params, candidates)
        query = gaussian_stream(9).normals(IMG_DIM)
        q = encode_batch(params, "image", query)[0][0]
        scores = [float(q @ row) for row in index.text_embeddings]
        [hit] = retrieve(index, [(7, query)], params, "v2t", k=1)
        assert hit.candidate_id == candidates[int(np.argmax(scores))].id
        assert hit.query_sample_id == 7
        assert hit.mode == "v2t"

    def test_tie_goes_to_lower_candidate_id(self):
        params = make_params(4)
        base = make_candidates(4)
        # Two candidates share one text feature; their embeddings tie exactly.
        dup = CandidatePair(
            id=base[1].id + 5000,
            image_feature=base[1].image_feature.copy(),
            text_feature=base[1].text_feature.copy(),
        )
        candidates = base + [dup]
        params.theta[params.span("text")] = params.theta[params.span("image")]
        index = build_candidate_index(params, candidates)
        query = base[1].text_feature  # lands exactly on the duplicated pair
        hits = retrieve(index, [(0, query)], params, "v2t", k=2)
        assert hits[0].candidate_id == base[1].id  # lower id wins the tie
        assert hits[1].candidate_id == dup.id
        assert hits[0].score == hits[1].score

    def test_full_k_returns_all_sorted(self):
        params = make_params(5)
        candidates = make_candidates(8)
        index = build_candidate_index(params, candidates)
        query = gaussian_stream(17).normals(IMG_DIM)
        hits = retrieve(index, [(0, query)], params, "v2v", k=8)
        assert sorted(h.candidate_id for h in hits) == [c.id for c in candidates]
        scores = [h.score for h in hits]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("mode", RETRIEVAL_MODES)
    @pytest.mark.parametrize("k", [1, 3])
    def test_agrees_with_argmax_oracle(self, mode, k):
        params = make_params(6)
        candidates = make_candidates(120)
        index = build_candidate_index(params, candidates)
        stream = gaussian_stream(23)
        queries = [(i, stream.normals(IMG_DIM)) for i in range(40)]

        hits = retrieve(index, queries, params, mode, k=k)
        modality = "image" if mode[0] == "v" else "text"
        side = index.text_embeddings if mode[-1] == "t" else index.image_embeddings
        ids = np.array(index.candidate_ids)
        for qi, (sample_id, raw) in enumerate(queries):
            q = encode_batch(params, modality, raw)[0][0]
            scores = side @ q
            expected = oracle_top_k(scores, ids, k)
            got = [h.candidate_id for h in hits[qi * k : (qi + 1) * k]]
            assert got == expected

    def test_checkpoint_mismatch_detected(self):
        params = make_params(7)
        index = build_candidate_index(params, make_candidates(4))
        other = make_params(8)
        with pytest.raises(CheckpointMismatchError):
            retrieve(index, [(0, np.ones(IMG_DIM))], other, "v2t", k=1)

    def test_k_bounds(self):
        params = make_params(9)
        index = build_candidate_index(params, make_candidates(4))
        query = [(0, np.ones(IMG_DIM))]
        with pytest.raises(ValueError):
            retrieve(index, query, params, "v2t", k=0)
        with pytest.raises(ValueError):
            retrieve(index, query, params, "v2t", k=5)

    def test_unknown_mode(self):
        params = make_params(10)
        index = build_candidate_index(params, make_candidates(4))
        with pytest.raises(ValueError):
            retrieve(index, [(0, np.ones(IMG_DIM))], params, "x2y", k=1)


def caption_map(samples):
    return {
        s.id: CaptionRecord(sample_id=s.id, caption_feature=np.full(TXT_DIM, float(s.id)))
        for s in samples
    }


def assignment_map(samples, candidate_ids):
    return {
        s.id: [
            RetrievalAssignment(
                query_sample_id=s.id, candidate_id=cid, score=1.0 - 0.01 * r, mode="v2t"
            )
            for r, cid in enumerate(candidate_ids[s.id])
        ]
        for s in samples
    }


class TestAssembleAnchorBatch:
    def test_sep_layout_shapes(self):
        samples = make_samples(8)
        candidates = {c.id: c for c in make_candidates(20)}
        ids = list(candidates)
        per_sample = {s.id: [ids[s.id]] for s in samples}  # distinct candidates
        batch = assemble_anchor_batch(
            samples, caption_map(samples), assignment_map(samples, per_sample), candidates, "sep"
        )
        assert len(batch.caption_pairs) == 8
        assert len(batch.retrieved_pairs) == 8
        assert batch.layout == "sep"
        assert not batch.skip_ret

    def test_caption_pairs_keep_batch_order(self):
        samples = make_samples(4)
        batch = assemble_anchor_batch(samples, caption_map(samples), None, {}, "sep")
        for sample, (img, txt) in zip(samples, batch.caption_pairs):
            assert np.array_equal(img, sample.feature)
            assert txt[0] == float(sample.id)

    def test_shared_candidate_dedups_and_skips(self):
        samples = make_samples(2)
        candidates = {c.id: c for c in make_candidates(3)}
        shared = next(iter(candidates))
        per_sample = {s.id: [shared] for s in samples}
        batch = assemble_anchor_batch(
            samples, caption_map(samples), assignment_map(samples, per_sample), candidates, "sep"
        )
        assert len(batch.retrieved_pairs) == 1
        assert batch.skip_ret

    def test_dedup_keeps_first_occurrence_in_batch_order(self):
        samples = make_samples(3)
        pool = make_candidates(6)
        candidates = {c.id: c for c in pool}
        ids = [c.id for c in pool]
        per_sample = {
            samples[0].id: [ids[2], ids[0]],
            samples[1].id: [ids[0], ids[3]],
            samples[2].id: [ids[2], ids[1]],
        }
        batch = assemble_anchor_batch(
            samples, caption_map(samples), assignment_map(samples, per_sample), candidates, "sep"
        )
        got = [img.tobytes() for img, _ in batch.retrieved_pairs]
        expected = [candidates[c].image_feature.tobytes() for c in [ids[2], ids[0], ids[3], ids[1]]]
        assert got == expected

    def test_merge_concatenates(self):
        samples = make_samples(4)
        pool = make_candidates(3)
        candidates = {c.id: c for c in pool}
        per_sample = {s.id: [pool[s.id % 3].id] for s in samples}
        batch = assemble_anchor_batch(
            samples, caption_map(samples), assignment_map(samples, per_sample), candidates, "merge"
        )
        assert len(batch.caption_pairs) == 4 + 3
        assert batch.retrieved_pairs == []
        assert batch.layout == "merge"

    def test_missing_caption_raises(self):
        samples = make_samples(3)
        captions = caption_map(samples[:2])
        with pytest.raises(MissingCaptionError):
            assemble_anchor_batch(samples, captions, None, {}, "sep")

    def test_missing_assignment_raises(self):
        samples = make_samples(3)
        candidates = {c.id: c for c in make_candidates(3)}
        partial = {samples[0].id: [list(candidates)[0]]}
        with pytest.raises(MissingAssignmentError):
            assemble_anchor_batch(
                samples, caption_map(samples), assignment_map(samples[:1], partial), candidates, "sep"
            )

    def test_unknown_layout(self):
        samples = make_samples(1)
        with pytest.raises(ValueError):
            assemble_anchor_batch(samples, caption_map(samples), None, {}, "stacked")

    def test_no_assignments_means_skip(self):
        samples = make_samples(3)
        batch = assemble_anchor_batch(samples, caption_map(samples), None, {}, "sep")
        assert batch.retrieved_pairs == []
        assert batch.skip_ret
