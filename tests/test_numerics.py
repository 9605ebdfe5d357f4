"""Checks for normalization, the seeded random stream, and its lockstep lanes."""

import math
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchorft import numerics
from anchorft.numerics import (
    LANE_BLOCK,
    NonFiniteError,
    RandomStream,
    ZeroVectorError,
    _Lanes,
    _log,
    derive_seed,
    derive_seeds,
    l2_normalize,
    lane_normals,
    lane_sample_indices,
    splitmix64,
)
from test_acceptance import host_versions

U64 = st.integers(0, 2**64 - 1)
SEED_LISTS = st.lists(U64, max_size=6)


class TestL2Normalize:
    def test_simple_axis_vector(self):
        out = l2_normalize([3.0, 0.0, 0.0])
        assert np.array_equal(out, [1.0, 0.0, 0.0])

    def test_diagonal(self):
        out = l2_normalize([1.0, 1.0])
        assert np.allclose(out, [math.sqrt(0.5), math.sqrt(0.5)], atol=1e-15)

    def test_unit_vector_unchanged(self):
        v = np.array([0.6, 0.8])
        assert np.max(np.abs(l2_normalize(v) - v)) <= 1e-15

    def test_zero_vector_raises(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize(np.zeros(4))

    def test_below_threshold_raises(self):
        with pytest.raises(ZeroVectorError):
            l2_normalize([1e-13, 0.0])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            l2_normalize([1.0, np.inf])

    def test_overflowing_norm_rejected_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="squared norm overflows"):
                l2_normalize([1e200, 1e200])
            assert np.allclose(l2_normalize([1e153, 1e153]), math.sqrt(0.5), rtol=1e-15, atol=0)

    @settings(deadline=None, max_examples=60)
    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8),
        st.floats(1e-6, 1e6),
    )
    def test_scale_invariance(self, values, scale):
        v = np.asarray(values)
        if np.linalg.norm(v) < 1e-6 or np.linalg.norm(scale * v) < 1e-6:
            return
        a = l2_normalize(v)
        b = l2_normalize(scale * v)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestSplitmixAndDerive:
    def test_splitmix_deterministic(self):
        assert splitmix64(42) == splitmix64(42)

    def test_derive_seed_separates_tags(self):
        seeds = {derive_seed(0, tag) for tag in range(64)}
        assert len(seeds) == 64

    def test_derive_seed_order_sensitive(self):
        assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


class TestRandomStream:
    def test_state_update_known_answers(self):
        # First three outputs from state (1, 2, 3, 4), hand-derived from the
        # recurrence: rotl(2*5,7)*9 = 11520; then s1 becomes 0 giving 0; the
        # third works out to rotl(262149*5,7)*9 = 1509978240.
        stream = RandomStream(0)
        stream._s = [1, 2, 3, 4]
        assert [stream.next_u64() for _ in range(3)] == [11520, 0, 1509978240]

    def test_same_seed_same_sequence(self):
        a = RandomStream(123)
        b = RandomStream(123)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_same_seed_same_normals(self):
        a = RandomStream(9).normals(64)
        b = RandomStream(9).normals(64)
        assert a.tobytes() == b.tobytes()

    def test_different_seeds_differ(self):
        a = RandomStream(0).normals(8)
        b = RandomStream(1).normals(8)
        assert not np.array_equal(a, b)

    def test_normal_moments(self):
        # 1e5 draws: the sample mean of iid standard normals has sd ~0.0032,
        # so 0.02 is a >6 sigma band; variance lands near 1 similarly.
        draws = RandomStream(2024).normals(100_000)
        assert abs(draws.mean()) <= 0.02
        assert abs(draws.var() - 1.0) <= 0.02

    def test_permutation_is_permutation(self):
        stream = RandomStream(5)
        perm = stream.permutation(100)
        assert sorted(perm) == list(range(100))

    def test_permutation_deterministic(self):
        assert RandomStream(17).permutation(50) == RandomStream(17).permutation(50)

    @settings(deadline=None, max_examples=150)
    @given(U64, st.integers(0, 3), st.integers(0, 300))
    @example(0, 0, 0)
    @example(1, 0, 1)
    @example(2**64 - 1, 2, 2)
    def test_permutation_matches_a_next_u64_loop(self, seed, skip, n):
        # permutation takes all its draws in one _words call; it must leave
        # the stream exactly where a Fisher-Yates loop over next_u64 leaves it.
        batched, reference = RandomStream(seed), RandomStream(seed)
        for stream in (batched, reference):
            for _ in range(skip):
                stream.next_u64()
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = reference.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
        assert batched.permutation(n) == items
        assert batched._s == reference._s
        assert batched.draw_count == reference.draw_count == skip + max(n - 1, 0)
        assert batched.next_u64() == reference.next_u64()

    @settings(deadline=None, max_examples=150)
    @given(U64, st.integers(0, 5), st.integers(0, 40))
    @example(0, 0, 0)
    @example(1, 1, 0)
    @example(2, 1, 1)
    @example(3, 1, 2)
    @example(2**64 - 1, 2, 7)
    @example(12, 0, 40)
    def test_normals_match_a_normal_loop(self, seed, prior, n):
        # normals takes its draws in one _words call and runs Box-Muller on
        # arrays; it must give what n normal() calls give and leave the same
        # spare and state behind.
        # Seed 12's first 20 pairs include a u1 where numpy's log can differ
        # from math.log by an ulp (numpy 2.4 on x86-64 does).
        batched, reference = RandomStream(seed), RandomStream(seed)
        for stream in (batched, reference):
            for _ in range(prior):
                stream.normal()
        expected = np.array([reference.normal() for _ in range(n)], dtype=np.float64)
        assert batched.normals(n).tobytes() == expected.tobytes()
        assert batched._s == reference._s
        assert batched.draw_count == reference.draw_count
        assert batched._spare_normal == reference._spare_normal
        assert type(batched._spare_normal) is type(reference._spare_normal)
        assert batched.normal() == reference.normal()

    def test_sample_indices_distinct(self):
        stream = RandomStream(11)
        for _ in range(50):
            picks = stream.sample_indices(10, 4)
            assert len(set(picks)) == 4
            assert all(0 <= p < 10 for p in picks)

    def test_sample_indices_bounds(self):
        with pytest.raises(ValueError):
            RandomStream(0).sample_indices(3, 4)

    def test_draw_count_advances(self):
        stream = RandomStream(1)
        stream.normal()
        assert stream.draw_count == 2  # Box-Muller consumes a pair
        stream.normal()
        assert stream.draw_count == 2  # second of the pair was cached


def reference_stream(seed: int, count: int) -> tuple[list[int], list[int]]:
    """RandomStream's docstring on Python ints: count outputs and the state after them.

    The four state words are successive splitmix64 outputs of the seed.
    """
    mask = 2**64 - 1

    def rotl(x, k):
        return ((x << k) | (x >> (64 - k))) & mask

    state, words = seed & mask, []
    for _ in range(4):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        words.append(z ^ (z >> 31))
    s0, s1, s2, s3 = words
    out = []
    for _ in range(count):
        out.append((rotl((s1 * 5) & mask, 7) * 9) & mask)
        t = (s1 << 17) & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = rotl(s3, 45)
    return out, [s0, s1, s2, s3]


def reference_normals(words: list[int]) -> list[float]:
    """The docstring's Box-Muller on consecutive pairs of words, through `math`."""
    out = []
    for a, b in zip(words[0::2], words[1::2]):
        u1 = ((a >> 11) + 1) * 2.0**-53
        u2 = (b >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        out += [r * math.cos(theta), r * math.sin(theta)]
    return out


@pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
@pytest.mark.parametrize("count", [0, 1, 2, 5399])
class TestReferenceRecurrence:
    """The state update runs on ints and the scrambler on arrays; the words are the docstring's."""

    def test_words(self, seed, count):
        expected, state = reference_stream(seed, count)
        stream = RandomStream(seed)
        got = stream._words(count)
        assert got.dtype == np.uint64 and got.shape == (count,)
        assert got.tolist() == expected
        assert stream._s == state and stream.draw_count == count

    def test_next_u64(self, seed, count):
        expected, state = reference_stream(seed, count)
        stream = RandomStream(seed)
        got = [stream.next_u64() for _ in range(count)]
        assert got == expected and all(type(word) is int for word in got)
        assert stream._s == state

    def test_permutation(self, seed, count):
        words, state = reference_stream(seed, count)
        n = count + 1
        items = list(range(n))
        for i, word in zip(range(n - 1, 0, -1), words):
            j = word % (i + 1)
            items[i], items[j] = items[j], items[i]
        stream = RandomStream(seed)
        got = stream.permutation(n)
        assert got == items and all(type(i) is int for i in got)
        assert stream._s == state

    def test_sample_indices(self, seed, count):
        words, state = reference_stream(seed, count)
        n = count + 3
        pool = list(range(n))
        for i, word in enumerate(words):
            j = i + word % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        stream = RandomStream(seed)
        got = stream.sample_indices(n, count)
        assert got == pool[:count] and all(type(i) is int for i in got)
        assert stream._s == state

    def test_normals(self, seed, count):
        pairs = (count + 1) // 2
        words, state = reference_stream(seed, 2 * pairs)
        expected = reference_normals(words)
        stream = RandomStream(seed)
        got = stream.normals(count)
        assert got.tobytes() == np.array(expected[:count], dtype=np.float64).tobytes()
        assert stream._s == state
        assert stream._spare_normal == (expected[-1] if count % 2 else None)


class TestBoxMullerOracle:
    """Box-Muller on arrays against libm through `math`, wide enough to pin the bundles' bytes."""

    def test_numpy_cos_and_sin_are_libm(self):
        # 2^20 angles 2*pi*u2 on Box-Muller's grid u2 = k * 2^-53, spread over
        # [0, 2*pi) with an odd stride so that the low bits of k vary too.
        k = np.arange(2**20, dtype=np.uint64) * np.uint64((2**53 - 1) // 2**20)
        theta = 2.0 * math.pi * (k * 2.0**-53)
        for name in ("cos", "sin"):
            got = getattr(np, name)(theta)
            expected = np.fromiter(map(getattr(math, name), theta.tolist()), np.float64, k.size)
            bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
            assert not bad.size, (
                f"np.{name} differs from math.{name} on {bad.size} of {k.size} angles, "
                f"first at {theta[bad[0]]!r}, on {host_versions()}"
            )

    def test_box_muller_matches_the_scalar_normal(self):
        # 64 streams x 1,600 pairs: lane_normals puts every pair through
        # _box_muller, normal() applies math.log, math.cos and math.sin to one.
        seeds = np.concatenate(
            [np.array([0, 1, 12, 2**64 - 1], dtype=np.uint64), derive_seeds(7, np.arange(60))]
        )
        draws = 3200
        for row, seed in zip(lane_normals(seeds, draws), seeds.tolist()):
            stream = RandomStream(seed)
            expected = np.array([stream.normal() for _ in range(draws)])
            bad = np.flatnonzero(row.view(np.uint64) != expected.view(np.uint64))
            assert not bad.size, (
                f"seed {seed}: _box_muller differs from normal() on {bad.size} of "
                f"{draws} draws, first at draw {bad[0]}, on {host_versions()}"
            )

    @staticmethod
    def _assert_log_is_libm(u1: np.ndarray) -> None:
        got = _log(u1)
        expected = np.fromiter(map(math.log, u1.tolist()), np.float64, u1.size)
        bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
        assert not bad.size, (
            f"_log differs from math.log on {bad.size} of {u1.size} values, "
            f"first at u1 = {u1[bad[0]]!r}, on {host_versions()}"
        )

    @staticmethod
    def _log_sample() -> np.ndarray:
        # u1 = k * 2^-53 on Box-Muller's grid: the smallest draws, the draws
        # next to 1 (whose logs are tiny), every power of two, the draws
        # whose logs are nearest -2^j, where the ulp changes, and 2^20 seeded
        # draws.
        near_powers = [
            round(math.exp(-(2.0**j)) * 2**53) + i for j in range(-33, 6) for i in range(-4, 5)
        ]
        k = np.concatenate([
            np.arange(1, 2**19 + 1, dtype=np.uint64),
            np.arange(2**53 - 2**19, 2**53 + 1, dtype=np.uint64),
            np.uint64(1) << np.arange(54, dtype=np.uint64),
            np.array(near_powers, dtype=np.uint64),
            np.random.default_rng(23).integers(1, 2**53, 2**20, np.uint64, endpoint=True),
        ])
        return k * 2.0**-53

    def test_log_is_libm(self, monkeypatch):
        # About 1/8 of uniform draws should go to math.log.
        sent = []
        math_log = numerics._math_log
        monkeypatch.setattr(numerics, "_math_log", lambda v: sent.append(v.size) or math_log(v))
        u1 = self._log_sample()
        self._assert_log_is_libm(u1)
        if numerics._EXTENDED_LOG:
            assert 0.1 < sum(sent) / u1.size < 0.15

    @pytest.mark.skipif(not numerics._EXTENDED_LOG, reason="the integer band reads x87 extended bits")
    def test_integer_band_redoes_what_the_float_rule_redoes(self, monkeypatch):
        # The float rule: an extended log at least 7/16 ulp from its rounding
        # d (within 1/16 ulp of a midpoint), or a d that is a power of two or
        # zero. floor is the power of two at or below |d|.
        u1 = self._log_sample()
        ext = np.log(u1.astype(np.longdouble))
        d = ext.astype(np.float64)
        floor = (d.view(np.uint64) & np.uint64(0x7FF0000000000000)).view(np.float64)
        off = np.abs((ext - d).astype(np.float64))
        float_rule = (off >= floor * 7 / 16 * 2.0**-52) | (np.abs(d) == floor)
        low_bits = ext.view(np.uint64)[0::2] & np.uint64(0x7FF)
        assert {895, 896, 1152, 1153} <= set(np.unique(low_bits).tolist())
        sent = []
        math_log = numerics._math_log
        monkeypatch.setattr(numerics, "_math_log", lambda v: sent.append(v.copy()) or math_log(v))
        _log(u1)
        assert np.concatenate(sent).tobytes() == u1[float_rule].tobytes()

    def test_log_without_extended_precision_is_all_math_log(self, monkeypatch):
        sent = []
        math_log = numerics._math_log
        monkeypatch.setattr(numerics, "_EXTENDED_LOG", False)
        monkeypatch.setattr(numerics, "_math_log", lambda v: sent.append(v.size) or math_log(v))
        k = np.random.default_rng(24).integers(1, 2**53, 2**14, np.uint64, endpoint=True)
        self._assert_log_is_libm(k * 2.0**-53)
        assert sent == [k.size]


class TestLanes:
    """Row i of every lane function is what the scalar reference gives stream i."""

    @settings(deadline=None, max_examples=80)
    @given(U64, st.integers(-(2**63), 2**64 - 1), st.lists(st.integers(-(2**63), 2**63 - 1)))
    @example(0, 0, [])
    @example(2**64 - 1, -1, [7])
    def test_derive_seeds_matches_derive_seed(self, seed, tag, ids):
        got = derive_seeds(seed, tag, np.array(ids, dtype=np.int64))
        assert got.dtype == np.uint64
        assert got.tolist() == [derive_seed(seed, tag, i) for i in ids]

    def test_derive_seeds_without_an_array_is_one_lane(self):
        assert derive_seeds(9, 4, 2).tolist() == [derive_seed(9, 4, 2)]
        assert derive_seeds(9).tolist() == [derive_seed(9)]

    @settings(deadline=None, max_examples=60)
    @given(SEED_LISTS, st.integers(0, 51))
    @example([], 3)
    @example([5], 0)
    @example([5, 6], 1)
    @example([5, 6, 2**64 - 1], 48)
    def test_lane_normals_match_random_stream(self, seeds, n):
        got = lane_normals(np.array(seeds, dtype=np.uint64), n)
        assert got.shape == (len(seeds), n)
        for row, seed in zip(got, seeds):
            assert row.tobytes() == RandomStream(seed).normals(n).tobytes()

    @settings(deadline=None, max_examples=60)
    @given(SEED_LISTS, st.integers(0, 30), st.data())
    @example([], 4, None)
    @example([3], 1, None)
    def test_lane_sample_indices_match_random_stream(self, seeds, n, data):
        m = data.draw(st.integers(0, n)) if data is not None else n
        got = lane_sample_indices(np.array(seeds, dtype=np.uint64), n, m)
        assert got.shape == (len(seeds), m) and got.dtype == np.int64
        assert got.tolist() == [RandomStream(seed).sample_indices(n, m) for seed in seeds]

    def test_rows_past_a_block_boundary_match(self):
        seeds = derive_seeds(3, 25, np.arange(LANE_BLOCK + 5))
        normals = lane_normals(seeds, 5)
        picks = lane_sample_indices(seeds, 24, 3)
        for i in (0, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 4):
            assert normals[i].tobytes() == RandomStream(int(seeds[i])).normals(5).tobytes()
            assert picks[i].tolist() == RandomStream(int(seeds[i])).sample_indices(24, 3)

    def test_words_match_lane_steps(self):
        # _words is RandomStream's one copy of the state update, and every
        # scalar draw goes through it; _Lanes is an independent copy in numpy.
        # Both share _scramble, which TestReferenceRecurrence checks.
        seeds = np.concatenate(
            [np.array([0, 1, 2**64 - 1], dtype=np.uint64), derive_seeds(11, np.arange(5))]
        )
        skip, longest = 3, 3000
        lanes = _Lanes(seeds)
        steps = np.empty((skip + longest, seeds.size), dtype=np.uint64)
        for row in steps:
            lanes.next_u64(row)
        for column, seed in zip(steps.T, seeds.tolist()):
            for k in (0, 1, 2, 7, 64, longest):
                stream = RandomStream(seed)
                first, then = stream._words(skip), stream._words(k)
                assert first.dtype == then.dtype == np.uint64
                assert np.array_equal(first, column[:skip])
                assert np.array_equal(then, column[skip : skip + k])
                assert stream.draw_count == skip + k

    @pytest.mark.parametrize(
        "bad", [np.array([2.5]), np.array([2.7]), np.array(["3"]), np.array([3], dtype=object),
                np.array([1 + 0j]), [2.5], 2.5, np.float64(2.0)],
        ids=["float-2.5", "float-2.7", "str", "object", "complex", "list", "float", "np.float64"],
    )
    def test_array_seed_forms_reject_non_integers_naming_the_argument(self, bad):
        # A cast would truncate 2.7 to 2 and parse "3", where the scalar
        # forms derive_seed(1, 2.5) and RandomStream(2.0) raise TypeError.
        with pytest.raises(TypeError, match="component 1 must be integers"):
            derive_seeds(1, 4, bad)
        with pytest.raises(TypeError, match="lane_normals seeds must be integers"):
            lane_normals(bad, 2)
        with pytest.raises(TypeError, match="lane_sample_indices seeds must be integers"):
            lane_sample_indices(bad, 5, 2)

    def test_array_seed_forms_take_any_integer_or_bool_dtype(self):
        for ids in (np.array([3, -1], dtype=np.int8), np.array([3, 2**32 - 1], dtype=np.uint32),
                    [3, -1], np.array([True, False])):
            wrapped = [int(i) & (2**64 - 1) for i in np.asarray(ids).tolist()]
            assert derive_seeds(7, ids).tolist() == [derive_seed(7, i) for i in wrapped]
            assert lane_normals(ids, 3).tobytes() == np.array(
                [RandomStream(i).normals(3) for i in wrapped]
            ).tobytes()
            assert lane_sample_indices(ids, 6, 2).tolist() == [
                RandomStream(i).sample_indices(6, 2) for i in wrapped
            ]

    def test_lane_sample_indices_bounds(self):
        with pytest.raises(ValueError):
            lane_sample_indices([0], 3, 4)


class TestLaneChunks:
    """lane_normals cut into small lane blocks and chunks keeps every byte, on the calling thread."""

    SEEDS = derive_seeds(13, 25, np.arange(11))

    @staticmethod
    def _split_small(monkeypatch, block: int, chunk: int) -> None:
        # Small blocks and chunks so that 11 seeds make many lane blocks and
        # chunks of draws.
        monkeypatch.setattr(numerics, "LANE_BLOCK", block)
        monkeypatch.setattr(numerics, "_CHUNK_PAIRS", chunk)

    def _assert_rows_are_streams(self, got: np.ndarray, n: int) -> None:
        assert got.shape == (self.SEEDS.size, n)
        for row, seed in zip(got, self.SEEDS.tolist()):
            assert row.tobytes() == RandomStream(seed).normals(n).tobytes()

    @pytest.mark.parametrize("n", [1, 2, 7, 10, 13])
    @pytest.mark.parametrize("block, chunk", [(4, 3), (5, 10), (3, 7), (11, 5)])
    def test_split_transform_matches_random_stream(self, monkeypatch, n, block, chunk):
        # 11 lanes are no multiple of any block; chunks cover 1-3 draws of a
        # block and an odd n ends on half a pair.
        self._split_small(monkeypatch, block, chunk)
        self._assert_rows_are_streams(lane_normals(self.SEEDS, n), n)

    def test_each_block_is_transformed_in_chunks_of_chunk_pairs_over_its_lanes(self, monkeypatch):
        # 11 lanes in blocks of 4, 4 and 3, 7 pairs, chunks of 10 pairs: two
        # steps of 4 lanes or three steps of 3 lanes per chunk, and a short
        # last chunk.
        self._split_small(monkeypatch, 4, 10)
        transform, calls = numerics._transform, []

        def recorded(out, rows, first, a, b):
            calls.append((rows.start, first, len(a), a.shape[1]))
            transform(out, rows, first, a, b)

        monkeypatch.setattr(numerics, "_transform", recorded)
        self._assert_rows_are_streams(lane_normals(self.SEEDS, 13), 13)
        assert calls == [
            (0, 0, 2, 4), (0, 2, 2, 4), (0, 4, 2, 4), (0, 6, 1, 4),
            (4, 0, 2, 4), (4, 2, 2, 4), (4, 4, 2, 4), (4, 6, 1, 4),
            (8, 0, 3, 3), (8, 3, 3, 3), (8, 6, 1, 3),
        ]

    def test_lane_normals_starts_no_thread(self, monkeypatch):
        # A benchmark tracer wraps every public name of a module and keeps
        # one span stack for one thread, so every draw stays on the caller.
        self._split_small(monkeypatch, 4, 3)
        started = []

        def refuse(thread):
            started.append(thread)
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        before = threading.active_count()
        self._assert_rows_are_streams(lane_normals(self.SEEDS, 13), 13)
        assert started == [] and threading.active_count() == before

    def test_concurrent_callers_each_get_their_own_rows(self, monkeypatch):
        # Six callers switching threads every 10 microseconds: a chunk
        # buffer shared between calls would change some caller's bytes.
        self._split_small(monkeypatch, 4, 3)
        expected = {
            n: np.stack([RandomStream(seed).normals(n) for seed in self.SEEDS.tolist()]).tobytes()
            for n in (7, 10, 13)
        }
        got, interval = [], sys.getswitchinterval()

        def call(n):
            for _ in range(5):
                got.append((n, lane_normals(self.SEEDS, n).tobytes()))

        callers = [threading.Thread(target=call, args=(n,)) for n in (7, 10, 13) * 2]
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert len(got) == 30 and all(rows == expected[n] for n, rows in got)

    @pytest.mark.parametrize("failing", [1, 5])
    def test_a_failed_chunk_is_raised_and_the_next_call_is_whole(self, monkeypatch, failing):
        # Blocks of 4 lanes take one pair per chunk of 3, so 4 pairs make 4
        # chunks a block: chunk 1 is the first of the first block, chunk 5
        # the first of the second.
        self._split_small(monkeypatch, 4, 3)
        box_muller, chunks = numerics._box_muller, []

        def failing_once(a, b):
            chunks.append(len(a))
            if len(chunks) == failing:
                raise RuntimeError(f"chunk {failing} failed")
            return box_muller(a, b)

        monkeypatch.setattr(numerics, "_box_muller", failing_once)
        with pytest.raises(RuntimeError, match=f"chunk {failing} failed"):
            lane_normals(self.SEEDS, 7)
        assert len(chunks) == failing
        self._assert_rows_are_streams(lane_normals(self.SEEDS, 7), 7)
