"""Float64 numeric primitives shared by every other module.

Provides L2 normalization, input validation, and a seeded random stream
whose exact algorithm is documented here so that whole-pipeline runs are
bit-reproducible on any platform.

RandomStream is the scalar reference: one xoshiro256** stream (Blackman &
Vigna, "Scrambled linear pseudorandom number generators"). Its state update
runs in Python on ints, one step per draw; the output scrambler, which
reads only s1, then runs on the collected s1 words as one uint64 array
(_scramble, shared with the lanes). Integer arithmetic mod 2^64 is exact
either way, so the words are those of the step-by-step recurrence in the
RandomStream docstring. derive_seeds, lane_normals and lane_sample_indices
run many fresh streams in lockstep instead, one numpy uint64 lane per
stream, and give row i exactly what RandomStream(seeds[i]) gives; they
raise TypeError for seeds or ids that are not integers or bools, as the
scalar forms do. The integer recurrence is exact in any lane width.
Box-Muller's log has `math.log`'s bits at array speed: libm's extended
`logl` rounded to float64, with `math.log` for the values within 1/16 ulp
of a rounding midpoint or at a power of two. That is exact while libm's
double `log` errs by under 0.56 ulp (glibc states 0.519); hosts whose long
double has under 64 significand bits use `math.log` throughout. Its cos
and sin are numpy's float64 loops, which call libm and so match `math` bit
for bit (a test checks a million angles).

lane_normals steps its lanes a run of draws at a time and cuts each run into
chunks of about _CHUNK_PAIRS Box-Muller pairs, which are transformed straight
into the output's columns. When the process may run on more than one CPU, a
worker thread transforms queued chunks alongside the calling thread, which
queues a run's chunks, takes its share and then steps the next run. numpy's
loops (logl, cos, sin, sqrt) release the GIL, so the two cores overlap; a
thread waiting for the GIL while the other makes many short numpy calls
waits long, which is why chunks are large and only the caller steps lanes.
The worker runs only private helpers (_transform, _box_muller, _log,
_math_log) and numpy, never a public name or a RandomStream method, and
lane_normals joins it and re-raises its exception before returning. The
bits cannot change: each element comes from the same ufuncs on the same two
draws whichever thread or chunk computes it, and chunks write disjoint
columns. With one CPU in the affinity mask, or input too small for two
chunks, no thread starts and the caller transforms every chunk itself; so
it does when the thread cannot be started (a process at its thread limit).
"""

from __future__ import annotations

import math
import os
import queue
import threading
from dataclasses import fields

import numpy as np

__all__ = [
    "NonFiniteError",
    "RandomStream",
    "ZERO_NORM_THRESHOLD",
    "ZeroVectorError",
    "as_float_array",
    "check_finite_fields",
    "derive_seed",
    "derive_seeds",
    "l2_normalize",
    "lane_normals",
    "lane_sample_indices",
    "splitmix64",
]

_MASK64 = (1 << 64) - 1

# Streams advanced together by the lane functions; bounds their temporaries.
LANE_BLOCK = 2048

# lane_normals transforms whole steps of a lane block, about this many
# Box-Muller pairs, at a time; it steps _RUN_CHUNKS chunks before transforming
# them, which bounds the draws it holds.
_CHUNK_PAIRS = 8192
_RUN_CHUNKS = 2

# Norms at or below this are treated as zero; normalizing them is an error.
ZERO_NORM_THRESHOLD = 1e-12


class ZeroVectorError(ValueError):
    """Normalization was requested for a vector of (near-)zero length."""


class NonFiniteError(ValueError):
    """A computed quantity overflowed to infinity or became NaN."""


def as_float_array(values, *, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def check_finite_fields(config) -> None:
    """Raise ValueError naming the first float field of a dataclass that is NaN or infinite."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit Euclidean length.

    Raises ZeroVectorError when the norm is at or below 1e-12 and
    NonFiniteError when its square overflows float64; anything between is
    safe to divide by.
    """
    arr = as_float_array(v, name="vector")
    # Fewer than 2^20 squares below 2^1000 cannot overflow. Only larger
    # vectors enter np.errstate: entering it on every call raised the
    # datagen benchmark's peak RSS by about 1 MB (x86-64, numpy 2.4).
    if arr.size < 2**20 and np.abs(arr).max(initial=0.0) < 2.0**500:
        norm = float(np.linalg.norm(arr))
    else:
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(arr))
    if norm == math.inf:
        raise NonFiniteError("cannot normalize vector: its squared norm overflows float64")
    if norm <= ZERO_NORM_THRESHOLD:
        raise ZeroVectorError(f"cannot normalize vector with norm {norm:.3e}")
    return arr / norm


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step; returns (next_state, output).

    Used for seeding and for deriving independent sub-stream seeds.
    """
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, (z ^ (z >> 31)) & _MASK64


def derive_seed(seed: int, *components: int) -> int:
    """Mix integer tags into a seed, giving an independent 64-bit sub-seed.

    Each component is folded in through a splitmix64 output step, so nearby
    tags (epoch numbers, sample ids) land on unrelated streams.
    """
    state = seed & _MASK64
    for part in components:
        _, state = splitmix64(state ^ (part & _MASK64))
    _, state = splitmix64(state)
    return state


def derive_seeds(seed: int, *components) -> np.ndarray:
    """derive_seed over integer arrays, as a 1-D uint64 vector.

    Components are ints or integer (or bool) arrays, broadcast against each
    other (negative values wrap mod 2^64, as in derive_seed). Entry i equals
    derive_seed(seed, *(c[i] for c in components)). An array of any other
    dtype raises TypeError, as a float does in derive_seed.
    """
    parts = [
        np.asarray(c & _MASK64, dtype=np.uint64) if isinstance(c, int)
        else _uint64s(c, f"derive_seeds component {k}")
        for k, c in enumerate(components)
    ]
    shape = np.broadcast_shapes(*(p.shape for p in parts))
    state = np.full(shape, seed & _MASK64, dtype=np.uint64).reshape(-1)
    for part in parts:
        _, state = _splitmix64_lanes(state ^ np.broadcast_to(part, shape).reshape(-1))
    _, state = _splitmix64_lanes(state)
    return state


def _uint64s(values, name: str) -> np.ndarray:
    """values as a uint64 array, negatives wrapped mod 2^64.

    Raises TypeError naming `name` unless the dtype is integer or bool: a
    cast would truncate floats and parse strings.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biu":
        raise TypeError(f"{name} must be integers, got dtype {arr.dtype}")
    return arr.astype(np.uint64, copy=False)


def _splitmix64_lanes(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """splitmix64 on every lane of a uint64 vector (arithmetic wraps mod 2^64)."""
    state = state + np.uint64(0x9E3779B97F4A7C15)
    z = (state ^ (state >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return state, z ^ (z >> np.uint64(31))


class RandomStream:
    """Deterministic xoshiro256** stream with Box-Muller normal draws.

    The four 64-bit state words are seeded from successive splitmix64
    outputs of the seed. Each draw advances the state by the xoshiro256**
    recurrence, verbatim (all arithmetic mod 2^64, rotl(x, k) rotates the
    64-bit word left by k):

        output = rotl(s1 * 5, 7) * 9
        t   = s1 << 17
        s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
        s2 ^= t
        s3  = rotl(s3, 45)

    Standard normals come from the Box-Muller transform applied to two
    consecutive outputs a, b:

        u1 = ((a >> 11) + 1) * 2**-53        in (0, 1]
        u2 = (b >> 11) * 2**-53              in [0, 1)
        z0 = sqrt(-2 ln u1) * cos(2 pi u2)
        z1 = sqrt(-2 ln u1) * sin(2 pi u2)

    z0 is returned first and z1 cached for the next call. Identical seeds
    give bit-identical sequences on every platform; the pure-integer state
    update never touches floating point.

    The state update runs in Python on ints (_words), the scrambler on the
    collected s1 words as a uint64 array: the words are the same as the
    recurrence's, one output per step. Draws are taken in batches:
    permutation and sample_indices reduce all their words with one array %.
    """

    __slots__ = ("seed", "draw_count", "_s", "_spare_normal")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        state = self.seed
        words = []
        for _ in range(4):
            state, out = splitmix64(state)
            words.append(out)
        self._s = words
        self._spare_normal: float | None = None
        self.draw_count = 0

    def _words(self, count: int) -> np.ndarray:
        """The next count raw 64-bit outputs, as a uint64 vector.

        The one copy of the state update: it runs on local ints, collecting
        s1 before each step, and the state and draw_count are written back
        once. The output scrambler then runs on the collected words as one
        uint64 array (_scramble).
        """
        ones = []
        keep = ones.append
        s0, s1, s2, s3 = self._s
        for _ in range(count):
            keep(s1)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s = [s0, s1, s2, s3]
        self.draw_count += count
        words = np.array(ones, dtype=np.uint64)
        return _scramble(words, words, np.empty_like(words))

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        return int(self._words(1)[0])

    def normal(self) -> float:
        """One standard normal draw (Box-Muller, pairs cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        a, b = self._words(2).tolist()
        u1 = ((a >> 11) + 1) * 2.0**-53
        u2 = (b >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws as a float64 vector: n calls of normal(), bit for bit.

        A cached spare comes first. The rest come from fresh Box-Muller
        pairs, whose transform runs on whole arrays (_box_muller). An odd
        count caches the last pair's second value.
        """
        out = np.empty(n)
        done = 0
        if n and self._spare_normal is not None:
            out[0], self._spare_normal, done = self._spare_normal, None, 1
        pairs = (n - done + 1) // 2
        words = self._words(2 * pairs)
        z = np.empty(2 * pairs)
        z[0::2], z[1::2] = _box_muller(words[0::2], words[1::2])
        out[done:] = z[: n - done]
        if (n - done) % 2:
            self._spare_normal = float(z[-1])
        return out

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard normals, filled in row-major draw order."""
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n); the swap at i takes index next_u64() % (i + 1)."""
        items = list(range(n))
        picks = self._words(max(n - 1, 0)) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), picks.tolist()):
            items[i], items[j] = items[j], items[i]
        return items

    def sample_indices(self, n: int, m: int) -> list[int]:
        """m distinct indices from range(n), drawn without replacement.

        The swap at i takes index i + next_u64() % (n - i).
        """
        if not 0 <= m <= n:
            raise ValueError(f"cannot draw {m} distinct indices from {n}")
        pool = list(range(n))
        picks = self._words(m) % np.arange(n, n - m, -1, dtype=np.uint64)
        for i, j in enumerate(picks.tolist()):
            j += i
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:m]


# The xoshiro256** multipliers and shifts as uint64 scalars, so lane
# arithmetic stays in uint64.
_U5, _U9, _U7, _U57, _U17, _U45, _U19 = map(np.uint64, (5, 9, 7, 57, 17, 45, 19))


class _Lanes:
    """xoshiro256** state for a block of fresh streams, one uint64 lane each.

    Seeded and advanced exactly as RandomStream; next_u64 writes every
    lane's output at once, updating the state in place.
    """

    def __init__(self, seeds: np.ndarray):
        self.size = seeds.size
        self.s = []
        state = seeds
        for _ in range(4):
            state, out = _splitmix64_lanes(state)
            self.s.append(out)
        self._t = np.empty(self.size, dtype=np.uint64)

    def next_u64(self, out: np.ndarray) -> np.ndarray:
        """Write every lane's next output into `out`, a uint64 vector of `size`, and return it."""
        s0, s1, s2, s3 = self.s
        t = self._t
        _scramble(s1, out, t)
        np.left_shift(s1, _U17, out=t)
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        np.left_shift(s3, _U45, out=t)
        s3 >>= _U19
        s3 |= t
        return out


def _scramble(s1: np.ndarray, out: np.ndarray, t: np.ndarray) -> np.ndarray:
    """xoshiro256**'s output rotl(s1 * 5, 7) * 9 of every word of s1, into out; t is scratch.

    out may be s1 itself; t must be another array of the same size.
    """
    np.multiply(s1, _U5, out=out)
    np.left_shift(out, _U7, out=t)
    out >>= _U57
    out |= t
    out *= _U9
    return out


def _lane_blocks(seeds: np.ndarray):
    """(rows, lanes) for each run of at most LANE_BLOCK seeds."""
    for start in range(0, seeds.size, LANE_BLOCK):
        rows = slice(start, start + LANE_BLOCK)
        yield rows, _Lanes(seeds[rows])


def _math_log(values: np.ndarray) -> np.ndarray:
    """math.log on every element, one call each: libm's rounding, not numpy's."""
    flat = np.ascontiguousarray(values).reshape(-1)
    return np.fromiter(map(math.log, memoryview(flat)), np.float64, flat.size).reshape(values.shape)


# Box-Muller's log rounds libm's logl when the long double carries at least
# 64 significand bits (x87 extended on x86-64), 11 more than float64.
_EXTENDED_LOG = np.finfo(np.longdouble).nmant >= 63

# Elements per extended-precision temporary in _log.
_LOG_CHUNK = 4096

_EXPONENT_BITS = np.uint64(0x7FF0000000000000)

# floor * _NEAR_MIDPOINT is 7/16 of d's ulp (floor is the power of two at or
# below |d|): an extended log that far from d is within 1/16 ulp of a midpoint.
_NEAR_MIDPOINT = 7 / 16 * 2.0**-52


def _log(u: np.ndarray) -> np.ndarray:
    """math.log on every element of a float64 array in (0, 1], bit for bit (see _box_muller)."""
    if not _EXTENDED_LOG:
        return _math_log(u)
    flat = np.ascontiguousarray(u).reshape(-1)
    out = np.empty(flat.size)
    for start in range(0, flat.size, _LOG_CHUNK):
        x, d = flat[start : start + _LOG_CHUNK], out[start : start + _LOG_CHUNK]
        ext = np.log(x.astype(np.longdouble))
        d[:] = ext
        floor = (d.view(np.uint64) & _EXPONENT_BITS).view(np.float64)
        off = np.abs((ext - d).astype(np.float64))
        redo = np.flatnonzero((off >= floor * _NEAR_MIDPOINT) | (np.abs(d) == floor))
        d[redo] = _math_log(x[redo])
    return out.reshape(u.shape)


def _box_muller(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(z0, z1) of RandomStream.normal's Box-Muller transform on uint64 draw arrays a, b.

    Bit for bit with `math`. numpy's float64 cos and sin call libm. The log
    (_log) is numpy's long double log (libm's logl) rounded to float64 as d,
    with math.log recomputing two kinds of element: those whose extended
    log lies within 1/16 ulp of a float64 rounding midpoint, and those whose
    d is a power of two or zero, where the ulp below d is half the ulp
    above; about 1/8 of draws. Every other element is more than 1/16 ulp
    from a midpoint, so any double log that errs by less than 0.5 + 1/16
    ulp, less logl's own error (a few units in its 64th bit, each 2^-11
    float64 ulp), rounds to d. glibc's log states a worst case of 0.519 ulp
    in its source (sysdeps/ieee754/dbl-64/e_log.c, glibc 2.28 on; earlier
    glibc rounded log correctly). Hosts whose long double has fewer than 64
    significand bits take math.log on every element.
    """
    # In place, to hold fewer chunk-sized temporaries; a float product is
    # the same whichever operand comes first, so these are the bits of
    # sqrt(-2.0 * log(u1)) * cos(2.0 * pi * u2) and its sine.
    r = _log(((a >> np.uint64(11)) + np.uint64(1)) * 2.0**-53)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = (b >> np.uint64(11)) * 2.0**-53
    theta *= 2.0 * math.pi
    z0 = np.cos(theta)
    z0 *= r
    z1 = np.sin(theta, out=theta)
    z1 *= r
    return z0, z1


def lane_normals(seeds, n: int) -> np.ndarray:
    """(len(seeds), n) standard normals; row i is RandomStream(seeds[i]).normals(n).

    Bit for bit, odd n included: each lane draws the Box-Muller pairs a
    fresh RandomStream would, in the same order, and an odd n drops the last
    pair's second value, which RandomStream would have cached. With a spare
    CPU, a worker thread shares the Box-Muller transform (module docstring).
    """
    seeds = _uint64s(seeds, "lane_normals seeds").reshape(-1)
    out = np.empty((seeds.size, n))
    pairs = (n + 1) // 2
    ready, failed = queue.SimpleQueue(), []
    worker = None
    if seeds.size * pairs > _CHUNK_PAIRS and _spare_core():
        worker = threading.Thread(target=_transform_all, args=(ready, out, failed), daemon=True)
        try:
            worker.start()
        except RuntimeError:  # no thread to be had: the caller transforms every chunk
            worker = None
    try:
        for rows, lanes in _lane_blocks(seeds):
            steps = max(1, _CHUNK_PAIRS // lanes.size)
            for start in range(0, pairs, _RUN_CHUNKS * steps):
                a = np.empty((min(pairs - start, _RUN_CHUNKS * steps), lanes.size), dtype=np.uint64)
                b = np.empty_like(a)
                for a_row, b_row in zip(a, b):
                    lanes.next_u64(a_row)
                    lanes.next_u64(b_row)
                for i in range(0, len(a), steps):
                    ready.put((rows, start + i, a[i : i + steps], b[i : i + steps]))
                while True:
                    try:
                        chunk = ready.get_nowait()
                    except queue.Empty:
                        break
                    _transform(out, *chunk)
    finally:
        if worker is not None:
            ready.put(None)
            worker.join()
    if failed:
        raise failed[0]
    return out


def _spare_core() -> bool:
    """Whether this process may run on more than one CPU."""
    try:
        return len(os.sched_getaffinity(0)) > 1
    except AttributeError:  # no affinity call on this platform
        return (os.cpu_count() or 1) > 1


def _transform(out: np.ndarray, rows: slice, first: int, a: np.ndarray, b: np.ndarray) -> None:
    """Write the Box-Muller pairs first, first + 1, ... of lanes `rows`, drawn as a and b.

    Pair p fills columns 2p and 2p + 1 of out; a last pair past an odd
    width keeps only its first value.
    """
    z0, z1 = _box_muller(a, b)
    stop = min(out.shape[1], 2 * (first + len(a)))
    out[rows, 2 * first : stop : 2] = z0.T
    out[rows, 2 * first + 1 : stop : 2] = z1[: (stop - 2 * first) // 2].T


def _transform_all(ready, out: np.ndarray, failed: list) -> None:
    """The worker: transform chunks from `ready` until None; an exception goes to `failed`."""
    try:
        while (chunk := ready.get()) is not None:
            _transform(out, *chunk)
    except BaseException as exc:  # re-raised by lane_normals on the calling thread
        failed.append(exc)


def lane_sample_indices(seeds, n: int, m: int) -> np.ndarray:
    """(len(seeds), m) int64; row i is RandomStream(seeds[i]).sample_indices(n, m)."""
    if not 0 <= m <= n:
        raise ValueError(f"cannot draw {m} distinct indices from {n}")
    seeds = _uint64s(seeds, "lane_sample_indices seeds").reshape(-1)
    out = np.empty((seeds.size, m), dtype=np.int64)
    for rows, lanes in _lane_blocks(seeds):
        pool = np.tile(np.arange(n, dtype=np.int64), (lanes.size, 1))
        lane = np.arange(lanes.size)
        draw = np.empty(lanes.size, dtype=np.uint64)
        for i in range(m):
            j = i + (lanes.next_u64(draw) % np.uint64(n - i)).astype(np.int64)
            picked = pool[lane, j]
            pool[lane, j] = pool[:, i]
            pool[:, i] = picked
        out[rows] = pool[:, :m]
    return out
