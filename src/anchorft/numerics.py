"""Float64 numeric primitives shared by every other module.

Provides L2 normalization, input validation, and a seeded random stream
whose exact algorithm is documented here so that whole-pipeline runs are
bit-reproducible on any platform.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonFiniteError",
    "RandomStream",
    "ZERO_NORM_THRESHOLD",
    "ZeroVectorError",
    "as_float_array",
    "derive_seed",
    "l2_normalize",
    "splitmix64",
]

_MASK64 = (1 << 64) - 1

# Norms at or below this are treated as zero; normalizing them is an error.
ZERO_NORM_THRESHOLD = 1e-12


class ZeroVectorError(ValueError):
    """Normalization was requested for a vector of (near-)zero length."""


class NonFiniteError(ValueError):
    """A computed quantity overflowed to infinity or became NaN."""


def as_float_array(values, *, name: str = "array") -> np.ndarray:
    """Coerce to a float64 ndarray, rejecting NaN and infinities."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def l2_normalize(v) -> np.ndarray:
    """Scale a vector to unit Euclidean length.

    Raises ZeroVectorError when the norm is at or below 1e-12; anything
    larger is safe to divide by in float64.
    """
    arr = as_float_array(v, name="vector")
    norm = float(np.linalg.norm(arr))
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


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


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

    def next_u64(self) -> int:
        """Next raw 64-bit output."""
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        self.draw_count += 1
        return result

    def uniform(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits of one output."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        """One standard normal draw (Box-Muller, pairs cached)."""
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        a = self.next_u64()
        b = self.next_u64()
        u1 = ((a >> 11) + 1) * 2.0**-53
        u2 = (b >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        """n standard normal draws as a float64 vector."""
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def normal_matrix(self, rows: int, cols: int) -> np.ndarray:
        """rows x cols standard normals, filled in row-major draw order."""
        return self.normals(rows * cols).reshape(rows, cols)

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates shuffle of range(n); index via next_u64() % m."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def sample_indices(self, n: int, m: int) -> list[int]:
        """m distinct indices from range(n), drawn without replacement."""
        if not 0 <= m <= n:
            raise ValueError(f"cannot draw {m} distinct indices from {n}")
        pool = list(range(n))
        for i in range(m):
            j = i + self.next_u64() % (n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:m]
