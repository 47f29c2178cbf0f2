"""Counter-based random numbers (SplitMix64), fully pinned down.

Every stochastic choice in this package (weight init, dropout masks,
synthetic data, shuffling) is drawn from this generator so that a run is a
pure function of its 64-bit seed.  The algorithm, so another implementation
can reproduce the streams bit for bit:

    state_i  = (seed + (counter + i + 1) * 0x9E3779B97F4A7C15)  mod 2^64
    z = state_i
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9                    mod 2^64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB                    mod 2^64
    out_i = z ^ (z >> 31)

Draw i consumes counter position ``counter + i``; a draw of n words advances
the counter by n.  Derived quantities:

* uniform double in [0, 1):   (out >> 11) * 2**-53
* normal deviates:            Box-Muller on consecutive uniform pairs
                              u1 = ((out_a >> 11) + 1) * 2**-53   (0, 1]
                              u2 = (out_b >> 11) * 2**-53
                              r = sqrt(-2 ln u1); z0 = r cos(2 pi u2),
                              z1 = r sin(2 pi u2); n normals consume
                              ceil(n/2) pairs, z1 of the last pair is
                              dropped when n is odd
* integer in [0, bound):      floor(uniform * bound)
* permutation of n:           Fisher-Yates from the high index down, using
                              one integer draw in [0, i+1) per position i

Each word is a pure function of the seed and its counter position, so
``words_at`` draws the words at any positions, in any order and shape, and
``Rng.next_u64`` is ``words_at`` over the next n positions.  ``mix64`` is the
same finalizer on one Python integer: ``mix64(seed + (p + 1) * GAMMA)`` is
the word at position p, for a caller that needs a few scalar words fast.

The permutation's n-1 integer draws are consecutive words of the stream, and
the swap index j_i = min(floor(u_i * (i+1)), i) depends on word i and position
i alone, never on the permutation built so far.  So all j_i are computed in
one vectorised pass and only the swaps run in a loop, with the same words and
the same final counter as one draw per position.  The ``words_to_*``
functions apply the derivations above to words drawn earlier, so a caller can
take several quantities' words in one draw.

``Rng.normal`` draws in chunks of ``CHUNK_WORDS`` words, an even count, so no
pair is split, and scales each chunk in float64 before its one rounding to the
target dtype: a draw holds its output and a few chunks, never a float64 copy.
"""

from __future__ import annotations

import math

import numpy as np

GAMMA = 0x9E3779B97F4A7C15
_GAMMA = np.uint64(GAMMA)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF
_INV_2_53 = 2.0 ** -53
CHUNK_WORDS = 1 << 15  # words per chunk of a long draw: even, so Box-Muller pairs stay whole


def _mix(z: np.ndarray) -> np.ndarray:
    t = np.empty_like(z)  # the finalizer runs in place on the uint64 states z, with this one temporary
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        z ^= np.right_shift(z, np.uint64(30), out=t)
        z *= _MIX1
        z ^= np.right_shift(z, np.uint64(27), out=t)
        z *= _MIX2
        z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


def mix64(x: int) -> int:
    """SplitMix64 finalizer on one integer, taken mod 2^64, in Python integers."""
    z = x & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def words_at(seed: int, positions) -> np.ndarray:
    """The stream's words at the given counter positions (integers >= 0, any shape)."""
    z = np.asarray(positions).astype(np.uint64)
    z *= _GAMMA
    z += np.uint64((seed + GAMMA) & _MASK)  # state = seed + (position + 1) * GAMMA
    return _mix(z)[()]  # a scalar position gives a numpy scalar


def derive_seed(base: int, *tags: int) -> int:
    """Fold integer tags into a base seed, one mix round per tag.

    Used to give independent, reproducible streams to subsystems
    (init / dropout / shuffle / ...) without shared state:
    ``seed_k = mix64(seed_{k-1} ^ mix64(tag_k))`` starting from ``base``.
    """
    s = base & _MASK
    for t in tags:
        s = mix64(s ^ mix64(t & _MASK))
    return s


def words_to_uniform(words: np.ndarray) -> np.ndarray:
    """Uniform doubles in [0, 1), one per word."""
    u = (words >> np.uint64(11)).astype(np.float64)
    u *= _INV_2_53
    return u


def words_to_integers(words: np.ndarray, bound) -> np.ndarray:
    """Integers in [0, bound), one per word; ``bound`` may be an array."""
    return np.minimum((words_to_uniform(words) * bound).astype(np.int64), bound - 1)


def words_to_normals(words: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Box-Muller: two normals per consecutive pair of words (even count), written
    into ``out`` (float64, one per word) when given."""
    r = (words[0::2] >> np.uint64(11)).astype(np.float64)
    r += 1.0
    r *= _INV_2_53
    np.log(r, out=r)
    r *= -2.0
    np.sqrt(r, out=r)
    theta = words_to_uniform(words[1::2])
    theta *= 2.0 * math.pi
    z = np.empty(words.size) if out is None else out
    for half, trig in ((z[0::2], np.cos), (z[1::2], np.sin)):
        np.multiply(trig(theta, out=half), r, out=half)
    return z


def words_to_permutation(words: np.ndarray, n: int) -> np.ndarray:
    """Fisher-Yates permutation of n from its n-1 words (positions n-1 .. 1)."""
    perm = list(range(n))
    for i, j in zip(range(n - 1, 0, -1), words_to_integers(words, np.arange(n, 1, -1)).tolist()):
        perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)


class Rng:
    """Sequential view over the SplitMix64 counter stream for one seed."""

    def __init__(self, seed: int, counter: int = 0):
        self.seed = seed & _MASK
        self.counter = counter & _MASK

    @property
    def state(self) -> tuple[int, int]:
        return (self.seed, self.counter)

    def next_u64(self, n: int) -> np.ndarray:
        out = words_at(self.seed + self.counter * GAMMA, np.arange(n, dtype=np.uint64))
        self.counter = (self.counter + n) & _MASK
        return out

    def uniform(self, shape, dtype=np.float64) -> np.ndarray:
        n = math.prod(shape)
        return np.asarray(words_to_uniform(self.next_u64(n)).reshape(shape), dtype=dtype)

    def normal(self, shape, dtype=np.float64, scale=1.0) -> np.ndarray:
        """N(0, scale^2) deviates of ``dtype``, drawn ``CHUNK_WORDS`` words at a time."""
        n = math.prod(shape)
        out = np.empty(n, dtype)
        z = np.empty(min(n + n % 2, CHUNK_WORDS))
        for lo in range(0, n, CHUNK_WORDS):
            pairs = z[:min(n - lo + n % 2, CHUNK_WORDS)]
            words_to_normals(self.next_u64(pairs.size), out=pairs)
            np.multiply(pairs[:n - lo], scale, out=out[lo:lo + pairs.size], casting="same_kind")
        return out.reshape(shape)

    def integers(self, n: int, bound: int) -> np.ndarray:
        """n independent integers in [0, bound)."""
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        return words_to_integers(self.next_u64(n), bound)

    def permutation(self, n: int) -> np.ndarray:
        return words_to_permutation(self.next_u64(max(n - 1, 0)), n)

    def choice_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct integers from [0, n), in draw order."""
        if k > n:
            raise ValueError(f"cannot draw {k} distinct values from range({n})")
        return self.permutation(n)[:k]
