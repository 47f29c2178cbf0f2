"""The generator must match its documented algorithm bit for bit."""

import math
import tracemalloc

import numpy as np
import pytest

from nextvlad.rng import CHUNK_WORDS, GAMMA, Rng, derive_seed, mix64, words_at, words_to_normals
from nextvlad.vlad import init_normal

MASK = 0xFFFFFFFFFFFFFFFF


def splitmix64_oracle(seed, index):
    """Pure-python big-int reimplementation of the documented stream."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_stream_matches_pure_python_oracle():
    for seed in (0, 1, 0xDEADBEEF, MASK):
        words = Rng(seed).next_u64(10)
        expected = [splitmix64_oracle(seed, i) for i in range(10)]
        assert [int(w) for w in words] == expected


def test_words_at_any_positions_match_the_oracle():
    for seed in (0, 0xDEADBEEF, MASK):
        positions = np.array([[7, 0, 3], [2 ** 40, 5, 5]])
        words = words_at(seed, positions)
        assert words.dtype == np.uint64 and words.shape == (2, 3)
        assert words.tolist() == [[splitmix64_oracle(seed, int(p)) for p in row] for row in positions]
        assert mix64(seed + (2 ** 40 + 1) * GAMMA) == splitmix64_oracle(seed, 2 ** 40)


def test_counter_advances_and_resumes():
    rng = Rng(42)
    a = rng.next_u64(5)
    b = rng.next_u64(5)
    again = Rng(42).next_u64(10)
    assert np.array_equal(np.concatenate([a, b]), again)
    # restoring (seed, counter) continues the same stream
    seed, counter = rng.state
    c = rng.next_u64(3)
    assert np.array_equal(Rng(seed, counter).next_u64(3), c)


def test_uniform_range_and_determinism():
    u = Rng(7).uniform((10_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert np.array_equal(u, Rng(7).uniform((10_000,)))
    assert abs(u.mean() - 0.5) < 0.02


def test_normal_moments():
    z = Rng(3).normal((100_000,))
    assert abs(z.mean()) < 0.02
    assert abs(z.std() - 1.0) < 0.02


def test_normal_odd_count_prefix_of_even():
    odd = Rng(5).normal((7,))
    even = Rng(5).normal((8,))
    assert np.array_equal(odd, even[:7])


def box_muller_oracle(words):
    """The documented Box-Muller, one new array per operation."""
    u1 = ((words[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * math.pi) * u2
    z = np.empty(words.size)
    z[0::2] = r * np.cos(theta)
    z[1::2] = r * np.sin(theta)
    return z


def test_normals_in_place_match_the_allocating_form():
    words = Rng(21).next_u64(2 * CHUNK_WORDS + 2)
    expected = box_muller_oracle(words)
    assert np.array_equal(words_to_normals(words), expected)
    out = np.full(words.size, np.nan)
    assert words_to_normals(words, out=out) is out and np.array_equal(out, expected)


@pytest.mark.parametrize("n", [0, 1, 2, CHUNK_WORDS - 1, CHUNK_WORDS, CHUNK_WORDS + 1, 2 * CHUNK_WORDS + 1])
def test_chunked_normals_equal_one_draw_of_whole_pairs(n):
    rng = Rng(0xC0FFEE, 9)
    z = rng.normal((n,))
    assert z.dtype == np.float64 and z.shape == (n,)
    assert np.array_equal(z, words_to_normals(Rng(0xC0FFEE, 9).next_u64(n + n % 2))[:n])
    assert rng.counter == 9 + n + n % 2


def test_normal_of_a_shape_with_a_zero_dim_draws_nothing():
    rng = Rng(3, 4)
    z = rng.normal((5, 0, 3), np.float32)
    assert z.shape == (5, 0, 3) and z.dtype == np.float32 and rng.counter == 4


@pytest.mark.parametrize("scale", [0.1, np.sqrt(2.0 / 7)])
def test_scaled_float32_normals_round_once_from_float64(scale):
    shape = (3, CHUNK_WORDS // 2 + 7)  # several chunks, an odd count
    z = Rng(8).normal(shape, np.float32, scale)
    assert z.dtype == np.float32
    assert np.array_equal(z, (Rng(8).normal(shape) * scale).astype(np.float32))


def test_init_normal_holds_its_output_and_a_few_chunks():
    tracemalloc.start()
    try:
        out = init_normal(Rng(1), (1024, 1024), 0.1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.dtype == np.float32
    assert peak < out.nbytes + 8 * CHUNK_WORDS * 8  # a float64 copy alone would be 2 * out.nbytes


def test_words_at_a_scalar_position_is_a_numpy_scalar():
    for position in (5, np.uint64(5), np.array(5)):
        word = words_at(3, position)
        assert type(word) is np.uint64 and int(word) == splitmix64_oracle(3, 5)


def test_permutation_is_a_permutation():
    for n in (1, 2, 17, 100):
        perm = Rng(11).permutation(n)
        assert sorted(perm.tolist()) == list(range(n))


def fisher_yates_oracle(seed, counter, n):
    """Scalar Fisher-Yates over oracle words: position i (high to low) swaps
    with j = min(floor(u * (i + 1)), i), u the word's top 53 bits in [0, 1)."""
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        u = (splitmix64_oracle(seed, counter) >> 11) * 2.0 ** -53
        counter += 1
        j = min(int(u * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    return perm


def test_permutation_matches_scalar_fisher_yates_oracle():
    for seed, start in ((11, 0), (0xDEADBEEF, 5), (MASK, 3)):
        for n in (0, 1, 2, 17, 2000):
            rng = Rng(seed, start)
            perm = rng.permutation(n)
            assert perm.dtype == np.int64 and perm.shape == (n,)
            assert perm.tolist() == fisher_yates_oracle(seed, start, n)
            assert rng.counter == start + max(n - 1, 0)


def test_choice_without_replacement_distinct():
    picks = Rng(13).choice_without_replacement(10, 10)
    assert sorted(picks.tolist()) == list(range(10))


def test_integers_within_bound():
    draws = Rng(17).integers(10_000, 7)
    assert draws.min() >= 0 and draws.max() <= 6
    assert set(draws.tolist()) == set(range(7))


def test_derive_seed_changes_with_any_tag():
    base = derive_seed(123, 1, 2)
    assert base != derive_seed(123, 1, 3)
    assert base != derive_seed(123, 2, 2)
    assert base != derive_seed(124, 1, 2)
    assert base == derive_seed(123, 1, 2)


def test_mix64_matches_oracle_finalizer():
    for x in (0, 1, 99, MASK):
        z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK
        z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK
        assert mix64(x) == (z ^ (z >> 31))
