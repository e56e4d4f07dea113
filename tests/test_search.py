"""RNG contract, exhaustive populations, and sweep cross-validation."""

import math

import numpy as np
import pytest

from flatrank.field import GF2, make_binary_field, make_prime_field
from flatrank.rng import GOLDEN, MASK64, Rng, mix64, stream_words_np, sub_seeds_np
from flatrank.search import (
    _semidiagonal_block,
    _semidiagonal_words,
    _stream_block,
    exhaustive_min_mfrank,
    random_cross_oddtown_search,
    random_semidiagonal,
    random_semidiagonal_sweep,
)
from flatrank.tensor import Tensor, flattening_rank, is_semi_diagonal


def reference_splitmix(seed, count):
    """Straight transcription of the documented recurrence."""
    out = []
    state = seed & MASK64
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(z ^ (z >> 31))
    return out


def test_rng_matches_reference():
    rng = Rng(0)
    assert [rng.next_u64() for _ in range(5)] == reference_splitmix(0, 5)
    rng = Rng(123456789)
    assert [rng.next_u64() for _ in range(5)] == reference_splitmix(123456789, 5)


def test_rng_determinism_and_derivation():
    a = Rng(7)
    b = Rng(7)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]
    assert Rng.sub_seed(7, 0) == mix64((7 ^ GOLDEN) & MASK64)
    assert Rng(7).derive(3).seed == Rng.sub_seed(7, 3)
    with pytest.raises(ValueError):
        Rng(1).next_below(0)


def test_numpy_stream_matches_scalar():
    subs = sub_seeds_np(99, np.arange(6))
    assert [int(s) for s in subs] == [Rng.sub_seed(99, j) for j in range(6)]
    words = stream_words_np(subs, 4)
    for j in range(6):
        rng = Rng(Rng.sub_seed(99, j))
        assert [int(w) for w in words[j]] == [rng.next_u64() for _ in range(4)]


def test_exhaustive_small_populations():
    rep = exhaustive_min_mfrank(2, 2)
    assert rep.count == 1 and rep.min_mfrank == 2
    rep = exhaustive_min_mfrank(2, 3)
    assert rep.count == 64 and rep.min_mfrank == 1
    assert rep.min_sum_franks >= math.ceil(3 / 2 * 2)
    rep = exhaustive_min_mfrank(2, 4)
    assert rep.count == 1 << 14 and rep.min_mfrank == 1


def test_exhaustive_refuses_oversized():
    with pytest.raises(ValueError, match="population too large"):
        exhaustive_min_mfrank(4, 3)


def test_exhaustive_witnesses_reverify():
    from flatrank.formats import tensor_from_document

    rep = exhaustive_min_mfrank(2, 3)
    for witness in rep.witnesses:
        t = tensor_from_document(witness["tensor"])
        assert is_semi_diagonal(t)
        franks = [flattening_rank(t, i) for i in range(t.ndim)]
        assert franks == witness["franks"]
        if witness["kind"] == "min_mfrank":
            assert max(franks) == rep.min_mfrank
        else:
            assert sum(franks) == rep.min_sum_franks


def test_exhaustive_threads_agree():
    serial = exhaustive_min_mfrank(2, 4, threads=1, chunk_bits=10)
    threaded = exhaustive_min_mfrank(2, 4, threads=4, chunk_bits=10)
    assert serial.to_document() == threaded.to_document()


def test_random_semidiagonal_always_semidiagonal():
    rng = Rng(5)
    for field in (GF2, make_prime_field(3)):
        for _ in range(20):
            t = random_semidiagonal(3, 3, field, rng)
            assert is_semi_diagonal(t)


@pytest.mark.parametrize(
    "field,a,d",
    [
        (GF2, 8, 3),
        (GF2, 3, 2),
        (make_prime_field(3), 3, 3),
        (make_prime_field(5), 4, 3),
        (make_binary_field(2), 3, 3),
        (make_binary_field(8), 2, 4),
    ],
    ids=str,
)
def test_bulk_block_matches_scalar_sampler(field, a, d):
    words = _stream_block(77, 0, 50, _semidiagonal_words(a, d, field))
    block = _semidiagonal_block(a, d, field, words)
    for j in range(50):
        t = random_semidiagonal(a, d, field, Rng(Rng.sub_seed(77, j)))
        assert block[j].tolist() == t.entries.tolist(), j


def test_sweep_matches_scalar_path():
    # bit-packed GF(2) shapes, then batched-rank shapes: GF(2) rows wider than
    # 64 columns, and larger fields with several blocks and with one
    for field, a, d, block in [
        (GF2, 4, 3, 1 << 15),
        (GF2, 5, 3, 1 << 15),
        (GF2, 4, 4, 1 << 15),
        (GF2, 8, 3, 1 << 15),
        (make_prime_field(3), 3, 3, 7),
        (make_binary_field(2), 4, 3, 1 << 15),
    ]:
        sweep = random_semidiagonal_sweep(a, d, 64, seed=2024, field=field, block=block)
        scalar_mf = []
        scalar_sum = []
        for j in range(64):
            t = random_semidiagonal(a, d, field, Rng(Rng.sub_seed(2024, j)))
            franks = [flattening_rank(t, i) for i in range(d)]
            scalar_mf.append(max(franks))
            scalar_sum.append(sum(franks))
        assert sweep.min_mfrank == min(scalar_mf)
        assert sweep.min_sum_franks == min(scalar_sum)
        assert sweep.violations == sum(1 for v in scalar_mf if v < math.ceil(a / (d - 1)))


def test_sweep_gf3_example():
    f3 = make_prime_field(3)
    rep = random_semidiagonal_sweep(5, 3, 10_000, seed=31, field=f3)
    assert rep.violations == 0
    assert rep.min_sum_franks >= math.ceil(1.5 * 5)


def test_sweep_report_determinism():
    a = random_semidiagonal_sweep(4, 3, 5000, seed=1).to_document()
    b = random_semidiagonal_sweep(4, 3, 5000, seed=1).to_document()
    assert a == b
    c = random_semidiagonal_sweep(4, 3, 5000, seed=2).to_document()
    assert c != a


def test_oddtown_search_examples():
    rep = random_cross_oddtown_search(3, 2, 500, Rng(1))
    assert rep.extra["largest_size"] == 3
    rep = random_cross_oddtown_search(3, 3, 500, Rng(1))
    assert rep.extra["largest_size"] == 6
    rep = random_cross_oddtown_search(3, 2, 0, Rng(1))
    assert rep.extra["largest_size"] == 0 and rep.witnesses == []


def test_oddtown_search_never_exceeds_bound():
    for seed in range(5):
        rep = random_cross_oddtown_search(4, 3, 300, Rng(seed))
        assert rep.extra["largest_size"] <= rep.extra["bound"]
