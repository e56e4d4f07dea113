"""RNG contract, exhaustive populations, and sweep cross-validation."""

import math
import os

import numpy as np
import pytest

from flatrank import linalg
from flatrank.field import GF2, make_binary_field, make_prime_field
from flatrank.rng import GOLDEN, MASK64, Rng, mix64, stream_words_np, sub_seeds_np
from flatrank.formats import canonical_json
from flatrank.search import (
    TABLE_MAX_COLUMNS,
    _Workspace,
    _block_ranks,
    _exhaustive_ranks,
    _exhaustive_sizes,
    _field_sizes,
    _mixed_count,
    _packed_population_ranks,
    _row_bytes,
    _row_layout,
    _row_tables,
    _semidiagonal_block,
    _semidiagonal_words,
    _sliced_ranks,
    _sliced_sizes,
    _stream_block,
    _stream_sizes,
    _table_sizes,
    _transposed,
    exhaustive_min_mfrank,
    random_cross_oddtown_search,
    random_semidiagonal_sweep,
)
from flatrank.formats import tensor_to_document
from flatrank.tensor import (
    Tensor,
    axis_constant_construction,
    flattening_rank,
    index_class_arrays,
    is_semi_diagonal,
    partition_construction,
)


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


def scalar_semidiagonal(a, d, field, rng):
    """One random semi-diagonal tensor, drawn entry by entry from ``rng``.

    The oracle of the sweeps' bulk draw, ``_semidiagonal_block``: a straight
    transcription of the protocol in the ``flatrank.search`` docstring.
    """
    diag, _, mixed = (c.tolist() for c in index_class_arrays(a, d))
    entries = [0] * a**d
    if field.order == 2:
        for flat in diag:
            entries[flat] = 1
        for t, flat in enumerate(mixed):
            if t % 64 == 0:
                word = rng.next_u64()
            entries[flat] = (word >> t % 64) & 1
    else:
        diag_set, mixed_set = set(diag), set(mixed)
        for flat in range(a**d):
            if flat in diag_set:
                entries[flat] = 1 + rng.next_below(field.order - 1)
            elif flat in mixed_set:
                entries[flat] = rng.next_below(field.order)
    return Tensor((a,) * d, field, entries)


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
    with pytest.raises(ValueError):
        Rng(1).next_below(0)


def test_numpy_stream_matches_scalar():
    tmp = np.empty((6, 4), dtype=np.uint64)
    subs = sub_seeds_np(99, 0, np.empty(6, dtype=np.uint64), tmp[:, 0])
    assert [int(s) for s in subs] == [Rng.sub_seed(99, j) for j in range(6)]
    words = stream_words_np(subs, np.empty((6, 4), dtype=np.uint64), tmp)
    for j in range(6):
        rng = Rng(Rng.sub_seed(99, j))
        assert [int(w) for w in words[j]] == [rng.next_u64() for _ in range(4)]


@pytest.mark.parametrize("seed", [0, MASK64], ids=str)
def test_stream_block_rewrites_its_workspace(seed):
    # blocks through one workspace, word for word against Rng: lengths at and
    # just over a power of two, whose sub-seeds come from the next ramp up, a
    # start past 2^32, and shorter tail blocks, which must not read what a
    # longer block left
    for nwords in (1, 2, 3, 4, 21):
        ws = _Workspace(_stream_sizes(65, nwords))
        for start, stop in [(0, 65), (65, 82), (82, 83), (1 << 40, (1 << 40) + 33), (2000, 2064)]:
            words = _stream_block(seed, start, stop, nwords, ws)
            for j in range(start, stop):
                rng = Rng(Rng.sub_seed(seed, j))
                assert words[j - start].tolist() == [rng.next_u64() for _ in range(nwords)], (nwords, j)


def test_stream_ramps_are_kept_read_only(monkeypatch):
    # from an empty store: a ramp is built at the next power of two and read
    # by every shorter request; a longer one builds the next, and a shorter
    # request still reads the shortest
    from flatrank import rng

    monkeypatch.setattr(rng, "_ramps", ())
    ramp = rng._ramp(17)
    assert ramp.tolist() == [j * GOLDEN & MASK64 for j in range(17)]
    assert not ramp.flags.writeable and ramp.base is rng._ramp(32).base is rng._ramp(3).base
    assert rng._ramp(33).tolist() == [j * GOLDEN & MASK64 for j in range(33)]
    assert [r.size for r in rng._ramps] == [32, 64] and rng._ramp(20).base is ramp.base


def test_sweep_builds_only_the_ramps_it_counts(monkeypatch):
    # a block of 3,120 tensors, then a tail of 1,000, whose ramp would be the
    # next power of two down: it reads the first block's, so the sweep builds
    # only what _ramp_bytes counted (the tail once built a 1,024-item ramp
    # beside the block's 4,096)
    import flatrank.search as search
    from flatrank import rng

    blocks = []
    scan = search._scan_blocks

    def recording(total, block, *args):
        blocks.append(block)
        return scan(total, block, *args)

    monkeypatch.setattr(search, "_scan_blocks", recording)
    monkeypatch.setattr(rng, "_ramps", ())
    field = make_prime_field(3)
    random_semidiagonal_sweep(3, 3, 4120, seed=5, field=field)
    assert blocks == [3120]
    nwords = _semidiagonal_words(3, 3, field)
    assert 8 * sum(r.size for r in rng._ramps) <= rng._ramp_bytes(3120, nwords)


def test_exhaustive_small_populations():
    rep = exhaustive_min_mfrank(2, 2)
    assert rep.count == 1 and rep.min_mfrank == 2
    rep = exhaustive_min_mfrank(2, 3)
    assert rep.count == 64 and rep.min_mfrank == 1
    assert rep.min_sum_franks >= math.ceil(3 / 2 * 2)
    rep = exhaustive_min_mfrank(2, 4)
    assert rep.count == 1 << 14 and rep.min_mfrank == 1


@pytest.mark.parametrize("a", [7, 33, 65])
def test_exhaustive_identity_population(a):
    # at d = 2 no entry is mixed, so the population is the identity alone;
    # at a = 33 and 65 its rows are bit-sliced, at 65 wider than one word
    rep = exhaustive_min_mfrank(a, 2)
    assert (rep.count, rep.min_mfrank, rep.min_sum_franks) == (1, a, 2 * a)
    assert rep.extra == {"free_entries": 0}
    for witness in rep.witnesses:
        assert witness["assignment"] == 0 and witness["franks"] == [a, a]
        assert witness["tensor"]["entries"] == np.eye(a, dtype=np.int64).ravel().tolist()


def test_mixed_count_matches_index_classes():
    # the sweeps size their workspace from this count before any index array exists
    for a in range(1, 8):
        for d in range(2, 7):
            if a**d <= 1 << 16:
                assert _mixed_count(a, d) == index_class_arrays(a, d)[2].size, (a, d)


def test_exhaustive_refuses_oversized():
    with pytest.raises(ValueError, match=r"^4\^3 exhaustive population needs 36 free entries, over the cap of 22 free entries$"):
        exhaustive_min_mfrank(4, 3)


def _gf2_block_ranks(entries, a, d):
    """(mfrank, sum_franks) of each GF(2) tensor on A^d in an (N, a^d) block, the oracle of
    the GF(2) sweep kernels: ``matrix_rank`` of each axis's stacked flattenings."""
    n = entries.shape[0]
    grid = entries.reshape((n,) + (a,) * d)
    ranks = np.stack([linalg.matrix_rank(np.moveaxis(grid, ax + 1, 1).reshape(n, a, -1), GF2) for ax in range(d)])
    return ranks.max(axis=0), ranks.sum(axis=0)


def _field_block_ranks(entries, a, d, field):
    """:func:`_block_ranks` of an (N, a^d) block over a field of order > 2, in a workspace of its own."""
    return _block_ranks(entries, a, d, field, _Workspace(_field_sizes(a, d, entries.shape[0], field)))


@pytest.mark.parametrize("field", [GF2, make_prime_field(3), make_binary_field(8)], ids=str)
def test_block_ranks_match_moveaxis(field):
    # the stacked flattenings are copied from transpose views, which must
    # land where np.moveaxis puts them
    from flatrank.linalg import entry_dtype
    from oracles import _rank_generic

    rng = np.random.default_rng(field.order)
    for a, d, n in ((3, 3, 6), (2, 4, 5), (4, 2, 3)):
        grid = rng.integers(0, field.order, (n,) + (a,) * d)
        franks = [
            [_rank_generic(np.moveaxis(g, ax, 0).reshape(a, -1).tolist(), field) for ax in range(d)]
            for g in grid
        ]
        entries = grid.reshape(n, -1).astype(entry_dtype(field))
        if field.order == 2:  # the oracle of the GF(2) sweep kernels
            mfrank, sumrank = _gf2_block_ranks(entries, a, d)
        else:
            mfrank, sumrank = _field_block_ranks(entries, a, d, field)
        assert (mfrank.tolist(), sumrank.tolist()) == ([max(r) for r in franks], [sum(r) for r in franks])


def _rank_300_at_1(monkeypatch):
    """Make a faulty exhaustive kernel rank assignment 300's mfrank 1, its sum_franks as it is."""
    import flatrank.search as search

    kernel = search._exhaustive_ranks

    def faulty(a, d, tables, start, stop, ws):
        mfrank, sumrank = kernel(a, d, tables, start, stop, ws)
        if start <= 300 < stop:
            mfrank[300 - start] = 1
        return mfrank, sumrank

    monkeypatch.setattr(search, "_exhaustive_ranks", faulty)


def test_exhaustive_sweep_counts_violations(monkeypatch, capsys):
    # one assignment ranked below ceil(a / (d-1)) by a faulty kernel: the report
    # counts it, and the CLI exits 1 (the real population has none)
    from flatrank.cli import main

    assert exhaustive_min_mfrank(3, 3).violations == 0
    _rank_300_at_1(monkeypatch)
    rep = exhaustive_min_mfrank(3, 3)
    assert (rep.violations, rep.min_mfrank) == (1, 1)
    assert main(["experiment", "exhaustive", "--a", "3", "--d", "3"]) == 1
    out, err = capsys.readouterr()
    assert '"violations":1' in out and "verification failed" in err


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


def test_exhaustive_builds_one_witness_per_assignment(monkeypatch):
    # the min-mfrank and min-sum witnesses name one assignment at these shapes
    # (d = 2 bit-sliced at 64), so one tensor is built and ranked for both;
    # forced apart, each gets its own, as it was before they were shared
    import flatrank.search as search

    built, franks = [], search.flattening_ranks
    monkeypatch.setattr(search, "flattening_ranks", lambda t: built.append(t) or franks(t))
    for a, d in ((3, 3), (2, 4), (7, 2), (64, 2)):
        built.clear()
        w_mf, w_sum = exhaustive_min_mfrank(a, d).witnesses
        assert len(built) == 1 and w_mf["assignment"] == w_sum["assignment"], (a, d)
        assert w_sum == {**w_mf, "kind": "min_sum_franks"}
    _rank_300_at_1(monkeypatch)
    built.clear()
    rep = exhaustive_min_mfrank(3, 3)
    assert len(built) == 2
    for witness, (kind, v) in zip(rep.witnesses, (("min_mfrank", 300), ("min_sum_franks", 461))):
        t = Tensor((3, 3, 3), GF2, _semidiagonal_block(3, 3, GF2, np.array([[v]], np.uint64))[0])
        want = {"kind": kind, "assignment": v, "tensor": tensor_to_document(t), "franks": franks(t)}
        assert canonical_json(witness) == canonical_json(want)


def _exhaustive_chunks(monkeypatch, a, d):
    """(start, stop) of each ``_exhaustive_ranks`` call of ``exhaustive_min_mfrank(a, d)``."""
    import flatrank.search as search

    calls, kernel = [], search._exhaustive_ranks

    def spy(a, d, tables, start, stop, ws):
        calls.append((start, stop))
        return kernel(a, d, tables, start, stop, ws)

    with monkeypatch.context() as mp:
        mp.setattr(search, "_exhaustive_ranks", spy)
        exhaustive_min_mfrank(a, d)
    return calls


def test_exhaustive_sweeps_3_3_in_8_chunks(monkeypatch):
    # (3,3) writes 18 bytes of rows per assignment, so the power of two of
    # assignments nearest BLOCK_BYTES of them is 2^15: 8 equal chunks of 2^18
    chunks = _exhaustive_chunks(monkeypatch, 3, 3)
    assert chunks == [(s, s + (1 << 15)) for s in range(0, 1 << 18, 1 << 15)]


def _transposed_tables(a, d):
    """``_row_tables(a, d)`` as ``exhaustive_min_mfrank`` hands them to ``_exhaustive_ranks``."""
    dtype = _row_layout(a, d)[0]
    return [_transposed(t, a * d, np.empty((a * d, 256), dtype)) for t in _row_tables(a, d).values()]


def _budget_blocks(monkeypatch, field, a, d, n):
    """Shrink ``BLOCK_BYTES``, the budget that sizes sweeps on A^d over ``field``, to n tensors a block.

    It bounds packed rows over GF(2) and the largest buffer of
    ``_field_sizes`` over larger fields.  Bit-sliced blocks are whole words
    of 64 tensors, so there n is a multiple of 64.  Exhaustive chunks are
    sized by the a*d entries of rows they write per assignment, not by the
    padded rows, to a power of two near that many bytes and at least 256
    assignments, which bounds the chunk count: a budget of 1 would make
    131,072 chunks at (3,3).
    """
    import flatrank.search as search

    if field.order != 2:  # every buffer grows with n
        per_tensor = search._largest_buffer(search._field_sizes(a, d, 1, field))
        monkeypatch.setattr(search, "BLOCK_BYTES", n * per_tensor)
    elif a ** (d - 1) <= TABLE_MAX_COLUMNS:  # a*d packed rows per tensor
        monkeypatch.setattr(search, "BLOCK_BYTES", n * search._row_bytes(a, d))
    else:  # d*a^d gathered bits per tensor
        monkeypatch.setattr(search, "BLOCK_BYTES", n * d * a**d // 8)


# every exhaustive shape with at most 2^18 members: the identity alone (a^d
# with d = 2, or a = 1), which the sweep ranks with the exact kernel its rows
# take, and the populations of 2^6, 2^14 and 2^18 tensors; (64, 2) is the one
# whose rows are too wide for the byte tables
@pytest.mark.parametrize(
    "a,d", [(1, 2), (1, 3), (2, 2), (7, 2), (64, 2), (2, 3), (2, 4), (3, 3)], ids=str
)
def test_exhaustive_chunks_match_matrix_rank(monkeypatch, a, d):
    import flatrank.search as search

    total = 1 << len(index_class_arrays(a, d)[2])
    words = np.arange(total, dtype=np.uint64)[:, None]
    oracle = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
    if total == 1:
        _, sizes, _, kernel = search._exact_plan(a, d, total, 1)
        for got, want in zip(kernel(words, _Workspace(sizes)), oracle):
            assert got.tolist() == want.tolist()
        assert _exhaustive_chunks(monkeypatch, a, d) == []
    if a ** (d - 1) > TABLE_MAX_COLUMNS:
        ws = _Workspace(_sliced_sizes(a, d, total, 1))
        for got, want in zip(_sliced_ranks(a, d, words, ws), oracle):
            assert got.tolist() == want.tolist()
        return
    tables = _transposed_tables(a, d)
    default = (_exhaustive_chunks(monkeypatch, a, d) or [(0, total)])[0][1]  # the sweep's first chunk
    for chunk in {min(total, 256), default}:
        ws = _Workspace(_exhaustive_sizes(a, d, chunk))  # one for all chunks, as in a sweep
        parts = [
            [r.tolist() for r in _exhaustive_ranks(a, d, tables, s, s + chunk, ws)]
            for s in range(0, total, chunk)
        ]
        for got, want in zip(zip(*parts), oracle):
            assert sum(got, []) == want.tolist(), chunk


@pytest.mark.parametrize("a,d", [(2, 3), (2, 4), (3, 3)], ids=str)
def test_exhaustive_chunk_ranks_alone(a, d):
    # a power-of-two chunk at any start that is a multiple of its size, each
    # ranked on a fresh workspace of 0xFF bytes, matches the oracle: a chunk
    # reads nothing that an earlier chunk left in its workspace
    total = 1 << _mixed_count(a, d)
    tables = _transposed_tables(a, d)
    rng = np.random.default_rng(total)
    for n in (1, 16, 64, 256, 2048, 1 << 15):
        if n > total:
            break
        for start in rng.permutation(total // n)[:3] * n:
            sizes = _exhaustive_sizes(a, d, n)
            ws = _Workspace(sizes, bytearray(b"\xff") * _Workspace.nbytes(sizes))
            words = np.arange(start, start + n, dtype=np.uint64)[:, None]
            want = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
            got = _exhaustive_ranks(a, d, tables, int(start), int(start) + n, ws)
            assert [r.tolist() for r in got] == [r.tolist() for r in want], (n, start)


@pytest.mark.parametrize("a,d", [(2, 3), (2, 4), (3, 3)], ids=str)
def test_exhaustive_reports_ignore_chunk_cap(monkeypatch, a, d):
    want = canonical_json(exhaustive_min_mfrank(a, d).to_document())
    for chunk in (1, 256, 1024, None):  # budgets under 256 assignments are raised to 256
        with monkeypatch.context() as mp:
            if chunk:
                _budget_blocks(mp, GF2, a, d, chunk)
            got = exhaustive_min_mfrank(a, d)
        assert canonical_json(got.to_document()) == want, chunk

def test_random_semidiagonal_always_semidiagonal():
    for field in (GF2, make_prime_field(3)):
        words = _stream_block(5, 0, 20, _semidiagonal_words(3, 3, field))
        for entries in _semidiagonal_block(3, 3, field, words):
            assert is_semi_diagonal(Tensor((3, 3, 3), field, entries))


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
        t = scalar_semidiagonal(a, d, field, Rng(Rng.sub_seed(77, j)))
        assert block[j].tolist() == t.entries.tolist(), j


@pytest.mark.parametrize(
    "field,a,d,kernel",
    [
        (GF2, 4, 3, "_packed_population_ranks"),
        (GF2, 7, 3, "_sliced_ranks"),
        (GF2, 6, 3, "_certified_ranks"),
        (make_prime_field(3), 3, 3, "_block_ranks"),
    ],
    ids=str,
)
def test_violation_witness_is_the_scalar_draw(monkeypatch, field, a, d, kernel):
    # the bound never fails, so a kernel that reports mfrank one under it for tensor 5
    # fakes a violation
    import flatrank.search as search

    real = getattr(search, kernel)
    lower = -(-a // (d - 1))

    def faked(*args):
        mfrank, sumrank = real(*args)
        mfrank = mfrank.copy()
        mfrank[5] = lower - 1
        return mfrank, sumrank

    def faked_batches(*args):  # the certificate's batches, then one that ranks tensor 5 low
        yield from real(*args)
        yield np.array([5]), np.array([lower - 1]), np.array([a * d])

    monkeypatch.setattr(search, kernel, faked_batches if kernel == "_certified_ranks" else faked)
    if kernel == "_certified_ranks":  # a sweep shorter than one certified block is not certified
        monkeypatch.setattr(search, "BLOCK_BYTES", _certified_block_bytes(a, d, 9))
    rep = random_semidiagonal_sweep(a, d, 9, seed=41, field=field)
    want = scalar_semidiagonal(a, d, field, Rng(Rng.sub_seed(41, 5)))
    assert rep.violations == 1
    assert rep.witnesses == [{"kind": "violation", "index": 5, "tensor": tensor_to_document(want)}]


def _assert_packed_matches_matrix_rank(a, d, words):
    """The GF(2) kernel the sweeps pick by row width against the batched ``matrix_rank``."""
    n = words.shape[0]
    if a ** (d - 1) <= TABLE_MAX_COLUMNS:
        ws = _Workspace(_table_sizes(a, d, n))
        packed = _packed_population_ranks(a, d, words, _row_tables(a, d), ws)
    else:
        ws = _Workspace(_sliced_sizes(a, d, n, words.shape[1]))
        packed = _sliced_ranks(a, d, words, ws)
    oracle = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
    for got, want in zip(packed, oracle):
        assert got.tolist() == want.tolist()


def _mixed_words(a, d, tensors):
    """Stream words carrying the mixed entries of ``tensors``, bit t of word t // 64."""
    mixed = np.asarray(index_class_arrays(a, d)[2], dtype=np.int64)
    bits = np.array([t.entries[mixed] for t in tensors], dtype=np.uint8).reshape(len(tensors), -1)
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((len(tensors), 8 * _semidiagonal_words(a, d, GF2)), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.view("<u8")


def _hard_words(a, d, n):
    """n random, n near-extremal and the d + 1 extremal tensors' words, in that order.

    Random tensors are nearly all of full rank; the extremal constructions, and
    low-weight changes to them, reach the ranks in between.
    """
    gen = np.random.default_rng(a * 100 + d)
    shape = (6, n, _semidiagonal_words(a, d, GF2))
    noise = gen.integers(0, 1 << 64, size=shape, dtype=np.uint64)
    extremal = [partition_construction(a, d, GF2)]
    extremal += [axis_constant_construction(a, d, ax, GF2) for ax in range(d)]
    extremal = _mixed_words(a, d, extremal)
    sparse = np.bitwise_and.reduce(noise, axis=0)  # about one bit in 64 set
    near = extremal[gen.integers(0, len(extremal), size=n)] ^ sparse
    return np.concatenate((noise[0], near, extremal))


# the byte tables' row dtype boundaries: a^(d-1) = 1, 8, 9, 16, 25, 32; and
# bit-sliced rows of 36, 64, 49, 64 and 64 columns
@pytest.mark.parametrize(
    "a,d",
    [(1, 3), (2, 4), (3, 3), (4, 3), (5, 3), (2, 6), (6, 3), (4, 4), (7, 3), (8, 3), (64, 2)],
    ids=str,
)
def test_packed_ranks_match_matrix_rank(a, d):
    _assert_packed_matches_matrix_rank(a, d, _hard_words(a, d, 200))


# both sides of the 32-column split: a^(d-1) = 32 and 25 take the byte tables;
# 36, 64, 64, 64, 81, 81 and 125 are bit-sliced, and so are 33 and 65 at d = 2
@pytest.mark.parametrize(
    "a,d",
    [(2, 6), (5, 3), (6, 3), (4, 4), (2, 7), (8, 3), (9, 3), (3, 5), (5, 4), (33, 2), (65, 2)],
    ids=str,
)
def test_population_kernels_match_matrix_rank(monkeypatch, a, d):
    hard = _hard_words(a, d, 70)
    for n in (1, 63, 64, 65):  # one lane, a short word, a whole word, a word and one lane
        _assert_packed_matches_matrix_rank(a, d, hard[:n])
        _assert_packed_matches_matrix_rank(a, d, hard[-n:])  # ends on the extremal tensors
        _assert_packed_matches_matrix_rank(a, d, np.zeros_like(hard[:n]))
    # blocks of 64 over 150 tensors: the last, of 22, leaves lanes of its word empty
    words = _stream_block(23, 0, 150, _semidiagonal_words(a, d, GF2))
    mfrank, sumrank = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
    _budget_blocks(monkeypatch, GF2, a, d, 64)
    rep = random_semidiagonal_sweep(a, d, 150, seed=23)
    assert (rep.min_mfrank, rep.min_sum_franks) == (mfrank.min(), sumrank.min())
    assert rep.violations == int((mfrank < math.ceil(a / (d - 1))).sum())


def _certified_block_bytes(a, d, n):
    """The ``BLOCK_BYTES`` at which a certified GF(2) sweep on A^d runs n tensors a block."""
    return n * (_row_bytes(a, d, sampled=True) + 8 * _semidiagonal_words(a, d, GF2))


def _exact_chunks(monkeypatch, chunk):
    """Exact blocks of ``chunk`` tensors, whatever ``BLOCK_BYTES``: certified sweeps rank their misses
    ``chunk`` at a time."""
    import flatrank.search as search

    real, budget = search._exact_plan, search.BLOCK_BYTES

    def exact_plan(a, d, n, nwords):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "BLOCK_BYTES", budget)
            return real(a, d, min(n, chunk), nwords)

    monkeypatch.setattr(search, "_exact_plan", exact_plan)


def _certify(monkeypatch, a, d, words, chunk=None):
    """(mfrank, sum_franks) of ``words`` through the certificate, in one block, and the
    count of tensors it sent to the exact kernel, ``chunk`` at a time (by default
    the exact kernel's block)."""
    import flatrank.search as search

    n, nwords = words.shape
    with monkeypatch.context() as mp:  # a sweep of the n words is one certified block
        mp.setattr(search, "BLOCK_BYTES", _certified_block_bytes(a, d, n))
        block, certified, _ = search._gf2_plan(a, d, n, nwords)
    assert block == n and certified
    chunk = chunk or search._exact_plan(a, d, n, nwords)[0]
    sizes = search._block_plan(a, d, n, nwords, chunk)[0]
    exact = search._exact_plan(a, d, chunk, nwords)[3]
    sent = []

    def counting(w, ws):
        sent.append(w.shape[0])
        return exact(w, ws)

    # a tensor no batch names is certified: its ranks are all a
    mfrank, sumrank = np.full(n, a), np.full(n, a * d)
    tables = _row_tables(a, d, sampled=True)
    batches = search._certified_ranks(a, d, tables, counting, chunk, words, 0, True, _Workspace(sizes))
    at, *pair = next(batches)
    assert (at, [r.tolist() for r in pair]) == (0, [[a], [a * d]])
    for at, mf, sm in batches:
        mfrank[at], sumrank[at] = mf, sm
    assert max(sent, default=0) <= chunk
    return (mfrank, sumrank), sum(sent)


# every certified shape: byte-table misses at (5,3), (2,6) and (3,4), bit-sliced
# ones at 36, 64, 81 and 125 columns, and at (7,3) and (13,3), a = 13 being the
# largest certified axis, where 6% and 55% of a stream block miss
CERTIFIED = [(5, 3), (6, 3), (4, 4), (2, 6), (3, 4), (3, 5), (5, 4), (7, 3), (13, 3)]


@pytest.mark.parametrize("a,d", CERTIFIED, ids=str)
def test_certificate_matches_matrix_rank(monkeypatch, a, d):
    # extremal and near-extremal tensors, whose blocks are nearly all misses,
    # zero words, and a stream block, whose misses are few; the hard words also
    # in exact chunks of one tensor, and of 64
    nwords = _semidiagonal_words(a, d, GF2)
    hard = _hard_words(a, d, 100)
    for words, chunks in (
        (hard, (None, 1, 64)),
        (np.zeros((70, nwords), np.uint64), (None,)),
        (_stream_block(29, 0, 3000, nwords), (None,)),
    ):
        want = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
        short = int((want[1] < a * d).sum())  # tensors that are not of full rank
        for chunk in chunks:
            got, sent = _certify(monkeypatch, a, d, words, chunk)
            assert [r.tolist() for r in got] == [r.tolist() for r in want], chunk
            assert short <= sent <= len(words)
    # the near-extremal and extremal tensors miss: 100 or more, and at (2,6),
    # whose sampled columns certify more of the hard tensors of full rank, 95
    assert _certify(monkeypatch, a, d, hard)[1] >= (95 if (a, d) == (2, 6) else 100)


# byte tables a certified block gathers, one per stream byte that feeds a
# sampled cell; the columns that add the fewest new bytes are taken first
# (22 tables at (4,4), 15 at (3,5), 34 at (5,4) and 42 at (6,4) when the
# columns with the most mixed cells were)
@pytest.mark.parametrize(
    "a,d,tables",
    [(2, 6, 6), (3, 4, 9), (3, 5, 13), (4, 4, 13), (5, 3, 8), (5, 4, 29), (6, 3, 12),
     (6, 4, 37), (7, 3, 16), (13, 3, 59)],
    ids=str,
)
def test_sampled_tables_per_certified_shape(a, d, tables):
    assert len(_row_tables(a, d, sampled=True)) == tables


@pytest.mark.parametrize("a,d", [(4, 3), (14, 3), (33, 2), (2, 4), (1, 20)], ids=str)
def test_certificate_left_to_exact_kernels(monkeypatch, a, d):
    # 16 columns or fewer, or a = 14 over SAMPLE_MAX_A: however long the sweep,
    # every tensor is ranked in full
    import flatrank.search as search

    nwords, count = _semidiagonal_words(a, d, GF2), 10**7
    assert search._gf2_plan(a, d, count, nwords)[1] == 0

    def refused(*args):
        raise AssertionError("certified")

    monkeypatch.setattr(search, "_certified_ranks", refused)
    # blocks of 10 that the certificate would take, were it not for the shape
    monkeypatch.setattr(search, "BLOCK_BYTES", _certified_block_bytes(a, d, 10))
    rep = random_semidiagonal_sweep(a, d, 100, seed=3)
    words = _stream_block(3, 0, 100, nwords)
    mfrank, sumrank = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
    assert (rep.min_mfrank, rep.min_sum_franks) == (mfrank.min(), sumrank.min())


@pytest.mark.parametrize("a,d", CERTIFIED, ids=str)
def test_certificate_takes_sweeps_of_one_block_or_more(monkeypatch, a, d):
    # the certificate's fixed costs pay back within one of its blocks, not
    # before: a sweep one tensor short of a block ranks every tensor in full
    import flatrank.search as search

    nwords = _semidiagonal_words(a, d, GF2)
    plan = lambda count: search._gf2_plan(a, d, count, nwords)[:2]  # (block, chunk): chunk 0 if exact
    block, chunk = plan(10**7)
    assert chunk and plan(block) == (block, min(block, chunk)) and plan(block - 1)[1] == 0

    def refused(*args):
        raise AssertionError("certified")

    monkeypatch.setattr(search, "_certified_ranks", refused)
    random_semidiagonal_sweep(a, d, block - 1, seed=3)


# a stream block sends few tensors to the exact kernel: measured on 60,000
# draws, 0.06-0.18% at (4,4) (blocks of 8,000, on the columns that feed the
# fewest stream bytes), 0.8-1.0% at (5,3) and 2.4-2.9% at (6,3).  A
# certificate that falls back for every tensor, or for a tenth of them, fails
@pytest.mark.parametrize("a,d,limit", [(4, 4, 0.01), (5, 3, 0.02), (6, 3, 0.05)], ids=str)
def test_certificate_sends_few_stream_tensors_to_the_exact_kernel(monkeypatch, a, d, limit):
    words = _stream_block(2026, 0, 8000, _semidiagonal_words(a, d, GF2))
    _, sent = _certify(monkeypatch, a, d, words)
    assert 0 < sent < limit * len(words)


def _sampled_misses(a, d, words):
    """Indices of the tensors of ``words`` whose sampled ranks do not sum to a*d."""
    ws = _Workspace(_table_sizes(a, d, len(words), sampled=True))
    sumrank = _packed_population_ranks(a, d, words, _row_tables(a, d, sampled=True), ws)[1]
    return np.flatnonzero(sumrank != a * d)


def _shrink_certified(monkeypatch, a, d, block, chunk):
    """Certified blocks of ``block`` tensors on A^d, their misses ranked ``chunk`` at a time."""
    import flatrank.search as search

    _exact_chunks(monkeypatch, chunk)
    monkeypatch.setattr(search, "BLOCK_BYTES", _certified_block_bytes(a, d, block))


@pytest.mark.parametrize("a,d", CERTIFIED, ids=str)
def test_queued_misses_rank_exactly(monkeypatch, a, d):
    # the hard words, shuffled so that misses fall in every block, through the
    # certified plan's block loop: every tensor's ranks, and the sweep's
    # result, are the exact kernels'.  Among the (block, chunk) pairs, misses
    # are queued across a block boundary, a queue fills inside a block, with
    # misses of the same block after it, and the last flush is partial
    import flatrank.search as search

    words = _hard_words(a, d, 100)
    words = words[np.random.default_rng(a * d).permutation(len(words))]
    total, nwords, lower = len(words), words.shape[1], -(-a // (d - 1))
    misses = _sampled_misses(a, d, words)
    want = [r.tolist() for r in _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)]
    bad = [j for j, v in enumerate(want[0]) if v < lower]
    want_scan = (
        min((v, j) for j, v in enumerate(want[0])),
        min((v, j) for j, v in enumerate(want[1])),
        len(bad),
        bad[0] if bad else None,
    )
    cases = set()
    for block, chunk in ((16, 7), (50, 11), (30, 13), (64, 64)):
        with monkeypatch.context() as mp:
            _shrink_certified(mp, a, d, block, chunk)
            n, c, (sizes, _, kernel) = search._gf2_plan(a, d, total, nwords)
        assert (n, c) == (block, chunk)
        batches = []

        def ranks(start, stop, ws):
            for at, mfrank, sumrank in kernel(words[start:stop], start, stop == total, ws):
                at_copy = at if isinstance(at, int) else at.copy()  # a view of the queue
                batches.append((start, at_copy, mfrank.tolist(), sumrank.tolist()))
                yield at, mfrank, sumrank

        assert search._scan_blocks(total, n, sizes, ranks, lower) == want_scan, (block, chunk)
        got = [[a] * total, [a * d] * total]  # certified unless a batch of misses names it
        queued = []
        for start, at, mfrank, sumrank in batches:
            if isinstance(at, int):
                assert (at, mfrank, sumrank) == (start, [a], [a * d])
                continue
            queued.append(at)
            for j, mf, sm in zip(at.tolist(), mfrank, sumrank):
                got[0][j], got[1][j] = mf, sm
        assert got == want, (block, chunk)
        # every miss once, in order: 95 or more of the 205 hard tensors
        assert np.concatenate(queued).tolist() == misses.tolist() and len(misses) >= 95
        assert all(len(q) == chunk for q in queued[:-1]) and 0 < len(queued[-1]) <= chunk
        if any(q[0] // block < q[-1] // block for q in queued):
            cases.add("across")
        if any(p[-1] // block == q[0] // block for p, q in zip(queued, queued[1:])):
            cases.add("mid-block")
        if len(queued[-1]) < chunk:
            cases.add("partial")
    assert cases == {"across", "mid-block", "partial"}


@pytest.mark.parametrize("a,d", CERTIFIED, ids=str)
def test_queued_violations_count_every_miss(monkeypatch, a, d):
    # an exact kernel that ranks every queued miss under the bound: the report
    # counts all of them, and its witness is the least, the first stream tensor
    # that misses
    import flatrank.search as search

    real, lower = search._certified_ranks, -(-a // (d - 1))
    count = 4000 if a >= 7 else 30000  # 2 or more misses: (3,4) misses 0.02-0.045%, (13,3) 55%

    def faked(a, d, tables, exact, *block):
        def violating(w, ws):
            mfrank, sumrank = exact(w, ws)
            mfrank[:] = lower - 1
            return mfrank, sumrank

        return real(a, d, tables, violating, *block)

    monkeypatch.setattr(search, "_certified_ranks", faked)
    _shrink_certified(monkeypatch, a, d, 1000, 7)
    rep = random_semidiagonal_sweep(a, d, count, seed=11)
    misses = _sampled_misses(a, d, _stream_block(11, 0, count, _semidiagonal_words(a, d, GF2)))
    assert misses.size > 1 and rep.violations == misses.size and rep.min_mfrank == lower - 1
    want = scalar_semidiagonal(a, d, GF2, Rng(Rng.sub_seed(11, int(misses[0]))))
    assert rep.witnesses == [
        {"kind": "violation", "index": int(misses[0]), "tensor": tensor_to_document(want)}
    ]


# gf2-sweep's certified sweeps at the default blocks, one with misses to
# rank in many chunks, and one with a chunk shrunk below a block's misses
@pytest.mark.parametrize(
    "a,d,count,chunk",
    [(5, 3, 30000, None), (4, 4, 15000, None), (6, 3, 20000, None), (13, 3, 8000, None), (6, 3, 20000, 100)],
    ids=str,
)
def test_certified_sweep_calls_the_exact_kernel_once_a_chunk(monkeypatch, a, d, count, chunk):
    import flatrank.search as search

    real, calls = search._certified_ranks, []

    def counted(a, d, tables, exact, *block):
        def counting(w, ws):
            calls.append(len(w))
            return exact(w, ws)

        return real(a, d, tables, counting, *block)

    monkeypatch.setattr(search, "_certified_ranks", counted)
    if chunk:
        _exact_chunks(monkeypatch, chunk)
    nwords = _semidiagonal_words(a, d, GF2)
    block, chunk, _ = search._gf2_plan(a, d, count, nwords)
    assert 0 < chunk and block < count  # certified, in more than one block
    random_semidiagonal_sweep(a, d, count, seed=31)
    misses = _sampled_misses(a, d, _stream_block(31, 0, count, nwords)).size
    assert len(calls) == -(-misses // chunk) and sum(calls) == misses
    if (a, d) == (4, 4):  # 12 to 20 misses over two blocks: one call, not one a block
        assert len(calls) == 1


# every packed layout a sweep takes, full tables with rows of at most 32
# columns and the sampled tables of the certified shapes
LAYOUTS = [
    (a, d, sampled)
    for d in range(2, 8)
    for a in range(1, 33)
    for sampled in (False, True)
    if (a ** (d - 1) > 16 and a <= 13 if sampled else a ** (d - 1) <= 32)
    and (a ** (d - 1) <= 1 << 16)
]


def test_row_pieces_are_typed_copies():
    # np.take copies rows of 1, 2, 4, 8, 16 and 32 bytes with typed loads: a
    # row of 33 to 64 bytes is gathered as a 32-byte head and a typed tail,
    # one over 64 whole (in pieces it gathered slower); the tables hold the
    # pieces, each contiguous and read-only
    typed = {1, 2, 4, 8, 16, 32}
    for a, d, sampled in LAYOUTS:
        dtype, pieces = _row_layout(a, d, sampled)
        size, nbytes = np.dtype(dtype).itemsize, a * d * np.dtype(dtype).itemsize
        got = [p * size for p in pieces]
        if nbytes > 64:
            assert got == [nbytes], (a, d, sampled)
        else:
            assert set(got) <= typed and got[:-1] == [32] * (len(got) - 1), (a, d, sampled)
            assert nbytes <= sum(got) < 2 * nbytes, (a, d, sampled)
        assert _row_bytes(a, d, sampled) == sum(got)
    for a, d, sampled in [(6, 3, True), (7, 3, True), (13, 3, True), (5, 3, False), (3, 4, False)]:
        widths = _row_layout(a, d, sampled)[1]
        for pieces in _row_tables(a, d, sampled).values():
            assert [p.shape for p in pieces] == [(256, w) for w in widths]
            assert all(p.flags.c_contiguous and not p.flags.writeable for p in pieces)


# every shape whose rows pass 32 bytes: through the sampled tables, then the
# full ones; (9,2), (16,2) and (17,2) at d = 2, (17,2) gathered whole
@pytest.mark.parametrize(
    "a,d,sampled",
    [(6, 3, True), (5, 4, True), (6, 4, True), (7, 3, True), (13, 3, True),
     (5, 3, False), (2, 6, False), (3, 4, False), (9, 2, False), (16, 2, False), (17, 2, False)],
    ids=str,
)
def test_wide_rows_match_matrix_rank(monkeypatch, a, d, sampled):
    assert _row_bytes(a, d, sampled) > 32
    nwords = _semidiagonal_words(a, d, GF2)
    for words in (_hard_words(a, d, 100), _stream_block(3, 0, 500, nwords)):
        if not sampled:
            _assert_packed_matches_matrix_rank(a, d, words)
            continue
        got, _ = _certify(monkeypatch, a, d, words)
        want = _gf2_block_ranks(_semidiagonal_block(a, d, GF2, words), a, d)
        assert [r.tolist() for r in got] == [r.tolist() for r in want]


@pytest.mark.parametrize("a,d", [(2, 3), (2, 4)], ids=str)
def test_packed_ranks_match_matrix_rank_whole_population(a, d):
    free = len(index_class_arrays(a, d)[2])
    _assert_packed_matches_matrix_rank(a, d, np.arange(1 << free, dtype=np.uint64)[:, None])


def test_sweep_matches_scalar_path(monkeypatch):
    # packed GF(2) shapes, in one block and in several, then batched-rank
    # shapes: larger fields with several blocks and with one
    for field, a, d, block in [
        (GF2, 4, 3, None),
        (GF2, 5, 3, None),
        (GF2, 4, 4, None),
        (GF2, 7, 3, None),
        (GF2, 5, 3, 7),
        (GF2, 8, 3, None),
        (make_prime_field(3), 3, 3, 7),
        (make_binary_field(2), 4, 3, None),
    ]:
        with monkeypatch.context() as mp:
            if block:
                _budget_blocks(mp, field, a, d, block)
            sweep = random_semidiagonal_sweep(a, d, 64, seed=2024, field=field)
        scalar_mf = []
        scalar_sum = []
        for j in range(64):
            t = scalar_semidiagonal(a, d, field, Rng(Rng.sub_seed(2024, j)))
            franks = [flattening_rank(t, i) for i in range(d)]
            scalar_mf.append(max(franks))
            scalar_sum.append(sum(franks))
        assert sweep.min_mfrank == min(scalar_mf)
        assert sweep.min_sum_franks == min(scalar_sum)
        assert sweep.violations == sum(1 for v in scalar_mf if v < math.ceil(a / (d - 1)))



def test_sweep_builds_row_tables_once(monkeypatch):
    # full tables for the byte-table kernel, sampled ones for the certificate,
    # once a sweep however many blocks it runs
    import flatrank.search as search

    calls = []

    def counting(a, d, sampled=False):
        calls.append((a, d, sampled))
        return _row_tables(a, d, sampled)

    monkeypatch.setattr(search, "_row_tables", counting)
    # plans are kept with the tables they built: from none kept
    search._block_plan.cache_clear()
    search._exact_kernel.cache_clear()
    for a, d, want in [
        (4, 3, [(4, 3, False)]),  # byte tables alone
        (5, 3, [(5, 3, False), (5, 3, True)]),  # certified, misses through the byte tables
        (4, 4, [(4, 4, True)]),  # certified, misses bit-sliced
        (14, 3, []),  # bit-sliced alone
    ]:
        calls.clear()
        with monkeypatch.context() as mp:
            _budget_blocks(mp, GF2, a, d, 16 if a ** (d - 1) <= TABLE_MAX_COLUMNS else 64)
            random_semidiagonal_sweep(a, d, 200, seed=5)  # 3 or more blocks
        assert calls == want, (a, d)
    # a sweep shorter than one certified block builds no sampled tables
    calls.clear()
    search._block_plan.cache_clear()
    search._exact_kernel.cache_clear()
    random_semidiagonal_sweep(5, 3, 200, seed=5)
    assert calls == [(5, 3, False)]


# a byte-table shape, then bit-sliced shapes with rows of 36, 64 and 81 columns,
# whose blocks are whole words of 64 tensors
@pytest.mark.parametrize(
    "a,d,blocks",
    [(5, 3, (1, 7, 65)), (6, 3, (64, 128)), (4, 4, (64, 128)), (8, 3, (64, 128)), (9, 3, (64, 128))],
    ids=str,
)
def test_sweep_reports_ignore_block_cap(monkeypatch, a, d, blocks):
    want = canonical_json(random_semidiagonal_sweep(a, d, 600, seed=17).to_document())
    for block in (*blocks, None):
        with monkeypatch.context() as mp:
            if block:
                _budget_blocks(mp, GF2, a, d, block)
            got = random_semidiagonal_sweep(a, d, 600, seed=17)
        assert canonical_json(got.to_document()) == want, block


# block sizes that cut the population at and between the ties and violations
@pytest.mark.parametrize("deferred", [False, True], ids=["in order", "deferred"])
@pytest.mark.parametrize("block", [1, 2, 3, 4, 7, 8, 29, 30, 64])
def test_scan_blocks_merges_like_one_pass(block, deferred):
    # deferred, as a certified sweep's queued misses: each block is one pair
    # at or above all of its own, (5, 9) at its first tensor, and its tensors'
    # own ranks come in a batch of index arrays once the next block is read,
    # the last blocks' after the last, latest first
    from flatrank.search import _scan_blocks

    # mfrank is 1 at 3, 11 and 17 and 2 at 9 and 26, all five below 3; sum_franks ties at 4, 12 and 28
    mfrank = np.full(30, 5)
    mfrank[[3, 11]], mfrank[[9, 17, 26]] = 1, (2, 1, 2)
    sumrank = np.full(30, 9)
    sumrank[[4, 12, 28]] = 6
    seen, held = [], []

    def ranks(start, stop, ws):
        seen.append((start, stop))
        if not deferred:
            yield start, mfrank[start:stop], sumrank[start:stop]
            return
        yield start, np.array([5]), np.array([9])
        held.append(np.arange(start, stop))
        while len(held) > (stop < 30):
            at = held.pop()
            yield at, mfrank[at], sumrank[at]

    got = _scan_blocks(30, block, {"rows": (1, np.uint8)}, ranks, 3)
    assert got == ((1, 3), (6, 4), 5, 3)
    assert seen == [(s, min(s + block, 30)) for s in range(0, 30, block)]


def test_sweep_maps_one_arena_per_thread(monkeypatch):
    # a thread's first sweep maps its arena once, however many blocks it runs;
    # the same sweep again maps nothing, and another thread maps its own
    import mmap
    import threading

    mapped = []
    real = mmap.mmap
    monkeypatch.setattr(mmap, "mmap", lambda *args: mapped.append(args) or real(*args))
    gf3 = make_prime_field(3)
    for field, a, d, n, sweep in (
        (GF2, 5, 3, 16, lambda: random_semidiagonal_sweep(5, 3, 200, seed=5)),
        (GF2, 6, 3, 64, lambda: random_semidiagonal_sweep(6, 3, 200, seed=5)),
        (gf3, 3, 3, 4, lambda: random_semidiagonal_sweep(3, 3, 60, 5, field=gf3)),
        (GF2, 2, 4, 256, lambda: exhaustive_min_mfrank(2, 4)),  # 64 chunks
    ):
        mapped.clear()
        linalg._drop_arena()
        with monkeypatch.context() as mp:
            _budget_blocks(mp, field, a, d, n)
            sweep()
            assert len(mapped) == 1
            arena = linalg._arena.map
            sweep()
            assert len(mapped) == 1 and linalg._arena.map is arena
            thread = threading.Thread(target=sweep)
            thread.start()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert len(mapped) == 2 and linalg._arena.map is arena


# one sweep of each kernel, over three blocks: byte tables, exhaustive chunks,
# bit-sliced words with a short last word, the certificate with its misses
# bit-sliced, and the GF(3) elimination
ARENA_SWEEPS = {
    "table": lambda: random_semidiagonal_sweep(4, 3, 40000, seed=5),
    "exhaustive": lambda: exhaustive_min_mfrank(3, 3),
    "sliced": lambda: random_semidiagonal_sweep(7, 3, 9000, seed=5),
    "certified": lambda: random_semidiagonal_sweep(6, 3, 25000, seed=5),
    "gf3": lambda: random_semidiagonal_sweep(3, 3, 7000, 5, field=make_prime_field(3)),
}


def _sweep_blocks(sweep, poison: bool) -> list:
    """[report, sha256 of each rank batch's indices, mfrank and sum_franks] of ``sweep()``.

    With ``poison``, the thread's sweep arena is all 0xFF before each block,
    but for what a sweep keeps from one block to the next, a certified
    sweep's queue of misses (its exact block's stream words, ``queued`` and
    ``fill``): that, from the second block on, holds what it held.
    """
    import hashlib

    import flatrank.search as search

    scan, blocks = search._scan_blocks, []

    def recording(total, block, sizes, ranks, lower):
        def recorded(start, stop, ws):
            if poison:
                names = ("exact.words", "queued", "fill")
                queue = [ws._buffers[q] for q in names if start and q in ws._buffers]
                kept = [buf.copy() for buf in queue]
                np.frombuffer(linalg._arena.map, np.uint8).fill(0xFF)
                for buf, held in zip(queue, kept):
                    np.copyto(buf, held)
            for at, mfrank, sumrank in ranks(start, stop, ws):
                index = np.asarray(at, np.intp).tobytes()
                blocks.append(hashlib.sha256(index + mfrank.tobytes() + sumrank.tobytes()).hexdigest())
                yield at, mfrank, sumrank

        return scan(total, block, sizes, recorded, lower)

    search._scan_blocks = recording
    try:
        return [canonical_json(sweep().to_document()), blocks]
    finally:
        search._scan_blocks = scan


def test_sweeps_read_only_what_they_wrote():
    # a kept arena holds what the last sweep left, where a fresh process maps
    # zero pages: over an arena of 0xFF bytes, each sweep must match a fresh
    # process, block by block
    import json
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    code = (
        "import json, sys\n"
        "import flatrank.linalg as linalg\n"
        "import test_search\n"
        "fresh = {}\n"
        "for name, sweep in test_search.ARENA_SWEEPS.items():\n"
        "    linalg._drop_arena()\n"
        "    fresh[name] = test_search._sweep_blocks(sweep, poison=False)\n"
        "print(json.dumps(fresh))\n"
    )
    path = os.pathsep.join(map(str, [tests, tests.parent / "src", os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    fresh = json.loads(proc.stdout)
    for name, sweep in ARENA_SWEEPS.items():
        assert _sweep_blocks(sweep, poison=True) == fresh[name], name
        assert len(fresh[name][1]) >= 3, name


def test_smaller_plan_after_a_larger_one():
    # the smaller plan's buffers lie over what the larger one left, in the same mapping
    small = lambda: random_semidiagonal_sweep(5, 3, 3000, seed=9)
    linalg._drop_arena()
    want = canonical_json(small().to_document())
    random_semidiagonal_sweep(4, 3, 30000, seed=9)  # the largest GF(2) plan
    arena = linalg._arena.map
    assert canonical_json(small().to_document()) == want
    assert linalg._arena.map is arena


def test_sweep_that_raises_drops_an_arena_over_the_keep_limit():
    # a sweep interrupted partway keeps what one that ends keeps: its arena if
    # small enough, nothing over ARENA_KEEP_BYTES
    import flatrank.search as search
    from flatrank.caps import ARENA_KEEP_BYTES

    class Interrupted(Exception):
        pass

    def ranks(start, stop, ws):
        if start:
            raise Interrupted
        return [(start, np.zeros(stop - start, np.int64), np.zeros(stop - start, np.int64))]

    for nbytes, kept in ((1 << 20, 1 << 20), (ARENA_KEEP_BYTES + 64, 0)):
        linalg._drop_arena()
        with pytest.raises(Interrupted):
            search._scan_blocks(30, 10, {"rows": (nbytes, np.uint8)}, ranks, 0)
        assert linalg._arena_bytes() == kept
    linalg._drop_arena()


def test_concurrent_sweeps_keep_their_own_arenas():
    # more threads than the two cores, each over another plan and all started
    # at once, switching often: every report matches its serial run
    import sys
    import threading

    gf3 = make_prime_field(3)
    sweeps = [
        lambda: random_semidiagonal_sweep(4, 3, 30000, seed=3),
        lambda: random_semidiagonal_sweep(6, 3, 7000, seed=3),
        lambda: random_semidiagonal_sweep(3, 3, 4000, 3, field=gf3),
        lambda: exhaustive_min_mfrank(3, 3),
    ]
    want = [canonical_json(sweep().to_document()) for sweep in sweeps]
    got, arenas = {}, {}
    start = threading.Barrier(len(sweeps))

    def work(i):
        start.wait(timeout=60)
        got[i] = [canonical_json(sweeps[i]().to_document()) for _ in range(3)]
        arenas[i] = linalg._arena.map

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sweeps))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == {i: [report] * 3 for i, report in enumerate(want)}
    assert len({id(arena) for arena in [*arenas.values(), linalg._arena.map]}) == len(sweeps) + 1


@pytest.mark.parametrize("field", [make_prime_field(3), make_prime_field(5), make_binary_field(2)], ids=str)
def test_field_sweep_plan_is_kept(monkeypatch, field):
    # a repeated sweep over a field of order > 2 builds no plan again, and reports the same bytes
    import flatrank.search as search

    want = canonical_json(random_semidiagonal_sweep(3, 3, 120, 7, field=field).to_document())
    calls, sizes = [], search._field_sizes
    monkeypatch.setattr(search, "_field_sizes", lambda *args: calls.append(args) or sizes(*args))
    assert canonical_json(random_semidiagonal_sweep(3, 3, 120, 7, field=field).to_document()) == want
    assert calls == []


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


def test_oddtown_search_stops_drawing_at_the_bound(monkeypatch):
    # a family of (d-1) n members refuses every tuple, so none is drawn past it: a
    # budget of 10^7 returns, apart from its count, the results of a budget of
    # 200,000 that drew every tuple
    draws = []
    next_below = Rng.next_below

    def counted(rng, n):
        draws.append(n)
        assert len(draws) <= 1000, "the search went on drawing past the bound"
        return next_below(rng, n)

    monkeypatch.setattr(Rng, "next_below", counted)
    results = random_cross_oddtown_search(4, 3, 10**7, Rng(1)).to_document()
    assert results == {
        "bound": 8,
        "count": 10**7,
        "largest_size": 8,
        "min_mfrank": None,
        "min_sum_franks": None,
        "population": "random cross-Oddtown growth, n=4, d=3",
        "seed": 1,
        "violations": 0,
        "witnesses": [{"kind": "largest_family", "members": [[1 << i] * 3 for i in range(4) for _ in range(2)]}],
    }
    assert draws == []


def test_oddtown_search_builds_its_distinct_grid_once(monkeypatch):
    # a pairwise-distinct grid past 2^16 cells is built on every call, not cached: at
    # d = 4 each test of a family past 40 members needs one.  The search builds its
    # 64^3 grid once and hands each test the corner of its members.  (At d = 3 the
    # dense cap keeps the family within 256 members, whose 255^2 grid is cached.)
    import flatrank.tensor as tensor_mod

    builds, cached = [], tensor_mod._distinct_cells
    grids = lambda a, d: cached(a, d)
    grids.__wrapped__ = lambda a, d: builds.append((a, d)) or cached.__wrapped__(a, d)
    monkeypatch.setattr(tensor_mod, "_distinct_cells", grids)
    rep = random_cross_oddtown_search(32, 4, 64, Rng(1))
    assert rep.extra["largest_size"] == 64
    assert builds == [(64, 3), (64, 4)]  # and the 64^4 grid of the final check


def test_packed_sum_exact_at_numpy_dimension_cap():
    # a = 1: every flattening has rank 1, so the sum of d = 64 ranks is 64
    assert exhaustive_min_mfrank(1, 64).min_sum_franks == 64
    assert random_semidiagonal_sweep(1, 64, 5, 1).min_sum_franks == 64


def test_short_last_block_fits_the_plan():
    # (4,3) GF(2^8) blocks hold 455 tensors; the last of 655 holds 200, whose
    # elimination gathers more rows below per group than a full block's
    gf256 = make_binary_field(8)
    rep = random_semidiagonal_sweep(4, 3, 655, 1, field=gf256)
    words = _stream_block(1, 0, 655, _semidiagonal_words(4, 3, gf256))
    mfrank, sumrank = _field_block_ranks(_semidiagonal_block(4, 3, gf256, words), 4, 3, gf256)
    assert (rep.min_mfrank, rep.min_sum_franks) == (int(mfrank.min()), int(sumrank.min()))
    assert rep.violations == int((mfrank < 2).sum())


def test_certified_plan_over_the_cap_falls_back_to_the_exact_plan(monkeypatch):
    # a (4,4) sweep of 10,000 certifies blocks of 8,192 in 3.1 MB of workspace; under
    # a cap of 2.5 MB it ranks exact blocks, in 1.8 MB, to the same report
    import flatrank.search as search
    from flatrank import caps

    nwords = _semidiagonal_words(4, 4, GF2)
    want = random_semidiagonal_sweep(4, 4, 10_000, 3).to_document()
    assert search._gf2_plan(4, 4, 10_000, nwords)[1] > 0  # a certified chunk
    search._block_plan.cache_clear()  # plans are kept, with the cap they were built under
    monkeypatch.setattr(caps, "MAX_WORKSPACE_BYTES", 2_500_000)
    try:
        _, chunk, (_, nbytes, _) = search._gf2_plan(4, 4, 10_000, nwords)
        assert chunk == 0 and nbytes <= 2_500_000
        assert random_semidiagonal_sweep(4, 4, 10_000, 3).to_document() == want
    finally:
        search._block_plan.cache_clear()


def test_block_ranks_one_rank_call_per_block(monkeypatch):
    import flatrank.search as search_mod

    calls = []
    rank = search_mod._rank_into
    monkeypatch.setattr(
        search_mod, "_rank_into", lambda m, f, ws: calls.append(m.shape) or rank(m, f, ws)
    )
    gf3 = make_prime_field(3)
    _budget_blocks(monkeypatch, gf3, 3, 3, 4)
    rep = random_semidiagonal_sweep(3, 3, 10, 5, field=gf3)
    assert calls == [(3 * 4, 3, 9), (3 * 4, 3, 9), (3 * 2, 3, 9)]  # all 3 axes of a block at once
    calls.clear()
    words = _stream_block(5, 0, 10, _semidiagonal_words(3, 3, gf3))
    mfrank, sumrank = _field_block_ranks(_semidiagonal_block(3, 3, gf3, words), 3, 3, gf3)
    assert len(calls) == 1
    assert (int(mfrank.min()), int(sumrank.min())) == (rep.min_mfrank, rep.min_sum_franks)
    for j in range(10):
        t = scalar_semidiagonal(3, 3, gf3, Rng(Rng.sub_seed(5, j)))
        franks = [flattening_rank(t, ax) for ax in range(3)]
        assert (mfrank[j], sumrank[j]) == (max(franks), sum(franks))
