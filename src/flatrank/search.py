"""Brute-force and randomized verification harnesses.

GF(2) populations, in the exhaustive sweep and the random sweeps alike, are
ranked by one of two kernels, chosen by the width of the flattening rows,
a^(d-1) columns.  Blocks of both are sized by the bytes of their rows
(:data:`PACKED_BLOCK_BYTES`), so rows and scratch stay in cache.

* Rows of at most 32 columns (:data:`TABLE_MAX_COLUMNS`) are packed, one
  machine word per row with one bit per column.  The rows of a tensor are
  the XOR of one entry of each byte table, one table per byte of the mixed
  bits; each shape's tables are built once and kept.  A random block gathers
  one table entry per byte of each tensor; an exhaustive chunk, whose
  assignments are consecutive, gathers only its high bytes once per 256
  assignments and XORs in the low-byte table by broadcasting.  All rows of a
  block are then eliminated at once with min-XOR steps, ``min(x, x ^ p)``
  per pivot row p.
* Wider rows are bit-sliced: bit i of word g of a plane holds one entry of
  tensor 64g + i, so every word operation works on 64 tensors.  A block's
  stream words are turned into planes by a 64x64 bit transpose, its rows are
  one gather from the planes, and its elimination runs on all axes and
  lanes at once.  In the exhaustive sweep this is only d = 2 with a > 32,
  whose population is the identity alone.

The split is measured (per tensor, on a 2-vCPU Xeon with numpy 2.4.6): on
the same stream words the bit-sliced kernel ran at 0.65-0.67x the speed of
the byte tables at (4,3), with 16 columns, 0.66-0.71x at (2,6), with 32,
and 0.85-0.92x at (5,3), with 25; the (3,3) exhaustive sweep ran at
0.38-0.40x.  From 36 columns on it wins: whole 20,000-tensor sweeps at
(6,3) and (4,4) took 0.27-0.37 and 0.36-0.47 us per tensor, against
0.44-0.45 and 0.69-0.71 through 64-bit byte tables, and over 64 columns it
is 14-21x faster than :func:`flatrank.linalg.matrix_rank` ((9,3): 1.24-1.28
against 18-22 us).  Larger fields keep the batched
:func:`flatrank.linalg.matrix_rank`.

Randomized sweeps and instance generators run off the documented splitmix64
streams in :mod:`flatrank.rng`, so every report is reproducible from its seed.
Tensor j of a sweep is drawn from the words of the derived stream
``Rng(Rng.sub_seed(seed, j))``, which :func:`_stream_block` reads in bulk, by
:func:`_semidiagonal_block`.  All-distinct entries are 0.  Over a field of
order 2 the diagonal is 1 and the mixed entries, in flat-index order, are the
bits of whole 64-bit words (mixed entry t is bit t % 64 of word t // 64).  Over
a field of order q > 2 each diagonal and mixed entry, in flat-index order,
takes the next word w: 1 + w % (q-1) on the diagonal (uniform nonzero) and
w % q off it (uniform).  A sweep's violation witness is redrawn the same way
from its one stream, ``_stream_block(seed, j, j + 1, nwords)``.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import repeat

import numpy as np

from .field import GF2, FieldDescriptor
from .formats import tensor_to_document
from .fw import Configuration
from .linalg import entry_dtype, matrix_rank
from .rainbow import ColoredHypergraph
from .rng import Rng, stream_words_np, sub_seeds_np
from .setfam import (
    TupleFamily,
    cross_oddtown_bound,
    is_cross_oddtown,
    repeated_singleton_family,
    try_extend_cross_oddtown,
)
from .tensor import Tensor, dense_size, flattening_ranks, index_class_arrays

__all__ = [
    "Rng",
    "SearchReport",
    "exhaustive_min_mfrank",
    "random_semidiagonal_sweep",
    "random_cross_oddtown_search",
    "random_configuration",
    "random_colored_hypergraph",
]

MAX_FREE_ENTRIES = 22
# Tensor entries held by one batched-rank sweep block; bounds a block's memory
# with the rank kernels' temporaries.
BLOCK_ENTRIES = 1 << 20
# Bytes of packed flattening rows in one block of the packed GF(2) kernel, so
# that the rows and their elimination scratch stay in the L2 cache.
PACKED_BLOCK_BYTES = 1 << 19
# Widest flattening rows, in columns, that the byte-table GF(2) kernel takes;
# wider rows go bit-sliced (see the module docstring for the measurements).
TABLE_MAX_COLUMNS = 32


@dataclass
class SearchReport:
    """Outcome of a sweep or a search, as :meth:`to_document` serializes it."""

    population: str
    count: int
    min_mfrank: int | None
    min_sum_franks: int | None
    witnesses: list[dict]
    seed: int | None
    violations: int = 0
    extra: dict = dc_field(default_factory=dict)

    def to_document(self) -> dict:
        doc = {
            "population": self.population,
            "count": self.count,
            "min_mfrank": self.min_mfrank,
            "min_sum_franks": self.min_sum_franks,
            "violations": self.violations,
            "witnesses": self.witnesses,
            "seed": self.seed,
        }
        doc.update(self.extra)
        return doc


@lru_cache(maxsize=None)
def _row_tables(a: int, d: int) -> tuple[np.ndarray, ...]:
    """Byte tables of the packed flattening rows of GF(2) semi-diagonal tensors on A^d.

    Needs ``a ** (d-1) <= 32``.  Row ``r * d + axis`` holds row r of the
    flattening along ``axis``, one bit per column.  ``tables[k][v]`` XORs in
    the mixed entries 8k .. 8k+7 whose bits are set in the byte v, and
    ``tables[0]`` also holds the rows of the unit diagonal, so the rows of a
    tensor are the XOR of one entry per table.  There is always at least one
    table.  Built once per shape and kept, read-only: the largest sets, at
    (3,4) and (5,3), take 123 KB.
    """
    diag, _, mixed = index_class_arrays(a, d)
    cols = a ** (d - 1)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if np.iinfo(t).bits >= cols)

    def entry_rows(flat: np.ndarray) -> np.ndarray:
        """(len(flat), a*d): the rows with only entry ``flat[i]`` set, for each i."""
        idx = np.unravel_index(flat, (a,) * d)
        out = np.zeros((flat.size, a * d), dtype=dtype)
        for ax in range(d):
            col = np.ravel_multi_index(idx[:ax] + idx[ax + 1 :], (a,) * (d - 1)).astype(np.uint64)
            out[np.arange(flat.size), idx[ax] * d + ax] = np.uint64(1) << col
        return out

    nbytes = max(1, -(-mixed.size // 8))
    bits = np.zeros((8 * nbytes, a * d), dtype=dtype)
    bits[: mixed.size] = entry_rows(mixed)
    tables = []
    for k in range(nbytes):
        table = np.zeros((256, a * d), dtype=dtype)
        if k == 0:
            table[0] = np.bitwise_xor.reduce(entry_rows(diag), axis=0)
        for b in range(8):  # bytes with highest set bit b: the bytes below, XOR bit b's rows
            table[1 << b : 2 << b] = table[: 1 << b] ^ bits[8 * k + b]
        table.flags.writeable = False
        tables.append(table)
    return tuple(tables)


def _eliminate(rows: np.ndarray, scratch: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N tensors from their packed rows, laid out ``[r, axis * N + j]``.

    Elimination runs on all N * d flattenings at once, in place: after each
    pivot row p, ``min(x, x ^ p)`` clears p's leading bit from every row x
    below that has it, so the nonzero pivots are independent and their count
    is the rank.  ``scratch`` has the shape and dtype of ``rows``.
    """
    rank = np.zeros(rows.shape[1], dtype=np.uint8)
    for i in range(rows.shape[0]):
        rank += rows[i] != 0
        below, tmp = rows[i + 1 :], scratch[i + 1 :]
        np.bitwise_xor(below, rows[i], out=tmp)
        np.minimum(below, tmp, out=below)
    rank = rank.reshape(d, -1)
    # a sum is at most 32 rows times d <= 64 axes (numpy's cap): exact in uint16,
    # which numpy sums much faster than it casts into int64
    return rank.max(axis=0).astype(np.int64), rank.sum(axis=0, dtype=np.uint16).astype(np.int64)


def _packed_population_ranks(
    a: int, d: int, words: np.ndarray, tables: tuple[np.ndarray, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N GF(2) semi-diagonal tensors on A^d, ``a ** (d-1) <= 32``.

    Row j of the (N, w) uint64 ``words`` holds tensor j's mixed entries, bit t
    of word t // 64 for mixed entry t; that is byte t // 8 of the row's
    little-endian bytes, which indexes ``tables``, the byte tables of
    :func:`_row_tables`.
    """
    n = words.shape[0]
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    # a byte always indexes one of the 256 rows: no bounds check
    rows = np.take(tables[0], as_bytes[:, 0], axis=0, mode="clip")
    buf = np.empty_like(rows)
    for k in range(1, len(tables)):
        np.take(tables[k], as_bytes[:, k], axis=0, out=buf, mode="clip")
        rows ^= buf
    np.copyto(buf.reshape(a * d, n), rows.T)  # [r * d + axis, j] is [r, axis * n + j]
    return _eliminate(buf.reshape(a, d * n), rows.reshape(a, d * n), d)


def _exhaustive_ranks(
    a: int, d: int, tables: tuple[np.ndarray, ...], start: int, stop: int
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of the GF(2) tensors with assignments ``start .. stop-1``.

    ``stop - start`` is a power of two, and ``start`` a multiple of it.  The
    assignments then run through every low byte under each of their high
    bytes: the rows of the high bytes are gathered once per group of (up to)
    256 assignments, and the low-byte table is XORed in by broadcasting,
    straight into the layout :func:`_eliminate` reads.
    """
    n = stop - start
    low = min(n, 256)
    high_bytes = np.arange(start, stop, low, dtype="<u8").view(np.uint8).reshape(-1, 8)
    hi = np.zeros((n // low, a * d), dtype=tables[0].dtype)
    for k in range(1, len(tables)):
        hi ^= tables[k][high_bytes[:, k]]
    rows = np.empty((a, d, n // low, low), dtype=hi.dtype)
    low_rows = np.ascontiguousarray(tables[0][:low].T).reshape(a, d, 1, low)
    np.bitwise_xor(hi.T.reshape(a, d, -1, 1), low_rows, out=rows)
    rows = rows.reshape(a, d * n)
    return _eliminate(rows, np.empty_like(rows), d)


# delta-swap rounds of a 64x64 bit transpose: (shift j, mask of the bits whose bit j is clear)
_TRANSPOSE_ROUNDS = tuple(
    (j, np.uint64(sum(1 << b for b in range(64) if not b & j)))
    for j in (32, 16, 8, 4, 2, 1)
)


@lru_cache(maxsize=None)
def _plane_index(a: int, d: int) -> np.ndarray:
    """(d, a, a^(d-1)) plane of each flattening entry of a GF(2) semi-diagonal tensor on A^d.

    Entry ``[axis, r, c]`` is entry (r, c) of the flattening along ``axis``.
    Plane 0 is all zeros (the pairwise-distinct entries), plane 1 all ones
    (the unit diagonal), and mixed entry t is plane t + 2.
    """
    diag, _, mixed = index_class_arrays(a, d)
    plane = np.zeros(a**d, dtype=np.intp)
    plane[diag] = 1
    plane[mixed] = np.arange(2, mixed.size + 2)
    grid = plane.reshape((a,) * d)
    index = np.stack([np.moveaxis(grid, ax, 0).reshape(a, -1) for ax in range(d)])
    index.flags.writeable = False
    return index


def _bit_planes(words: np.ndarray) -> np.ndarray:
    """(2 + 64 w, W) bit planes of N tensors' mixed entries, ``W = ceil(N / 64)``.

    Row j of the (N, w) uint64 ``words`` holds tensor j's mixed entries, bit t
    of word t // 64 for mixed entry t.  Bit i of word g of plane t + 2 is then
    mixed entry t of tensor 64g + i; plane 0 is zero and plane 1 all ones, as
    :func:`_plane_index` expects.  Lanes past N are zero words.  Each 64x64
    block of bits is transposed in place by six delta-swap rounds, over the
    layout ``[stream word, row, group]`` so every round runs over the groups.
    """
    n, w = words.shape
    groups = -(-n // 64)
    planes = np.zeros((2 + 64 * w, groups), dtype=np.uint64)
    planes[1] = ~np.uint64(0)
    if n < 64 * groups:
        words = np.concatenate((words, np.zeros((64 * groups - n, w), dtype=np.uint64)))
    bits = planes[2:].reshape(w, 64, groups)  # [stream word, row, group]
    bits[...] = words.reshape(groups, 64, w).transpose(2, 1, 0)
    for j, mask in _TRANSPOSE_ROUNDS:
        pairs = bits.reshape(w, -1, 2, j, groups)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        swap = (lo >> j) ^ hi
        swap &= mask
        hi ^= swap
        lo ^= swap << j
    return planes


def _sliced_ranks(a: int, d: int, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N GF(2) semi-diagonal tensors on A^d, 64 tensors per word.

    ``words`` is laid out as for :func:`_bit_planes`.  The rows of all d
    flattenings are one gather from the planes, ``[axis, r, c, group]``.
    Pivot step k works on every axis and lane at once: a prefix-OR of row k
    over the columns gives its "row nonzero" plane (the rank bit) and a
    one-hot pivot column; each row below picks its bit in that column as a
    lane mask and XORs in row k under it.  The rank of a lane is the count of
    its rank bits.
    """
    n = words.shape[0]
    rows = np.take(_bit_planes(words), _plane_index(a, d), axis=0, mode="clip")
    cols = rows.shape[2]
    scratch = np.empty_like(rows)
    pivot = np.empty_like(rows[:, 0])
    nonzero = np.empty((a, d, rows.shape[3]), dtype=np.uint64)
    for k in range(a):
        row = rows[:, k]
        seen = np.bitwise_or.accumulate(row, axis=1)
        nonzero[k] = seen[:, cols - 1]
        if k + 1 == a:
            break
        pivot[:, 0] = seen[:, 0]
        np.bitwise_xor(seen[:, 1:], seen[:, :-1], out=pivot[:, 1:])
        # only columns from the first to the last pivot of any lane can hold a
        # factor: at d = 2, the identity, that is one column and no factor is set
        pivoted = np.flatnonzero(np.bitwise_or.reduce(pivot, axis=(0, 2)))
        if pivoted.size == 0:
            continue
        span = slice(pivoted[0], pivoted[-1] + 1)
        below, tmp = rows[:, k + 1 :], scratch[:, k + 1 :]
        np.bitwise_and(below[:, :, span], pivot[:, None, span], out=tmp[:, :, span])
        lanes = np.bitwise_or.reduce(tmp[:, :, span], axis=2)
        if not lanes.any():
            continue
        np.bitwise_and(row[:, None], lanes[:, :, None], out=tmp)
        below ^= tmp
    as_bytes = nonzero.astype("<u8", copy=False).view(np.uint8)  # bit i of word g: lane 64g + i
    bits = np.unpackbits(as_bytes, axis=2, bitorder="little")[:, :, :n]
    rank = bits.sum(axis=0, dtype=np.int64)  # (d, N)
    return rank.max(axis=0), rank.sum(axis=0)


def _check_shape(a: int, d: int) -> None:
    """Refuse A^d before anything of size a^d is allocated."""
    if a < 1 or d < 2:
        raise ValueError("need a >= 1 and d >= 2")
    dense_size(repeat(a, d), f"tensor on {a}^{d}")


def exhaustive_min_mfrank(
    a: int, d: int, threads: int = 1, chunk_bits: int | None = None
) -> SearchReport:
    """Sweep every GF(2) semi-diagonal tensor on A^d with unit diagonal.

    Mixed entries range over {0,1}; all-distinct entries are 0 and diagonal
    entries 1 (over GF(2) a nonzero diagonal entry is 1, so this loses no
    generality).  Assignment v sets mixed entry t to bit t of v.  Refuses
    populations with more than 2^22 members and tensors over the dense cap.
    The population is ranked in chunks of a power of two assignments, as many
    as fit :data:`PACKED_BLOCK_BYTES` of packed rows and at least 256 (or the
    whole population, if smaller); ``chunk_bits`` caps a chunk at
    ``2 ** chunk_bits`` assignments.  Rows over :data:`TABLE_MAX_COLUMNS`
    columns occur only at d = 2, where the identity alone is bit-sliced.
    """
    _check_shape(a, d)
    f = index_class_arrays(a, d)[2].size
    if f > MAX_FREE_ENTRIES:
        raise ValueError(
            f"population too large: {f} free entries at (a={a}, d={d}) exceeds cap {MAX_FREE_ENTRIES}"
        )
    total = 1 << f
    tabled = a ** (d - 1) <= TABLE_MAX_COLUMNS
    if tabled:
        tables = _row_tables(a, d)
        cap = PACKED_BLOCK_BYTES // tables[0][0].nbytes
        if chunk_bits is not None:
            cap = min(cap, 1 << chunk_bits)
        chunk = min(total, 1 << max(8, cap.bit_length() - 1))
    else:  # d == 2: the identity matrix alone
        chunk = total

    def scan_chunk(start: int, stop: int):
        if tabled:
            mfrank, sumrank = _exhaustive_ranks(a, d, tables, start, stop)
        else:
            mfrank, sumrank = _sliced_ranks(a, d, np.arange(start, stop, dtype=np.uint64)[:, None])
        i_mf = int(np.argmin(mfrank))
        i_sum = int(np.argmin(sumrank))
        return int(mfrank[i_mf]), start + i_mf, int(sumrank[i_sum]), start + i_sum

    spans = [(s, s + chunk) for s in range(0, total, chunk)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda sp: scan_chunk(*sp), spans))
    else:
        parts = [scan_chunk(*sp) for sp in spans]
    best_mf, at_mf = min((p[0], p[1]) for p in parts)
    best_sum, at_sum = min((p[2], p[3]) for p in parts)

    def witness(v: int, label: str) -> dict:
        words = np.array([[v]], dtype=np.uint64)
        t = Tensor((a,) * d, GF2, _semidiagonal_block(a, d, GF2, words)[0])
        return {
            "kind": label,
            "assignment": v,
            "tensor": tensor_to_document(t),
            "franks": flattening_ranks(t),
        }

    return SearchReport(
        population=f"semi-diagonal GF(2) tensors, a={a}, d={d}, diagonal fixed to 1",
        count=total,
        min_mfrank=best_mf,
        min_sum_franks=best_sum,
        witnesses=[witness(at_mf, "min_mfrank"), witness(at_sum, "min_sum_franks")],
        seed=None,
        extra={"free_entries": f},
    )


def _stream_block(seed: int, start: int, stop: int, nwords: int) -> np.ndarray:
    """First ``nwords`` words of the streams of tensors ``start .. stop-1`` of a sweep."""
    return stream_words_np(sub_seeds_np(seed, np.arange(start, stop, dtype=np.uint64)), nwords)


def _semidiagonal_words(a: int, d: int, field: FieldDescriptor) -> int:
    """Stream words :func:`_semidiagonal_block` consumes for one tensor."""
    diag, _, mixed = index_class_arrays(a, d)
    if field.order == 2:
        return max(1, -(-mixed.size // 64))
    return diag.size + mixed.size


def _mixed_bits(words: np.ndarray, f: int) -> np.ndarray:
    """Bit t of word t // 64, for the first ``f`` bits of each row of ``words``."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)  # word t // 64, least byte first
    return np.unpackbits(as_bytes, axis=1, count=f, bitorder="little")


def _semidiagonal_block(a: int, d: int, field: FieldDescriptor, words: np.ndarray) -> np.ndarray:
    """(N, a^d) entries drawn from the (N, nwords) stream ``words``, one tensor per row.

    The draw is the protocol of the module docstring; the entries are in the
    field's narrowest dtype (:func:`flatrank.linalg.entry_dtype`).
    """
    diag, _, mixed = index_class_arrays(a, d)
    entries = np.zeros((words.shape[0], a**d), dtype=entry_dtype(field))
    if field.order == 2:
        entries[:, diag] = 1
        entries[:, mixed] = _mixed_bits(words, mixed.size)
        return entries
    drawn = np.sort(np.concatenate((diag, mixed)))  # one word per drawn entry, in flat order
    on_diag = np.zeros(a**d, dtype=np.uint64)
    on_diag[diag] = 1
    shift = on_diag[drawn]  # diagonal: 1 + w % (q-1); mixed: w % q
    entries[:, drawn] = words % (np.uint64(field.order) - shift) + shift
    return entries


def _block_ranks(
    entries: np.ndarray, a: int, d: int, field: FieldDescriptor
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of each A^d tensor in an (N, a^d) block, one rank call for all axes."""
    grid = entries.reshape((-1,) + (a,) * d)
    n = grid.shape[0]
    stack = np.stack([np.moveaxis(grid, ax + 1, 1) for ax in range(d)])  # (d, N, a, ...)
    ranks = matrix_rank(stack.reshape(d * n, a, -1), field).reshape(d, n)
    return ranks.max(axis=0), ranks.sum(axis=0)


def random_semidiagonal_sweep(
    a: int,
    d: int,
    count: int,
    seed: int,
    field: FieldDescriptor = GF2,
    threads: int = 1,
    block: int | None = None,
) -> SearchReport:
    """Rank statistics over ``count`` random semi-diagonal tensors.

    Tensor j is drawn from ``Rng(Rng.sub_seed(seed, j))``.  Blocks of tensors
    are drawn in bulk and ranked together.  Over GF(2) a block holds
    :data:`PACKED_BLOCK_BYTES` of rows: rows of at most
    :data:`TABLE_MAX_COLUMNS` columns go through the byte tables of
    :func:`_packed_population_ranks`, wider ones through the bit-sliced
    :func:`_sliced_ranks`, whose blocks are whole words of 64 tensors (at
    least one).  Larger fields make one batched :func:`matrix_rank` call for
    all axes in blocks of :data:`BLOCK_ENTRIES` entries.  ``block`` caps a
    block's tensor count.  Shapes over the dense cap are refused before
    anything of size a^d is allocated.
    Violations counts tensors with mfrank < ceil(a / (d-1)).
    """
    _check_shape(a, d)
    if count < 1:
        raise ValueError("need count >= 1")
    lower = -(-a // (d - 1))
    nwords = _semidiagonal_words(a, d, field)
    if field.order != 2:
        cap = BLOCK_ENTRIES // a**d
        ranks = lambda words: _block_ranks(_semidiagonal_block(a, d, field, words), a, d, field)
    elif a ** (d - 1) <= TABLE_MAX_COLUMNS:
        tables = _row_tables(a, d)
        cap = PACKED_BLOCK_BYTES // tables[0][0].nbytes
        ranks = lambda words: _packed_population_ranks(a, d, words, tables)
    else:  # whole words of 64 lanes, d * a^d / 8 bytes of gathered rows per tensor
        cap = max(64, 8 * PACKED_BLOCK_BYTES // (d * a**d) // 64 * 64)
        ranks = lambda words: _sliced_ranks(a, d, words)
    block = max(1, cap if block is None else min(block, cap))

    def scan(span):
        start, stop = span
        mfrank, sumrank = ranks(_stream_block(seed, start, stop, nwords))
        bad = np.nonzero(mfrank < lower)[0]
        return (
            int(mfrank.min()),
            int(sumrank.min()),
            int(bad.size),
            (start + int(bad[0])) if bad.size else None,
        )

    spans = [(s, min(s + block, count)) for s in range(0, count, block)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(scan, spans))
    else:
        parts = [scan(sp) for sp in spans]
    min_mf = min((p[0] for p in parts), default=None)
    min_sum = min((p[1] for p in parts), default=None)
    violations = sum(p[2] for p in parts)
    first_violation = next((p[3] for p in parts if p[3] is not None), None)

    witnesses = []
    if first_violation is not None:
        words = _stream_block(seed, first_violation, first_violation + 1, nwords)
        t = Tensor((a,) * d, field, _semidiagonal_block(a, d, field, words)[0])
        witnesses.append(
            {"kind": "violation", "index": first_violation, "tensor": tensor_to_document(t)}
        )
    return SearchReport(
        population=f"random semi-diagonal tensors over {field}, a={a}, d={d}",
        count=count,
        min_mfrank=min_mf,
        min_sum_franks=min_sum,
        witnesses=witnesses,
        seed=seed,
        violations=violations,
        extra={"required_min_mfrank": lower},
    )


def random_cross_oddtown_search(n: int, d: int, budget: int, rng: Rng) -> SearchReport:
    """Greedy growth of cross-Oddtown families; reports the largest found.

    The first growth pass walks the repeated-singleton members (the known
    extremal family), the remaining budget proposes uniform random tuples.
    The reported size can therefore reach, and never exceeds, (d-1)*n.
    """
    if budget < 0:
        raise ValueError(f"need budget >= 0, got {budget}")
    bound = cross_oddtown_bound(n, d)
    best: list[tuple[int, ...]] = []
    members: list[tuple[int, ...]] = []
    attempts = 0
    if budget > 0:
        for tup in repeated_singleton_family(n, d).members:
            attempts += 1
            if try_extend_cross_oddtown(members, tup, d):
                members.append(tup)
            if attempts >= budget:
                break
        while attempts < budget:
            attempts += 1
            tup = tuple(rng.next_below(1 << n) for _ in range(d))
            if try_extend_cross_oddtown(members, tup, d):
                members.append(tup)
        best = members
    fam = TupleFamily(n=n, d=d, members=tuple(best))
    if best and not is_cross_oddtown(fam):
        raise AssertionError("greedy growth produced a non-cross-Oddtown family")
    if len(best) > bound:
        raise AssertionError("found a family exceeding the (d-1)n bound; implementation bug")
    return SearchReport(
        population=f"random cross-Oddtown growth, n={n}, d={d}",
        count=attempts,
        min_mfrank=None,
        min_sum_franks=None,
        witnesses=[{"kind": "largest_family", "members": [list(t) for t in best]}] if best else [],
        seed=rng.seed,
        extra={"largest_size": len(best), "bound": bound},
    )


def random_configuration(rng: Rng, max_k: int = 3, min_k: int = 2) -> Configuration:
    """A random small configuration: order, prime, residues, and slot family.

    Draws k, p in {2, 3}, a proper residue set L (so admissible set sizes
    exist), and C from the recurring shapes: a single pair, the full slot set,
    the complete pair graph, or 1..3 random nonempty slot subsets.
    """
    k = min_k + rng.next_below(max_k - min_k + 1)
    p = (2, 3)[rng.next_below(2)]
    lsize = 1 + rng.next_below(min(2, p - 1))
    residues = list(range(p))
    rng.shuffle(residues)
    L = tuple(sorted(residues[:lsize]))
    full = (1 << k) - 1
    shape = rng.next_below(4)
    if shape == 0 and k >= 2:
        C: tuple[int, ...] = (0b11,)
    elif shape == 1:
        C = (full,)
    elif shape == 2 and k >= 2:
        C = tuple(
            (1 << i) | (1 << j) for i in range(k) for j in range(i + 1, k)
        )
    else:
        count = 1 + rng.next_below(3)
        seen = []
        while len(seen) < count:
            x = 1 + rng.next_below(full)
            if x not in seen:
                seen.append(x)
        C = tuple(seen)
    return Configuration(k=k, p=p, C=C, L=L)


def random_colored_hypergraph(
    num_vertices: int, r: int, t: int, z: int, rng: Rng
) -> ColoredHypergraph:
    """Uniformity-r hypergraph with z random color classes, each a matching of t edges."""
    if num_vertices < r * t:
        raise ValueError("need at least r*t vertices for a size-t matching")
    colors = []
    for _ in range(z):
        verts = rng.sample_without_replacement(num_vertices, r * t)
        edges = []
        for e in range(t):
            mask = 0
            for v in verts[e * r : (e + 1) * r]:
                mask |= 1 << v
            edges.append(mask)
        colors.append(tuple(edges))
    return ColoredHypergraph(num_vertices=num_vertices, r=r, t=t, colors=tuple(colors))
