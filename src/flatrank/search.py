"""Brute-force and randomized verification harnesses.

GF(2) populations, in the exhaustive sweep and the random sweeps alike, are
ranked exactly by one of two kernels, chosen by the width of the flattening
rows, a^(d-1) columns.  Blocks of both are sized by the bytes of their rows
(:data:`BLOCK_BYTES`), so rows and scratch stay in cache: a random block by
the padded rows it gathers, an exhaustive chunk by the rows it writes
(:func:`exhaustive_min_mfrank`).

* Rows of at most 32 columns (:data:`TABLE_MAX_COLUMNS`) are packed, one
  machine word per row with one bit per column, and a tensor's rows are
  padded to 8, 16 or 32 bytes, or cut into two such pieces up to 64 (:func:`_row_layout`).
  The rows of a tensor are
  the XOR of one entry of each byte table, one table per byte of the mixed
  bits; each shape's tables are built once and kept.  A random block gathers
  one table entry per byte of each tensor; an exhaustive chunk gathers
  nothing, its rows being the XOR of one slice of each table, broadcast
  (:func:`_exhaustive_ranks`).  All rows of a block are then eliminated at
  once with min-XOR steps, ``min(x, x ^ p)`` per pivot row p.
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
against 18-22 us).  Larger fields rank all d flattenings of a block with
one call of the batched kernel behind :func:`flatrank.linalg.matrix_rank`.

A random GF(2) sweep of at least one block of its own, whose rows are
wider than :data:`SAMPLE_COLUMNS` (16) columns, with a <=
:data:`SAMPLE_MAX_A` (13), first ranks every tensor of a block on 16
columns of each flattening alone, through byte tables of the sampled rows
(:func:`_certified_ranks`): columns with at most one fixed cell, each adding
the fewest stream bytes, and so the fewest tables, to those taken before,
then the rest by most mixed cells (:func:`_row_tables`).  A sampled rank is
at most the flattening's rank, which is at most a, so a tensor whose sampled
ranks sum to a*d is of full rank, exactly.  Only the others, the misses, go
to the exact kernel above, queued from block to block and ranked one exact
block at a time.  Random tensors are nearly all of full rank; the misses, on
three 20,000-tensor stream blocks per shape:

    (2,6) 0.02-0.025%   (3,4) 0.02-0.045%   (3,5) 0.055-0.065%
    (4,4) 0.095-0.125%  (5,4) 0.21-0.215%   (6,4) 0.36-0.41%
    (5,3) 0.75-0.84%    (6,3) 2.5-2.75%     (7,3) 6.4%
    (8,3) 10.8-11.3%    (10,3) 22-24%       (12,3) 42%
    (13,3) 55%          (14,3) 71%          (15,3) 86%

Taking the columns by most mixed cells alone needed 22 tables at (4,4), not
13, for misses of 0.065-0.10%, and its certified blocks took 1.32-1.34x as
long (median CPU time of alternating calls in one process on a 2-vCPU Xeon:
826 against 625 us, and 1,603 against 1,193 us in a slower spell).  The
rule also saves tables at (3,5), (5,4) and (6,4), 13, 29 and 37 for 15, 34
and 42, whose certified blocks took 0.87-0.93x as long, and missed as often:
0.049, 0.188 and 0.371% against 0.051, 0.189 and 0.383% of 150 stream
blocks (0.47-1.2 million tensors).

The sampled kernel's cost stays at 16 columns while the exact kernel's grows
with a^(d-1), so even a majority of misses pays: whole sweeps of 2.5
certified blocks, in process, CPU time on a 2-vCPU Xeon, took 0.40-0.82x the
exact kernels' time from (2,6) to (13,3), 0.96x at (14,3) and 1.07x at
(15,3), hence a <= 13.  The certificate's fixed costs (its sampled tables
and a larger plan) are paid back within one block, not before: sweeps of
exactly one block took 0.39-0.78x at every certified shape in process, and
0.87-1.10x as the first sweep of a fresh process; shorter ones lost at
(5,3), (6,3) and (7,3) (1.04-1.8x at 40 to 2,000 tensors) and, in a fresh
process, at (4,4) too (1.3-2.1x at 40 and 500), so they keep the exact
kernels, as do exhaustive sweeps.  Whole sweeps in process, exact kernels
alone against the certificate: (5,3) x 30,000 2.46 -> 1.77 ms, (4,4) x
15,000 3.84 -> 2.14 ms, (6,3) x 20,000 3.95 -> 2.81 ms (at (4,4) with the
22 tables of the columns with the most mixed cells).

Both sweeps run one block loop, :func:`_scan_blocks`, which takes one
workspace (:class:`flatrank.linalg._Workspace`) per call from its thread's
arena, sized for its largest block by one ``*_sizes`` plan, and every block
writes its stream words, entries, rows, stacked flattenings, scratch and rank
counts into it in place; the kernels return views into it.  The stream
buffers of a GF(2) block sit inside buffers its kernel writes only after it
has read the words; a certified sweep's queue of misses and one exact
block's plan sit beside them.  The arena is one anonymous mapping per thread, outside
glibc's heap, kept from one sweep to the next and replaced only by a larger
admitted plan; one over :data:`ARENA_KEEP_BYTES` is unmapped when its sweep
ends or raises.  Allocating per block, or per sweep, costs more than the arithmetic:
glibc trims the heap top after each block's frees, so a block that allocates
its buffers faults about 250 pages in again, at about 1.8 us each on a
2-vCPU Xeon.  No other buffer is larger than :data:`BLOCK_BYTES` unless one
tensor needs it, but an exhaustive chunk's rows and scratch, up to
sqrt(2) times it, and the arena is not glibc's, so glibc's mmap threshold
does not move.  A sweep whose plan, with the index arrays its shape keeps
for the process, a binary field's log tables and what a larger field's
elimination allocates outside the plan, would pass
:data:`MAX_WORKSPACE_BYTES` is refused before any of them is built.

Randomized sweeps and the cross-Oddtown search run off the documented
splitmix64 streams in :mod:`flatrank.rng`, so every report is reproducible
from its seed.
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

import math
import mmap
import threading
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field as dc_field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .field import GF2, FieldDescriptor, _log_table_sizes
from .formats import tensor_to_document
from .linalg import (
    _check_products,
    _elimination_sizes,
    _pivot_table_bytes,
    _rank_into,
    _unplanned_bytes,
    _Workspace,
    entry_dtype,
)
from .rng import Rng, _ramp_bytes, stream_words_np, sub_seeds_np
from .setfam import (
    TupleFamily,
    _slot_limbs,
    cross_oddtown_bound,
    is_cross_oddtown,
    repeated_singleton_family,
    try_extend_cross_oddtown,
)
from .tensor import Tensor, _axis_order, check_cube, flattening_ranks, index_class_arrays

__all__ = [
    "SearchReport",
    "exhaustive_min_mfrank",
    "random_semidiagonal_sweep",
    "random_cross_oddtown_search",
]

MAX_FREE_ENTRIES = 22
# Bytes of one sweep block's largest buffer: packed GF(2) rows, or, over a
# larger field, whichever of its stream words, stack and scratch is largest,
# so that they stay in the L2 cache and under glibc's mmap threshold.
BLOCK_BYTES = 1 << 19
# Widest flattening rows, in columns, that the byte-table GF(2) kernel takes;
# wider rows go bit-sliced (see the module docstring for the measurements).
TABLE_MAX_COLUMNS = 32
# Columns of each flattening on which a random GF(2) sweep of at least one
# block first ranks its tensors, when its rows are wider, and the largest axis
# size a it does so for: long sweeps ran faster certified up to a = 13, with
# 55% of (13,3)'s tensors missing, and slower at a = 15 (see the module
# docstring for the miss rates and timings).
SAMPLE_COLUMNS = 16
SAMPLE_MAX_A = 13
# Bytes of one block's workspace, with the index arrays its shape keeps and,
# over a larger field, its log tables and what its elimination allocates
# outside the workspace; more is refused before any of it is allocated.
# Default GF(2) blocks at d = 3 take under 3.3 MB; a d = 2 bit-sliced sweep
# needs 56 a^2 bytes even for one tensor, so it stops at a = 545, and a GF(3)
# sweep on 2^18 needs more than 16 MiB for one tensor.
MAX_WORKSPACE_BYTES = 16 << 20
# Largest sweep arena a thread keeps mapped once its sweep ends.  The GF(2)
# plans of the default blocks at d = 3 fit (the largest, (2,3)'s, takes 3.2
# MB, (6,3)'s 2.6 MB), as do (4,4)'s and (3,5)'s (2.5 MB); a larger arena is
# unmapped with its sweep, so that what runs after the sweep (an exhaustive
# sweep's witnesses, the report) is never held on top of it.
ARENA_KEEP_BYTES = 4 << 20
# Plans whose workspaces a thread keeps carved from its arena
ARENA_PLANS = 16


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
def _row_layout(a: int, d: int, sampled: bool = False) -> tuple[type, tuple[int, ...]]:
    """(dtype, pieces) of the packed flattening rows of :func:`_row_tables`.

    The dtype is the narrowest unsigned one that holds a row: its a^(d-1) <=
    32 columns, or the :data:`SAMPLE_COLUMNS` sampled ones.  ``np.take``
    copies rows of 1, 2, 4, 8, 16 or 32 bytes with typed loads and others
    with a ``memmove`` each, so a tensor's a*d rows are padded to a power of
    two of bytes up to 32, split into 32 bytes and a tail so padded up to 64
    (the byte-table kernel then took 0.91-0.97x as long), and kept whole over
    64 (at (13,3), three pieces took 1.055x as long; ``BENCH_28.json``).
    ``pieces`` holds the pieces' widths in entries; each is gathered apart
    (:func:`_pieces`).  Every kernel reads only the first a*d entries.
    """
    cols = SAMPLE_COLUMNS if sampled else a ** (d - 1)
    dtype = next(t for t in (np.uint8, np.uint16, np.uint32) if np.iinfo(t).bits >= cols)
    size = np.dtype(dtype).itemsize
    nbytes = a * d * size
    head = (32,) if 32 < nbytes <= 64 else ()
    tail = nbytes - sum(head)
    tail = 1 << (tail - 1).bit_length() if tail <= 32 else tail
    return dtype, tuple(p // size for p in head + (tail,))


def _row_bytes(a: int, d: int, sampled: bool = False) -> int:
    """Bytes of a tensor's packed rows in the layout of :func:`_row_layout`."""
    dtype, pieces = _row_layout(a, d, sampled)
    return sum(pieces) * np.dtype(dtype).itemsize


def _pieces(flat: np.ndarray, n: int, widths: tuple[int, ...]) -> list[np.ndarray]:
    """(n, w) views of ``flat``'s first n * sum(widths) items, one per width, one after another."""
    return [flat[n * s : n * (s + w)].reshape(n, w) for s, w in zip(accumulate(widths, initial=0), widths)]


def _transposed(pieces: list[np.ndarray], count: int, out: np.ndarray) -> np.ndarray:
    """The first ``count`` entries of the rows held in ``pieces``, transposed into the (count, N) ``out``."""
    for s, piece in zip(accumulate((p.shape[1] for p in pieces), initial=0), pieces):
        np.copyto(out[s : s + piece.shape[1]], piece[:, : count - s].T)  # the padding is past count
    return out


@lru_cache(maxsize=None)
def _row_tables(a: int, d: int, sampled: bool = False) -> dict[int, tuple[np.ndarray, ...]]:
    """Byte tables of the packed flattening rows of GF(2) semi-diagonal tensors on A^d.

    Needs ``a ** (d-1) <= 32``, or ``sampled``: then each flattening keeps
    only :data:`SAMPLE_COLUMNS` columns, in column order, picked one at a
    time, axis by axis.  Columns with at most one fixed (diagonal or
    all-distinct) cell go first, the one adding the fewest stream bytes not
    yet feeding a kept cell, of any axis, first; then the rest, by most
    mixed cells; ties to fewer fixed cells, then the lower column.  Fixed
    cells are the same in every tensor, and each byte fed costs a gather per
    block.  Row ``r * d + axis`` holds row r
    of the flattening along ``axis``, one bit per (kept) column, in the
    layout of :func:`_row_layout`, one table per piece.  Row v of
    ``tables[k]`` XORs in the mixed entries 8k .. 8k+7 whose bits are set in
    the stream byte v; there is a table for each byte that feeds a kept cell
    (every byte of a full set, and at least one), and the first also holds
    the rows of the unit diagonal, so the rows of a tensor are the XOR of one
    entry per table.  Built once per shape and kept, read-only: the largest
    full sets, at (3,4) and (5,3), take 123 and 131 KB, and the sampled ones
    64 KB at (5,3) (8 tables), 106 KB at (4,4) (13), 110 KB at (6,3) (12) and
    1.2 MB at (13,3) (59).
    """
    diag, _, mixed = index_class_arrays(a, d)
    dtype, pieces = _row_layout(a, d, sampled)
    width = sum(pieces)
    cols, nbytes = a ** (d - 1), max(1, -(-mixed.size // 8))
    bit = np.tile(np.arange(cols), (d, 1))  # [axis, column]: its bit in the rows, -1 if not kept
    if sampled:
        byte = np.full(a**d, nbytes)  # the stream byte of each mixed entry; nbytes if fixed
        byte[mixed] = np.arange(mixed.size) // 8
        unfed = np.ones(nbytes + 1, bool)  # the bytes that feed no kept cell yet
        unfed[nbytes] = False
        bit.fill(-1)
        for ax in range(d):
            # [i, column]: the bytes of each column's cells, sorted, each counted once
            cells = np.sort(np.moveaxis(byte.reshape((a,) * d), ax, 0).reshape(a, cols), axis=0)
            once = np.ones((a, cols), bool)
            once[1:] = cells[1:] != cells[:-1]
            fixed = (cells == nbytes).sum(axis=0)
            # a pick takes the least key, ties to the lower column: fixed cells,
            # plus the new bytes times a + 1 if at most one is fixed, or else
            # past any such column; a kept column's is past them all
            weight = (fixed <= 1) * (a + 1)
            key = (fixed > 1) * (nbytes + 1) * (a + 1) + fixed
            keep = []
            for _ in range(min(SAMPLE_COLUMNS, cols)):
                new = (unfed[cells] & once).sum(axis=0)
                c = int(np.argmin(new * weight + key))
                keep.append(c)
                key[c] = (nbytes + 2) * (a + 1)
                unfed[cells[:, c]] = False
            bit[ax, np.sort(keep)] = np.arange(len(keep))

    def entry_rows(flat: np.ndarray) -> np.ndarray:
        """(len(flat), width): the rows with only entry ``flat[i]`` set, for each i."""
        idx = np.unravel_index(flat, (a,) * d)
        out = np.zeros((flat.size, width), dtype=dtype)
        for ax in range(d):
            col = bit[ax, np.ravel_multi_index(idx[:ax] + idx[ax + 1 :], (a,) * (d - 1))]
            kept = np.flatnonzero(col >= 0)
            out[kept, idx[ax][kept] * d + ax] = np.uint64(1) << col[kept].astype(np.uint64)
        return out

    bits = np.zeros((8 * nbytes, width), dtype=dtype)
    bits[: mixed.size] = entry_rows(mixed)
    feeding = [k for k in range(nbytes) if bits[8 * k : 8 * k + 8].any()] or [0]
    tables = {}
    for k in feeding:
        table = np.zeros((256, width), dtype=dtype)
        if not tables:
            table[0] = np.bitwise_xor.reduce(entry_rows(diag), axis=0)
        for b in range(8):  # bytes with highest set bit b: the bytes below, XOR bit b's rows
            table[1 << b : 2 << b] = table[: 1 << b] ^ bits[8 * k + b]
        tables[k] = tuple(map(np.ascontiguousarray, np.split(table, np.cumsum(pieces)[:-1], axis=1)))
        for piece in tables[k]:
            piece.flags.writeable = False
    return tables


def _largest_buffer(sizes: dict[str, tuple[int, type]]) -> int:
    return max(count * np.dtype(dtype).itemsize for count, dtype in sizes.values())


def _check_workspace(nbytes: int, what: str) -> None:
    """Refuse a sweep whose memory, ``nbytes``, passes :data:`MAX_WORKSPACE_BYTES`, before it is built.

    Counted are its workspace and what it keeps or allocates besides: the
    index arrays, sampled tables and stream ramps kept for the process, the
    tables an exhaustive sweep transposes, a binary field's log tables with
    their build's scratch, and what the elimination allocates outside it.
    """
    if nbytes > MAX_WORKSPACE_BYTES:
        raise ValueError(f"{what} needs {nbytes} bytes, over the {MAX_WORKSPACE_BYTES}-byte block cap")


def _sliced_unplanned_bytes(a: int, d: int, n: int, nwords: int) -> int:
    """Bytes a bit-sliced block of up to n tensors needs outside :func:`_sliced_sizes`.

    They are the (d+1) a^d intp indices its shape keeps for the process
    (:func:`index_class_arrays` and :func:`_plane_index`), and the buffers
    numpy allocates for a ufunc call on strided operands: ``np.getbufsize()``
    items for each of up to three operands, or the call's items if fewer.
    The largest such calls are the transpose's delta swaps, 32 ``nwords``
    items a word of 64 lanes, and, for d >= 3, the elimination's ANDs on the
    rows below the first, d (a-1) a^(d-1) items a word (at (4,4), 196,608
    bytes of a traced peak of 199,704 over the workspace).
    """
    rows = d * (a - 1) * a ** (d - 1) if d > 2 else 0  # at d = 2 no factor is set
    items = -(-n // 64) * max(32 * nwords, rows)
    return (1 + d) * a**d * np.dtype(np.intp).itemsize + 3 * 8 * min(np.getbufsize(), items)


def _exact_block(a: int, d: int) -> int:
    """Tensors in an exact GF(2) block on A^d: :data:`BLOCK_BYTES` of rows, bit-sliced in words of 64."""
    if a ** (d - 1) <= TABLE_MAX_COLUMNS:
        return BLOCK_BYTES // _row_bytes(a, d)
    return max(64, 8 * BLOCK_BYTES // (d * a**d) // 64 * 64)


def _exact_plan(a: int, d: int, n: int, nwords: int) -> tuple[dict, int, Callable]:
    """(sizes, extra, kernel) of the exact GF(2) kernel for blocks of up to n tensors on A^d.

    Byte tables up to :data:`TABLE_MAX_COLUMNS` columns, else bit-sliced:
    ``sizes`` is its plan without the stream's buffers, ``extra`` the bytes
    it keeps or allocates besides, and ``kernel(words, ws)`` gives the
    (mfrank, sum_franks) of a block's stream words.
    """
    if a ** (d - 1) <= TABLE_MAX_COLUMNS:
        tables = _row_tables(a, d)
        kernel = lambda words, ws: _packed_population_ranks(a, d, words, tables, ws)
        return _table_sizes(a, d, n), 0, kernel
    kernel = lambda words, ws: _sliced_ranks(a, d, words, ws)
    return _sliced_sizes(a, d, n, nwords), _sliced_unplanned_bytes(a, d, n, nwords), kernel


def _gf2_plan(a: int, d: int, count: int, nwords: int) -> tuple[int, int, tuple]:
    """(block, chunk, :func:`_block_plan`) of a random GF(2) sweep of ``count`` tensors on A^d.

    Rows over :data:`SAMPLE_COLUMNS` columns, a <= :data:`SAMPLE_MAX_A`, are
    certified in blocks of :data:`BLOCK_BYTES` of sampled rows and stream
    words, misses ranked ``chunk`` (an exact block) at a time, if ``count``
    fills a block; else, or over the cap, the exact kernel runs, ``chunk`` 0.
    """
    chunk = min(count, _exact_block(a, d))
    block = max(1, BLOCK_BYTES // (_row_bytes(a, d, sampled=True) + 8 * nwords))
    certify = a ** (d - 1) > SAMPLE_COLUMNS and a <= SAMPLE_MAX_A and count >= block
    plan = certify and _block_plan(a, d, block, nwords, chunk)
    return (block, chunk, plan) if plan else (chunk, 0, _block_plan(a, d, chunk, nwords, 0))


@lru_cache(maxsize=ARENA_PLANS)
def _block_plan(a: int, d: int, n: int, nwords: int, chunk: int) -> tuple[dict, int, Callable] | None:
    """(sizes, nbytes, kernel) of random GF(2) sweep blocks of up to n tensors on A^d; kept, read-only.

    ``kernel(words, start, last, ws)`` yields :func:`_scan_blocks`' batches
    of a block from tensor ``start``, the sweep's ``last`` or not: the exact
    kernel's with ``chunk`` 0, else the certificate's.  ``nbytes`` is all
    :func:`_check_workspace` counts, sampled tables at their largest (256
    rows for each of at most ``SAMPLE_COLUMNS * a * d`` stream bytes); a
    certified plan over the cap is None, and builds no tables.
    """
    sizes, extra, exact = _exact_plan(a, d, chunk or n, nwords)
    extra += _ramp_bytes(n, nwords)
    if not chunk:  # sliced words are read into the planes before rows and scratch are written
        hosts = ("rows", "scratch") if a ** (d - 1) > TABLE_MAX_COLUMNS else (None, "buf")
        sizes = sizes | _stream_sizes(n, nwords, *hosts)
        kernel = lambda words, start, last, ws: ((start, *exact(words, ws)),)
        return sizes, _Workspace.nbytes(sizes) + extra, kernel
    sizes = _certified_sizes(a, d, n, nwords, chunk, sizes)
    fed = min(-(-_mixed_count(a, d) // 8), SAMPLE_COLUMNS * a * d)  # stream bytes with a table
    nbytes = _Workspace.nbytes(sizes) + extra + 8 * n + fed * 256 * _row_bytes(a, d, sampled=True)
    if nbytes > MAX_WORKSPACE_BYTES:
        return None
    tables = _row_tables(a, d, sampled=True)
    return sizes, nbytes, lambda *block: _certified_ranks(a, d, tables, exact, chunk, *block)


def _stream_sizes(
    n: int, nwords: int, words: str | None = None, mix: str | None = None
) -> dict[str, tuple]:
    """Workspace of :func:`_stream_block` for blocks of up to n tensors.

    ``words`` and ``mix``, when given, name the buffers of the kernel's plan
    that host them (see :class:`_Workspace`).
    """
    size = (n * nwords, np.uint64)
    return {"words": size + ((words,) if words else ()), "mix": size + ((mix,) if mix else ())}


def _rank_sizes(d: int, n: int, dtype: type) -> dict[str, tuple[int, type]]:
    """Buffers of the d ranks of n tensors, in ``dtype``, and of their (mfrank, sum_franks)."""
    return {"rank": (d * n, dtype), "mfrank": (n, dtype), "sumrank": (n, np.uint16)}


def _field_sizes(a: int, d: int, n: int, field: FieldDescriptor) -> dict[str, tuple[int, type]]:
    """Workspace of a block of up to n tensors over ``field`` of order > 2.

    It holds the stream words, their residues, the entries drawn from them
    (:func:`_semidiagonal_block`), and the elimination of the d stacked
    flattenings of :func:`_block_ranks`.
    """
    nwords = _semidiagonal_words(a, d, field)
    return {
        **_stream_sizes(n, nwords),
        "modulus": (nwords, np.uint64),
        "residues": (n * nwords, np.uint64),
        "entries": (n * a**d, entry_dtype(field)),
        **_elimination_sizes(d * n, a, a ** (d - 1), field),
        **_rank_sizes(d, n, np.int64),
    }


def _table_sizes(a: int, d: int, n: int, sampled: bool = False) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_packed_population_ranks` for blocks of up to n tensors.

    ``sampled`` picks the layout of the sampled tables.  ``buf`` also holds
    the N stream words of the mixing scratch, which is free before the
    gathers write it.
    """
    dtype, pieces = _row_layout(a, d, sampled)
    mix = 8 * n * _semidiagonal_words(a, d, GF2)
    return {
        "index": (n, np.intp),
        "rows": (n * sum(pieces), dtype),
        "buf": (max(n * sum(pieces), mix // np.dtype(dtype).itemsize), dtype),
        "flag": (d * n, np.bool_),
        **_rank_sizes(d, n, np.uint8),
    }


def _exhaustive_sizes(a: int, d: int, n: int) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_exhaustive_ranks` for chunks of n; ``buf`` also holds the high bytes' rows."""
    dtype = _row_layout(a, d)[0]
    return {
        "rows": (n * a * d, dtype),
        "buf": (max(n * (a - 1) * d, -(-n // 256) * a * d), dtype),
        "flag": (d * n, np.bool_),
        **_rank_sizes(d, n, np.uint8),
    }


def _certified_sizes(
    a: int, d: int, n: int, nwords: int, chunk: int, exact: dict[str, tuple]
) -> dict[str, tuple]:
    """Workspace of :func:`_certified_ranks` for blocks of up to n tensors, misses ranked ``chunk`` at a time.

    It holds the sampled kernel's :func:`_table_sizes`, the block's stream
    words, with their mixing scratch in ``buf``, the queue of misses (words,
    indices and count), and ``exact``, the plan of one chunk of the exact
    kernel, under names prefixed ``exact.``.
    """
    return {
        **_table_sizes(a, d, n, sampled=True),
        **_stream_sizes(n, nwords, mix="buf"),
        "queue": (chunk * nwords, np.uint64),
        "queued": (chunk, np.intp),
        "fill": (1, np.intp),
        **{f"exact.{k}": size[:2] + tuple(f"exact.{h}" for h in size[2:]) for k, size in exact.items()},
    }


def _sliced_sizes(a: int, d: int, n: int, nwords: int) -> dict[str, tuple[int, type]]:
    """Workspace of :func:`_sliced_ranks` for blocks of up to n tensors of ``nwords`` words."""
    groups = -(-n // 64)
    cols = a ** (d - 1)
    gathered = (d * a * cols * groups, np.uint64)
    return {
        "planes": ((2 + 64 * nwords) * groups, np.uint64),
        # the transpose's scratch: it runs before the elimination writes scratch
        "swap": (32 * nwords * groups, np.uint64, "scratch"),
        "rows": gathered,
        "scratch": gathered,
        "seen": (d * cols * groups, np.uint64),
        "pivot": (d * cols * groups, np.uint64),
        "lanes": (d * a * groups, np.uint64),
        "nonzero": (a * d * groups, np.uint64),
        "bits": (a * d * 64 * groups, np.uint8),
        **_rank_sizes(d, n, np.min_scalar_type(a)),
    }


def _rank_summary(rank: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N tensors from their (d, N) flattening ranks."""
    n = rank.shape[1]
    mfrank, sumrank = ws.take("mfrank", n), ws.take("sumrank", n)
    np.max(rank, axis=0, out=mfrank)
    # a sum is at most 32 rows times d <= 64 axes (numpy's cap), or a * d <= 2 * 4096
    # (bit-sliced, or a^d within the dense cap): exact in uint16, which numpy sums
    # much faster than it casts into int64
    np.sum(rank, axis=0, dtype=np.uint16, out=sumrank)
    return mfrank, sumrank


def _eliminate(
    rows: np.ndarray, scratch: np.ndarray, d: int, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N tensors from their packed rows, laid out ``[r, axis * N + j]``.

    Elimination runs on all N * d flattenings at once, in place: after each
    pivot row p, ``min(x, x ^ p)`` clears p's leading bit from every row x
    below that has it, so the nonzero pivots are independent and their count
    is the rank.  ``scratch`` has the shape and dtype of ``rows[1:]``.
    """
    rank, flag = ws.take("rank", rows.shape[1]), ws.take("flag", rows.shape[1])
    rank.fill(0)
    for i in range(rows.shape[0]):
        np.not_equal(rows[i], 0, out=flag)
        rank += flag
        below, tmp = rows[i + 1 :], scratch[i:]
        np.bitwise_xor(below, rows[i], out=tmp)
        np.minimum(below, tmp, out=below)
    return _rank_summary(rank.reshape(d, -1), ws)


def _packed_population_ranks(
    a: int, d: int, words: np.ndarray, tables: dict[int, tuple], ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N GF(2) semi-diagonal tensors on A^d, ``a ** (d-1) <= 32``.

    Row j of the (N, w) uint64 ``words`` holds tensor j's mixed entries, bit t
    of word t // 64 for mixed entry t; that is byte t // 8 of the row's
    little-endian bytes, which indexes ``tables``, the byte tables of
    :func:`_row_tables`, full or sampled, gathered piece by piece.  ``ws``
    holds :func:`_table_sizes` for at least N, in the tables' layout.
    """
    n = words.shape[0]
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)
    widths = tuple(piece.shape[1] for piece in next(iter(tables.values())))
    index = ws.take("index", n)
    rows, buf = ws.take("rows", n * sum(widths)), ws.take("buf", n * sum(widths))
    row_pieces, buf_pieces = _pieces(rows, n, widths), _pieces(buf, n, widths)
    for i, (k, pieces) in enumerate(tables.items()):
        np.copyto(index, as_bytes[:, k])  # intp, or np.take casts a copy of its own
        for table, out in zip(pieces, buf_pieces if i else row_pieces):
            # a byte always indexes one of the 256 rows: no bounds check
            np.take(table, index, axis=0, out=out, mode="clip")
        if i:
            rows ^= buf
    # [r * d + axis, j] is [r, axis * n + j]
    _transposed(row_pieces, a * d, ws.take("buf", a * d, n))
    return _eliminate(ws.take("buf", a, d * n), ws.take("rows", a - 1, d * n), d, ws)


def _certified_ranks(
    a: int, d: int, tables: dict, exact: Callable, chunk: int, words: np.ndarray, start: int,
    last: bool, ws: _Workspace,
) -> Iterable[tuple]:
    """:func:`_scan_blocks`' batches of GF(2) tensors ``start ..`` on A^d, certified on sampled columns.

    :func:`_packed_population_ranks` ranks ``words`` on the columns of the
    sampled ``tables``.  A sampled rank is at most the flattening's, at most
    a, so a tensor whose sampled ranks sum to a*d has every rank a, and the
    block's batch is one pair, (a, a*d) at ``start``, at or above every
    tensor's own.  The others, the misses, are queued in ``ws``, words and
    indices, from block to block (empty at ``start`` 0); each time it holds
    ``chunk``, and after the sweep's ``last`` block, ``exact(words, ws)``,
    the exact kernel, ranks the queue in ``ws.part("exact.")``, one batch.
    ``ws`` holds :func:`_certified_sizes` for at least N.
    """
    n, w = words.shape
    sumrank = _packed_population_ranks(a, d, words, tables, ws)[1]
    misses = np.flatnonzero(np.not_equal(sumrank, a * d, out=ws.take("flag", n)))
    yield start, np.array([a]), np.array([a * d])
    queue, queued, fill = ws.take("queue", chunk, w), ws.take("queued", chunk), ws.take("fill", 1)
    f = int(fill[0]) if start else 0
    for part in np.split(misses, range(chunk - f, misses.size, chunk)):
        np.take(words, part, axis=0, out=queue[f : f + part.size], mode="clip")
        np.add(part, start, out=queued[f : f + part.size])
        f += part.size
        if f == chunk:
            yield queued, *exact(queue, ws.part("exact."))
            f = 0
    if last and f:
        yield queued[:f], *exact(queue[:f], ws.part("exact."))
    fill[0] = f


def _exhaustive_ranks(
    a: int, d: int, tables: list[np.ndarray], start: int, stop: int, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of the GF(2) tensors with assignments ``start .. stop-1``.

    ``stop - start`` is a power of two and ``start`` a multiple of it, so byte
    k of the assignments runs through one range of values under every value
    of the bytes above it: their rows are the XOR of one slice of each table,
    ``tables[k]`` being byte k's of :func:`_row_tables`, contiguous, as
    ``[r * d + axis, byte value]``.  The high bytes' slices are combined
    first, a*d entries per 256 assignments, then broadcast with byte 0's into
    the layout :func:`_eliminate` reads.  ``ws`` holds :func:`_exhaustive_sizes`
    for ``stop - start``; the call reads nothing in it that it did not write.
    """
    n = stop - start
    low, *high = (
        table[:, (start >> 8 * k) & 255 :][:, : min(256, max(1, n >> 8 * k))]
        for k, table in enumerate(tables)
    )
    rows = ws.take("rows", a * d, n // low.shape[1], low.shape[1])
    if high:
        top = high.pop()
        for part in reversed(high):
            out = ws.take("buf", a * d, top.shape[1], part.shape[1])
            top = np.bitwise_xor(top[:, :, None], part[:, None, :], out=out).reshape(a * d, -1)
        np.bitwise_xor(top[:, :, None], low[:, None, :], out=rows)
    else:  # byte 0 alone: at most 256 assignments
        np.copyto(rows[:, 0], low)
    return _eliminate(rows.reshape(a, d * n), ws.take("buf", a - 1, d * n), d, ws)


# delta-swap rounds of a 64x64 bit transpose: (shift j, mask of the bits whose bit j is clear)
_TRANSPOSE_ROUNDS = tuple(
    (j, np.uint64(sum(1 << b for b in range(64) if not b & j)))
    for j in (32, 16, 8, 4, 2, 1)
)
_BIT_SHIFTS = np.arange(8, dtype=np.uint8)


@lru_cache(maxsize=None)
def _plane_index(a: int, d: int) -> np.ndarray:
    """(d, a, a^(d-1)) plane of each flattening entry of a GF(2) semi-diagonal tensor on A^d.

    Entry ``[axis, r, c]`` is entry (r, c) of the flattening along ``axis``.
    Plane 0 is all zeros (the pairwise-distinct entries), plane 1 all ones
    (the unit diagonal), and mixed entry t is plane t + 2.
    """
    diag, _, mixed = index_class_arrays(a, d)
    index = np.zeros((d, a, a ** (d - 1)), dtype=np.intp)  # filled in place: no more than counted
    plane = index[0].reshape(-1)  # axis 0's flattening is the flat order
    plane[diag] = 1
    plane[mixed] = np.arange(2, mixed.size + 2)
    for ax in range(1, d):
        np.copyto(index[ax].reshape((a,) * d), np.moveaxis(plane.reshape((a,) * d), ax, 0))
    return index  # never written, but writeable: np.take copies a read-only index per call


def _bit_planes(words: np.ndarray, ws: _Workspace) -> np.ndarray:
    """(2 + 64 w, W) bit planes of N tensors' mixed entries, ``W = ceil(N / 64)``.

    Row j of the (N, w) uint64 ``words`` holds tensor j's mixed entries, bit t
    of word t // 64 for mixed entry t.  Bit i of word g of plane t + 2 is then
    mixed entry t of tensor 64g + i; plane 0 is zero and plane 1 all ones, as
    :func:`_plane_index` expects.  Lanes past N are zero.  Each 64x64 block
    of bits is transposed in place by six delta-swap rounds, over the layout
    ``[stream word, row, group]`` so every round runs over the groups.
    """
    n, w = words.shape
    groups, full = -(-n // 64), n // 64
    planes = ws.take("planes", 2 + 64 * w, groups)
    planes[0] = 0
    planes[1] = ~np.uint64(0)
    bits = planes[2:].reshape(w, 64, groups)  # [stream word, row, group]
    bits[:, :, :full] = words[: 64 * full].reshape(full, 64, w).transpose(2, 1, 0)
    if full < groups:
        bits[:, :, full] = 0
        bits[:, : n - 64 * full, full] = words[64 * full :].T
    for j, mask in _TRANSPOSE_ROUNDS:
        pairs = bits.reshape(w, -1, 2, j, groups)
        lo, hi = pairs[:, :, 0], pairs[:, :, 1]
        swap = ws.take("swap", *lo.shape)
        np.right_shift(lo, j, out=swap)
        swap ^= hi
        swap &= mask
        hi ^= swap
        swap <<= j
        lo ^= swap
    return planes


def _sliced_ranks(
    a: int, d: int, words: np.ndarray, ws: _Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of N GF(2) semi-diagonal tensors on A^d, 64 tensors per word.

    ``words`` is laid out as for :func:`_bit_planes`.  The rows of all d
    flattenings are one gather from the planes, ``[axis, r, c, group]``.
    Pivot step k works on every axis and lane at once: a prefix-OR of row k
    over the columns gives its "row nonzero" plane (the rank bit) and a
    one-hot pivot column; each row below picks its bit in that column as a
    lane mask and XORs in row k under it.  The rank of a lane is the count of
    its rank bits.  ``ws`` holds :func:`_sliced_sizes` for at least N.
    """
    n = words.shape[0]
    planes = _bit_planes(words, ws)
    groups, cols = planes.shape[1], a ** (d - 1)
    rows = ws.take("rows", d, a, cols, groups)
    np.take(planes, _plane_index(a, d), axis=0, out=rows, mode="clip")
    scratch = ws.take("scratch", d, a, cols, groups)
    seen, pivot = ws.take("seen", d, cols, groups), ws.take("pivot", d, cols, groups)
    nonzero = ws.take("nonzero", a, d, groups)
    for k in range(a):
        row = rows[:, k]
        np.bitwise_or.accumulate(row, axis=1, out=seen)
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
        lanes = ws.take("lanes", d, a - k - 1, groups)
        np.bitwise_or.reduce(tmp[:, :, span], axis=2, out=lanes)
        if not lanes.any():
            continue
        np.bitwise_and(row[:, None], lanes[:, :, None], out=tmp)
        below ^= tmp
    # bit i of word g, lane 64g + i, is bit i % 8 of the word's little-endian byte i // 8
    as_bytes = nonzero.astype("<u8", copy=False).view(np.uint8)
    bits = ws.take("bits", a, d, 8 * groups, 8)
    np.right_shift(as_bytes[..., None], _BIT_SHIFTS, out=bits)
    bits &= 1
    rank = ws.take("rank", d, n)
    np.sum(bits.reshape(a, d, 64 * groups)[:, :, :n], axis=0, dtype=rank.dtype, out=rank)
    return _rank_summary(rank, ws)


def _mixed_count(a: int, d: int) -> int:
    """Entries of an A^d tensor that are neither constant nor pairwise distinct, ``d >= 2``."""
    return a**d - a - math.perm(a, d)


class _Arena(threading.local):
    """The sweep workspace of one thread: one anonymous mapping, kept between
    sweeps, and the workspaces carved from it, one per plan."""

    def __init__(self):
        self.map: mmap.mmap | None = None
        self.carved: dict[tuple, _Workspace] = {}


_arena = _Arena()


def _arena_workspace(sizes: dict[str, tuple]) -> _Workspace:
    """A workspace of ``sizes`` carved from the calling thread's arena.

    The arena is mapped outside glibc's heap, so its pages stay faulted in
    from one sweep to the next and glibc's mmap threshold never sees it.  A
    plan larger than the arena, already admitted by :func:`_check_workspace`,
    replaces it; the old mapping is dropped before the new one is mapped.  A
    plan's workspace is carved once and kept with the arena, up to
    :data:`ARENA_PLANS` of them: carving a dozen buffers takes about twice
    as long as allocating them, and carving every sweep's workspace anew
    made the benchmark's field-rank ops 4% slower at the median.
    """
    key = tuple(sizes.items())
    ws = _arena.carved.get(key)
    if ws is None:
        nbytes = _Workspace.nbytes(sizes)
        if _arena_bytes() < nbytes:
            _drop_arena()
            _arena.map = mmap.mmap(-1, nbytes)
        if len(_arena.carved) == ARENA_PLANS:
            _arena.carved.clear()
        ws = _arena.carved[key] = _Workspace(sizes, _arena.map)
    return ws


def _arena_bytes() -> int:
    """Bytes the calling thread's sweep arena maps: 0 before its first sweep."""
    return 0 if _arena.map is None else len(_arena.map)


def _drop_arena() -> None:
    """Drop the calling thread's arena: it is unmapped once no sweep holds a view of it."""
    _arena.carved.clear()
    _arena.map = None


def _scan_blocks(
    total: int,
    block: int,
    sizes: dict[str, tuple[int, type]],
    ranks: Callable[[int, int, _Workspace], Iterable[tuple]],
    lower: int,
) -> tuple[tuple[int, int], tuple[int, int], int, int | None]:
    """The block loop of both sweeps, over tensors ``0 .. total-1``, ``total >= 1``.

    Blocks are ``block`` consecutive tensors; ``ranks(start, stop, ws)``
    yields batches ``(at, mfrank, sumrank)`` for one, written into the one
    :class:`_Workspace` of ``sizes``, carved from the thread's arena
    (:func:`_arena_workspace`); ``ranks`` must not start another sweep on
    the thread.  ``at`` is a batch's first index or its ascending indices;
    batches fold as (value, index) pairs, in any order, and may stand in for
    a tensor that another batch gives, at or above its pair and ``lower``.
    Returns (min mfrank, its first index), (min sum_franks, its first
    index), the count of tensors with mfrank < ``lower`` and the first of
    them (or None); none of it depends on ``block``.
    """
    ws = _arena_workspace(sizes)
    best_mf = best_sum = (math.inf, 0)
    violations, first = 0, math.inf
    index = lambda at, i: at + i if isinstance(at, int) else int(at[i])
    try:
        for start in range(0, total, block):
            for at, mfrank, sumrank in ranks(start, min(start + block, total), ws):
                i_mf, i_sum = int(mfrank.argmin()), int(sumrank.argmin())
                best_mf = min(best_mf, (int(mfrank[i_mf]), index(at, i_mf)))
                best_sum = min(best_sum, (int(sumrank[i_sum]), index(at, i_sum)))
                if mfrank[i_mf] < lower:
                    bad = np.flatnonzero(mfrank < lower)
                    violations += bad.size
                    first = min(first, index(at, int(bad[0])))
    finally:  # also when ``ranks`` raises
        if _arena_bytes() > ARENA_KEEP_BYTES:
            _drop_arena()
    return best_mf, best_sum, violations, None if first == math.inf else first


def exhaustive_min_mfrank(a: int, d: int) -> SearchReport:
    """Sweep every GF(2) semi-diagonal tensor on A^d with unit diagonal.

    Mixed entries range over {0,1}; all-distinct entries are 0 and diagonal
    entries 1 (over GF(2) a nonzero diagonal entry is 1, so this loses no
    generality).  Assignment v sets mixed entry t to bit t of v.  Refuses
    populations with more than 2^22 members, tensors over the dense cap and
    chunks whose memory passes :data:`MAX_WORKSPACE_BYTES`.  The population
    is ranked in chunks of the power of two of assignments whose rows, a*d
    entries each, come nearest :data:`BLOCK_BYTES` by ratio, and at least
    256 (or the whole population, if smaller), so that a small budget cannot
    split it into more than 2^14 chunks.  A chunk costs 32-36 us besides its
    rows: at (3,3), chunks of 32,768 assignments of 18 bytes (576 KB) ranked
    the population fastest, 16,384 took 1.11-1.15x as long, 65,536
    1.13-1.21x and 8,192 1.49-1.56x (``BENCH_30.json``).  Rows over
    :data:`TABLE_MAX_COLUMNS` columns occur only at d = 2, where the
    identity alone is bit-sliced.  Violations counts assignments with
    mfrank < ceil(a / (d-1)).
    """
    check_cube(a, d, "tensor")
    f = _mixed_count(a, d)
    if f > MAX_FREE_ENTRIES:
        raise ValueError(
            f"population too large: {f} free entries at (a={a}, d={d}) exceeds cap {MAX_FREE_ENTRIES}"
        )
    total = 1 << f
    if a ** (d - 1) <= TABLE_MAX_COLUMNS:
        dtype = _row_layout(a, d)[0]
        row = a * d * np.dtype(dtype).itemsize  # the bytes a chunk writes per assignment
        chunk = min(total, 1 << max(8, round(math.log2(BLOCK_BYTES / row))))
        # contiguous copies: slices of the strided transposes took 1.4-1.5x as long
        tables = [_transposed(t, a * d, np.empty((a * d, 256), dtype)) for t in _row_tables(a, d).values()]
        sizes, extra = _exhaustive_sizes(a, d, chunk), sum(t.nbytes for t in tables)
        ranks = lambda start, stop, ws: ((start, *_exhaustive_ranks(a, d, tables, start, stop, ws)),)
    else:  # d == 2: the identity matrix alone
        chunk = total
        sizes, extra, exact = _exact_plan(a, d, chunk, 1)
        ranks = lambda start, stop, ws: ((start, *exact(np.zeros((1, 1), np.uint64), ws)),)
    _check_workspace(_Workspace.nbytes(sizes) + extra, f"{a}^{d} exhaustive chunk of n={chunk} tensors")
    (best_mf, at_mf), (best_sum, at_sum), violations, _ = _scan_blocks(
        total, chunk, sizes, ranks, -(-a // (d - 1))
    )

    def witness(v: int) -> dict:
        words = np.array([[v]], dtype=np.uint64)
        t = Tensor((a,) * d, GF2, _semidiagonal_block(a, d, GF2, words)[0])
        return {"assignment": v, "tensor": tensor_to_document(t), "franks": flattening_ranks(t)}

    mf = witness(at_mf)  # at d = 2, (2,3), (2,4) and (3,3) both minima fall on one assignment
    sums = mf if at_sum == at_mf else witness(at_sum)

    return SearchReport(
        population=f"semi-diagonal GF(2) tensors, a={a}, d={d}, diagonal fixed to 1",
        count=total,
        min_mfrank=best_mf,
        min_sum_franks=best_sum,
        witnesses=[{"kind": "min_mfrank", **mf}, {"kind": "min_sum_franks", **sums}],
        seed=None,
        violations=violations,
        extra={"free_entries": f},
    )


def _stream_block(
    seed: int, start: int, stop: int, nwords: int, ws: _Workspace | None = None
) -> np.ndarray:
    """First ``nwords`` words of the streams of tensors ``start .. stop-1`` of a sweep.

    They are written into ``ws`` (:func:`_stream_sizes`), or a workspace of their own.
    """
    n = stop - start
    ws = ws or _Workspace(_stream_sizes(n, nwords))
    # the sub-seeds sit in mix's first n items, contiguous, until the words are
    # drawn from them; then mix is the words' scratch
    seeds = sub_seeds_np(seed, start, ws.take("mix", n), ws.take("words", n))
    return stream_words_np(seeds, ws.take("words", n, nwords), ws.take("mix", n, nwords))


def _semidiagonal_words(a: int, d: int, field: FieldDescriptor) -> int:
    """Stream words :func:`_semidiagonal_block` consumes for one tensor."""
    if field.order == 2:
        return max(1, -(-_mixed_count(a, d) // 64))
    return a + _mixed_count(a, d)


def _mixed_bits(words: np.ndarray, f: int) -> np.ndarray:
    """Bit t of word t // 64, for the first ``f`` bits of each row of ``words``."""
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)  # word t // 64, least byte first
    return np.unpackbits(as_bytes, axis=1, count=f, bitorder="little")


@lru_cache(maxsize=None)
def _draw_index(a: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(drawn, shift) of a draw on A^d over a field of order > 2, kept read-only per shape.

    ``drawn`` holds the flat indices of the diagonal and mixed entries, which
    take one stream word each, in flat order; ``shift`` is 1 on the diagonal
    and 0 on mixed entries, as uint64.  With :func:`index_class_arrays` they
    take 8 (a^d + 2 len(drawn)) bytes.
    """
    diag, _, mixed = index_class_arrays(a, d)
    # not np.union1d or np.isin: on large arrays they import numpy.ma, 1.1 MB
    kind = np.zeros(a**d, np.uint8)
    kind[mixed], kind[diag] = 1, 2
    drawn = np.flatnonzero(kind)
    shift = (kind[drawn] == 2).astype(np.uint64)
    drawn.flags.writeable = shift.flags.writeable = False
    return drawn, shift


def _semidiagonal_block(
    a: int, d: int, field: FieldDescriptor, words: np.ndarray, ws: _Workspace | None = None
) -> np.ndarray:
    """(N, a^d) entries drawn from the (N, nwords) stream ``words``, one tensor per row.

    The draw is the protocol of the module docstring; the entries are in the
    field's narrowest dtype (:func:`flatrank.linalg.entry_dtype`).  Over a
    larger field they are written into ``ws`` (:func:`_field_sizes`), or a
    workspace of their own.
    """
    n = words.shape[0]
    if field.order == 2:  # witnesses and tests only: the GF(2) kernels read the words
        diag, _, mixed = index_class_arrays(a, d)
        entries = np.zeros((n, a**d), dtype=np.uint8)
        entries[:, diag] = 1
        entries[:, mixed] = _mixed_bits(words, mixed.size)
        return entries
    ws = ws or _Workspace(_field_sizes(a, d, n, field))
    entries = ws.take("entries", n, a**d)
    entries.fill(0)
    drawn, shift = _draw_index(a, d)
    modulus = ws.take("modulus", drawn.size)
    np.subtract(np.uint64(field.order), shift, out=modulus)  # diagonal: 1 + w % (q-1); mixed: w % q
    residues = np.remainder(words, modulus, out=ws.take("residues", n, drawn.size))
    residues += shift
    entries[:, drawn] = residues
    return entries


def _block_ranks(
    entries: np.ndarray, a: int, d: int, field: FieldDescriptor, ws: _Workspace | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of each A^d tensor in an (N, a^d) block, one rank call for all axes.

    Its d flattenings are stacked into ``ws`` (:func:`_field_sizes`), or a
    workspace of their own, and ranked there in place.
    """
    n = entries.shape[0]
    ws = ws or _Workspace(_field_sizes(a, d, n, field))
    grid = entries.reshape((n,) + (a,) * d)
    stack = ws.take("work", d, n, a, a ** (d - 1))
    for ax in range(d):
        np.copyto(stack[ax].reshape(grid.shape), grid.transpose(_axis_order(d + 1, ax + 1, 1)))
    rank = _rank_into(stack.reshape(d * n, a, -1), field, ws)
    return _rank_summary(rank.reshape(d, n), ws)


def random_semidiagonal_sweep(
    a: int, d: int, count: int, seed: int, field: FieldDescriptor = GF2
) -> SearchReport:
    """Rank statistics over ``count`` random semi-diagonal tensors.

    Tensor j is drawn from ``Rng(Rng.sub_seed(seed, j))``.  Blocks of tensors
    are drawn in bulk and ranked together.  Over GF(2) a block holds
    :data:`BLOCK_BYTES` of rows: rows of at most
    :data:`TABLE_MAX_COLUMNS` columns go through the byte tables of
    :func:`_packed_population_ranks`, wider ones through the bit-sliced
    :func:`_sliced_ranks`, whose blocks are whole words of 64 tensors (at
    least one) (:func:`_gf2_plan`).  Rows over :data:`SAMPLE_COLUMNS`
    columns with a <= :data:`SAMPLE_MAX_A` are first ranked on sampled
    columns (:func:`_certified_ranks`, in blocks whose sampled rows and stream
    words take :data:`BLOCK_BYTES`) when ``count`` fills one such block: a
    tensor whose sampled ranks are all a is of full rank, and only the
    others go to those exact kernels, queued from block to block and ranked
    one exact block at a time; the report is the same.  Larger fields rank all axes of a block at once
    (:func:`_block_ranks`), in blocks of :data:`BLOCK_BYTES` over the largest
    buffer of :func:`_field_sizes` for one tensor, and at least one.  No
    buffer grows faster than the block, so none passes the budget; GF(2^k)'s
    clearing-group scratch is capped, so blocks where it is the largest fill
    less.  Shapes over the dense cap, sweeps whose workspace passes
    :data:`MAX_WORKSPACE_BYTES`, and GF(2^k > 16) sweeps with d >= 3 of more
    than :data:`flatrank.linalg.MAX_SHIFT_ROUNDS` shift-and-XOR rounds are
    refused before anything of their size is drawn or allocated.
    Violations counts tensors with mfrank < ceil(a / (d-1)).
    """
    check_cube(a, d, "tensor")
    if count < 1:
        raise ValueError("need count >= 1")
    if d > 2:  # on A^2 a semi-diagonal flattening is diagonal: no step clears
        _check_products(count * d, a, a ** (d - 1), field, f"{a}^{d} sweep of {count} tensors")
    lower = -(-a // (d - 1))
    nwords = _semidiagonal_words(a, d, field)
    if field.order != 2:  # no buffer grows faster than n: one tensor's largest sizes the block
        n = min(count, max(1, BLOCK_BYTES // _largest_buffer(_field_sizes(a, d, 1, field))))
        sizes = _field_sizes(a, d, n, field)
        # _draw_index's arrays, the elimination's temporaries and the stream's ramps
        extra = 8 * (a**d + 2 * nwords) + _unplanned_bytes(d * n, a) + _ramp_bytes(n, nwords)
        if field.kind == "binary" and field.k <= 16:  # the log tables and their build, cached or not
            extra += _Workspace.nbytes(_log_table_sizes(field))
        if d > 2:  # the pivot table, which only a clearing step builds
            extra += _pivot_table_bytes(field)
        nbytes = _Workspace.nbytes(sizes) + extra
        kernel = lambda words, start, last, ws: (
            (start, *_block_ranks(_semidiagonal_block(a, d, field, words, ws), a, d, field, ws)),
        )
    else:
        n, _, (sizes, nbytes, kernel) = _gf2_plan(a, d, count, nwords)
    _check_workspace(nbytes, f"{a}^{d} sweep block of n={n} tensors")
    if field.order != 2:
        _draw_index(a, d)  # built before the workspaces, not on top of them
    draw = lambda start, stop, ws: _stream_block(seed, start, stop, nwords, ws)
    ranks = lambda start, stop, ws: kernel(draw(start, stop, ws), start, stop == count, ws)
    (min_mf, _), (min_sum, _), violations, first_violation = _scan_blocks(
        count, n, sizes, ranks, lower
    )

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
    width = -(-n // 64)  # limbs of every mask, all below 2^n
    limbs = np.empty((0, d, width), np.uint64)  # the members', split once each

    def grow(tup: tuple[int, ...]) -> None:
        nonlocal limbs
        if try_extend_cross_oddtown(limbs, tup, d):
            members.append(tup)
            limbs = np.concatenate([limbs, _slot_limbs([tup], d, width)])

    attempts = 0
    if budget > 0:
        for tup in repeated_singleton_family(n, d).members:
            attempts += 1
            grow(tup)
            if attempts >= budget:
                break
        while attempts < budget:
            attempts += 1
            grow(tuple(rng.next_below(1 << n) for _ in range(d)))
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
