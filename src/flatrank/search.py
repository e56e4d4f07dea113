"""Brute-force and randomized verification harnesses.

Exhaustive sweeps enumerate whole semi-diagonal populations over GF(2) with
bit-packed vector arithmetic; randomized sweeps and instance generators run
off the documented splitmix64 streams in :mod:`flatrank.rng`, so every report
is reproducible from its seed.

Random semi-diagonal tensors over a field of order 2 consume whole 64-bit
words, one bit per mixed entry in flat-index order (bit t of word t // 64);
over larger fields they consume one draw per diagonal entry (uniform nonzero)
and one per mixed entry (uniform), again in flat-index order.  Tensor j of a
sweep uses the derived stream ``Rng(Rng.sub_seed(seed, j))``.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field as dc_field
from typing import Sequence

import numpy as np

from .field import GF2, FieldDescriptor
from .fw import Configuration
from .linalg import matrix_rank, rank_gf2_bitrows
from .rainbow import ColoredHypergraph
from .rng import Rng, stream_words_np, sub_seeds_np
from .setfam import (
    TupleFamily,
    cross_oddtown_bound,
    is_cross_oddtown,
    repeated_singleton_family,
    try_extend_cross_oddtown,
)
from .tensor import Tensor, classify_indices, flattening_rank, index_class_arrays

__all__ = [
    "Rng",
    "SearchReport",
    "exhaustive_min_mfrank",
    "random_semidiagonal",
    "random_semidiagonal_sweep",
    "random_cross_oddtown_search",
    "random_configuration",
    "random_colored_hypergraph",
]

MAX_FREE_ENTRIES = 22
# Tensor entries held by one sweep block outside the bit-packed path; bounds a
# block's memory (its int64 entries plus the rank kernels' temporaries).
BLOCK_ENTRIES = 1 << 20


@dataclass
class SearchReport:
    """Outcome of a sweep; ``elapsed_s`` is informational and never serialized."""

    population: str
    count: int
    min_mfrank: int | None
    min_sum_franks: int | None
    witnesses: list[dict]
    seed: int | None
    violations: int = 0
    extra: dict = dc_field(default_factory=dict)
    elapsed_s: float = 0.0

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


def _axis_contributions(a: int, d: int) -> list[list[tuple[int, int]]]:
    """Per-axis (row, column) coordinates of every flat entry of an A^d tensor."""
    maps: list[list[tuple[int, int]]] = [[] for _ in range(d)]
    for flat in range(a**d):
        idx = []
        f = flat
        for _ in range(d):
            f, r = divmod(f, a)
            idx.append(r)
        idx.reverse()
        for ax in range(d):
            col = 0
            for j in range(d):
                if j != ax:
                    col = col * a + idx[j]
            maps[ax].append((idx[ax], col))
    return maps


def _ranks_by_subset_xor(rows: np.ndarray, a: int) -> np.ndarray:
    """Vectorized GF(2) rank of an (N, a) block of bit-packed rows.

    Counts the zero subset-XORs: the row-space kernel has 2^(a - rank)
    coefficient vectors, so rank = a - log2(#zero subsets).
    """
    n = rows.shape[0]
    zeros = np.ones(n, dtype=np.int32)  # empty subset
    table: list[np.ndarray] = [np.zeros(n, dtype=np.uint64)]
    for s in range(1, 1 << a):
        low = s & -s
        x = table[s ^ low] ^ rows[:, low.bit_length() - 1]
        table.append(x)
        zeros += (x == 0).astype(np.int32)
    log2 = np.zeros(n, dtype=np.int64)
    z = zeros.astype(np.int64)
    while True:
        half = z >> 1
        if not half.any():
            break
        log2 += z > 1
        z = np.where(z > 1, half, z)
    return a - log2


def _vector_population_ranks(
    a: int, d: int, bits: np.ndarray, base_rows: list[list[int]], mixed_maps: list[list[tuple[int, int]]]
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) for a block of GF(2) semi-diagonal tensors.

    ``bits``: (N, n_mixed) 0/1 values of the mixed entries; fixed entries are
    encoded in ``base_rows``.
    """
    n = bits.shape[0]
    mfrank = np.zeros(n, dtype=np.int64)
    sumrank = np.zeros(n, dtype=np.int64)
    for ax in range(d):
        rows = np.empty((n, a), dtype=np.uint64)
        for r in range(a):
            rows[:, r] = base_rows[ax][r]
        for t, (r, c) in enumerate(mixed_maps[ax]):
            rows[:, r] += bits[:, t].astype(np.uint64) << np.uint64(c)
        ranks = _ranks_by_subset_xor(rows, a)
        mfrank = np.maximum(mfrank, ranks)
        sumrank += ranks
    return mfrank, sumrank


def _population_tables(a: int, d: int):
    diag, distinct, mixed = classify_indices(a, d)
    maps = _axis_contributions(a, d)
    base_rows = [[0] * a for _ in range(d)]
    for flat in diag:
        for ax in range(d):
            r, c = maps[ax][flat]
            base_rows[ax][r] |= 1 << c
    mixed_maps = [[maps[ax][flat] for flat in mixed] for ax in range(d)]
    return diag, distinct, mixed, base_rows, mixed_maps


def _mixed_bits(words: np.ndarray, f: int) -> np.ndarray:
    """Bit t of word t // 64, for the first ``f`` bits of each row of ``words``.

    Column-major, because the rank kernels read one bit position at a time.
    """
    as_bytes = words.astype("<u8", copy=False).view(np.uint8)  # word t // 64, least byte first
    return np.asfortranarray(np.unpackbits(as_bytes, axis=1, count=f, bitorder="little"))


def _tensor_from_mixed_bits(a: int, d: int, mixed: Sequence[int], bits: Sequence[int]) -> Tensor:
    entries = [0] * (a**d)
    for x in range(a):
        flat = 0
        for _ in range(d):
            flat = flat * a + x
        entries[flat] = 1
    for flat, b in zip(mixed, bits):
        entries[flat] = int(b)
    return Tensor((a,) * d, GF2, entries)


def exhaustive_min_mfrank(a: int, d: int, threads: int = 1, chunk_bits: int = 18) -> SearchReport:
    """Sweep every GF(2) semi-diagonal tensor on A^d with unit diagonal.

    Mixed entries range over {0,1}; all-distinct entries are 0 and diagonal
    entries 1 (over GF(2) a nonzero diagonal entry is 1, so this loses no
    generality).  Refuses populations with more than 2^22 members.
    """
    started = time.monotonic()
    if a < 1 or d < 2:
        raise ValueError("need a >= 1 and d >= 2")
    diag, distinct, mixed, base_rows, mixed_maps = _population_tables(a, d)
    f = len(mixed)
    if f > MAX_FREE_ENTRIES:
        raise ValueError(
            f"population too large: {f} free entries at (a={a}, d={d}) exceeds cap {MAX_FREE_ENTRIES}"
        )
    total = 1 << f
    cols = a ** (d - 1)
    use_vector = cols <= 64 and a <= 6 and f > 0

    def scan_chunk(start: int, stop: int):
        if use_vector:
            bits = _mixed_bits(np.arange(start, stop, dtype=np.uint64)[:, None], f)
            mfrank, sumrank = _vector_population_ranks(a, d, bits, base_rows, mixed_maps)
            i_mf = int(np.argmin(mfrank))
            i_sum = int(np.argmin(sumrank))
            return (
                int(mfrank[i_mf]),
                start + i_mf,
                int(sumrank[i_sum]),
                start + i_sum,
            )
        best_mf = best_sum = None
        at_mf = at_sum = -1
        for v in range(start, stop):
            rows_by_axis = [list(base_rows[ax]) for ax in range(d)]
            for t in range(f):
                if (v >> t) & 1:
                    for ax in range(d):
                        r, c = mixed_maps[ax][t]
                        rows_by_axis[ax][r] ^= 1 << c
            ranks = [rank_gf2_bitrows(rows) for rows in rows_by_axis]
            mf, sm = max(ranks), sum(ranks)
            if best_mf is None or mf < best_mf:
                best_mf, at_mf = mf, v
            if best_sum is None or sm < best_sum:
                best_sum, at_sum = sm, v
        return best_mf, at_mf, best_sum, at_sum

    chunk = 1 << chunk_bits
    spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(lambda sp: scan_chunk(*sp), spans))
    else:
        parts = [scan_chunk(*sp) for sp in spans]
    best_mf, at_mf = min((p[0], p[1]) for p in parts)
    best_sum, at_sum = min((p[2], p[3]) for p in parts)

    def witness(v: int, label: str) -> dict:
        t = _tensor_from_mixed_bits(a, d, mixed, [(v >> t) & 1 for t in range(f)])
        return {
            "kind": label,
            "assignment": v,
            "tensor": {
                "dims": list(t.dims),
                "field": t.field.to_document(),
                "entries": t.entries.tolist(),
            },
            "franks": [flattening_rank(t, i) for i in range(d)],
        }

    report = SearchReport(
        population=f"semi-diagonal GF(2) tensors, a={a}, d={d}, diagonal fixed to 1",
        count=total,
        min_mfrank=best_mf,
        min_sum_franks=best_sum,
        witnesses=[witness(at_mf, "min_mfrank"), witness(at_sum, "min_sum_franks")],
        seed=None,
        extra={"free_entries": f},
        elapsed_s=time.monotonic() - started,
    )
    return report


def random_semidiagonal(a: int, d: int, field: FieldDescriptor, rng: Rng) -> Tensor:
    """Draw a uniform semi-diagonal tensor (see module docstring for the protocol)."""
    if a < 1 or d < 1:
        raise ValueError("need a >= 1 and d >= 1")
    diag, distinct, mixed = classify_indices(a, d)
    size = a**d
    entries = [0] * size
    order = field.order
    if order == 2:
        for flat in diag:
            entries[flat] = 1
        word = 0
        for t, flat in enumerate(mixed):
            sh = t % 64
            if sh == 0:
                word = rng.next_u64()
            entries[flat] = (word >> sh) & 1
    else:
        diag_set = set(diag)
        mixed_set = set(mixed)
        for flat in range(size):
            if flat in diag_set:
                entries[flat] = 1 + rng.next_below(order - 1)
            elif flat in mixed_set:
                entries[flat] = rng.next_below(order)
    return Tensor((a,) * d, field, entries)


def _stream_block(seed: int, start: int, stop: int, nwords: int) -> np.ndarray:
    """First ``nwords`` words of the streams of tensors ``start .. stop-1`` of a sweep."""
    return stream_words_np(sub_seeds_np(seed, np.arange(start, stop, dtype=np.uint64)), nwords)


def _semidiagonal_words(a: int, d: int, field: FieldDescriptor) -> int:
    """Stream words :func:`random_semidiagonal` consumes for one tensor."""
    diag, _, mixed = index_class_arrays(a, d)
    if field.order == 2:
        return max(1, -(-mixed.size // 64))
    return diag.size + mixed.size


def _semidiagonal_block(a: int, d: int, field: FieldDescriptor, words: np.ndarray) -> np.ndarray:
    """(N, a^d) entries drawn from N streams exactly as :func:`random_semidiagonal` draws them."""
    diag, _, mixed = index_class_arrays(a, d)
    entries = np.zeros((words.shape[0], a**d), dtype=np.int64)
    if field.order == 2:
        entries[:, diag] = 1
        entries[:, mixed] = _mixed_bits(words, mixed.size)
        return entries
    drawn = np.sort(np.concatenate((diag, mixed)))  # one word per drawn entry, in flat order
    on_diag = np.zeros(a**d, dtype=np.uint64)
    on_diag[diag] = 1
    shift = on_diag[drawn]  # diagonal: 1 + w % (q-1); mixed: w % q
    entries[:, drawn] = (words % (np.uint64(field.order) - shift) + shift).astype(np.int64)
    return entries


def _block_ranks(
    entries: np.ndarray, a: int, d: int, field: FieldDescriptor
) -> tuple[np.ndarray, np.ndarray]:
    """(mfrank, sum_franks) of each A^d tensor in an (N, a^d) block, one rank call per axis."""
    grid = entries.reshape((-1,) + (a,) * d)
    ranks = np.stack(
        [
            matrix_rank(np.moveaxis(grid, ax + 1, 1).reshape(grid.shape[0], a, -1), field)
            for ax in range(d)
        ]
    )
    return ranks.max(axis=0), ranks.sum(axis=0)


def random_semidiagonal_sweep(
    a: int,
    d: int,
    count: int,
    seed: int,
    field: FieldDescriptor = GF2,
    threads: int = 1,
    block: int = 1 << 15,
) -> SearchReport:
    """Rank statistics over ``count`` random semi-diagonal tensors.

    Tensor j is drawn from ``Rng(Rng.sub_seed(seed, j))``.  Blocks of up to
    ``block`` tensors are drawn in bulk and ranked together: over GF(2), when
    every flattening row fits one word, with the subset-XOR kernel, otherwise
    with one batched :func:`matrix_rank` call per axis.  Violations counts
    tensors with mfrank < ceil(a / (d-1)).
    """
    started = time.monotonic()
    lower = -(-a // (d - 1))
    nwords = _semidiagonal_words(a, d, field)
    if field.order == 2 and a ** (d - 1) <= 64 and a <= 6:
        _, _, mixed, base_rows, mixed_maps = _population_tables(a, d)

        def block_ranks(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            bits = _mixed_bits(words, len(mixed))
            return _vector_population_ranks(a, d, bits, base_rows, mixed_maps)

    else:
        block = max(1, min(block, BLOCK_ENTRIES // a**d))

        def block_ranks(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            return _block_ranks(_semidiagonal_block(a, d, field, words), a, d, field)

    def scan(span):
        start, stop = span
        mfrank, sumrank = block_ranks(_stream_block(seed, start, stop, nwords))
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
        t = random_semidiagonal(a, d, field, Rng(Rng.sub_seed(seed, first_violation)))
        witnesses.append(
            {
                "kind": "violation",
                "index": first_violation,
                "tensor": {
                    "dims": list(t.dims),
                    "field": t.field.to_document(),
                    "entries": t.entries.tolist(),
                },
            }
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
        elapsed_s=time.monotonic() - started,
    )


def random_cross_oddtown_search(n: int, d: int, budget: int, rng: Rng) -> SearchReport:
    """Greedy growth of cross-Oddtown families; reports the largest found.

    The first growth pass walks the repeated-singleton members (the known
    extremal family), the remaining budget proposes uniform random tuples.
    The reported size can therefore reach, and never exceeds, (d-1)*n.
    """
    started = time.monotonic()
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
        elapsed_s=time.monotonic() - started,
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
