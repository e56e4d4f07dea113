"""Set families over [n] as packed bit-masks, and cross-Oddtown machinery.

Members of a :class:`TupleFamily` are ordered d-tuples of subsets.  Families
are multisets: "distinct members" always means distinct list positions, so a
tuple repeated twice counts as two members.  That convention is what makes the
size bound (d-1)*n attainable (each singleton tuple repeated d-1 times).

The cross-Oddtown tensor of a family lives over GF(2); its explicit rank-1
decomposition (one factor per ground element) certifies tensor rank <= n and
hence caps every flattening rank at n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations, product
from typing import Iterator, Sequence

import numpy as np

from .field import GF2
from .linalg import matrix_rank
from .tensor import Tensor, flattening_rank, is_semi_diagonal

__all__ = [
    "SetFamily",
    "TupleFamily",
    "intersection_size",
    "is_cross_oddtown",
    "oddtown_tensor",
    "oddtown_rank1_certificate",
    "reconstruct_from_certificate",
    "cross_oddtown_bound",
    "repeated_singleton_family",
    "singleton_diagonal_family",
    "enumerate_cross_oddtown",
    "odd_tuple_candidates",
    "verify_oddtown_chain",
    "fast_chain_check",
]


def _check_mask(mask: int, n: int) -> int:
    if not isinstance(mask, int) or mask < 0 or mask >> n:
        raise ValueError(f"mask {mask!r} does not fit in the low {n} bits")
    return mask


@dataclass(frozen=True)
class SetFamily:
    """Ordered list of subsets of [n]; duplicates permitted."""

    n: int
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        for m in self.members:
            _check_mask(m, self.n)

    def __len__(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class TupleFamily:
    """Ordered list of d-tuples of subsets of [n]."""

    n: int
    d: int
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.d < 2:
            raise ValueError("tuple width d must be at least 2")
        for tup in self.members:
            if len(tup) != self.d:
                raise ValueError(f"member {tup!r} does not have width {self.d}")
            for m in tup:
                _check_mask(m, self.n)

    def __len__(self) -> int:
        return len(self.members)


def intersection_size(masks: Sequence[int]) -> int:
    """|M_1 ∩ ... ∩ M_r| for masks over a common ground set."""
    if not masks:
        raise ValueError("need at least one mask")
    acc = masks[0]
    for m in masks[1:]:
        acc &= m
    return acc.bit_count()


def _slot_intersection(members: Sequence[tuple[int, ...]], positions: Sequence[int]) -> int:
    acc = members[positions[0]][0]
    for slot in range(1, len(positions)):
        acc &= members[positions[slot]][slot]
    return acc


def is_cross_oddtown(fam: TupleFamily) -> bool:
    """Odd within-tuple intersections; even across any d distinct positions."""
    members = fam.members
    for tup in members:
        if intersection_size(tup) % 2 == 0:
            return False
    m = len(members)
    if m >= fam.d:
        for positions in permutations(range(m), fam.d):
            if _slot_intersection(members, positions).bit_count() % 2 != 0:
                return False
    return True


def oddtown_tensor(fam: TupleFamily) -> Tensor:
    """m^d tensor over GF(2): parity of the slot-wise intersection size."""
    m = len(fam.members)
    if m == 0:
        raise ValueError("tensor of an empty family is undefined")
    members = fam.members
    d = fam.d
    entries = []
    for positions in product(range(m), repeat=d):
        entries.append(_slot_intersection(members, positions).bit_count() & 1)
    return Tensor((m,) * d, GF2, entries)


def oddtown_rank1_certificate(fam: TupleFamily) -> list[tuple[list[int], ...]]:
    """One rank-1 factor tuple per ground element.

    Element k contributes the outer product of the d indicator vectors
    "member's slot-j set contains k"; summing all n of them over GF(2)
    reproduces the intersection-parity tensor exactly, which certifies tensor
    rank (and hence every flattening rank) at most n.
    """
    cert = []
    for k in range(fam.n):
        bit = 1 << k
        factors = tuple(
            [1 if (tup[j] & bit) else 0 for tup in fam.members] for j in range(fam.d)
        )
        cert.append(factors)
    return cert


def reconstruct_from_certificate(
    cert: Sequence[tuple[list[int], ...]], m: int, d: int
) -> Tensor:
    """Sum of the certificate's outer products, as a GF(2) tensor."""
    acc = np.zeros((m,) * d, dtype=np.int64)
    for factors in cert:
        term = np.asarray(factors[0], dtype=np.int64)
        for j in range(1, d):
            term = np.multiply.outer(term, np.asarray(factors[j], dtype=np.int64))
        acc += term
    return Tensor.from_array(acc % 2, GF2)


def cross_oddtown_bound(n: int, d: int) -> int:
    if n < 1 or d < 2:
        raise ValueError("need n >= 1 and d >= 2")
    return (d - 1) * n


def repeated_singleton_family(n: int, d: int) -> TupleFamily:
    """The tight family: each singleton tuple ({i},...,{i}) taken d-1 times."""
    members = []
    for i in range(n):
        members.extend([(1 << i,) * d] * (d - 1))
    return TupleFamily(n=n, d=d, members=tuple(members))


def singleton_diagonal_family(n: int, d: int = 2) -> TupleFamily:
    """Classic Oddtown singletons embedded as constant d-tuples."""
    return TupleFamily(n=n, d=d, members=tuple((1 << i,) * d for i in range(n)))


def odd_tuple_candidates(n: int, d: int) -> list[tuple[int, ...]]:
    """All d-tuples of masks over [n] with odd within-tuple intersection, sorted."""
    out = []
    for tup in product(range(1 << n), repeat=d):
        if intersection_size(tup) % 2 == 1:
            out.append(tup)
    return out


def _cross_even_with(members: list[tuple[int, ...]], new: tuple[int, ...], d: int) -> bool:
    """Can ``new`` join ``members`` keeping all distinct-position d-tuples even?"""
    c = len(members)
    if c + 1 < d:
        return True
    for slot in range(d):
        for arrangement in permutations(range(c), d - 1):
            acc = new[slot]
            pos = 0
            for j in range(d):
                if j == slot:
                    continue
                acc &= members[arrangement[pos]][j]
                pos += 1
            if acc.bit_count() % 2 != 0:
                return False
    return True


def try_extend_cross_oddtown(
    members: list[tuple[int, ...]], new: tuple[int, ...], d: int
) -> bool:
    """Incremental validity test used by greedy growth; members stay valid."""
    if intersection_size(new) % 2 == 0:
        return False
    return _cross_even_with(members, new, d)


def enumerate_cross_oddtown(n: int, d: int, max_size: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Yield every cross-Oddtown multiset family over [n] with 1..max_size members.

    Families are produced as nondecreasing sequences of candidate tuples, each
    candidate being a d-tuple of masks with odd self-intersection.  Supported
    for d in {2, 3}; the DFS narrows the feasible-extension set with
    precomputed parity bitsets, so the cost is proportional to the number of
    families actually emitted.
    """
    if d not in (2, 3):
        raise ValueError("exhaustive enumeration is implemented for d = 2 and d = 3")
    cands = odd_tuple_candidates(n, d)
    nc = len(cands)
    if nc == 0:
        return
    full = (1 << nc) - 1

    # bad_bits[slot][mask] = candidate set whose slot-``slot`` member meets
    # ``mask`` in an odd number of elements
    bad_bits = [[0] * (1 << n) for _ in range(d)]
    for slot in range(d):
        table = bad_bits[slot]
        for mask in range(1 << n):
            acc = 0
            for j, tup in enumerate(cands):
                if (tup[slot] & mask).bit_count() % 2 == 1:
                    acc |= 1 << j
            table[mask] = acc

    def narrowed(allowed: int, fam: list[int], new_idx: int) -> int:
        """Restrict ``allowed`` by evenness constraints a future member would
        face against ``new_idx`` plus d-2 positions of the current family."""
        new = cands[new_idx]
        if d == 2:
            allowed &= ~bad_bits[0][new[1]]
            allowed &= ~bad_bits[1][new[0]]
            return allowed
        # d == 3: future j + new + one existing position p, over all slot layouts
        for p_idx in fam:
            p = cands[p_idx]
            for js, ns, ps in permutations(range(3)):
                partial = new[ns] & p[ps]
                allowed &= ~bad_bits[js][partial]
                if not allowed:
                    return 0
        return allowed

    fam: list[int] = []

    def dfs(allowed: int, lo_mask: int) -> Iterator[tuple[tuple[int, ...], ...]]:
        avail = allowed & lo_mask
        while avail:
            low = avail & -avail
            j = low.bit_length() - 1
            avail ^= low
            nxt = narrowed(allowed, fam, j)
            fam.append(j)
            yield tuple(cands[i] for i in fam)
            if len(fam) < max_size:
                yield from dfs(nxt, full << j)
            fam.pop()

    yield from dfs(full, full)


def verify_oddtown_chain(fam: TupleFamily) -> dict:
    """Full bound chain for one family: hypothesis, tensor, certificate, bounds."""
    m = len(fam)
    d = fam.d
    report: dict = {"size": m, "n": fam.n, "d": d, "bound": cross_oddtown_bound(fam.n, d)}
    hypothesis = is_cross_oddtown(fam)
    report["is_cross_oddtown"] = hypothesis
    report["size_bound_ok"] = m <= report["bound"]
    if m == 0:
        report["verified"] = hypothesis and report["size_bound_ok"]
        return report
    t = oddtown_tensor(fam)
    franks = [flattening_rank(t, i) for i in range(d)]
    mfrank = max(franks)
    recon = reconstruct_from_certificate(oddtown_rank1_certificate(fam), m, d)
    report.update(
        {
            "franks": franks,
            "mfrank": mfrank,
            "semi_diagonal": is_semi_diagonal(t),
            "certificate_reconstructs": recon == t,
            "mfrank_le_n": mfrank <= fam.n,
        }
    )
    if not hypothesis:
        report["verified"] = False
        return report
    report["mfrank_lower_ok"] = mfrank * (d - 1) >= m
    report["verified"] = all(
        report[key]
        for key in (
            "semi_diagonal",
            "certificate_reconstructs",
            "mfrank_le_n",
            "mfrank_lower_ok",
            "size_bound_ok",
        )
    )
    return report


_DISTINCT_IDX_CACHE: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}


def _distinct_index_arrays(m: int, d: int) -> tuple[np.ndarray, ...]:
    key = (m, d)
    hit = _DISTINCT_IDX_CACHE.get(key)
    if hit is None:
        perms = list(permutations(range(m), d)) if m >= d else []
        if perms:
            arr = np.asarray(perms, dtype=np.intp)
            hit = tuple(arr[:, j] for j in range(d))
        else:
            hit = tuple(np.empty(0, dtype=np.intp) for _ in range(d))
        _DISTINCT_IDX_CACHE[key] = hit
    return hit


_EINSUM_SPEC = {2: "ak,bk->ab", 3: "ak,bk,ck->abc", 4: "ak,bk,ck,dk->abcd"}


def fast_chain_check(members: Sequence[tuple[int, ...]], n: int, d: int) -> dict:
    """Vectorized per-family chain check for enumeration sweeps.

    Equivalent to :func:`verify_oddtown_chain` on a cross-Oddtown family
    (minus the hypothesis re-test); kept separate so exhaustive populations
    stay cheap.  Cross-validated against the full path in the test suite.
    """
    m = len(members)
    slot_masks = [
        np.asarray([tup[j] for tup in members], dtype=np.int64) for j in range(d)
    ]
    acc = None
    for j in range(d):
        shape = [1] * d
        shape[j] = m
        piece = slot_masks[j].reshape(shape)
        acc = piece if acc is None else acc & piece
    grid = (np.bitwise_count(np.broadcast_to(acc, (m,) * d).astype(np.uint64)) & 1).astype(
        np.int64
    )
    diag_ok = bool((np.einsum(f"{'i' * d}->i", grid) == 1).all())
    idx = _distinct_index_arrays(m, d)
    distinct_ok = bool((grid[idx] == 0).all()) if idx[0].size else True
    mfrank = max(matrix_rank(np.moveaxis(grid, ax, 0).reshape(m, -1), GF2) for ax in range(d))
    bit_mats = [((sm[:, None] >> np.arange(n)) & 1).astype(np.int64) for sm in slot_masks]
    recon = np.einsum(_EINSUM_SPEC[d], *bit_mats) % 2
    cert_ok = bool((recon == grid).all())
    return {
        "size": m,
        "mfrank": mfrank,
        "semi_diagonal": diag_ok and distinct_ok,
        "certificate_reconstructs": cert_ok,
        "mfrank_le_n": mfrank <= n,
        "mfrank_lower_ok": mfrank * (d - 1) >= m,
    }
