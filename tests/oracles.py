"""Reference implementations and input generators that only the tests use.

Nothing in ``src/flatrank`` imports this module, and no ``flatrank`` command
reaches these names: they are the slow oracles the package's fast paths are
checked against, and the seeded generators of test inputs.

* Exterior algebra over characteristic-2 fields: sparse wedge products whose
  top coefficients the closed-form wedge tensors of :mod:`flatrank.rainbow`
  must match, and moment-curve vectors in general position.
* Scalar field arithmetic on Python ints (:class:`Arith`), read off a
  descriptor's ``p`` or ``reduction_poly`` alone, so no oracle runs the
  descriptor's own methods; and scalar Gaussian elimination through it, one
  matrix at a time on Python lists: the rank the vectorized kernels of
  :mod:`flatrank.linalg` must match.
* The exhaustive cross-Oddtown enumerator, checked against the parity-grid
  chain of :mod:`flatrank.setfam`, and the integer Khatri-Rao sum of a rank-1
  certificate that its float64 sum must equal.
* The pair-by-pair odd-intersection adjacency of product sets, checked
  against the parity grid of :func:`flatrank.fw._odd_adjacency`.
* The (C, L) violation grid, read off the masks alone, one intersection per
  member of C and cell, which the chain's product grid of
  :func:`flatrank.fw._h_grid` must agree with.
* Generators of random configurations, (C, L)-satisfying families and colored
  hypergraphs, all drawn from :class:`flatrank.rng.Rng`, so every seeded input
  is the same from run to run.
* Small tensor and hypergraph helpers: restriction, sum and vertex-list
  hypergraphs.
* The cell-by-cell semi-diagonal test, which
  :func:`flatrank.tensor.semi_diagonal_faults` must agree with.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import permutations, product
from typing import Iterator, Mapping, Sequence

import numpy as np

from flatrank.field import FieldDescriptor
from flatrank.fw import Configuration
from flatrank.rainbow import ColoredHypergraph
from flatrank.rng import Rng
from flatrank.setfam import SetFamily, TupleFamily, intersection_size
from flatrank.tensor import Tensor


# ----------------------------------------------------------- scalar arithmetic


@dataclass(frozen=True)
class Arith:
    """GF(p) (``p`` set) or GF(2^k) modulo ``poly``, of degree k, on canonical Python ints.

    A binary product is the carry-less product of the two masks, then reduced
    from its top bit down: not the descriptor's interleaved shift-and-reduce.
    """

    p: int = 0
    poly: int = 0

    @classmethod
    def of(cls, field: FieldDescriptor) -> "Arith":
        return cls(p=field.p) if field.kind == "prime" else cls(poly=field.reduction_poly)

    @property
    def order(self) -> int:
        return self.p or 1 << (self.poly.bit_length() - 1)

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p if self.p else a ^ b

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p if self.p else a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.p:
            return a * b % self.p
        r = 0
        for i in range(b.bit_length()):
            if b >> i & 1:
                r ^= a << i
        k = self.poly.bit_length() - 1
        for i in range(r.bit_length() - 1, k - 1, -1):
            if r >> i & 1:
                r ^= self.poly << (i - k)
        return r

    def pow(self, a: int, e: int) -> int:
        r = 1
        for bit in bin(e)[2:]:  # left to right
            r = self.mul(r, r)
            if bit == "1":
                r = self.mul(r, a)
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return self.pow(a, self.order - 2)


def tensor_key(t: Tensor) -> tuple:
    """What makes two tensors equal: dims, field and entries."""
    return t.dims, t.field, t.entries.tolist()


# ------------------------------------------------------------ splitmix64 draws


def shuffle(rng: Rng, items: list) -> None:
    """In-place Fisher-Yates driven by next_below."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.next_below(i + 1)
        items[i], items[j] = items[j], items[i]


def sample_without_replacement(rng: Rng, n: int, k: int) -> list[int]:
    """k distinct values from range(n), in draw order."""
    if k > n:
        raise ValueError("cannot sample more values than the range holds")
    pool = list(range(n))
    out = []
    for i in range(k):
        j = i + rng.next_below(n - i)
        pool[i], pool[j] = pool[j], pool[i]
        out.append(pool[i])
    return out


# --------------------------------------------------------------------- tensors


def subtensor(t: Tensor, subsets: Sequence[Sequence[int]]) -> Tensor:
    """Restriction of ``t`` to the given index subset on each axis."""
    if len(subsets) != t.ndim:
        raise ValueError("need one index subset per axis")
    cleaned = []
    for ax, sub in enumerate(subsets):
        sub = list(sub)
        if not sub:
            raise ValueError(f"axis {ax}: empty index subset")
        if len(set(sub)) != len(sub):
            raise ValueError(f"axis {ax}: duplicate indices in subset")
        if any(not 0 <= v < t.dims[ax] for v in sub):
            raise IndexError(f"axis {ax}: subset out of range")
        cleaned.append(sub)
    return Tensor.from_array(t.array[np.ix_(*cleaned)], t.field)


def add_tensors(s: Tensor, t: Tensor) -> Tensor:
    if s.dims != t.dims:
        raise ValueError(f"shape mismatch: {s.dims} vs {t.dims}")
    if s.field != t.field:
        raise ValueError(f"field mismatch: {s.field} vs {t.field}")
    f = s.field
    if f.kind == "binary":
        entries = s.entries ^ t.entries
    else:
        entries = (s.entries.astype(np.int64) + t.entries) % f.p
    return Tensor(s.dims, f, entries)


def semi_diagonal_faults_naive(cells: np.ndarray) -> tuple[int | None, tuple[int, ...] | None]:
    """(first zero constant cell's a, first nonzero pairwise-distinct cell), cell by cell.

    Every cell of the A^d grid is visited in C order (``product``); a cell is
    constant when its indices form one value, pairwise distinct when they
    form d values.  At d == 1 every cell is both.
    """
    a, d = cells.shape[0], cells.ndim
    zero = cell = None
    for idx in product(range(a), repeat=d):
        if zero is None and len(set(idx)) == 1 and not cells[idx]:
            zero = idx[0]
        if cell is None and len(set(idx)) == d and cells[idx]:
            cell = idx
    return zero, cell


# ------------------------------------------------------ cross-Oddtown families


def singleton_diagonal_family(n: int, d: int = 2) -> TupleFamily:
    """Classic Oddtown singletons embedded as constant d-tuples."""
    return TupleFamily(n=n, d=d, members=tuple((1 << i,) * d for i in range(n)))


def reconstruct_from_certificate_int64(cert: np.ndarray) -> np.ndarray:
    """The parity array of :func:`flatrank.setfam.reconstruct_from_certificate`, summed in int64.

    The same Khatri-Rao split, first half of the slots against the rest, as
    one integer matrix product.
    """
    n, d, m = cert.shape

    def khatri_rao(slots: range) -> np.ndarray:
        acc = np.ones((n, 1), dtype=np.int64)
        for j in slots:
            acc = (acc[:, :, None] * cert[:, j, None, :]).reshape(n, -1)
        return acc

    half = (d + 1) // 2
    counts = khatri_rao(range(half)).T @ khatri_rao(range(half, d))
    return counts.reshape((m,) * d) % 2


def odd_tuple_candidates(n: int, d: int) -> list[tuple[int, ...]]:
    """All d-tuples of masks over [n] with odd within-tuple intersection, sorted."""
    out = []
    for tup in product(range(1 << n), repeat=d):
        if intersection_size(tup) % 2 == 1:
            out.append(tup)
    return out


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


# ------------------------------------------------------- (C, L) configurations


def odd_subsets(t: int) -> list[int]:
    """All odd-sized subsets of [t], ascending as masks; there are 2^(t-1)."""
    return [m for m in range(1 << t) if m.bit_count() % 2 == 1]


def odd_adjacency(members_factors: Sequence[Sequence[int]]) -> list[int]:
    """Pairwise-odd adjacency of product sets as int bitsets, pair by pair in Python."""
    m = len(members_factors)
    adj = []
    for i in range(m):
        row = 0
        for j in range(m):
            if j == i:
                continue
            if all(
                (a & b).bit_count() % 2 == 1
                for a, b in zip(members_factors[i], members_factors[j])
            ):
                row |= 1 << j
        adj.append(row)
    return adj


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
    shuffle(rng, residues)
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


def _avoids(cfg: Configuration, masks: Sequence[int], cell: Sequence[int]) -> bool:
    """True when every C-indexed intersection of the members ``masks[i]`` at ``cell`` avoids L:
    its size mod p is not in L."""
    for x in cfg.C:
        meet = -1  # every element: each x names at least one slot
        for slot, i in enumerate(cell):
            if x >> slot & 1:
                meet &= masks[i]
        if meet.bit_count() % cfg.p in cfg.L:
            return False
    return True


def _violation_grid(masks: Sequence[int], cfg: Configuration) -> np.ndarray:
    """Boolean grid over k axes of ``masks``: True where every C-indexed intersection avoids L."""
    ok = np.zeros((len(masks),) * cfg.k, dtype=bool)
    for cell in product(range(len(masks)), repeat=cfg.k):
        ok[cell] = _avoids(cfg, masks, cell)
    return ok


def grow_config_satisfying_family(
    cfg: Configuration, n: int, rng: Rng, candidate_budget: int = 120
) -> SetFamily:
    """Greedy growth: admit random subsets of [n] while (C, L)-satisfaction holds.

    Candidates failing the size condition or duplicating an existing member
    are discarded; a candidate that would complete a forbidden k-assignment is
    rejected.  The result is always satisfying (under set semantics).
    """
    members: list[int] = []
    for _ in range(candidate_budget):
        cand = rng.next_below(1 << n)
        if cand in members or cand.bit_count() % cfg.p in cfg.L:
            continue
        trial, new = members + [cand], len(members)
        # only assignments of distinct members using the new one can be newly violating
        if any(
            _avoids(cfg, trial, (*rest[:slot], new, *rest[slot:]))
            for rest in permutations(range(new), cfg.k - 1)
            for slot in range(cfg.k)
        ):
            continue
        members.append(cand)
    return SetFamily(n=n, members=tuple(members))


# --------------------------------------------------------- colored hypergraphs


def hypergraph_from_vertex_lists(
    num_vertices: int, r: int, t: int, colors: Sequence[Sequence[Sequence[int]]]
) -> ColoredHypergraph:
    packed = []
    for cls in colors:
        edges = []
        for edge in cls:
            mask = 0
            for v in edge:
                if not 0 <= v < num_vertices:
                    raise ValueError(f"vertex {v} out of range")
                mask |= 1 << v
            edges.append(mask)
        packed.append(tuple(edges))
    return ColoredHypergraph(num_vertices=num_vertices, r=r, t=t, colors=tuple(packed))


def random_colored_hypergraph(
    num_vertices: int, r: int, t: int, z: int, rng: Rng
) -> ColoredHypergraph:
    """Uniformity-r hypergraph with z random color classes, each a matching of t edges."""
    if num_vertices < r * t:
        raise ValueError("need at least r*t vertices for a size-t matching")
    colors = []
    for _ in range(z):
        verts = sample_without_replacement(rng, num_vertices, r * t)
        edges = []
        for e in range(t):
            mask = 0
            for v in verts[e * r : (e + 1) * r]:
                mask |= 1 << v
            edges.append(mask)
        colors.append(tuple(edges))
    return ColoredHypergraph(num_vertices=num_vertices, r=r, t=t, colors=tuple(colors))


# -------------------------------------- exterior algebra over characteristic 2


def _require_char2(field: FieldDescriptor) -> None:
    if field.kind == "prime" and field.p != 2:
        raise ValueError(f"exterior algebra support is restricted to characteristic 2, got {field}")


def _canonical(field: FieldDescriptor, a: int) -> int:
    """``a``, if it is a canonical representative of ``field``."""
    if not isinstance(a, int) or not 0 <= a < field.order:
        raise ValueError(f"{a!r} is not a canonical representative of {field}")
    return a


@dataclass(frozen=True)
class ExtVector:
    """Homogeneous element of grade ``grade`` in the exterior algebra of F^n.

    ``coords`` maps n-bit masks of popcount ``grade`` to nonzero representatives.
    A grade above n is legal and forces the zero vector (no such subsets exist).
    """

    n: int
    grade: int
    field: FieldDescriptor
    coords: Mapping[int, int] = dc_field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_char2(self.field)
        if not 0 <= self.n <= 63:
            raise ValueError("ambient dimension must be in 0..63")
        if self.grade < 0:
            raise ValueError("grade must be nonnegative")
        for mask, val in self.coords.items():
            if mask >> self.n or mask.bit_count() != self.grade:
                raise ValueError(f"key {mask:#x} is not a {self.grade}-subset of [{self.n}]")
            _canonical(self.field, val)
            if val == 0:
                raise ValueError("coords must omit zero values")

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExtVector):
            return NotImplemented
        return (
            self.n == other.n
            and self.grade == other.grade
            and self.field == other.field
            and dict(self.coords) == dict(other.coords)
        )


def _check_compatible(u: ExtVector, v: ExtVector) -> None:
    if u.n != v.n:
        raise ValueError(f"ambient dimension mismatch: {u.n} vs {v.n}")
    if u.field != v.field:
        raise ValueError(f"field mismatch: {u.field} vs {v.field}")


def wedge(u: ExtVector, v: ExtVector) -> ExtVector:
    """Wedge product; bilinear, associative, and commutative (characteristic 2)."""
    _check_compatible(u, v)
    f = Arith.of(u.field)
    out: dict[int, int] = {}
    for i_mask, a in u.coords.items():
        for j_mask, b in v.coords.items():
            if i_mask & j_mask:
                continue
            k_mask = i_mask | j_mask
            prev = out.get(k_mask, 0)
            acc = f.add(prev, f.mul(a, b))
            if acc:
                out[k_mask] = acc
            elif k_mask in out:
                del out[k_mask]
    return ExtVector(n=u.n, grade=u.grade + v.grade, field=u.field, coords=out)


def add_ext(u: ExtVector, v: ExtVector) -> ExtVector:
    _check_compatible(u, v)
    if u.grade != v.grade:
        raise ValueError(f"grade mismatch: {u.grade} vs {v.grade}")
    f = Arith.of(u.field)
    out = dict(u.coords)
    for mask, b in v.coords.items():
        acc = f.add(out.get(mask, 0), b)
        if acc:
            out[mask] = acc
        elif mask in out:
            del out[mask]
    return ExtVector(n=u.n, grade=u.grade, field=u.field, coords=out)


def scalar_mul_ext(c: int, u: ExtVector) -> ExtVector:
    f = u.field
    _canonical(f, c)
    if c == 0:
        return ExtVector(n=u.n, grade=u.grade, field=f, coords={})
    mul = Arith.of(f).mul
    return ExtVector(n=u.n, grade=u.grade, field=f, coords={m: mul(c, v) for m, v in u.coords.items()})


def ext_basis_vector(n: int, mask: int, field: FieldDescriptor) -> ExtVector:
    """e_I for the subset given as a mask."""
    return ExtVector(n=n, grade=mask.bit_count(), field=field, coords={mask: 1})


def grade1_vector(vec: Sequence[int], field: FieldDescriptor) -> ExtVector:
    n = len(vec)
    coords = {1 << i: _canonical(field, v) for i, v in enumerate(vec) if v}
    return ExtVector(n=n, grade=1, field=field, coords=coords)


def wedge_of_vectors(vs: Sequence[Sequence[int]], field: FieldDescriptor) -> ExtVector:
    """Iterated wedge of grade-1 vectors; zero iff they are linearly dependent.

    The coordinate at an r-subset I equals the r x r minor of the stacked
    matrix on columns I (sign-free in characteristic 2).
    """
    _require_char2(field)
    if not vs:
        raise ValueError("need at least one vector")
    n = len(vs[0])
    if any(len(v) != n for v in vs):
        raise ValueError("vectors must share a common length")
    if len(vs) > n:
        raise ValueError(f"cannot wedge {len(vs)} vectors in dimension {n}")
    acc = grade1_vector(vs[0], field)
    for v in vs[1:]:
        acc = wedge(acc, grade1_vector(v, field))
    return acc


def top_coefficient(w: ExtVector) -> int:
    """The scalar identifying a top-grade element with a multiple of e_1^...^e_n."""
    if w.grade != w.n:
        raise ValueError(f"top coefficient needs grade {w.n}, got grade {w.grade}")
    return w.coords.get((1 << w.n) - 1, 0)


def moment_curve_vectors(m: int, n: int, field: FieldDescriptor) -> list[tuple[int, ...]]:
    """m moment-curve vectors (1, t, ..., t^(n-1)) in general position.

    Parameter j is the (j+1)-st nonzero field element in increasing
    representative order; distinct parameters make every n-subset a Vandermonde
    system, hence independent.
    """
    _require_char2(field)
    if m < 0 or n < 1:
        raise ValueError("need m >= 0 and n >= 1")
    if m >= field.order:
        raise ValueError(f"{field} has fewer than {m} nonzero elements")
    f, out = Arith.of(field), []
    for j in range(1, m + 1):
        t = j
        row = [1]
        for _ in range(n - 1):
            row.append(f.mul(row[-1], t))
        out.append(tuple(row))
    return out


def _rank_generic(rows: list[list[int]], field: FieldDescriptor) -> int:
    nrows, field = len(rows), Arith.of(field)
    if nrows == 0:
        return 0
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        piv = next((r for r in range(rank, nrows) if rows[r][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, v) for v in rows[rank]]
        for r in range(rank + 1, nrows):
            f = rows[r][col]
            if f:
                rows[r] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank
