"""Forbidden-intersection configurations modulo a prime.

A configuration of order k is a family C of nonempty subsets of the slot set
[k] together with a residue set L mod p.  A family of subsets of [n] is
(C, L)-satisfying when every member's size avoids L (as a residue) but no k
distinct members can be assigned to slots so that every C-indexed intersection
size also avoids L.  The associated k-dimensional tensor over GF(p) multiplies
h(|intersection|) over the members of C, with h the monic polynomial whose
root set is L; for satisfying families it is semi-diagonal, which pins the
family size below (k-1) * sum_{s <= Delta(C)*|L|} C(n, s).
:func:`verify_fw_chain` runs that chain for one family.

Also hosts the randomized product-family sampler: families of products of
odd-sized subsets of [t], resampled until no k members have pairwise odd
intersections, which certifies the complete-graph configuration mod 2; and
:func:`verify_badbox_chain`, which checks such a family both ways.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from itertools import chain, combinations, repeat

import numpy as np

from . import caps
from .field import FieldDescriptor, make_prime_field
from .rng import Rng
from .setfam import SetFamily, _checked_limbs, _intersection_sizes
from .linalg import entry_dtype
from .tensor import Tensor, _bounded_search, _frozen, flattening_ranks, is_semi_diagonal, semi_diagonal_faults

__all__ = [
    "Configuration",
    "config_degree",
    "config_max_degree",
    "is_config_satisfying",
    "find_config_witness",
    "fw_tensor",
    "fw_flattening_bound",
    "fw_size_bound",
    "complete_graph_config",
    "verify_fw_chain",
    "BadBoxFamily",
    "find_odd_clique",
    "verify_badbox_chain",
    "sample_badbox_family",
    "SamplerExhausted",
]

# member pairs in one block of the odd-intersection adjacency: 256 KB of uint64 ANDs
_ADJACENCY_ENTRIES = 1 << 15


@dataclass(frozen=True)
class Configuration:
    """(C, L) pair: slot subsets as bit-masks over [k], residues mod p."""

    k: int
    p: int
    C: tuple[int, ...]
    L: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("order k must be positive")
        make_prime_field(self.p)  # validates primality and range
        for x in self.C:
            if not isinstance(x, int) or x <= 0 or x >> self.k:
                raise ValueError(f"slot subset {x!r} must be a nonempty mask over [{self.k}]")
        if len(set(self.L)) != len(self.L) or any(not 0 <= r < self.p for r in self.L):
            raise ValueError(f"L must be distinct residues mod {self.p}")

    @property
    def field(self) -> FieldDescriptor:
        return make_prime_field(self.p)


def config_degree(cfg: Configuration, a: int) -> int:
    """Number of members of C containing slot ``a`` (0-based)."""
    if not 0 <= a < cfg.k:
        raise IndexError(f"slot {a} out of range for order {cfg.k}")
    bit = 1 << a
    return sum(1 for x in cfg.C if x & bit)


def config_max_degree(cfg: Configuration) -> int:
    return max(config_degree(cfg, a) for a in range(cfg.k))


def _h_table_np(cfg: Configuration, top: int) -> np.ndarray:
    """h(x) = prod_{l in L} (x - l) mod p, zero exactly on L, at the sizes 0..top, indexed by size mod p.

    No member size or intersection size passes the largest member's, so the
    table holds at most that many entries plus one, not one per residue: p
    may be close to 2^31.
    """
    sizes = np.arange(min(top + 1, cfg.p), dtype=np.int64)
    h = np.ones_like(sizes)
    for root in cfg.L:  # each factor and product below p^2 < 2^62
        h = h * ((sizes - root) % cfg.p) % cfg.p
    return h


def _largest_size(limbs: np.ndarray) -> int:
    """The size of the largest member, from the (m, w) limbs of the members."""
    return int(np.bitwise_count(limbs).sum(axis=1).max(initial=0))


def _grid_sizes(limbs: np.ndarray, cfg: Configuration, x: int) -> np.ndarray:
    """Intersection sizes of the slot subset ``x``, broadcastable over F^k."""
    return _intersection_sizes([limbs if (x >> s) & 1 else None for s in range(cfg.k)])


def _h_grid(limbs: np.ndarray, cfg: Configuration) -> np.ndarray:
    """The product over C of h(intersection size) mod p, on k axes of the members of ``limbs``.

    This is the chain's one grid.  It is the fw tensor's entries, and, p
    being prime, a cell is nonzero exactly when every C-indexed intersection
    of its members avoids L.  Its m^k cells are checked against the dense
    cap before anything is allocated.  It is built in the narrowest unsigned
    dtype that holds (p-1)^2, and reduced mod p only when the next product
    could overflow it, and at the end: over GF(2) never.  It is returned
    read-only, in the field's entry dtype, so a Tensor keeps it uncopied.
    """
    shape = caps.grid_shape(len(limbs), cfg.k)
    dtype = np.min_scalar_type((cfg.p - 1) ** 2)
    if not cfg.C:
        return _frozen(np.ones(shape, dtype=entry_dtype(cfg.field)))
    top = _largest_size(limbs)
    residues = _h_table_np(cfg, top).tolist()
    h = np.array([residues[x % cfg.p] for x in range(top + 1)], dtype=dtype)  # at every size
    grid = np.empty(shape, dtype=dtype)
    np.copyto(grid, h[_grid_sizes(limbs, cfg, cfg.C[0])])
    bound, limit = cfg.p - 1, (1 << 8 * dtype.itemsize) - 1  # bound: on the grid's entries
    for x in cfg.C[1:]:
        if bound * (cfg.p - 1) > limit:
            np.remainder(grid, cfg.p, out=grid)
            bound = cfg.p - 1
        grid *= h[_grid_sizes(limbs, cfg, x)]
        bound *= cfg.p - 1
    if bound >= cfg.p:
        np.remainder(grid, cfg.p, out=grid)
    return _frozen(grid.astype(entry_dtype(cfg.field), copy=False))


def fw_tensor(fam: SetFamily, cfg: Configuration, grid: np.ndarray) -> Tensor:
    """|F|^k tensor over GF(p): product over C of h(intersection size mod p).

    ``grid`` is the nonempty family's :func:`_h_grid` over every member; the
    tensor keeps it uncopied.
    """
    return Tensor.from_array(grid, cfg.field)


def _size_violations(fam: SetFamily, cfg: Configuration) -> list[int]:
    """Positions of the members whose sizes fall in L (mod p)."""
    sizes = [mask.bit_count() for mask in fam.members]
    h = _h_table_np(cfg, max(sizes, default=0))
    return [pos for pos, size in enumerate(sizes) if h[size % cfg.p] == 0]


def _witness_positions(fam: SetFamily, distinct: str) -> list[int]:
    """The member positions a witness is drawn from, ascending.

    With ``distinct="sets"`` members equal as sets are identified, and each
    set is represented by its first position; with ``distinct="positions"``
    every position counts.
    """
    if distinct not in ("sets", "positions"):
        raise ValueError("distinct must be 'sets' or 'positions'")
    if distinct == "positions":
        return list(range(len(fam.members)))
    seen: dict[int, int] = {}
    for pos, mask in enumerate(fam.members):
        seen.setdefault(mask, pos)
    return list(seen.values())


def _first_violation(grid: np.ndarray, positions: list[int]) -> tuple[int, ...] | None:
    """Member positions per slot of the first violating cell of ``grid`` in C order, or None.

    ``grid`` is :func:`_h_grid` over the members at ``positions``.  A cell
    violates when it is nonzero and its indices are pairwise distinct.  For a
    slot-symmetric C the grid is symmetric, so that first cell is the sorted
    one of its orderings.
    """
    _, cell = semi_diagonal_faults(grid)
    return None if cell is None else tuple(positions[i] for i in cell)


def find_config_witness(
    fam: SetFamily, cfg: Configuration, distinct: str = "sets"
) -> tuple[int, ...] | None:
    """A slot assignment of k distinct members violating the forbidden pattern.

    Returns member positions (into ``fam.members``) per slot, or None.  With
    ``distinct="sets"`` members equal as sets are identified; with
    ``distinct="positions"`` repeated members count separately.
    """
    positions = _witness_positions(fam, distinct)
    if len(positions) < cfg.k:
        return None
    grid = _h_grid(fam.limbs[positions, 0], cfg)
    return _first_violation(grid, positions)


def is_config_satisfying(fam: SetFamily, cfg: Configuration, distinct: str = "sets") -> bool:
    """Sizes avoid L, and no k distinct members realize the forbidden pattern."""
    if _size_violations(fam, cfg):
        return False
    return find_config_witness(fam, cfg, distinct=distinct) is None


def verify_fw_chain(fam: SetFamily, cfg: Configuration, distinct: str = "sets") -> dict:
    """Full (C, L) chain for one family: hypothesis, tensor, rank caps, size bound.

    A family that is not (C, L)-satisfying ends the chain: its report lists
    the positions of members whose sizes fall in L and a ``witness``, the
    member positions per slot of :func:`find_config_witness` (None when only
    sizes fail), and has no ``verified`` key.  The chain builds one
    :func:`_h_grid`, over the members a witness is drawn from, and reads
    the witness off it; a satisfying family's tensor is that grid, with
    each repeated set's cells copied from its first position.  A family
    that fails only by sizes builds no grid unless it could hold a witness.
    """
    positions = _witness_positions(fam, distinct)
    size_violations = _size_violations(fam, cfg)
    report: dict = {
        "size": len(fam.members),
        "k": cfg.k,
        "p": cfg.p,
        "size_bound": fw_size_bound(cfg, fam.n),
        "flattening_bounds": [fw_flattening_bound(cfg, fam.n, j) for j in range(cfg.k)],
    }
    witness = grid = None
    if len(positions) >= cfg.k or (fam.members and not size_violations):
        grid = _h_grid(fam.limbs[positions, 0], cfg)
        witness = _first_violation(grid, positions)
    report["satisfying"] = witness is None and not size_violations
    if not report["satisfying"]:
        report["size_violations"] = size_violations
        report["witness"] = list(witness) if witness else None
        return report
    if not fam.members:
        report["verified"] = True
        return report
    if len(positions) < len(fam.members):  # repeated sets: each member reads its set's cells
        slot = {fam.members[p]: j for j, p in enumerate(positions)}
        index = np.array([slot[mask] for mask in fam.members])
        caps.grid_shape(len(index), cfg.k)  # raises over the dense cap, before the copy
        grid = _frozen(grid[np.ix_(*[index] * cfg.k)])
    t = fw_tensor(fam, cfg, grid)
    franks = flattening_ranks(t)
    report.update(
        {
            "semi_diagonal": is_semi_diagonal(t),
            "franks": franks,
            "franks_within_bounds": all(
                fr <= b for fr, b in zip(franks, report["flattening_bounds"])
            ),
            "size_bound_ok": len(fam.members) <= report["size_bound"],
        }
    )
    report["verified"] = (
        report["semi_diagonal"] and report["franks_within_bounds"] and report["size_bound_ok"]
    )
    return report


def fw_flattening_bound(cfg: Configuration, n: int, j: int) -> int:
    """Axis-j rank cap: sum of C(n, s) for s up to deg_C(j) * |L|."""
    d_j = config_degree(cfg, j) * len(cfg.L)
    return sum(math.comb(n, s) for s in range(min(d_j, n) + 1))


def fw_size_bound(cfg: Configuration, n: int) -> int:
    """(k-1) * sum_{s <= Delta(C)|L|} C(n, s)."""
    cap = config_max_degree(cfg) * len(cfg.L)
    return (cfg.k - 1) * sum(math.comb(n, s) for s in range(min(cap, n) + 1))


def complete_graph_config(k: int) -> Configuration:
    pairs = tuple((1 << i) | (1 << j) for i, j in combinations(range(k), 2))
    return Configuration(k=k, p=2, C=pairs, L=(0,))


def _odd_subset(i: int) -> int:
    """The odd-sized subset of rank i in ascending mask order, as a mask.

    It is the same subset of [t] for every t with i < 2^(t-1), and no list of
    the 2^(t-1) odd subsets is built.  Of the masks 2i and 2i + 1 exactly one
    has odd size, and every pair below them holds one odd mask too.
    """
    return 2 * i + 1 - i.bit_count() % 2


@dataclass(frozen=True)
class BadBoxFamily:
    """Random product family over [t]^s with its factorization kept."""

    t: int
    s: int
    k: int
    members_factors: tuple[tuple[int, ...], ...]
    attempts: int
    seed: int
    limbs: np.ndarray = dc_field(init=False, compare=False, repr=False)  # (m, s, w), of the factors

    def __post_init__(self) -> None:
        d = len(self.members_factors[0]) if self.members_factors else self.s  # the reader checks s
        _checked_limbs(self, self.members_factors, d, self.t)

    @property
    def ground_size(self) -> int:
        return self.t**self.s

    def flat_masks(self) -> tuple[int, ...]:
        """Members as subsets of [t^s]; cell (x_1..x_s) gets index sum x_i * t^(s-1-i).

        A mask is built from the last factor to the first.  The cells of the
        factors after j form a block of t^(s-1-j) bits, and factor j places one
        copy of that block at each of its elements e, shifted by e * t^(s-1-j),
        so the work is linear in t^s.
        """
        out = []
        for factors in self.members_factors:
            block, width = 1, 1
            for f in reversed(factors):
                # the copies do not overlap, so their sum is their union
                block = sum(block << e * width for e in range(self.t) if f >> e & 1)
                width *= self.t
            out.append(block)
        return tuple(out)

    def flat_family(self) -> SetFamily:
        return SetFamily(n=self.ground_size, members=self.flat_masks())


def _odd_adjacency(limbs: np.ndarray) -> list[int]:
    """Row i: bit j set when members i != j meet in an odd-sized set, as an int.

    ``limbs`` are a :class:`BadBoxFamily`'s.  Sizes of product sets multiply across factors, so a
    pair is "odd" exactly when the popcount of the XOR of the limbs' ANDs of every factor is odd.
    The parities are ANDed in blocks of at most :data:`_ADJACENCY_ENTRIES` pairs, then packed.
    """
    m, s, _ = limbs.shape
    step, width = max(1, _ADJACENCY_ENTRIES // m), -(-m // 8)
    adj: list[int] = []
    for i in range(0, m, step):
        rows = limbs[i : i + step, None]
        odd = np.ones((rows.shape[0], m), dtype=np.uint8)
        for f in range(s):
            meet = rows[:, :, f, 0] & limbs[:, f, 0]
            for limb in range(1, limbs.shape[2]):
                meet ^= rows[:, :, f, limb] & limbs[:, f, limb]
            odd &= np.bitwise_count(meet)
        diagonal = np.arange(odd.shape[0])
        odd[diagonal, diagonal + i] = 0
        data = np.packbits(odd, axis=1, bitorder="little").tobytes()
        adj += [int.from_bytes(data[j : j + width], "little") for j in range(0, len(data), width)]
    return adj


def find_odd_clique(fam: BadBoxFamily, k: int) -> tuple[int, ...] | None:
    """Positions of k members of ``fam`` with pairwise odd-sized intersections, or None.

    A depth-first search over :func:`_odd_adjacency`, in ascending positions,
    that prunes a branch when too few common neighbours are left.  Its nodes
    are (allowed members, lowest position left), searched by
    :func:`flatrank.tensor._bounded_search`, which refuses (ValueError) a
    search past :data:`flatrank.caps.MAX_SEARCH_NODES` nodes.
    """
    m = len(fam.members_factors)
    if m < k:
        return None
    if k == 1:  # no pair to check: m^2 bits would outgrow the chain's m-cell grid
        return (0,)
    adj = _odd_adjacency(fam.limbs)

    def children(node: tuple[int, int], level: int):
        """(j, (allowed & adj[j], j + 1)) for the j >= floor in ``allowed`` with enough common neighbours."""
        allowed, floor = node
        avail = allowed & (~0 << floor)
        while avail:
            low = avail & -avail
            j = low.bit_length() - 1
            avail ^= low
            common = allowed & adj[j]
            if common.bit_count() >= k - level - 1:
                yield j, (common, j + 1)

    clique = _bounded_search(((1 << m) - 1, 0), children, k, f"odd-clique search of order {k}")
    return None if clique is None else tuple(clique)


def verify_badbox_chain(fam: BadBoxFamily, k: int) -> dict:
    """Bad-box chain for one family: no k-clique of pairwise odd members, both ways.

    The clique search runs on the factors; independently, the flat family must
    satisfy the complete-graph configuration of order k mod 2 (by positions).
    The m * t^s cells of the flat masks are refused over the dense cap before
    any is built; fewer than k members build no configuration.  A failing
    report's ``witness`` is the k member positions that the chain's one
    clique search found.  Members are products of odd-sized factors
    (``badbox_from_document`` refuses others), so every member has odd size,
    and the two checks fail together: a failure always has a witness.  Only
    a family built in code with an even-sized factor can fail with
    ``witness`` None.
    """
    if k < 1:
        raise ValueError(f"bad-box clique order k must be >= 1, got {k}")
    m = len(fam.members_factors)
    if m:
        caps.admit(chain((m,), repeat(fam.t, fam.s)), f"{m} bad-box members over [{fam.t}]^{fam.s}")
    if m < k:  # no k members to assign: only a size can fail, odd if every factor is
        satisfying = all(f.bit_count() % 2 for factors in fam.members_factors for f in factors)
    else:  # first, so that an m^k grid over the cap is refused before the clique search
        satisfying = is_config_satisfying(fam.flat_family(), complete_graph_config(k), "positions")
    clique = find_odd_clique(fam, k)
    free = clique is None
    report = {
        "t": fam.t,
        "s": fam.s,
        "k": k,
        "size": m,
        "badbox_free": free,
        "config_satisfying": satisfying,
        "verified": free and satisfying,
    }
    if not report["verified"]:
        report["witness"] = None if free else list(clique)
    return report


class SamplerExhausted(RuntimeError):
    def __init__(self, attempts: int):
        super().__init__(f"bad-box sampler failed {attempts} attempts")
        self.attempts = attempts


def badbox_target_size(t: int, s: int) -> int:
    """ceil(2^((t-1)s/4)), computed exactly in integers."""
    power = 1 << (t - 1) * s
    root = math.isqrt(math.isqrt(power))  # floor of the fourth root
    return root + (root**4 < power)


def badbox_clique_order(t: int) -> int:
    return (1 << (t + 1)) // (t - 1)


def sample_badbox_family(t: int, s: int, seed: int, max_attempts: int = 1000) -> BadBoxFamily:
    """Sample ceil(2^((t-1)s/4)) product sets of odd factors until bad-box-free.

    Attempt i uses the derived stream ``Rng(Rng.sub_seed(seed, i))``.  Raises
    :class:`SamplerExhausted` when the budget runs out (the union-bound
    guarantee is not strict, so failures are possible in principle).
    """
    if t < 2 or s < 1:
        raise ValueError("need t >= 2 and s >= 1")
    if max_attempts < 1:
        raise ValueError(f"need max_attempts >= 1, got {max_attempts}")
    caps.admit(repeat(t, s), f"bad-box ground set {t}^{s}", caps.MAX_BADBOX_GROUND)
    odd = 1 << (t - 1)  # odd-sized subsets of [t], drawn by their rank in mask order
    size = badbox_target_size(t, s)
    k = badbox_clique_order(t)
    for attempt in range(max_attempts):
        rng = Rng(Rng.sub_seed(seed, attempt))
        members = tuple(
            tuple(_odd_subset(rng.next_below(odd)) for _ in range(s)) for _ in range(size)
        )
        fam = BadBoxFamily(t=t, s=s, k=k, members_factors=members, attempts=attempt + 1, seed=seed)
        if find_odd_clique(fam, k) is None:
            return fam
    raise SamplerExhausted(max_attempts)
