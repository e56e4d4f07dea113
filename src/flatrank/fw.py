"""Forbidden-intersection configurations modulo a prime.

A configuration of order k is a family C of nonempty subsets of the slot set
[k] together with a residue set L mod p.  A family of subsets of [n] is
(C, L)-satisfying when every member's size avoids L (as a residue) but no k
distinct members can be assigned to slots so that every C-indexed intersection
size also avoids L.  The associated k-dimensional tensor over GF(p) multiplies
h(|intersection|) over the members of C, with h the monic polynomial whose
root set is L; for satisfying families it is semi-diagonal, which pins the
family size below (k-1) * sum_{s <= Delta(C)*|L|} C(n, s).

Also hosts the randomized product-family sampler: families of products of
odd-sized subsets of [t], resampled until no k members have pairwise odd
intersections, which certifies the complete-graph configuration mod 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .field import FieldDescriptor, make_prime_field
from .rng import Rng
from .setfam import (
    SetFamily,
    _distinct_tuple_mask,
    _grid_shape,
    _intersection_sizes,
    _mask_limbs,
)
from .tensor import Tensor

__all__ = [
    "Configuration",
    "IntersectionPolynomial",
    "config_degree",
    "config_max_degree",
    "eval_h",
    "is_config_satisfying",
    "find_config_witness",
    "fw_tensor",
    "fw_flattening_bound",
    "fw_size_bound",
    "complete_graph_config",
    "odd_subsets",
    "max_odd_pairwise_odd_family",
    "BadBoxFamily",
    "verify_badbox_free",
    "sample_badbox_family",
    "SamplerExhausted",
    "grow_config_satisfying_family",
]

MAX_BADBOX_GROUND = 25


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

    def slots_of(self, x: int) -> tuple[int, ...]:
        return tuple(i for i in range(self.k) if (x >> i) & 1)

    def is_slot_symmetric(self) -> bool:
        """True when C is invariant under every permutation of the slots."""
        cset = set(self.C)
        for i in range(self.k - 1):
            swapped = set()
            for x in cset:
                bi, bj = (x >> i) & 1, (x >> (i + 1)) & 1
                y = x & ~((1 << i) | (1 << (i + 1)))
                y |= bi << (i + 1) | bj << i
                swapped.add(y)
            if swapped != cset:
                return False
        return True


@dataclass(frozen=True)
class IntersectionPolynomial:
    """h(x) = prod_{l in L} (x - l) over GF(p); zero exactly on L."""

    p: int
    L: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.L)

    def table(self) -> list[int]:
        return [eval_h(self, x) for x in range(self.p)]


def eval_h(poly: IntersectionPolynomial, x: int) -> int:
    acc = 1
    for root in poly.L:
        acc = (acc * (x - root)) % poly.p
    return acc % poly.p


def config_degree(cfg: Configuration, a: int) -> int:
    """Number of members of C containing slot ``a`` (0-based)."""
    if not 0 <= a < cfg.k:
        raise IndexError(f"slot {a} out of range for order {cfg.k}")
    bit = 1 << a
    return sum(1 for x in cfg.C if x & bit)


def config_max_degree(cfg: Configuration) -> int:
    return max(config_degree(cfg, a) for a in range(cfg.k))


def _h_table_np(cfg: Configuration) -> np.ndarray:
    poly = IntersectionPolynomial(p=cfg.p, L=cfg.L)
    return np.asarray(poly.table(), dtype=np.int64)


def _grid_sizes(limbs: np.ndarray, cfg: Configuration, x: int) -> np.ndarray:
    """Intersection sizes of the slot subset ``x``, broadcastable over F^k."""
    return _intersection_sizes([limbs if (x >> s) & 1 else None for s in range(cfg.k)])


def fw_tensor(fam: SetFamily, cfg: Configuration) -> Tensor:
    """|F|^k tensor over GF(p): product over C of h(intersection size mod p)."""
    m = len(fam.members)
    if m < 1:
        raise ValueError("fw_tensor needs a nonempty family")
    limbs = _mask_limbs(fam.members)
    h = _h_table_np(cfg)
    grid = np.ones(_grid_shape(m, cfg.k), dtype=np.int64)
    for x in cfg.C:
        sizes = _grid_sizes(limbs, cfg, x)
        grid = (grid * h[sizes % cfg.p]) % cfg.p
    return Tensor.from_array(grid, cfg.field)


def _violation_grid(limbs: np.ndarray, cfg: Configuration) -> np.ndarray:
    """Grid of assignments where every C-indexed intersection avoids L."""
    h = _h_table_np(cfg)
    ok = np.ones(_grid_shape(limbs.shape[0], cfg.k), dtype=bool)
    for x in cfg.C:
        sizes = _grid_sizes(limbs, cfg, x)
        ok &= h[sizes % cfg.p] != 0
    return ok


def _size_condition(fam: SetFamily, cfg: Configuration) -> bool:
    poly = IntersectionPolynomial(p=cfg.p, L=cfg.L)
    return all(eval_h(poly, mask.bit_count() % cfg.p) != 0 for mask in fam.members)


def find_config_witness(
    fam: SetFamily, cfg: Configuration, distinct: str = "sets"
) -> tuple[int, ...] | None:
    """A slot assignment of k distinct members violating the forbidden pattern.

    Returns member positions (into ``fam.members``) per slot, or None.  With
    ``distinct="sets"`` members equal as sets are identified; with
    ``distinct="positions"`` repeated members count separately.
    """
    if distinct not in ("sets", "positions"):
        raise ValueError("distinct must be 'sets' or 'positions'")
    if distinct == "sets":
        seen: dict[int, int] = {}
        for pos, mask in enumerate(fam.members):
            seen.setdefault(mask, pos)
        positions = list(seen.values())
    else:
        positions = list(range(len(fam.members)))
    if len(positions) < cfg.k:
        return None
    limbs = _mask_limbs([fam.members[p] for p in positions])
    # a slot-symmetric C cannot distinguish orderings, so one sorted
    # representative per unordered tuple suffices
    tuple_mask = _distinct_tuple_mask(len(positions), cfg.k, sorted_only=cfg.is_slot_symmetric())
    ok = _violation_grid(limbs, cfg) & tuple_mask
    hits = np.argwhere(ok)
    if hits.size == 0:
        return None
    first = hits[0]
    return tuple(positions[int(i)] for i in first)


def is_config_satisfying(fam: SetFamily, cfg: Configuration, distinct: str = "sets") -> bool:
    """Sizes avoid L, and no k distinct members realize the forbidden pattern."""
    if not _size_condition(fam, cfg):
        return False
    return find_config_witness(fam, cfg, distinct=distinct) is None


def fw_flattening_bound(cfg: Configuration, n: int, j: int) -> int:
    """Axis-j rank cap: sum of C(n, s) for s up to deg_C(j) * |L|."""
    d_j = config_degree(cfg, j) * len(cfg.L)
    return sum(math.comb(n, s) for s in range(min(d_j, n) + 1))


def fw_size_bound(cfg: Configuration, n: int) -> int:
    """(k-1) * sum_{s <= Delta(C)|L|} C(n, s)."""
    cap = config_max_degree(cfg) * len(cfg.L)
    return (cfg.k - 1) * sum(math.comb(n, s) for s in range(min(cap, n) + 1))


def complete_graph_config(k: int, p: int = 2, L: Sequence[int] = (0,)) -> Configuration:
    pairs = tuple((1 << i) | (1 << j) for i, j in combinations(range(k), 2))
    return Configuration(k=k, p=p, C=pairs, L=tuple(L))


def odd_subsets(t: int) -> list[int]:
    """All odd-sized subsets of [t], ascending as masks; there are 2^(t-1)."""
    return [m for m in range(1 << t) if m.bit_count() % 2 == 1]


def max_odd_pairwise_odd_family(t: int) -> int:
    """Largest family of odd subsets of [t] with all pairwise intersections odd.

    Exhaustive max-clique over the 2^(t-1) candidates; the classical parity
    argument caps this at 2^((t-1)/2).
    """
    cands = odd_subsets(t)
    nc = len(cands)
    adj = []
    for i in range(nc):
        row = 0
        for j in range(nc):
            if j != i and (cands[i] & cands[j]).bit_count() % 2 == 1:
                row |= 1 << j
        adj.append(row)

    best = 0

    def grow(size: int, allowed: int, floor: int) -> None:
        nonlocal best
        best = max(best, size)
        avail = allowed >> floor
        base = floor
        while avail:
            low = avail & -avail
            j = base + low.bit_length() - 1
            avail >>= low.bit_length()
            base = j + 1
            grow(size + 1, allowed & adj[j], j + 1)

    grow(0, (1 << nc) - 1, 0)
    return best


@dataclass(frozen=True)
class BadBoxFamily:
    """Random product family over [t]^s with its factorization kept."""

    t: int
    s: int
    k: int
    members_factors: tuple[tuple[int, ...], ...]
    attempts: int
    seed: int

    @property
    def ground_size(self) -> int:
        return self.t**self.s

    def flat_masks(self) -> tuple[int, ...]:
        """Members as subsets of [t^s]; cell (x_1..x_s) gets index
        sum x_i * t^(s-1-i)."""
        out = []
        for factors in self.members_factors:
            cells = [0]
            for f in factors:
                elems = [i for i in range(self.t) if (f >> i) & 1]
                cells = [c * self.t + e for c in cells for e in elems]
            mask = 0
            for c in cells:
                mask |= 1 << c
            out.append(mask)
        return tuple(out)

    def flat_family(self) -> SetFamily:
        return SetFamily(n=self.ground_size, members=self.flat_masks())


def verify_badbox_free(members_factors: Sequence[Sequence[int]], k: int) -> bool:
    """No k members (by position) have pairwise odd-sized intersections.

    Intersection sizes of product sets multiply across factors, so a pair is
    "odd" exactly when every factor-wise intersection is odd.
    """
    m = len(members_factors)
    if m < k:
        return True
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

    def clique(size: int, allowed: int, floor: int) -> bool:
        if size == k:
            return True
        avail = allowed & (~0 << floor)
        while avail:
            low = avail & -avail
            j = low.bit_length() - 1
            avail ^= low
            if size + 1 + (allowed & adj[j]).bit_count() >= k and clique(
                size + 1, allowed & adj[j], j + 1
            ):
                return True
        return False

    return not clique(0, (1 << m) - 1, 0)


class SamplerExhausted(RuntimeError):
    def __init__(self, attempts: int):
        super().__init__(f"bad-box sampler failed {attempts} attempts")
        self.attempts = attempts


def badbox_target_size(t: int, s: int) -> int:
    """ceil(2^((t-1)s/4)), computed exactly in integers."""
    q = (t - 1) * s
    whole, rem = divmod(q, 4)
    size = 1 << whole
    if rem:
        while size**4 < (1 << q):
            size += 1
    return size


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
    if t**s > MAX_BADBOX_GROUND:
        raise ValueError(f"ground set t^s = {t ** s} exceeds desk-scale cap {MAX_BADBOX_GROUND}")
    pool = odd_subsets(t)
    size = badbox_target_size(t, s)
    k = badbox_clique_order(t)
    for attempt in range(max_attempts):
        rng = Rng(Rng.sub_seed(seed, attempt))
        members = tuple(
            tuple(pool[rng.next_below(len(pool))] for _ in range(s)) for _ in range(size)
        )
        if verify_badbox_free(members, k):
            return BadBoxFamily(
                t=t, s=s, k=k, members_factors=members, attempts=attempt + 1, seed=seed
            )
    raise SamplerExhausted(max_attempts)


def grow_config_satisfying_family(
    cfg: Configuration, n: int, rng: Rng, candidate_budget: int = 120
) -> SetFamily:
    """Greedy growth: admit random subsets of [n] while (C, L)-satisfaction holds.

    Candidates failing the size condition or duplicating an existing member
    are discarded; a candidate that would complete a forbidden k-assignment is
    rejected.  The result is always satisfying (under set semantics).
    """
    poly = IntersectionPolynomial(p=cfg.p, L=cfg.L)
    members: list[int] = []
    for _ in range(candidate_budget):
        cand = rng.next_below(1 << n)
        if cand in members:
            continue
        if eval_h(poly, cand.bit_count() % cfg.p) == 0:
            continue
        trial = members + [cand]
        if len(trial) >= cfg.k:
            ok = _violation_grid(_mask_limbs(trial), cfg) & _distinct_tuple_mask(len(trial), cfg.k)
            # only assignments using the new member can be newly violating
            uses_new = np.zeros((len(trial),) * cfg.k, dtype=bool)
            for slot in range(cfg.k):
                sl = [slice(None)] * cfg.k
                sl[slot] = len(trial) - 1
                uses_new[tuple(sl)] = True
            if bool((ok & uses_new).any()):
                continue
        members.append(cand)
    return SetFamily(n=n, members=tuple(members))
