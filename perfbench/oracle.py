"""Independent arithmetic and checks used to build and judge benchmark inputs.

Nothing here imports flatrank.  Expected results come from how an input was
constructed or from the small checks below, so a change to the program can
never change what the benchmark expects of it.
"""

from __future__ import annotations

import hashlib
import json
import math
from itertools import combinations, permutations, product

import numpy as np

# Reduction polynomials of the binary fields the inputs use.  A document names
# GF(2^k) only by k, so its entries mean these residues.
BINARY_MODULUS = {2: 0x7, 8: 0x11B}


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Field:
    """GF(p) or GF(2^k) with vectorised multiplication over int64 arrays."""

    def __init__(self, kind: str, size: int):
        self.kind = kind
        if kind == "prime":
            self.p = size
            self.order = size
            self.doc = {"kind": "prime", "p": size}
        else:
            self.k = size
            self.order = 1 << size
            self.doc = {"kind": "binary", "k": size}
            self._exp, self._log = _log_tables(size, BINARY_MODULUS[size])

    @classmethod
    def parse(cls, spec: str) -> "Field":
        if spec == "gf2":
            return cls("prime", 2)
        kind, size = spec.split(":")
        return cls(kind, int(size))

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        if self.kind == "prime":
            return (a * b) % self.p
        m = self.order - 1
        out = self._exp[(self._log[a] + self._log[b]) % m]
        return np.where((a == 0) | (b == 0), 0, out)

    def add(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return (a + b) % self.p if self.kind == "prime" else a ^ b


def _log_tables(k: int, modulus: int) -> tuple[np.ndarray, np.ndarray]:
    """exp/log tables of GF(2^k) from the first generator of the unit group."""
    order = 1 << k

    def mul(a: int, b: int) -> int:
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a & order:
                a ^= modulus
        return r

    for g in range(2, order):
        seen, x = set(), 1
        for _ in range(order - 1):
            seen.add(x)
            x = mul(x, g)
        if len(seen) == order - 1:
            break
    exp = np.zeros(order - 1, dtype=np.int64)
    log = np.zeros(order, dtype=np.int64)
    x = 1
    for i in range(order - 1):
        exp[i] = x
        log[x] = i
        x = mul(x, g)
    return exp, log


def rank_mod_p(mat: np.ndarray, p: int) -> int:
    """Rank over GF(p) by row reduction (small matrices)."""
    m = np.array(mat, dtype=np.int64) % p
    rank = 0
    rows, cols = m.shape
    for col in range(cols):
        nz = np.nonzero(m[rank:, col])[0]
        if nz.size == 0:
            continue
        piv = rank + int(nz[0])
        m[[rank, piv]] = m[[piv, rank]]
        m[rank] = (m[rank] * pow(int(m[rank, col]), p - 2, p)) % p
        others = np.nonzero(m[:, col])[0]
        others = others[others != rank]
        m[others] = (m[others] - m[others, col][:, None] * m[rank]) % p
        rank += 1
        if rank == rows:
            break
    return rank


def flattening_ranks_mod_p(arr: np.ndarray, p: int) -> list[int]:
    return [
        rank_mod_p(np.moveaxis(arr, ax, 0).reshape(arr.shape[ax], -1), p)
        for ax in range(arr.ndim)
    ]


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


# ---------------------------------------------------------------- tensors


def full_column_rank_factor(rng, rows: int, r: int, field: Field) -> np.ndarray:
    """rows x r matrix whose r chosen rows form a scaled permutation matrix."""
    u = np.array([[rng.randrange(field.order) for _ in range(r)] for _ in range(rows)], dtype=np.int64)
    pivots = rng.sample(range(rows), r)
    for j, row in enumerate(pivots):
        u[row] = 0
        u[row, j] = 1 + rng.randrange(field.order - 1)
    return u


def rank_r_tensor(rng, dims: tuple[int, ...], r: int, field: Field) -> np.ndarray:
    """Sum of r rank-1 terms whose factor matrices all have full column rank r.

    Each flattening is U_i times a Khatri-Rao product of full-column-rank
    factors, so every flattening rank is exactly r.
    """
    factors = [full_column_rank_factor(rng, a, r, field) for a in dims]
    acc = np.zeros(dims, dtype=np.int64)
    for j in range(r):
        term = factors[0][:, j]
        for u in factors[1:]:
            term = field.mul(term[..., None], u[:, j].reshape((1,) * term.ndim + (-1,)))
        acc = field.add(acc, term)
    return acc


def block_partition_tensor(rng, a: int, d: int, field: Field) -> tuple[np.ndarray, int]:
    """Semi-diagonal tensor constant on the blocks of a random partition.

    The ground set is permuted and cut into ceil(a/(d-1)) blocks of at most
    d-1 elements; each block gets its own nonzero scalar.  Every flattening is
    block diagonal with rank-1 blocks, so every flattening rank equals the
    block count.
    """
    order = list(range(a))
    rng.shuffle(order)
    arr = np.zeros((a,) * d, dtype=np.int64)
    blocks = [order[i : i + d - 1] for i in range(0, a, d - 1)]
    for block in blocks:
        arr[np.ix_(*([block] * d))] = 1 + rng.randrange(field.order - 1)
    return arr, len(blocks)


def partition_entries(a: int, d: int) -> list[int]:
    """The documented partition construction: blocks of d-1 consecutive elements."""
    arr = np.zeros((a,) * d, dtype=np.int64)
    for start in range(0, a, d - 1):
        block = list(range(start, min(start + d - 1, a)))
        arr[np.ix_(*([block] * d))] = 1
    return arr.reshape(-1).tolist()


def axis_constant_entries(a: int, d: int, axis: int) -> list[int]:
    """1 exactly where every coordinate except ``axis`` agrees."""
    return [
        int(len({m for j, m in enumerate(idx) if j != axis}) == 1)
        for idx in product(range(a), repeat=d)
    ]


def semidiagonal_counts(a: int, d: int) -> tuple[int, int, int]:
    """(diagonal, all-distinct, mixed) index counts of A^d."""
    distinct = math.perm(a, d)
    return a, distinct, a**d - a - distinct


def is_unit_semidiagonal(arr: np.ndarray) -> bool:
    a, d = arr.shape[0], arr.ndim
    if any(arr[(x,) * d] != 1 for x in range(a)):
        return False
    return all(arr[idx] == 0 for idx in permutations(range(a), d))


# ---------------------------------------------------------- set families


def inter(masks) -> int:
    acc = masks[0]
    for m in masks[1:]:
        acc &= m
    return acc


def config_violation(members, cfg, positions) -> bool:
    """True when assigning these member positions to the slots avoids L on every C-set."""
    p, L = cfg["p"], cfg["L"]
    for slots in cfg["C"]:
        size = inter([members[positions[s]] for s in slots]).bit_count()
        if size % p in L:
            return False
    return True


def fw_tensor(members, cfg) -> np.ndarray:
    """|F|^k tensor over GF(p): product over C of h(|intersection| mod p)."""
    p, k = cfg["p"], cfg["k"]
    h = [math.prod(x - r for r in cfg["L"]) % p for x in range(p)]
    m = len(members)
    arr = np.ones((m,) * k, dtype=np.int64)
    for idx in product(range(m), repeat=k):
        v = 1
        for slots in cfg["C"]:
            v = v * h[inter([members[idx[s]] for s in slots]).bit_count() % p] % p
        arr[idx] = v
    return arr


def fw_bounds(cfg, n: int) -> tuple[int, list[int]]:
    """(size bound, per-axis flattening bounds) of a (C, L) configuration."""
    lsize = len(cfg["L"])
    degree = [sum(1 for slots in cfg["C"] if j in slots) for j in range(cfg["k"])]

    def binom_sum(cap: int) -> int:
        return sum(math.comb(n, s) for s in range(min(cap, n) + 1))

    size_bound = (cfg["k"] - 1) * binom_sum(max(degree) * lsize)
    return size_bound, [binom_sum(dj * lsize) for dj in degree]


def has_rainbow_matching(colors, t: int) -> bool:
    for chosen in combinations(range(len(colors)), t):
        for picks in product(*(colors[c] for c in chosen)):
            used = 0
            for e in picks:
                if e & used:
                    break
                used |= e
            else:
                return True
    return False


def has_odd_clique(members_factors, k: int) -> bool:
    """k members (by position) whose product sets meet pairwise in odd size."""

    def odd(i: int, j: int) -> bool:
        return all((a & b).bit_count() % 2 for a, b in zip(members_factors[i], members_factors[j]))

    m = len(members_factors)
    adj = [[odd(i, j) for j in range(m)] for i in range(m)]
    return any(
        all(adj[i][j] for i, j in combinations(group, 2)) for group in combinations(range(m), k)
    )


# ------------------------------------------------------------- witnesses


def _is_pairwise_disjoint(masks) -> bool:
    used = 0
    for m in masks:
        if m & used:
            return False
        used |= m
    return True


def check_witness(spec: dict, results: dict) -> str | None:
    """None when the report's witness really breaks the hypothesis, else why not."""
    kind = spec["kind"]
    if kind == "rainbow":
        pairs = results.get("rainbow_matching")
        if not isinstance(pairs, list) or len(pairs) != spec["t"]:
            return "no rainbow matching of size t reported"
        colors = {c for c, _ in pairs}
        edges = [spec["colors"][c][e] for c, e in pairs]
        if len(colors) != len(pairs) or not _is_pairwise_disjoint(edges):
            return f"reported matching {pairs} is not rainbow"
        return None
    if kind == "fw":
        pos = results.get("witness")
        members, cfg = spec["members"], spec["config"]
        if not isinstance(pos, list) or len(pos) != cfg["k"]:
            return "no k-member witness reported"
        if len({members[i] for i in pos}) != len(pos):
            return f"witness {pos} repeats a member set"
        if not config_violation(members, cfg, pos):
            return f"witness {pos} does not avoid L on every C-set"
        return None
    if kind == "bollobas":
        pos = results.get("violating_assignment")
        members = spec["members"]
        if not isinstance(pos, list) or len(set(pos)) != len(members[0]) or len(pos) != len(members[0]):
            return "no assignment of distinct members reported"
        if not _is_pairwise_disjoint([members[p][slot] for slot, p in enumerate(pos)]):
            return f"assignment {pos} is not pairwise disjoint"
        return None
    if kind == "exhaustive":
        return _check_exhaustive_witnesses(results)
    raise ValueError(f"unknown witness kind {kind!r}")


def _check_exhaustive_witnesses(results: dict) -> str | None:
    wit = {w.get("kind"): w for w in results.get("witnesses", [])}
    targets = {"min_mfrank": (max, "min_mfrank"), "min_sum_franks": (sum, "min_sum_franks")}
    for label, (reduce, key) in targets.items():
        w = wit.get(label)
        if w is None:
            return f"missing {label} witness"
        arr = np.asarray(w["tensor"]["entries"], dtype=np.int64).reshape(w["tensor"]["dims"])
        if not is_unit_semidiagonal(arr):
            return f"{label} witness is not a unit-diagonal semi-diagonal tensor"
        franks = flattening_ranks_mod_p(arr, 2)
        if franks != w["franks"] or reduce(franks) != results[key]:
            return f"{label} witness ranks {franks} disagree with the report"
    return None
