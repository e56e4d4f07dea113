"""Seeded input generators for the three benchmark workloads.

``build(workload, seed)`` returns the documents a workload reads and its op
list.  Each op is one ``flatrank`` command line with the exit code and report
fields it must produce.  The seed changes the content of the inputs, never
their sizes or the order of the op list, so every seed asks the same work.  Inputs come from ``random.Random`` seeded by the
workload seed, never from the program's own generator, and every expectation
comes from the construction or from a check in :mod:`oracle`.
"""

from __future__ import annotations

import math
import random
from itertools import combinations, permutations

import numpy as np

import oracle
from oracle import Field, ceil_div

WORKLOADS = ("gf2-sweep", "field-rank", "verify-mix")


def build(workload: str, seed: int) -> tuple[dict[str, dict], list[dict]]:
    rng = random.Random(f"{workload}/{seed}")
    docs: dict[str, dict] = {}
    ops = {"gf2-sweep": _gf2_sweep, "field-rank": _field_rank, "verify-mix": _verify_mix}[workload](
        rng, docs
    )
    return docs, ops


def _op(name: str, argv: list[str], exit_code: int = 0, **expect) -> dict:
    return {"name": name, "argv": argv, "exit": exit_code, **expect}


# ------------------------------------------------------------- gf2-sweep

GF2_SWEEPS = [(4, 3, 40000)] * 3 + [(5, 3, 30000)] * 3 + [(4, 4, 15000)] * 2 + [(6, 3, 20000)]
GF2_EXHAUSTIVE = [(2, 4), (3, 3), (3, 3)]


def _sweep_op(rng, spec: str, a: int, d: int, count: int) -> dict:
    seed = rng.getrandbits(48)
    lower = ceil_div(a, d - 1)
    argv = ["experiment", "random-semidiagonal", "--field", spec]
    argv += ["--a", str(a), "--d", str(d), "--count", str(count), "--seed", str(seed)]
    return _op(
        f"sweep {spec} {a}x{d}",
        argv,
        fields={
            "command": "experiment random-semidiagonal",
            "seed": seed,
            "results.count": count,
            "results.seed": seed,
            "results.violations": 0,
            "results.witnesses": [],
            "results.required_min_mfrank": lower,
        },
        at_least={"results.min_mfrank": lower, "results.min_sum_franks": lower},
    )


def _gf2_sweep(rng, docs) -> list[dict]:
    ops = [_sweep_op(rng, "gf2", a, d, count) for a, d, count in GF2_SWEEPS]
    for a, d in GF2_EXHAUSTIVE:
        free = oracle.semidiagonal_counts(a, d)[2]
        lower = ceil_div(a, d - 1)
        ops.append(
            _op(
                f"exhaustive {a}x{d}",
                ["experiment", "exhaustive", "--a", str(a), "--d", str(d)],
                fields={
                    "command": "experiment exhaustive",
                    "results.count": 1 << free,
                    "results.free_entries": free,
                    "results.min_mfrank": lower,
                    "results.predicted_min_mfrank": lower,
                    "results.matches_prediction": True,
                    "results.violations": 0,
                },
                witness={"kind": "exhaustive"},
            )
        )
    return ops


# ------------------------------------------------------------ field-rank

# Three copies of the GF(3) sweep sit at the middle of the op-time
# distribution, so the median lands inside one op kind, not between two.
FIELD_SWEEPS = [("prime:3", 3, 3, 120)] * 3 + [
    ("prime:3", 4, 3, 60),
    ("prime:5", 3, 3, 100),
    ("binary:2", 3, 3, 100),
    ("gf2", 8, 3, 40),
    ("gf2", 8, 3, 40),
]
RANK_FIELDS = ("gf2", "prime:3", "binary:8")
RANK_DIMS = (8,) * 5


def _tensor_doc(arr: np.ndarray, field: Field, sparse: bool = False) -> dict:
    doc: dict = {"dims": list(arr.shape), "field": field.doc}
    if sparse:
        doc["sparse"] = [[list(map(int, idx)), int(arr[tuple(idx)])] for idx in np.argwhere(arr)]
    else:
        doc["entries"] = arr.reshape(-1).tolist()
    return doc


def _rank_op(rng, name: str, doc_name: str, field: Field, rank: int, ndim: int) -> dict:
    mode = rng.choice(("--max", "--sum"))
    fields = {
        "command": "rank",
        "results.dims": list(RANK_DIMS),
        "results.field": field.doc,
        "results.franks": [rank] * ndim,
    }
    fields["results.mfrank" if mode == "--max" else "results.sum_franks"] = (
        rank if mode == "--max" else rank * ndim
    )
    return _op(name, ["rank", "@" + doc_name, mode], fields=fields)


def _construct_op(name: str, kind: str, a: int, d: int, spec: str, axis=None, sparse=False) -> dict:
    field = Field.parse(spec)
    if kind == "partition":
        entries = oracle.partition_entries(a, d)
        meta = {"construction": "partition", "a": a, "d": d}
    else:
        entries = oracle.axis_constant_entries(a, d, axis)
        meta = {"construction": "axis-constant", "a": a, "d": d, "axis": axis}
    arr = np.asarray(entries, dtype=np.int64).reshape((a,) * d)
    doc = _tensor_doc(arr, field, sparse=sparse)
    doc["metadata"] = meta
    argv = ["construct", kind, "--a", str(a), "--d", str(d), "--field", spec]
    if axis is not None:
        argv += ["--axis", str(axis)]
    if sparse:
        argv.append("--sparse")
    return _op(name, argv, stdout_sha256=oracle.sha256_text(oracle.canonical(doc)))


def _field_rank(rng, docs) -> list[dict]:
    ops = [_sweep_op(rng, spec, a, d, count) for spec, a, d, count in FIELD_SWEEPS]
    a, ndim = RANK_DIMS[0], len(RANK_DIMS)
    for spec in RANK_FIELDS:
        field = Field.parse(spec)
        arr, parts = oracle.block_partition_tensor(rng, a, ndim, field)
        docs[f"partition-{spec}"] = _tensor_doc(arr, field, sparse=spec == "gf2")
        ops.append(_rank_op(rng, f"rank partition {spec}", f"partition-{spec}", field, parts, ndim))
        for label, r in (("low", 3), ("full", a)):
            docs[f"{label}rank-{spec}"] = _tensor_doc(oracle.rank_r_tensor(rng, RANK_DIMS, r, field), field)
            ops.append(_rank_op(rng, f"rank {label} {spec}", f"{label}rank-{spec}", field, r, ndim))
    ops.append(_construct_op("construct partition gf2", "partition", 8, 5, "gf2"))
    ops.append(_construct_op("construct partition gf3", "partition", 7, 4, "prime:3", sparse=True))
    axis = rng.randrange(5)
    ops.append(_construct_op("construct axis-constant", "axis-constant", 6, 5, "binary:8", axis=axis))
    return ops


# ------------------------------------------------------------ verify-mix

ODDTOWN_SHAPES = [(2, 24, 4), (3, 10, 3), (3, 8, 2), (4, 3, 2)]  # (d, singletons, twin pairs)
FW_CONFIGS = [
    ({"k": 2, "p": 2, "L": [0], "C": [[0, 1]]}, 12, 10),
    ({"k": 3, "p": 2, "L": [0], "C": [[0, 1], [0, 2], [1, 2]]}, 8, 14),
    ({"k": 3, "p": 3, "L": [0], "C": [[0, 1, 2]]}, 8, 6),
    ({"k": 3, "p": 2, "L": [1], "C": [[0, 1], [1, 2]]}, 8, 8),
]
FW_FAIL = 1  # index into FW_CONFIGS of the family that gets a violating member
RAINBOW_PASS = [(3, 3, 9, 8), (3, 2, 6, 6)]  # (r, t, N, z) with no rainbow matching
RAINBOW_FAIL = [(2, 3, 7, 5)]
BOLLOBAS = [((3, 3), 8, 20), ((3, 2, 1), 7, 10)]  # (sizes, base, members)
BADBOX = [(5, 2, 14, 4), (3, 3, 12, 4)]  # (t, s, members, k)


def _oddtown_doc(rng, d: int, singles: int, pairs: int) -> tuple[dict, dict]:
    """Repeated singletons, padded with twin pairs, relabelled and shuffled.

    Each singleton tuple appears d-1 times, so any d distinct positions mix two
    singletons; a twin pair adds 0 or 2 to every intersection.  The family is
    cross-Oddtown and its parity tensor has every flattening rank = singletons.
    """
    n = singles + 2 * pairs
    label = list(range(n))
    rng.shuffle(label)
    twins = [(1 << label[singles + 2 * q]) | (1 << label[singles + 2 * q + 1]) for q in range(pairs)]
    members = []
    for i in range(singles):
        for _ in range(d - 1):
            tup = []
            for _slot in range(d):
                mask = 1 << label[i]
                for tw in twins:
                    if rng.getrandbits(1):
                        mask |= tw
                tup.append(mask)
            members.append(tup)
    rng.shuffle(members)
    m = len(members)
    fields = {
        "command": "verify oddtown",
        "results.size": m,
        "results.n": n,
        "results.d": d,
        "results.bound": (d - 1) * n,
        "results.is_cross_oddtown": True,
        "results.franks": [singles] * d,
        "results.mfrank": singles,
        "results.semi_diagonal": True,
        "results.certificate_reconstructs": True,
        "results.verified": True,
    }
    return {"n": n, "d": d, "members": members}, fields


def _completes_violation(members: list[int], cand: int, cfg: dict) -> bool:
    """Would adding ``cand`` create a forbidden assignment that uses it?"""
    trial = members + [cand]
    new = len(members)
    for rest in permutations(range(new), cfg["k"] - 1):
        for slot in range(cfg["k"]):
            if oracle.config_violation(trial, cfg, rest[:slot] + (new,) + rest[slot:]):
                return True
    return False


def _grow_fw_family(rng, cfg: dict, n: int, target: int) -> list[int]:
    """Greedy random growth of a (C, L)-satisfying family of distinct sets."""
    p, L = cfg["p"], cfg["L"]
    while True:
        members: list[int] = []
        for _ in range(40 * target):
            cand = rng.getrandbits(n)
            if cand in members or cand.bit_count() % p in L:
                continue
            if not _completes_violation(members, cand, cfg):
                members.append(cand)
                if len(members) == target:
                    return members


def _fw_violator(rng, cfg: dict, n: int, members: list[int]) -> int:
    """A fresh set whose size avoids L but which completes a forbidden assignment."""
    while True:
        cand = rng.getrandbits(n)
        if cand in members or cand.bit_count() % cfg["p"] in cfg["L"]:
            continue
        if _completes_violation(members, cand, cfg):
            return cand


def _fw_ops(rng, docs) -> list[dict]:
    ops = []
    for i, (cfg, n, target) in enumerate(FW_CONFIGS):
        members = _grow_fw_family(rng, cfg, n, target)
        size_bound, flat_bounds = oracle.fw_bounds(cfg, n)
        docs[f"fw-config-{i}"] = cfg
        docs[f"fw-family-{i}"] = {"n": n, "members": members}
        franks = oracle.flattening_ranks_mod_p(oracle.fw_tensor(members, cfg), cfg["p"])
        common = {
            "command": "verify fw",
            "results.k": cfg["k"],
            "results.p": cfg["p"],
            "results.size_bound": size_bound,
            "results.flattening_bounds": flat_bounds,
        }
        argv = ["verify", "fw", f"@fw-family-{i}", "--config", f"@fw-config-{i}"]
        ops.append(
            _op(
                f"fw pass k={cfg['k']} p={cfg['p']}",
                argv,
                fields={
                    **common,
                    "results.size": target,
                    "results.satisfying": True,
                    "results.semi_diagonal": True,
                    "results.franks": franks,
                    "results.franks_within_bounds": True,
                    "results.size_bound_ok": True,
                    "results.verified": True,
                },
            )
        )
        if i == FW_FAIL:
            bad = members + [_fw_violator(rng, cfg, n, members)]
            rng.shuffle(bad)
            docs["fw-family-bad"] = {"n": n, "members": bad}
            ops.append(
                _op(
                    f"fw fail k={cfg['k']} p={cfg['p']}",
                    ["verify", "fw", "@fw-family-bad", "--config", f"@fw-config-{i}"],
                    1,
                    fields={
                        **common,
                        "results.size": len(bad),
                        "results.satisfying": False,
                        "results.size_violations": [],
                    },
                    witness={"kind": "fw", "members": bad, "config": cfg},
                )
            )
    return ops


def _random_hypergraph(rng, r: int, t: int, n: int, z: int) -> list[list[int]]:
    colors = []
    for _ in range(z):
        verts = rng.sample(range(n), r * t)
        colors.append([sum(1 << v for v in verts[e * r : (e + 1) * r]) for e in range(t)])
    return colors


def _hypergraph_doc(r: int, t: int, n: int, colors: list[list[int]]) -> dict:
    lists = [[[v for v in range(n) if e >> v & 1] for e in cls] for cls in colors]
    return {"N": n, "r": r, "t": t, "colors": lists}


def _rainbow_ops(rng, docs) -> list[dict]:
    ops = []
    for i, (r, t, n, z) in enumerate(RAINBOW_PASS):
        colors = _random_hypergraph(rng, r, t, n, z)
        while oracle.has_rainbow_matching(colors, t):
            colors = _random_hypergraph(rng, r, t, n, z)
        docs[f"rainbow-{i}"] = _hypergraph_doc(r, t, n, colors)
        cap = math.comb(r * t, r)
        ops.append(
            _op(
                f"rainbow pass r={r} t={t}",
                ["verify", "rainbow", f"@rainbow-{i}"],
                fields={
                    "command": "verify rainbow",
                    "results.z": z,
                    "results.r": r,
                    "results.t": t,
                    "results.flattening_cap": cap,
                    "results.color_cap": (t - 1) * cap,
                    "results.rainbow_matching": None,
                    "results.field": {"kind": "binary", "k": 8},
                    "results.semi_diagonal": True,
                    "results.lower_bound_ok": True,
                    "results.upper_bound_ok": True,
                    "results.color_bound_ok": True,
                    "results.verified": True,
                },
                at_least={"results.mfrank": ceil_div(z, t - 1)},
                at_most={"results.mfrank": cap},
            )
        )
    for i, (r, t, n, z) in enumerate(RAINBOW_FAIL):
        colors = _random_hypergraph(rng, r, t, n, z)
        while not oracle.has_rainbow_matching(colors, t):
            colors = _random_hypergraph(rng, r, t, n, z)
        docs[f"rainbow-bad-{i}"] = _hypergraph_doc(r, t, n, colors)
        ops.append(
            _op(
                f"rainbow fail r={r} t={t}",
                ["verify", "rainbow", f"@rainbow-bad-{i}"],
                1,
                fields={"command": "verify rainbow", "results.z": z, "results.verified": False},
                witness={"kind": "rainbow", "colors": colors, "t": t},
            )
        )
    return ops


def _setpair_members(rng, sizes: tuple[int, ...], base: int, count: int) -> list[list[int]]:
    """Skew set-pair system from complementary pairs, plus fixed extra slots.

    Slots 0 and 1 run over an a-subset of a random (a+b)-set and its
    complement, so A_i and B_j meet whenever i != j; later slots are fixed
    sets outside that ground, so no t distinct members have disjoint picks.
    """
    a, b = sizes[0], sizes[1]
    ground = rng.sample(range(base), base)
    core, rest = ground[: a + b], ground[a + b :]
    extra = []
    for size in sizes[2:]:
        extra.append(sum(1 << v for v in rest[:size]))
        rest = rest[size:]
    full = sum(1 << v for v in core)
    pairs = [sum(1 << v for v in subset) for subset in combinations(core, a)]
    chosen = rng.sample(pairs, count)
    return [[m, full ^ m, *extra] for m in chosen]


def _bollobas_ops(rng, docs) -> list[dict]:
    ops = []
    for i, (sizes, base, count) in enumerate(BOLLOBAS):
        t = len(sizes)
        n = sum(sizes)
        top = max(math.comb(n, r) for r in sizes)
        members = _setpair_members(rng, sizes, base, count)
        docs[f"setpair-{i}"] = {"base": base, "sizes": list(sizes), "members": members}
        ops.append(
            _op(
                f"bollobas pass t={t}",
                ["verify", "bollobas", f"@setpair-{i}"],
                fields={
                    "command": "verify bollobas",
                    "results.size": count,
                    "results.sizes": list(sizes),
                    "results.bound": (t - 1) * top,
                    "results.hypothesis_ok": True,
                    "results.bound_ok": True,
                    "results.field": {"kind": "binary", "k": 8},
                    "results.semi_diagonal": True,
                    "results.lower_bound_ok": True,
                    "results.upper_bound_ok": True,
                    "results.verified": True,
                },
                at_least={"results.mfrank": ceil_div(count, t - 1)},
                at_most={"results.mfrank": top},
            )
        )
        if i == 0:
            bad = members + [list(rng.choice(members))]
            rng.shuffle(bad)
            docs["setpair-bad"] = {"base": base, "sizes": list(sizes), "members": bad}
            ops.append(
                _op(
                    f"bollobas fail t={t}",
                    ["verify", "bollobas", "@setpair-bad"],
                    1,
                    fields={
                        "command": "verify bollobas",
                        "results.size": len(bad),
                        "results.hypothesis_ok": False,
                        "results.verified": False,
                    },
                    witness={"kind": "bollobas", "members": bad},
                )
            )
    return ops


def _badbox_ops(rng, docs) -> list[dict]:
    ops = []
    for i, (t, s, m, k) in enumerate(BADBOX):
        pool = [x for x in range(1 << t) if x.bit_count() % 2]
        attempts = 0
        while True:
            attempts += 1
            members = [[rng.choice(pool) for _ in range(s)] for _ in range(m)]
            if not oracle.has_odd_clique(members, k):
                break
        docs[f"badbox-{i}"] = {
            "t": t, "s": s, "k": k, "members_factors": members, "attempts": attempts, "seed": 0,
        }
        ops.append(
            _op(
                f"badbox t={t} s={s}",
                ["verify", "badbox", f"@badbox-{i}"],
                fields={
                    "command": "verify badbox",
                    "results.t": t,
                    "results.s": s,
                    "results.k": k,
                    "results.size": m,
                    "results.badbox_free": True,
                    "results.config_satisfying": True,
                    "results.verified": True,
                },
            )
        )
    return ops


def _verify_mix(rng, docs) -> list[dict]:
    ops = []
    for i, (d, singles, pairs) in enumerate(ODDTOWN_SHAPES):
        docs[f"oddtown-{i}"], fields = _oddtown_doc(rng, d, singles, pairs)
        ops.append(_op(f"oddtown d={d}", ["verify", "oddtown", f"@oddtown-{i}"], fields=fields))
    ops += _fw_ops(rng, docs)
    ops += _rainbow_ops(rng, docs)
    ops += _bollobas_ops(rng, docs)
    ops += _badbox_ops(rng, docs)
    return ops
