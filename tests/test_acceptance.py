"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is exact (these are theorems, not
approximations); runtime ceilings are asserted as stated.
"""

import itertools
import math
import time

import pytest

from flatrank.field import GF2, make_binary_field, make_prime_field
from flatrank.formats import badbox_to_document, canonical_json
from flatrank.fw import (
    complete_graph_config,
    fw_flattening_bound,
    fw_size_bound,
    fw_tensor,
    is_config_satisfying,
    sample_badbox_family,
    badbox_target_size,
    badbox_clique_order,
    find_odd_clique,
)
from flatrank.rainbow import (
    certify_no_rainbow_bound,
    find_rainbow_matching,
    rainbow_bound,
    rainbow_tensor,
)
from flatrank.rng import Rng
from flatrank.search import (
    exhaustive_min_mfrank,
    random_cross_oddtown_search,
    random_semidiagonal_sweep,
)
from flatrank.setfam import (
    TupleFamily,
    cross_oddtown_bound,
    repeated_singleton_family,
    verify_oddtown_chain,
)
from flatrank.tensor import (
    flattening_rank,
    is_semi_diagonal,
    partition_construction,
)

from oracles import (
    Arith,
    add_ext,
    enumerate_cross_oddtown,
    grow_config_satisfying_family,
    hypergraph_from_vertex_lists,
    random_colored_hypergraph,
    random_configuration,
    scalar_mul_ext,
    wedge,
    wedge_of_vectors,
)

GF3 = make_prime_field(3)


def report(criterion, detail, started, budget):
    elapsed = time.monotonic() - started
    print(f"criterion {criterion}: PASS ({detail}; {elapsed:.1f}s of {budget}s budget)")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def test_criterion_1_partition_tightness():
    started = time.monotonic()
    checked = 0
    for field in (GF2, GF3):
        for a in range(1, 9):
            for d in range(2, 5):
                t = partition_construction(a, d, field)
                target = math.ceil(a / (d - 1))
                assert is_semi_diagonal(t), (a, d, field)
                franks = [flattening_rank(t, ax) for ax in range(d)]
                assert max(franks) == target, (a, d, field, franks)
                checked += 1
    report(1, f"{checked} constructions exact", started, 5)


def test_criterion_2_exhaustive_theorems():
    started = time.monotonic()
    rep = exhaustive_min_mfrank(3, 3)
    assert rep.count == 1 << 18
    assert rep.min_mfrank == 2 == math.ceil(3 / 2)
    assert rep.min_sum_franks >= math.ceil(3 / 2 * 3)
    report(
        2,
        f"2^18 tensors, min mfrank {rep.min_mfrank}, min sum {rep.min_sum_franks}",
        started,
        60,
    )


def test_criterion_3_randomized_lower_bound():
    started = time.monotonic()
    total = 0
    for a, d in ((4, 3), (5, 3), (4, 4)):
        rep = random_semidiagonal_sweep(a, d, 100_000, seed=20_240 + a * 10 + d)
        assert rep.violations == 0, (a, d, rep.violations)
        assert rep.min_mfrank >= math.ceil(a / (d - 1))
        total += rep.count
    report(3, f"{total} random tensors, zero violations", started, 120)


EXHAUSTIVE_ODDTOWN_CASES = [(1, 2), (2, 2), (3, 2), (4, 2), (1, 3), (2, 3), (3, 3)]


def test_criterion_4_cross_oddtown_chain():
    started = time.monotonic()
    families = 0
    for n, d in EXHAUSTIVE_ODDTOWN_CASES:
        bound = cross_oddtown_bound(n, d)
        cap = min(7, max(6, bound + 1))
        best = 0
        for members in enumerate_cross_oddtown(n, d, cap):
            assert len(members) <= bound, (n, d, members)
            best = max(best, len(members))
            chain = verify_oddtown_chain(TupleFamily(n=n, d=d, members=members))
            assert chain["is_cross_oddtown"] and chain["semi_diagonal"], (n, d, members)
            assert chain["certificate_reconstructs"], (n, d, members)
            assert chain["mfrank_le_n"] and chain["mfrank_lower_ok"], (n, d, members)
            assert chain["verified"], (n, d, members)
            families += 1
        assert best == bound, (n, d, best)
    # (4, 3): the bound (d-1)n = 8 exceeds the size-6 enumeration cap, so no
    # size-capped family can violate it; cover the pair with the tight
    # construction and randomized growth probes instead.
    tight = repeated_singleton_family(4, 3)
    assert len(tight) == 8 == cross_oddtown_bound(4, 3)
    assert verify_oddtown_chain(tight)["verified"]
    for seed in range(40):
        rep = random_cross_oddtown_search(4, 3, 120, Rng(seed))
        assert rep.extra["largest_size"] <= 8
        members = tuple(tuple(t) for t in rep.witnesses[0]["members"])
        chain = verify_oddtown_chain(TupleFamily(n=4, d=3, members=members))
        assert chain["semi_diagonal"] and chain["certificate_reconstructs"]
        assert chain["mfrank_le_n"] and chain["mfrank_lower_ok"] and chain["verified"]
        families += 1
    report(4, f"{families} families verified, bounds attained", started, 60)


def _fw_instance(index):
    """Deterministic nonempty satisfying family with its configuration."""
    for attempt in range(50):
        rng = Rng(Rng.sub_seed(5_000 + index, attempt))
        cfg = random_configuration(rng)
        n = 3 + rng.next_below(4)  # 3..6
        fam = grow_config_satisfying_family(cfg, n, rng, candidate_budget=120)
        if fam.members:
            return cfg, fam
    raise AssertionError("could not grow a nonempty satisfying family")


def test_criterion_5_configuration_chain():
    started = time.monotonic()
    for index in range(200):
        cfg, fam = _fw_instance(index)
        assert fam.n <= 6 and cfg.k <= 3 and cfg.p in (2, 3) and len(cfg.L) <= 2
        assert is_config_satisfying(fam, cfg)
        tensor = fw_tensor(fam, cfg)
        assert is_semi_diagonal(tensor), (index, cfg, fam)
        franks = [flattening_rank(tensor, j) for j in range(cfg.k)]
        assert max(franks) * (cfg.k - 1) >= len(fam.members)  # semi-diagonal lower bound
        for j in range(cfg.k):
            assert franks[j] <= fw_flattening_bound(cfg, fam.n, j), (index, cfg, j)
        assert len(fam.members) <= fw_size_bound(cfg, fam.n)
    report(5, "200 satisfying families, all four links hold", started, 120)


@pytest.mark.parametrize("t,s", [(3, 1), (3, 2), (5, 2)])
def test_criterion_6_badbox_sampler(t, s):
    started = time.monotonic()
    fam = sample_badbox_family(t, s, seed=1234, max_attempts=1000)
    assert len(fam.members_factors) == badbox_target_size(t, s)
    k = badbox_clique_order(t)
    assert fam.k == k
    assert find_odd_clique(fam, k) is None
    cfg = complete_graph_config(k)
    assert is_config_satisfying(fam.flat_family(), cfg, distinct="positions")
    report(
        6,
        f"(t={t}, s={s}): size {len(fam.members_factors)} family in {fam.attempts} attempt(s)",
        started,
        60,
    )


def _rainbow_instance(index):
    rng = Rng(Rng.sub_seed(77_000, index))
    r = 1 + rng.next_below(3)
    t = 2 + rng.next_below(2)
    kind = rng.next_below(10)
    if kind < 6:
        num_vertices = r * t + rng.next_below(16 - r * t)
        z = 1 + rng.next_below(12)
    elif kind < 8:
        num_vertices = r * t + rng.next_below(16 - r * t)
        z = 1 + rng.next_below(t - 1) if t > 1 else 1  # too few colors for a rainbow
    else:
        num_vertices = r * t  # tight vertex set forces heavy overlap
        z = 1 + rng.next_below(6)
    return random_colored_hypergraph(num_vertices, r, t, z, rng)


def test_criterion_7_rainbow_chain():
    started = time.monotonic()
    no_rainbow = 0
    instances = [_rainbow_instance(i) for i in range(497)]
    instances.append(
        hypergraph_from_vertex_lists(
            4, 2, 2, [[[0, 1], [2, 3]], [[0, 2], [1, 3]], [[0, 3], [1, 2]]]
        )
    )
    instances.append(
        hypergraph_from_vertex_lists(6, 3, 2, [[[0, 1, 2], [3, 4, 5]], [[0, 3, 4], [1, 2, 5]]])
    )
    instances.append(
        hypergraph_from_vertex_lists(
            6, 2, 3, [[[0, 1], [2, 3], [4, 5]], [[0, 2], [1, 4], [3, 5]]]
        )
    )
    assert len(instances) == 500
    for h in instances:
        tensor = rainbow_tensor(h)
        for flat, idx in enumerate(itertools.product(range(h.z), repeat=h.t)):
            edges = [h.colors[c][slot] for slot, c in enumerate(idx)]
            disjoint = all(not (a & b) for a, b in itertools.combinations(edges, 2))
            assert (tensor.entries[flat] != 0) == disjoint, (idx, h)
        if find_rainbow_matching(h, h.t) is None:
            no_rainbow += 1
            rep = certify_no_rainbow_bound(h)
            assert rep["verified"], h
            assert rep["semi_diagonal"]
            assert h.z <= (h.t - 1) * rep["mfrank"] <= rainbow_bound(h.r, h.t)
    assert no_rainbow >= 30  # the chain side must actually be exercised
    report(
        7,
        f"500 instances pattern-exact, {no_rainbow} no-rainbow chains verified",
        started,
        180,
    )


def _random_ext(n, grade, field, rng):
    from oracles import ExtVector

    coords = {}
    for combo in itertools.combinations(range(n), grade):
        mask = 0
        for i in combo:
            mask |= 1 << i
        v = rng.next_below(field.order)
        if v:
            coords[mask] = v
    return ExtVector(n=n, grade=grade, field=field, coords=coords)


def _minor(rows, cols, field):
    sub, field = [[row[c] for c in cols] for row in rows], Arith.of(field)

    def det(m):
        if len(m) == 1:
            return m[0][0]
        acc = 0
        for j in range(len(m)):
            inner = [r[:j] + r[j + 1 :] for r in m[1:]]
            acc = field.add(acc, field.mul(m[0][j], det(inner)))
        return acc

    return det(sub)


def test_criterion_8_exterior_algebra_axioms():
    started = time.monotonic()
    fields = [make_binary_field(3), make_binary_field(8)]
    trials = 10_000
    for i in range(trials):
        rng = Rng(Rng.sub_seed(880_000, i))
        field = fields[i % 2]
        n = 3 + rng.next_below(3)  # 3..5
        ga, gb, gc = (rng.next_below(3) for _ in range(3))
        a = _random_ext(n, ga, field, rng)
        b = _random_ext(n, gb, field, rng)
        c = _random_ext(n, gc, field, rng)
        assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
        assert wedge(a, b) == wedge(b, a)
        b2 = _random_ext(n, gb, field, rng)
        assert wedge(a, add_ext(b, b2)) == add_ext(wedge(a, b), wedge(a, b2))
        lam = rng.next_below(field.order)
        assert wedge(scalar_mul_ext(lam, a), b) == scalar_mul_ext(lam, wedge(a, b))
        # dependent wedge vanishing: duplicate one row in a random stack
        k = 2 + rng.next_below(2)
        rows = [[rng.next_below(field.order) for _ in range(n)] for _ in range(k - 1)]
        rows.append(list(rows[rng.next_below(k - 1)]))
        assert wedge_of_vectors(rows, field).is_zero()
        # minor-oracle coordinate equality on a fresh stack
        rows = [[rng.next_below(field.order) for _ in range(n)] for _ in range(k)]
        w = wedge_of_vectors(rows, field)
        for cols in itertools.combinations(range(n), k):
            mask = 0
            for c_i in cols:
                mask |= 1 << c_i
            assert w.coords.get(mask, 0) == _minor(rows, cols, field)
    report(8, f"{trials} wedge triples, zero violations", started, 60)


def test_criterion_9_determinism():
    started = time.monotonic()
    sweep_a = random_semidiagonal_sweep(4, 3, 20_000, seed=99).to_document()
    sweep_b = random_semidiagonal_sweep(4, 3, 20_000, seed=99).to_document()
    assert canonical_json(sweep_a) == canonical_json(sweep_b)

    bb_a = badbox_to_document(sample_badbox_family(5, 2, seed=4))
    bb_b = badbox_to_document(sample_badbox_family(5, 2, seed=4))
    assert canonical_json(bb_a) == canonical_json(bb_b)

    odd_a = random_cross_oddtown_search(3, 3, 400, Rng(12)).to_document()
    odd_b = random_cross_oddtown_search(3, 3, 400, Rng(12)).to_document()
    assert canonical_json(odd_a) == canonical_json(odd_b)

    cfg_a, fam_a = _fw_instance(0)
    cfg_b, fam_b = _fw_instance(0)
    assert cfg_a == cfg_b and fam_a == fam_b

    h_a = _rainbow_instance(0)
    h_b = _rainbow_instance(0)
    assert h_a == h_b
    assert canonical_json(certify_no_rainbow_bound(h_a)) == canonical_json(
        certify_no_rainbow_bound(h_b)
    )

    ex_a = exhaustive_min_mfrank(3, 3).to_document()
    ex_b = exhaustive_min_mfrank(3, 3).to_document()
    assert canonical_json(ex_a) == canonical_json(ex_b)
    report(9, "all seeded pipelines byte-identical on rerun", started, 120)
