"""Wedge products against minor oracles and algebra axioms."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import make_binary_field, make_prime_field
from flatrank.linalg import matrix_rank
from flatrank.rng import Rng

from oracles import (
    Arith,
    ExtVector,
    add_ext,
    ext_basis_vector,
    grade1_vector,
    moment_curve_vectors,
    sample_without_replacement,
    scalar_mul_ext,
    top_coefficient,
    wedge,
    wedge_of_vectors,
)

GF8 = make_binary_field(3)
GF256 = make_binary_field(8)
GF4 = make_binary_field(2)


def cofactor_minor(rows, cols, field):
    """Independent oracle: determinant by cofactor expansion over the field."""
    sub, field = [[row[c] for c in cols] for row in rows], Arith.of(field)

    def det(m):
        if len(m) == 1:
            return m[0][0]
        acc = 0
        for j in range(len(m)):
            minor = [r[:j] + r[j + 1 :] for r in m[1:]]
            acc = field.add(acc, field.mul(m[0][j], det(minor)))
        return acc

    return det(sub)


def random_ext(n, grade, field, rng):
    coords = {}
    for mask in itertools.combinations(range(n), grade):
        bits = 0
        for i in mask:
            bits |= 1 << i
        v = rng.next_below(field.order)
        if v:
            coords[bits] = v
    return ExtVector(n=n, grade=grade, field=field, coords=coords)


def test_rejects_odd_characteristic():
    with pytest.raises(ValueError, match="characteristic 2"):
        ExtVector(n=3, grade=1, field=make_prime_field(3), coords={})
    for field in (make_prime_field(2), GF8):
        assert ExtVector(n=3, grade=1, field=field, coords={0b001: 1}).grade == 1


def test_rejects_noncanonical_coefficients():
    for bad in (8, -1, 1.0):
        with pytest.raises(ValueError, match="canonical"):
            ExtVector(n=3, grade=1, field=GF8, coords={0b001: bad})
        with pytest.raises(ValueError, match="canonical"):
            grade1_vector([1, bad], GF8)
        with pytest.raises(ValueError, match="canonical"):
            scalar_mul_ext(bad, ext_basis_vector(3, 0b001, GF8))


def test_basis_wedge():
    e0 = ext_basis_vector(3, 0b001, GF8)
    e1 = ext_basis_vector(3, 0b010, GF8)
    w = wedge(e0, e1)
    assert dict(w.coords) == {0b011: 1}
    assert w.grade == 2


def test_self_wedge_vanishes_for_vectors():
    v = grade1_vector([1, 1, 0], GF8)
    assert wedge(v, v).is_zero()
    for seed in range(10):
        rng = Rng(seed)
        u = grade1_vector([rng.next_below(8) for _ in range(4)], GF8)
        assert wedge(u, u).is_zero()


def test_bilinearity_hand_example():
    a = grade1_vector([1, 1, 0], make_binary_field(1))
    b = grade1_vector([0, 1, 1], make_binary_field(1))
    w = wedge(a, b)
    assert dict(w.coords) == {0b011: 1, 0b101: 1, 0b110: 1}


def test_wedge_grade_overflow_is_zero():
    u = random_ext(3, 2, GF8, Rng(1))
    v = random_ext(3, 2, GF8, Rng(2))
    w = wedge(u, v)
    assert w.grade == 4 and w.is_zero()


def test_wedge_of_vectors_basis():
    w = wedge_of_vectors([[1, 0, 0], [0, 1, 0], [0, 0, 1]], GF8)
    assert dict(w.coords) == {0b111: 1}
    assert top_coefficient(w) == 1


def test_wedge_of_vectors_dependent_is_zero():
    assert wedge_of_vectors([[1, 1, 0], [1, 1, 0]], GF8).is_zero()
    w = wedge_of_vectors([[1, 0, 0], [0, 1, 0], [1, 1, 0]], GF8)
    assert w.is_zero()
    assert top_coefficient(wedge_of_vectors([[1, 0], [1, 0]], GF8)) == 0


def test_wedge_coordinates_are_minors():
    rng = Rng(99)
    for _ in range(30):
        k, n = 3, 4
        rows = [[rng.next_below(GF8.order) for _ in range(n)] for _ in range(k)]
        w = wedge_of_vectors(rows, GF8)
        for cols in itertools.combinations(range(n), k):
            bits = 0
            for c in cols:
                bits |= 1 << c
            assert w.coords.get(bits, 0) == cofactor_minor(rows, cols, GF8)


def test_wedge_nonzero_iff_independent():
    rng = Rng(4)
    for _ in range(100):
        k = 1 + rng.next_below(4)
        n = k + rng.next_below(3)
        rows = [[rng.next_below(GF4.order) for _ in range(n)] for _ in range(k)]
        assert (not wedge_of_vectors(rows, GF4).is_zero()) == (matrix_rank(rows, GF4) == len(rows))


def test_top_coefficient_grade_guard():
    with pytest.raises(ValueError):
        top_coefficient(ext_basis_vector(3, 0b011, GF8))


def test_moment_curve_pairs_independent():
    vecs = moment_curve_vectors(3, 2, GF4)
    assert len(vecs) == 3
    for u, v in itertools.combinations(vecs, 2):
        assert not wedge_of_vectors([list(u), list(v)], GF4).is_zero()


def test_moment_curve_vandermonde_top():
    n = 4
    vecs = moment_curve_vectors(n, n, GF256)
    w = wedge_of_vectors([list(v) for v in vecs], GF256)
    # Vandermonde oracle: prod over pairs of (t_i + t_j), char 2
    params = list(range(1, n + 1))
    expected = 1
    for i in range(n):
        for j in range(i + 1, n):
            expected = GF256.mul(expected, params[i] ^ params[j])
    assert top_coefficient(w) == expected != 0


def test_moment_curve_every_4_subset_independent():
    vecs = moment_curve_vectors(5, 4, GF256)
    for sub in itertools.combinations(vecs, 4):
        assert not wedge_of_vectors([list(v) for v in sub], GF256).is_zero()


def test_moment_curve_too_small_field():
    with pytest.raises(ValueError):
        moment_curve_vectors(4, 3, GF4)


def test_general_position_random_subsets():
    field = make_binary_field(8)
    vecs = moment_curve_vectors(12, 5, field)
    rng = Rng(8)
    for _ in range(200):
        picks = sample_without_replacement(rng, 12, 5)
        sub = [list(vecs[i]) for i in picks]
        assert not wedge_of_vectors(sub, field).is_zero()


EXT_FIELDS = [make_binary_field(3), make_binary_field(8)]


@pytest.mark.parametrize("field", EXT_FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_algebra_axioms(field, data):
    rng = Rng(data.draw(st.integers(0, 2**32)))
    n = data.draw(st.integers(2, 5))
    ga = data.draw(st.integers(0, 2))
    gb = data.draw(st.integers(0, 2))
    gc = data.draw(st.integers(0, 2))
    a = random_ext(n, ga, field, rng)
    b = random_ext(n, gb, field, rng)
    c = random_ext(n, gc, field, rng)
    # associativity
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))
    # commutativity in characteristic 2
    assert wedge(a, b) == wedge(b, a)
    # bilinearity against a same-grade second summand
    b2 = random_ext(n, gb, field, rng)
    assert wedge(a, add_ext(b, b2)) == add_ext(wedge(a, b), wedge(a, b2))
    # scalar pull-through
    lam = rng.next_below(field.order)
    assert wedge(scalar_mul_ext(lam, a), b) == scalar_mul_ext(lam, wedge(a, b))
