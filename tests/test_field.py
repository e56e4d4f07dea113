"""Field arithmetic: construction guards, hand oracles, and axiom properties."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import (
    IRREDUCIBLE_POLY,
    _is_irreducible,
    discrete_log_tables,
    field_from_document,
    make_binary_field,
    make_prime_field,
)

FIELDS = [
    make_prime_field(2),
    make_prime_field(3),
    make_prime_field(5),
    make_prime_field(7),
    make_binary_field(1),
    make_binary_field(3),
    make_binary_field(8),
]


def test_make_prime_field_basic():
    assert make_prime_field(2).order == 2
    assert make_prime_field(5).p == 5
    with pytest.raises(ValueError, match="not prime"):
        make_prime_field(6)
    with pytest.raises(ValueError):
        make_prime_field(1)
    with pytest.raises(ValueError):
        make_prime_field(1 << 31)


def test_make_binary_field_range():
    assert make_binary_field(1).order == 2
    assert make_binary_field(3).reduction_poly == 0b1011  # x^3 + x + 1
    with pytest.raises(ValueError):
        make_binary_field(0)
    with pytest.raises(ValueError):
        make_binary_field(64)



def test_make_binary_field_checks_each_polynomial_once(monkeypatch):
    import flatrank.field as field_module

    calls = []

    def counting(f, k):
        calls.append(k)
        return _is_irreducible(f, k)

    monkeypatch.setattr(field_module, "_is_irreducible", counting)
    field_module._checked_poly.cache_clear()
    for _ in range(3):
        assert make_binary_field(8).reduction_poly == IRREDUCIBLE_POLY[8]
    assert make_binary_field(1).order == 2
    assert calls == [8, 1]
    # True == 1, but a bool is not an extension degree, cached GF(2) or not
    for bad in (True, False, 8.0, "8"):
        with pytest.raises(ValueError, match="extension degree"):
            make_binary_field(bad)
    assert calls == [8, 1]

def test_gf8_poly_has_no_roots():
    # irreducibility cross-check for the degree-3 table entry: a cubic with no
    # root in GF(8) viewed via its subfield GF(2) is enough (no linear factor),
    # plus no quadratic factor exists since all quadratic irreducibles divide x^4-x
    poly = IRREDUCIBLE_POLY[3]
    for x in (0, 1):
        value = (x**3 + x + 1) % 2
        assert value != 0
    assert _is_irreducible(poly, 3)


def test_gf5_inverse_matches_multiplication_table():
    f5 = make_prime_field(5)
    # exhaust the multiplicative table: inv(a) is the unique b with a*b = 1
    for a in range(1, 5):
        expected = next(b for b in range(1, 5) if (a * b) % 5 == 1)
        assert f5.inv(a) == expected
    assert f5.inv(2) == 3


def test_gf8_multiply_by_hand():
    # x * x^2 = x^3 = x + 1 after reducing by x^3 + x + 1
    f8 = make_binary_field(3)
    assert f8.mul(0b010, 0b100) == 0b011
    # (x+1) * (x^2+1) = x^3 + x^2 + x + 1 = (x+1) + x^2 + x + 1 = x^2
    assert f8.mul(0b011, 0b101) == 0b100


def test_inverse_of_zero_rejected():
    for f in FIELDS:
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_prime_gf2_and_binary_gf2_tables_match():
    fp = make_prime_field(2)
    fb = make_binary_field(1)
    for a in range(2):
        assert fp.sub(0, a) == fb.sub(0, a)
        for b in range(2):
            assert fp.add(a, b) == fb.add(a, b)
            assert fp.mul(a, b) == fb.mul(a, b)
    assert fp.inv(1) == fb.inv(1) == 1


@pytest.mark.parametrize("field", FIELDS, ids=str)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_field_axioms(field, data):
    order = field.order
    a = data.draw(st.integers(0, order - 1))
    b = data.draw(st.integers(0, order - 1))
    c = data.draw(st.integers(0, order - 1))
    assert field.add(a, b) == field.add(b, a)
    assert field.mul(a, b) == field.mul(b, a)
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    assert field.add(a, field.sub(0, a)) == 0
    assert field.mul(a, 1) == a and field.add(a, 0) == a
    if a:
        assert field.mul(a, field.inv(a)) == 1


@pytest.mark.parametrize("k", [1, 3, 8])
def test_characteristic_two_self_cancellation(k):
    f = make_binary_field(k)
    for a in range(min(f.order, 64)):
        assert f.add(a, a) == 0


def test_all_table_polynomials_are_irreducible():
    for k, poly in IRREDUCIBLE_POLY.items():
        assert poly.bit_length() - 1 == k
        assert _is_irreducible(poly, k), k


def test_log_tables_consistent_with_multiplication():
    f = make_binary_field(8)
    exp, log = discrete_log_tables(f)
    m = f.order - 1
    assert sorted(exp[:m]) == list(range(1, f.order))
    for a in (1, 2, 7, 100, 255):
        for b in (1, 3, 90, 254):
            assert f.mul(a, b) == exp[(log[a] + log[b]) % m]


def test_field_document_round_trip():
    for f in FIELDS:
        assert field_from_document(f.to_document()) == f
    with pytest.raises(ValueError):
        field_from_document({"kind": "weird"})


def test_validate_rejects_noncanonical():
    f = make_prime_field(5)
    with pytest.raises(ValueError):
        f.validate(5)
    with pytest.raises(ValueError):
        f.validate(-1)
