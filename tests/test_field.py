"""Field arithmetic: construction guards, hand oracles, and axiom properties."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatrank.field import (
    _is_irreducible,
    _log_table_sizes,
    binary_mul_add,
    discrete_log_tables,
    make_binary_field,
    make_prime_field,
)
from flatrank.formats import field_from_document

SRC = Path(__file__).resolve().parents[1] / "src"

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



def test_make_binary_field_searches_each_polynomial_once(monkeypatch):
    import flatrank.field as field_module

    calls = []

    def counting(f, k):
        calls.append(k)
        return _is_irreducible(f, k)

    monkeypatch.setattr(field_module, "_is_irreducible", counting)
    field_module._reduction_poly.cache_clear()
    assert make_binary_field(8).reduction_poly == 0x11B
    searched = list(calls)
    assert searched and set(searched) == {8}
    for _ in range(2):
        assert make_binary_field(8).reduction_poly == 0x11B
    assert make_binary_field(1).reduction_poly == 0b11  # x + 1, the first candidate
    assert calls == searched + [1]
    # True == 1, but a bool is not an extension degree, cached GF(2) or not
    for bad in (True, False, 8.0, "8"):
        with pytest.raises(ValueError, match="extension degree"):
            make_binary_field(bad)
    assert calls == searched + [1]


def test_gf8_poly_has_no_roots():
    # irreducibility cross-check for the degree-3 polynomial: a cubic with no
    # root in GF(8) viewed via its subfield GF(2) is enough (no linear factor),
    # plus no quadratic factor exists since all quadratic irreducibles divide x^4-x
    poly = make_binary_field(3).reduction_poly
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


def test_reduction_polynomials_are_irreducible_and_pinned():
    polys = [make_binary_field(k).reduction_poly for k in range(1, 64)]
    for k, poly in enumerate(polys, 1):
        assert poly.bit_length() - 1 == k
        assert _is_irreducible(poly, k), k
    # the polynomials of the table kept before they were searched for
    assert hashlib.sha256(str(polys).encode()).hexdigest() == (
        "fc9220aa8f30df8613cd2c36eae0d646a687594dff53a01fe82883017896d416"
    )
    # the AES field's, and the low-weight GF(2^16), GF(2^32) and GF(2^63) standards
    assert polys[8 - 1] == 0x11B
    assert polys[16 - 1] == 0x1002B
    assert polys[32 - 1] == 0x10000008D
    assert polys[63 - 1] == 1 << 63 | 1 << 1 | 1


def _irreducible_by_trial_division(f: int) -> bool:
    """No polynomial of degree 1 .. deg(f) / 2 divides ``f`` over GF(2)."""
    k = f.bit_length() - 1
    for g in range(2, 1 << (k // 2 + 1)):
        r = f
        while r.bit_length() >= g.bit_length():
            r ^= g << (r.bit_length() - g.bit_length())
        if r == 0:
            return False
    return True


@pytest.mark.parametrize("k", range(2, 13))
def test_reduction_polynomial_is_the_least_trinomial_else_pentanomial(k):
    ends = 1 << k | 1
    trinomials = [a for a in range(1, k) if _irreducible_by_trial_division(ends | 1 << a)]
    if trinomials:
        want = ends | 1 << min(trinomials)
    else:
        c, b, a = min(
            (c, b, a)
            for c in range(k)
            for b in range(c)
            for a in range(1, b)
            if _irreducible_by_trial_division(ends | 1 << c | 1 << b | 1 << a)
        )
        want = ends | 1 << c | 1 << b | 1 << a
    assert make_binary_field(k).reduction_poly == want


@pytest.mark.parametrize(
    "k,digest",
    [
        (2, "1285b980550135bd63854857ff66a80b6ca174eafc08f3fd24a335bbe8625edc"),
        (8, "9dfe7efdfdc13c58d2ee2697af9e6559de0d25e6c9f2485a370b3fcbb2144aeb"),
        (16, "d62a19c68f570c9f44eb3fd01976f05ec2819066da01731320a49112dfc605c8"),
    ],
)
def test_log_tables_are_pinned(k, digest):
    # the bytes and dtypes of the tables the GF(2^k) kernels multiplied through
    # when they were built as Python lists
    h = hashlib.sha256()
    for table in discrete_log_tables(make_binary_field(k)):
        h.update(table.dtype.str.encode())
        h.update(table.tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_log_tables_consistent_with_multiplication(k):
    f = make_binary_field(k)
    exp, log = discrete_log_tables(f)
    m, zero = f.order - 1, 3 * (f.order - 1) - 1
    sizes = _log_table_sizes(f)
    assert (exp.size, exp.dtype) == sizes["exp"] and (log.size, log.dtype) == sizes["log"]
    assert not exp.flags.writeable and not log.flags.writeable
    assert log[0] == zero and not exp[zero:].any()
    assert sorted(exp[:m].tolist()) == list(range(1, f.order))
    assert (exp[:zero] == np.resize(exp[:m], zero)).all()
    # field.mul is the oracle: every pair for k <= 8, 2^16 pairs for GF(2^16)
    elements = np.arange(f.order) if k <= 8 else np.arange(0, f.order, 257)
    a, b = (x.ravel() for x in np.meshgrid(elements, elements))
    products = [f.mul(x, y) for x, y in zip(a.tolist(), b.tolist())]
    assert exp[log[a].astype(np.int64) + log[b]].tolist() == products


@pytest.mark.parametrize("k", [2, 8, 17, 20, 31, 32, 33, 62, 63])
def test_binary_mul_add_matches_field_mul(k):
    # a column times a row, broadcast, added to random entries; 0, 1 and the top
    # element included, in the narrowest unsigned dtype and, below k = 63, int64
    f = make_binary_field(k)
    rng = np.random.default_rng(k)
    for dtype in [np.min_scalar_type(f.order - 1)] + [np.int64] * (k < 63):
        x, y, acc = (
            rng.integers(0, f.order, shape, dtype=np.uint64).astype(dtype)
            for shape in [(40, 1), (1, 30), (40, 30)]
        )
        x[:3, 0] = y[0, :3] = [0, 1, f.order - 1]
        out = acc.copy()
        binary_mul_add(out, x, y, f, np.empty((2, 40, 1), dtype), np.empty_like(y), np.empty_like(acc))
        want = [
            [c ^ f.mul(a, b) for b, c in zip(y[0].tolist(), row)]
            for a, row in zip(x[:, 0].tolist(), acc.tolist())
        ]
        assert out.tolist() == want, dtype


def test_log_tables_first_build_stays_within_their_sizes():
    # in a fresh process: GF(2^16) kept 6.8 MB and peaked at 9.4 MB while its
    # tables were also built as Python lists
    code = (
        "import tracemalloc\n"
        "import numpy as np\n"
        "from flatrank.field import _log_table_sizes, discrete_log_tables, make_binary_field\n"
        "f = make_binary_field(16)\n"
        "tracemalloc.start()\n"
        "exp, log = discrete_log_tables(f)\n"
        "kept, peak = tracemalloc.get_traced_memory()\n"
        "planned = sum(n * np.dtype(t).itemsize for n, t in _log_table_sizes(f).values())\n"
        "print(kept, peak, exp.nbytes + log.nbytes, planned)\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    kept, peak, tables, planned = map(int, proc.stdout.split())
    assert tables <= kept <= tables + (16 << 10) and kept <= 1.1e6
    assert peak <= planned


def test_field_document_round_trip():
    for f in FIELDS:
        assert field_from_document(f.to_document()) == f
    with pytest.raises(ValueError):
        field_from_document({"kind": "weird"})
