"""Exact arithmetic in GF(p) and GF(2^k).

Elements are plain integers ("representatives"): residues in [0, p) for prime
fields, polynomial bit-masks of degree < k for binary extension fields.  A
:class:`FieldDescriptor` owns the arithmetic on those representatives; hot
loops elsewhere in the package work on raw representatives, most of them in
numpy arrays.

Binary fields reduce modulo a fixed low-weight irreducible (trinomial where
one exists, else pentanomial) from a built-in table covering k = 1..63; the
polynomial is re-verified irreducible at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "FieldDescriptor",
    "make_prime_field",
    "make_binary_field",
    "GF2",
]

MAX_PRIME = 1 << 31  # products of two residues must fit in 64-bit intermediates

# Lowest-weight irreducible polynomial of each degree, as a bit-mask including
# the leading x^k term.  Trinomial x^k + x^a + 1 with minimal a when one
# exists, otherwise the pentanomial minimal in (c, b, a) order.
IRREDUCIBLE_POLY = {
    1: 0x3,
    2: 0x7,
    3: 0xB,
    4: 0x13,
    5: 0x25,
    6: 0x43,
    7: 0x83,
    8: 0x11B,
    9: 0x203,
    10: 0x409,
    11: 0x805,
    12: 0x1009,
    13: 0x201B,
    14: 0x4021,
    15: 0x8003,
    16: 0x1002B,
    17: 0x20009,
    18: 0x40009,
    19: 0x80027,
    20: 0x100009,
    21: 0x200005,
    22: 0x400003,
    23: 0x800021,
    24: 0x100001B,
    25: 0x2000009,
    26: 0x400001B,
    27: 0x8000027,
    28: 0x10000003,
    29: 0x20000005,
    30: 0x40000003,
    31: 0x80000009,
    32: 0x10000008D,
    33: 0x200000401,
    34: 0x400000081,
    35: 0x800000005,
    36: 0x1000000201,
    37: 0x2000000053,
    38: 0x4000000063,
    39: 0x8000000011,
    40: 0x10000000039,
    41: 0x20000000009,
    42: 0x40000000081,
    43: 0x80000000059,
    44: 0x100000000021,
    45: 0x20000000001B,
    46: 0x400000000003,
    47: 0x800000000021,
    48: 0x100000000002D,
    49: 0x2000000000201,
    50: 0x400000000001D,
    51: 0x800000000004B,
    52: 0x10000000000009,
    53: 0x20000000000047,
    54: 0x40000000000201,
    55: 0x80000000000081,
    56: 0x100000000000095,
    57: 0x200000000000011,
    58: 0x400000000080001,
    59: 0x800000000000095,
    60: 0x1000000000000003,
    61: 0x2000000000000027,
    62: 0x4000000020000001,
    63: 0x8000000000000003,
}


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _clmul(a: int, b: int) -> int:
    """Carry-less (XOR) product of two GF(2)[x] polynomials."""
    r = 0
    while b:
        if b & 1:
            r ^= a
        a <<= 1
        b >>= 1
    return r


def _pmod(a: int, f: int) -> int:
    df = f.bit_length() - 1
    while a and a.bit_length() - 1 >= df:
        a ^= f << (a.bit_length() - 1 - df)
    return a


def _pgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _pmod(a, b)
    return a


def _prime_factors(n: int) -> set[int]:
    fs = set()
    d = 2
    while d * d <= n:
        while n % d == 0:
            fs.add(d)
            n //= d
        d += 1
    if n > 1:
        fs.add(n)
    return fs


def _x_pow_2e_mod(e: int, f: int) -> int:
    r = 2  # the polynomial x
    for _ in range(e):
        r = _pmod(_clmul(r, r), f)
    return r


def _is_irreducible(f: int, k: int) -> bool:
    """Rabin irreducibility test for a degree-k polynomial over GF(2)."""
    if f.bit_length() - 1 != k or not (f & 1):
        return False
    if k == 1:
        return True
    if _x_pow_2e_mod(k, f) != 2:
        return False
    return all(_pgcd(f, _x_pow_2e_mod(k // q, f) ^ 2) == 1 for q in _prime_factors(k))


@dataclass(frozen=True)
class FieldDescriptor:
    """A finite field: GF(p) for prime p, or GF(2^k) with a fixed reduction polynomial.

    All element-level methods take and return integer representatives that are
    already canonical (reduced).
    """

    kind: str  # "prime" or "binary"
    p: int = 0
    k: int = 0
    reduction_poly: int = 0

    @property
    def order(self) -> int:
        return self.p if self.kind == "prime" else 1 << self.k

    @property
    def characteristic(self) -> int:
        return self.p if self.kind == "prime" else 2

    def validate(self, a: int) -> int:
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise ValueError(f"{a!r} is not a canonical representative of {self}")
        return a

    def add(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a + b) % self.p
        return a ^ b

    def sub(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a - b) % self.p
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if self.kind == "prime":
            return (a * b) % self.p
        return self._binary_mul(a, b)

    def _binary_mul(self, a: int, b: int) -> int:
        k = self.k
        f = self.reduction_poly
        r = 0
        while b:
            if b & 1:
                r ^= a
            b >>= 1
            a <<= 1
            if a >> k:
                a ^= f
        return r

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError(f"0 is not invertible in {self}")
        if self.kind == "prime":
            return pow(a, self.p - 2, self.p)
        return self.pow(a, self.order - 2)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        r = 1
        while e:
            if e & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            e >>= 1
        return r

    def to_document(self) -> dict:
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {"kind": "binary", "k": self.k}

    def __str__(self) -> str:
        if self.kind == "prime":
            return f"GF({self.p})"
        return f"GF(2^{self.k})"


def make_prime_field(p: int) -> FieldDescriptor:
    """Descriptor for GF(p).  Rejects composite or oversized moduli."""
    if type(p) is not int or p < 2 or p >= MAX_PRIME:
        raise ValueError(f"prime modulus must satisfy 2 <= p < 2^31, got {p!r}")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return FieldDescriptor(kind="prime", p=p)


def make_binary_field(k: int) -> FieldDescriptor:
    """Descriptor for GF(2^k), 1 <= k <= 63, with the built-in reduction polynomial."""
    if type(k) is not int or not 1 <= k <= 63:
        raise ValueError(f"extension degree must satisfy 1 <= k <= 63, got {k!r}")
    return FieldDescriptor(kind="binary", k=k, reduction_poly=_checked_poly(k))


@lru_cache(maxsize=None)
def _checked_poly(k: int) -> int:
    """The built-in reduction polynomial for GF(2^k), checked irreducible once per k.

    Called only with an int ``k``: ``True == 1`` would share GF(2)'s entry.
    """
    poly = IRREDUCIBLE_POLY[k]
    if not _is_irreducible(poly, k):
        raise AssertionError(f"built-in polynomial for k={k} failed irreducibility check")
    return poly


def field_from_document(doc: dict) -> FieldDescriptor:
    """Inverse of :meth:`FieldDescriptor.to_document`."""
    if not isinstance(doc, dict):
        raise ValueError(f"field must be a JSON object, got {type(doc).__name__}")
    kind = doc.get("kind")
    if kind == "prime":
        return make_prime_field(doc["p"])
    if kind == "binary":
        return make_binary_field(doc["k"])
    raise ValueError(f"unknown field kind {kind!r}")


GF2 = make_prime_field(2)


@lru_cache(maxsize=None)
def discrete_log_tables(field: FieldDescriptor) -> tuple[list[int], list[int]]:
    """(exp, log) tables for a binary field with k <= 16.

    exp has length 2*(2^k - 1) so products of two logs index it directly
    without a modular reduction; log[0] is unused.
    """
    if field.kind != "binary" or field.k > 16:
        raise ValueError("log tables are only built for binary fields with k <= 16")
    order = field.order
    m = order - 1
    gen = None
    for g in range(2, order):
        ok = all(field.pow(g, m // q) != 1 for q in _prime_factors(m))
        if ok:
            gen = g
            break
    if gen is None:  # m == 1, i.e. GF(2)
        gen = 1
    exp = [0] * (2 * m)
    log = [0] * order
    acc = 1
    for i in range(m):
        exp[i] = acc
        exp[i + m] = acc
        log[acc] = i
        acc = field.mul(acc, gen)
    return exp, log
