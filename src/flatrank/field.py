"""Exact arithmetic in GF(p) and GF(2^k).

Elements are plain integers ("representatives"): residues in [0, p) for prime
fields, polynomial bit-masks of degree < k for binary extension fields.  A
:class:`FieldDescriptor` owns the arithmetic on those representatives; hot
loops elsewhere in the package work on raw representatives, most of them in
numpy arrays.

Binary fields reduce modulo the first low-weight polynomial that the Rabin
test finds irreducible (a trinomial where one exists, else a pentanomial),
searched once per k = 1..63.  :func:`discrete_log_tables` holds the numpy
exp and log tables of GF(2^k <= 16) that the vectorised kernels multiply
through.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

import numpy as np

__all__ = [
    "FieldDescriptor",
    "make_prime_field",
    "make_binary_field",
    "GF2",
]

MAX_PRIME = 1 << 31  # products of two residues must fit in 64-bit intermediates

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


def _is_irreducible(f: int, k: int) -> bool:
    """Rabin irreducibility test for a degree-k polynomial over GF(2)."""
    if f.bit_length() - 1 != k or not (f & 1):
        return False
    if k == 1:
        return True
    # x^(2^e) is read in GF(2)[x]/(f), which is a ring whether f is irreducible or not
    ring = FieldDescriptor(kind="binary", k=k, reduction_poly=f)
    if ring.pow(2, 1 << k) != 2:
        return False
    return all(_pgcd(f, ring.pow(2, 1 << (k // q)) ^ 2) == 1 for q in _prime_factors(k))


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
    """Descriptor for GF(2^k), 1 <= k <= 63, reduced modulo :func:`_reduction_poly`."""
    if type(k) is not int or not 1 <= k <= 63:
        raise ValueError(f"extension degree must satisfy 1 <= k <= 63, got {k!r}")
    return FieldDescriptor(kind="binary", k=k, reduction_poly=_reduction_poly(k))


@lru_cache(maxsize=None)
def _reduction_poly(k: int) -> int:
    """The reduction polynomial of GF(2^k), a bit-mask including the leading x^k term.

    The first polynomial the Rabin test finds irreducible, lowest weight
    first: x^k + 1 (irreducible only for k = 1), the trinomials x^k + x^a + 1
    by increasing a, then the pentanomials x^k + x^c + x^b + x^a + 1 by
    increasing (c, b, a).  Every k <= 63 has a trinomial or a pentanomial.

    Called only with an int ``k``: ``True == 1`` would share GF(2)'s entry.
    """
    ends = 1 << k | 1
    trinomials = (ends | 1 << a for a in range(1, k))
    pentanomials = (
        ends | 1 << c | 1 << b | 1 << a
        for c in range(3, k)
        for b in range(2, c)
        for a in range(1, b)
    )
    return next(f for f in chain([ends], trinomials, pentanomials) if _is_irreducible(f, k))


GF2 = make_prime_field(2)


def binary_mul_add(out, x, y, field, shift, bits, term) -> None:
    """``out ^= x * y`` in GF(2^k), elementwise and broadcasting, by k rounds of shift and XOR.

    The scratch arrays are in ``out``'s dtype (unsigned, or int64 for k < 63):
    ``shift`` holds two arrays of ``x``'s shape, ``bits`` is of ``y``'s and
    ``term`` of ``out``'s.  Doubling ``x`` carries its top bit out, to come
    back as the reduction polynomial's lower terms, so k = 32 fits uint32.
    """
    shifted, carry = shift
    low = field.reduction_poly & int(np.iinfo(out.dtype).max)  # x^k is the carried bit
    np.copyto(shifted, x)
    for i in range(field.k):
        np.right_shift(y, i, out=bits)
        bits &= 1
        out ^= np.multiply(bits, shifted, out=term)
        np.right_shift(shifted, field.k - 1, out=carry)
        shifted <<= 1
        carry *= low
        shifted ^= carry


def _log_table_sizes(field: FieldDescriptor) -> dict[str, tuple[int, np.dtype]]:
    """Item counts and dtypes of :func:`discrete_log_tables` for ``field``.

    ``exp`` and ``log`` are the tables, kept for the process; ``scratch`` is
    the most int64 items their build holds besides them at once.
    """
    m = field.order - 1
    zero = 3 * m - 1
    return {
        "exp": (2 * zero + 1, np.min_scalar_type(m)),
        "log": (field.order, np.min_scalar_type(2 * zero)),
        "scratch": (3 * m, np.int64),
    }


@lru_cache(maxsize=None)
def discrete_log_tables(field: FieldDescriptor) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) of a binary field with k <= 16, for products read at summed logs.

    ``log[0]`` is the sentinel z = 3(q-1) - 1, past every sum of three logs
    of nonzero elements, and ``exp`` runs on to 2z as zeros, so ``exp[log a +
    log b] == a * b`` for all a, b including 0.  ``exp[i]`` is g^(i mod (q-1))
    below z, for the least generator g of the multiplicative group.  ``exp``
    is in the elements' dtype, ``log`` in the narrowest unsigned dtype holding
    2z, and both are read-only; :func:`_log_table_sizes` gives their sizes.
    """
    if field.kind != "binary" or field.k > 16:
        raise ValueError("log tables are only built for binary fields with k <= 16")
    sizes = _log_table_sizes(field)
    exp, log = (np.zeros(*sizes[name]) for name in ("exp", "log"))
    m = field.order - 1
    factors = _prime_factors(m)  # none for GF(2), whose group {1} is generated by 1
    gen = next(g for g in range(1, field.order) if all(field.pow(g, m // q) != 1 for q in factors))
    # powers[i] = g^i, doubled: g^(n+i) = g^i * g^n
    powers = np.zeros(m, np.int64)
    powers[0], n, g_n = 1, 1, gen
    shift = np.empty((2, 1), np.int64)
    scratch = np.empty((2, m // 2), np.int64)  # bits and term
    while n < m:
        x = powers[: min(n, m - n)]
        binary_mul_add(powers[n : n + x.size], g_n, x, field, shift, *scratch[:, : x.size])
        n, g_n = 2 * n, field.mul(g_n, g_n)
    del scratch  # freed before the tables are filled
    zero = 3 * m - 1
    exp[:zero] = np.resize(powers.astype(exp.dtype), zero)
    log[powers] = np.arange(m)
    log[0] = zero
    for table in (exp, log):
        table.flags.writeable = False
    return exp, log
