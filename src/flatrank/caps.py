"""Every resource limit of a run, and the one refusal they share.

flatrank is exact at desk scale only, so each need that grows with the input
(cells of a grid, bytes of a sweep, rounds of an elimination, nodes of a
search) is compared with its limit here, by :func:`admit`, before anything of
that size is allocated, drawn or searched.  A refusal is a ValueError, exit 2
at the CLI, in one form::

    <what> needs [at least] <n> <unit>, over the cap of <cap> <unit>

Callers read ``caps.NAME`` when they run, so a limit is patched in one place.
The README's "Scope notes" table lists every limit with its value.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

# cells of one dense array: a tensor, a grid, a certificate, a document's body
MAX_ENTRIES = 1 << 24
# factors of one product: numpy's limit on the dimensions of an array
MAX_AXES = 64
# bytes a sweep may plan, with all it keeps or allocates besides
MAX_WORKSPACE_BYTES = 16 << 20
# shift-and-XOR rounds, k per GF(2^k > 16) multiplication, of one elimination:
# about two seconds at most
MAX_SHIFT_ROUNDS = 1 << 29
# nodes one backtracking search (odd cliques, rainbow matchings) may visit,
# about a second of search
MAX_SEARCH_NODES = 1 << 20
# free entries of an exhaustive GF(2) population: 2^22 tensors
MAX_FREE_ENTRIES = 22
# cells t^s of the bad-box sampler's ground set
MAX_BADBOX_GROUND = 25
# largest n of a report binomial C(n, r): C(8192, 4096) has 2,464 digits, json.dumps at most 4,300
MAX_BINOMIAL_TOP = 8192
# prime moduli stay below it: products of two residues fit in 64-bit intermediates
MAX_PRIME = 1 << 31
# largest sweep arena a thread keeps mapped once its sweep ends or raises: a
# larger one is unmapped then, so that what runs after the sweep (an
# exhaustive sweep's witnesses, the report) is never held on top of it
ARENA_KEEP_BYTES = 4 << 20


def admit(factors: Iterable[int], what: str, cap: int | None = None, unit: str = "cells") -> int:
    """The product of ``factors``, the need of ``what`` in ``unit``, once it is at most ``cap``.

    ``cap`` defaults to :data:`MAX_ENTRIES`.  The product is taken one factor
    at a time and refused (ValueError) as soon as it passes ``cap``, or past
    :data:`MAX_AXES` factors, so a^d for a huge d (``repeat(a, d)``) costs at
    most 64 steps, never the power.  A need refused before its last factor
    reads "at least".
    """
    cap = MAX_ENTRIES if cap is None else cap
    need, factors = 1, iter(factors)
    for axes, f in enumerate(factors, 1):
        need *= f
        if axes > MAX_AXES or need > cap:
            more = "at least " if next(factors, None) is not None else ""
            n, cap, unit = (axes, MAX_AXES, "axes") if axes > MAX_AXES else (need, cap, unit)
            raise ValueError(f"{what} needs {more}{n} {unit}, over the cap of {cap} {unit}")
    return need


def grid_shape(m: int, k: int) -> tuple[int, ...]:
    """(m,) * k, once the m^k cells of that grid are admitted."""
    admit(repeat(m, k), f"grid of {m}^{k}")
    return (m,) * k
