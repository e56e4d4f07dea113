"""Deterministic splitmix64 generator, specified bit-for-bit.

    state_{i+1} = (state_i + 0x9E3779B97F4A7C15) mod 2^64
    output_i    = mix(state_{i+1})
    mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
            z *= 0x94D049BB133111EB; z ^= z >> 31   (all mod 2^64)

``next_below(n)`` is ``next_u64() % n``.  Derived sub-stream j of seed s is
seeded with ``mix((s ^ ((j + 1) * 0x9E3779B97F4A7C15)) mod 2^64)``; the numpy
helpers reproduce the exact same words in bulk, written into buffers the
caller owns, so a sweep's blocks allocate nothing.
"""

from __future__ import annotations

import numpy as np

__all__ = ["MASK64", "GOLDEN", "mix64", "Rng", "mix64_np", "stream_words_np", "sub_seeds_np"]

MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class Rng:
    """Splitmix64 stream; identical seeds yield identical streams."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & MASK64
        return mix64(self._state)

    def next_below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("next_below needs a positive bound")
        return self.next_u64() % n

    @staticmethod
    def sub_seed(seed: int, index: int) -> int:
        return mix64((seed ^ ((index + 1) * GOLDEN)) & MASK64)


def mix64_np(z: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Apply ``mix`` to every word of the uint64 array ``z``, in place.

    ``tmp`` is scratch of z's shape.
    """
    for shift, factor in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        z *= np.uint64(factor)  # array products wrap mod 2^64
    np.right_shift(z, 31, out=tmp)
    z ^= tmp
    return z


def sub_seeds_np(seed: int, start: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out[j] = Rng.sub_seed(seed, start + j)``, written into the uint64 array ``out``.

    ``tmp`` is scratch of out's shape; nothing else is allocated.
    """
    out.fill(GOLDEN)
    out[0] = (start + 1) * GOLDEN & MASK64
    np.cumsum(out, out=out)  # (start + 1 + j) * GOLDEN mod 2^64
    out ^= np.uint64(seed)
    return mix64_np(out, tmp)


def stream_words_np(sub_seeds: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Row j of the (N, nwords) uint64 ``out``: the first outputs of ``Rng(sub_seeds[j])``.

    ``tmp`` is scratch of out's shape.
    """
    steps = np.arange(1, out.shape[1] + 1, dtype=np.uint64)
    steps *= np.uint64(GOLDEN)
    np.add(sub_seeds[:, None], steps, out=out)
    return mix64_np(out, tmp)
