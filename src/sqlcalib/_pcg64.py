"""numpy's `Generator(PCG64(seed))` stream in Python integers, for the two
methods sqlcalib draws with: `permutation(n)` and `random(n)`.

SeedSequence hashes the seed's 32-bit words into a pool of four and draws
four 64-bit words from it; PCG64 (O'Neill 2014) is a 128-bit LCG whose
output is the XSL-RR of each new state. Every draw equals numpy's bit for
bit (a test pins it), and no numpy module is loaded.
"""

from __future__ import annotations

from typing import Callable

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hasher(h: int, mult: int) -> Callable[[int], int]:
    """SeedSequence's hashmix of 32-bit words, with its running constant."""
    def hashmix(value: int) -> int:
        nonlocal h
        value = (value ^ h) * (h := h * mult & _M32) & _M32
        return value ^ value >> 16
    return hashmix


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return r ^ r >> 16


def _seed_words(seed: int) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64)."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> k & _M32 for k in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    out = list(map(_hasher(0x8B51F9DD, 0x58F38DED), pool + pool))
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    def __init__(self, seed: int) -> None:
        s0, s1, i0, i1 = _seed_words(seed)
        self._inc = (i0 << 64 | i1) << 1 & _M128 | 1
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULT + self._inc) & _M128
        self._half: int | None = None  # the buffered upper half of a 64-bit draw

    def _next64(self) -> int:
        self._state = s = (self._state * _MULT + self._inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        if self._half is not None:
            value, self._half = self._half, None
            return value
        value = self._next64()
        self._half = value >> 32
        return value & _M32

    def permutation(self, n: int) -> list[int]:
        """Fisher-Yates from the top; each index drawn by masked rejection."""
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._next32() & mask) > i:
                pass
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def random(self, n: int) -> list[float]:
        """n doubles on [0, 1), 53 bits each."""
        return [(self._next64() >> 11) * 2.0 ** -53 for _ in range(n)]
