"""numpy's default random stream in pure Python: SeedSequence -> PCG64 -> doubles.

``Generator(entropy).random(n)`` equals
``numpy.random.default_rng(entropy).random(n).tolist()`` bit for bit, for
an entropy that is a sequence of non-negative ints: the entropy is
hashed into a 128-bit state and increment as numpy's ``SeedSequence``
does, with its mixing constants generated at each seeding, as many as
the entropy needs; the state advances by PCG's 128-bit LCG step, and
each output is the XSL-RR permutation of the advanced state (O'Neill
2014), whose top 53 bits scale into [0, 1).  The sweep needs three
uniforms per trial, which do not pay for importing numpy.
"""

from __future__ import annotations

from itertools import cycle

__all__ = ["Generator"]

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
# Bits 64.. of x * (2**64 + 1) are x again, so shifting the product right by
# rot + 11 gives the 64-bit rotation of x by rot, already shifted to 53 bits.
_TWICE = 2**64 + 1
_MASK53 = 2**53 - 1
_SCALE = 2.0**-53

# SeedSequence's pool holds 4 words.  Its hash constants run through fixed
# sequences, whatever the entropy; the 8 pairs of the output step are
# computed once here.


def _constants(start: int, multiplier: int, count: int) -> list[tuple[int, int]]:
    values = [start]
    for _ in range(count):
        values.append(values[-1] * multiplier & _MASK32)
    return list(zip(values, values[1:]))


_MIX_START, _MIX_MULTIPLIER = 0x43B0D7E5, 0x931E8875
_STATE_CONSTANTS = _constants(0x8B51F9DD, 0x58F38DED, 8)


def _words(n: int) -> list[int]:
    """The 32-bit words of a non-negative int, least significant first; [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _mix(x: int, y: int) -> int:
    r = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
    return r ^ r >> 16


def _seed(entropy: list[int]) -> tuple[int, int]:
    """SeedSequence(entropy).generate_state(4, uint64) as PCG64's (state, increment)."""
    hashes = iter(_constants(_MIX_START, _MIX_MULTIPLIER, 16 + 4 * max(0, len(entropy) - 4)))

    def hashmix(value: int) -> int:
        first, second = next(hashes)
        value = (value ^ first) * second & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))

    state = []
    for value, (first, second) in zip(cycle(pool), _STATE_CONSTANTS):
        value = (value ^ first) * second & _MASK32
        state.append(value ^ value >> 16)
    w = [state[2 * i] | state[2 * i + 1] << 32 for i in range(4)]
    return w[0] << 64 | w[1], w[2] << 64 | w[3]


class Generator:
    """A PCG64 stream seeded from a sequence of non-negative ints."""

    __slots__ = ("_state", "_increment")

    def __init__(self, entropy):
        initial, sequence = _seed([word for n in entropy for word in _words(n)])
        self._increment = increment = (sequence << 1 | 1) & _MASK128
        self._state = ((increment + initial) * _MULTIPLIER + increment) & _MASK128

    def random(self, n: int) -> list[float]:
        """n uniform doubles in [0, 1), as ``numpy.random.Generator.random`` draws them."""
        state = self._state
        increment = self._increment
        out = []
        for _ in range(n):
            state = (state * _MULTIPLIER + increment) & _MASK128
            folded = (state >> 64 ^ state) & _MASK64
            out.append((folded * _TWICE >> (state >> 122) + 11 & _MASK53) * _SCALE)
        self._state = state
        return out
