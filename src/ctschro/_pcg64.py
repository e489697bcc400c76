"""The stream of ``numpy.random.default_rng(seed)``, in plain Python, for
the two draws the kernel bound check makes: ``uniform(low, high)`` and
``integers(low, high)``.  Every value is the one numpy gives, bit for bit,
so seeded samples are those of the numpy generator, and a run that draws
them does not import ``numpy.random`` (6 MB of peak RSS with numpy 2.4).

numpy seeds PCG64 through ``SeedSequence``: the seed's 32-bit words are
hashed into a pool of four words, from which eight output words make the
128-bit initial state and increment (numpy/random/bit_generator.pyx).
PCG64 then steps its 128-bit LCG and returns the XSL-RR output of the new
state (O'Neill, "PCG: A Family of Simple Fast Space-Efficient Statistically
Good Algorithms for Random Number Generation", 2014).  A double takes the
top 53 bits of one output; a bounded integer takes Lemire's multiply and
reject on 32-bit draws, which use each 64-bit output twice, low half
first, and keep the upper half between draws (numpy/random/src).
"""

from __future__ import annotations

import operator

from .errors import DomainError

_MASK32 = 2 ** 32 - 1
_MASK64 = 2 ** 64 - 1
_MASK128 = 2 ** 128 - 1

# SeedSequence's hash constants and pool size
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16
_POOL_SIZE = 4

# PCG64's LCG multiplier
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed: int) -> tuple[int, int]:
    """(initial state, increment seed) that ``SeedSequence(seed)`` hands to
    PCG64: its ``generate_state(4, uint64)`` as two 128-bit integers."""
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> _XSHIFT

    def mix(x: int, y: int) -> int:
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return r ^ r >> _XSHIFT

    pool = [hashmix(entropy[i] if i < len(entropy) else 0)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> _XSHIFT)
    # eight 32-bit words, least significant first, make four 64-bit ones;
    # each 128-bit value is its first 64-bit word over its second
    w64 = [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]
    return w64[0] << 64 | w64[1], w64[2] << 64 | w64[3]


class Stream:
    """``numpy.random.default_rng(seed)``, restricted to ``uniform`` and
    ``integers`` of scalar bounds.  The seed is an integer, as numpy's is;
    one below 0 raises ``DomainError``."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if seed < 0:
            raise DomainError(f"seed must be at least 0, got {seed}")
        state, seq = _seed_state(seed)
        self._inc = (seq << 1 | 1) & _MASK128
        # PCG's srandom: step from 0, add the initial state, step again
        self._state = (self._inc + state) * _PCG_MULT + self._inc & _MASK128
        self._upper = None

    def _next64(self) -> int:
        self._state = s = self._state * _PCG_MULT + self._inc & _MASK128
        x = (s >> 64) ^ (s & _MASK64)
        rot = s >> 122
        return (x >> rot | x << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        if self._upper is not None:
            value, self._upper = self._upper, None
            return value
        x = self._next64()
        self._upper = x >> 32
        return x & _MASK32

    def uniform(self, low: float, high: float) -> float:
        """A double in [low, high): low + (high - low) u, with u the top 53
        bits of one output over 2**53."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0 ** -53)

    def integers(self, low: int, high: int) -> int:
        """An integer in [low, high), for high - low in [1, 2**32): Lemire's
        bounded draw, and ``low`` with no draw when high - low is 1."""
        n = high - low
        if not 0 < n <= _MASK32:
            raise ValueError(f"integers needs 1 <= high - low < 2**32, "
                             f"got {n}")
        if n == 1:
            return low
        m = self._next32() * n
        if m & _MASK32 < n:
            threshold = (_MASK32 + 1 - n) % n
            while m & _MASK32 < threshold:
                m = self._next32() * n
        return low + (m >> 32)
