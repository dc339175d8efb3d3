"""numpy's ``default_rng(seed).uniform`` stream, bit for bit, in pure Python.

The verify suites draw about a thousand numbers; loading ``numpy.random``
for them would cost every process that imports the CLI several megabytes.
A seed runs numpy's ``SeedSequence`` (a pool of four 32-bit words), which
seeds PCG64: a 128-bit LCG whose XSL-RR output gives 64 bits per step.
"""

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_words(seed: int) -> list[int]:
    """Four 64-bit words from ``SeedSequence(seed).generate_state(4, uint64)``."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    out, hash_const = [], 0x8B51F9DD
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class PCG64:
    """The draws of ``numpy.random.default_rng(seed)``, one uniform at a time."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed: int) -> None:
        w0, w1, w2, w3 = _seed_words(seed)
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _M128
        self._state = 0
        self._next64()
        self._state = (self._state + (w0 << 64 | w1)) & _M128
        self._next64()

    def _next64(self) -> int:
        self._state = state = (self._state * _MULT + self._inc) & _M128
        x = (state >> 64 ^ state) & _M64
        rot = state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low: float, high: float) -> float:
        """The next draw of ``Generator.uniform(low, high)``."""
        return low + (high - low) * ((self._next64() >> 11) * 2.0**-53)
