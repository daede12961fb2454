"""numpy's default_rng(seed) stream, computed in the package, for the scan.

Importing numpy.random costs each scan process about 5.5 MB of peak RSS
and 12 ms, and numpy may change a Generator's stream between releases
(NEP 19).
The stream lives in a module of its own, which the scan alone imports:
without a bytecode cache every start parses what it imports, and kept in
constraints.py these lines raised every command's peak RSS by 0.6 MB.
"""

import numpy as np

# PCG64's multiplier, and the word masks of its seeding and its state
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1


class _DefaultRng:
    """numpy's default_rng(seed) for a seed >= 0, bit for bit: PCG64 (XSL-RR
    output, a 128-bit state) seeded by SeedSequence(seed), as numpy's
    bit_generator.pyx and pcg64.h write them. Only uniform is drawn."""

    def __init__(self, seed: int):
        entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
        h, mult = 0x43B0D7E5, 0x931E8875

        def hashmix(v):
            nonlocal h
            h, v = h * mult & _M32, v ^ h
            v = v * h & _M32
            return v ^ v >> 16

        def mix(x, y):
            r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
            return r ^ r >> 16

        pool = [hashmix(v) for v in (entropy + [0] * 4)[:4]]
        for i in range(4):
            for j in range(4):
                if i != j:
                    pool[j] = mix(pool[j], hashmix(pool[i]))
        for v in entropy[4:]:
            for j in range(4):
                pool[j] = mix(pool[j], hashmix(v))
        h, mult = 0x8B51F9DD, 0x58F38DED  # generate_state(4, uint64)
        w = [hashmix(v) for v in pool * 2]
        state, seq = (w[i + 1] << 96 | w[i] << 64 | w[i + 3] << 32 | w[i + 2] for i in (0, 4))
        # from state 0: a step, the seed's state added, a step
        self.inc = (seq << 1 | 1) & _M128
        self.state = ((self.inc + state) * _MULT + self.inc) & _M128

    def uniform(self, low: float, high: float, size: tuple[int, int]) -> np.ndarray:
        """Generator.uniform(low, high, size): a step per value, in row
        order, its output's top 53 bits scaled to [0, 1), then to the range."""
        state, inc = self.state, self.inc
        states = [state := (state * _MULT + inc) & _M128 for _ in range(size[0] * size[1])]
        self.state = state
        lo, hi = np.frombuffer(b"".join([s.to_bytes(16, "little") for s in states]),
                               "<u8").reshape(-1, 2).T
        x, rot = hi ^ lo, hi >> 58
        out = x >> rot | x << (64 - rot & 63)
        return (low + (high - low) * ((out >> 11) * 2.0 ** -53)).reshape(size)
