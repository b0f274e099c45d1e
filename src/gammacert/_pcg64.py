"""numpy's PCG64 stream, seeded as ``np.random.default_rng(seed)`` seeds it.

Package-internal: ``suites.ratio_samples`` imports this module on first use,
so only a process that draws thm1's samples compiles it, and none loads
numpy.random (with secrets, hmac and _hashlib) for them.  The draws are
those of numpy bit for bit, and pinned here: NEP 19 does not fix a
Generator's stream across numpy releases.

- SeedSequence(seed) hashes the seed's 32-bit words, least significant
  first, into a pool of four words, and generate_state(4, uint64) gives
  (initstate, initseq), each the high and low halves of a 128-bit number;
- pcg_setseq_128_srandom_r seeds the 128-bit LCG, and each uint64 is the
  XSL-RR output of the next state (O'Neill, 2014);
- a double is (next_uint64 >> 11) * 2**-53, and uniform(low, high) is
  low + (high - low) * double, drawn in C order as Generator.uniform draws
  an (m, n) array against n bounds.
"""

from __future__ import annotations

__all__: list[str] = []  # package-internal

_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645  # PCG_DEFAULT_MULTIPLIER_128


def _seed_state(seed: int) -> tuple[int, int]:
    """(initstate, initseq) of SeedSequence(seed).generate_state(4, uint64)."""
    entropy = [seed & _M32]
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        words.append(value ^ value >> 16)
    s0, s1, s2, s3 = (words[i] | words[i + 1] << 32 for i in range(0, 8, 2))
    return s0 << 64 | s1, s2 << 64 | s3


class PCG64:
    """The stream of np.random.default_rng(seed), seed an int >= 0."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int) -> None:
        initstate, initseq = _seed_state(seed)
        self.inc = (initseq << 1 | 1) & _M128
        # srandom: a step from state 0 (which gives inc), + initstate, a step
        self.state = ((self.inc + initstate) * _MULTIPLIER + self.inc) & _M128

    def uniform(self, low, high, rows: int) -> list[list[float]]:
        """rows rows of uniform draws, one per bound pair (low[j], high[j])."""
        spans = [h - lo for lo, h in zip(low, high)]
        state, inc, out = self.state, self.inc, []
        for _ in range(rows):
            row = []
            for lo, span in zip(low, spans):
                state = (state * _MULTIPLIER + inc) & _M128
                word = (state >> 64 ^ state) & 0xFFFFFFFFFFFFFFFF
                rot = state >> 122
                word = (word >> rot | word << (64 - rot)) & 0xFFFFFFFFFFFFFFFF
                row.append(lo + span * ((word >> 11) * 2.0 ** -53))
            out.append(row)
        self.state = state
        return out
