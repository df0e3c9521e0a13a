"""Per-trial random streams, and their draws for many trials at once.

Trial i of a run draws from its own generator ``trial_rng(seed, i)``,
so trials are order-independent.  This module owns what a trial draws:
``TrialDraws(seed, bound, count).block(start, stop)`` holds, for every
trial index i in [start, stop), exactly the draws of
``trial_rng(seed, i).integers(0, bound, size=count)``.

A block of several rows is derived in numpy over the whole block,
porting numpy's own algorithms stage by stage:

- ``SeedSequence`` entropy mixing of the words of ``[seed, i]`` into a
  four-word pool, and ``generate_state(4, uint64)`` from it;
- PCG64 seeding (``srandom``) and its XSL-RR output (O'Neill 2014, "PCG:
  A Family of Simple Fast Space-Efficient Statistically Good Algorithms
  for Random Number Generation").  The 128-bit state is held in two
  uint64 limbs, and output j is reached by the jump-ahead
  ``state_j = A_j * s + C_j * inc`` (mod 2^128) from the seeded state s
  and increment inc;
- the bounded draw ``integers`` makes for a bound of at most 2^32:
  32-bit halves of the outputs, low half first, each mapped to
  ``(u * bound) >> 32`` (Lemire 2019, "Fast Random Integer Generation in
  an Interval").

The derivation does not follow a redraw of Lemire's method (a low
product word below ``2^32 mod bound``): such a row comes from its own
generator.  It is only as right as the port of numpy's internals, so the
first derived row of each block is compared with its generator, and on
a mismatch the whole block is drawn trial by trial.  A block of one row
comes straight from its generator, and the jump table is built only
when a block of several rows first needs it: at 2^18 draws per trial,
building it takes about 0.2 s and one generator row a few milliseconds.
"""

from __future__ import annotations

import numpy as np

__all__ = ["TrialDraws", "trial_rng"]

_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1

# SeedSequence constants (numpy/random/bit_generator.pyx)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)

# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from (seed, trial)."""
    return np.random.default_rng([int(seed), int(trial)])


def _words(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    reads it (zero is one word)."""
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return words


def _hashmix(value, const: int, mult: int = _MULT_A):
    """SeedSequence's hashmix of uint32 ``value`` with hash constant
    ``const``; returns the mixed value and the next constant."""
    value = value ^ np.uint32(const)
    const = (const * mult) & _M32
    value = value * np.uint32(const)
    return value ^ (value >> _XSHIFT), const


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


def _pool(entropy: list) -> list:
    """SeedSequence's ``mix_entropy``: the four pool words, each a uint32
    array over the trials, from the entropy words (arrays that
    broadcast against each other)."""
    const = _INIT_A
    zero = np.zeros(1, np.uint32)
    pool = []
    for i in range(_POOL_SIZE):
        word, const = _hashmix(entropy[i] if i < len(entropy) else zero, const)
        pool.append(word)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                word, const = _hashmix(pool[src], const)
                pool[dst] = _mix(pool[dst], word)
    for src in range(_POOL_SIZE, len(entropy)):
        for dst in range(_POOL_SIZE):
            word, const = _hashmix(entropy[src], const)
            pool[dst] = _mix(pool[dst], word)
    return pool


def _state_words(pool: list) -> list:
    """``generate_state(4, uint64)`` as four uint64 arrays."""
    const = _INIT_B
    halves = []
    for i in range(8):
        value, const = _hashmix(pool[i % _POOL_SIZE], const, _MULT_B)
        halves.append(value.astype(np.uint64))
    return [lo | (hi << np.uint64(32)) for lo, hi in zip(halves[::2], halves[1::2])]


_U32 = np.uint64(32)
_LOW = np.uint64(_M32)


def _limbs(values: list) -> tuple:
    """(high, low) uint64 limbs of 128-bit ints."""
    return (
        np.array([v >> 64 for v in values], np.uint64),
        np.array([v & _M64 for v in values], np.uint64),
    )


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays a and b."""
    a0, a1 = a & _LOW, a >> _U32
    b0, b1 = b & _LOW, b >> _U32
    cross_ab, cross_ba = a0 * b1, a1 * b0
    mid = ((a0 * b0) >> _U32) + (cross_ab & _LOW) + (cross_ba & _LOW)
    return a1 * b1 + (cross_ab >> _U32) + (cross_ba >> _U32) + (mid >> _U32)


def _mul128(a: tuple, b: tuple) -> tuple:
    """Products mod 2^128 of (high, low) limb pairs."""
    return _mulhi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _add128(a: tuple, b: tuple) -> tuple:
    """Sums mod 2^128 of (high, low) limb pairs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _xsl_rr(state: tuple):
    """PCG's XSL-RR output of 128-bit states: the halves xor-ed, rotated
    right by the top six bits."""
    x = state[0] ^ state[1]
    rot = state[0] >> np.uint64(58)
    return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))


class TrialDraws:
    """The draws ``trial_rng(seed, i).integers(0, bound, size=count)``
    for blocks of trial indices i."""

    def __init__(self, seed: int, bound: int, count: int):
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2^32], got {bound}")
        if seed < 0:
            # numpy's SeedSequence refuses it too; ``_words`` would not end
            raise ValueError(f"seed must be nonnegative, got {seed}")
        self.seed = int(seed)
        self.bound = int(bound)
        self.count = int(count)
        self._seed_words = [np.array([w], np.uint32) for w in _words(self.seed)]
        self._jumps = None

    def row(self, trial: int) -> np.ndarray:
        """One trial's draws, from its own generator."""
        return trial_rng(self.seed, trial).integers(0, self.bound, size=self.count)

    def block(self, start: int, stop: int) -> np.ndarray:
        """Draws of trials start..stop-1: a (stop - start, count) int64
        array whose row r is exactly ``self.row(start + r)``."""
        if not 0 <= start <= stop <= 1 << 32:
            # a larger index is two entropy words, not one
            raise ValueError(f"trial indices must be below 2^32, got {start}..{stop}")
        if stop - start == 1:
            return self.row(start)[None]
        draws, redo = self._derive(start, stop)
        kept = np.flatnonzero(~redo)
        if kept.size and not np.array_equal(
            draws[kept[0]], self.row(start + kept[0])
        ):
            # this numpy derives its streams otherwise than this module
            return np.stack([self.row(i) for i in range(start, stop)])
        for r in np.flatnonzero(redo):
            draws[r] = self.row(start + r)
        return draws

    def _jump_table(self) -> tuple:
        """(A_j, C_j) limbs of the jump-ahead to each output j, built once."""
        if self._jumps is None:
            # seeding leaves state M*s + (1 + M)*inc; each output steps
            # state -> M*state + inc first, so output j reads the state
            # M^(j+1)*s + (1 + M + ... + M^(j+1))*inc
            a, c = _PCG_MULT, 1 + _PCG_MULT
            jumps = []
            for _ in range((self.count + 1) // 2):
                a = (a * _PCG_MULT) & _M128
                c = (c * _PCG_MULT + 1) & _M128
                jumps.append((a, c))
            self._jumps = _limbs([a for a, _ in jumps]), _limbs([c for _, c in jumps])
        return self._jumps

    def _derive(self, start: int, stop: int) -> tuple:
        """(draws, redo) for trials start..stop-1, derived in bulk: row r
        of ``draws`` is exact unless Lemire's method redraws in it
        (``redo[r]``)."""
        rows = stop - start
        if self.bound == 1:
            # integers(0, 1) returns zeros and consumes no output
            return np.zeros((rows, self.count), np.int64), np.zeros(rows, bool)
        trials = np.arange(start, stop, dtype=np.uint32)
        words = _state_words(_pool(self._seed_words + [trials]))
        seed_state = (words[0][:, None], words[1][:, None])
        # srandom's increment is (initseq << 1) | 1
        inc = (
            ((words[2] << np.uint64(1)) | (words[3] >> np.uint64(63)))[:, None],
            ((words[3] << np.uint64(1)) | np.uint64(1))[:, None],
        )
        jump_a, jump_c = self._jump_table()
        out = _xsl_rr(_add128(_mul128(jump_a, seed_state), _mul128(jump_c, inc)))
        # the width is explicit: an empty block gives reshape nothing to infer
        halves = np.stack([out & _LOW, out >> _U32], axis=-1)
        halves = halves.reshape(rows, 2 * out.shape[1])
        scaled = halves[:, : self.count] * np.uint64(self.bound)
        redo = ((scaled & _LOW) < (1 << 32) % self.bound).any(axis=1)
        return (scaled >> _U32).astype(np.int64), redo
