"""Seeded random streams: the model's generated draw and every trial's
draws, derived in numpy without ``numpy.random``.

The streams are numpy's, ported stage by stage, so ``default_rng`` is
the oracle the tests check them against:

- ``SeedSequence`` entropy mixing of the seed's words into a four-word
  pool, and ``generate_state(4, uint64)`` from it;
- PCG64 seeding (``srandom``) and its XSL-RR output (O'Neill 2014, "PCG:
  A Family of Simple Fast Space-Efficient Statistically Good Algorithms
  for Random Number Generation").  The 128-bit state is held in two
  uint64 limbs, and the j-th next output is reached by the jump-ahead
  ``state_j = M^(j+1) * s + (1 + M + ... + M^j) * inc`` (mod 2^128) from
  the current state s, with the multiplier M and increment inc;
- ``uniform(seed, lo, hi, size)`` is ``default_rng(seed).uniform(lo,
  hi, size)``: 53 bits of each output, ``lo + (hi - lo) * u``;
- ``TrialDraws(seed, bound, count).block(start, stop)`` holds, for every
  trial index i in [start, stop), the draws of
  ``trial_rng(seed, i).integers(0, bound, size=count)``: 32-bit halves
  of the outputs, low half first, each mapped to ``(u * bound) >> 32``
  (Lemire 2019, "Fast Random Integer Generation in an Interval").
  A half whose low product word is below ``2^32 mod bound`` is redrawn
  from the next half of the same stream.

The stream definition is this module's, so the same seed gives the same
draws under any numpy release.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["TrialDraws", "trial_rng", "uniform"]

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

# outputs per jump-ahead: bounds the jump table and each step's temporaries
_SEGMENT = 1 << 14


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The generator whose draws trial ``trial`` of a run seeded ``seed``
    makes; ``TrialDraws`` derives the same draws without building it."""
    return np.random.default_rng([int(seed), int(trial)])


def _words(n: int) -> list:
    """Little-endian 32-bit words of a nonnegative int, as SeedSequence
    reads it (zero is one word), each a one-element uint32 array."""
    if n < 0:
        # numpy's SeedSequence refuses it too; the loop would not end
        raise ValueError(f"seed must be nonnegative, got {n}")
    words = [n & _M32]
    n >>= 32
    while n:
        words.append(n & _M32)
        n >>= 32
    return [np.array([w], np.uint32) for w in words]


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
    array over the streams, from the entropy words (arrays that
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


def _limbs(value: int) -> tuple:
    """(high, low) uint64 limbs of a 128-bit int."""
    return np.uint64(value >> 64), np.uint64(value & _M64)


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


def _seeded(entropy: list) -> tuple:
    """(state, inc) limb pairs, each limb a (streams, 1) array, of the
    PCG64 streams seeded from ``SeedSequence(entropy)``: srandom takes
    the increment ``(initseq << 1) | 1`` and leaves the state
    ``M * (s + inc) + inc``."""
    words = [w[:, None] for w in _state_words(_pool(entropy))]
    inc = (
        (words[2] << np.uint64(1)) | (words[3] >> np.uint64(63)),
        (words[3] << np.uint64(1)) | np.uint64(1),
    )
    state = _add128(_mul128(_limbs(_PCG_MULT), _add128((words[0], words[1]), inc)), inc)
    return state, inc


@lru_cache(maxsize=8)
def _jumps(n: int) -> tuple:
    """(A_j, C_j) limbs, j < n, of the jump-ahead ``state_j = A_j * s +
    C_j * inc`` to the j-th next output, by doubling: the table for the
    next k outputs, stepped k further, is the table for the k after."""
    a = tuple(np.array([x]) for x in _limbs(_PCG_MULT))
    c = tuple(np.array([x]) for x in _limbs(1))
    power, total = _PCG_MULT, 1  # M^k and 1 + M + ... + M^(k-1)
    while len(a[0]) < n:
        step = _limbs(power)
        a = tuple(map(np.concatenate, zip(a, _mul128(step, a))))
        c = tuple(map(np.concatenate, zip(c, _add128(_mul128(step, c), _limbs(total)))))
        power, total = (power * power) & _M128, (total * (1 + power)) & _M128
    return tuple(x[:n] for x in a), tuple(x[:n] for x in c)


def _outputs(state: tuple, inc: tuple, n: int) -> tuple:
    """The next ``n`` outputs of each stream, a (streams, n) uint64 array,
    and the state after them."""
    jump_a, jump_c = _jumps(min(n, _SEGMENT))
    out = np.empty((len(state[0]), n), np.uint64)
    for at in range(0, n, _SEGMENT):
        width = min(n - at, _SEGMENT)
        a, c = (tuple(x[:width] for x in jump) for jump in (jump_a, jump_c))
        states = _add128(_mul128(a, state), _mul128(c, inc))
        out[:, at : at + width] = _xsl_rr(states)
        state = tuple(x[:, -1:] for x in states)
    return out, state


def _halves(out: np.ndarray) -> np.ndarray:
    """The 32-bit halves of each stream's outputs, low half first."""
    halves = np.stack([out & _LOW, out >> _U32], axis=-1)
    # the width is explicit: an empty block gives reshape nothing to infer
    return halves.reshape(len(out), 2 * out.shape[1])


def uniform(seed: int, lo: float, hi: float, size: int) -> np.ndarray:
    """``default_rng(seed).uniform(lo, hi, size)``: ``size`` float64 draws
    ``lo + (hi - lo) * u``, u the top 53 bits of an output over 2^53."""
    raw, _ = _outputs(*_seeded(_words(seed)), size)
    raw >>= np.uint64(11)
    draws = raw[0] * 2.0**-53  # exact: 53-bit integers over 2^53
    del raw  # at the 2^24-entry model budget, each array is 128 MiB
    draws *= hi - lo
    draws += lo
    return draws


class TrialDraws:
    """The draws ``trial_rng(seed, i).integers(0, bound, size=count)``
    for blocks of trial indices i."""

    def __init__(self, seed: int, bound: int, count: int):
        if not 1 <= bound <= 1 << 32:
            raise ValueError(f"bound must be in [1, 2^32], got {bound}")
        self._seed_words = _words(int(seed))
        self.bound = int(bound)
        self.count = int(count)
        self._threshold = np.uint64((1 << 32) % self.bound)

    def block(self, start: int, stop: int) -> np.ndarray:
        """Draws of trials start..stop-1: a (stop - start, count) int64
        array whose row r holds the draws of ``trial_rng(seed, start + r)``."""
        if not 0 <= start <= stop <= 1 << 32:
            # a larger index is two entropy words, not one
            raise ValueError(f"trial indices must be below 2^32, got {start}..{stop}")
        if self.bound == 1:
            # integers(0, 1) returns zeros and consumes no output
            return np.zeros((stop - start, self.count), np.int64)
        trials = np.arange(start, stop, dtype=np.uint32)
        state, inc = _seeded(self._seed_words + [trials])
        out, end = _outputs(state, inc, (self.count + 1) // 2)
        scaled = _halves(out) * np.uint64(self.bound)
        draws = (scaled[:, : self.count] >> _U32).astype(np.int64)
        redrawn = (scaled[:, : self.count] & _LOW) < self._threshold
        for r in np.flatnonzero(redrawn.any(axis=1)):
            limbs = [[x[r : r + 1] for x in pair] for pair in (end, inc)]
            draws[r] = self._redraw(scaled[r], *limbs)
        return draws

    def _redraw(self, scaled, state, inc) -> np.ndarray:
        """One stream's draws when Lemire's method redraws in it: each draw
        takes the next half whose low product word is not below the
        threshold, continuing the stream past ``scaled`` as needed."""
        while True:
            kept = scaled[(scaled & _LOW) >= self._threshold]
            if kept.size >= self.count:
                return (kept[: self.count] >> _U32).astype(np.int64)
            out, state = _outputs(state, inc, self.count)
            scaled = np.concatenate([scaled, _halves(out)[0] * np.uint64(self.bound)])
