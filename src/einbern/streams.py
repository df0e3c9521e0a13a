"""Seeded random streams: the model's generated draw and every trial's
draws, derived in numpy without ``numpy.random``.

The streams are numpy's, ported stage by stage, so ``default_rng`` is
the oracle the tests check them against:

- ``SeedSequence`` entropy mixing of the seed's words into a four-word
  pool, and ``generate_state(4, uint64)`` from it;
- PCG64 seeding (``srandom``) and its XSL-RR output (O'Neill 2014, "PCG:
  A Family of Simple Fast Space-Efficient Statistically Good Algorithms
  for Random Number Generation").  The 128-bit state is held in two
  uint64 limbs.  The j-th next output is reached by jump-ahead, as the
  j+1-fold PCG step ``T(s) = M * s + inc`` (mod 2^128): an affine map
  ``A * s + C * inc``, composed from small tables of its powers;
- ``uniform(seed, lo, hi, size)`` is ``default_rng(seed).uniform(lo,
  hi, size)``: 53 bits of each output, ``lo + (hi - lo) * u``;
- ``TrialDraws(seed, bound, count).block(start, stop)`` holds, for every
  trial index i in [start, stop), the draws of
  ``default_rng([seed, i]).integers(0, bound, size=count)``: 32-bit halves
  of the outputs, low half first, each mapped to ``(u * bound) >> 32``
  (Lemire 2019, "Fast Random Integer Generation in an Interval").
  A half whose low product word is below ``2^32 mod bound`` is redrawn
  from the next half of the same stream; a trial that redraws derives
  its stream again from its seed, longer.

The stream definition is this module's, so the same seed gives the same
draws under any numpy release.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate

import numpy as np

__all__ = ["TrialDraws", "uniform"]

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

# a stream of at most _DIRECT outputs is one row, a longer one rows x
# columns; tiles of at most _TILE outputs bound every temporary
_DIRECT, _TILE = 64, 1 << 13


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


def _hash_consts(count: int, init: int, mult: int) -> np.ndarray:
    """The (xor, mult) constants, a (2, count, 1) uint32 array, of
    SeedSequence's next ``count`` hashmix calls from constant ``init``."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _M32)
    return np.array([consts[:-1], consts[1:]], np.uint32)[:, :, None]


def _hashmix(values, consts: np.ndarray):
    """SeedSequence's hashmix of uint32 rows ``values``, row i with the
    constants ``consts[:, i]``."""
    values = (values ^ consts[0]) * consts[1]
    return values ^ (values >> _XSHIFT)


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> _XSHIFT)


_U32 = np.uint64(32)
_LOW = np.uint64(_M32)


def _limbs(values) -> tuple:
    """(high, low) uint64 limbs of a 128-bit int, or of a sequence of them."""
    values = np.array(values, dtype=object)
    return np.array(values >> 64 & _M64, np.uint64), np.array(values & _M64, np.uint64)


def _mulhi(a, b):
    """High 64 bits of the 128-bit products of uint64 arrays a and b
    (Warren, "Hacker's Delight", 8-2)."""
    a0, a1 = a & _LOW, a >> _U32
    b0, b1 = b & _LOW, b >> _U32
    t = ((a0 * b0) >> _U32) + a1 * b0
    return a1 * b1 + (t >> _U32) + (((t & _LOW) + a0 * b1) >> _U32)


def _mul128(a: tuple, b: tuple) -> tuple:
    """Products mod 2^128 of (high, low) limb pairs."""
    return _mulhi(a[1], b[1]) + a[1] * b[0] + a[0] * b[1], a[1] * b[1]


def _add128(a: tuple, b: tuple) -> tuple:
    """Sums mod 2^128 of (high, low) limb pairs."""
    low = a[1] + b[1]
    return a[0] + b[0] + (low < a[1]), low


def _xsl_rr(state: tuple, out: np.ndarray) -> np.ndarray:
    """PCG's XSL-RR output of 128-bit states, into ``out``: the halves
    xor-ed, rotated right by the top six bits; a rotation by 0 leaves x,
    whether x << 64 gives 0 or x."""
    x = state[0] ^ state[1]
    rot = state[0] >> np.uint64(58)
    return np.bitwise_or(x >> rot, x << (np.uint64(64) - rot), out=out)


def _seeded(entropy: list) -> tuple:
    """(state, inc) limb pairs, each limb a (streams, 1) array, of the
    PCG64 streams seeded from ``SeedSequence(entropy)``, the words uint32
    arrays that broadcast.  SeedSequence's hash constants do not depend
    on the words, so each mixing step is one hashmix of its source word
    against the constants of all its destinations.  srandom takes the
    increment ``(initseq << 1) | 1`` and leaves the state ``M * (s +
    inc) + inc``."""
    entropy = list(entropy) + [np.zeros(1, np.uint32)] * (_POOL_SIZE - len(entropy))
    words = np.array(np.broadcast_arrays(*entropy), np.uint32)
    consts = _hash_consts(_POOL_SIZE * len(words), _INIT_A, _MULT_A)
    pool = _hashmix(words[:_POOL_SIZE], consts[:, :_POOL_SIZE])
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        at = _POOL_SIZE + 3 * src
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], consts[:, at : at + 3]))
    for src in range(_POOL_SIZE, len(words)):
        at = _POOL_SIZE * src
        pool = _mix(pool, _hashmix(words[src], consts[:, at : at + _POOL_SIZE]))
    halves = _hashmix(np.tile(pool, (2, 1)), _hash_consts(8, _INIT_B, _MULT_B))
    halves = halves.astype(np.uint64)[:, :, None]
    words = halves[::2] | (halves[1::2] << _U32)
    inc = (
        (words[2] << np.uint64(1)) | (words[3] >> np.uint64(63)),
        (words[3] << np.uint64(1)) | np.uint64(1),
    )
    state = _add128(_mul128(_limbs(_PCG_MULT), _add128((words[0], words[1]), inc)), inc)
    return state, inc


@lru_cache(maxsize=32)
def _table(width: int) -> tuple:
    """The jump tables of a power-of-two ``width``, each the (A, C) pair of
    its maps' limbs: column c is the map ``T^(c+1)``, ``A = M^(c+1)`` and
    ``C = 1 + M + ... + M^c``, and row r is ``T^(r*width)``, c, r < width."""
    powers = [1]
    while len(powers) <= width:
        powers.append(powers[-1] * _PCG_MULT & _M128)
    sums = list(accumulate(powers[:width]))
    steps = [1]
    while len(steps) < width:
        steps.append(steps[-1] * powers[width] & _M128)
    # T^(r*W) = (M^W)^r * s + (1 + ... + M^(W-1)) (1 + ... + M^(W(r-1))) * inc
    row_sums = [x * sums[-1] for x in accumulate([0] + steps[:-1])]
    maps = tuple(zip(*_limbs([powers[1:], sums, steps, row_sums])))
    return maps[:2], maps[2:]


def _outputs(state: tuple, inc: tuple, n: int) -> np.ndarray:
    """The next ``n`` outputs of each stream, a (streams, n) uint64 array.
    Output j's state depends on j alone: output r * W + c, with W about
    sqrt(n), has the state ``A_c * B_r + C_c * inc``: ``B_r = T^(r*W)(s)``
    from the row table and ``(A_c, C_c) = T^(c+1)`` from the column table."""
    streams = len(state[0])
    if not n or not streams:
        return np.empty((streams, n), np.uint64)
    width = n if n <= _DIRECT else 1 << ((n - 1).bit_length() + 1) // 2
    rows = -(-n // width)
    cols, row_maps = _table(1 << (width - 1).bit_length())
    mult = tuple(x[:width] for x in cols[0])
    step_inc = _mul128(tuple(x[:width] for x in cols[1]), inc)
    starts = state  # B_r: one row starts at the stream's state
    if rows > 1:
        a, c = (tuple(x[:rows] for x in limbs) for limbs in row_maps)
        starts = _add128(_mul128(a, state), _mul128(c, inc))
    tile_rows = max(1, min(rows, _TILE // width))
    tile_streams = max(1, _TILE // (tile_rows * width))
    out = np.empty((streams, rows, width), np.uint64)
    for s0 in range(0, streams, tile_streams):
        part = slice(s0, s0 + tile_streams)
        add = tuple(x[part, None, :] for x in step_inc)
        for r0 in range(0, rows, tile_rows):
            at = (part, slice(r0, r0 + tile_rows))
            states = _add128(_mul128(mult, tuple(x[at][..., None] for x in starts)), add)
            _xsl_rr(states, out[at])
    return out.reshape(streams, rows * width)[:, :n]


def _halves(out: np.ndarray) -> np.ndarray:
    """The 32-bit halves of each stream's outputs, low half first."""
    halves = np.stack([out & _LOW, out >> _U32], axis=-1)
    # the width is explicit: an empty block gives reshape nothing to infer
    return halves.reshape(len(out), 2 * out.shape[1])


def uniform(seed: int, lo: float, hi: float, size: int) -> np.ndarray:
    """``default_rng(seed).uniform(lo, hi, size)``: ``size`` float64 draws
    ``lo + (hi - lo) * u``, u the top 53 bits of an output over 2^53."""
    raw = _outputs(*_seeded(_words(seed)), int(size))[0]
    draws = raw.view(np.float64)
    # tile by tile: numpy copies an input that overlaps an output of another dtype
    for at in range(0, len(raw), _TILE):
        tile = slice(at, at + _TILE)
        np.multiply(raw[tile] >> np.uint64(11), 2.0**-53, out=draws[tile])  # exact
    draws *= hi - lo
    draws += lo
    return draws


class TrialDraws:
    """The draws ``default_rng([seed, i]).integers(0, bound, size=count)``
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
        array whose row r is drawn by ``default_rng([seed, start + r])``."""
        if not 0 <= start <= stop <= 1 << 32:
            # a larger index is two entropy words, not one
            raise ValueError(f"trial indices must be below 2^32, got {start}..{stop}")
        trials = np.arange(start, stop, dtype=np.uint32)
        n = (self.count + 1) // 2
        scaled = self._scaled(trials, n)[:, : self.count]
        draws = (scaled >> _U32).astype(np.int64)
        redrawn = (scaled & _LOW) < self._threshold
        for r in np.flatnonzero(redrawn.any(axis=1)):
            draws[r] = self._redraw(trials[r : r + 1], 2 * n)
        return draws

    def _scaled(self, trials: np.ndarray, n: int) -> np.ndarray:
        """The halves of each trial's first ``n`` outputs times the bound:
        the draw in the high word, the redraw test in the low word."""
        out = _outputs(*_seeded(self._seed_words + [trials]), n)
        return _halves(out) * np.uint64(self.bound)

    def _redraw(self, trial: np.ndarray, n: int) -> np.ndarray:
        """One trial's draws when Lemire's method redraws in it: each draw
        takes the next half whose low product word is not below the
        threshold, from the trial's first ``n`` outputs, twice as many each
        time too few halves are kept."""
        while True:
            scaled = self._scaled(trial, n)[0]
            kept = scaled[(scaled & _LOW) >= self._threshold]
            if kept.size >= self.count:
                return (kept[: self.count] >> _U32).astype(np.int64)
            n *= 2
