"""einbern's own random streams against numpy's generators, their oracle."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einbern
from einbern import Rademacher, Subsample
from einbern import streams
from einbern.streams import TrialDraws, uniform
from oracles import trial_rng, weights

SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**63),
    # five or more seed words: words past the four-word pool enter
    # SeedSequence's mixing after the pool is full
    st.integers(min_value=2**128, max_value=2**256),
)


@given(
    seed=SEEDS,
    start=st.integers(min_value=0, max_value=2**24),
    k=st.one_of(st.sampled_from([1, 2, 49, 50, 51]), st.integers(1, 500)),
    law=st.sampled_from(["rademacher", "subsample"]),
    sample_size=st.sampled_from([1, 2, 7, 64, 401]),
    rows=st.integers(min_value=1, max_value=9),
)
@example(seed=0, start=0, k=1, law="rademacher", sample_size=1, rows=3)
@example(seed=0, start=0, k=1, law="subsample", sample_size=7, rows=3)
@example(seed=2**63 - 1, start=2**24 - 4, k=51, law="rademacher",
         sample_size=1, rows=4)
@example(seed=2**32 + 5, start=2**24 - 4, k=50, law="subsample",
         sample_size=64, rows=4)
@settings(max_examples=80, deadline=None)
def test_bulk_rows_equal_per_trial_rows(seed, start, k, law, sample_size, rows):
    law = Rademacher() if law == "rademacher" else Subsample(sample_size)
    bound, count = law.draws(k)
    draws = TrialDraws(seed, bound, count)
    block = law.rows(draws.block(start, start + rows), k)
    assert block.shape == (rows, k)
    for r in range(rows):
        assert np.array_equal(block[r], weights(law, trial_rng(seed, start + r), k))


@given(
    seed=SEEDS,
    lo=st.sampled_from([-1.0, -0.5, 0.0, -3e300, 2.5]),
    span=st.sampled_from([0.0, 1.0, 2.0, 1e-300, 6e300]),
    size=st.one_of(st.integers(1, 40), st.sampled_from([2**14 - 1, 2**14, 2**14 + 1])),
)
@example(seed=0, lo=-1.0, span=2.0, size=70_000)
@example(seed=2**100, lo=-1.0, span=2.0, size=3 * 2**14 + 5)
@settings(max_examples=60, deadline=None)
def test_uniform_equals_default_rng(seed, lo, span, size):
    want = np.random.default_rng(seed).uniform(lo, lo + span, size)
    assert uniform(seed, lo, lo + span, size).tobytes() == want.tobytes()


@pytest.mark.parametrize("seed", [0, 5, 2**130])
@pytest.mark.parametrize("bound,count", [(2, 1), (2**31 + 1, 1), (2**31 + 1, 9),
                                         (50, 3), (2**32, 4), (1, 3),
                                         (2**31 + 1, 2 * 2**14 + 3)])
def test_one_row_and_redrawing_blocks_equal_trial_rows(seed, bound, count):
    # 2^32 mod (2^31 + 1) = 2^31 - 1: nearly half the halves are redrawn;
    # 2 * 2^14 + 3 draws take each stream of a block across tiles
    draws = TrialDraws(seed, bound, count)
    for start, stop in [(0, 1), (3, 12), (2**32 - 2, 2**32)]:
        block = draws.block(start, stop)
        assert block.shape == (stop - start, count)
        for r in range(stop - start):
            want = trial_rng(seed, start + r).integers(0, bound, size=count)
            assert np.array_equal(block[r], want)


def test_a_redrawing_row_derives_its_stream_again_longer(monkeypatch):
    # 9 draws take 5 outputs a stream; trial 0 of seed 0 keeps too few
    # halves of them, and then of 10, so it is derived a third time,
    # from its seed, with 20
    lengths, outputs = [], streams._outputs
    monkeypatch.setattr(streams, "_outputs",
                        lambda state, inc, n: lengths.append(n) or outputs(state, inc, n))
    bound = 2**31 + 1
    block = TrialDraws(0, bound, 9).block(0, 1)
    assert lengths == [5, 10, 20]
    assert np.array_equal(block[0], trial_rng(0, 0).integers(0, bound, size=9))


def test_pinned_draws():
    # the port's own values: a change to it fails here even if numpy's
    # generators change along with it
    assert uniform(0, -1.0, 1.0, 4).tolist() == [
        0.2739233746429086, -0.4604265724722594,
        -0.9180529521276106, -0.9669447289429418]
    assert uniform(2**130 + 7, 0.0, 3.0, 3).tolist() == [
        2.5742162152668673, 1.7167890659353577, 1.5472831760942682]
    assert TrialDraws(0, 2, 8).block(0, 2).tolist() == [
        [1, 1, 1, 0, 0, 0, 0, 0], [1, 1, 1, 1, 0, 1, 0, 1]]
    assert TrialDraws(2019, 2**31 + 1, 3).block(7, 9).tolist() == [
        [1550049790, 779589562, 1453998664], [1056787092, 1408131459, 1816821704]]
    last = TrialDraws(5, 50, 5).block(2**32 - 1, 2**32)
    assert last.tolist() == [[44, 44, 34, 43, 23]]


DIRECT, TILE = streams._DIRECT, streams._TILE


@pytest.mark.parametrize("size", [
    DIRECT - 1, DIRECT, DIRECT + 1,  # one row, then rows x columns
    16 * 13, 16 * 13 + 1,  # whole rows of 16 columns, then one more output
    16**2, 16**2 + 1, 64**2, 64**2 + 1,  # a width's square, then the next width
    TILE - 1, TILE, TILE + 1,  # one tile, then a second
    np.int64(DIRECT + 1),  # a numpy integer size
])
def test_uniform_layout_edges_equal_default_rng(size):
    want = np.random.default_rng(11).uniform(-1.0, 1.0, size)
    assert uniform(11, -1.0, 1.0, size).tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [2 * DIRECT - 1, 2 * DIRECT, 2 * DIRECT + 1, 2 * DIRECT + 2])
def test_blocks_across_tiles_equal_trial_rows(monkeypatch, count):
    # 2 * DIRECT draws take 64 outputs a stream, one row; one more draw
    # takes 65, five rows of 16 columns with the last padded.  Tiles of
    # 160 outputs hold two streams either way, so the blocks end on each
    # side of a tile edge.  Nearly every row redraws.
    monkeypatch.setattr(streams, "_TILE", 160)
    bound = 2**31 + 1
    draws = TrialDraws(9, bound, count)
    for start, stop in [(0, 1), (4, 6), (4, 7), (10, 15)]:
        block = draws.block(start, stop)
        for r in range(stop - start):
            want = trial_rng(9, start + r).integers(0, bound, size=count)
            assert np.array_equal(block[r], want)


def test_jump_table_is_shared_per_width(monkeypatch):
    streams._table.cache_clear()
    draws = TrialDraws(3, 2, 5)
    draws.block(7, 8)
    draws.block(0, 4)
    uniform(1, 0.0, 1.0, 3)
    assert streams._table.cache_info().misses == 1
    assert draws.block(2, 2).shape == (0, 5)
    # a long stream builds one table, of about sqrt(n) maps
    widths, table = [], streams._table
    monkeypatch.setattr(streams, "_table", lambda width: widths.append(width) or table(width))
    size = 3 * 2**14 + 1
    uniform(1, 0.0, 1.0, size)
    assert len(widths) == 1 and size <= widths[0] ** 2 < 4 * size
    assert all(len(x) == widths[0] for maps in table(widths[0]) for pair in maps for x in pair)


def test_import_builds_no_stream_table():
    # tables are built on first use, so no process's set-up pays for them
    src = str(Path(einbern.__file__).resolve().parents[1])
    code = ("import einbern, einbern.cli\n"
            "from einbern import streams\n"
            "print(streams._table.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "0\n"), proc.stderr


def test_uniform_temporaries_are_tile_sized():
    # the raw outputs become the draws in place: 1.0x the draws' bytes;
    # each tile's temporaries add a few percent
    size = 2**20
    tracemalloc.start()
    try:
        uniform(0, 0.0, 1.0, size)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * size


def test_bound_must_fit_32_bits():
    with pytest.raises(ValueError):
        TrialDraws(0, 2**32 + 1, 4)
    with pytest.raises(ValueError):
        TrialDraws(0, 0, 4)


def test_seed_must_be_nonnegative():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError, match="seed"):
        TrialDraws(-1, 2, 4)
    with pytest.raises(ValueError, match="seed"):
        uniform(-1, 0.0, 1.0, 4)
