"""einbern's own random streams against numpy's generators, their oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einbern import Rademacher, Subsample, trial_rng
from einbern import streams
from einbern.streams import TrialDraws, uniform

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
        assert np.array_equal(block[r], law.weights(trial_rng(seed, start + r), k))


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
    # 2 * 2^14 + 3 draws take each stream of a block past a segment
    draws = TrialDraws(seed, bound, count)
    for start, stop in [(0, 1), (3, 12), (2**32 - 2, 2**32)]:
        block = draws.block(start, stop)
        assert block.shape == (stop - start, count)
        for r in range(stop - start):
            want = trial_rng(seed, start + r).integers(0, bound, size=count)
            assert np.array_equal(block[r], want)


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


def test_jump_table_is_shared_per_width():
    streams._jumps.cache_clear()
    draws = TrialDraws(3, 2, 5)
    draws.block(7, 8)
    draws.block(0, 4)
    uniform(1, 0.0, 1.0, 3)
    assert streams._jumps.cache_info().misses == 1
    # a long stream reuses one table of _SEGMENT outputs
    uniform(1, 0.0, 1.0, 3 * streams._SEGMENT + 1)
    assert streams._jumps.cache_info().misses == 2
    assert draws.block(2, 2).shape == (0, 5)


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
