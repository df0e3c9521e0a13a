"""Bulk derivation of the per-trial streams against the generators."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einbern import Rademacher, Subsample, trial_rng
from einbern.streams import TrialDraws


@given(
    seed=st.one_of(
        st.integers(min_value=0, max_value=2**63),
        # five or more seed words: the trial word enters SeedSequence's
        # mixing after the four-word pool is full
        st.integers(min_value=2**128, max_value=2**256),
    ),
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
    # ``block`` is exact even when derivation is wrong, since it falls
    # back to the generators; the derivation itself must match them
    derived, redo = draws._derive(start, start + rows)
    if isinstance(law, Rademacher):
        # a bound of 2 divides 2^32: Lemire's method never redraws
        assert not redo.any()
    for r in np.flatnonzero(~redo):
        expected = trial_rng(seed, start + r).integers(0, bound, size=count)
        assert np.array_equal(derived[r], expected)


def test_jump_table_is_built_once_for_blocks_of_several_rows():
    draws = TrialDraws(3, 2, 5)
    draws.block(7, 8)
    assert draws._jumps is None
    draws.block(0, 4)
    table = draws._jumps
    assert table is not None
    draws.block(4, 9)
    assert draws._jumps is table
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
