"""The scalar trial path, kept as the oracle of the batched trials.

One trial draws from its own generator ``trial_rng(seed, i)``, a numpy
``default_rng``, and its draws become weights here.  So the oracle
shares neither ``streams.TrialDraws`` nor ``law.rows`` with the path it
checks.
"""

import numpy as np

from einbern import Rademacher, SumModel, Tensor


def weights(law, rng: np.random.Generator, k: int) -> np.ndarray:
    """One trial's row of K weights drawn from ``rng``: K signs under
    Rademacher, or how often ``sample_size`` picks chose each component,
    scaled by K / sample_size."""
    if isinstance(law, Rademacher):
        return rng.integers(0, 2, size=k) * 2.0 - 1.0
    picks = rng.integers(0, k, size=law.sample_size)
    return np.bincount(picks, minlength=k) * (k / law.sample_size)


def sample_sum(model: SumModel, rng: np.random.Generator) -> Tensor:
    """One realization of the random sum Y = sum_k X_k: one weight row
    from ``rng``, times the stack."""
    flat = weights(model.law, rng, len(model.stack)) @ model.stack
    return Tensor(model.shape, flat, copy=False)
