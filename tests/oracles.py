"""Scalar reference paths, kept as the oracles of the batched ones.

The scalar trial path checks the batched trials.  One trial draws from
its own generator ``trial_rng(seed, i)``, a numpy ``default_rng``, and
its draws become weights here.  So the oracle shares neither
``streams.TrialDraws`` nor ``law.rows`` with the path it checks.

The per-restart power iteration checks ``spectral.z_eigen_max``, which
iterates every restart as one block.  It contracts with a loop of
``tensordot`` calls, so it shares no kernel with ``apply_power_map``.
"""

import math

import numpy as np

from einbern import ConvergenceError, Rademacher, SumModel, Tensor, ZEigenEstimate


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


def power_map(t: Tensor, x: np.ndarray) -> np.ndarray:
    """All but the first mode of ``t`` contracted with copies of x, one
    ``tensordot`` per mode."""
    arr = t.to_array()
    for _ in range(t.order - 1):
        arr = np.tensordot(arr, x, axes=([arr.ndim - 1], [0]))
    return np.asarray(arr, dtype=np.float64)


def z_eigen_max(t: Tensor, restarts: int = 100, iters: int = 1000,
                seed: int = 0) -> ZEigenEstimate:
    """Shifted symmetric power iterations run one restart at a time, each
    start a fresh ``standard_normal(d)`` draw from ``default_rng(seed)``;
    the first best converged start wins."""
    d = t.cubic_dim
    alpha = 1.0 + float(np.abs(t.data).sum())
    rng = np.random.default_rng(seed)
    best: ZEigenEstimate | None = None
    best_residual = math.inf

    for _ in range(max(1, restarts)):
        x = rng.standard_normal(d)
        x = x / float(np.linalg.norm(x))
        lam_prev = None
        converged = False
        for _ in range(max(1, iters)):
            grad = power_map(t, x)
            lam = float(x @ grad)
            if lam_prev is not None and abs(lam - lam_prev) <= 1e-10 * (1.0 + abs(lam)):
                converged = True
                break
            lam_prev = lam
            step = grad + alpha * x
            x = step / float(np.linalg.norm(step))
        if not converged:
            grad = power_map(t, x)
            lam = float(x @ grad)
        residual = float(np.linalg.norm(grad - lam * x))
        best_residual = min(best_residual, residual)
        if converged and (best is None or lam > best.value):
            best = ZEigenEstimate(value=lam, vector=x.copy(), residual=residual)

    if best is None:
        raise ConvergenceError(
            f"no start converged within {iters} iterations "
            f"(best residual {best_residual:.3e})"
        )
    return best
