"""Symmetric eigensolver, Einstein spectra, and Z-eigenvalue estimation.

Eigensolves go through LAPACK ``eigh`` via numpy.  Everything spectral
about a pairwise-symmetric tensor reduces to the spectrum of its square
unfolding.  ``sym_eigvals`` and ``top_singular_values`` solve a whole
stack of unfoldings in one call; the per-tensor functions stay as the
reference they are checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import hermitian_dilation, matricize, matricize_general, unmatricize
from .errors import ConvergenceError, NumericalError, ShapeError, SymmetryError
from .tensor import Tensor, apply_power_map, is_e_symmetric, is_fully_symmetric

__all__ = [
    "EigenDecomposition",
    "EinsteinEVD",
    "ZEigenEstimate",
    "sym_eig",
    "sym_eigvals",
    "top_singular_values",
    "e_eigenvalues",
    "e_evd",
    "e_spectral_norm",
    "e_trace",
    "gen_spectral_norm",
    "is_e_psd",
    "is_e_pd",
    "z_eigen_max",
]


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of a symmetric matrix.

    ``values`` are sorted descending; the columns of ``vectors`` are the
    matching orthonormal eigenvectors.
    """

    values: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class EinsteinEVD:
    """Factor pair of an eigenvalue decomposition in tensor form.

    ``u`` is Einstein-orthogonal and ``diag`` is diagonal, with
    u * diag * transpose(u) reconstructing the input.
    """

    u: Tensor
    diag: Tensor
    values: np.ndarray


def sym_eig(mat) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    The input must be finite and symmetric within 1e-12 (scaled by its
    largest entry and size); its symmetric part is decomposed.
    Eigenvalues come back descending with a stable tie order.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericalError("matrix has non-finite entries")
    n = m.shape[0]
    scale = float(np.abs(m).max()) if m.size else 0.0
    if float(np.abs(m - m.T).max()) > 1e-12 * max(1.0, scale) * n:
        raise SymmetryError("matrix is not symmetric within tolerance")
    try:
        values, vectors = np.linalg.eigh((m + m.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])


def sym_eigvals(mats) -> np.ndarray:
    """Eigenvalues of a (B, n, n) stack of symmetric matrices, ascending
    along the last axis.

    The batched counterpart of ``sym_eig`` for callers that have checked
    symmetry: the symmetric part of each matrix is solved in one LAPACK
    call.  Non-finite entries, or a symmetric part that overflows, are a
    NumericalError.
    """
    m = _matrix_stack(mats)
    with np.errstate(over="ignore", invalid="ignore"):
        sym = m + np.swapaxes(m, -1, -2)
    _require_finite(sym)
    sym /= 2.0
    try:
        return np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvalsh did not converge: {exc}") from exc


def top_singular_values(mats) -> np.ndarray:
    """Largest singular value of each matrix in a finite (B, r, c) stack."""
    m = _matrix_stack(mats)
    _require_finite(m)
    try:
        return np.linalg.svd(m, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"svd did not converge: {exc}") from exc


def _matrix_stack(mats) -> np.ndarray:
    m = np.asarray(mats, dtype=np.float64)
    if m.ndim != 3:
        raise ShapeError(f"expected a stack of matrices, got shape {m.shape}")
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise NumericalError("matrix stack has non-finite entries")


def _require_e_symmetric(t: Tensor) -> None:
    if not is_e_symmetric(t):
        raise SymmetryError("tensor is not Einstein-symmetric within tolerance")


def e_eigenvalues(t: Tensor) -> np.ndarray:
    """Spectrum of the square unfolding, sorted descending."""
    _require_e_symmetric(t)
    return sym_eig(matricize(t)).values


def e_evd(t: Tensor) -> EinsteinEVD:
    """Eigenvalue decomposition with both factors folded back to tensors."""
    _require_e_symmetric(t)
    d = t.cubic_dim
    dec = sym_eig(matricize(t))
    u = unmatricize(dec.vectors, t.order, d)
    diag = unmatricize(np.diag(dec.values), t.order, d)
    return EinsteinEVD(u=u, diag=diag, values=dec.values)


def e_spectral_norm(t: Tensor) -> float:
    """Largest eigenvalue magnitude of the square unfolding."""
    values = e_eigenvalues(t)
    return float(max(values[0], -values[-1])) if values.size else 0.0


def e_trace(t: Tensor) -> float:
    """Sum of the paired-diagonal entries a[i...i...].

    Cheaper than summing the spectrum, with which it agrees.
    """
    _require_e_symmetric(t)
    return float(np.trace(matricize(t)))


def gen_spectral_norm(t: Tensor) -> float:
    """Spectral norm of a cubic tensor of any order.

    Computed as the top eigenvalue of the symmetric dilation of the
    rectangular unfolding, i.e. the largest singular value of that
    unfolding.
    """
    h = hermitian_dilation(matricize_general(t))
    return float(sym_eig(h).values[0])


def is_e_psd(t: Tensor, tol: float = 1e-10) -> bool:
    """True when every Einstein eigenvalue is at least -tol."""
    values = e_eigenvalues(t)
    return float(values[-1]) >= -tol


def is_e_pd(t: Tensor, tol: float = 1e-10) -> bool:
    """True when every Einstein eigenvalue exceeds tol."""
    values = e_eigenvalues(t)
    return float(values[-1]) > tol


@dataclass(frozen=True)
class ZEigenEstimate:
    """Certified lower estimate of the largest Z-eigenvalue.

    ``value`` is the form evaluated at the unit ``vector``; ``residual``
    is |A x^(2m-1) - value * x|, which vanishes at an exact eigenpair.
    """

    value: float
    vector: np.ndarray
    residual: float


def z_eigen_max(
    t: Tensor,
    restarts: int = 100,
    iters: int = 1000,
    tol: float = 1e-10,
    seed: int = 0,
) -> ZEigenEstimate:
    """Shifted symmetric power iterations from random unit starts.

    The shift 1 + sum|entries| makes each iteration monotone in the form
    value, so runs settle into local maxima; the best converged start is
    returned.  Whatever start it came from, the returned value is a valid
    lower bound on the largest Z-eigenvalue of a fully symmetric
    even-order tensor, up to the reported residual.
    """
    if t.order < 2 or t.order % 2:
        raise ShapeError(f"order {t.order} must be even and at least 2")
    if not t.is_cubic:
        raise ShapeError(f"shape {t.shape} is not cubic")
    if not is_fully_symmetric(t):
        raise SymmetryError("tensor is not fully symmetric within tolerance")

    d = t.cubic_dim
    alpha = 1.0 + float(np.abs(t.data).sum())
    rng = np.random.default_rng(seed)
    best: ZEigenEstimate | None = None
    best_residual = math.inf

    for _ in range(max(1, restarts)):
        x = rng.standard_normal(d)
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            continue
        x = x / norm
        lam_prev = None
        lam = 0.0
        grad = np.zeros(d)
        converged = False
        for _ in range(max(1, iters)):
            grad = apply_power_map(t, x)
            lam = float(x @ grad)
            if lam_prev is not None and abs(lam - lam_prev) <= tol * (1.0 + abs(lam)):
                converged = True
                break
            lam_prev = lam
            step = grad + alpha * x
            x = step / float(np.linalg.norm(step))
        if not converged:
            grad = apply_power_map(t, x)
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
