"""Symmetric eigensolver, Einstein spectra, and Z-eigenvalue estimation.

Eigensolves go through LAPACK ``eigh`` via numpy.  Everything spectral
about a pairwise-symmetric tensor reduces to the spectrum of its square
unfolding.  ``sym_eigvals`` and ``top_singular_values`` solve a whole
stack of unfoldings in one call; the per-tensor functions stay as the
reference they are checked against.  ``z_eigen_max`` runs its power
iterations from every start at once, as one block of vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import hermitian_dilation, matricize, matricize_general, unmatricize
from .errors import ConvergenceError, NumericalError, ShapeError, SymmetryError
from .tensor import (
    Tensor, apply_power_map, is_e_symmetric, is_fully_symmetric, symmetry_defects
)

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
    largest entry and size); its symmetric part is decomposed, and a
    symmetric part or eigenvalue that overflows is a NumericalError.
    Eigenvalues come back descending with a stable tie order.
    """
    m = np.asarray(mat, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ShapeError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise NumericalError("matrix has non-finite entries")
    n = m.shape[0]
    scale = float(np.abs(m).max()) if m.size else 0.0
    if float(symmetry_defects(m[None])[0]) > 1e-12 * max(1.0, scale) * n:
        raise SymmetryError("matrix is not symmetric within tolerance")
    try:
        values, vectors = np.linalg.eigh(_symmetric_part(m))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigh did not converge: {exc}") from exc
    _require_finite_result(values, "eigenvalues")
    order = np.argsort(-values, kind="stable")
    return EigenDecomposition(values=values[order], vectors=vectors[:, order])


def sym_eigvals(mats) -> np.ndarray:
    """Eigenvalues of a (B, n, n) stack of symmetric matrices, ascending
    along the last axis.

    The batched counterpart of ``sym_eig`` for callers that have checked
    symmetry: the symmetric part of each matrix is solved in one LAPACK
    call.  Non-finite entries, or a symmetric part or eigenvalue that
    overflows, are a NumericalError.
    """
    try:
        values = np.linalg.eigvalsh(_symmetric_part(_matrix_stack(mats)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvalsh did not converge: {exc}") from exc
    return _require_finite_result(values, "eigenvalues")


def top_singular_values(mats) -> np.ndarray:
    """Largest singular value of each matrix in a finite (B, r, c) stack;
    one that overflows is a NumericalError."""
    m = _matrix_stack(mats)
    _require_finite(m)
    try:
        top = np.linalg.svd(m, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"svd did not converge: {exc}") from exc
    return _require_finite_result(top, "singular values")


def _matrix_stack(mats) -> np.ndarray:
    m = np.asarray(mats, dtype=np.float64)
    if m.ndim != 3:
        raise ShapeError(f"expected a stack of matrices, got shape {m.shape}")
    return m


def _require_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise NumericalError("matrix stack has non-finite entries")


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of each matrix of a stack; non-finite entries, or a
    sum that overflows, are a NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):
        sym = m + np.swapaxes(m, -1, -2)
    if not np.isfinite(sym).all():
        _require_finite(m)
        raise NumericalError(
            "the symmetric part of a matrix overflowed to a non-finite value"
        )
    sym /= 2.0
    return sym


def _require_finite_result(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, which a solver returned; a non-finite one is a
    NumericalError naming ``what`` overflowed."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} overflowed to a non-finite value")
    return values


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


def is_e_pd(t: Tensor) -> bool:
    """True when every Einstein eigenvalue exceeds 1e-10."""
    values = e_eigenvalues(t)
    return float(values[-1]) > 1e-10


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
    seed: int = 0,
) -> ZEigenEstimate:
    """Shifted symmetric power iterations (Kolda & Mayo 2011) from random
    unit starts, all R = max(1, restarts) of them iterated as one block.

    The starts are the rows of ``default_rng(seed).standard_normal((R, d))``.
    Each iteration contracts the whole (R, d) block in one product of
    R * d^(N-1) floats for order N, and freezes a row once its form value
    moves by at most 1e-10 (1 + |value|).  The shift 1 + sum|entries|
    makes each iteration monotone in the form value, so rows settle into
    local maxima; the best converged row is returned.  Whatever start it
    came from, the returned value is a valid lower bound on the largest
    Z-eigenvalue of a fully symmetric even-order tensor, up to the
    reported residual.  A value, step or residual that overflows is a
    NumericalError.
    """
    if t.order < 2 or t.order % 2:
        raise ShapeError(f"order {t.order} must be even and at least 2")
    if not t.is_cubic:
        raise ShapeError(f"shape {t.shape} is not cubic")
    if not is_fully_symmetric(t):
        raise SymmetryError("tensor is not fully symmetric within tolerance")

    x = np.random.default_rng(seed).standard_normal((max(1, restarts), t.cubic_dim))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    done = np.zeros(len(x), dtype=bool)
    lam_prev = np.full(len(x), np.nan)  # no row settles on its first value
    with np.errstate(over="ignore", invalid="ignore"):
        alpha = 1.0 + np.abs(t.data).sum()
        for _ in range(max(1, iters)):
            grad = apply_power_map(t, x)
            lam = np.einsum("ij,ij->i", x, grad)
            done |= np.abs(lam - lam_prev) <= 1e-10 * (1.0 + np.abs(lam))
            if done.all():
                break
            step = grad + alpha * x
            norm = np.linalg.norm(step, axis=1)
            _require_finite_result(np.stack([lam, norm]), "power iteration values")
            x = np.where(done[:, None], x, step / norm[:, None])
            lam_prev = lam
        grad = apply_power_map(t, x)
        lam = np.einsum("ij,ij->i", x, grad)
        residual = np.linalg.norm(grad - lam[:, None] * x, axis=1)
    _require_finite_result(np.stack([lam, residual]), "power iteration values")
    if not done.any():
        raise ConvergenceError(
            f"no start converged within {iters} iterations "
            f"(best residual {residual.min():.3e})"
        )
    best = int(np.argmax(np.where(done, lam, -np.inf)))  # the first maximum
    return ZEigenEstimate(float(lam[best]), x[best].copy(), float(residual[best]))
