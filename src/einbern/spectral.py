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

from .algebra import hermitian_dilation
from .errors import ConvergenceError, NumericalError, ShapeError, SymmetryError
from .tensor import (
    DEFAULT_TOL,
    Tensor,
    _close,
    _computed,
    _require_finite_result,
    apply_power_map,
    is_e_symmetric,
    is_fully_symmetric,
    matricize,
    matricize_general,
    unmatricize,
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

# E-PSD judgements accept eigenvalues down to -PSD_TOL times the norm of
# the spectrum, or -PSD_TOL for a spectrum of norm below 1
PSD_TOL = 1e-10


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

    The input must pass ``_matrix_stack`` and be symmetric by the
    closeness rule ``tensor._close`` at DEFAULT_TOL, the rule of
    ``is_e_symmetric``; its symmetric part is decomposed, and a
    symmetric part or eigenvalue that overflows is a NumericalError.
    Eigenvalues come back descending with a stable tie order.
    """
    m = _matrix_stack(mat, ndim=2, square=True)
    if not _close(m, m.T, DEFAULT_TOL):  # an overflowing defect reads False
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
    symmetry: the symmetric part of each matrix of a stack that passes
    ``_matrix_stack`` is solved in one LAPACK call.  A symmetric part or
    eigenvalue that overflows is a NumericalError.
    """
    try:
        values = np.linalg.eigvalsh(_symmetric_part(_matrix_stack(mats, square=True)))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigvalsh did not converge: {exc}") from exc
    return _require_finite_result(values, "eigenvalues")


def top_singular_values(mats) -> np.ndarray:
    """Largest singular value of each matrix in a (B, r, c) stack that
    passes ``_matrix_stack``; one that overflows is a NumericalError."""
    m = _matrix_stack(mats)
    try:
        top = np.linalg.svd(m, compute_uv=False)[:, 0]
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"svd did not converge: {exc}") from exc
    return _require_finite_result(top, "singular values")


def _matrix_stack(mats, ndim: int = 3, square: bool = False) -> np.ndarray:
    """``mats`` as float64, the one input check of the solvers: ``ndim``
    axes (2 for one matrix, 3 for a stack), square matrices when
    ``square``, and a stack's matrices at least one row and column, else
    a ShapeError; a non-finite entry is a NumericalError."""
    m = np.asarray(mats, dtype=np.float64)
    if m.ndim != ndim or (square and m.shape[-1] != m.shape[-2]):
        shape = "(n, n)" if ndim == 2 else "(B, n, n)" if square else "(B, r, c)"
        raise ShapeError(f"expected shape {shape}, got {m.shape}")
    if ndim == 3 and 0 in m.shape[1:]:
        raise ShapeError(f"expected shape (B, r, c) with r, c >= 1, got {m.shape}")
    if not np.isfinite(m).all():
        raise NumericalError("matrix has non-finite entries")
    return m


def _symmetric_part(m: np.ndarray) -> np.ndarray:
    """(M + M^T) / 2 of each finite matrix of a stack; a sum that
    overflows is a NumericalError."""
    return _computed("the symmetric part of a matrix",
                     lambda: (m + np.swapaxes(m, -1, -2)) / 2.0)


def e_eigenvalues(t: Tensor) -> np.ndarray:
    """Spectrum of the square unfolding, sorted descending; ``sym_eig``
    judges the input, so E-symmetry is judged once."""
    return sym_eig(matricize(t)).values


def e_evd(t: Tensor) -> EinsteinEVD:
    """Eigenvalue decomposition with both factors folded back to tensors;
    the input is judged as ``e_eigenvalues`` judges it."""
    dec = sym_eig(matricize(t))
    d = t.cubic_dim
    u = unmatricize(dec.vectors, t.order, d)
    diag = unmatricize(np.diag(dec.values), t.order, d)
    return EinsteinEVD(u=u, diag=diag, values=dec.values)


def e_spectral_norm(t: Tensor) -> float:
    """Largest eigenvalue magnitude of the square unfolding."""
    values = e_eigenvalues(t)
    return float(max(values[0], -values[-1]))


def e_trace(t: Tensor) -> float:
    """Sum of the paired-diagonal entries a[i...i...].

    Cheaper than summing the spectrum, with which it agrees.  An
    overflow is a NumericalError.
    """
    if not is_e_symmetric(t):
        raise SymmetryError("tensor is not Einstein-symmetric within tolerance")
    return _trace(matricize(t), "unfolding")


def _trace(matrix: np.ndarray, label: str) -> float:
    """The trace of ``matrix``; NumericalError naming ``label`` on overflow."""
    return _computed(f"the trace of the {label}", lambda: float(np.trace(matrix)))


def gen_spectral_norm(t: Tensor) -> float:
    """Spectral norm of a cubic tensor of any order.

    Computed as the top eigenvalue of the symmetric dilation of the
    rectangular unfolding, i.e. the largest singular value of that
    unfolding.
    """
    h = hermitian_dilation(matricize_general(t))
    return float(sym_eig(h).values[0])


def _psd_spectrum(t: Tensor, scale=None) -> tuple:
    """The E-spectrum of ``t`` and the tolerance of the E-PSD rule on it:
    PSD_TOL times max(1, norm of the spectrum ``scale``), by default that
    of ``t``.  ``t`` is E-PSD when no eigenvalue is below -tolerance."""
    values = e_eigenvalues(t)
    scale = values if scale is None else scale
    return values, PSD_TOL * max(scale[0], -scale[-1], 1.0)


def is_e_psd(t: Tensor) -> bool:
    """True when no Einstein eigenvalue is below -``_psd_spectrum``'s tolerance."""
    values, tol = _psd_spectrum(t)
    return bool(values[-1] >= -tol)


def is_e_pd(t: Tensor) -> bool:
    """True when every Einstein eigenvalue exceeds ``_psd_spectrum``'s tolerance."""
    values, tol = _psd_spectrum(t)
    return bool(values[-1] > tol)


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
    if not is_fully_symmetric(t):  # a ShapeError when t is not cubic
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
