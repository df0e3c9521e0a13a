"""Einstein products and the symmetric block dilation.

The mode-1-fastest layout makes every unfolding a reshape, so the fast
contraction path is unfold -> matrix multiply -> fold.  The unfoldings
and their inverse belong to ``tensor`` and are re-exported here.  Naive
nested-loop reference contractions are kept alongside as independent
oracles; the fast path and the reference path share no code.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ShapeError
from .tensor import (Tensor, _finite, matricize, matricize_general, matricize_rows,
                     unmatricize)

__all__ = [
    "einstein_product",
    "einstein_product_reference",
    "gen_product_outer",
    "gen_product_inner",
    "gen_product_outer_reference",
    "gen_product_inner_reference",
    "matricize",
    "matricize_general",
    "matricize_rows",
    "unmatricize",
    "hermitian_dilation",
]


def _split_shapes(a: Tensor, b: Tensor, num_contracted):
    if num_contracted is None:
        if a.order % 2:
            raise ShapeError(
                "num_contracted must be given when the left operand has odd order"
            )
        num_contracted = a.order // 2
    k = int(num_contracted)
    if k < 1:
        raise ShapeError("at least one mode must be contracted")
    if k > a.order or k > b.order:
        raise ShapeError(
            f"cannot contract {k} modes of tensors of orders {a.order}, {b.order}"
        )
    if a.shape[a.order - k :] != b.shape[:k]:
        raise ShapeError(
            f"trailing modes {a.shape[a.order - k:]} of the left operand must "
            f"equal leading modes {b.shape[:k]} of the right operand"
        )
    return a.shape[: a.order - k], a.shape[a.order - k :], b.shape[k:]


def einstein_product(a: Tensor, b: Tensor, num_contracted=None) -> Tensor:
    """Contract the trailing modes of ``a`` with the leading modes of ``b``.

    With ``num_contracted`` omitted, half the modes of ``a`` are
    contracted, which is the closed product on even-order cubic tensors;
    order-2 inputs reduce to matrix multiplication.
    """
    left, mid, right = _split_shapes(a, b, num_contracted)
    a2 = a.data.reshape((math.prod(left), math.prod(mid)), order="F")
    b2 = b.data.reshape((math.prod(mid), math.prod(right)), order="F")
    return _finite(left + right, lambda: (a2 @ b2).reshape(-1, order="F"))


@np.errstate(all="ignore")  # _finite refuses a result that overflowed
def einstein_product_reference(a: Tensor, b: Tensor, num_contracted=None) -> Tensor:
    """Nested-loop evaluation of the same contraction; test oracle only."""
    left, mid, right = _split_shapes(a, b, num_contracted)
    arr_a = a.to_array()
    arr_b = b.to_array()
    out = np.zeros(left + right)
    for li in np.ndindex(*left):
        for rj in np.ndindex(*right):
            acc = 0.0
            for kk in np.ndindex(*mid):
                acc += arr_a[li + kk] * arr_b[kk + rj]
            out[li + rj] = acc
    return _finite(left + right, lambda: out.reshape(-1, order="F"))


def _require_same_cubic(a: Tensor, b: Tensor) -> int:
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.order < 1:
        raise ShapeError("operands must have at least one mode")
    return a.cubic_dim


def gen_product_outer(a: Tensor, b: Tensor) -> Tensor:
    """Contract the trailing N-m modes of two order-N cubic tensors.

    Produces an order-2m tensor, m = ceil(N/2).  For vectors this is the
    outer product; for even order it equals a * transpose(b) under the
    Einstein product.  The self-product a [] a is symmetrized exactly.
    """
    d = _require_same_cubic(a, b)
    m = (a.order + 1) // 2
    fa = matricize_general(a)
    fb = fa if b is a else matricize_general(b)
    return _gram_tensor(fa, fb.T, b is a, 2 * m, d)


def gen_product_inner(a: Tensor, b: Tensor) -> Tensor:
    """Contract the leading m modes of two order-N cubic tensors.

    Produces an order-2(N-m) tensor; for vectors this degenerates to the
    inner product (an order-0 tensor).
    """
    d = _require_same_cubic(a, b)
    m = (a.order + 1) // 2
    fa = matricize_general(a)
    fb = fa if b is a else matricize_general(b)
    return _gram_tensor(fa.T, fb, b is a, 2 * (a.order - m), d)


def _gram_tensor(x, y, self_product: bool, order: int, d: int) -> Tensor:
    """The matrix product x @ y folded into an order-``order`` cubic
    tensor; a self-product, y = x.T, is symmetrized exactly."""
    def compute():
        gram = x @ y
        if self_product:
            # the two accumulation orders of G[i,j] and G[j,i] may round
            # differently; the true result is symmetric, so enforce it
            gram = (gram + gram.T) / 2.0
        return gram.reshape(-1, order="F")

    return _finite((d,) * order, compute)


@np.errstate(all="ignore")  # _finite refuses a result that overflowed
def gen_product_outer_reference(a: Tensor, b: Tensor) -> Tensor:
    """Nested-loop evaluation of the trailing-mode product; oracle only."""
    d = _require_same_cubic(a, b)
    n = a.order
    m = (n + 1) // 2
    arr_a = a.to_array()
    arr_b = b.to_array()
    free = (d,) * m
    mid = (d,) * (n - m)
    out = np.zeros(free + free)
    for ii in np.ndindex(*free):
        for jj in np.ndindex(*free):
            acc = 0.0
            for kk in np.ndindex(*mid):
                acc += arr_a[ii + kk] * arr_b[jj + kk]
            out[ii + jj] = acc
    return _finite(free + free, lambda: out.reshape(-1, order="F"))


@np.errstate(all="ignore")  # _finite refuses a result that overflowed
def gen_product_inner_reference(a: Tensor, b: Tensor) -> Tensor:
    """Nested-loop evaluation of the leading-mode product; oracle only."""
    d = _require_same_cubic(a, b)
    n = a.order
    m = (n + 1) // 2
    arr_a = a.to_array()
    arr_b = b.to_array()
    free = (d,) * (n - m)
    mid = (d,) * m
    out = np.zeros(free + free)
    for kk in np.ndindex(*free):
        for ll in np.ndindex(*free):
            acc = 0.0
            for ii in np.ndindex(*mid):
                acc += arr_a[ii + kk] * arr_b[ii + ll]
            out[kk + ll] = acc
    return _finite(free + free, lambda: out.reshape(-1, order="F"))


def hermitian_dilation(mat) -> np.ndarray:
    """Symmetric block matrix [[0, B], [B^T, 0]] of a real matrix B.

    Its largest eigenvalue equals the spectral norm of B, which turns
    singular-value questions into symmetric eigenvalue questions.
    """
    b = np.atleast_2d(np.asarray(mat, dtype=np.float64))
    rows, cols = b.shape
    out = np.zeros((rows + cols, rows + cols))
    out[:rows, rows:] = b
    out[rows:, :rows] = b.T
    return out
