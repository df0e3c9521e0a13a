"""Dense real tensors stored flat with mode 1 fastest.

A 1-based multi-index (i1, ..., iN) of a tensor with mode sizes
(d1, ..., dN) maps to the 1-based flat position

    i = i1 + (i2 - 1) * d1 + (i3 - 1) * d1 * d2 + ...

so the first mode varies fastest.  Every unfolding used elsewhere in the
package is then a pure reshape of the flat buffer: no data ever moves.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import permutations

import numpy as np

from .errors import (DomainError, ModelError, NumericalError, ShapeError, _float, _int,
                     _is_integer)

__all__ = [
    "DEFAULT_TOL",
    "Tensor",
    "apply_power",
    "apply_power_map",
    "delinearize",
    "e_symmetric_rows",
    "format_tensor_text",
    "hadamard",
    "identity_tensor",
    "is_diagonal",
    "is_e_symmetric",
    "is_fully_symmetric",
    "kron_power",
    "linearize",
    "outer_power",
    "parse_tensor_text",
    "psd_counterexample_tensor",
    "random_e_symmetric",
    "random_fully_symmetric",
    "random_tensor",
    "read_tensor_text",
    "transpose_even",
    "write_tensor_text",
]

# Entrywise comparisons are absolute after scaling by the largest entry
# magnitude; contractions at desk scale keep rounding well below this.
DEFAULT_TOL = 1e-12


class Tensor:
    """Immutable dense tensor of float64 entries.

    ``data`` holds the flat buffer in mode-1-fastest order and is marked
    read-only, so instances are safe to share across threads.
    """

    __slots__ = ("shape", "data")

    def __init__(self, shape, data, copy: bool = True):
        try:
            shape = tuple(shape)
        except TypeError:
            raise ShapeError(f"shape must be a sequence of mode sizes, got {shape!r}") from None
        if not all(_is_integer(s) for s in shape):
            raise ShapeError(f"mode sizes must be integers, got {shape}")
        shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in shape):
            raise ShapeError(f"mode sizes must be positive, got {shape}")
        try:
            arr = np.asarray(data, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise DomainError(f"data are not float64 entries: {exc}") from None
        if arr.ndim != 1:
            raise ShapeError("data must be a flat one-dimensional buffer")
        if arr.size != math.prod(shape):
            raise ShapeError(
                f"data length {arr.size} does not match shape {shape}"
                f" (expected {math.prod(shape)})"
            )
        if copy:
            arr = arr.copy()
        arr.flags.writeable = False
        self.shape = shape
        self.data = arr

    @classmethod
    def from_array(cls, array) -> "Tensor":
        """Build a tensor from a multiarray, flattening mode 1 fastest."""
        arr = np.asarray(array, dtype=np.float64)
        return cls(arr.shape, arr.reshape(-1, order="F"))

    def to_array(self) -> np.ndarray:
        """Read-only multiarray view of the entries."""
        return self.data.reshape(self.shape, order="F")

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def cubic_dim(self) -> int:
        """Common mode size d; order-0 tensors count as dimension 1.  The
        one judgement of whether a tensor is cubic."""
        if any(s != self.shape[0] for s in self.shape):
            raise ShapeError(f"shape {self.shape} is not cubic")
        return self.shape[0] if self.order else 1

    def entry(self, *indices: int) -> float:
        """Entry at a 1-based multi-index."""
        return float(self.data[linearize(indices, self.shape) - 1])

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError("item() requires a single-entry tensor")
        return float(self.data[0])

    def max_abs(self) -> float:
        return float(np.abs(self.data).max())

    def allclose(self, other: "Tensor", tol: float = DEFAULT_TOL) -> bool:
        return self.shape == other.shape and bool(_close(self.data, other.data, tol))

    def _binary(self, other, op):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        return _finite(self.shape, lambda: op(self.data, other.data))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return Tensor(self.shape, -self.data, copy=False)

    def __mul__(self, scalar):
        if isinstance(scalar, Tensor):
            return NotImplemented
        return _finite(self.shape, lambda: self.data * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return _finite(self.shape, lambda: self.data / float(scalar))

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.data, other.data)
        )

    __hash__ = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, max_abs={self.max_abs():.3g})"


def _require_finite_result(values: np.ndarray, what: str) -> np.ndarray:
    """``values``, which a solver or a product computed; a non-finite one
    is a NumericalError naming ``what`` overflowed."""
    if not np.isfinite(values).all():
        raise NumericalError(f"{what} overflowed to a non-finite value")
    return values


def _computed(what: str, compute):
    """What ``compute()`` returns, computed with numpy's float warnings
    off; a non-finite value is a NumericalError naming ``what`` overflowed."""
    with np.errstate(all="ignore"):
        values = compute()
    return _require_finite_result(values, what)


def _finite(shape, compute) -> Tensor:
    """The tensor whose flat entries ``compute()`` returns, by ``_computed``.
    Tensor arithmetic and the tensor products build their results here."""
    return Tensor(shape, _computed("tensor arithmetic", compute), copy=False)


def linearize(indices, shape) -> int:
    """Map a 1-based multi-index to its 1-based flat position."""
    if len(indices) != len(shape):
        raise ShapeError(
            f"index of length {len(indices)} for shape of length {len(shape)}"
        )
    flat = 0
    stride = 1
    for pos, (i, d) in enumerate(zip(indices, shape), start=1):
        if not 1 <= i <= d:
            raise IndexError(f"index {i} out of range 1..{d} at mode {pos}")
        flat += (i - 1) * stride
        stride *= d
    return flat + 1


def delinearize(flat: int, shape) -> tuple:
    """Inverse of :func:`linearize`; both ends 1-based."""
    size = math.prod(shape)
    if not 1 <= flat <= size:
        raise IndexError(f"flat index {flat} out of range 1..{size}")
    rem = flat - 1
    out = []
    for d in shape:
        out.append(rem % d + 1)
        rem //= d
    return tuple(out)


def _require_even_cubic(t: Tensor) -> int:
    if t.order % 2:
        raise ShapeError(f"order {t.order} is odd; an even order is required")
    return t.cubic_dim


def matricize_rows(rows, order: int, d: int) -> np.ndarray:
    """Unfold each row of a (B, d**order) stack of flat cubic tensors: a
    (B, d**m, d**(order-m)) view, m = ceil(order/2).  The one place a flat
    buffer becomes an unfolding; the others are its one-row case."""
    m = (order + 1) // 2
    return np.asarray(rows).reshape(-1, d ** (order - m), d**m).transpose(0, 2, 1)


def matricize_general(t: Tensor) -> np.ndarray:
    """The general unfolding of a cubic tensor, a read-only view of its
    buffer: ``matricize_rows`` of its one row."""
    return matricize_rows(t.data[None], t.order, t.cubic_dim)[0]


def matricize(t: Tensor) -> np.ndarray:
    """The square paired-mode unfolding of an even-order cubic tensor:
    the ``matricize_general`` view of its buffer, after the order check."""
    _require_even_cubic(t)
    return matricize_general(t)


def unmatricize(mat, order: int, d: int) -> Tensor:
    """Fold a d**m by d**(order-m) matrix back into a cubic tensor."""
    if order < 0 or d < 1:
        raise ShapeError(f"bad target order {order} or dimension {d}")
    arr = np.asarray(mat, dtype=np.float64)
    m = (order + 1) // 2
    expected = (d**m, d ** (order - m))
    if arr.shape != expected:
        raise ShapeError(
            f"matrix of shape {arr.shape} cannot fold to order {order}, "
            f"dimension {d} (expected {expected})"
        )
    return Tensor((d,) * order, arr.reshape(-1, order="F"))


def transpose_even(t: Tensor) -> Tensor:
    """Swap the first half of the modes with the second half.

    Acts on even-order cubic tensors; equals the matrix transpose of the
    paired-mode unfolding.
    """
    mat = matricize(t)
    return Tensor(t.shape, mat.T.reshape(-1, order="F"), copy=False)


def identity_tensor(m: int, d: int) -> Tensor:
    """Order-2m tensor acting as the unit for the Einstein product.

    Entries are 1 exactly when each of the first m indices equals its
    partner among the last m.
    """
    if m < 1 or d < 1:
        raise DomainError(f"m and d must be positive, got m={m}, d={d}")
    eye = np.eye(d**m)
    return Tensor((d,) * (2 * m), eye.reshape(-1, order="F"), copy=False)


def _close(a, b, tol: float, axis=None, scale=None):
    """Whether max|a - b| <= tol * max(max|a|, max|b|), reduced over
    ``axis`` (all axes by default).  A caller that knows that maximum, as
    when b rearranges the entries of a, passes it as ``scale``.  A
    non-finite entry, or a difference that overflows, reads False, and no
    numpy warning is raised; empty arrays are close."""
    with np.errstate(over="ignore", invalid="ignore"):
        if scale is None:
            scale = np.maximum(np.abs(a).max(axis=axis, initial=0.0),
                               np.abs(b).max(axis=axis, initial=0.0))
        diff = np.abs(a - b).max(axis=axis, initial=0.0)
        return (diff <= tol * scale) & np.isfinite(scale)


def is_e_symmetric(t: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """True when the tensor equals its paired-mode transpose within tol."""
    mat = matricize(t)
    return bool(_close(mat, mat.T, tol, scale=t.max_abs()))


def e_symmetric_rows(rows) -> np.ndarray:
    """Row-wise ``is_e_symmetric`` at DEFAULT_TOL over a (B, n*n) stack of
    flat even-order cubic tensors whose square unfoldings are n by n."""
    rows = np.asarray(rows, dtype=np.float64)
    n = math.isqrt(rows.shape[-1])
    if rows.ndim != 2 or n * n != rows.shape[1]:
        raise ShapeError(f"rows of shape {rows.shape} do not unfold to square matrices")
    mats = matricize_rows(rows, 2, n)  # square: unfolded as order 2, dim n
    return _close(mats, mats.swapaxes(1, 2), DEFAULT_TOL, axis=(1, 2),
                  scale=np.abs(rows).max(axis=1))


def is_diagonal(t: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """True when all off-diagonal entries vanish within tol (scaled)."""
    mat = matricize(t)
    return bool(_close(mat, np.diag(np.diag(mat)), tol))


def _orbits(order: int, d: int) -> tuple:
    """The flat positions of an order-``order``, dimension-``d`` cubic
    tensor grouped by sorted multi-index into the mode permutations' orbits,
    and each orbit's start; either flattening order gives the same orbits."""
    weights = d ** np.arange(order)
    keys = np.arange(d**order)  # positions, keyed in place tile by tile to bound memory
    for tile in np.split(keys, range(1 << 16, keys.size, 1 << 16)):
        tile[:] = weights @ np.sort(tile // weights[:, None] % d, axis=0)
    positions = np.argsort(keys, kind="stable")
    return positions, np.flatnonzero(np.diff(keys[positions], prepend=-1))


def _orbit_means(rows: np.ndarray, order: int, d: int) -> np.ndarray:
    """Each entry of every row of a (B, d**order) stack replaced by its
    orbit's mean, which is the row's mean over all mode permutations."""
    positions, starts = _orbits(order, d)
    sizes = np.diff(starts, append=positions.size)
    means = np.add.reduceat(rows[:, positions], starts, axis=1) / sizes
    out = np.empty_like(rows)
    out[:, positions] = np.repeat(means, sizes, axis=1)
    return out


def is_fully_symmetric(t: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """True when entries are invariant under every mode permutation: with
    rounding monotone, the range max - min of an orbit is the largest
    difference between any of its entries and a permuted one."""
    positions, starts = _orbits(t.order, t.cubic_dim)
    values = t.data[positions]
    return bool(_close(np.maximum.reduceat(values, starts),
                       np.minimum.reduceat(values, starts), tol, scale=t.max_abs()))


def _power_operand(x, m: int) -> np.ndarray:
    """The vector x as float64, the operand of an m-fold power, m >= 1."""
    if m < 1:
        raise DomainError(f"power must be at least 1, got {m}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("expected a vector")
    return x


def outer_power(x, m: int) -> Tensor:
    """m-fold tensor power of a vector: entries prod_l x[i_l]."""
    x = _power_operand(x, m)
    return _finite((x.size,) * m,
                   lambda: reduce(np.multiply.outer, [x] * m).reshape(-1, order="F"))


def kron_power(x, m: int) -> np.ndarray:
    """m-fold Kronecker power of a vector, length d**m."""
    x = _power_operand(x, m)
    return _computed("the Kronecker power", lambda: reduce(np.kron, [x] * m))


def apply_power(t: Tensor, x) -> float:
    """Evaluate the homogeneous form sum a[i1...iN] x[i1] ... x[iN], as
    x times ``apply_power_map``; an overflow is a NumericalError."""
    d = _require_even_cubic(t)
    if t.order == 0:
        return t.item()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ShapeError(f"vector of length {x.size} for dimension {d}")
    return float(_computed("the form", lambda: x @ apply_power_map(t, x)))


def apply_power_map(t: Tensor, x) -> np.ndarray:
    """Contract all but the first mode with copies of x, for one vector or
    each row of an (R, d) block, in one product: the mode-1 unfolding times
    each row's (N-1)-fold Kronecker power, whose equal factors commute.

    For a fully symmetric tensor this is the gradient map whose fixed
    directions are the Z-eigenvectors.  The raw kernel: it neither checks
    its values nor silences numpy's float warnings, so a caller that can
    overflow does both, as ``apply_power`` and ``z_eigen_max`` do.
    """
    d = _require_even_cubic(t)
    if t.order == 0:
        raise ShapeError("order-0 tensor has no modes to keep")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != d:
        raise ShapeError(f"vectors of shape {x.shape} for dimension {d}")
    powers = rows = np.atleast_2d(x)
    for _ in range(t.order - 2):
        powers = (powers[:, :, None] * rows[:, None, :]).reshape(len(rows), -1)
    return (powers @ t.data.reshape(-1, d)).reshape(x.shape)


def hadamard(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of two tensors of identical shape."""
    if a.shape != b.shape:
        raise ShapeError(f"shape mismatch: {a.shape} vs {b.shape}")
    return _finite(a.shape, lambda: a.data * b.data)


def psd_counterexample_tensor() -> Tensor:
    """Order-4, dimension-3 witness separating the two PSD notions.

    Its quartic form is 6 x1^2 x2^2 >= 0 everywhere, yet the paired-mode
    unfolding is indefinite, so the tensor is PSD without being E-PSD.
    """
    arr = np.zeros((3, 3, 3, 3))
    for idx in set(permutations((0, 0, 1, 1))):
        arr[idx] = 1.0
    return Tensor.from_array(arr)


def random_tensor(rng: np.random.Generator, shape, scale: float = 1.0) -> Tensor:
    """Tensor with independent uniform(-scale, scale) entries."""
    size = math.prod(tuple(shape))
    return Tensor(shape, rng.uniform(-scale, scale, size=size), copy=False)


def random_e_symmetric(
    rng: np.random.Generator, m: int, d: int, scale: float = 1.0
) -> Tensor:
    """Random even-order cubic tensor symmetrized across paired modes."""
    t = random_tensor(rng, (d,) * (2 * m), scale)
    return (t + transpose_even(t)) / 2.0


def random_fully_symmetric(
    rng: np.random.Generator, order: int, d: int, scale: float = 1.0
) -> Tensor:
    """Random cubic tensor averaged over all mode permutations."""
    draws = rng.uniform(-scale, scale, size=(1, d**order))
    return Tensor((d,) * order, _orbit_means(draws, order, d)[0], copy=False)


def _fmt(value: float) -> str:
    """The .17g text of a float, which round-trips it: the number format
    of fixtures, bound reports and CSV files."""
    return format(float(value), ".17g")


def format_tensor_text(t: Tensor) -> str:
    """Serialize in the sparse fixture format.

    First line is "N d1 ... dN"; each following line is "i1 ... iN value"
    for a nonzero entry with 1-based indices.  Unlisted entries are zero.
    """
    lines = [" ".join([str(t.order)] + [str(s) for s in t.shape])]
    for pos in range(t.size):
        v = float(t.data[pos])
        if v != 0.0:
            idx = delinearize(pos + 1, t.shape)
            lines.append(" ".join(str(i) for i in idx) + " " + _fmt(v))
    return "\n".join(lines) + "\n"


def _from_entries(shape, entries, max_entries: int | None = None) -> Tensor:
    """The sparse format's one reader: positive mode sizes, then entries of one
    1-based index per mode and a value; unlisted entries are zero.  A shape of
    over ``max_entries`` entries is refused before any buffer is allocated."""
    shape = tuple(_int(s, "mode size") for s in shape)
    if any(s < 1 for s in shape):
        raise ModelError(f"mode sizes must be positive, got {list(shape)}")
    size = math.prod(shape)
    if max_entries is not None and size > max_entries:
        raise ModelError(f"shape {list(shape)} has {size} entries, more than the "
                         f"{max_entries} the entry budget allows")
    data = np.zeros(size)
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != len(shape) + 1:
            raise ModelError(f"entry {entry!r} needs {len(shape)} indices and a value")
        idx = tuple(_int(i, "entry index") for i in entry[:-1])
        data[linearize(idx, shape) - 1] = _float(entry[-1], "entry value")
    return Tensor(shape, data, copy=False)


def _number(token: str):
    """The int, or else the float, a token spells; a token that spells
    neither is kept, for ``_from_entries`` to refuse by its field."""
    try:
        return int(token) if token.lstrip("+-").isdigit() else float(token)
    except ValueError:
        return token


def parse_tensor_text(text: str, max_entries: int | None = None) -> Tensor:
    """Parse the sparse fixture format produced by format_tensor_text;
    ``_from_entries`` judges the numbers of its header and entry lines."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty tensor text")
    try:
        order = int(rows[0][0])
    except ValueError as exc:
        raise ValueError(f"bad header line: {rows[0]}") from exc
    shape = [_number(v) for v in rows[0][1:]]
    if len(shape) != order:
        raise ValueError(f"header announces order {order} but lists {len(shape)} mode sizes")
    entries = ([_number(v) for v in parts] for parts in rows[1:])
    return _from_entries(shape, entries, max_entries)


def read_tensor_text(path, max_entries: int | None = None) -> Tensor:
    with open(path, "r", encoding="ascii") as fh:
        return parse_tensor_text(fh.read(), max_entries)


def write_tensor_text(t: Tensor, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_tensor_text(t))
