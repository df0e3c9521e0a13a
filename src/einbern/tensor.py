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

from .errors import DomainError, ShapeError

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
        shape = tuple(int(s) for s in shape)
        if any(s < 1 for s in shape):
            raise ShapeError(f"mode sizes must be positive, got {shape}")
        arr = np.asarray(data, dtype=np.float64)
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
    def is_cubic(self) -> bool:
        return self.order == 0 or all(s == self.shape[0] for s in self.shape)

    @property
    def cubic_dim(self) -> int:
        """Common mode size d; order-0 tensors count as dimension 1."""
        if not self.is_cubic:
            raise ShapeError(f"tensor of shape {self.shape} is not cubic")
        return self.shape[0] if self.order else 1

    def entry(self, *indices: int) -> float:
        """Entry at a 1-based multi-index."""
        return float(self.data[linearize(indices, self.shape) - 1])

    def item(self) -> float:
        if self.size != 1:
            raise ShapeError("item() requires a single-entry tensor")
        return float(self.data[0])

    def max_abs(self) -> float:
        return float(np.abs(self.data).max()) if self.size else 0.0

    def allclose(self, other: "Tensor", tol: float = DEFAULT_TOL) -> bool:
        if self.shape != other.shape:
            return False
        diff = float(np.abs(self.data - other.data).max())
        scale = max(self.max_abs(), other.max_abs())
        return diff <= tol * scale

    def _binary(self, other, op):
        if not isinstance(other, Tensor):
            return NotImplemented
        if self.shape != other.shape:
            raise ShapeError(f"shape mismatch: {self.shape} vs {other.shape}")
        return Tensor(self.shape, op(self.data, other.data), copy=False)

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return Tensor(self.shape, -self.data, copy=False)

    def __mul__(self, scalar):
        if isinstance(scalar, Tensor):
            return NotImplemented
        return Tensor(self.shape, self.data * float(scalar), copy=False)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return Tensor(self.shape, self.data / float(scalar), copy=False)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and bool(
            np.array_equal(self.data, other.data)
        )

    __hash__ = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, max_abs={self.max_abs():.3g})"


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
    if not t.is_cubic:
        raise ShapeError(f"shape {t.shape} is not cubic")
    return t.cubic_dim


def transpose_even(t: Tensor) -> Tensor:
    """Swap the first half of the modes with the second half.

    Acts on even-order cubic tensors; equals the matrix transpose of the
    paired-mode unfolding.
    """
    d = _require_even_cubic(t)
    if t.order == 0:
        return t
    half = d ** (t.order // 2)
    mat = t.data.reshape((half, half), order="F")
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


def symmetry_defects(mats: np.ndarray) -> np.ndarray:
    """max|M - M^T| of each matrix M of a (B, n, n) stack.  A defect that
    overflows is inf, which no tolerance accepts."""
    with np.errstate(over="ignore"):
        diff = mats - np.swapaxes(mats, -1, -2)
    np.abs(diff, out=diff)
    return diff.max(axis=(-2, -1))


def is_e_symmetric(t: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """True when the tensor equals its paired-mode transpose within tol."""
    d = _require_even_cubic(t)
    if t.order == 0:
        return True
    half = d ** (t.order // 2)
    mat = t.data.reshape((1, half, half), order="F")
    return float(symmetry_defects(mat)[0]) <= tol * t.max_abs()


def e_symmetric_rows(rows) -> np.ndarray:
    """Row-wise ``is_e_symmetric`` at DEFAULT_TOL over a (B, n*n) stack of
    flat even-order cubic tensors whose square unfoldings are n by n."""
    rows = np.asarray(rows, dtype=np.float64)
    n = math.isqrt(rows.shape[-1])
    if rows.ndim != 2 or n * n != rows.shape[1]:
        raise ShapeError(f"rows of shape {rows.shape} do not unfold to square matrices")
    defects = symmetry_defects(rows.reshape(len(rows), n, n))
    return defects <= DEFAULT_TOL * np.abs(rows).max(axis=1)


def is_diagonal(t: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """True when all off-diagonal entries vanish within tol (scaled)."""
    d = _require_even_cubic(t)
    if t.order == 0:
        return True
    half = d ** (t.order // 2)
    mat = t.data.reshape((half, half), order="F").copy()
    np.fill_diagonal(mat, 0.0)
    return float(np.abs(mat).max()) <= tol * t.max_abs()


def is_fully_symmetric(t: Tensor, tol: float = DEFAULT_TOL) -> bool:
    """True when entries are invariant under every mode permutation."""
    if not t.is_cubic:
        raise ShapeError(f"shape {t.shape} is not cubic")
    if t.order < 2:
        return True
    arr = t.to_array()
    scale = t.max_abs()
    with np.errstate(over="ignore"):  # an overflowing defect is inf: refused
        for perm in permutations(range(t.order)):
            if float(np.abs(arr - arr.transpose(perm)).max()) > tol * scale:
                return False
    return True


def outer_power(x, m: int) -> Tensor:
    """m-fold tensor power of a vector: entries prod_l x[i_l]."""
    if m < 1:
        raise DomainError(f"power must be at least 1, got {m}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("expected a vector")
    arr = reduce(np.multiply.outer, [x] * m)
    return Tensor((x.size,) * m, arr.reshape(-1, order="F"), copy=False)


def kron_power(x, m: int) -> np.ndarray:
    """m-fold Kronecker power of a vector, length d**m."""
    if m < 1:
        raise DomainError(f"power must be at least 1, got {m}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ShapeError("expected a vector")
    return reduce(np.kron, [x] * m)


def apply_power(t: Tensor, x) -> float:
    """Evaluate the homogeneous form sum a[i1...iN] x[i1] ... x[iN]."""
    d = _require_even_cubic(t)
    if t.order == 0:
        return t.item()
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (d,):
        raise ShapeError(f"vector of length {x.size} for dimension {d}")
    arr = t.to_array()
    for _ in range(t.order):
        arr = np.tensordot(arr, x, axes=([0], [0]))
    return float(arr)


def apply_power_map(t: Tensor, x) -> np.ndarray:
    """Contract all but the first mode with copies of x, for one vector or
    each row of an (R, d) block, in one product: the mode-1 unfolding times
    each row's (N-1)-fold Kronecker power, whose equal factors commute.

    For a fully symmetric tensor this is the gradient map whose fixed
    directions are the Z-eigenvectors.
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
    return Tensor(a.shape, a.data * b.data, copy=False)


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
    base = rng.uniform(-scale, scale, size=(d,) * order)
    acc = np.zeros_like(base)
    for perm in permutations(range(order)):
        acc += base.transpose(perm)
    return Tensor.from_array(acc / math.factorial(order))


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


def parse_tensor_text(text: str, max_entries: int | None = None) -> Tensor:
    """Parse the sparse fixture format produced by format_tensor_text.

    A header announcing more than ``max_entries`` entries is refused
    before any buffer is allocated.
    """
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ValueError("empty tensor text")
    try:
        order = int(rows[0][0])
        shape = tuple(int(v) for v in rows[0][1:])
    except ValueError as exc:
        raise ValueError(f"bad header line: {rows[0]}") from exc
    if len(shape) != order:
        raise ValueError(
            f"header announces order {order} but lists {len(shape)} mode sizes"
        )
    if max_entries is not None and math.prod(shape) > max_entries:
        raise ValueError(
            f"shape {shape} has {math.prod(shape)} entries, more than the "
            f"{max_entries} allowed"
        )
    data = np.zeros(math.prod(shape))
    for parts in rows[1:]:
        if len(parts) != order + 1:
            raise ValueError(f"entry line needs {order} indices and a value: {parts}")
        idx = tuple(int(p) for p in parts[:order])
        data[linearize(idx, shape) - 1] = float(parts[-1])
    return Tensor(shape, data, copy=False)


def read_tensor_text(path, max_entries: int | None = None) -> Tensor:
    with open(path, "r", encoding="ascii") as fh:
        return parse_tensor_text(fh.read(), max_entries)


def write_tensor_text(t: Tensor, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(format_tensor_text(t))
