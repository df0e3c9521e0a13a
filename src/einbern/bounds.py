"""Closed-form Bernstein-type bounds for random tensor sums.

Three bounds are provided: one for even-order pairwise-symmetric sums
(largest-eigenvalue statistic), one for sums of any order (spectral-norm
statistic), and an intrinsic-dimension refinement whose prefactor tracks
the effective rank of the variance statistics instead of the ambient
dimension.  Every expectation over a randomness law is evaluated by
exact enumeration of the law's support, never by sampling, so reports
are deterministic.

``stack_statistics`` is the one place a statistic of a tensor is
computed: L caps it over every realizable summand, and the Monte Carlo
lab measures it on sampled sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import _gram_tensor
from .errors import (MAX_MODEL_ENTRIES, ApplicabilityError, DomainError, ModelError,
                     NumericalError, ShapeError, _int, _is_integer, _is_real)
from .spectral import (
    _psd_spectrum, _trace, e_spectral_norm, sym_eig, sym_eigvals, top_singular_values
)
from .tensor import Tensor, _computed, _fmt, e_symmetric_rows, matricize, matricize_rows

__all__ = [
    "Rademacher",
    "Subsample",
    "SumModel",
    "TailBound",
    "THEOREMS",
    "BernsteinReport",
    "statistic",
    "stack_statistics",
    "uniform_bound_L",
    "variance_general",
    "intrinsic_report",
    "resolve_theorem",
    "build_report",
    "format_report",
    "format_tail_csv",
]

# Theorem names a report or an experiment may request; "auto" picks
# "even" when it applies and "general" otherwise
THEOREMS = ("auto", "even", "general", "intrinsic")


class _Law:
    """The randomness law of the summands X_k: the one owner of what a
    summand can be and of how one trial draws the K weights.

    A law states the scale of a drawn component (``scale``) and whether
    -X_k can be drawn as well as X_k (``signed``), checks its own
    parameters, and turns a finite component stack into the stack of
    zero-mean summands (``population``).  One trial makes ``count``
    uniform integer draws in [0, bound), where ``(bound, count) =
    draws(K)``, each picking one summand, and ``rows`` turns each row of
    draws into a row of K weights.  What a trial draws is owned by
    ``streams.TrialDraws``.
    """

    def population(self, stack: np.ndarray) -> np.ndarray:
        """A signed summand +-X_k has zero mean: the stack as it is."""
        return stack


@dataclass(frozen=True)
class Rademacher(_Law):
    """Each summand is its component times an independent uniform sign."""

    signed = True

    def scale(self, k: int) -> float:
        return 1.0

    def draws(self, k: int) -> tuple:
        return 2, k

    def rows(self, picks: np.ndarray, k: int) -> np.ndarray:
        """Signs: a pick of 0 is -1 and a pick of 1 is +1."""
        return 2.0 * picks - 1.0


@dataclass(frozen=True)
class Subsample(_Law):
    """Summands are uniform draws from the population, which the law centers.

    Each of ``sample_size`` independent draws picks one of the n centered
    population tensors and scales it by n / sample_size, matching the
    error of estimating a population total from a uniform subsample.
    Drawing with replacement keeps the summands independent.
    """

    sample_size: int
    signed = False

    def __post_init__(self):
        size = _int(self.sample_size, "sample_size", MAX_MODEL_ENTRIES)
        if size < 1:
            raise ModelError(f"sample_size must be a positive integer, got {size!r}")
        object.__setattr__(self, "sample_size", size)

    def scale(self, k: int) -> float:
        return k / self.sample_size

    def population(self, stack: np.ndarray) -> np.ndarray:
        """The centered population: the mean row is subtracted, so that
        the summands have zero mean."""
        return _computed("centering the subsample population",
                         lambda: stack - stack.mean(axis=0))

    def draws(self, k: int) -> tuple:
        return k, self.sample_size

    def rows(self, picks: np.ndarray, k: int) -> np.ndarray:
        """How often each row picked each component, scaled by n / s."""
        trials = len(picks)
        # one bincount over all rows, each offset into its own k bins
        flat = (picks + k * np.arange(trials)[:, None]).ravel()
        counts = np.bincount(flat, minlength=trials * k).reshape(trials, k)
        return self.scale(k) * counts


def _check_finite(stack: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=1))
    if bad.size:
        raise ModelError(
            f"non-finite entries (NaN or Inf) in {bad.size} of {len(stack)} "
            f"components, first at index {bad[0]}"
        )


def _stack_components(components) -> tuple:
    """(shape, stack) of same-shape tensors."""
    comps = tuple(components)
    if not comps:
        raise ModelError("a model needs at least one component")
    if not all(isinstance(c, Tensor) for c in comps):
        raise ModelError("components must be Tensor instances")
    shape = comps[0].shape
    for c in comps:
        if c.shape != shape:
            raise ModelError(f"components disagree in shape: {c.shape} vs {shape}")
    return shape, np.stack([c.data for c in comps])


@dataclass(frozen=True, eq=False)
class SumModel:
    """A random sum Y = sum_k X_k of independent zero-mean tensors.

    Row k of the read-only (K, d**N) ``stack`` is the flat buffer of
    component k, of mode sizes ``shape``: the law's ``population`` of the
    finite stack given (a subsample law centers it), copied if a view, so
    no other array writes to the model.  ``components`` are Tensor views
    of the rows, built on first use; bounds and trials never need them.
    """

    shape: tuple
    stack: np.ndarray = field(repr=False)
    law: Rademacher | Subsample = Rademacher()

    def __post_init__(self):
        try:
            shape = tuple(self.shape)
            stack = np.asarray(self.stack, dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"a model's shape or stack is malformed: {exc}") from None
        shape = tuple(_int(s, "mode size") for s in shape)
        if stack.ndim != 2 or not len(stack) or stack.shape[1] != math.prod(shape):
            raise ModelError(f"a {stack.shape} stack cannot hold shape {shape} rows")
        _check_finite(stack)
        if not shape or shape[0] < 1 or any(s != shape[0] for s in shape):
            raise ModelError(f"components must be cubic with order >= 1, got {shape}")
        if not isinstance(self.law, _Law):
            raise ModelError(f"unsupported randomness law: {self.law!r}")
        stack = self.law.population(stack)
        if stack.base is not None:
            stack = stack.copy()
        stack.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stack", stack)

    @classmethod
    def rademacher(cls, components) -> "SumModel":
        return cls(*_stack_components(components))

    @classmethod
    def subsample(cls, population, sample_size: int) -> "SumModel":
        """Wrap a population in a subsampling model, which centers it."""
        return cls(*_stack_components(population), Subsample(sample_size))

    @cached_property
    def components(self) -> tuple:
        """Read-only Tensor views of the rows of the stack."""
        return tuple(Tensor(self.shape, row, copy=False) for row in self.stack)

    @property
    def order(self) -> int:
        return len(self.shape)

    @property
    def dim(self) -> int:
        return self.shape[0]

    @property
    def split(self) -> int:
        """Leading mode count m = ceil(N/2) of the generalized products."""
        return (self.order + 1) // 2

    @property
    def num_summands(self) -> int:
        # each draw picks one summand
        return self.law.draws(len(self.stack))[1]

    @cached_property
    def _even_symmetric(self) -> bool:
        return self.order % 2 == 0 and bool(e_symmetric_rows(self.stack).all())

    def is_even_symmetric(self) -> bool:
        """True when the even-order, pairwise-symmetric bound applies.

        The one decision of E-symmetry: each component is measured at
        DEFAULT_TOL against its own largest entry, once per model.
        """
        return self._even_symmetric


def statistic(model: SumModel, theorem: str) -> tuple:
    """The name of the statistic a theorem bounds, and its kind.

    "lambda_max" is the largest eigenvalue of the square unfolding;
    "abs_eig" its largest magnitude, which is the generalized norm of a
    pairwise-symmetric even-order tensor; "sigma_max" the largest
    singular value of the general unfolding.
    """
    if theorem == "even":
        return "lambda_e_max", "lambda_max"
    if model.is_even_symmetric():
        return "gen_spectral_norm", "abs_eig"
    return "gen_spectral_norm", "sigma_max"


def stack_statistics(model: SumModel, rows: np.ndarray, kind: str) -> np.ndarray:
    """Statistic ``kind`` of each row of a (B, d**N) stack of tensors
    shaped like the model's components.

    Non-finite rows, and non-finite results, are a NumericalError from
    the solvers.  The eigenvalue kinds are asked for only when
    the model is E-symmetric, and solve the symmetric part of each row's
    square unfolding.
    """
    mats = matricize_rows(rows, model.order, model.dim)
    if kind == "sigma_max":
        return top_singular_values(mats)
    values = sym_eigvals(mats)
    top = values[:, -1]
    return top if kind == "lambda_max" else np.maximum(top, -values[:, 0])


def uniform_bound_L(model: SumModel, theorem: str = "auto") -> float:
    """Smallest uniform cap on the per-summand statistic.

    ``theorem`` is resolved by ``resolve_theorem``: the even bound caps
    the largest eigenvalue of each realizable summand, the others cap
    its spectral norm.  Both enumerate the finite realization set
    exactly: two signs per component under Rademacher (so the even cap
    is the eigenvalue magnitude), one scaled tensor per population
    member under subsampling.  A cap that overflows is a NumericalError.
    """
    stat = "sigma_max"
    if resolve_theorem(model, theorem) == "even":
        stat = "abs_eig" if model.law.signed else "lambda_max"
    top = float(stack_statistics(model, model.stack, stat).max())
    scale = float(model.law.scale(len(model.stack)))
    return max(_computed("the uniform bound L", lambda: scale * top), 0.0)


def _gram(model: SumModel, rows: np.ndarray, k: int) -> Tensor:
    """The law's scale times R^T R, exactly symmetric, as an order-2k
    tensor, where R is ``rows`` reshaped to d**k columns; overflow is a
    NumericalError.  This sums the expected squares of the summands:
    per subsample draw, the mean of the n population squares times
    (n/s)^2, summed over the s draws, is n/s times their sum."""
    rows = rows.reshape(-1, model.dim**k)
    gram = _gram_tensor(rows.T, rows, True, 2 * k, model.dim)
    return model.law.scale(len(model.stack)) * gram


def variance_general(model: SumModel) -> tuple:
    """Exact variance statistics (outer, inner) for tensors of any order:
    the sums of expected trailing-mode and leading-mode self-products.

    Independence and zero means make cross terms vanish, so summing the
    per-component second moments is exact, with the subsampling scale
    applied in closed form.  With F_k the unfoldings, the outer sum is
    H H^T for the side-by-side H = [F_1 ... F_K] and the inner sum is
    V^T V for the stacked V = [F_1; ...; F_K]: two Gram products.
    """
    order, d, m = model.order, model.dim, model.split
    # the columns of H are the length-d**m rows of the reshaped stack
    return (_gram(model, model.stack, m),
            _gram(model, matricize_rows(model.stack, order, d), order - m))


class TailBound(NamedTuple):
    raw: float
    clamped: float


@dataclass(frozen=True)
class BernsteinReport:
    """Bound values for one theorem applied to one model.

    A report is fixed by the theorem, integers N >= 1 and d >= 1, real
    L and nu and, for the intrinsic bound, a real ``dv`` > 0; everything
    else is derived here, starting with the split m = ceil(N/2).
    ``dim_factor`` is d**m for the even-order bound (which needs d >= 2)
    and d**m + d**(N-m) otherwise; one that does not fit a float is a
    NumericalError.
    Each mean bound is sqrt(2 nu l) + L l / 3, with l = m log d for the
    even-order bound and log(dim_factor) otherwise.  ``tail_factor`` is
    the multiplier of the tail curve: 4 max(dv, 1) for the intrinsic
    bound, which has no mean bound and holds only for t >= sqrt(nu) + L/3.
    """

    theorem: str
    order: int
    dim: int
    split: int = field(init=False)
    L: float
    nu: float
    dim_factor: float = field(init=False)
    tail_factor: float = field(init=False)
    dv: float | None = None
    expectation_bound: float | None = field(init=False)
    tail_domain_min: float = field(init=False)

    def __post_init__(self):
        if self.theorem not in THEOREMS[1:]:
            raise DomainError(f"unknown theorem {self.theorem!r}")
        if (self.theorem == "intrinsic") != (self.dv is not None):
            raise DomainError("the intrinsic bound, and only it, takes dv")
        if not all(_is_integer(x) and x >= 1 for x in (self.order, self.dim)):
            raise DomainError(f"order and dim must be integers >= 1, got "
                              f"{self.order!r}, {self.dim!r}")
        reals = (self.L, self.nu) if self.dv is None else (self.L, self.nu, self.dv)
        if not all(_is_real(x) for x in reals):
            raise DomainError(f"L, nu and dv must be real numbers, got "
                              f"{self.L!r}, {self.nu!r}, {self.dv!r}")
        if not (math.isfinite(self.nu) and math.isfinite(self.L)):
            raise NumericalError(f"non-finite bound quantity: L={self.L}, nu={self.nu}")
        if self.nu < 0 or self.L < 0:
            raise DomainError("nu and L must be nonnegative")
        n_order, d = int(self.order), int(self.dim)
        m = (n_order + 1) // 2
        even = self.theorem == "even"
        if even and d < 2:
            raise ApplicabilityError("the even-order mean bound needs d >= 2")
        try:
            dim_factor = float(d**m if even else d**m + d ** (n_order - m))
        except OverflowError:
            raise NumericalError(f"the dimensional factor of order {n_order} at dim "
                                 f"{d} does not fit a float") from None
        # m log d for the even bound, which is not always log(d**m) to the last bit
        log_dim = m * math.log(d) if even else math.log(dim_factor)
        mean = math.sqrt(2.0 * self.nu * log_dim) + self.L * log_dim / 3.0
        tail_factor, domain_min = dim_factor, 0.0
        if self.theorem == "intrinsic":
            if not self.dv > 0:
                raise NumericalError(f"intrinsic dimension {self.dv} is not positive")
            if self.dv > dim_factor * (1 + 1e-9):
                raise NumericalError(
                    f"intrinsic dimension {self.dv} exceeds the ambient factor "
                    f"{dim_factor}"
                )
            tail_factor, mean = 4.0 * max(self.dv, 1.0), None
            domain_min = math.sqrt(self.nu) + self.L / 3.0
        if mean is not None and not math.isfinite(mean):
            raise NumericalError(
                f"the mean bound overflowed: L={self.L}, nu={self.nu}"
            )
        object.__setattr__(self, "split", m)
        object.__setattr__(self, "dim_factor", dim_factor)
        object.__setattr__(self, "tail_factor", tail_factor)
        object.__setattr__(self, "expectation_bound", mean)
        object.__setattr__(self, "tail_domain_min", domain_min)

    def in_domain(self, t: float) -> bool:
        """Whether the tail bound holds at t; 1e-12 of slack absorbs the
        rounding of grids that start at the threshold."""
        return t >= self.tail_domain_min - 1e-12

    def tail(self, t: float) -> TailBound:
        """Tail probability bound tail_factor * exp(-t^2/2 / (nu + L t / 3)).

        The raw value can exceed 1; the clamped value is capped there for
        reporting.  Where t^2 or the denominator overflows, or the
        denominator underflows to zero, the same exponent is evaluated as
        t/2 / (nu/t + L/3); so a deterministic zero sum (nu = L = 0) has
        zero tail for every positive t.
        """
        if not math.isfinite(t):
            raise DomainError(f"t must be finite, got {t}")
        if not self.in_domain(t):
            raise DomainError(
                f"t={t} is below the bound's validity threshold "
                f"{self.tail_domain_min}"
            )
        if t < 0:
            raise DomainError(f"t must be nonnegative, got {t}")
        nu, L = self.nu, self.L
        if t == 0.0:
            raw = self.tail_factor
        else:
            square, denom = t * t, nu + L * t / 3.0
            if math.isfinite(square) and 0.0 < denom < math.inf:
                exponent = square / 2.0 / denom
            else:
                slope = nu / t + L / 3.0
                exponent = 0.5 * t / slope if slope > 0.0 else math.inf
            raw = self.tail_factor * math.exp(-exponent)
        return TailBound(raw=raw, clamped=min(1.0, raw))


def _check_e_psd(t: Tensor, problem: str, scale=None) -> np.ndarray:
    """The E-spectrum of ``t``, which must be E-PSD by the rule of
    ``spectral._psd_spectrum`` with the spectrum ``scale`` (by default that
    of ``t``); a lower eigenvalue is a DomainError that states ``problem``."""
    values, tol = _psd_spectrum(t, scale)
    if values[-1] < -tol:
        raise DomainError(f"{problem} (min eigenvalue {values[-1]:.3e})")
    return values


def intrinsic_report(
    v_outer: Tensor,
    v_inner: Tensor,
    L: float,
    exact_outer: Tensor | None = None,
    exact_inner: Tensor | None = None,
) -> BernsteinReport:
    """Intrinsic-dimension tail bound from variance upper bounds.

    ``v_outer`` and ``v_inner`` must be E-PSD and, when the exact
    statistics are supplied, dominate them in the E-PSD order.  Their
    orders must be 2m and 2(N-m), m = ceil(N/2), with one mode size d,
    else a ShapeError.  The tail 4 dv exp(-t^2/2/(nu + Lt/3)) is valid
    for t >= sqrt(nu) + L/3.

    The intrinsic dimension from the tensor traces is cross-checked
    against trace/norm of the block matrix assembled from the two
    unfoldings.
    """
    vals_outer = _check_e_psd(v_outer, "outer variance bound must be E-PSD")
    vals_inner = _check_e_psd(v_inner, "inner variance bound must be E-PSD")
    dominates = "variance bound does not dominate the exact variance statistic"
    if exact_outer is not None:
        _check_e_psd(v_outer - exact_outer, f"outer {dominates}", vals_outer)
    if exact_inner is not None:
        _check_e_psd(v_inner - exact_inner, f"inner {dominates}", vals_inner)

    dims = {v.cubic_dim for v in (v_outer, v_inner) if v.order}  # order 0 has no d
    if len(dims) > 1 or v_outer.order - v_inner.order not in (0, 2):  # 2m - 2(N-m)
        raise ShapeError(f"variance bounds of shapes {v_outer.shape} and "
                         f"{v_inner.shape} do not come from one cubic order-N sum")
    order, d = (v_outer.order + v_inner.order) // 2, max(dims, default=1)
    nu = float(max(vals_outer[0], vals_inner[0]))
    if nu <= 0.0:
        raise ApplicabilityError(
            "zero variance leaves the intrinsic dimension undefined"
        )
    # block matrix [[f(v_outer)^T, 0], [0, f(v_inner)]]
    fo = matricize(v_outer).T
    fi = matricize(v_inner)
    dv = (_trace(fo, "outer variance bound") + _trace(fi, "inner variance bound")) / nu
    block = np.zeros((fo.shape[0] + fi.shape[0],) * 2)
    block[: fo.shape[0], : fo.shape[1]] = fo
    block[fo.shape[0] :, fo.shape[1] :] = fi
    block_values = sym_eig(block).values
    dv_matrix = _trace(block, "variance block matrix") / float(block_values[0])
    if abs(dv - dv_matrix) > 1e-12 * max(1.0, abs(dv)):
        raise NumericalError(
            f"intrinsic dimension mismatch: {dv} from traces, "
            f"{dv_matrix} from the block matrix"
        )

    return BernsteinReport("intrinsic", order, d, float(L), nu, dv)


def resolve_theorem(model: SumModel, requested: str = "auto") -> str:
    """Pick the bound to apply, validating applicability; "auto" picks
    "even" only where its report exists, which needs d >= 2."""
    if requested not in THEOREMS:
        raise DomainError(f"unknown theorem {requested!r}")
    if requested == "auto":
        return "even" if model.is_even_symmetric() and model.dim >= 2 else "general"
    if requested == "even" and not model.is_even_symmetric():
        raise ApplicabilityError(
            "the even-order bound needs an even order and pairwise-symmetric "
            "components"
        )
    return requested


def build_report(model: SumModel, theorem: str = "auto") -> BernsteinReport:
    """Compute every bound quantity of the chosen theorem for a model."""
    theorem = resolve_theorem(model, theorem)
    L = uniform_bound_L(model, theorem)
    if theorem == "even":
        # a pairwise-symmetric X has X * X = X * X^T, so the summed Einstein
        # squares are the general bound's outer Gram sum
        nu = e_spectral_norm(_gram(model, model.stack, model.split))
        return BernsteinReport("even", model.order, model.dim, L, nu)
    outer, inner = variance_general(model)
    if theorem == "general":
        nu = max(e_spectral_norm(outer), e_spectral_norm(inner))
        return BernsteinReport("general", model.order, model.dim, L, nu)
    return intrinsic_report(outer, inner, L)


def format_report(report: BernsteinReport) -> str:
    """Flat key=value serialization, one entry per line."""
    pairs = [
        ("theorem", report.theorem),
        ("order", str(report.order)),
        ("dim", str(report.dim)),
        ("split", str(report.split)),
        ("L", _fmt(report.L)),
        ("nu", _fmt(report.nu)),
        ("dim_factor", _fmt(report.dim_factor)),
        ("tail_factor", _fmt(report.tail_factor)),
    ]
    if report.dv is not None:
        pairs.append(("intrinsic_dim", _fmt(report.dv)))
    if report.expectation_bound is not None:
        pairs.append(("expectation_bound", _fmt(report.expectation_bound)))
    pairs.append(("tail_domain_min", _fmt(report.tail_domain_min)))
    return "".join(f"{k}={v}\n" for k, v in pairs)


def format_tail_csv(report: BernsteinReport, ts) -> str:
    """CSV tail curve with both the raw and the clamped bound."""
    lines = ["t,bound_raw,bound_clamped"]
    for t in ts:
        raw, clamped = report.tail(float(t))
        lines.append(f"{_fmt(t)},{_fmt(raw)},{_fmt(clamped)}")
    return "\n".join(lines) + "\n"
