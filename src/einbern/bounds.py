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
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .algebra import matricize, matricize_rows, unmatricize
from .errors import ApplicabilityError, DomainError, ModelError, NumericalError
from .spectral import (
    e_eigenvalues, e_spectral_norm, sym_eig, sym_eigvals, top_singular_values
)
from .tensor import DEFAULT_TOL, Tensor, e_symmetric_rows

__all__ = [
    "Rademacher",
    "Subsample",
    "SumModel",
    "GeneralVariance",
    "TailBound",
    "THEOREMS",
    "BernsteinReport",
    "statistic",
    "stack_statistics",
    "uniform_bound_L",
    "einstein_second_moment",
    "variance_even",
    "variance_general",
    "expectation_bound",
    "expectation_bound_general",
    "tail_bound",
    "intrinsic_report",
    "resolve_theorem",
    "build_report",
    "format_report",
    "format_tail_csv",
]

# Theorem names a report or an experiment may request; "auto" picks
# "even" when it applies and "general" otherwise
THEOREMS = ("auto", "even", "general", "intrinsic")

# E-PSD ordering checks accept eigenvalues down to -PSD_TOL times the norm
PSD_TOL = 1e-10


class _Law:
    """The randomness law of the summands X_k: the one owner of what a
    summand can be and of how one trial draws the K weights.

    A law states the scale of a drawn component (``scale``) and whether
    -X_k can be drawn as well as X_k (``signed``), and checks its own
    parameters and the component stack (``check_stack``).  One trial
    makes ``count`` uniform integer draws in [0, bound), where ``(bound,
    count) = draws(K)``, each picking one summand, and ``rows`` turns
    each row of draws into a row of K weights.  What a trial draws is
    owned by ``streams.TrialDraws``.
    """

    def check_stack(self, stack: np.ndarray) -> None:
        """Any finite stack is a valid set of components."""

    def weights(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """One trial's weight row: K floats drawn from ``rng``."""
        bound, count = self.draws(k)
        return self.rows(rng.integers(0, bound, size=count)[None], k)[0]


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
    """Summands are uniform draws from the centered population.

    Each of ``sample_size`` independent draws picks one of the n centered
    population tensors and scales it by n / sample_size, matching the
    error of estimating a population total from a uniform subsample.
    Drawing with replacement keeps the summands independent.
    """

    sample_size: int
    signed = False

    def __post_init__(self):
        size = self.sample_size
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 1:
            raise ModelError(f"sample_size must be a positive integer, got {size!r}")

    def scale(self, k: int) -> float:
        return k / self.sample_size

    def check_stack(self, stack: np.ndarray) -> None:
        """The population must be centered, so that the summands have
        zero mean."""
        total = stack.sum(axis=0)
        scale = float(np.abs(stack).max())
        if float(np.abs(total).max()) > DEFAULT_TOL * max(scale, 1.0) * len(stack):
            raise ModelError(
                "subsample population is not centered; build the model "
                "with SumModel.subsample to center it"
            )

    def draws(self, k: int) -> tuple:
        return k, self.sample_size

    def rows(self, picks: np.ndarray, k: int) -> np.ndarray:
        """How often each row picked each component, scaled by n / s."""
        trials = len(picks)
        # one bincount over all rows, each offset into its own k bins
        flat = (picks + k * np.arange(trials)[:, None]).ravel()
        counts = np.bincount(flat, minlength=trials * k).reshape(trials, k)
        return self.scale(k) * counts


def _check_finite(stack: np.ndarray) -> np.ndarray:
    bad = np.flatnonzero(~np.isfinite(stack).all(axis=1))
    if bad.size:
        raise ModelError(
            f"non-finite entries (NaN or Inf) in {bad.size} of {len(stack)} "
            f"components, first at index {bad[0]}"
        )
    return stack


def _stack_components(components) -> tuple:
    """(shape, stack) of same-shape tensors, checked finite before any
    centering, which would spread one NaN to every row."""
    comps = tuple(components)
    if not comps:
        raise ModelError("a model needs at least one component")
    if not all(isinstance(c, Tensor) for c in comps):
        raise ModelError("components must be Tensor instances")
    shape = comps[0].shape
    for c in comps:
        if c.shape != shape:
            raise ModelError(f"components disagree in shape: {c.shape} vs {shape}")
    return shape, _check_finite(np.stack([c.data for c in comps]))


@dataclass(frozen=True, eq=False)
class SumModel:
    """A random sum Y = sum_k X_k of independent zero-mean tensors.

    Row k of the read-only (K, d**N) ``stack`` is the flat buffer of
    component k, of mode sizes ``shape``; a view is copied, so no other
    array writes to the model.  ``components`` are Tensor views of the
    rows, built on first use; bounds and trials never need them.
    """

    shape: tuple
    stack: np.ndarray = field(repr=False)
    law: Rademacher | Subsample = Rademacher()

    def __post_init__(self):
        shape = tuple(self.shape)
        stack = np.asarray(self.stack, dtype=np.float64)
        if stack.base is not None:
            stack = stack.copy()
        if stack.ndim != 2 or not len(stack) or stack.shape[1] != math.prod(shape):
            raise ModelError(f"a {stack.shape} stack cannot hold shape {shape} rows")
        _check_finite(stack)
        if not shape or shape[0] < 1 or any(s != shape[0] for s in shape):
            raise ModelError(f"components must be cubic with order >= 1, got {shape}")
        if not isinstance(self.law, _Law):
            raise ModelError(f"unsupported randomness law: {self.law!r}")
        stack.flags.writeable = False
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "stack", stack)
        self.law.check_stack(stack)

    @classmethod
    def rademacher(cls, components) -> "SumModel":
        return cls(*_stack_components(components))

    @classmethod
    def subsample(cls, population, sample_size: int) -> "SumModel":
        """Center a population and wrap it in a subsampling model."""
        shape, stack = _stack_components(population)
        return cls(shape, stack - stack.mean(axis=0), Subsample(sample_size))

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

    Non-finite rows or results are a NumericalError.  The eigenvalue
    kinds are asked for only when the model is E-symmetric, and solve
    the symmetric part of each row's square unfolding.
    """
    if not np.isfinite(rows).all():
        raise NumericalError("a summed tensor has non-finite entries (overflow)")
    mats = matricize_rows(rows, model.order, model.dim)
    if kind == "sigma_max":
        out = top_singular_values(mats)
    else:
        values = sym_eigvals(mats)
        top = values[:, -1]
        out = top if kind == "lambda_max" else np.maximum(top, -values[:, 0])
    if not np.isfinite(out).all():
        raise NumericalError("a statistic overflowed to a non-finite value")
    return out


def uniform_bound_L(model: SumModel, kind: str | None = None) -> float:
    """Smallest uniform cap on the per-summand statistic.

    ``kind`` is a theorem name, resolved by ``resolve_theorem``: the
    even bound caps the largest eigenvalue of each realizable summand,
    the others cap its spectral norm.  Both enumerate the finite
    realization set exactly: two signs per component under Rademacher
    (so the even cap is the eigenvalue magnitude), one scaled tensor per
    population member under subsampling.
    """
    stat = "sigma_max"
    if resolve_theorem(model, kind or "auto") == "even":
        stat = "abs_eig" if model.law.signed else "lambda_max"
    scale = model.law.scale(len(model.stack))
    best = scale * stack_statistics(model, model.stack, stat).max()
    return float(max(best, 0.0))


def _gram(rows: np.ndarray, factor: float) -> np.ndarray:
    """factor * rows^T rows, exactly symmetric; overflow is a NumericalError."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = rows.T @ rows
        gram = factor * ((gram + gram.T) / 2.0)
    if not np.isfinite(gram).all():
        raise NumericalError("variance statistic overflowed to a non-finite value")
    return gram


def einstein_second_moment(model: SumModel) -> Tensor:
    """Exact sum over summands of E(X_k * X_k) under the Einstein square.

    A pairwise-symmetric X has X * X = X * X^T, so the sum is one Gram
    product of the side-by-side unfoldings H = [X_1 ... X_K]: H H^T.
    The columns of H are the length-d**m rows of the reshaped stack.
    """
    resolve_theorem(model, "even")
    n = model.dim ** model.split
    # per subsample draw: the mean of the n population squares times
    # (n/s)^2, summed over the s draws, is n/s times their sum
    gram = _gram(model.stack.reshape(-1, n), model.law.scale(len(model.stack)))
    return unmatricize(gram, model.order, model.dim)


def variance_even(model: SumModel) -> float:
    """Variance statistic of the even-order bound: the norm of the
    summed Einstein squares."""
    return e_spectral_norm(einstein_second_moment(model))


@dataclass(frozen=True)
class GeneralVariance:
    """Variance statistics of the general bound.

    ``outer``/``inner`` are the exact sums of expected trailing-mode and
    leading-mode self-products; ``nu`` is the larger of their norms,
    solved on first use: the intrinsic bound never needs it.
    """

    outer: Tensor
    inner: Tensor

    @cached_property
    def nu(self) -> float:
        return max(e_spectral_norm(self.outer), e_spectral_norm(self.inner))


def variance_general(model: SumModel) -> GeneralVariance:
    """Exact variance statistics for tensors of any order.

    Independence and zero means make cross terms vanish, so summing the
    per-component second moments is exact, with the subsampling scale
    applied in closed form.  With F_k the unfoldings, the outer sum is
    H H^T for the side-by-side H = [F_1 ... F_K] and the inner sum is
    V^T V for the stacked V = [F_1; ...; F_K]: two Gram products.
    """
    order, d, m = model.order, model.dim, model.split
    factor = model.law.scale(len(model.stack))
    # the columns of H are the length-d**m rows of the reshaped stack
    outer = _gram(model.stack.reshape(-1, d**m), factor)
    unfoldings = matricize_rows(model.stack, order, d)
    inner = _gram(unfoldings.reshape(-1, d ** (order - m)), factor)
    return GeneralVariance(
        outer=unmatricize(outer, 2 * m, d),
        inner=unmatricize(inner, 2 * (order - m), d),
    )


def expectation_bound(nu: float, L: float, m: int, d: int) -> float:
    """Mean bound for the even-order statistic:
    sqrt(2 nu m log d) + L m log d / 3."""
    if nu < 0 or L < 0:
        raise DomainError("nu and L must be nonnegative")
    if m < 1:
        raise DomainError("m must be at least 1")
    if d < 2:
        raise DomainError("the even-order mean bound needs d >= 2")
    mlogd = m * math.log(d)
    return math.sqrt(2.0 * nu * mlogd) + L * mlogd / 3.0


def expectation_bound_general(nu: float, L: float, order: int, d: int) -> float:
    """Mean bound for the norm statistic, with log(d**m + d**(N-m)),
    m = ceil(N/2), replacing m log d."""
    if nu < 0 or L < 0:
        raise DomainError("nu and L must be nonnegative")
    if order < 1 or d < 1:
        raise DomainError("order and d must be at least 1")
    m = (order + 1) // 2
    logdim = math.log(d**m + d ** (order - m))
    return math.sqrt(2.0 * nu * logdim) + L * logdim / 3.0


class TailBound(NamedTuple):
    raw: float
    clamped: float


def tail_bound(t: float, nu: float, L: float, dim_factor: float) -> TailBound:
    """Tail probability bound dim_factor * exp(-t^2/2 / (nu + L t / 3)).

    The raw value can exceed 1; the clamped value is capped there for
    reporting.  A deterministic zero sum (nu = L = 0) has zero tail for
    every positive t.  Where t^2 or the denominator overflows, the same
    exponent is evaluated as t/2 / (nu/t + L/3).
    """
    if not all(math.isfinite(x) for x in (t, nu, L, dim_factor)):
        raise DomainError(
            f"tail bound arguments must be finite, got t={t}, nu={nu}, "
            f"L={L}, dim_factor={dim_factor}"
        )
    if t < 0:
        raise DomainError(f"t must be nonnegative, got {t}")
    if nu < 0 or L < 0:
        raise DomainError("nu and L must be nonnegative")
    if t == 0.0:
        raw = float(dim_factor)
    elif nu == 0.0 and L == 0.0:
        raw = 0.0
    else:
        square, denom = t * t, nu + L * t / 3.0
        if math.isfinite(square) and math.isfinite(denom):
            exponent = square / 2.0 / denom
        else:
            slope = nu / t + L / 3.0
            exponent = 0.5 * t / slope if slope > 0.0 else math.inf
        raw = float(dim_factor) * math.exp(-exponent)
    return TailBound(raw=raw, clamped=min(1.0, raw))


@dataclass(frozen=True)
class BernsteinReport:
    """Bound values for one theorem applied to one model.

    A report is fixed by the theorem, the order N, the dimension d, the
    split m (which must be ceil(N/2)), L, nu and, for the intrinsic
    bound, the intrinsic dimension ``dv``; everything else is derived
    here.  ``dim_factor`` is the
    ambient dimensional factor (d**m for the even-order bound,
    d**m + d**(N-m) otherwise); ``tail_factor`` is the multiplier
    actually used in the tail curve, which for the intrinsic bound is
    4 dv.  The intrinsic bound has no mean bound and holds only for
    t >= sqrt(nu) + L/3.
    """

    theorem: str
    order: int
    dim: int
    split: int
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
        if not (math.isfinite(self.nu) and math.isfinite(self.L)):
            raise NumericalError(f"non-finite bound quantity: L={self.L}, nu={self.nu}")
        if self.nu < 0 or self.L < 0:
            raise DomainError("nu and L must be nonnegative")
        n_order, d, m = self.order, self.dim, self.split
        if m != (n_order + 1) // 2:
            raise DomainError(f"split must be ceil({n_order}/2), got {m}")
        if self.theorem == "even":
            if d < 2:
                raise ApplicabilityError("the even-order mean bound needs d >= 2")
            dim_factor = float(d**m)
            mean = expectation_bound(self.nu, self.L, m, d)
        else:
            dim_factor = float(d**m + d ** (n_order - m))
            mean = expectation_bound_general(self.nu, self.L, n_order, d)
        tail_factor, domain_min = dim_factor, 0.0
        if self.theorem == "intrinsic":
            if self.dv > dim_factor * (1 + 1e-9):
                raise NumericalError(
                    f"intrinsic dimension {self.dv} exceeds the ambient factor "
                    f"{dim_factor}"
                )
            tail_factor, mean = 4.0 * self.dv, None
            domain_min = math.sqrt(self.nu) + self.L / 3.0
        if mean is not None and not math.isfinite(mean):
            raise NumericalError(
                f"the mean bound overflowed: L={self.L}, nu={self.nu}"
            )
        object.__setattr__(self, "dim_factor", dim_factor)
        object.__setattr__(self, "tail_factor", tail_factor)
        object.__setattr__(self, "expectation_bound", mean)
        object.__setattr__(self, "tail_domain_min", domain_min)

    def in_domain(self, t: float) -> bool:
        """Whether the tail bound holds at t; 1e-12 of slack absorbs the
        rounding of grids that start at the threshold."""
        return t >= self.tail_domain_min - 1e-12

    def tail(self, t: float) -> TailBound:
        if not self.in_domain(t):
            raise DomainError(
                f"t={t} is below the bound's validity threshold "
                f"{self.tail_domain_min}"
            )
        return tail_bound(t, self.nu, self.L, self.tail_factor)


def _trace(matrix: np.ndarray, label: str) -> float:
    """The trace of ``matrix``; NumericalError naming ``label`` on overflow."""
    with np.errstate(over="ignore"):
        trace = float(np.trace(matrix))
    if not math.isfinite(trace):
        raise NumericalError(f"the trace of the {label} overflowed")
    return trace


def _check_e_psd(t: Tensor, label: str) -> np.ndarray:
    values = e_eigenvalues(t)
    norm = max(values[0], -values[-1])
    if values[-1] < -PSD_TOL * max(norm, 1.0):
        raise DomainError(f"{label} must be E-PSD (min eigenvalue {values[-1]:.3e})")
    return values


def _check_dominates(
    bound: Tensor, bound_values: np.ndarray, exact: Tensor, label: str
) -> None:
    """``bound`` - ``exact`` is E-PSD; ``bound_values`` is the spectrum
    of ``bound``, which scales the tolerance."""
    values = e_eigenvalues(bound - exact)
    norm_bound = max(bound_values[0], -bound_values[-1])
    if values[-1] < -PSD_TOL * max(norm_bound, 1.0):
        raise DomainError(
            f"{label} does not dominate the exact variance statistic "
            f"(min eigenvalue of difference {values[-1]:.3e})"
        )


def intrinsic_report(
    v_outer: Tensor,
    v_inner: Tensor,
    L: float,
    exact_outer: Tensor | None = None,
    exact_inner: Tensor | None = None,
) -> BernsteinReport:
    """Intrinsic-dimension tail bound from variance upper bounds.

    ``v_outer`` and ``v_inner`` must be E-PSD and, when the exact
    statistics are supplied, dominate them in the E-PSD order.  The tail
    4 dv exp(-t^2/2/(nu + Lt/3)) is valid for t >= sqrt(nu) + L/3.

    The intrinsic dimension from the tensor traces is cross-checked
    against trace/norm of the block matrix assembled from the two
    unfoldings.
    """
    if L < 0:
        raise DomainError("L must be nonnegative")
    vals_outer = _check_e_psd(v_outer, "outer variance bound")
    vals_inner = _check_e_psd(v_inner, "inner variance bound")
    if exact_outer is not None:
        _check_dominates(v_outer, vals_outer, exact_outer, "outer variance bound")
    if exact_inner is not None:
        _check_dominates(v_inner, vals_inner, exact_inner, "inner variance bound")

    m = v_outer.order // 2
    order = m + v_inner.order // 2
    d = v_outer.cubic_dim if v_outer.order else v_inner.cubic_dim
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

    return BernsteinReport("intrinsic", order, d, m, float(L), nu, dv)


def resolve_theorem(model: SumModel, requested: str = "auto") -> str:
    """Pick the bound to apply, validating applicability."""
    if requested not in THEOREMS:
        raise DomainError(f"unknown theorem {requested!r}")
    if requested == "auto":
        return "even" if model.is_even_symmetric() else "general"
    if requested == "even" and not model.is_even_symmetric():
        raise ApplicabilityError(
            "the even-order bound needs an even order and pairwise-symmetric "
            "components"
        )
    return requested


def build_report(model: SumModel, theorem: str = "auto") -> BernsteinReport:
    """Compute every bound quantity of the chosen theorem for a model."""
    theorem = resolve_theorem(model, theorem)
    shape = (model.order, model.dim, model.split)
    L = uniform_bound_L(model, theorem)
    if theorem == "even":
        return BernsteinReport("even", *shape, L, variance_even(model))
    gv = variance_general(model)
    if theorem == "general":
        return BernsteinReport("general", *shape, L, gv.nu)
    return intrinsic_report(gv.outer, gv.inner, L)


def _g(value: float) -> str:
    return format(float(value), ".17g")


def format_report(report: BernsteinReport) -> str:
    """Flat key=value serialization, one entry per line."""
    pairs = [
        ("theorem", report.theorem),
        ("order", str(report.order)),
        ("dim", str(report.dim)),
        ("split", str(report.split)),
        ("L", _g(report.L)),
        ("nu", _g(report.nu)),
        ("dim_factor", _g(report.dim_factor)),
        ("tail_factor", _g(report.tail_factor)),
    ]
    if report.dv is not None:
        pairs.append(("intrinsic_dim", _g(report.dv)))
    if report.expectation_bound is not None:
        pairs.append(("expectation_bound", _g(report.expectation_bound)))
    pairs.append(("tail_domain_min", _g(report.tail_domain_min)))
    return "".join(f"{k}={v}\n" for k, v in pairs)


def format_tail_csv(report: BernsteinReport, ts) -> str:
    """CSV tail curve with both the raw and the clamped bound."""
    lines = ["t,bound_raw,bound_clamped"]
    for t in ts:
        raw, clamped = report.tail(float(t))
        lines.append(f"{_g(t)},{_g(raw)},{_g(clamped)}")
    return "\n".join(lines) + "\n"
