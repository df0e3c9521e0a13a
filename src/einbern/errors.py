"""Exception types shared across the package, and its one rule for numbers."""

import math
import numbers

# Most tensor entries (count x d**N) of a model, trials and subsample draws:
# 2**24 float64 entries are 128 MiB, and building and bounding a model copies
# them a few times.  Larger inputs are refused before anything is allocated.
MAX_MODEL_ENTRIES = 1 << 24


class EinbernError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(EinbernError, ValueError):
    """Tensor or matrix dimensions violate an operation's requirements."""


class DomainError(EinbernError, ValueError):
    """Numeric argument lies outside the valid domain of a formula."""


class SymmetryError(EinbernError, ValueError):
    """Input lacks the pairwise or full symmetry the operation requires."""


class ModelError(EinbernError, ValueError):
    """Random-sum model or experiment configuration is invalid."""


class ApplicabilityError(EinbernError, ValueError):
    """Requested bound does not apply to the given model."""


class NumericalError(EinbernError, RuntimeError):
    """An internal numerical consistency check failed."""


class ConvergenceError(NumericalError):
    """Iterative solver did not reach its tolerance within the iteration cap."""


def _is_integer(x) -> bool:
    """Whether x is an integer (a numpy one too), but not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_real(x) -> bool:
    """Whether x is a real number (a numpy one too), but not a bool."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _int(value, where: str, most: float = math.inf) -> int:
    if not _is_integer(value):
        raise ModelError(f"{where} must be an integer, got {value!r}")
    if value > most:
        raise ModelError(f"{where} must be at most {most}, got {value}")
    return int(value)


def _float(value, where: str) -> float:
    if type(value) is float:  # most values; a grid may hold millions
        return value
    if not _is_real(value):
        raise ModelError(f"{where} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ModelError(f"{where} is too large for a float") from exc
