"""Seeded simulation of random tensor sums against the closed-form bounds.

Each trial draws its weights from its own generator
``trial_rng(seed, i)``, through the law's ``weights``, so trials are
order-independent.  Trials run in fixed-size chunks.  A chunk's draws
are derived in bulk by ``streams.TrialDraws``, which reproduces the
per-trial generators draw for draw; rows in which Lemire's bounded draw
would redraw come from their own generators instead, and so does the
whole chunk if its first bulk row differs from its generator's draws.
One matrix product of the weights with the component stack forms the
chunk's sums, and ``bounds.stack_statistics``, the kernel L is computed
with, gives their statistics in one batched LAPACK call.  Chunks depend
only on the model's shape, so the same seed gives the same bytes.
EB_THREADS is still validated but never changes what runs or what
comes out.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import (
    THEOREMS,
    BernsteinReport,
    Rademacher,
    Subsample,
    SumModel,
    build_report,
    stack_statistics,
    statistic,
)
from .errors import ApplicabilityError, ModelError
from .streams import TrialDraws
from .tensor import Tensor

__all__ = [
    "ExperimentConfig",
    "TailRow",
    "ExperimentResult",
    "ExpectationCheck",
    "trial_rng",
    "sample_sum",
    "run_experiment",
    "check_expectation",
    "format_results_csv",
]

# At most this many trials share one chunk, and a chunk's weight and sum
# blocks stay within _CHUNK_BYTES each.  A 1 MiB block raised the peak
# RSS of a 400-component subsample run by 1.3 %; a quarter of that left
# it unchanged at the same speed.
_CHUNK_TRIALS = 256
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class ExperimentConfig:
    """A reproducible tail experiment for one model and one theorem."""

    model: SumModel
    trials: int
    t_grid: tuple
    seed: int
    confidence_slack: float = 3.0
    theorem: str = "auto"

    def __post_init__(self):
        if self.trials < 100:
            raise ModelError(f"at least 100 trials are required, got {self.trials}")
        grid = tuple(float(t) for t in self.t_grid)
        object.__setattr__(self, "t_grid", grid)
        if not grid:
            raise ModelError("t_grid must be non-empty")
        if not all(math.isfinite(t) for t in grid):
            raise ModelError(f"t_grid values must be finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ModelError("t_grid must be strictly ascending")
        if grid[0] < 0:
            raise ModelError("t values must be nonnegative")
        if int(self.seed) != self.seed or self.seed < 0:
            raise ModelError("seed must be a nonnegative integer")
        if not math.isfinite(self.confidence_slack) or self.confidence_slack < 0:
            raise ModelError(
                f"confidence_slack must be finite and nonnegative, "
                f"got {self.confidence_slack}"
            )
        if self.theorem not in THEOREMS:
            raise ModelError(f"unknown theorem {self.theorem!r}")


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Independent generator for one trial, derived from (seed, trial)."""
    return np.random.default_rng([int(seed), int(trial)])


def sample_sum(model: SumModel, rng: np.random.Generator) -> Tensor:
    """One realization of the random sum Y = sum_k X_k.

    The scalar path: one weight row from ``rng``, times the stack.
    """
    flat = model.law.weights(rng, len(model.components)) @ model.stack
    return Tensor(model.components[0].shape, flat, copy=False)


@dataclass(frozen=True)
class TailRow:
    """Empirical and bound values at one grid point."""

    t: float
    frequency: float
    upper_confidence: float
    bound_raw: float
    bound_clamped: float
    passed: bool


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated trial statistics paired with their bound report."""

    statistic: str
    trials: int
    seed: int
    empirical_mean_max: float
    empirical_std: float
    rows: tuple
    bound_report: BernsteinReport

    @property
    def all_passed(self) -> bool:
        return all(row.passed for row in self.rows)


def _resolve_threads(threads: int | None) -> int:
    """Validate a thread request and return the number of threads that run
    trials, which is always one.

    An explicit ``threads`` argument takes precedence over EB_THREADS;
    EB_THREADS must parse as an integer.
    """
    env = os.environ.get("EB_THREADS", "").strip()
    if threads is None and env:
        try:
            int(env)
        except ValueError as exc:
            raise ModelError(f"EB_THREADS must be an integer, got {env!r}") from exc
    return 1


def _chunk_size(model: SumModel) -> int:
    count = model.law.draws(len(model.components))[1]
    widest = max(*model.stack.shape, count)
    return max(1, min(_CHUNK_TRIALS, _CHUNK_BYTES // (8 * widest)))


def _trial_picks(
    seed: int,
    law: Rademacher | Subsample,
    k: int,
    bulk: TrialDraws | None,
    start: int,
    stop: int,
) -> np.ndarray:
    """Draws of trials start..stop-1: row r is exactly
    ``law.picks(trial_rng(seed, start + r), k)``.

    Rows come from the bulk derivation ``bulk``, except rows in which
    Lemire's method redraws, which are drawn from their own generator.
    The first bulk row is drawn from its generator too: if the two
    differ, this numpy derives its streams otherwise than ``streams``
    does, and the whole chunk is drawn trial by trial.
    """
    if bulk is not None:
        picks, redo = bulk.block(start, stop)
        kept = np.flatnonzero(~redo)
        if not kept.size or np.array_equal(
            picks[kept[0]], law.picks(trial_rng(seed, start + kept[0]), k)
        ):
            for row in np.flatnonzero(redo):
                picks[row] = law.picks(trial_rng(seed, start + row), k)
            return picks
    return np.stack([law.picks(trial_rng(seed, i), k) for i in range(start, stop)])


def _collect_statistics(config: ExperimentConfig, kind: str) -> np.ndarray:
    """Per-trial statistic ``kind``, one chunk of trials at a time."""
    model = config.model
    law = model.law
    k = len(model.components)
    chunk = _chunk_size(model)
    # a chunk of one trial would draw it from its generator anyway, to
    # check it; chunks are that small when one row of components, sums
    # or draws fills a block
    bulk = TrialDraws(config.seed, *law.draws(k)) if chunk > 1 else None
    out = np.empty(config.trials)
    for start in range(0, config.trials, chunk):
        stop = min(start + chunk, config.trials)
        block = law.rows(_trial_picks(config.seed, law, k, bulk, start, stop), k)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = block @ model.stack
        out[start:stop] = stack_statistics(model, sums, kind)
    return out


def run_experiment(
    config: ExperimentConfig, threads: int | None = None
) -> ExperimentResult:
    """Run all trials and compare tail frequencies against the bound.

    The per-t upper confidence value is the empirical frequency plus
    slack standard errors plus 1/trials, clamped into [0, 1]; a grid
    point passes when that value stays below the clamped bound.
    ``threads`` (or EB_THREADS) is validated only: trials run in
    chunks, one after another.
    """
    report = build_report(config.model, config.theorem)
    # a t below the validity threshold raises before any trial runs
    tails = [report.tail(t) for t in config.t_grid]
    _resolve_threads(threads)
    name, kind = statistic(config.model, report.theorem)
    stats = _collect_statistics(config, kind)

    trials = config.trials
    rows = []
    for t, (raw, clamped) in zip(config.t_grid, tails):
        freq = float(np.count_nonzero(stats >= t)) / trials
        upper = freq + config.confidence_slack * math.sqrt(
            freq * (1.0 - freq) / trials
        ) + 1.0 / trials
        upper = min(1.0, upper)
        # a bound of exactly zero only occurs for deterministic zero sums;
        # zero observed frequency is then exact, not a sampling estimate,
        # so the 1/trials correction must not fail it
        passed = upper <= clamped or (freq == 0.0 and clamped == 0.0)
        rows.append(
            TailRow(
                t=float(t),
                frequency=freq,
                upper_confidence=upper,
                bound_raw=raw,
                bound_clamped=clamped,
                passed=passed,
            )
        )
    return ExperimentResult(
        statistic=name,
        trials=trials,
        seed=config.seed,
        empirical_mean_max=float(stats.mean()),
        empirical_std=float(stats.std(ddof=1)),
        rows=tuple(rows),
        bound_report=report,
    )


@dataclass(frozen=True)
class ExpectationCheck:
    """Comparison of the trial mean against the closed-form mean bound."""

    passed: bool
    empirical_mean: float
    adjusted_mean: float
    bound: float
    margin: float


def check_expectation(
    config: ExperimentConfig, result: ExperimentResult | None = None
) -> ExpectationCheck:
    """Check mean(statistic) + slack standard errors against the bound."""
    if result is None:
        result = run_experiment(config)
    bound = result.bound_report.expectation_bound
    if bound is None:
        raise ApplicabilityError(
            "the intrinsic bound has no expectation counterpart"
        )
    adjusted = result.empirical_mean_max + config.confidence_slack * (
        result.empirical_std / math.sqrt(result.trials)
    )
    margin = bound - adjusted
    return ExpectationCheck(
        passed=margin >= 0.0,
        empirical_mean=result.empirical_mean_max,
        adjusted_mean=adjusted,
        bound=bound,
        margin=margin,
    )


def _g(value: float) -> str:
    return format(float(value), ".17g")


def format_results_csv(result: ExperimentResult) -> str:
    """CSV rows (t, empirical_freq, upper_conf, bound_raw, bound_clamped,
    verdict), byte-deterministic for a given config."""
    lines = ["t,empirical_freq,upper_conf,bound_raw,bound_clamped,verdict"]
    for row in result.rows:
        lines.append(
            ",".join(
                [
                    _g(row.t),
                    _g(row.frequency),
                    _g(row.upper_confidence),
                    _g(row.bound_raw),
                    _g(row.bound_clamped),
                    "pass" if row.passed else "fail",
                ]
            )
        )
    return "\n".join(lines) + "\n"
