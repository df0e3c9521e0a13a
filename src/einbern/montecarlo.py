"""Seeded simulation of random tensor sums against the closed-form bounds.

Trials run in fixed-size chunks, and each decision has one owner:

- ``streams.TrialDraws`` owns what a trial draws: a chunk's block holds
  exactly the draws of each trial's own stream ``default_rng([seed, i])``,
  derived without building its generator;
- the model's law owns what the draws mean: ``law.rows`` turns them
  into weight rows;
- ``bounds.stack_statistics``, the kernel L is computed with, owns the
  statistic.

One matrix product of a chunk's weights with the component stack forms
its sums, and one batched LAPACK call gives their statistics.  Chunks
depend only on the model's shape, so the same seed gives the same bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bounds import (
    THEOREMS,
    BernsteinReport,
    SumModel,
    build_report,
    stack_statistics,
    statistic,
)
from .errors import MAX_MODEL_ENTRIES, ModelError, _float, _int
from .streams import TrialDraws
from .tensor import _computed, _fmt

__all__ = [
    "ExperimentConfig",
    "TailRow",
    "ExperimentResult",
    "ExpectationCheck",
    "run_experiment",
    "format_results_csv",
]

# A chunk of trials keeps its weight and sum blocks within _CHUNK_BYTES
# each.  A 1 MiB block raised the peak RSS of a 400-component subsample
# run by 1.3 %; a quarter of that left it unchanged at the same speed.
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
        if not isinstance(self.model, SumModel):
            raise ModelError(f"model must be a SumModel, got {self.model!r}")
        trials = _int(self.trials, "trials", MAX_MODEL_ENTRIES)
        try:
            grid = tuple(_float(t, "t_grid value") for t in self.t_grid)
        except TypeError:
            raise ModelError(f"t_grid must be iterable, got {self.t_grid!r}") from None
        seed = _int(self.seed, "seed")
        slack = _float(self.confidence_slack, "confidence_slack")
        if trials < 100:
            raise ModelError(f"at least 100 trials are required, got {trials}")
        if not grid:
            raise ModelError("t_grid must be non-empty")
        if not all(math.isfinite(t) for t in grid):
            raise ModelError(f"t_grid values must be finite, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ModelError("t_grid must be strictly ascending")
        if grid[0] < 0:
            raise ModelError("t values must be nonnegative")
        if seed < 0:
            raise ModelError(f"seed must be nonnegative, got {seed}")
        if not math.isfinite(slack) or slack < 0:
            raise ModelError(
                f"confidence_slack must be finite and nonnegative, got {slack}"
            )
        if not isinstance(self.theorem, str) or self.theorem not in THEOREMS:
            raise ModelError(f"unknown theorem {self.theorem!r}")
        for name, value in (("trials", trials), ("t_grid", grid), ("seed", seed),
                            ("confidence_slack", slack)):
            object.__setattr__(self, name, value)


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
class ExpectationCheck:
    """Comparison of the trial mean against the closed-form mean bound."""

    passed: bool
    adjusted_mean: float
    bound: float
    margin: float


@dataclass(frozen=True)
class ExperimentResult:
    """Aggregated trial statistics paired with their bound report.

    ``expectation`` is None exactly when the report has no mean bound
    (the intrinsic theorem).
    """

    statistic: str
    trials: int
    seed: int
    empirical_mean_max: float
    empirical_std: float
    rows: tuple
    bound_report: BernsteinReport
    expectation: ExpectationCheck | None

    @property
    def all_passed(self) -> bool:
        """Every tail row passes, and so does the mean check if any."""
        mean_ok = self.expectation is None or self.expectation.passed
        return mean_ok and all(row.passed for row in self.rows)


def _chunk_size(model: SumModel) -> int:
    widest = max(*model.stack.shape, model.num_summands)
    return max(1, _CHUNK_BYTES // (8 * widest))


def _collect_statistics(config: ExperimentConfig, kind: str) -> np.ndarray:
    """Per-trial statistic ``kind``, one chunk of trials at a time."""
    model = config.model
    law = model.law
    k = len(model.stack)
    draws = TrialDraws(config.seed, *law.draws(k))
    chunk = _chunk_size(model)
    out = np.empty(config.trials)
    for start in range(0, config.trials, chunk):
        stop = min(start + chunk, config.trials)
        block = law.rows(draws.block(start, stop), k)
        with np.errstate(over="ignore", invalid="ignore"):
            sums = block @ model.stack
        out[start:stop] = stack_statistics(model, sums, kind)
    return out


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all trials and decide every verdict of the run.

    The per-t upper confidence value is the empirical frequency plus
    slack standard errors plus 1/trials, clamped into [0, 1]; a grid
    point passes when that value stays below the clamped bound.  The
    mean check passes when the trial mean plus slack standard errors of
    the mean stays below the mean bound, where the theorem has one.
    """
    report = build_report(config.model, config.theorem)
    # a t below the validity threshold raises before any trial runs
    tails = [report.tail(t) for t in config.t_grid]
    name, kind = statistic(config.model, report.theorem)
    stats = _collect_statistics(config, kind)

    mean, std = _computed("the mean or std of the trial statistics",
                          lambda: (float(stats.mean()), float(stats.std(ddof=1))))

    trials = config.trials
    # the statistics are finite here, so trials - #{stat < t} of them reach t
    reached = trials - np.searchsorted(np.sort(stats), config.t_grid, side="left")
    rows = []
    for t, count, (raw, clamped) in zip(config.t_grid, reached, tails):
        freq = float(count) / trials
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
    expectation = None
    bound = report.expectation_bound
    if bound is not None:
        adjusted = mean + config.confidence_slack * (std / math.sqrt(trials))
        margin = bound - adjusted
        expectation = ExpectationCheck(
            passed=margin >= 0.0, adjusted_mean=adjusted, bound=bound, margin=margin
        )
    return ExperimentResult(
        statistic=name,
        trials=trials,
        seed=config.seed,
        empirical_mean_max=mean,
        empirical_std=std,
        rows=tuple(rows),
        bound_report=report,
        expectation=expectation,
    )


def format_results_csv(result: ExperimentResult) -> str:
    """CSV rows (t, empirical_freq, upper_conf, bound_raw, bound_clamped,
    verdict), byte-deterministic for a given config."""
    lines = ["t,empirical_freq,upper_conf,bound_raw,bound_clamped,verdict"]
    for row in result.rows:
        lines.append(
            ",".join(
                [
                    _fmt(row.t),
                    _fmt(row.frequency),
                    _fmt(row.upper_confidence),
                    _fmt(row.bound_raw),
                    _fmt(row.bound_clamped),
                    "pass" if row.passed else "fail",
                ]
            )
        )
    return "\n".join(lines) + "\n"
