"""Output checks for one CLI invocation of a benchmark workload.

Every invocation is checked against the numpy oracle in ``workloads``:
the report lines, the tail curve, every verdict and, for ``simulate``,
the empirical frequencies recomputed from the per-trial streams.  For
the default seed the outputs must also match the stored references to a
relative 1e-9, with identical verdicts and labels.  Each function
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import re

import numpy as np

import workloads

REL_TOL = 1e-9
_NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^[-+]?(inf|nan)$")


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=1e-300)


def _csv_rows(text: str, header: str) -> list:
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header {lines[:1]} is not {header!r}")
    return [line.split(",") for line in lines[1:]]


def _key_values(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        for token in line.split():
            key, sep, value = token.partition("=")
            if sep:
                out[key] = value
    return out


class Checker:
    """Oracle values for one invocation, computed once and reused."""

    def __init__(self, inv: workloads.Invocation):
        self.inv = inv
        self.q = workloads.bound_quantities(inv.model, inv.theorem)
        self.stats = None
        if inv.command == "simulate":
            self.stats = workloads.statistics(inv.model, inv.theorem,
                                              inv.seed, inv.trials)

    def check(self, rc: int, stdout: str, csv_text: str) -> list:
        if rc != 0:
            return [f"exit code {rc}"]
        try:
            if self.inv.command == "bound":
                return self._bound(stdout, csv_text)
            return self._simulate(stdout, csv_text)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"malformed output: {exc}"]

    def _bound(self, stdout: str, csv_text: str) -> list:
        errors = []
        kv = _key_values(stdout)
        if kv.get("theorem") != self.inv.theorem:
            errors.append(f"stdout theorem={kv.get('theorem')}")
        for key, name in (("L", "L"), ("nu", "nu"), ("dim_factor", "dim_factor"),
                          ("tail_factor", "tail_factor"),
                          ("expectation_bound", "expectation_bound"),
                          ("tail_domain_min", "tail_domain_min")):
            if self.q[name] is not None and not _close(float(kv[key]), self.q[name]):
                errors.append(f"stdout {key}={kv[key]}, oracle {self.q[name]!r}")
        rows = _csv_rows(csv_text, "t,bound_raw,bound_clamped")
        if len(rows) != len(self.inv.grid):
            return errors + [f"{len(rows)} CSV rows for {len(self.inv.grid)} grid points"]
        for row, t in zip(rows, self.inv.grid):
            errors += self._tail_columns(float(row[0]), t, row[1], row[2])
        return errors

    def _tail_columns(self, t_out: float, t: float, raw: str, clamped: str) -> list:
        if not _close(t_out, t, 1e-12):
            return [f"t={t_out}, expected {t!r}"]
        want_raw, want_clamped = workloads.tail(self.q, t)
        if not (_close(float(raw), want_raw) and _close(float(clamped), want_clamped)):
            return [f"t={t!r}: bound {raw},{clamped}, oracle {want_raw!r},{want_clamped!r}"]
        return []

    def _simulate(self, stdout: str, csv_text: str) -> list:
        inv, stats = self.inv, self.stats
        errors = []
        lines = stdout.splitlines()
        stat_name = "lambda_e_max" if inv.theorem == "even" else "gen_spectral_norm"
        first = f"statistic={stat_name} trials={inv.trials} seed={inv.seed}"
        if not lines or lines[0] != first:
            errors.append(f"stdout starts {lines[:1]}, expected {first!r}")
        kv = _key_values(stdout)
        mean = float(stats.mean())
        if not _close(float(kv["empirical_mean_max"]), mean):
            errors.append(f"empirical_mean_max={kv['empirical_mean_max']}, oracle {mean!r}")
        if self.q["expectation_bound"] is not None:
            adjusted = mean + workloads.CONFIDENCE_SLACK * float(stats.std(ddof=1)) / math.sqrt(inv.trials)
            if not _close(float(kv["expectation_bound"]), self.q["expectation_bound"]):
                errors.append(f"expectation_bound={kv['expectation_bound']}")
            if not _close(float(kv["adjusted_mean"]), adjusted):
                errors.append(f"adjusted_mean={kv['adjusted_mean']}, oracle {adjusted!r}")
            if kv.get("expectation_verdict") != "pass":
                errors.append(f"expectation_verdict={kv.get('expectation_verdict')}")
        n = len(inv.grid)
        if lines[-1:] != [f"tail_verdicts={n}/{n} pass"]:
            errors.append(f"stdout ends {lines[-1:]}")
        rows = _csv_rows(csv_text, "t,empirical_freq,upper_conf,bound_raw,bound_clamped,verdict")
        if len(rows) != n:
            return errors + [f"{len(rows)} CSV rows for {n} grid points"]
        for row, t in zip(rows, inv.grid):
            errors += self._tail_columns(float(row[0]), t, row[3], row[4])
            freq, upper = float(row[1]), float(row[2])
            count = round(freq * inv.trials)
            eps = 1e-9 * max(1.0, t)
            lo = int(np.count_nonzero(stats >= t + eps))
            hi = int(np.count_nonzero(stats >= t - eps))
            if not lo <= count <= hi:
                errors.append(f"t={t!r}: frequency {row[1]}, oracle count {lo}..{hi}")
            want_upper = min(1.0, freq + workloads.CONFIDENCE_SLACK * math.sqrt(
                freq * (1.0 - freq) / inv.trials) + 1.0 / inv.trials)
            if not _close(upper, want_upper, 1e-12):
                errors.append(f"t={t!r}: upper_conf {row[2]}, expected {want_upper!r}")
            if row[5] != "pass" or upper > float(row[4]):
                errors.append(f"t={t!r}: verdict {row[5]} with upper {row[2]} bound {row[4]}")
        return errors


def compare_reference(text: str, reference: str, what: str) -> list:
    """Token-wise comparison: labels and verdicts exactly, numbers to a
    relative REL_TOL."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return [f"{what}: {len(got)} lines, reference has {len(want)}"]
    errors = []
    for i, (a, b) in enumerate(zip(got, want), 1):
        ta, tb = re.split(r"([,=\s/])", a), re.split(r"([,=\s/])", b)
        same = len(ta) == len(tb) and all(
            x == y or (_NUMBER.match(x) and _NUMBER.match(y) and _close(float(x), float(y)))
            for x, y in zip(ta, tb)
        )
        if not same:
            errors.append(f"{what} line {i}: {a!r} differs from reference {b!r}")
    return errors
