"""Layer spans recorded from outside the program, and the per-layer
metrics derived from them.

``Tracer.install`` replaces each traced public function in every
``einbern`` module namespace that binds it (``bounds.e_eigenvalues``,
``montecarlo.e_eigenvalues`` and ``spectral.e_eigenvalues`` are separate
bindings), so calls between modules are seen.  Spans are kept in memory
with a per-thread parent stack and written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time

# (module, function) -> span name; the span's layer is its first part
TRACED = {
    ("config", "load_model"): "config.load",
    ("config", "load_experiment"): "config.load",
    ("tensor", "is_e_symmetric"): "tensor.is_e_symmetric",
    ("algebra", "einstein_product"): "algebra.einstein_product",
    ("algebra", "gen_product_outer"): "algebra.gen_product",
    ("algebra", "gen_product_inner"): "algebra.gen_product",
    ("algebra", "hermitian_dilation"): "algebra.hermitian_dilation",
    ("spectral", "sym_eig"): "spectral.sym_eig",
    ("spectral", "e_eigenvalues"): "spectral.e_eigenvalues",
    ("spectral", "gen_spectral_norm"): "spectral.gen_spectral_norm",
    ("bounds", "build_report"): "bounds.build_report",
    ("bounds", "uniform_bound_L"): "bounds.uniform_bound_L",
    ("bounds", "variance_even"): "bounds.variance",
    ("bounds", "variance_general"): "bounds.variance",
    ("bounds", "intrinsic_report"): "bounds.intrinsic_report",
    ("montecarlo", "run_experiment"): "montecarlo.run_experiment",
    ("montecarlo", "_collect_statistics"): "montecarlo.collect",
    ("montecarlo", "sample_sum"): "montecarlo.sample_sum",
    ("montecarlo", "trial_rng"): "montecarlo.trial_rng",
    ("cli", "main"): "cli.main",
    ("cli", "format_report"): "cli.format",
    ("cli", "format_tail_csv"): "cli.format",
    ("cli", "format_results_csv"): "cli.format",
}

LAYERS = ("config", "tensor", "algebra", "spectral", "bounds", "montecarlo", "cli")

# matrix sizes n = d**m the workloads solve; anything else is "n_other"
SYM_EIG_SIZES = (2, 4, 6, 8, 27)

# names of per-layer metrics, in print order; units follow the suffix
_CALLS_AND_S = (
    "config.load", "tensor.is_e_symmetric", "algebra.einstein_product",
    "algebra.gen_product", "algebra.hermitian_dilation", "spectral.sym_eig",
    *(f"spectral.sym_eig.n{n}" for n in SYM_EIG_SIZES), "spectral.sym_eig.n_other",
    "spectral.e_eigenvalues", "spectral.gen_spectral_norm", "bounds.build_report",
    "montecarlo.sample_sum", "montecarlo.trial_rng",
)
_S_ONLY = (
    "bounds.uniform_bound_L", "bounds.variance", "bounds.intrinsic_report",
    "montecarlo.run_experiment", "montecarlo.statistic", "cli.main", "cli.format",
)
PER_LAYER = {
    **{f"{n}.calls": "count" for n in _CALLS_AND_S},
    **{f"{n}.s": "s" for n in _CALLS_AND_S + _S_ONLY},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "montecarlo.threads": "count",
    "montecarlo.worker_busy_ratio": "ratio",
    "montecarlo.pool_wait_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_sum_err": "ratio",
    "threads1.wall_s": "s",
}

# the per-thread self times, less pool waiting, plus worker time must
# account for the traced wall time within this share of it
SELF_SUM_TOLERANCE = 0.01


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self):
        self.spans = []
        self.values = {}
        self._local = threading.local()
        self.main_thread = threading.get_ident()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        sized = name == "spectral.sym_eig"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            label = name
            if sized:
                label = f"{name}.n{len(args[0])}"
            rec = [label, 0.0, 0.0, stack[-1] if stack else None,
                   threading.get_ident()]
            stack.append(rec)
            rec[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                self.spans.append(rec)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every einbern namespace binding it.

        A function the program no longer has is skipped, so the traced run
        survives refactors; its metrics then read zero.
        """
        modules = {k: v for k, v in sys.modules.items()
                   if k == "einbern" or k.startswith("einbern.")}
        for (mod, attr), name in TRACED.items():
            original = getattr(modules[f"einbern.{mod}"], attr, None)
            if original is None:
                continue
            traced = self.wrap(name, original)
            for module in modules.values():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
        mc = modules["einbern.montecarlo"]
        resolve = getattr(mc, "_resolve_threads", None)
        if resolve is not None:

            def resolve_threads(threads):
                self.values["montecarlo.threads"] = resolve(threads)
                return self.values["montecarlo.threads"]

            mc._resolve_threads = resolve_threads
        cli = modules["einbern.cli"]
        cli.open = self._traced_open

    def _traced_open(self, *args, **kwargs):
        return _SpannedFile(open(*args, **kwargs), self.wrap)

    def dump(self, path: str) -> None:
        index = {id(rec): i for i, rec in enumerate(self.spans)}
        rows = [[r[0], r[1], r[2], index[id(r[3])] if r[3] else -1,
                 0 if r[4] == self.main_thread else 1] for r in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows, "values": self.values}, fh)


class _SpannedFile:
    """File proxy whose writes are ``cli.format`` spans."""

    def __init__(self, fh, wrap):
        self._fh = fh
        self.write = wrap("cli.format", fh.write)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()


def derive(span_files: list) -> dict:
    """Per-layer metrics of one sample (one span file per invocation)."""
    calls = {}
    incl = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    statistic = 0.0
    busy = 0.0
    collect_capacity = 0.0
    pool_wait = 0.0
    worker_time = 0.0
    threads = 0
    for path in span_files:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        spans = doc["spans"]
        threads = max(threads, doc["values"].get("montecarlo.threads", 0))
        child_time = [0.0] * len(spans)
        for name, start, end, parent, worker in spans:
            if parent >= 0:
                child_time[parent] += end - start
        has_workers = any(s[4] for s in spans)

        def ancestors(i):
            while spans[i][3] >= 0:
                i = spans[i][3]
                yield spans[i][0]

        for i, (name, start, end, parent, worker) in enumerate(spans):
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            incl[name] = incl.get(name, 0.0) + dur
            own = dur - child_time[i]
            if name == "montecarlo.collect":
                collect_capacity += dur * max(1, threads)
                if has_workers:
                    pool_wait += own
                    own = 0.0
            self_s[name.split(".")[0]] += own
            if parent < 0 and worker:
                worker_time += dur
                busy += dur
            elif parent >= 0 and spans[parent][0] == "montecarlo.collect":
                busy += dur
            if name.startswith("spectral.") and (
                parent < 0 or not spans[parent][0].startswith("spectral.")
            ):
                up = set(ancestors(i))
                if "bounds.build_report" not in up and (
                    worker or "montecarlo.run_experiment" in up
                ):
                    statistic += dur

    prefix = "spectral.sym_eig.n"
    sized = [k for k in calls if k.startswith(prefix)]
    calls["spectral.sym_eig"] = sum(calls[k] for k in sized)
    incl["spectral.sym_eig"] = sum(incl[k] for k in sized)
    other = prefix + "_other"
    for k in sized:
        if int(k[len(prefix):]) not in SYM_EIG_SIZES:
            calls[other] = calls.get(other, 0) + calls[k]
            incl[other] = incl.get(other, 0.0) + incl[k]
    out = {}
    for name in _CALLS_AND_S:
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in _CALLS_AND_S + _S_ONLY:
        out[f"{name}.s"] = incl.get(name, 0.0)
    out["montecarlo.statistic.s"] = statistic
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_s[layer]
    out["montecarlo.threads"] = threads
    out["montecarlo.worker_busy_ratio"] = (
        busy / collect_capacity if collect_capacity else 0.0
    )
    out["montecarlo.pool_wait_s"] = pool_wait
    out["trace.self_sum_s"] = sum(self_s.values()) + pool_wait - worker_time
    return out


def summarize(samples: list, untraced_walls: list, threads1_wall: float) -> dict:
    """Median per-layer metrics over traced samples.

    Each sample is ``derive`` output plus the traced wall time as
    ``trace.wall_s``.
    """
    out = {}
    for name in PER_LAYER:
        if name in samples[0]:
            out[name] = statistics.median(s[name] for s in samples)
    out["trace.untraced_wall_s"] = statistics.median(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    out["trace.self_sum_err"] = statistics.median(
        abs(s["trace.self_sum_s"] - s["trace.wall_s"]) / s["trace.wall_s"]
        for s in samples
    )
    out["threads1.wall_s"] = threads1_wall
    return out
