"""einbern benchmark: the ``bound`` and ``simulate`` CLI workloads.

Run from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steadiness --runs 10 --seconds S [--workload NAME ...]

Each sample runs every invocation of the workload through
``einbern.cli.main`` in a fresh Python process, with the CLI's default
thread count (``EB_THREADS`` unset).  Samples repeat until ``--seconds``
is used up.  Every output is checked (see ``checks.py``) and repeats of
the same invocation must be byte-identical.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  Their
times are CPU times of the benchmark's processes, which a shared host's
load moves far less than wall time; the wall times are printed on lines
of their own.  ``--trace 1`` alternates traced and untraced samples, adds one
single-thread (``EB_THREADS=1``) sample, and prints the per-layer
metrics derived from the spans.  The last stdout line is the JSON result.

``--steadiness`` runs the first form once per seed and prints median and
quartiles of every end-to-end metric, with its spread as a share of the
median next to the bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"

DEFAULT_SEED = 0
SETUP_REPEATS = 7
INVOKE_TIMEOUT_S = 120
# a run must finish well inside the 180 s the harness allows
RUN_DEADLINE_S = 150


def _child(spec: dict, workdir: Path, tag: str, env: dict) -> tuple:
    """Run child.py on ``spec``; return (result dict or None, stdout, error)."""
    spec = {**spec, "src": str(SRC), "result": str(workdir / f"{tag}.result.json")}
    spec_path = workdir / f"{tag}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=workdir, env=env, capture_output=True, text=True,
            timeout=INVOKE_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, "", f"timed out after {INVOKE_TIMEOUT_S} s"
    result_path = Path(spec["result"])
    if proc.returncode != 0 or not result_path.exists():
        return None, proc.stdout, f"child exit {proc.returncode}: {proc.stderr.strip()[-500:]}"
    return json.loads(result_path.read_text(encoding="utf-8")), proc.stdout, ""


def _env(threads: str | None) -> dict:
    env = dict(os.environ)
    env.pop("EB_THREADS", None)
    if threads is not None:
        env["EB_THREADS"] = threads
    return env


class Runner:
    """Samples of one workload, with every output checked."""

    def __init__(self, wl: workloads.Workload, workdir: Path, reference: Path | None):
        self.wl = wl
        self.workdir = workdir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.first = {}
        self.checkers = {}
        self.count = 0
        self.configs = []
        for inv in wl.invocations:
            path = workdir / f"{inv.label}.json"
            path.write_text(json.dumps(inv.doc, indent=1), encoding="utf-8")
            self.configs.append(("model" if inv.command == "bound" else "experiment", str(path)))

    def setup_times(self) -> list:
        """Fresh-process set-up times; the first (warm-up) one is dropped."""
        times = []
        for i in range(SETUP_REPEATS + 1):
            self.attempted += 1
            result, _, error = _child({"mode": "setup", "configs": self.configs},
                                      self.workdir, f"setup{i}", _env(None))
            if result is None:
                self._fail(f"setup: {error}")
            elif i:
                times.append(result["setup_s"])
        return times

    def sample(self, trace: bool = False, threads: str | None = None) -> dict | None:
        """One pass over the workload's invocations; None if any failed."""
        self.count += 1
        walls, cpus, rss, span_files = [], [], [], []
        ok = True
        for inv, (_, config) in zip(self.wl.invocations, self.configs):
            tag = f"s{self.count}-{inv.label}"
            out = self.workdir / f"{tag}.csv"
            argv = [a.format(config=config, out=str(out)) for a in inv.argv]
            span_path = str(self.workdir / f"{tag}.spans.json")
            self.attempted += 1
            result, stdout, error = _child(
                {"mode": "run", "argv": argv, "trace": trace, "spans": span_path},
                self.workdir, tag, _env(threads))
            if result is None:
                self._fail(f"{inv.label}: {error}")
                ok = False
                continue
            csv_text = out.read_text(encoding="ascii") if out.exists() else ""
            problems = self._check(inv, result["rc"], stdout, csv_text)
            if problems:
                self._fail(f"{inv.label}: " + "; ".join(problems[:5]))
                ok = False
                continue
            out.unlink()
            walls.append(result["wall_s"])
            cpus.append(result["cpu_s"])
            rss.append(result["peak_rss_mb"])
            span_files.append(span_path)
        if not ok:
            return None
        sample = {"wall_s": sum(walls), "cpu_s": sum(cpus), "peak_rss_mb": max(rss)}
        if trace:
            sample["layers"] = spans.derive(span_files)
        for path in span_files:
            Path(path).unlink(missing_ok=True)
        return sample

    def _check(self, inv, rc: int, stdout: str, csv_text: str) -> list:
        if inv.label in self.first:
            if (stdout, csv_text) != self.first[inv.label]:
                return ["output differs from the first same-seed repeat"]
            return []
        if inv.label not in self.checkers:
            self.checkers[inv.label] = checks.Checker(inv)
        problems = self.checkers[inv.label].check(rc, stdout, csv_text)
        if self.reference is not None:
            for text, suffix in ((csv_text, "csv"), (stdout, "stdout")):
                ref = (self.reference / f"{inv.label}.{suffix}").read_text(encoding="ascii")
                problems += checks.compare_reference(text, ref, f"{inv.label}.{suffix}")
        if not problems:
            self.first[inv.label] = (stdout, csv_text)
        return problems

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)
        print(f"FAILED {message}", file=sys.stderr)


def environment() -> dict:
    """Versions and thread settings that the figures depend on."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        commit = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "cpus": len(os.sched_getaffinity(0)),
        "EB_THREADS": os.environ.get("EB_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "python": platform.python_version(),
        "commit": commit,
    }


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float, trace: bool, size: str) -> tuple:
    """Run one workload for ``seconds``; return (result dict, errors)."""
    bench = _benchmark_json()
    wl = workloads.build(name, seed, size)
    reference = REFERENCE / name if (seed == DEFAULT_SEED and size == "full") else None
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    started = time.perf_counter()
    try:
        runner = Runner(wl, workdir, reference)
        setups = [] if trace else runner.setup_times()
        window = time.perf_counter()
        samples, traced = [], []
        while True:
            sample = runner.sample(trace=trace and len(samples) > len(traced))
            if sample is None:
                break
            (traced if "layers" in sample else samples).append(sample)
            now = time.perf_counter()
            per_sample = (now - window) / (len(samples) + len(traced))
            enough = samples and (traced or not trace)
            if enough and (now + per_sample - window > seconds
                           or now - started > RUN_DEADLINE_S):
                break
        threads1 = runner.sample(threads="1") if trace and not runner.failed else None
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = runner.failed == 0
    units = {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}
    metrics = {}
    if correct and trace:
        layers = []
        for s in traced:
            layers.append({**s["layers"], "trace.wall_s": s["wall_s"]})
        values = spans.summarize(layers, [s["wall_s"] for s in samples],
                                 threads1["wall_s"])
        if values["trace.self_sum_err"] > spans.SELF_SUM_TOLERANCE:
            runner.errors.append(f"layer self times miss the traced wall time by "
                                 f"{values['trace.self_sum_err']:.2%}")
            correct = False
        metrics = {k: values[k] for k in units}
    elif correct:
        walls = [s["wall_s"] for s in samples]
        cpus = [s["cpu_s"] for s in samples]
        metrics = {
            "cpu_s": statistics.median(cpus),
            "items_per_cpu_s": statistics.median(wl.items / c for c in cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
        }
        print(f"workload {name} seed={seed} sizes={json.dumps(wl.sizes)} "
              f"items/sample={wl.items} samples={len(walls)} setups={len(setups)}")
        for label, values in (("cpu_s", cpus), ("wall_s", walls)):
            print(f"{label} samples: min {min(values):.4f} median "
                  f"{statistics.median(values):.4f} max {max(values):.4f} s")
        print(f"wall_s {statistics.median(walls):.6g} s, items_per_s "
              f"{statistics.median(wl.items / w for w in walls):.6g} 1/s "
              f"(medians of {len(walls)} samples; not bounded)")
    print(f"failed_frac {runner.failed / max(1, runner.attempted):.4g} "
          f"({runner.failed}/{runner.attempted} processes)")
    result = {
        "correct": correct,
        "attempted": max(1, runner.attempted),
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, runner.errors


def write_reference(name: str) -> int:
    """Store the default-seed outputs of ``name`` once the oracle accepts them."""
    wl = workloads.build(name, DEFAULT_SEED)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        runner = Runner(wl, workdir, None)
        if runner.sample() is None:
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (REFERENCE / name).mkdir(parents=True, exist_ok=True)
    for label, (stdout, csv_text) in runner.first.items():
        (REFERENCE / name / f"{label}.stdout").write_text(stdout, encoding="ascii")
        (REFERENCE / name / f"{label}.csv").write_text(csv_text, encoding="ascii")
    return 0


def steadiness(names: list, runs: int, first_seed: int, seconds: float) -> int:
    """Run each workload once per seed and report the spread of each metric."""
    bench = _benchmark_json()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    status = 0
    for name in names:
        values = {k: [] for k in bounds}
        for seed in range(first_seed, first_seed + runs):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: incorrect run\n{proc.stderr}")
                return 1
            for k in bounds:
                values[k].append(result["metrics"][k]["value"])
        for k, bound in bounds.items():
            q1, med, q3 = statistics.quantiles(values[k], n=4)
            spread = (q3 - q1) / med
            steady = spread < bound / 3 or k == "setup_s"
            status |= not steady
            print(json.dumps({"first_seed": first_seed, "run_seconds": seconds,
                              "workload": name, "metric": k, "runs": runs,
                              "median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": bound, "steady": steady,
                              "values": values[k]}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=_benchmark_json()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="'tiny' shrinks every workload for self-tests")
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--write-reference", action="store_true",
                        help="store the default-seed outputs as the references")
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args(argv)

    if not (SRC / "einbern" / "cli.py").is_file():
        print(f"no einbern source tree at {SRC}", file=sys.stderr)
        return 2
    if args.write_reference:
        return max(write_reference(n) for n in args.workload or workloads.WORKLOADS)
    if args.steadiness:
        return steadiness(args.workload or list(workloads.WORKLOADS), args.runs,
                          args.seed, args.seconds)
    if not args.workload or len(args.workload) != 1:
        parser.error("give exactly one --workload")
    print("env " + json.dumps(environment()))
    result, errors = measure(args.workload[0], args.seed, args.seconds,
                             bool(args.trace), args.size)
    for error in errors:
        print(f"error: {error}")
    for k, m in result["metrics"].items():
        print(f"{k} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
