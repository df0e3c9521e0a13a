"""Self-tests of the benchmark at tiny sizes.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture
def workdir():
    run.WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=run.WORK))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _outputs(name, workdir, size="tiny", **sample_args):
    runner = run.Runner(workloads.build(name, 3, size), workdir, None)
    assert runner.sample(**sample_args) is not None, runner.errors
    return dict(runner.first)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, key):
    proc = _run("--workload", "simulate-ac7", "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in _bench_json()[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_and_untraced_csvs_are_identical(name, workdir):
    plain = _outputs(name, workdir)
    traced = _outputs(name, workdir, trace=True)
    assert traced == plain


@pytest.mark.parametrize("name", ["simulate-ac7", "simulate-subsample-o3"])
def test_single_thread_csvs_are_identical(name, workdir):
    assert _outputs(name, workdir, threads="1") == _outputs(name, workdir)


def test_corrupted_reference_is_a_failure(workdir):
    name = "bound-even-o6d3"
    ref = workdir / "reference"
    shutil.copytree(run.REFERENCE / name, ref)
    wl = workloads.build(name, run.DEFAULT_SEED)
    assert run.Runner(wl, workdir, ref).sample() is not None

    csv = ref / "bound-even.csv"
    lines = csv.read_text(encoding="ascii").splitlines()
    t, raw, clamped = lines[-1].split(",")
    lines[-1] = ",".join([t, repr(float(raw) * (1 + 1e-6)), clamped])
    csv.write_text("\n".join(lines) + "\n", encoding="ascii")
    runner = run.Runner(wl, workdir, ref)
    assert runner.sample() is None
    assert runner.failed == 1 and "differs from reference" in runner.errors[0]


def test_reference_comparison_tolerates_ulps_not_verdicts():
    text = (run.REFERENCE / "simulate-ac7" / "simulate-even.csv").read_text(encoding="ascii")
    assert checks.compare_reference(text, text, "csv") == []
    last = text.splitlines()[-1].split(",")
    nudged = text.replace(last[3], repr(float(last[3]) * (1 + 1e-13)))
    assert checks.compare_reference(nudged, text, "csv") == []
    flipped = text.replace("pass", "fail", 1)
    assert checks.compare_reference(flipped, text, "csv")


def test_oracle_rejects_a_wrong_frequency(workdir):
    wl = workloads.build("simulate-subsample-o3", 3, "tiny")
    (inv,) = wl.invocations
    stdout, csv_text = _outputs(wl.name, workdir)["simulate-intrinsic"]
    checker = checks.Checker(inv)
    assert checker.check(0, stdout, csv_text) == []
    rows = csv_text.splitlines()
    cells = rows[1].split(",")
    freq = float(cells[1])
    cells[1] = repr(freq + (1.0 if freq < 0.5 else -1.0) / inv.trials)
    bad = "\n".join([rows[0], ",".join(cells), *rows[2:]]) + "\n"
    assert any("frequency" in e for e in checker.check(0, stdout, bad))
    assert checker.check(1, stdout, csv_text) == ["exit code 1"]


def test_fails_without_the_program(workdir):
    shutil.copy(ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(BENCH, workdir / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "bound-even-o6d3", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=workdir)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
