"""The ``bound`` and ``simulate`` commands of CI's console-script step,
rerun against the outputs recorded in ``reference/demo_outputs.json``.

Exit code, stderr, verdicts and every non-numeric token must match
exactly; numbers match to a relative 1e-9, which absorbs the last-bit
differences between the LAPACK builds of numpy releases.  After an
intended output change, record the outputs again from the repository
root with ``PYTHONPATH=src python tests/test_demo_outputs.py``.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest

from einbern.cli import main

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().parent / "reference" / "demo_outputs.json"
REL_TOL = 1e-9

COMMANDS = (
    ("bound", "--config", "demo/model_even.json", "--theorem", "even", "--t-grid", "0:26:14"),
    ("simulate", "--config", "demo/experiment_even.json"),
    ("simulate", "--config", "demo/experiment_subsample.json"),
    ("bound", "--config", "demo/model_odd.json", "--theorem", "intrinsic", "--t-grid", "0:20:11"),
    ("bound", "--config", "demo/model_fully_symmetric.json", "--theorem", "even", "--t-grid", "0:10:6"),
    ("bound", "--config", "demo/model_odd.json", "--theorem", "general", "--t-grid", "0:20:11"),
    ("bound", "--config", "demo/model_even.json", "--theorem", "general", "--t-grid", "0:26:14"),
    ("bound", "--config", "demo/model_even.json", "--theorem", "intrinsic", "--t-grid", "0:26:14"),
)

_NUMBER = re.compile(r"^[-+]?(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$|^[-+]?(inf|nan)$")


def run(argv, out: Path) -> dict:
    """Exit code, stdout, stderr and CSV of one command, run in-process."""
    argv = [str(ROOT / a) if a.startswith("demo/") else a for a in argv]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--out", str(out)])
    csv = out.read_text(encoding="ascii") if out.exists() else None
    return {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(), "csv": csv}


def same_tokens(text: str, reference: str) -> bool:
    """Labels and verdicts equal, numbers equal to a relative REL_TOL."""
    got, want = text.splitlines(), reference.splitlines()
    if len(got) != len(want):
        return False
    for a, b in zip(got, want):
        ta, tb = re.split(r"([,=\s/])", a), re.split(r"([,=\s/])", b)
        if len(ta) != len(tb) or not all(
                x == y or (_NUMBER.match(x) and _NUMBER.match(y)
                           and math.isclose(float(x), float(y), rel_tol=REL_TOL, abs_tol=1e-300))
                for x, y in zip(ta, tb)):
            return False
    return True


@pytest.mark.parametrize("index", range(len(COMMANDS)),
                         ids=[" ".join(argv[2:5]) for argv in COMMANDS])
def test_demo_outputs_match_the_reference(index, tmp_path):
    entry = json.loads(REFERENCE.read_text(encoding="utf-8"))[index]
    assert tuple(entry["argv"]) == COMMANDS[index]
    got = run(COMMANDS[index], tmp_path / "out.csv")
    assert got["exit"] == entry["exit"]
    assert got["stderr"] == entry["stderr"]
    assert same_tokens(got["stdout"], entry["stdout"]), got["stdout"]
    assert (got["csv"] is None) == (entry["csv"] is None)
    if entry["csv"] is not None:
        assert same_tokens(got["csv"], entry["csv"]), got["csv"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        entries = [{"argv": list(argv), **run(argv, Path(tmp) / f"{i}.csv")}
                   for i, argv in enumerate(COMMANDS)]
    REFERENCE.parent.mkdir(exist_ok=True)
    REFERENCE.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
