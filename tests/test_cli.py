"""Command-line surface: flags, exit codes, file outputs, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import einbern
from einbern import (
    MAX_MODEL_ENTRIES,
    DomainError,
    ExperimentConfig,
    ModelError,
    Subsample,
    Tensor,
    build_report,
    load_experiment,
    load_model,
    model_from_dict,
    random_e_symmetric,
    random_fully_symmetric,
    random_tensor,
    run_experiment,
    write_tensor_text,
)
from einbern.bounds import THEOREMS
from einbern import cli
from einbern.cli import SUITE_NAMES, USAGE, UsageError, main, parse_args
from einbern.config import grid_points
from einbern.verify import worked_example


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def even_model_doc(count=10, seed=7):
    return {
        "schema": 1,
        "law": "rademacher",
        "generate": {
            "count": count,
            "order": 4,
            "dim": 2,
            "seed": seed,
            "kind": "e_symmetric",
        },
    }


def odd_model_doc():
    return {
        "schema": 1,
        "law": "rademacher",
        "generate": {"count": 6, "order": 3, "dim": 2, "seed": 3, "kind": "general"},
    }


class TestConfigLoading:
    def test_model_roundtrip(self, tmp_path):
        path = write_json(tmp_path / "model.json", even_model_doc())
        model = load_model(path)
        assert model.order == 4 and model.dim == 2
        assert len(model.components) == 10

    def test_schema_required(self, tmp_path):
        doc = even_model_doc()
        del doc["schema"]
        path = write_json(tmp_path / "model.json", doc)
        with pytest.raises(ModelError):
            load_model(path)

    def test_unknown_key_rejected(self, tmp_path):
        doc = even_model_doc()
        doc["extra"] = 1
        path = write_json(tmp_path / "model.json", doc)
        with pytest.raises(ModelError):
            load_model(path)

    def test_inline_components(self, tmp_path):
        doc = {
            "schema": 1,
            "law": "rademacher",
            "components": [
                {"shape": [2, 2], "entries": [[1, 1, 1.0], [2, 2, -1.0]]},
                {"shape": [2, 2], "entries": [[1, 2, 0.5], [2, 1, 0.5]]},
            ],
        }
        model = load_model(write_json(tmp_path / "model.json", doc))
        assert model.components[0].entry(1, 1) == 1.0
        assert model.components[1].entry(1, 2) == 0.5

    def test_component_from_fixture_file(self, tmp_path):
        t = Tensor((2, 2), [0.0, 1.0, 1.0, 0.0])
        write_tensor_text(t, tmp_path / "swap.txt")
        doc = {
            "schema": 1,
            "law": "rademacher",
            "components": [{"file": "swap.txt"}],
        }
        model = load_model(write_json(tmp_path / "model.json", doc))
        assert model.components[0] == t

    def test_subsample_model(self, tmp_path):
        doc = {
            "schema": 1,
            "law": "subsample",
            "sample_size": 4,
            "generate": {"count": 6, "order": 2, "dim": 3, "seed": 1,
                         "kind": "e_symmetric"},
        }
        model = load_model(write_json(tmp_path / "model.json", doc))
        assert isinstance(model.law, Subsample)
        assert model.num_summands == 4

    def test_experiment_roundtrip(self, tmp_path):
        doc = {
            "schema": 1,
            "model": {k: v for k, v in even_model_doc().items() if k != "schema"},
            "trials": 150,
            "t_grid": {"start": 0.0, "stop": 10.0, "num": 5},
            "seed": 9,
        }
        config = load_experiment(write_json(tmp_path / "exp.json", doc))
        assert config.trials == 150
        assert len(config.t_grid) == 5
        assert config.confidence_slack == 3.0
        assert config.theorem == "auto"

    def test_experiment_grid_as_list(self, tmp_path):
        doc = {
            "schema": 1,
            "model": {k: v for k, v in even_model_doc().items() if k != "schema"},
            "trials": 120,
            "t_grid": [0.0, 1.0, 2.0],
            "seed": 0,
        }
        config = load_experiment(write_json(tmp_path / "exp.json", doc))
        assert config.t_grid == (0.0, 1.0, 2.0)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ModelError):
            load_model(str(path))

    def test_loading_builds_no_tensor_per_component(self, tmp_path, monkeypatch):
        # the simulate-subsample-o3 bench model: 400 general order-3 tensors
        doc = {
            "schema": 1,
            "model": {"law": "subsample", "sample_size": 400,
                      "generate": {"count": 400, "order": 3, "dim": 2, "seed": 0}},
            "trials": 200,
            "t_grid": [10.0, 20.0],
            "seed": 0,
            "theorem": "intrinsic",
        }
        path = write_json(tmp_path / "exp.json", doc)
        calls = []
        init = Tensor.__init__

        def counting_init(self, *args, **kwargs):
            calls.append(None)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Tensor, "__init__", counting_init)
        model = load_experiment(path).model
        assert len(calls) <= 2
        comps = model.components
        assert len(comps) == 400
        for k, c in enumerate(comps):
            assert isinstance(c, Tensor) and c.shape == (2, 2, 2)
            assert np.array_equal(c.data, model.stack[k])
            assert np.shares_memory(c.data, model.stack)
            assert not c.data.flags.writeable
        assert model.components is comps


_ORACLES = {
    "general": lambda rng, order, dim, scale: random_tensor(rng, (dim,) * order, scale),
    "e_symmetric": lambda rng, order, dim, scale: random_e_symmetric(
        rng, order // 2, dim, scale),
    "fully_symmetric": random_fully_symmetric,
}


@given(
    kind=st.sampled_from(sorted(_ORACLES)),
    count=st.integers(min_value=1, max_value=60),
    order=st.integers(min_value=1, max_value=6),
    dim=st.integers(min_value=1, max_value=3),
    scale=st.sampled_from([0.0, 0.5, 3.0]),
    seed=st.one_of(st.just(0), st.integers(min_value=2**64 + 1, max_value=2**80),
                   st.integers(min_value=2**128, max_value=2**256)),
    law=st.sampled_from(["rademacher", "subsample"]),
)
@example(kind="fully_symmetric", count=31, order=6, dim=3, scale=3.0, seed=2**64 + 1,
         law="subsample")
@example(kind="e_symmetric", count=60, order=6, dim=3, scale=0.5, seed=0,
         law="rademacher")
@example(kind="general", count=60, order=6, dim=3, scale=0.0, seed=0, law="subsample")
@settings(max_examples=60, deadline=None)
def test_generated_stack_equals_per_component_oracles(
    kind, count, order, dim, scale, seed, law
):
    if kind == "e_symmetric":
        order += order % 2
    doc = {"law": law, "generate": {"count": count, "order": order, "dim": dim,
                                    "seed": seed, "kind": kind, "scale": scale}}
    if law == "subsample":
        doc["sample_size"] = 5
    model = model_from_dict(doc)
    rng = np.random.default_rng(seed)
    oracle = np.stack([_ORACLES[kind](rng, order, dim, scale).data
                       for _ in range(count)])
    if law == "subsample":
        oracle = oracle - oracle.mean(axis=0)
    assert model.shape == (dim,) * order
    assert np.array_equal(model.stack, oracle)


@pytest.mark.parametrize("law", ["rademacher", "subsample"])
def test_fully_symmetric_scale_whose_permutation_sum_overflows_is_refused(law):
    # the guard charges each symmetric entry 3! = 6 draws, the most that
    # an orbit of an order-3 tensor can sum; the scale is refused before
    # any entry is drawn, so none reaches centering
    doc = {"law": law, "generate": {"count": 4, "order": 3, "dim": 2, "seed": 0,
                                    "kind": "fully_symmetric", "scale": 5e307}}
    if law == "subsample":
        doc["sample_size"] = 2
    with pytest.raises(ModelError, match=r"6\*scale finite, got 5e\+307"):
        model_from_dict(doc)
    doc["generate"]["scale"] = 2e307
    assert np.isfinite(model_from_dict(doc).stack).all()


class TestVerifyCommand:
    def test_algebra_suite_passes(self, capsys):
        assert main(["verify", "--suite", "algebra", "--seed", "7",
                     "--cases", "200"]) == 0
        out = capsys.readouterr().out
        assert "suite algebra" in out
        assert "FAIL" not in out

    def test_all_suites(self, capsys):
        assert main(["verify", "--suite", "all", "--seed", "3",
                     "--cases", "10"]) == 0
        out = capsys.readouterr().out
        assert "properties passed" in out

    def test_suite_choices_are_verify_suites(self):
        from einbern import cli, verify

        assert list(cli.SUITE_NAMES) == verify.suite_names()

    def test_unknown_suite_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2

    @pytest.mark.parametrize("cases", ["0", "-3"])
    def test_no_cases_is_usage_error(self, capsys, cases):
        assert main(["verify", "--suite", "bounds", "--cases", cases]) == 2
        captured = capsys.readouterr()
        assert "--cases" in captured.err
        assert "PASS" not in captured.out

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["verify", "--suite", "bounds", "--seed", "-1"]) == 2
        assert "--seed" in capsys.readouterr().err


class TestBoundCommand:
    def test_even_report_and_csv(self, tmp_path, capsys):
        config = write_json(tmp_path / "model.json", even_model_doc())
        out = tmp_path / "tail.csv"
        code = main(["bound", "--config", config, "--theorem", "even",
                     "--t-grid", "0:20:11", "--out", str(out)])
        assert code == 0
        report = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert report["theorem"] == "even"
        assert report["dim_factor"] == "4"
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,bound_raw,bound_clamped"
        assert len(lines) == 12

    def test_even_on_odd_model_exits_3(self, tmp_path):
        config = write_json(tmp_path / "model.json", odd_model_doc())
        code = main(["bound", "--config", config, "--theorem", "even",
                     "--t-grid", "0:5:5", "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_general_on_matrix_model_shows_2d(self, tmp_path, capsys):
        doc = {
            "schema": 1,
            "law": "rademacher",
            "generate": {"count": 4, "order": 2, "dim": 3, "seed": 2,
                         "kind": "general"},
        }
        config = write_json(tmp_path / "model.json", doc)
        code = main(["bound", "--config", config, "--theorem", "general",
                     "--t-grid", "0:5:6", "--out", str(tmp_path / "x.csv")])
        assert code == 0
        report = dict(
            line.split("=", 1)
            for line in capsys.readouterr().out.strip().splitlines()
        )
        assert float(report["dim_factor"]) == 6.0

    def test_intrinsic_grid_truncated_with_warning(self, tmp_path, capsys):
        config = write_json(tmp_path / "model.json", even_model_doc())
        out = tmp_path / "tail.csv"
        code = main(["bound", "--config", config, "--theorem", "intrinsic",
                     "--t-grid", "0:30:16", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "dropped" in captured.err
        lines = out.read_text().strip().splitlines()
        assert 1 < len(lines) < 17

    @pytest.mark.parametrize("case", ["negative-grid", "unwritable-out"])
    def test_failing_tail_curve_leaves_no_output(self, tmp_path, capsys, case):
        config = write_json(tmp_path / "model.json", even_model_doc())
        grid, out = "--t-grid=0:1:3", tmp_path / "missing" / "a.csv"
        if case == "negative-grid":
            grid, out = "--t-grid=-1:1:3", tmp_path / "a.csv"
        assert main(["bound", "--config", config, "--theorem", "even", grid,
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert not out.exists()

    def test_missing_config_exits_2(self, tmp_path):
        code = main(["bound", "--config", str(tmp_path / "none.json"),
                     "--theorem", "even", "--t-grid", "0:1:2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_bad_grid_spec_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "model.json", even_model_doc())
        assert main(["bound", "--config", config, "--theorem", "even",
                     "--t-grid", "nope", "--out", str(tmp_path / "x.csv")]) == 2

    def test_nan_grid_spec_exits_2(self, tmp_path, capsys):
        config = write_json(tmp_path / "model.json", even_model_doc())
        out = tmp_path / "x.csv"
        assert main(["bound", "--config", config, "--theorem", "even",
                     "--t-grid", "nan:1:3", "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("theorem", ["even", "general", "intrinsic"])
    def test_non_finite_component_exits_2(self, tmp_path, capsys, theorem):
        doc = {
            "schema": 1,
            "law": "rademacher",
            "components": [
                {"shape": [2, 2], "entries": [[1, 1, 1.0], [2, 2, math.nan]]},
                {"shape": [2, 2], "entries": [[1, 2, 1.0], [2, 1, 1.0]]},
            ],
        }
        config = write_json(tmp_path / "model.json", doc)
        out = tmp_path / "x.csv"
        assert main(["bound", "--config", config, "--theorem", theorem,
                     "--t-grid", "0:5:3", "--out", str(out)]) == 2
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def experiment_doc(self, trials=400, seed=5):
        # grid spans [0, 3(sqrt(nu) + L)] for this model, keeping the
        # smallest bound on the grid above the 1/trials resolution
        return {
            "schema": 1,
            "model": {k: v for k, v in even_model_doc(count=8).items()
                      if k != "schema"},
            "trials": trials,
            "t_grid": {"start": 0.0, "stop": 14.0, "num": 8},
            "seed": seed,
            "theorem": "even",
        }

    def test_demo_config_passes(self, tmp_path, capsys):
        config = write_json(tmp_path / "exp.json", self.experiment_doc())
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "expectation_verdict=pass" in stdout
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,empirical_freq,upper_conf,bound_raw,bound_clamped,verdict"
        assert len(lines) == 9

    def test_too_few_trials_exits_2(self, tmp_path):
        config = write_json(tmp_path / "exp.json", self.experiment_doc(trials=50))
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_rerun_same_seed_identical_bytes(self, tmp_path):
        config = write_json(tmp_path / "exp.json", self.experiment_doc(seed=77))
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["simulate", "--config", config, "--out", str(out1)]) == 0
        assert main(["simulate", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_nan_grid_point_exits_2(self, tmp_path):
        doc = self.experiment_doc()
        doc["t_grid"] = [0.0, math.nan, 1.0]
        config = write_json(tmp_path / "exp.json", doc)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_field_exits_2(self, tmp_path):
        doc = self.experiment_doc()
        doc["plot"] = True
        config = write_json(tmp_path / "exp.json", doc)
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "x.csv")]) == 2


    def test_overflowing_sums_exit_4(self, tmp_path, capsys):
        # 1e308 + 1e308 overflows; so does the symmetric part of the
        # component's unfolding, which L is solved from first
        doc = {
            "schema": 1,
            "model": {
                "law": "rademacher",
                "components": [
                    {"shape": [2, 2], "entries": [[1, 1, 1e308]]},
                    {"shape": [2, 2], "entries": [[1, 1, 1e308]]},
                ],
            },
            "trials": 100,
            "t_grid": [0.0, 1.0],
            "seed": 0,
        }
        config = write_json(tmp_path / "exp.json", doc)
        out = tmp_path / "x.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) == 4
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_expectation_verdict_exits_1(self, tmp_path, capsys):
        # 1000 standard errors lift the trial mean past the mean bound,
        # while the one tail point, t = 0, still passes
        demo = TestShippedDemos.demo_dir / "experiment_even.json"
        doc = json.loads(demo.read_text())
        doc.update(confidence_slack=1000, t_grid=[0])
        config = write_json(tmp_path / "exp.json", doc)
        assert main(["simulate", "--config", config,
                     "--out", str(tmp_path / "x.csv")]) == 1
        out = capsys.readouterr().out
        assert "expectation_verdict=fail" in out
        assert out.endswith("tail_verdicts=1/1 pass\n")

    @pytest.mark.parametrize("theorem", ["even", "auto", "general"])
    def test_asymmetric_trial_sum_exits_0(self, tmp_path, capsys, theorem):
        # each model's components pass the symmetry check at their own
        # scale, so bound certifies it, although a sum with mixed signs
        # keeps only the antisymmetric defect; simulate agrees with bound
        for first in ([[1, 1, 1.0], [1, 2, 4e-13], [2, 1, -4e-13], [2, 2, 1.0]],
                      [[1, 1, 1.0], [1, 2, 1.0000000000001], [2, 1, 1.0],
                       [2, 2, 1.0]]):
            model = {"law": "rademacher", "components": [
                {"shape": [2, 2], "entries": first},
                {"shape": [2, 2], "entries": [[1, 1, 1.0], [1, 2, 1.0],
                                              [2, 1, 1.0], [2, 2, 1.0]]},
            ]}
            config = write_json(tmp_path / "model.json", {"schema": 1, **model})
            assert main(["bound", "--config", config, "--theorem", "even",
                         "--t-grid", "0:2:3", "--out", str(tmp_path / "b.csv")]) == 0
            doc = {"schema": 1, "model": model, "trials": 100,
                   "t_grid": [0.5, 1.0, 2.0], "seed": 0, "theorem": theorem}
            config = write_json(tmp_path / "exp.json", doc)
            out = tmp_path / "x.csv"
            capsys.readouterr()
            assert main(["simulate", "--config", config, "--out", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.out.endswith("tail_verdicts=3/3 pass\n")
            assert captured.err == ""
            assert out.exists()


    def test_auto_on_dim_one_runs_general(self, tmp_path, capsys):
        # the even-order mean bound needs d >= 2, so auto picks general on
        # a d = 1 E-symmetric model, with the bytes of a general experiment
        model = {"law": "rademacher", "generate": {
            "count": 5, "order": 2, "dim": 1, "seed": 3, "kind": "e_symmetric"}}
        runs = {}
        for theorem in ("auto", "general", "even"):
            doc = {"schema": 1, "model": model, "trials": 200,
                   "t_grid": [0.5, 1.0, 2.0], "seed": 0, "theorem": theorem}
            config = write_json(tmp_path / f"{theorem}.json", doc)
            out = tmp_path / f"{theorem}.csv"
            code = main(["simulate", "--config", config, "--out", str(out)])
            runs[theorem] = (code, capsys.readouterr(),
                             out.read_bytes() if out.exists() else None)
        assert runs["auto"] == runs["general"]
        assert runs["auto"][0] == 0
        assert runs["auto"][1].out.startswith("statistic=gen_spectral_norm ")
        code, captured, csv = runs["even"]
        assert (code, captured.out, csv) == (3, "", None)
        assert captured.err == "error: the even-order mean bound needs d >= 2\n"


class TestOversizedInputs:
    def run_bound(self, tmp_path, doc):
        config = write_json(tmp_path / "model.json", doc)
        return main(["bound", "--config", config, "--theorem", "general",
                     "--t-grid", "0:1:3", "--out", str(tmp_path / "x.csv")])

    def test_oversized_generate_exits_2(self, tmp_path, capsys):
        doc = {"schema": 1, "law": "rademacher",
               "generate": {"count": 2, "order": 12, "dim": 10, "seed": 0}}
        assert self.run_bound(tmp_path, doc) == 2
        assert "budget" in capsys.readouterr().err

    def test_huge_order_generate_exits_2(self, tmp_path, capsys):
        doc = {"schema": 1, "law": "rademacher",
               "generate": {"count": 1, "order": 10**9, "dim": 2, "seed": 0}}
        assert self.run_bound(tmp_path, doc) == 2
        assert "budget" in capsys.readouterr().err

    def test_oversized_inline_components_exit_2(self, tmp_path, capsys):
        shape = [8] * 8
        doc = {"schema": 1, "law": "rademacher",
               "components": [{"shape": shape, "entries": []}] * 2}
        # one component of 8**8 entries fits; two exceed the budget
        assert 8**8 <= MAX_MODEL_ENTRIES < 2 * 8**8
        assert self.run_bound(tmp_path, doc) == 2
        assert "budget" in capsys.readouterr().err

    def test_oversized_tensor_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "big.txt").write_text("12 " + "10 " * 12 + "\n")
        doc = {"schema": 1, "law": "rademacher",
               "components": [{"file": "big.txt"}]}
        assert self.run_bound(tmp_path, doc) == 2
        assert "allowed" in capsys.readouterr().err

    def test_fully_symmetric_counts_its_entries(self, tmp_path, capsys):
        # order 10, dim 2: 2**10 entries fit the budget, and no N! is charged
        generate = {"count": 1, "order": 10, "dim": 2, "seed": 3,
                    "kind": "fully_symmetric"}
        model = model_from_dict({"law": "rademacher", "generate": generate})
        want = random_fully_symmetric(np.random.default_rng(3), 10, 2)
        assert np.array_equal(model.stack[0], want.data)
        # order 25: 2**25 entries do not
        generate["order"] = 25
        doc = {"schema": 1, "law": "rademacher", "generate": generate}
        assert self.run_bound(tmp_path, doc) == 2
        assert "budget" in capsys.readouterr().err

    def test_non_positive_mode_size_exits_2(self, tmp_path):
        doc = {"schema": 1, "law": "rademacher",
               "components": [{"shape": [2, -2], "entries": []}]}
        assert self.run_bound(tmp_path, doc) == 2


def run_python(*args, env=None):
    """Run Python in a fresh interpreter that imports this einbern.

    ``env`` sets variables on top of this process's environment; a value
    of None unsets one."""
    src = str(Path(einbern.__file__).resolve().parents[1])
    full = dict(os.environ)
    for name, value in (env or {}).items():
        if value is None:
            full.pop(name, None)
        else:
            full[name] = value
    full["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, full.get("PYTHONPATH")) if p
    )
    return subprocess.run([sys.executable, *args],
                          env=full, capture_output=True, text=True, timeout=120)


def run_cli(*args, env=None):
    """Run the CLI in a fresh interpreter, so stderr is what a user sees."""
    return run_python("-m", "einbern.cli", *args, env=env)


# K=500 order-6 dim-3 components: the 13500x27 Gram that L is computed
# from (m*n*k about 9.8e6) is large enough for OpenBLAS to thread it
# when it may
_LARGE_E_SYMMETRIC = {"schema": 1, "law": "rademacher",
                      "generate": {"count": 500, "order": 6, "dim": 3,
                                   "seed": 0, "kind": "e_symmetric"}}


@pytest.mark.parametrize("theorem", ["even", "intrinsic", None],
                         ids=["bound-even", "bound-intrinsic", "simulate"])
def test_blas_thread_count_changes_no_result(tmp_path, theorem):
    if theorem:
        config = write_json(tmp_path / "model.json", _LARGE_E_SYMMETRIC)
        args = ["bound", "--config", config, "--theorem", theorem,
                "--t-grid", "0:200:41"]
    else:
        config = str(TestShippedDemos.demo_dir / "experiment_even.json")
        args = ["simulate", "--config", config]
    out = tmp_path / "out.csv"
    runs = []
    for threads in ("1", "2"):
        proc = run_cli(*args, "--out", str(out),
                       env={"OPENBLAS_NUM_THREADS": threads})
        runs.append((proc.returncode, proc.stdout, out.read_bytes()))
        out.unlink()
    assert runs[0][0] == 0, runs[0][1]
    assert runs[0] == runs[1]


_COUNT_THREADS = "len(os.listdir('/proc/self/task'))"
_CPUS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
         else os.cpu_count() or 1)


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc/self/task")
class TestBlasThreadPolicy:
    """``import einbern`` loads numpy with one BLAS thread unless the
    caller chose otherwise, and leaves the environment as it was."""

    @staticmethod
    def report(code, threads=None):
        proc = run_python("-c", f"import os\n{code}",
                          env={"OPENBLAS_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_import_starts_no_blas_worker(self):
        threads, variable = self.report(
            "import einbern\n"
            f"print({_COUNT_THREADS}, os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert (threads, variable) == ("1", "None")

    @pytest.mark.skipif(_CPUS < 2, reason="OpenBLAS starts at most one thread per CPU")
    def test_count_set_by_caller_wins(self):
        threads, variable = self.report(
            "import einbern\n"
            f"print({_COUNT_THREADS}, os.environ.get('OPENBLAS_NUM_THREADS'))",
            threads="2")
        assert (threads, variable) == ("2", "2")

    def test_numpy_loaded_first_keeps_its_threads(self):
        before, after = self.report(
            f"import numpy\nprint({_COUNT_THREADS})\n"
            f"import einbern\nprint({_COUNT_THREADS})")
        alone, = self.report(f"import numpy\nprint({_COUNT_THREADS})")
        assert before == after == alone


def test_bound_and_simulate_load_neither_numpy_random_nor_verify(tmp_path):
    # nor argparse, gettext or locale, which argparse loads to build a parser;
    # and the commands themselves load no text codec: each CSV is written as
    # ASCII bytes, where a text file opened as "ascii" imports encodings.ascii
    demo = TestShippedDemos.demo_dir
    model = json.loads((demo / "model_odd.json").read_text())
    del model["schema"]
    subsample = write_json(tmp_path / "exp.json", {
        "schema": 1, "model": model, "trials": 100, "t_grid": [0.0, 5.0, 10.0],
        "seed": 3, "theorem": "general"})
    runs = [
        ["bound", "--config", str(demo / "model_even.json"), "--theorem", "even",
         "--t-grid", "0:26:14"],
        ["bound", "--config", str(demo / "model_odd.json"), "--theorem", "intrinsic",
         "--t-grid", "0:20:11"],
        ["simulate", "--config", str(demo / "experiment_even.json")],
        ["simulate", "--config", subsample],
    ]
    runs = [[*argv, "--out", str(tmp_path / f"{i}.csv")] for i, argv in enumerate(runs)]
    proc = run_python("-c", (
        "import sys\n"
        "from einbern.cli import main\n"
        "before = set(sys.modules)\n"
        f"print([main(argv) for argv in {runs!r}])\n"
        "print([m for m in ('numpy.random', 'einbern.verify', 'argparse', 'gettext',"
        " 'locale') if m in sys.modules])\n"
        "print(sorted(m for m in set(sys.modules) - before if m.startswith('encodings')))"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-3:] == ["[0, 0, 0, 0]", "[]", "[]"]


def test_overflowing_grid_span_exits_2_without_warnings(tmp_path):
    # both ends are finite, their difference is not; the value is taken
    # verbatim, so its leading "-" needs no --t-grid= form
    config = write_json(tmp_path / "model.json", even_model_doc())
    proc = run_cli("bound", "--config", config, "--theorem", "even",
                   "--t-grid", "-1.7e308:1.7e308:3", "--out", str(tmp_path / "a.csv"))
    assert proc.returncode == 2
    assert "finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr

    doc = TestSimulateCommand().experiment_doc()
    doc["t_grid"] = {"start": -1.7e308, "stop": 1.7e308, "num": 3}
    config = write_json(tmp_path / "exp.json", doc)
    proc = run_cli("simulate", "--config", config, "--out", str(tmp_path / "b.csv"))
    assert proc.returncode == 2
    assert "finite" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def big_diagonal_model():
    # one order-4, dim-3 component with its nine unfolding-diagonal
    # entries 7e153: L = 7e153 and nu = 4.9e307, so 2 nu m log d overflows
    entries = [[i, j, i, j, 7e153] for i in (1, 2, 3) for j in (1, 2, 3)]
    return {"law": "rademacher",
            "components": [{"shape": [3, 3, 3, 3], "entries": entries}]}


class TestOverflowingQuantities:
    def assert_exit_4(self, proc, out, message):
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert message in proc.stderr
        assert not out.exists()

    def test_mean_bound_overflow_exits_4_in_bound(self, tmp_path):
        config = write_json(tmp_path / "model.json",
                            {"schema": 1, **big_diagonal_model()})
        out = tmp_path / "a.csv"
        proc = run_cli("bound", "--config", config, "--theorem", "even",
                       "--t-grid", "0:3e154:4", "--out", str(out))
        self.assert_exit_4(proc, out, "mean bound overflowed")

    def test_mean_bound_overflow_exits_4_in_simulate(self, tmp_path):
        doc = {"schema": 1, "model": big_diagonal_model(), "trials": 100,
               "t_grid": [0.0, 1e154], "seed": 0, "theorem": "general"}
        config = write_json(tmp_path / "exp.json", doc)
        out = tmp_path / "a.csv"
        proc = run_cli("simulate", "--config", config, "--out", str(out))
        self.assert_exit_4(proc, out, "mean bound overflowed")

    def test_trial_std_overflow_exits_4(self, tmp_path):
        # the bound is finite, but the squared deviations of the trial
        # statistics overflow
        component = {"shape": [2, 2], "entries": [[1, 1, 1e153], [2, 2, 1e153]]}
        doc = {"schema": 1,
               "model": {"law": "rademacher", "components": [component] * 50},
               "trials": 100, "t_grid": [0.0, 1e154], "seed": 0, "theorem": "even"}
        config = write_json(tmp_path / "exp.json", doc)
        out = tmp_path / "a.csv"
        proc = run_cli("simulate", "--config", config, "--out", str(out))
        self.assert_exit_4(proc, out, "std of the trial statistics overflowed")


    def test_trace_overflow_exits_4_naming_the_trace(self, tmp_path):
        config = write_json(tmp_path / "model.json",
                            {"schema": 1, **big_diagonal_model()})
        out = tmp_path / "a.csv"
        proc = run_cli("bound", "--config", config, "--theorem", "intrinsic",
                       "--t-grid", "0:3e154:4", "--out", str(out))
        self.assert_exit_4(proc, out, "trace of the outer variance bound overflowed")
        assert "RuntimeWarning" not in proc.stderr

    def test_centering_overflow_exits_4(self, tmp_path):
        # every entry is finite, but their mean overflows
        component = {"shape": [2, 2], "entries": [[1, 1, 1.5e308]]}
        config = write_json(tmp_path / "model.json", {
            "schema": 1, "law": "subsample", "sample_size": 2,
            "components": [component, component]})
        out = tmp_path / "a.csv"
        proc = run_cli("bound", "--config", config, "--theorem", "general",
                       "--t-grid", "0:1:3", "--out", str(out))
        self.assert_exit_4(proc, out, "centering the subsample population overflowed")

    def test_L_overflow_exits_4_in_bound_and_simulate(self, tmp_path):
        # n/s = 5/2 times a largest singular value near 1e308
        model = {"law": "subsample", "sample_size": 2,
                 "generate": {"count": 5, "order": 2, "dim": 2, "seed": 1,
                              "kind": "general", "scale": 8e307}}
        config = write_json(tmp_path / "model.json", {"schema": 1, **model})
        out = tmp_path / "a.csv"
        proc = run_cli("bound", "--config", config, "--theorem", "general",
                       "--t-grid", "0:1:3", "--out", str(out))
        self.assert_exit_4(proc, out, "the uniform bound L overflowed")
        config = write_json(tmp_path / "exp.json", {
            "schema": 1, "model": model, "trials": 100, "t_grid": [0.0, 1.0],
            "seed": 0, "theorem": "general"})
        proc = run_cli("simulate", "--config", config, "--out", str(out))
        self.assert_exit_4(proc, out, "the uniform bound L overflowed")

    @pytest.mark.parametrize("theorem", ["even", "general", "intrinsic"])
    def test_symmetric_part_overflow_exits_4(self, tmp_path, theorem):
        # K/s = 3 keeps the Gram of the centered (1,1) entries 5e153,
        # -5e153 and 0 finite at 1.5e308; its symmetric part overflows
        components = [{"shape": [2, 2], "entries": [[1, 1, v]] if v else []}
                      for v in (5e153, -5e153, 0)]
        config = write_json(tmp_path / "model.json", {
            "schema": 1, "law": "subsample", "sample_size": 1,
            "components": components})
        out = tmp_path / "a.csv"
        proc = run_cli("bound", "--config", config, "--theorem", theorem,
                       "--t-grid", "0:1:3", "--out", str(out))
        self.assert_exit_4(proc, out, "the symmetric part of a matrix overflowed")

    def test_symmetry_defect_overflow_exits_3(self, tmp_path):
        # M - M^T overflows: not E-symmetric, and no numpy warning
        component = {"shape": [2, 2], "entries": [[1, 2, 1e308], [2, 1, -1e308]]}
        config = write_json(tmp_path / "model.json", {
            "schema": 1, "law": "rademacher", "components": [component]})
        out = tmp_path / "a.csv"
        proc = run_cli("bound", "--config", config, "--theorem", "even",
                       "--t-grid", "0:1:3", "--out", str(out))
        assert proc.returncode == 3 and proc.stdout == "" and not out.exists()
        assert proc.stderr == ("error: the even-order bound needs an even order "
                               "and pairwise-symmetric components\n")


class TestExample45Command:
    def test_prints_expected_facts(self, capsys):
        assert main(["example45"]) == 0
        out = capsys.readouterr().out
        assert "-2" in out
        assert "max 2, min -1" in out
        assert "is_e_psd: False" in out
        assert "PSD but not E-PSD" in out

    def test_prints_the_worked_example_details(self, capsys):
        assert main(["example45"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:-1] == [fact.detail for fact in worked_example()]
        assert lines[-1] == "conclusion: PSD but not E-PSD"


class TestValidityThreshold:
    """The intrinsic bound's threshold, with its 1e-12 slack, is applied
    alike by the report, by `bound` and by the Monte Carlo harness."""

    def test_slack_accepted_everywhere(self, tmp_path, capsys):
        config = write_json(tmp_path / "model.json", even_model_doc())
        model = load_model(config)
        report = build_report(model, "intrinsic")
        edge = report.tail_domain_min
        inside, outside = edge - 5e-13, edge - 2e-12
        assert inside < edge

        assert report.tail(inside).raw > 0.0
        with pytest.raises(DomainError):
            report.tail(outside)

        out = tmp_path / "tail.csv"
        for t, rows in ((inside, 1), (outside, 0)):
            assert main(["bound", "--config", config, "--theorem", "intrinsic",
                         f"--t-grid={t!r}:{t!r}:1", "--out", str(out)]) == 0
            assert len(out.read_text().splitlines()) == 1 + rows
            assert ("dropped" in capsys.readouterr().err) == (rows == 0)

        experiment = ExperimentConfig(model=model, trials=100, t_grid=(inside,),
                                      seed=0, theorem="intrinsic")
        assert run_experiment(experiment).rows[0].t == inside
        with pytest.raises(DomainError):
            run_experiment(ExperimentConfig(model=model, trials=100,
                                            t_grid=(outside,), seed=0,
                                            theorem="intrinsic"))


class TestShippedDemos:
    demo_dir = __import__("pathlib").Path(__file__).resolve().parent.parent / "demo"

    def test_demo_experiment_passes(self, tmp_path, capsys):
        config = self.demo_dir / "experiment_even.json"
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert "expectation_verdict=pass" in capsys.readouterr().out

    def test_demo_subsample_experiment_passes(self, tmp_path, capsys):
        # the subsample law's trials, and their sigma_max statistic
        config = self.demo_dir / "experiment_subsample.json"
        out = tmp_path / "results.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("statistic=gen_spectral_norm trials=2000 ")
        assert "expectation_verdict=pass" in captured.out
        assert captured.out.endswith("tail_verdicts=11/11 pass\n")
        assert captured.err == ""

    def test_demo_models_report(self, tmp_path, capsys):
        even = self.demo_dir / "model_even.json"
        assert main(["bound", "--config", str(even), "--theorem", "even",
                     "--t-grid", "0:26:14", "--out", str(tmp_path / "a.csv")]) == 0
        odd = self.demo_dir / "model_odd.json"
        assert main(["bound", "--config", str(odd), "--theorem", "intrinsic",
                     "--t-grid", "0:20:11", "--out", str(tmp_path / "b.csv")]) == 0
        captured = capsys.readouterr()
        assert "intrinsic_dim=" in captured.out

    def test_bound_output_is_byte_deterministic(self, tmp_path):
        even = self.demo_dir / "model_even.json"
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out1, out2):
            assert main(["bound", "--config", str(even), "--theorem", "general",
                         "--t-grid", "0:26:14", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def test_usage_errors():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


# The argparse parser the command line was once parsed with, kept as the
# oracle of ``parse_args``: every argv it accepts gives the same command
# and values.  It keeps its own copies of the old converters.

def _oracle_grid_spec(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected a:b:n, got {text!r}")
    try:
        return grid_points(float(parts[0]), float(parts[1]), int(parts[2]))
    except (ValueError, ModelError) as exc:
        raise argparse.ArgumentTypeError(f"bad grid spec {text!r}: {exc}") from exc


def _oracle_int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"need an integer >= {low}, got {value}")
        return value

    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="einbern",
        description=(
            "Einstein-product tensor algebra with Bernstein-type "
            "concentration bounds for random tensor sums"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run a seeded property suite and report pass/fail"
    )
    p_verify.add_argument(
        "--suite", required=True, choices=[*SUITE_NAMES, "all"]
    )
    p_verify.add_argument("--seed", type=_oracle_int_at_least(0), default=0)
    p_verify.add_argument("--cases", type=_oracle_int_at_least(1), default=100)

    p_bound = sub.add_parser(
        "bound", help="evaluate one bound for a model and write its tail curve"
    )
    p_bound.add_argument("--config", required=True, help="model JSON document")
    p_bound.add_argument("--theorem", required=True, choices=THEOREMS[1:])
    p_bound.add_argument(
        "--t-grid", required=True, type=_oracle_grid_spec, metavar="a:b:n",
        help="linspace of t values, e.g. 0:5:21; a negative start needs "
        "the --t-grid=a:b:n form",
    )
    p_bound.add_argument("--out", required=True, help="CSV output path")

    p_sim = sub.add_parser(
        "simulate", help="run a Monte Carlo experiment against its bound"
    )
    p_sim.add_argument("--config", required=True, help="experiment JSON document")
    p_sim.add_argument("--out", required=True, help="CSV output path")

    sub.add_parser(
        "example45",
        help="walk through the built-in PSD-but-not-E-PSD worked example",
    )
    return parser


ORACLE = _build_parser()


def oracle_parse(argv):
    """The oracle's command and values for ``argv``, or None if it refuses it."""
    with contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(ORACLE.parse_args(argv))
        except SystemExit as exc:
            assert exc.code == 2  # the generated argvs never ask for help
            return None


_COMMAND_OPTIONS = {
    "verify": ["--suite", "--seed", "--cases"],
    "bound": ["--config", "--theorem", "--t-grid", "--out"],
    "simulate": ["--config", "--out"],
    "example45": [],
}
_PATHS = ["model.json", "a b", "bound", "", "=", "-", "-1", "-x y"]
# each option's valid values, then invalid ones.  Left out are "-h", as
# argparse prints help wherever it reads that value as an option, and
# "--", which argparse drops from a value: "--out=--" gave out=[]
_VALUES = {
    "--suite": (["algebra", "all"], ["nope", "al", "--out"]),
    "--seed": (["0", "7", " 3", "+2", "1_0"], ["-1", "x", "1.5"]),
    "--cases": (["1", "100"], ["0", "-3", ""]),
    "--config": (_PATHS, ["--out"]),
    "--out": (_PATHS, ["--config"]),
    "--theorem": (["even", "intrinsic"], ["none", "Even"]),
    "--t-grid": (["0:5:21", "1:0:3", "-1:1:3", "-1.5:.5:4"],
                 ["nope", "nan:1:3", "0:1", "0:inf:3", "0:1:10000000000000",
                  "-1.7e308:1.7e308:3"]),
    "--bogus": (["1"], []),
}


@st.composite
def command_lines(draw):
    """(argv, values): a command and its options in any order, each whole
    or abbreviated, as "--name value" or "--name=value", at times with an
    option left out or repeated, another command's option, a stray token or
    a name without its value; ``values`` holds every value put in."""
    command = draw(st.sampled_from([*_COMMAND_OPTIONS, "frob"]))
    rare = st.integers(0, 9).map(lambda n: n == 0)
    others = st.lists(st.sampled_from(list(_VALUES)), max_size=2)
    extra = draw(others) if draw(rare) else []
    # --seed and --cases have defaults, the other options are required
    kept = [n for n in _COMMAND_OPTIONS.get(command, [])
            if not draw(st.booleans() if n in ("--seed", "--cases") else rare)]
    names = draw(st.permutations(kept + extra))
    names += [names[0]] if names and draw(rare) else []
    argv, values = [command], []
    for name in names:
        spelled = name[: draw(st.integers(3, len(name)))]
        valid, invalid = _VALUES[name]
        value = draw(st.sampled_from(invalid if invalid and draw(rare) else valid))
        argv += [f"{spelled}={value}"] if draw(st.booleans()) else [spelled, value]
        values.append(value)
    if draw(rare):
        argv.insert(draw(st.integers(0, len(argv))), "stray")
    if draw(rare):
        argv.append(draw(st.sampled_from(list(_VALUES))))
    return argv, values


@settings(max_examples=500, deadline=None)
@given(case=command_lines())
@example(case=(["bound", "--conf", "c", "--the", "even", "--t-grid=-1:1:3",
                "--out", "o", "--out=p"], []))
@example(case=(["verify", "--suite", "all"], []))
@example(case=(["verify", "--suite", "bounds", "--seed", "-1"], ["-1"]))
@example(case=(["verify", "--su=all", "--ca", "3", "--seed", "+2"], []))
@example(case=(["simulate", "--config", "-x y", "--out", "-1"], []))
def test_parse_args_agrees_with_argparse_oracle(case):
    argv, values = case
    expected = oracle_parse(argv)
    if expected is not None:
        assert vars(parse_args(argv)) == expected
    elif not any(value.startswith("-") for value in values):
        with pytest.raises(UsageError):
            parse_args(argv)
        with contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 2


def test_a_value_is_taken_verbatim():
    # argparse read "-1:1:3" as an option; it is the grid's value now
    argv = ["bound", "--config", "m", "--theorem", "even", "--t-grid", "-1:1:3",
            "--out", "-h"]
    assert oracle_parse(argv) is None
    args = parse_args(argv)
    assert args.t_grid == grid_points(-1.0, 1.0, 3) and args.out == "-h"
    # argparse dropped "--" from a value and gave a list
    argv = ["simulate", "--config", "c", "--out=--"]
    assert oracle_parse(argv)["out"] == [] and parse_args(argv).out == "--"


@pytest.mark.parametrize("argv", [
    [flag, *where] for flag in ("-h", "--help") for where in
    ([], ["verify"], ["bound"], ["simulate"], ["example45"])
] + [
    [command, flag] for flag in ("-h", "--help", "--he")
    for command in ("verify", "bound", "simulate", "example45")
] + [["bound", "--config", "m", "-h"], ["verify", "--cases", "3", "--help"]])
def test_help_prints_usage_to_stdout_and_exits_0(argv, capsys):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == USAGE and captured.err == ""


def test_usage_names_every_command_option_and_choice():
    assert list(_COMMAND_OPTIONS) == list(cli._OPTIONS)
    for command, table in cli._OPTIONS.items():
        assert list(table) == _COMMAND_OPTIONS[command]
        assert f"\n  {command}" in USAGE
        assert all(name in USAGE for name in table)
    assert all(choice in USAGE for choice in (*SUITE_NAMES, *THEOREMS[1:]))


_BOUND = ["bound", "--config", "{config}", "--theorem", "even",
          "--t-grid", "0:26:14", "--out", "{out}"]
_SIMULATE = ["simulate", "--config", "{config}", "--out", "{out}"]


@pytest.mark.parametrize("argv, option", [
    pytest.param(_BOUND[:3] + _BOUND[5:], "--theorem", id="missing"),
    pytest.param(_BOUND + ["--bogus", "1"], "--bogus", id="unknown"),
    pytest.param(_SIMULATE + ["--theorem=even"], "--theorem=even", id="other-command"),
    pytest.param(_BOUND[:3] + ["--t", "even"] + _BOUND[5:], "--t", id="ambiguous"),
    pytest.param(_BOUND[:5] + _BOUND[7:] + ["--t-grid"], "--t-grid", id="no-value"),
    pytest.param(_SIMULATE[:1] + _SIMULATE[3:] + ["--config"], "--config",
                 id="no-value-simulate"),
    pytest.param(_BOUND + ["extra"], "extra", id="stray"),
    pytest.param(_SIMULATE[:3] + ["extra"] + _SIMULATE[3:], "extra", id="stray-simulate"),
])
def test_usage_error_exits_2_naming_the_option(tmp_path, capsys, argv, option):
    demo = TestShippedDemos.demo_dir
    config = demo / ("model_even.json" if argv[0] == "bound" else "experiment_even.json")
    out = tmp_path / "out.csv"
    argv = [a.format(config=config, out=out) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    usage, error = captured.err.splitlines()
    assert usage == USAGE.splitlines()[0]
    assert error.startswith(f"error: {argv[0]}: {option}: ")


def test_main_without_argv_runs_the_command_sys_argv_names(tmp_path, capsys, monkeypatch):
    even = str(TestShippedDemos.demo_dir / "model_even.json")
    argv = ["bound", "--config", even, "--theorem", "even", "--t-grid", "0:26:14",
            "--out", str(tmp_path / "a.csv")]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    argv[-1] = str(tmp_path / "b.csv")
    monkeypatch.setattr(sys, "argv", ["einbern", *argv])
    assert main() == 0
    assert capsys.readouterr().out == expected
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def small_experiment_doc():
    return {
        "schema": 1,
        "model": {
            "law": "rademacher",
            "components": [
                {"shape": [2, 2], "entries": [[1, 1, 1.0], [2, 2, -1.0]]},
                {"shape": [2, 2], "entries": [[1, 2, 0.5], [2, 1, 0.5]]},
            ],
        },
        "trials": 100,
        "t_grid": [0.0, 1.0, 2.0],
        "seed": 0,
    }


def test_small_experiment_passes(tmp_path):
    # the base of the non-finite property below: valid, and all verdicts pass
    config = write_json(tmp_path / "exp.json", small_experiment_doc())
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "x.csv")]) == 0


@given(
    where=st.sampled_from(["component", "grid", "slack"]),
    index=st.integers(min_value=0, max_value=5),
    value=st.sampled_from([math.nan, math.inf, -math.inf]),
)
@settings(max_examples=40, deadline=None)
def test_no_non_finite_input_passes(where, index, value):
    doc = small_experiment_doc()
    if where == "component":
        comp = doc["model"]["components"][index % 2]
        comp["entries"][index // 2 % 2][-1] = value
    elif where == "grid":
        doc["t_grid"][index % 3] = value
    else:
        doc["confidence_slack"] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = write_json(Path(tmp) / "exp.json", doc)
        out = Path(tmp) / "x.csv"
        assert main(["simulate", "--config", config, "--out", str(out)]) != 0
        rows = out.read_text().splitlines()[1:] if out.exists() else []
        assert not any(row.endswith(",pass") for row in rows)


def field_test_doc():
    """A valid small experiment with a generated, subsampled model."""
    doc = small_experiment_doc()
    doc["model"] = {"law": "subsample", "sample_size": 3,
                    "generate": {"count": 4, "order": 2, "dim": 2, "seed": 0}}
    doc["confidence_slack"] = 3.0
    return doc


def test_with_replacement_true_is_accepted(tmp_path):
    # an archived document key; drawing with replacement is the only law
    doc = field_test_doc()
    doc["model"]["with_replacement"] = True
    config = write_json(tmp_path / "exp.json", doc)
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "x.csv")]) == 0


def inline_model(component):
    return {"law": "rademacher", "components": [component]}


def test_field_test_doc_is_valid(tmp_path):
    config = write_json(tmp_path / "exp.json", field_test_doc())
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "x.csv")]) == 0


@pytest.mark.parametrize(
    "path, value",
    [
        (["confidence_slack"], "abc"),
        (["confidence_slack"], True),
        (["model", "generate", "scale"], "abc"),
        (["model", "generate", "scale"], 10**400),
        (["model", "generate", "scale"], -1.0),
        (["model", "generate", "scale"], 1e308),
        (["model", "generate", "seed"], -1),
        (["t_grid"], ["a", 1.0]),
        (["t_grid"], {"start": "x", "stop": 1.0, "num": 3}),
        (["t_grid"], {"start": 0.0, "stop": 1.0, "num": 10**13}),
        (["trials"], 10**13),
        (["model", "sample_size"], 10**13),
        (["model", "sample_size"], 0),
        (["model", "with_replacement"], False),
        (["model", "with_replacement"], "yes"),
        (["model"], inline_model({"shape": [2, 2], "entries": 5})),
        (["model"], inline_model({"shape": [2, 2], "entries": [5]})),
        (["model"], inline_model({"shape": 5, "entries": []})),
        (["model"], inline_model({"file": 5})),
        # 2**25 entries: twice the budget
        (["model"], {"law": "rademacher",
                     "generate": {"count": 1, "order": 25, "dim": 2, "seed": 0,
                                  "kind": "fully_symmetric"}}),
    ],
    ids=["slack-string", "slack-bool", "scale-string", "scale-beyond-float",
         "scale-negative", "scale-range-overflows",
         "negative-generate-seed",
         "grid-string", "grid-start-string", "grid-num-oversized",
         "trials-oversized", "sample-size-oversized", "sample-size-zero",
         "without-replacement", "with-replacement-string",
         "entries-number", "entry-number", "shape-number", "file-number",
         "fully-symmetric-over-budget"],
)
def test_bad_config_fields_exit_2(tmp_path, capsys, path, value):
    doc = field_test_doc()
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    config = write_json(tmp_path / "exp.json", doc)
    assert main(["simulate", "--config", config,
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "splice", ["9" * 5000, "[" * 100000 + "]" * 100000],
    ids=["integer-past-digit-limit", "nesting-past-recursion-limit"],
)
def test_unreadable_json_value_exits_2(tmp_path, capsys, splice):
    # json.dumps refuses an int past the 4300-digit conversion limit and
    # nesting past the recursion limit, so the value is spliced into the
    # document text
    doc = field_test_doc()
    doc["model"]["generate"]["seed"] = "SEED"
    text = json.dumps(doc).replace('"SEED"', splice)
    config = tmp_path / "exp.json"
    config.write_text(text, encoding="utf-8")
    assert main(["simulate", "--config", str(config),
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_oversized_grid_spec_exits_2(tmp_path, capsys):
    config = write_json(tmp_path / "model.json", even_model_doc())
    assert main(["bound", "--config", config, "--theorem", "even",
                 "--t-grid", "0:1:10000000000000",
                 "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "at most" in err and "Traceback" not in err


# The exit-code contract over generated inputs (ROADMAP item 6): each case
# is a valid document or command line with one field or token mutated.
# Sizes stay small: K <= 3, order <= 3, d <= 3 and 100 trials.
CONTRACT_MODEL = {"schema": 1, "law": "rademacher",
                  "generate": {"count": 3, "order": 3, "dim": 2, "seed": 3,
                               "kind": "general", "scale": 1.0}}
CONTRACT_DOCS = (
    ("bound", CONTRACT_MODEL),
    ("bound", {"schema": 1, "law": "subsample", "sample_size": 3, "with_replacement": True,
               "components": [{"shape": [2, 2], "entries": [[1, 1, 1.0], [2, 2, -1.0]]},
                              {"shape": [2, 2], "entries": [[1, 2, 0.5], [2, 1, 0.5]]}]}),
    ("simulate", {"schema": 1,
                  "model": {"law": "rademacher",
                            "generate": {"count": 2, "order": 2, "dim": 2, "seed": 0,
                                         "kind": "e_symmetric"}},
                  "trials": 100, "t_grid": {"start": 0.0, "stop": 4.0, "num": 5},
                  "seed": 0, "confidence_slack": 3.0, "theorem": "auto"}),
    ("simulate", {**small_experiment_doc(), "theorem": "even"}),
)
BIG_INT = "@big-int@"  # an integer past the 4300-digit limit, spliced as text
HOSTILE_VALUES = [
    None, True, False, "", "abc", [], [[]], [1, [2]], {}, {"a": 1},
    math.nan, math.inf, -math.inf, BIG_INT, 2**24 + 1, 2**25, 10**30, -(10**30),
    1e154, 8.9e307, 1.7e308, -1.7e308, 1e-310, -1, -5, 0, 1, 2, 3, 0.5, 2.5,
    [2.0, 1.0], [0.0, 1.7e308, -1.7e308], [math.nan], [1e-310, 8.9e307],
    {"start": -1.7e308, "stop": 1.7e308, "num": 3},
    {"start": 0.0, "stop": 1.0, "num": 2**24 + 1}, {"start": 1.0, "stop": 0.0, "num": 3},
    "even", "general", "intrinsic", "auto", "subsample", "e_symmetric",
    "fully_symmetric", {"file": "missing.txt"}, {"shape": [2, 2], "entries": []},
]
# MODEL, EXPERIMENT and OUT stand for paths in the case's directory
CONTRACT_ARGVS = (
    ("bound", "--config", "MODEL", "--theorem", "general", "--t-grid", "0:4:5", "--out", "OUT"),
    ("bound", "--config", "MODEL", "--theorem", "intrinsic", "--t-grid", "0:4:5",
     "--out", "OUT"),
    ("simulate", "--config", "EXPERIMENT", "--out", "OUT"),
    ("verify", "--suite", "algebra", "--cases", "1"),
    ("example45",),
)
# no valid count: `verify --cases` has no upper bound, so a large one runs for hours
HOSTILE_TOKENS = [
    "", "abc", "-", "--", "-h", "--help", "--help=1", "--out", "--conf", "--t", "=",
    "--config=", "--theorem=even", "-1", "0", "1.5", "nan", "inf", "1e400", "9" * 5000,
    "0:4", "0:4:5:6", "0:4:0", "4:0:5", "0:1:16777217", "0:inf:3", "nan:1:3",
    "-1.7e308:1.7e308:3", "1e-310:1e-300:3", "0:8.9e307:2", "even", "intrinsic",
    "general", "all", "spectral", "\u00fc", "missing.json",
]


def json_nodes(doc, path=()):
    """The path of every value inside a JSON document, the root excluded."""
    items = (doc.items() if isinstance(doc, dict) else
             enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from json_nodes(value, path + (key,))


def json_text(value) -> str:
    return json.dumps(value).replace(f'"{BIG_INT}"', "1" + "0" * 4301)


@st.composite
def mutated_documents(draw):
    """(command, document text): one of CONTRACT_DOCS with one value
    replaced or deleted, an unknown key added beside it, or its key
    repeated before itself with another value."""
    command, doc = draw(st.sampled_from(CONTRACT_DOCS))
    doc = json.loads(json.dumps(doc))
    path = draw(st.sampled_from(list(json_nodes(doc))))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    value = draw(st.sampled_from(HOSTILE_VALUES))
    mutation = draw(st.sampled_from(("replace", "delete", "add", "repeat")))
    if mutation == "replace":
        parent[path[-1]] = value
    elif mutation == "delete":
        del parent[path[-1]]
    elif mutation == "add" and isinstance(parent, dict):
        parent["unknown"] = value
    text = json_text(doc)
    if mutation == "repeat" and isinstance(path[-1], str):
        key = json.dumps(path[-1])
        text = text.replace(f"{key}: ", f"{key}: {json_text(value)}, {key}: ", 1)
    return command, text


@st.composite
def mutated_argvs(draw):
    """One of CONTRACT_ARGVS with one token replaced, deleted, inserted or
    repeated."""
    argv = list(draw(st.sampled_from(CONTRACT_ARGVS)))
    at = draw(st.integers(0, len(argv)))
    token = draw(st.sampled_from(HOSTILE_TOKENS))
    mutation = draw(st.sampled_from(("replace", "delete", "insert", "repeat")))
    if mutation == "insert" or at == len(argv):
        argv.insert(at, token)
    elif mutation == "replace":
        argv[at] = token
    elif mutation == "delete":
        del argv[at]
    else:
        argv.insert(at, argv[at])
    return argv


def check_exit_code_contract(argv, workdir):
    """Run ``main(argv)`` in the empty ``workdir``: its code is 0-4 and no
    warning escapes; a code of 2-4 leaves stdout and ``workdir`` empty and
    one ``error:`` line on stderr (after the usage line for a usage error);
    a ``bound`` or ``simulate`` run that returns 0 or 1 leaves its CSV,
    whose verdicts stdout counts."""
    stdout, stderr = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv)
    finally:
        os.chdir(cwd)
    out, err = stdout.getvalue(), stderr.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert code in (0, 1, 2, 3, 4)
    try:
        args = parse_args(argv)
    except UsageError:
        args = None
    if code >= 2:
        lines = err.splitlines()
        if lines and lines[0] == USAGE.splitlines()[0]:
            assert args is None and code == 2
            lines = lines[1:]
        assert out == "" and len(lines) == 1 and lines[0].startswith("error: ")
        assert os.listdir(workdir) == []
    elif args is not None and args.command in ("bound", "simulate"):
        rows = Path(workdir, args.out).read_text(encoding="ascii").splitlines()
        assert "error:" not in err
        if args.command == "simulate":
            verdicts = [row.rsplit(",", 1)[1] for row in rows[1:]]
            passed = verdicts.count("pass")
            assert out.endswith(f"\ntail_verdicts={passed}/{len(verdicts)} pass\n")
            assert (code == 0) == (passed == len(verdicts)
                                   and "expectation_verdict=fail" not in out)
        else:
            assert rows[0] == "t,bound_raw,bound_clamped" and code == 0


@given(case=st.one_of(mutated_documents(), mutated_argvs()),
       theorem=st.sampled_from(THEOREMS[1:]))
@example(case=list(CONTRACT_ARGVS[1][:-1]) + [""], theorem="even")
@settings(derandomize=True, max_examples=1000, deadline=None)
def test_cli_keeps_the_exit_code_contract_on_mutated_inputs(case, theorem):
    # the example: an intrinsic `bound` whose --out cannot be written used
    # to print its dropped-points warning before the error line
    with tempfile.TemporaryDirectory() as workdir:
        paths = {"MODEL": os.path.join(workdir, "model.json"),
                 "EXPERIMENT": os.path.join(workdir, "experiment.json"),
                 "OUT": os.path.join(workdir, "out", "result.csv")}
        os.mkdir(os.path.join(workdir, "out"))
        write_json(Path(paths["MODEL"]), CONTRACT_DOCS[0][1])
        write_json(Path(paths["EXPERIMENT"]), CONTRACT_DOCS[2][1])
        if isinstance(case, tuple):
            command, text = case
            config = paths["MODEL" if command == "bound" else "EXPERIMENT"]
            Path(config).write_text(text, encoding="utf-8")
            argv = [command, "--config", config, "--out", paths["OUT"]]
            if command == "bound":
                argv += ["--theorem", theorem, "--t-grid", "0:4:5"]
        else:
            argv = [paths.get(token, token) for token in case]
        check_exit_code_contract(argv, os.path.join(workdir, "out"))
