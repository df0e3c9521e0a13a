"""Sampling, experiment harness, determinism, and statistic choices."""

import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from einbern import (
    DomainError,
    EinbernError,
    ExperimentConfig,
    ModelError,
    NumericalError,
    Subsample,
    SumModel,
    SymmetryError,
    Tensor,
    build_report,
    e_eigenvalues,
    format_results_csv,
    gen_spectral_norm,
    identity_tensor,
    matricize,
    matricize_general,
    random_e_symmetric,
    random_tensor,
    run_experiment,
    transpose_even,
    variance_general,
)
from einbern import (
    experiment_from_dict, load_experiment, model_from_dict, montecarlo, streams
)
from einbern.bounds import statistic
from oracles import sample_sum, trial_rng


def small_even_model(count=8, seed=0):
    rng = np.random.default_rng(seed)
    return SumModel.rademacher([random_e_symmetric(rng, 2, 2) for _ in range(count)])


class TestSampleSum:
    def test_single_component_signs(self):
        a = identity_tensor(1, 2)
        model = SumModel.rademacher([a])
        seen = set()
        for k in range(64):
            y = sample_sum(model, trial_rng(3, k))
            assert y.allclose(a, 1e-15) or y.allclose(-1.0 * a, 1e-15)
            seen.add(float(y.data[0]))
        assert seen == {1.0, -1.0}

    def test_identical_population_always_zero(self):
        rng = np.random.default_rng(1)
        b = random_tensor(rng, (2, 2))
        model = SumModel.subsample([b, b, b], 2)
        for k in range(20):
            y = sample_sum(model, trial_rng(0, k))
            assert np.abs(y.data).max() <= 1e-14

    def test_mean_is_zero_by_clt(self):
        rng = np.random.default_rng(2)
        comps = [random_e_symmetric(rng, 1, 2) for _ in range(5)]
        model = SumModel.rademacher(comps)
        trials = 100_000
        draws = streams.TrialDraws(11, *model.law.draws(5))
        acc = np.zeros(4)
        acc_sq = np.zeros(4)
        for start in range(0, trials, 256):
            picks = draws.block(start, min(start + 256, trials))
            ys = model.law.rows(picks, 5) @ model.stack
            acc += ys.sum(axis=0)
            acc_sq += (ys**2).sum(axis=0)
        mean = acc / trials
        std = np.sqrt(np.maximum(acc_sq / trials - mean**2, 0.0))
        sigma_mean = std / math.sqrt(trials)
        assert np.all(np.abs(mean) <= 4.0 * sigma_mean + 1e-12)

    def test_subsample_scaling(self):
        rng = np.random.default_rng(3)
        pop = [random_tensor(rng, (2, 2, 2)) for _ in range(5)]
        model = SumModel.subsample(pop, 2)
        y = sample_sum(model, trial_rng(0, 0))
        # every draw is a sum of 2 population members scaled by 5/2
        stacked = np.stack([c.data for c in model.components])
        found = False
        for i in range(5):
            for j in range(5):
                cand = 2.5 * (stacked[i] + stacked[j])
                if np.abs(cand - y.data).max() <= 1e-12:
                    found = True
        assert found

    def test_second_moment_converges(self):
        rng = np.random.default_rng(4)
        comps = [random_tensor(rng, (2, 2, 2)) for _ in range(4)]
        model = SumModel.rademacher(comps)
        exact = matricize(variance_general(model)[0])
        mats = np.stack([matricize_general(c) for c in comps])
        trials = 100_000
        signs = rng.integers(0, 2, size=(trials, 4)) * 2 - 1
        ys = np.einsum("tk,kij->tij", signs.astype(float), mats)
        prods = np.einsum("tij,tkj->tik", ys, ys)
        mean = prods.mean(axis=0)
        sigma = prods.std(axis=0) / math.sqrt(trials)
        assert np.all(np.abs(mean - exact) <= 5.0 * sigma + 1e-12)


class TestExperimentConfig:
    @pytest.mark.parametrize("trials", [99, 100.5, float("inf"), True])
    def test_minimum_trials(self, trials):
        model = small_even_model()
        with pytest.raises(ModelError):
            ExperimentConfig(model=model, trials=trials, t_grid=(0.0, 1.0), seed=0)

    def test_grid_must_ascend(self):
        model = small_even_model()
        with pytest.raises(ModelError):
            ExperimentConfig(model=model, trials=100, t_grid=(1.0, 0.5), seed=0)

    @pytest.mark.parametrize("seed", [-1, True, 1.5, float("inf"), float("nan")])
    def test_negative_seed_rejected(self, seed):
        model = small_even_model()
        with pytest.raises(ModelError):
            ExperimentConfig(model=model, trials=100, t_grid=(0.0,), seed=seed)

    @pytest.mark.parametrize("grid, message", [(5, "t_grid must be iterable, got 5"),
                                               ((), "t_grid must be non-empty")])
    def test_grid_must_be_a_non_empty_iterable(self, grid, message):
        with pytest.raises(ModelError, match=f"^{message}$"):
            ExperimentConfig(model=small_even_model(), trials=100, t_grid=grid, seed=0)

    def test_unknown_theorem(self):
        model = small_even_model()
        with pytest.raises(ModelError):
            ExperimentConfig(
                model=model, trials=100, t_grid=(0.0,), seed=0, theorem="best"
            )


class TestRunExperiment:
    def test_zero_model_all_pass(self):
        model = SumModel.rademacher([Tensor((2, 2), np.zeros(4))])
        config = ExperimentConfig(
            model=model, trials=200, t_grid=(0.5, 1.0, 2.0), seed=1
        )
        result = run_experiment(config)
        assert result.all_passed
        assert result.empirical_mean_max == 0.0
        assert all(row.frequency == 0.0 for row in result.rows)

    def test_even_model_verdicts_pass(self):
        model = small_even_model(count=20, seed=5)
        report = build_report(model, "even")
        tmax = 3.0 * (math.sqrt(report.nu) + report.L)
        config = ExperimentConfig(
            model=model,
            trials=800,
            t_grid=tuple(np.linspace(0.0, tmax, 12)),
            seed=9,
        )
        result = run_experiment(config)
        assert result.statistic == "lambda_e_max"
        assert result.all_passed

    def test_same_seed_same_bytes(self):
        model = small_even_model(count=5, seed=6)
        config = ExperimentConfig(
            model=model, trials=150, t_grid=(0.0, 1.0, 3.0), seed=21
        )
        a = run_experiment(config)
        b = run_experiment(config)
        assert a == b
        assert format_results_csv(a) == format_results_csv(b)

    def test_matrix_statistic_reduction(self):
        # order-2 models: the per-trial statistic is the matrix statistic
        # of the summed matricizations
        rng = np.random.default_rng(8)
        comps = [random_e_symmetric(rng, 1, 3) for _ in range(4)]
        model = SumModel.rademacher(comps)
        config = ExperimentConfig(
            model=model, trials=100, t_grid=(0.0,), seed=31
        )
        result = run_experiment(config)
        stats = []
        for k in range(100):
            y = sample_sum(model, trial_rng(31, k))
            stats.append(float(np.linalg.eigvalsh(matricize(y))[-1]))
        assert result.empirical_mean_max == pytest.approx(
            float(np.mean(stats)), rel=1e-12
        )

    def test_norm_statistic_for_odd_models(self):
        rng = np.random.default_rng(9)
        comps = [random_tensor(rng, (2, 2, 2)) for _ in range(4)]
        model = SumModel.rademacher(comps)
        config = ExperimentConfig(
            model=model, trials=120, t_grid=(0.0, 1.0), seed=32
        )
        result = run_experiment(config)
        assert result.statistic == "gen_spectral_norm"
        y = sample_sum(model, trial_rng(32, 0))
        sigma = float(np.linalg.svd(matricize_general(y), compute_uv=False)[0])
        # recompute the first trial by hand
        stats = []
        for k in range(120):
            yk = sample_sum(model, trial_rng(32, k))
            stats.append(
                float(np.linalg.svd(matricize_general(yk), compute_uv=False)[0])
            )
        assert result.empirical_mean_max == pytest.approx(
            float(np.mean(stats)), rel=1e-10
        )
        assert sigma == pytest.approx(stats[0], rel=1e-12)

    def test_intrinsic_domain_guard(self):
        model = small_even_model(count=5, seed=10)
        report = build_report(model, "intrinsic")
        config = ExperimentConfig(
            model=model,
            trials=100,
            t_grid=(0.0, report.tail_domain_min + 1.0),
            seed=33,
            theorem="intrinsic",
        )
        with pytest.raises(DomainError):
            run_experiment(config)

    def test_tail_counts_at_ties_and_past_either_end(self):
        # each trial's statistic is |sum of five signs|, so 1, 3 or 5:
        # grid points at those values count the trials that reach them,
        # and 0 lies below every statistic and 6 above
        flip = Tensor((2, 2), [1.0, 0.0, 0.0, -1.0])
        config = ExperimentConfig(
            model=SumModel.rademacher([flip] * 5), trials=400,
            t_grid=(0.0, 1.0, 3.0, 5.0, 6.0), seed=3, theorem="even",
        )
        stats = montecarlo._collect_statistics(config, "lambda_max")
        assert set(stats) == {1.0, 3.0, 5.0}
        freqs = [row.frequency for row in run_experiment(config).rows]
        assert freqs == [np.count_nonzero(stats >= t) / 400 for t in config.t_grid]
        assert freqs[0] == 1.0 and freqs[-1] == 0.0

    def test_upper_confidence_clamped(self):
        # frequencies of 1 at t=0 must not push the confidence value
        # above the clamped bound
        model = small_even_model(count=10, seed=11)
        config = ExperimentConfig(model=model, trials=100, t_grid=(0.0,), seed=34)
        result = run_experiment(config)
        row = result.rows[0]
        assert row.upper_confidence <= 1.0
        assert row.passed


class TestCheckExpectation:
    def test_zero_model(self):
        model = SumModel.rademacher([Tensor((2, 2), np.zeros(4))])
        config = ExperimentConfig(model=model, trials=150, t_grid=(0.5,), seed=2)
        check = run_experiment(config).expectation
        assert check.passed and check.bound == 0.0 and check.margin == 0.0

    def test_sign_flipped_identity(self):
        # single component, m = 1, d = 2: the statistic is +-1 with mean 0,
        # far below the bound sqrt(2 ln 2) + ln(2)/3
        model = SumModel.rademacher([identity_tensor(1, 2)])
        config = ExperimentConfig(model=model, trials=400, t_grid=(0.0,), seed=3)
        check = run_experiment(config).expectation
        assert check.bound == pytest.approx(
            math.sqrt(2 * math.log(2)) + math.log(2) / 3, rel=1e-12
        )
        assert check.passed

    def test_even_model_margin(self):
        model = small_even_model(count=20, seed=12)
        config = ExperimentConfig(model=model, trials=500, t_grid=(0.0,), seed=4)
        check = run_experiment(config).expectation
        assert check.passed and check.margin > 0.0

    def test_failed_mean_check_fails_the_run(self):
        # 1000 standard errors lift the trial mean past the mean bound,
        # while the one tail point, t = 0, still passes
        demo = Path(__file__).resolve().parent.parent / "demo" / "experiment_even.json"
        config = dataclasses.replace(
            load_experiment(demo), confidence_slack=1000.0, t_grid=(0.0,)
        )
        result = run_experiment(config)
        assert all(row.passed for row in result.rows)
        assert not result.expectation.passed
        assert not result.all_passed

    def test_intrinsic_has_no_expectation_bound(self):
        model = small_even_model(count=5, seed=13)
        report = build_report(model, "intrinsic")
        config = ExperimentConfig(
            model=model,
            trials=100,
            t_grid=(report.tail_domain_min + 0.5,),
            seed=5,
            theorem="intrinsic",
        )
        result = run_experiment(config)
        assert result.expectation is None
        assert result.all_passed == all(row.passed for row in result.rows)


class TestResultsCsv:
    def test_columns_and_verdicts(self):
        model = small_even_model(count=5, seed=14)
        config = ExperimentConfig(
            model=model, trials=120, t_grid=(0.0, 5.0, 50.0), seed=6
        )
        csv = format_results_csv(run_experiment(config))
        lines = csv.strip().splitlines()
        assert lines[0] == "t,empirical_freq,upper_conf,bound_raw,bound_clamped,verdict"
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 6
            assert cells[5] in ("pass", "fail")


def scalar_statistic(y: Tensor, kind: str) -> float:
    """The per-trial statistic through the scalar spectral path."""
    if kind == "sigma_max":
        return gen_spectral_norm(y)
    values = e_eigenvalues(y)
    if kind == "lambda_max":
        return float(values[0])
    return float(max(values[0], -values[-1]))


class TestBatchedTrials:
    @given(
        kind=st.sampled_from(["lambda_max", "abs_eig", "sigma_max"]),
        law=st.sampled_from(["rademacher", "subsample"]),
        count=st.integers(min_value=1, max_value=7),
        dim=st.integers(min_value=2, max_value=3),
        sample_size=st.integers(min_value=1, max_value=9),
        log_scale=st.integers(min_value=-3, max_value=3),
        trials_at=st.sampled_from(["min", "below", "at", "above", "two"]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_batched_matches_scalar(
        self, kind, law, count, dim, sample_size, log_scale, trials_at, seed
    ):
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        if kind == "sigma_max":
            order = int(rng.choice([1, 3]))
            comps = [random_tensor(rng, (dim,) * order, scale) for _ in range(count)]
        else:
            m = int(rng.integers(1, 3))
            comps = [random_e_symmetric(rng, m, dim, scale) for _ in range(count)]
        if law == "rademacher":
            model = SumModel.rademacher(comps)
        else:
            model = SumModel.subsample(comps, sample_size)
        theorem = "even" if kind == "lambda_max" else "general"
        assert statistic(model, theorem)[1] == kind
        chunk = montecarlo._chunk_size(model)
        trials = {"min": 100, "below": chunk - 1, "at": chunk,
                  "above": chunk + 1, "two": 2 * chunk + 3}[trials_at]
        config = ExperimentConfig(
            model=model, trials=trials, t_grid=(0.0,), seed=seed, theorem=theorem
        )
        batched = montecarlo._collect_statistics(config, kind)
        # relative to the statistic, or to the rounding scale of the sum
        # (the weights' absolute values add up to K) when it cancels
        floor = len(comps) * float(np.abs(model.stack).max())
        for i in range(trials):
            want = scalar_statistic(sample_sum(model, trial_rng(seed, i)), kind)
            assert abs(batched[i] - want) <= 1e-12 * max(abs(want), floor)

    def test_overflowing_sums_raise_numerical_error(self):
        big = Tensor((2, 2), [1e308, 0.0, 0.0, 0.0])
        model = SumModel.rademacher([big, big])
        config = ExperimentConfig(
            model=model, trials=100, t_grid=(0.0,), seed=0, theorem="even"
        )
        # equal signs double an entry past the largest float
        with pytest.raises(NumericalError, match="non-finite"):
            montecarlo._collect_statistics(config, "lambda_max")

    def test_asymmetric_sum_statistic_is_its_symmetric_part(self):
        # each component passes the symmetry check at its own scale, but
        # mixed signs cancel the symmetric part and leave the defect: the
        # model is decided E-symmetric once, and each trial's statistic
        # is that of the symmetric part of its sum
        defect = 4e-13
        skew = Tensor((2, 2), [1.0, -defect, defect, 1.0])
        model = SumModel.rademacher([skew, identity_tensor(1, 2)])
        assert model.is_even_symmetric()
        config = ExperimentConfig(
            model=model, trials=100, t_grid=(0.0,), seed=0, theorem="even"
        )
        batched = montecarlo._collect_statistics(config, "lambda_max")
        floor = 2 * float(np.abs(model.stack).max())
        for i in range(100):
            y = sample_sum(model, trial_rng(0, i))
            want = float(e_eigenvalues((y + transpose_even(y)) / 2)[0])
            assert abs(batched[i] - want) <= 1e-12 * max(abs(want), floor)
        # the per-tensor functions still validate their outside input
        with pytest.raises(SymmetryError):
            for i in range(100):
                e_eigenvalues(sample_sum(model, trial_rng(0, i)))

    def test_chunk_respects_byte_budget(self):
        rng = np.random.default_rng(15)
        model = SumModel.rademacher([random_tensor(rng, (3,) * 8)])
        chunk = montecarlo._chunk_size(model)
        assert 8 * chunk * model.stack.shape[1] <= montecarlo._CHUNK_BYTES
        assert montecarlo._chunk_size(small_even_model()) == montecarlo._CHUNK_TRIALS
        # a subsample's draws per trial count against the budget too
        wide = SumModel.subsample([random_tensor(rng, (2, 2)) for _ in range(3)], 5000)
        assert 8 * montecarlo._chunk_size(wide) * 5000 <= montecarlo._CHUNK_BYTES


def refuse_generators(monkeypatch) -> None:
    """Make every ``numpy.random.default_rng`` call fail."""

    def refused(*args, **kwargs):
        raise AssertionError("a stream was drawn from a numpy generator")

    monkeypatch.setattr(np.random, "default_rng", refused)


class TestBulkDraws:
    def test_rejected_rows_continue_their_own_stream(self, monkeypatch):
        # 2^32 mod k = 2^30 - 1, so Lemire's method redraws about a
        # quarter of the draws; only the law's draws are made, no model
        k = 3 * 2**30 + 1
        law = Subsample(2)
        seed, start, stop = 2019, 5000, 5064
        want = np.stack([trial_rng(seed, i).integers(0, k, size=2)
                         for i in range(start, stop)])
        draws = streams.TrialDraws(seed, *law.draws(k))
        refuse_generators(monkeypatch)
        picks = draws.block(start, stop)
        assert np.array_equal(picks, want)
        # the draws each row's first output would give without a redraw
        trials = np.arange(start, stop, dtype=np.uint32)
        first = streams._outputs(*streams._seeded(draws._seed_words + [trials]), 1)
        plain = (streams._halves(first) * np.uint64(k)) >> np.uint64(32)
        redrawn = (plain != picks).any(axis=1)
        assert 0 < redrawn.sum() < len(redrawn)

    def test_a_run_builds_no_generator(self, monkeypatch):
        model = small_even_model(count=5, seed=16)
        config = ExperimentConfig(
            model=model, trials=300, t_grid=(0.0, 1.0, 2.0, 4.0), seed=24
        )
        want = format_results_csv(run_experiment(config))
        refuse_generators(monkeypatch)
        assert format_results_csv(run_experiment(config)) == want

    def test_wide_subsample_chunks_are_derived(self, monkeypatch):
        # one row of draws fills a block: chunks of one trial, derived
        # like any other chunk
        rng = np.random.default_rng(17)
        size = montecarlo._CHUNK_BYTES // 16 + 1
        model = SumModel.subsample([random_tensor(rng, (2, 2)) for _ in range(3)], size)
        assert montecarlo._chunk_size(model) == 1
        config = ExperimentConfig(
            model=model, trials=100, t_grid=(0.0,), seed=25, theorem="general"
        )
        want = [gen_spectral_norm(sample_sum(model, trial_rng(25, i))) for i in (0, 99)]
        refuse_generators(monkeypatch)
        stats = montecarlo._collect_statistics(config, "sigma_max")
        assert stats[[0, 99]] == pytest.approx(want, rel=1e-12)


@given(
    count=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
    slack=st.floats(min_value=0.0, max_value=40.0),
    extra=st.floats(min_value=0.0, max_value=40.0),
)
@settings(max_examples=40, deadline=None)
def test_verdicts_monotone_in_slack(count, seed, slack, extra):
    # equal rank-one components: the statistic is max(sum of signs, 0),
    # whose upper tail comes close enough to the bound that slacks above
    # about 15 fail some rows
    proj = Tensor((2, 2), [1.0, 0.0, 0.0, 0.0])
    model = SumModel.rademacher([proj] * count)
    grid = tuple(np.linspace(0.5, count, 8))
    rows = []
    for s in (slack, slack + extra):
        config = ExperimentConfig(
            model=model, trials=100, t_grid=grid, seed=seed, confidence_slack=s
        )
        rows.append(run_experiment(config).rows)
    # a row that passes at the larger slack passes at the smaller one
    for loose, tight in zip(*rows):
        assert loose.passed or not tight.passed


# a value of each hostile kind, values either side of the bounds, and numpy scalars
OUTSIDE_VALUES = ["abc", None, True, False, [1], {"a": 1}, math.nan, math.inf,
                  -math.inf, 10**400, -1, 2**25, 0, 3, 100, 200, 2.5, 2**24,
                  np.int64(200), np.int32(3), np.float64(2.5), np.bool_(True)]
SUBSAMPLE_DOC = {"law": "subsample", "sample_size": 3,
                 "generate": {"count": 4, "order": 2, "dim": 2, "seed": 0}}
FIELD_DOC = {"model": SUBSAMPLE_DOC, "trials": 100, "t_grid": [0.0, 1.0], "seed": 0,
             "confidence_slack": 3.0}


def outcome(build):
    """What ``build()`` returns, or the type and message of the EinbernError it
    raises; any other exception fails the test."""
    try:
        return build(), None
    except EinbernError as exc:
        return None, f"{type(exc).__name__}: {exc}"


def through_type(field, value):
    """The library type that holds ``field``, built with ``value`` in it."""
    if field == "sample_size":
        return SumModel((2, 2), np.eye(4)[:3], Subsample(value))
    if field == "shape":
        return SumModel(value, np.eye(4)[:3])
    if field == "stack":
        return SumModel((2, 2), value)
    if field == "stack entry":
        return SumModel((2, 2), [[value, 0.0, 0.0, 0.0]])
    kwargs = {**FIELD_DOC, "model": model_from_dict(SUBSAMPLE_DOC)}
    if field == "t value":
        kwargs["t_grid"] = [value]
    elif field == "t value in an array":
        kwargs["t_grid"] = np.array([value])
    else:
        kwargs[field] = value
    return ExperimentConfig(**kwargs)


def through_document(field, value):
    """The same value at the same place of an experiment or model document."""
    if field == "sample_size":
        return model_from_dict({**SUBSAMPLE_DOC, "sample_size": value})
    if field == "t value":
        field, value = "t_grid", [value]
    return experiment_from_dict({**FIELD_DOC, field: value})


@given(field=st.sampled_from(["trials", "seed", "confidence_slack", "t value",
                              "t value in an array", "sample_size", "model", "shape",
                              "stack", "stack entry"]),
       value=st.sampled_from(OUTSIDE_VALUES))
@example(field="confidence_slack", value="abc")
@example(field="t value", value="a")
@example(field="t value", value=10**400)
@example(field="trials", value=np.int64(200))
@example(field="model", value=None)
@example(field="shape", value=5)
@example(field="stack", value="abc")
@example(field="stack", value=[[1.0, 0.0, 0.0, 0.0], [1.0]])
@example(field="stack entry", value=10**400)
@settings(derandomize=True, max_examples=300, deadline=None)
def test_each_outside_value_is_judged_once_by_its_type(field, value):
    built, error = outcome(lambda: through_type(field, value))
    if field == "model":
        assert error == f"ModelError: model must be a SumModel, got {value!r}"
    if isinstance(value, np.number):
        # a numpy scalar counts as the Python number it equals
        as_python = outcome(lambda: through_type(field, value.item()))[0]
        assert (built is None) == (as_python is None)
    if field == "t value in an array":
        # a numpy array is a grid, as the list of its values is
        as_list = outcome(lambda: through_type("t value", value))[0]
        assert (built is None) == (as_list is None)
    if isinstance(built, SumModel):
        held = built.law.sample_size if field == "sample_size" else built.dim
        assert type(held) is int
    elif built is not None:
        assert (type(built.trials), type(built.seed)) == (int, int)
        assert {type(x) for x in (built.confidence_slack, *built.t_grid)} == {float}
    if field in ("trials", "seed", "confidence_slack", "t value", "sample_size") and (
            not isinstance(value, np.generic)):
        # every JSON value: the document gives what the type gives
        via_doc, doc_error = outcome(lambda: through_document(field, value))
        assert doc_error == error
        assert (via_doc is None) == (built is None)
        if field == "sample_size" and built is not None:
            assert via_doc.law == built.law
        elif built is not None:
            assert dataclasses.replace(via_doc, model=built.model) == built
