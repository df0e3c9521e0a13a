"""Bound formulas, variance statistics, reports, and their guards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from einbern import (
    ApplicabilityError,
    BernsteinReport,
    DomainError,
    ModelError,
    NumericalError,
    Rademacher,
    ShapeError,
    Subsample,
    SumModel,
    SymmetryError,
    Tensor,
    build_report,
    delinearize,
    format_report,
    format_tail_csv,
    gen_product_outer,
    identity_tensor,
    intrinsic_report,
    matricize,
    matricize_general,
    model_from_dict,
    outer_power,
    random_e_symmetric,
    random_tensor,
    resolve_theorem,
    transpose_even,
    uniform_bound_L,
    variance_general,
)
from einbern import bounds, spectral
from einbern.bounds import stack_statistics


class TestSumModel:
    def test_requires_components(self):
        with pytest.raises(ModelError):
            SumModel.rademacher([])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, value):
        bad = Tensor((2, 2), [1.0, 0.0, 0.0, value])
        good = Tensor((2, 2), np.eye(2).ravel())
        with pytest.raises(ModelError, match="non-finite"):
            SumModel.rademacher([good, bad])
        # checked before centering, which would spread it to every row
        with pytest.raises(ModelError, match="in 1 of 2 components, first at index 1"):
            SumModel.subsample([good, bad], 2)

    def test_shape_agreement(self):
        with pytest.raises(ModelError):
            SumModel.rademacher(
                [Tensor((2, 2), np.zeros(4)), Tensor((3, 3), np.zeros(9))]
            )

    def test_rejects_rectangular(self):
        with pytest.raises(ModelError):
            SumModel.rademacher([Tensor((2, 3), np.zeros(6))])

    def test_subsample_centering(self):
        rng = np.random.default_rng(0)
        pop = [random_tensor(rng, (2, 2)) for _ in range(4)]
        model = SumModel.subsample(pop, 3)
        total = sum(c.data for c in model.components)
        assert np.abs(total).max() <= 1e-14
        assert model.num_summands == 3

    def test_every_construction_centers_a_subsample_population(self):
        # the law centers its population, however the model is built
        rng = np.random.default_rng(23)
        pop = [random_tensor(rng, (2, 2, 2)) for _ in range(5)]
        stacked = np.stack([c.data for c in pop])
        want = stacked - stacked.mean(axis=0)
        doc = {"law": "subsample", "sample_size": 3, "components": [
            {"shape": [2, 2, 2],
             "entries": [[*delinearize(i + 1, (2, 2, 2)), float(v)]
                         for i, v in enumerate(c.data)]}
            for c in pop]}
        for model in (SumModel.subsample(pop, 3),
                      SumModel((2, 2, 2), stacked, Subsample(3)),
                      model_from_dict(doc)):
            assert model.stack.tobytes() == want.tobytes()
        # a tiny uncentered population centers to zeros, whatever its scale
        tiny = np.array([[1e-20, 0.0], [1e-20, 0.0]])
        for stack in (tiny, 1e20 * tiny):
            model = SumModel((2,), stack, Subsample(2))
            assert not model.stack.any()
            assert build_report(model, "general").L == 0.0

    def test_unsupported_law_rejected(self):
        comp = identity_tensor(1, 2)
        with pytest.raises(ModelError, match="unsupported randomness law"):
            SumModel(comp.shape, comp.data[None], object())

    @pytest.mark.parametrize("size", [2.5, True, 0, -1])
    def test_sample_size_must_be_a_positive_integer(self, size):
        with pytest.raises(ModelError, match="sample_size"):
            Subsample(size)
        rng = np.random.default_rng(3)
        pop = [random_tensor(rng, (2, 2)) for _ in range(4)]
        with pytest.raises(ModelError, match="sample_size"):
            SumModel.subsample(pop, size)

    def test_numpy_integer_sample_size_accepted(self):
        rng = np.random.default_rng(3)
        pop = [random_tensor(rng, (2, 2)) for _ in range(4)]
        assert SumModel.subsample(pop, np.int64(3)).num_summands == 3

    def test_properties(self):
        rng = np.random.default_rng(1)
        model = SumModel.rademacher([random_tensor(rng, (2, 2, 2)) for _ in range(3)])
        assert (model.order, model.dim, model.split) == (3, 2, 2)
        assert model.num_summands == 3
        assert not model.is_even_symmetric()


    def test_components_are_views_of_one_read_only_stack(self):
        rng = np.random.default_rng(20)
        comps = [random_tensor(rng, (2, 2, 2)) for _ in range(4)]
        model = SumModel.rademacher(comps)
        assert model.stack.shape == (4, 8)
        assert not model.stack.flags.writeable
        for k, c in enumerate(model.components):
            assert c == comps[k]
            assert np.shares_memory(c.data, model.stack)
        with pytest.raises(ValueError):
            model.stack[0, 0] = 1.0

    def test_built_from_shape_and_stack(self):
        stack = np.random.default_rng(21).uniform(-1, 1, size=(3, 8))
        model = SumModel((2, 2, 2), stack)
        assert model.stack is stack and not stack.flags.writeable
        assert model.shape == (2, 2, 2) and model.num_summands == 3
        sub = SumModel((2, 2, 2), stack, Subsample(2)).stack
        assert sub is not stack and not sub.flags.writeable
        assert np.array_equal(sub, stack - stack.mean(axis=0))
        with pytest.raises(ModelError, match="in 1 of 1 components, first at index 0"):
            SumModel((2, 2), np.array([[1.0, 0.0, 0.0, math.nan]]))
        for shape, rows in [((2, 2), np.zeros((1, 3))), ((2, 2), np.zeros((0, 4))),
                            ((2, 2), np.zeros(4))]:
            with pytest.raises(ModelError, match="cannot hold"):
                SumModel(shape, rows)
        with pytest.raises(ModelError, match="Tensor instances"):
            SumModel.rademacher([np.eye(2)])

    def test_stack_given_as_a_view_is_copied(self):
        big = np.random.default_rng(22).uniform(-1, 1, size=(3, 8))
        model = SumModel((2, 2, 2), big[:])
        kept = model.stack.copy()
        big[0, 0] = 5.0
        assert big.flags.writeable and not model.stack.flags.writeable
        assert not np.shares_memory(model.stack, big)
        assert np.array_equal(model.stack, kept)

    def test_overflowing_variance_is_numerical_error(self):
        big = Tensor((2, 2), [1e200, 0.0, 0.0, 0.0])
        model = SumModel.rademacher([big])
        with pytest.raises(NumericalError):
            variance_general(model)
        with pytest.raises(NumericalError):
            build_report(model, "even")


class TestUniformBound:
    def test_single_component_norm(self):
        model = SumModel.rademacher([identity_tensor(1, 2)])
        assert uniform_bound_L(model) == pytest.approx(1.0)

    def test_identical_population_centers_to_zero(self):
        rng = np.random.default_rng(2)
        b = random_e_symmetric(rng, 1, 3)
        model = SumModel.subsample([b, b], 2)
        assert uniform_bound_L(model) == pytest.approx(0.0, abs=1e-14)

    def test_even_kind_is_max_abs_eigenvalue(self):
        rng = np.random.default_rng(3)
        comps = [random_e_symmetric(rng, 2, 2) for _ in range(5)]
        model = SumModel.rademacher(comps)
        oracle = max(
            float(np.abs(np.linalg.eigvalsh(matricize(c))).max()) for c in comps
        )
        assert uniform_bound_L(model, "even") == pytest.approx(oracle, rel=1e-12)

    def test_general_kind_is_max_singular_value(self):
        rng = np.random.default_rng(4)
        comps = [random_tensor(rng, (2, 2, 2)) for _ in range(5)]
        model = SumModel.rademacher(comps)
        oracle = max(
            float(np.linalg.svd(matricize_general(c), compute_uv=False)[0])
            for c in comps
        )
        assert uniform_bound_L(model, "general") == pytest.approx(oracle, rel=1e-12)

    def test_subsample_one_sided_cap(self):
        rng = np.random.default_rng(5)
        pop = [random_e_symmetric(rng, 1, 3) for _ in range(4)]
        model = SumModel.subsample(pop, 2)
        oracle = 2.0 * max(
            float(np.linalg.eigvalsh(matricize(c))[-1]) for c in model.components
        )
        assert uniform_bound_L(model, "even") == pytest.approx(oracle, rel=1e-12)

    def test_even_kind_needs_symmetry(self):
        rng = np.random.default_rng(6)
        model = SumModel.rademacher([random_tensor(rng, (2, 2))])
        with pytest.raises(ApplicabilityError):
            uniform_bound_L(model, "even")


@given(
    theorem=st.sampled_from(["even", "general", "intrinsic"]),
    law=st.sampled_from(["rademacher", "subsample"]),
    # two or more, so that a centered population is not all zero
    count=st.integers(min_value=2, max_value=6),
    dim=st.integers(min_value=2, max_value=3),
    sample_size=st.integers(min_value=1, max_value=9),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_L_is_the_statistic_capped_over_every_realization(
    theorem, law, count, dim, sample_size, seed
):
    # L and the Monte Carlo trials share one owner of the statistic:
    # L is the draw scale times its largest value over the realizable
    # summands, +-X_k under Rademacher and each X_k under subsampling
    rng = np.random.default_rng(seed)
    if theorem == "even" or rng.integers(2):
        m = int(rng.integers(1, 3))
        comps = [random_e_symmetric(rng, m, dim) for _ in range(count)]
    else:
        shape = (dim,) * int(rng.integers(2, 4))
        comps = [random_tensor(rng, shape) for _ in range(count)]
    if law == "rademacher":
        model = SumModel.rademacher(comps)
        realized, scale = np.concatenate([model.stack, -model.stack]), 1.0
    else:
        model = SumModel.subsample(comps, sample_size)
        realized, scale = model.stack, count / sample_size
    kind = "lambda_max" if theorem == "even" else "sigma_max"
    want = max(scale * stack_statistics(model, realized, kind).max(), 0.0)
    got = build_report(model, theorem).L
    assert abs(got - want) <= 1e-12 * want
    assert got == uniform_bound_L(model, "even" if theorem == "even" else "general")


class TestVarianceEven:
    # the even bound's nu is the norm of the general bound's outer Gram sum
    def test_identity_model(self):
        model = SumModel.rademacher([identity_tensor(1, 2)])
        assert build_report(model, "even").nu == pytest.approx(1.0)

    def test_projector_linearity(self):
        x = np.array([0.6, 0.8])
        p = gen_product_outer(outer_power(x, 2), outer_power(x, 2))
        model = SumModel.rademacher([p] * 7)
        assert build_report(model, "even").nu == pytest.approx(7.0, abs=1e-10)

    def test_matches_monte_carlo_second_moment(self):
        rng = np.random.default_rng(7)
        comps = [random_e_symmetric(rng, 1, 3) for _ in range(5)]
        model = SumModel.rademacher(comps)
        nu = build_report(model, "even").nu
        mats = np.stack([matricize(c) for c in comps])
        trials = 100_000
        signs = rng.integers(0, 2, size=(trials, 5)) * 2 - 1
        ys = np.einsum("tk,kij->tij", signs.astype(float), mats)
        second = np.einsum("tij,tjl->il", ys, ys) / trials
        nu_mc = float(np.abs(np.linalg.eigvalsh(second)).max())
        # sampling error at 1e5 trials stays within a few percent
        assert nu == pytest.approx(nu_mc, rel=0.05)

    def test_requires_symmetric_components(self):
        rng = np.random.default_rng(8)
        model = SumModel.rademacher([random_tensor(rng, (2, 2))])
        with pytest.raises(ApplicabilityError):
            build_report(model, "even")

    def test_requires_even_order(self):
        rng = np.random.default_rng(9)
        model = SumModel.rademacher([random_tensor(rng, (2, 2, 2))])
        with pytest.raises(ApplicabilityError):
            build_report(model, "even")

    def test_subsample_scaling(self):
        rng = np.random.default_rng(10)
        pop = [random_e_symmetric(rng, 1, 2) for _ in range(6)]
        model = SumModel.subsample(pop, 3)
        moment, _ = variance_general(model)
        oracle = (6 / 3) * sum(
            matricize(c) @ matricize(c) for c in model.components
        )
        assert np.abs(matricize(moment) - oracle).max() <= 1e-12


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    order=st.sampled_from([2, 4, 6]),
    dim=st.integers(2, 3),
    count=st.integers(1, 8),
    law=st.sampled_from(["rademacher", "subsample"]),
    sample_size=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
def test_every_nu_is_formed_from_one_gram_sum(order, dim, count, law, sample_size,
                                              seed):
    # the even bound's nu is the norm of the general bound's outer Gram
    # sum, to the bit, and the general bound's nu is the general statistic's
    doc = {"law": law, "generate": {"count": count, "order": order, "dim": dim,
                                    "seed": seed, "kind": "e_symmetric"}}
    if law == "subsample":
        doc["sample_size"] = sample_size
    model = model_from_dict(doc)
    outer, inner = variance_general(model)
    norms = spectral.e_spectral_norm(outer), spectral.e_spectral_norm(inner)
    assert build_report(model, "even").nu == norms[0]
    assert build_report(model, "general").nu == max(norms)


class TestVarianceGeneral:
    def test_vectors_outer_inner(self):
        rng = np.random.default_rng(11)
        vecs = [random_tensor(rng, (4,)) for _ in range(5)]
        model = SumModel.rademacher(vecs)
        _, inner = variance_general(model)
        m1 = sum(np.outer(v.data, v.data) for v in vecs)
        inner_total = sum(float(v.data @ v.data) for v in vecs)
        oracle = max(float(np.linalg.eigvalsh(m1)[-1]), inner_total)
        assert build_report(model, "general").nu == pytest.approx(oracle, rel=1e-12)
        assert inner.item() == pytest.approx(inner_total, rel=1e-12)

    def test_coincides_with_even_for_symmetric(self):
        rng = np.random.default_rng(12)
        comps = [random_e_symmetric(rng, 2, 2) for _ in range(4)]
        model = SumModel.rademacher(comps)
        assert build_report(model, "general").nu == pytest.approx(
            build_report(model, "even").nu, rel=1e-12
        )

    def test_matches_matricized_statistics(self):
        rng = np.random.default_rng(13)
        comps = [random_tensor(rng, (2, 2, 2)) for _ in range(5)]
        model = SumModel.rademacher(comps)
        outer, inner = variance_general(model)
        mats = [matricize_general(c) for c in comps]
        m1 = sum(m @ m.T for m in mats)
        m2 = sum(m.T @ m for m in mats)
        assert np.abs(matricize(outer) - m1).max() <= 1e-12 * np.abs(m1).max()
        assert np.abs(matricize(inner) - m2).max() <= 1e-12 * np.abs(m2).max()
        nu_mat = max(
            float(np.abs(np.linalg.eigvalsh(m1)).max()),
            float(np.abs(np.linalg.eigvalsh(m2)).max()),
        )
        assert build_report(model, "general").nu == pytest.approx(nu_mat, rel=1e-12)


def mean_bound(theorem, order, dim, L, nu):
    return BernsteinReport(theorem, order, dim, L, nu).expectation_bound


class TestClosedForms:
    def test_expectation_hand_values(self):
        assert mean_bound("even", 2, 2, 0.0, 1.0) == pytest.approx(
            math.sqrt(2 * math.log(2)), rel=1e-15
        )
        assert mean_bound("even", 2, 2, 0.0, 0.0) == 0.0
        assert mean_bound("even", 4, 2, 1.0, 1.0) == pytest.approx(
            math.sqrt(4 * math.log(2)) + 2 * math.log(2) / 3, rel=1e-15
        )

    def test_expectation_domain(self):
        with pytest.raises(ApplicabilityError, match="needs d >= 2"):
            mean_bound("even", 2, 1, 1.0, 1.0)
        with pytest.raises(DomainError):
            mean_bound("even", 2, 2, 0.0, -1.0)

    def test_general_expectation_hand_values(self):
        assert mean_bound("general", 3, 2, 1.0, 1.0) == pytest.approx(
            math.sqrt(2 * math.log(6)) + math.log(6) / 3, rel=1e-15
        )
        # smallest case: order 1, dim 1 gives a log 2 factor
        assert mean_bound("general", 1, 1, 1.0, 1.0) == pytest.approx(
            math.sqrt(2 * math.log(2)) + math.log(2) / 3, rel=1e-15
        )

    def test_even_mean_uses_m_log_d(self):
        # m log d and log(d**m) differ in the last bit at (m, d) = (5, 3),
        # and so do the two mean bounds at these L and nu
        L, nu = 2.5, 25.0
        mlogd = 5 * math.log(3)
        assert BernsteinReport("even", 10, 3, L, nu).expectation_bound == (
            math.sqrt(2.0 * nu * mlogd) + L * mlogd / 3.0
        )

    def test_tail_hand_values(self):
        # general N=1, d=1 has D = 2; general N=2, d=2 has D = 4
        raw, clamped = BernsteinReport("general", 1, 1, 0.0, 1.0).tail(2.0)
        assert raw == pytest.approx(2 * math.exp(-2), rel=1e-15)
        assert clamped == raw
        raw0, clamped0 = BernsteinReport("general", 2, 2, 1.0, 1.0).tail(0.0)
        assert (raw0, clamped0) == (4.0, 1.0)
        assert BernsteinReport("general", 2, 2, 0.0, 0.0).tail(1.5) == (0.0, 0.0)

    def test_tail_domain(self):
        # below the threshold, then negative but inside its 1e-12 of slack
        report = BernsteinReport("general", 2, 2, 1.0, 1.0)
        with pytest.raises(DomainError,
                           match="^t=-0.1 is below the bound's validity threshold 0.0$"):
            report.tail(-0.1)
        with pytest.raises(DomainError, match="^t must be nonnegative, got -1e-13$"):
            report.tail(-1e-13)

    @pytest.mark.parametrize("args", [
        # (theorem, N, d, L, nu, dv, t): a non-finite t is refused before
        # the validity threshold is applied
        ("general", 2, 2, 1.0, 1.0, None, math.nan),
        ("general", 2, 2, 1.0, 1.0, None, math.inf),
        ("general", 2, 2, 1.0, 1.0, None, -math.inf),
        ("intrinsic", 3, 2, 1.0, 1.0, 3.0, math.nan),
    ])
    def test_tail_rejects_non_finite(self, args):
        *fields, t = args
        with pytest.raises(DomainError, match=f"^t must be finite, got {t}$"):
            BernsteinReport(*fields).tail(t)

    def test_tail_monotonicity(self):
        def raw(t, nu, L):
            return BernsteinReport("general", 2, 2, L, nu).tail(t).raw

        ts = np.linspace(0, 6, 31)
        raws = [raw(float(t), 1.0, 0.5) for t in ts]
        assert all(b < a for a, b in zip(raws, raws[1:]))
        by_nu = [raw(1.0, nu, 0.5) for nu in (0.1, 0.5, 1.0, 2.0)]
        by_l = [raw(1.0, 0.5, L) for L in (0.0, 0.5, 1.0, 2.0)]
        assert all(b > a for a, b in zip(by_nu, by_nu[1:]))
        assert all(b > a for a, b in zip(by_l, by_l[1:]))

    def test_tail_where_t_squared_or_denominator_overflows(self):
        # L = 7e153 and nu = 4.9e307: t^2 overflows from t = 1.35e154
        # on, and nu + L t / 3 from about 2.2e154; an intrinsic report
        # with dv = 2.25 has tail factor 9 and no mean bound to overflow
        nu, L = 7e153**2, 7e153
        report = BernsteinReport("intrinsic", 3, 2, L, nu, 2.25)
        for t, want in [(1e154, 4.508571387013774), (2e154, 1.1125250401905946),
                        (3e154, 0.20509376222406822)]:
            assert report.tail(t).raw == pytest.approx(want, rel=1e-12)
        # general N=2, d=2 has tail factor 4
        grid = np.linspace(0.0, 1.7e308, 1001)
        for nu, L in [(7e153**2, 7e153), (46.9, 1.96), (1.0, 0.0), (0.0, 1.0)]:
            report = BernsteinReport("general", 2, 2, L, nu)
            raws = [report.tail(float(t)).raw for t in grid]
            assert not any(math.isnan(r) for r in raws)
            assert all(b <= a for a, b in zip(raws, raws[1:]))
        # nu = 0 and nu + L t / 3 underflows to zero: t/2 / (L/3) = 15
        report = BernsteinReport("general", 2, 2, 1e-170, 0.0)
        assert report.tail(1e-169).raw == pytest.approx(4 * math.exp(-15), rel=1e-12)
        # nu / t underflows to zero: the exponent is infinite
        assert BernsteinReport("general", 2, 2, 0.0, 1e-320).tail(1e200).raw == 0.0

    def test_matrix_factor_reduction(self):
        # for order 2 the general factor d**m + d**(N-m) is 2d
        rng = np.random.default_rng(14)
        model = SumModel.rademacher([random_tensor(rng, (3, 3))])
        report = build_report(model, "general")
        assert report.dim_factor == 6.0


class TestIntrinsicReport:
    def test_identity_variances(self):
        v = identity_tensor(2, 2)
        report = intrinsic_report(v, v, 1.0)
        assert report.nu == pytest.approx(1.0)
        assert report.dv == pytest.approx(8.0)
        assert report.tail_domain_min == pytest.approx(1.0 + 1.0 / 3.0)

    def test_rank_one_projector_dv_two(self):
        x = np.array([0.6, 0.8])
        p = gen_product_outer(outer_power(x, 2), outer_power(x, 2))
        report = intrinsic_report(p, p, 0.0)
        assert report.dv == pytest.approx(2.0, abs=1e-10)

    def test_exact_statistics_bounded_by_ambient(self):
        rng = np.random.default_rng(15)
        comps = [random_tensor(rng, (2, 2, 2)) for _ in range(5)]
        model = SumModel.rademacher(comps)
        report = build_report(model, "intrinsic")
        assert report.dv <= 2**2 + 2**1
        general = build_report(model, "general")
        t = report.tail_domain_min + 1.0
        lhs = report.tail(t).raw * general.dim_factor
        rhs = general.tail(t).raw * report.tail_factor
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_block_matrix_cross_check(self):
        rng = np.random.default_rng(16)
        comps = [random_tensor(rng, (3, 3, 3)) for _ in range(4)]
        model = SumModel.rademacher(comps)
        outer, inner = variance_general(model)
        report = intrinsic_report(outer, inner, 1.0)
        fo = matricize(outer).T
        fi = matricize(inner)
        block = np.zeros((fo.shape[0] + fi.shape[0],) * 2)
        block[: fo.shape[0], : fo.shape[1]] = fo
        block[fo.shape[0] :, fo.shape[1] :] = fi
        dv_oracle = float(np.trace(block) / np.abs(np.linalg.eigvalsh(block)).max())
        assert report.dv == pytest.approx(dv_oracle, rel=1e-12)

    def test_domain_enforced(self):
        v = identity_tensor(2, 2)
        report = intrinsic_report(v, v, 1.0)
        with pytest.raises(DomainError):
            report.tail(report.tail_domain_min - 0.5)

    def test_rejects_indefinite_variance(self):
        rng = np.random.default_rng(17)
        a = random_e_symmetric(rng, 2, 2)  # indefinite almost surely
        v = identity_tensor(2, 2)
        with pytest.raises(DomainError):
            intrinsic_report(a, v, 1.0)

    def test_dominance_check(self):
        v = identity_tensor(2, 2)
        exact = 2.0 * identity_tensor(2, 2)
        with pytest.raises(DomainError):
            intrinsic_report(v, v, 1.0, exact_outer=exact)
        # equality passes
        intrinsic_report(v, v, 1.0, exact_outer=v, exact_inner=v)

    def test_zero_variance_rejected(self):
        z = Tensor((2, 2), np.zeros(4))
        with pytest.raises(ApplicabilityError):
            intrinsic_report(z, z, 0.0)

    @pytest.mark.parametrize("outer, inner", [
        (identity_tensor(1, 2), 0.5 * identity_tensor(1, 3)),
        (0.5 * identity_tensor(1, 3), identity_tensor(1, 2)),
        (identity_tensor(1, 2), identity_tensor(2, 2)),
    ], ids=["dims-2-and-3", "dims-3-and-2", "outer-order-below-inner"])
    def test_sides_of_no_one_sum_are_refused(self, outer, inner):
        # these were reported as dim=2 with dim_factor 4, as dim=3 with
        # dim_factor 6, and as N=3, whose outer Gram has order 4, not 2
        with pytest.raises(ShapeError, match=r"^variance bounds of shapes \(.*\) and "
                           r"\(.*\) do not come from one cubic order-N sum$"):
            intrinsic_report(outer, inner, 1.0)

    def test_sides_of_orders_2m_and_2n_minus_2m(self):
        # N = 3 has m = 2; N = 1 has an order-0 inner side with no mode size
        assert intrinsic_report(identity_tensor(2, 2), identity_tensor(1, 2), 1.0).order == 3
        report = intrinsic_report(identity_tensor(1, 3), Tensor((), [1.0]), 1.0)
        assert (report.order, report.dim, report.dv) == (1, 3, 4.0)


class TestReports:
    def test_resolve_theorem(self):
        rng = np.random.default_rng(18)
        even_model = SumModel.rademacher([random_e_symmetric(rng, 2, 2)])
        odd_model = SumModel.rademacher([random_tensor(rng, (2, 2, 2))])
        assert resolve_theorem(even_model) == "even"
        assert resolve_theorem(odd_model) == "general"
        # the even-order mean bound needs d >= 2
        dim_one = SumModel.rademacher([identity_tensor(1, 1)])
        assert resolve_theorem(dim_one) == "general"
        with pytest.raises(ApplicabilityError):
            resolve_theorem(odd_model, "even")
        with pytest.raises(DomainError):
            resolve_theorem(even_model, "sharpest")

    def test_matrix_case_reduction_full(self):
        rng = np.random.default_rng(19)
        comps = [random_tensor(rng, (3, 3)) for _ in range(5)]
        model = SumModel.rademacher(comps)
        report = build_report(model, "general")
        mats = [matricize_general(c) for c in comps]
        l_mat = max(float(np.linalg.svd(m, compute_uv=False)[0]) for m in mats)
        m1 = sum(m @ m.T for m in mats)
        m2 = sum(m.T @ m for m in mats)
        nu_mat = max(
            float(np.linalg.eigvalsh(m1)[-1]), float(np.linalg.eigvalsh(m2)[-1])
        )
        assert report.L == pytest.approx(l_mat, rel=1e-12)
        assert report.nu == pytest.approx(nu_mat, rel=1e-12)
        assert report.dim_factor == 6.0
        for t in (0.0, 1.0, 2.5):
            want = 6.0 * math.exp(-(t * t) / 2 / (nu_mat + l_mat * t / 3)) if t else 6.0
            assert report.tail(t).raw == pytest.approx(want, rel=1e-12)
        assert report.expectation_bound == pytest.approx(
            math.sqrt(2 * nu_mat * math.log(6)) + l_mat * math.log(6) / 3,
            rel=1e-12,
        )

    def test_even_report_on_matrices_uses_factor_d(self):
        rng = np.random.default_rng(20)
        comps = [random_e_symmetric(rng, 1, 3) for _ in range(4)]
        report = build_report(SumModel.rademacher(comps), "even")
        assert report.dim_factor == 3.0
        mats = [matricize(c) for c in comps]
        nu_mat = float(np.abs(np.linalg.eigvalsh(sum(m @ m for m in mats))).max())
        assert report.nu == pytest.approx(nu_mat, rel=1e-12)

    def test_serialization(self):
        model = SumModel.rademacher([identity_tensor(1, 2)])
        report = build_report(model, "even")
        text = format_report(report)
        entries = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert entries["theorem"] == "even"
        assert float(entries["nu"]) == 1.0
        assert float(entries["L"]) == 1.0
        csv = format_tail_csv(report, [0.0, 1.0, 2.0])
        lines = csv.strip().splitlines()
        assert lines[0] == "t,bound_raw,bound_clamped"
        assert len(lines) == 4

    @pytest.mark.parametrize("theorem, solves", [
        ("even", 1),  # the summed Einstein square
        ("general", 2),  # the outer and inner variance statistics
        ("intrinsic", 3),  # the same two, and the block matrix
    ])
    def test_each_variance_matrix_is_solved_once(self, monkeypatch, theorem, solves):
        calls = []
        real = spectral.sym_eig

        def counted(mat):
            calls.append(mat)
            return real(mat)

        for module in (spectral, bounds):
            monkeypatch.setattr(module, "sym_eig", counted)
        rng = np.random.default_rng(21)
        model = SumModel.rademacher([random_e_symmetric(rng, 2, 2) for _ in range(6)])
        build_report(model, theorem)
        assert len(calls) == solves

    def test_even_report_rejects_dim_one(self):
        model = SumModel.rademacher([identity_tensor(1, 1)])
        with pytest.raises(ApplicabilityError):
            build_report(model, "even")


class TestDerivedReportFields:
    # (theorem, N, d, m, L, nu, dv) -> dim_factor, tail_factor, mean, domain;
    # m is the split the report derives, not an input
    @pytest.mark.parametrize(
        "theorem, order, dim, split, L, nu, dv",
        [
            ("even", 4, 3, 2, 1.5, 7.0, None),
            ("even", 2, 2, 1, 0.0, 0.0, None),
            ("general", 3, 2, 2, 2.5, 25.0, None),
            ("general", 5, 3, 3, 0.25, 1.0, None),
            ("intrinsic", 3, 2, 2, 2.5, 25.0, 3.7),
            ("intrinsic", 4, 3, 2, 1.0, 4.0, 18.0),
        ],
    )
    def test_closed_forms(self, theorem, order, dim, split, L, nu, dv):
        report = BernsteinReport(theorem, order, dim, L, nu, dv)
        assert report.split == split == (order + 1) // 2
        if theorem == "even":
            factor = float(dim**split)
            logdim = split * math.log(dim)
        else:
            factor = float(dim**split + dim ** (order - split))
            logdim = math.log(factor)
        assert report.dim_factor == factor
        if theorem == "intrinsic":
            assert report.tail_factor == 4.0 * dv
            assert report.expectation_bound is None
            assert report.tail_domain_min == math.sqrt(nu) + L / 3.0
        else:
            assert report.tail_factor == factor
            assert report.expectation_bound == pytest.approx(
                math.sqrt(2.0 * nu * logdim) + L * logdim / 3.0, rel=1e-15
            )
            assert report.tail_domain_min == 0.0

    @pytest.mark.parametrize("theorem", ["even", "general", "intrinsic"])
    def test_build_report_is_fixed_by_its_inputs(self, theorem):
        rng = np.random.default_rng(21)
        model = SumModel.rademacher([random_e_symmetric(rng, 2, 2) for _ in range(6)])
        report = build_report(model, theorem)
        again = BernsteinReport(report.theorem, report.order, report.dim,
                                report.L, report.nu, report.dv)
        assert again == report

    def test_derived_fields_are_not_inputs(self):
        for derived in ({"dim_factor": 6.0}, {"split": 2}):
            with pytest.raises(TypeError):
                BernsteinReport("general", 3, 2, 1.0, 1.0, **derived)

    def test_construction_guards(self):
        with pytest.raises(DomainError):
            BernsteinReport("auto", 3, 2, 1.0, 1.0)
        with pytest.raises(DomainError):
            BernsteinReport("general", 3, 2, 1.0, 1.0, dv=2.0)
        with pytest.raises(DomainError):
            BernsteinReport("intrinsic", 3, 2, 1.0, 1.0)
        with pytest.raises(NumericalError):
            BernsteinReport("intrinsic", 3, 2, 1.0, 1.0, dv=7.0)
        with pytest.raises(ApplicabilityError):
            BernsteinReport("even", 2, 1, 1.0, 1.0)
        # malformed counts and intrinsic dimensions give no bound
        for order, dim in [(0, 2), (3.5, 2), (True, 2), (3, 0)]:
            with pytest.raises(DomainError, match="order and dim"):
                BernsteinReport("general", order, dim, 1.0, 1.0)
        for dv in (-1.0, 0.0, math.nan):
            with pytest.raises(NumericalError, match="not positive"):
                BernsteinReport("intrinsic", 3, 2, 1.0, 1.0, dv)
        # a non-finite L or nu is a numerical failure, a negative one a
        # domain error, under each theorem
        for theorem, order, dim, dv in [("even", 2, 2, None), ("general", 3, 2, None),
                                        ("intrinsic", 3, 2, 1.0)]:
            for bad in (math.nan, math.inf, -math.inf):
                for L, nu in [(bad, 1.0), (1.0, bad)]:
                    with pytest.raises(NumericalError, match="non-finite bound quantity"):
                        BernsteinReport(theorem, order, dim, L, nu, dv)
            for L, nu in [(-1.0, 1.0), (1.0, -1.0)]:
                with pytest.raises(DomainError, match="nu and L must be nonnegative"):
                    BernsteinReport(theorem, order, dim, L, nu, dv)
        v = identity_tensor(2, 2)
        with pytest.raises(DomainError, match="nu and L must be nonnegative"):
            intrinsic_report(v, v, -1.0)
        # 3**650 does not fit a float, so no dimensional factor is formed
        for theorem, dv in [("general", None), ("even", None), ("intrinsic", 1.0)]:
            with pytest.raises(NumericalError, match="dimensional factor"):
                BernsteinReport(theorem, 1300, 3, 1.0, 1.0, dv)

    def test_in_domain_slack(self):
        report = BernsteinReport("intrinsic", 3, 2, 2.5, 25.0, 3.7)
        edge = report.tail_domain_min
        assert report.in_domain(edge) and report.in_domain(edge - 5e-13)
        assert not report.in_domain(edge - 2e-12)
        assert report.tail(edge - 5e-13).raw == pytest.approx(
            report.tail(edge).raw, rel=1e-9
        )
        with pytest.raises(DomainError):
            report.tail(edge - 2e-12)


BAD_COUNTS = [0, -2, 3.5, 2.0, True, "3", None]
# not real numbers: a bool is refused although it is an int
BAD_REALS = ["1", None, True]


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    theorem=st.sampled_from(["even", "general", "intrinsic"]),
    order=st.integers(1, 12),
    dim=st.integers(1, 6),
    count=st.sampled_from([int, np.int64]),
    L=st.floats(0.0, 1e6),
    nu=st.floats(0.0, 1e6),
    share=st.one_of(st.floats(-0.5, 1.5), st.just(math.nan)),
    bad=st.one_of(st.none(), st.tuples(st.sampled_from(["order", "dim"]),
                                       st.sampled_from(BAD_COUNTS)),
                  st.tuples(st.sampled_from(["L", "nu", "dv"]),
                            st.sampled_from(BAD_REALS))),
)
def test_report_fields_are_their_closed_forms(theorem, order, dim, count, L, nu,
                                              share, bad):
    # dv is a share of the ambient factor, so it falls on both sides of
    # (0, dim_factor]; a bad input is an EinbernError, never a bare
    # ValueError or TypeError
    m = (order + 1) // 2
    ambient = float(dim**m + dim ** (order - m))
    dv = share * ambient if theorem == "intrinsic" else None
    inputs = {"order": count(order), "dim": count(dim), "L": L, "nu": nu, "dv": dv}
    if bad is not None and bad[0] == "dv" and theorem != "intrinsic":
        bad = None  # the other bounds take no dv
    if bad is not None:
        inputs[bad[0]] = bad[1]

    def build():
        return BernsteinReport(theorem, **inputs)

    if bad is not None:
        # a dv of None is a missing one
        match = "real numbers|takes dv"
        if bad[0] in ("order", "dim"):
            match = "order and dim"
        with pytest.raises(DomainError, match=match):
            build()
        return
    if theorem == "even" and dim < 2:
        with pytest.raises(ApplicabilityError):
            build()
        return
    if theorem == "intrinsic" and not 0.0 < dv <= ambient * (1 + 1e-9):
        with pytest.raises(NumericalError):
            build()
        return
    report = build()
    if theorem == "even":
        factor, log_dim = float(dim**m), m * math.log(dim)
    else:
        factor, log_dim = ambient, math.log(ambient)
    assert report.dim_factor == factor
    if theorem == "intrinsic":
        assert report.tail_factor == 4.0 * max(dv, 1.0)
        assert report.expectation_bound is None
        assert report.tail_domain_min == math.sqrt(nu) + L / 3.0
    else:
        assert report.tail_factor == factor
        assert report.expectation_bound == (
            math.sqrt(2.0 * nu * log_dim) + L * log_dim / 3.0
        )
        assert report.tail_domain_min == 0.0
    # the tail is its closed form to the bit, from the threshold on
    edge = report.tail_domain_min
    for t in (edge, edge + 1.0, 10.0 * (math.sqrt(nu) + L)):
        denom = nu + L * t / 3.0
        if t == 0.0 or nu == L == 0.0:  # the factor at 0; a zero sum has no tail
            want = report.tail_factor if t == 0.0 else 0.0
        elif denom > 0.0:
            want = report.tail_factor * math.exp(-(t * t / 2.0 / denom))
        else:  # nu = 0 and a tiny L t underflow the denominator
            want = report.tail_factor * math.exp(-(0.5 * t / (nu / t + L / 3.0)))
        assert report.tail(t).raw == want
