"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as ordinary tests.
"""

import math
import time
from itertools import product as iproduct

import numpy as np
import pytest

from einbern import (
    ExperimentConfig,
    SumModel,
    apply_power,
    build_report,
    e_eigenvalues,
    e_spectral_norm,
    einstein_product_reference,
    gen_product_inner,
    gen_product_inner_reference,
    gen_product_outer,
    gen_product_outer_reference,
    gen_spectral_norm,
    intrinsic_report,
    is_e_psd,
    matricize,
    matricize_general,
    psd_counterexample_tensor,
    random_e_symmetric,
    random_fully_symmetric,
    random_tensor,
    run_experiment,
    sym_eig,
    variance_general,
    z_eigen_max,
)
from einbern.cli import main


def announce(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number}: {status} - {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def mc_model():
    rng = np.random.default_rng(2024)
    comps = [random_e_symmetric(rng, 2, 2) for _ in range(50)]
    return SumModel.rademacher(comps)


def test_criterion_1_homomorphism():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for m, d in iproduct((1, 2), (2, 3)):
        for _ in range(200):
            a = random_tensor(rng, (d,) * (2 * m))
            b = random_tensor(rng, (d,) * (2 * m))
            lhs = matricize(einstein_product_reference(a, b))
            rhs = matricize(a) @ matricize(b)
            scale = max(1.0, a.max_abs() * b.max_abs() * d**m)
            worst = max(worst, float(np.abs(lhs - rhs).max()) / scale)
    elapsed = time.perf_counter() - start
    announce(
        1,
        worst <= 1e-12 and elapsed < 10.0,
        f"homomorphism over 800 pairs: max err {worst:.3e} <= 1e-12, "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_2_generalized_products():
    start = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = 0.0
    for n, d in iproduct((1, 2, 3, 4, 5), (2, 3)):
        for _ in range(100):
            a = random_tensor(rng, (d,) * n)
            fbar = matricize_general(a)
            outer = gen_product_outer_reference(a, a)
            inner = gen_product_inner_reference(a, a)
            scale = max(1.0, a.max_abs() ** 2 * d**n)
            worst = max(
                worst,
                float(np.abs(matricize(outer) - fbar @ fbar.T).max()) / scale,
                float(np.abs(matricize(inner) - fbar.T @ fbar).max()) / scale,
            )
    elapsed = time.perf_counter() - start
    announce(
        2,
        worst <= 1e-12 and elapsed < 20.0,
        f"unfolding identities over 1000 cases: max err {worst:.3e} <= 1e-12, "
        f"{elapsed:.1f}s < 20s",
    )


def test_criterion_3_spectral_chain():
    rng = np.random.default_rng(103)
    combos = list(iproduct((1, 3, 4), (2, 3)))
    cases = 0
    worst = 0.0
    while cases < 100:
        n, d = combos[cases % len(combos)]
        a = random_tensor(rng, (d,) * n)
        e1 = math.sqrt(e_spectral_norm(gen_product_outer(a, a)))
        e2 = math.sqrt(e_spectral_norm(gen_product_inner(a, a)))
        e3 = float(np.linalg.svd(matricize_general(a), compute_uv=False)[0])
        e4 = gen_spectral_norm(a)
        scale = max(1.0, e3)
        worst = max(
            worst,
            abs(e1 - e3) / scale,
            abs(e2 - e3) / scale,
            abs(e4 - e3) / scale,
        )
        cases += 1
    announce(
        3,
        worst <= 1e-10,
        f"norm chain over {cases} tensors: max spread {worst:.3e} <= 1e-10",
    )


def test_criterion_4_worked_example():
    t = psd_counterexample_tensor()
    f = matricize(t)
    y = np.zeros(9)
    y[0], y[4] = 1.0, -1.0
    quad = float(y @ f @ y)

    rng = np.random.default_rng(104)
    form_err = 0.0
    for _ in range(1000):
        x = rng.standard_normal(3)
        form_err = max(
            form_err, abs(apply_power(t, x) - 6.0 * x[0] ** 2 * x[1] ** 2)
        )

    expected = np.array([2.0, 1.0, 0, 0, 0, 0, 0, 0, -1.0])
    spec_err = float(np.abs(e_eigenvalues(t) - expected).max())
    not_epsd = not is_e_psd(t)

    ok = quad == -2.0 and form_err <= 1e-12 and spec_err <= 1e-10 and not_epsd
    announce(
        4,
        ok,
        f"worked example: quadratic form {quad:g} (exact -2), form err "
        f"{form_err:.2e} <= 1e-12, spectrum err {spec_err:.2e} <= 1e-10, "
        f"E-PSD rejected {not_epsd}",
    )


def test_criterion_5_z_eigenvalue_lower_bound():
    rng = np.random.default_rng(105)
    violations = 0
    worst_gap = -math.inf
    for k in range(50):
        a = random_fully_symmetric(rng, 4, 3)
        est = z_eigen_max(a, restarts=8, iters=1000, seed=k)
        lam_e = float(e_eigenvalues(a)[0])
        worst_gap = max(worst_gap, est.value - lam_e)
        if lam_e < est.value - 1e-8:
            violations += 1
    announce(
        5,
        violations == 0,
        f"50 fully symmetric tensors: {violations} violations, largest "
        f"(estimate - lambda_e_max) = {worst_gap:.3e}",
    )


def test_criterion_6_matrix_reduction():
    rng = np.random.default_rng(106)
    worst = 0.0
    for d in (2, 3, 4):
        comps = [random_tensor(rng, (d, d)) for _ in range(6)]
        model = SumModel.rademacher(comps)
        report = build_report(model, "general")
        mats = [matricize_general(c) for c in comps]
        l_mat = max(float(np.linalg.svd(m, compute_uv=False)[0]) for m in mats)
        m1 = sum(m @ m.T for m in mats)
        m2 = sum(m.T @ m for m in mats)
        nu_mat = max(
            float(np.linalg.eigvalsh(m1)[-1]), float(np.linalg.eigvalsh(m2)[-1])
        )
        worst = max(
            worst,
            abs(report.L - l_mat) / max(1.0, l_mat),
            abs(report.nu - nu_mat) / max(1.0, nu_mat),
            abs(report.dim_factor - 2 * d),
        )
        expect_mat = math.sqrt(2 * nu_mat * math.log(2 * d)) + l_mat * math.log(
            2 * d
        ) / 3
        worst = max(
            worst,
            abs(report.expectation_bound - expect_mat) / max(1.0, expect_mat),
        )
        for t in np.linspace(0.0, 3 * (math.sqrt(nu_mat) + l_mat), 7):
            t = float(t)
            if t == 0.0:
                want = 2.0 * d
            else:
                want = 2.0 * d * math.exp(-(t * t) / 2 / (nu_mat + l_mat * t / 3))
            worst = max(
                worst, abs(report.tail(t).raw - want) / max(1.0, want)
            )
    announce(
        6,
        worst <= 1e-12,
        f"order-2 reduction to matrix quantities: max err {worst:.3e} <= 1e-12",
    )


def test_criterion_7_monte_carlo_certification(mc_model):
    start = time.perf_counter()
    even = build_report(mc_model, "even")
    tmax = 3.0 * (math.sqrt(even.nu) + even.L)
    grid = tuple(float(t) for t in np.linspace(0.0, tmax, 20))

    cfg_even = ExperimentConfig(
        model=mc_model, trials=10_000, t_grid=grid, seed=777,
        confidence_slack=3.0, theorem="even",
    )
    res_even = run_experiment(cfg_even)
    exp_check = res_even.expectation

    cfg_gen = ExperimentConfig(
        model=mc_model, trials=10_000, t_grid=grid, seed=777,
        confidence_slack=3.0, theorem="general",
    )
    res_gen = run_experiment(cfg_gen)

    intr = build_report(mc_model, "intrinsic")
    grid_intr = tuple(t for t in grid if t >= intr.tail_domain_min)
    cfg_intr = ExperimentConfig(
        model=mc_model, trials=10_000, t_grid=grid_intr, seed=777,
        confidence_slack=3.0, theorem="intrinsic",
    )
    res_intr = run_experiment(cfg_intr)

    gen_rep = res_gen.bound_report
    ratio_ok = True
    for t in grid_intr:
        raw_gen = gen_rep.tail(t).raw
        raw_intr = intr.tail(t).raw
        if 4.0 * intr.dv < gen_rep.dim_factor:
            ratio_ok &= raw_intr < raw_gen
        else:
            ratio_ok &= raw_intr >= raw_gen

    elapsed = time.perf_counter() - start
    ok = (
        res_even.all_passed
        and exp_check.passed
        and res_gen.all_passed
        and res_intr.all_passed
        and ratio_ok
        and elapsed < 120.0
    )
    announce(
        7,
        ok,
        "50-component model, 1e4 trials: even tail "
        f"{sum(r.passed for r in res_even.rows)}/{len(res_even.rows)}, "
        f"mean {res_even.empirical_mean_max:.3f} + slack <= "
        f"{exp_check.bound:.3f} ({'ok' if exp_check.passed else 'fail'}), "
        f"general {sum(r.passed for r in res_gen.rows)}/{len(res_gen.rows)}, "
        f"intrinsic {sum(r.passed for r in res_intr.rows)}/{len(res_intr.rows)} "
        f"on t >= {intr.tail_domain_min:.2f}, prefactor comparison "
        f"{'consistent' if ratio_ok else 'violated'} (4dv={4 * intr.dv:.1f} vs "
        f"{gen_rep.dim_factor:.0f}), {elapsed:.0f}s < 120s",
    )


def test_criterion_8_intrinsic_dimension_identities():
    rng = np.random.default_rng(108)
    worst = 0.0
    ambient_ok = True
    for _ in range(100):
        n = int(rng.integers(1, 5))
        d = int(rng.integers(2, 4))
        count = int(rng.integers(2, 6))
        comps = [random_tensor(rng, (d,) * n) for _ in range(count)]
        model = SumModel.rademacher(comps)
        outer, inner = variance_general(model)
        report = intrinsic_report(outer, inner, 1.0)
        m = model.split
        fo = matricize(outer).T
        fi = matricize(inner)
        block = np.zeros((fo.shape[0] + fi.shape[0],) * 2)
        block[: fo.shape[0], : fo.shape[1]] = fo
        block[fo.shape[0] :, fo.shape[1] :] = fi
        dv_oracle = float(
            np.trace(block) / np.abs(np.linalg.eigvalsh(block)).max()
        )
        worst = max(worst, abs(report.dv - dv_oracle) / max(1.0, dv_oracle))
        ambient_ok &= report.dv <= d**m + d ** (n - m) + 1e-9
    announce(
        8,
        worst <= 1e-12 and ambient_ok,
        f"100 random models: trace/norm identity err {worst:.3e} <= 1e-12, "
        f"ambient cap respected {ambient_ok}",
    )


def test_criterion_9_simulate_determinism(tmp_path):
    import json

    doc = {
        "schema": 1,
        "model": {
            "law": "rademacher",
            "generate": {
                "count": 12,
                "order": 4,
                "dim": 2,
                "seed": 5,
                "kind": "e_symmetric",
            },
        },
        "trials": 600,
        "t_grid": {"start": 0.0, "stop": 16.0, "num": 9},
        "seed": 31415,
        "theorem": "even",
    }
    config = tmp_path / "experiment.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    code1 = main(["simulate", "--config", str(config), "--out", str(out1)])
    code2 = main(["simulate", "--config", str(config), "--out", str(out2)])
    identical = out1.read_bytes() == out2.read_bytes()
    announce(
        9,
        code1 == 0 and code2 == 0 and identical,
        f"repeated simulate runs: exit codes ({code1}, {code2}), "
        f"byte-identical CSV {identical}",
    )
