"""The worked example (paper Example 4.5) behind `example45` and `verify`."""

import math

import numpy as np
import pytest

import oracles
from einbern import bounds, spectral, tensor, verify


@pytest.mark.parametrize("seed", [0, 1, 7, 2019])
def test_worked_example_passes(seed):
    facts = verify.worked_example(seed)
    assert [f.name for f in facts] == [
        "quartic-form",
        "unfolding-quadratic-form",
        "einstein-spectrum",
        "not-e-psd",
        "z-estimate",
    ]
    assert all(f.passed for f in facts), [f.detail for f in facts]


def test_worked_example_forms_are_one_block(monkeypatch):
    # the 1000 sampled forms are one product over a (1000, 3) block, whose
    # rows are 1000 successive standard_normal(3) draws, and equal the
    # oracle's forms sample by sample
    calls, kernel = [], tensor.apply_power_map
    monkeypatch.setattr(tensor, "apply_power_map",
                        lambda t, xs: calls.append((t, xs, kernel(t, xs))) or calls[-1][2])
    assert all(f.passed for f in verify.worked_example(3))
    [(t, xs, grads)] = calls
    rng = np.random.default_rng(3)
    assert np.array_equal(xs, [rng.standard_normal(3) for _ in range(1000)])
    want = [x @ oracles.power_map(t, x) for x in xs]
    assert np.allclose(np.einsum("ij,ij->i", xs, grads), want, rtol=1e-12, atol=0.0)


def test_counterexample_property_fails_with_any_fact(monkeypatch):
    facts = verify.worked_example(0)
    assert verify._prop_counterexample(0, 1).passed
    for i, fact in enumerate(facts):
        broken = list(facts)
        broken[i] = verify.PropertyResult(fact.name, False, fact.detail)
        monkeypatch.setattr(verify, "worked_example", lambda seed, b=broken: b)
        result = verify._prop_counterexample(0, 1)
        assert not result.passed and fact.name in result.detail


ALL_NAMES = [
    "linearize-bijective", "transpose-involution", "outer-vs-kron-power",
    "form-vs-unfolding-quadratic", "unfolding-homomorphism",
    "product-transpose-reversal", "identity-neutral",
    "gen-product-unfolding-identities", "gen-product-even-reduction",
    "self-product-exactly-symmetric", "matricize-roundtrip",
    "gram-trace-is-frobenius",
    "closed-form-spot-values", "tail-monotonicity", "matrix-case-reduction",
    "variance-vs-matricized", "intrinsic-dimension-identity",
    "intrinsic-vs-general-ratio", "identical-population-centers-to-zero",
    "projector-variance-linearity", "subsample-exact-enumeration",
    "eigensolver-contract", "evd-reconstruction", "trace-vs-spectrum-sum",
    "square-via-evd-hadamard", "dilation-top-eigenvalue-is-norm",
    "spectral-norm-chain", "gen-norm-matches-even-norm",
    "z-estimate-below-e-max", "epsd-implies-sampled-psd", "psd-counterexample",
]


def test_suite_all_runs_every_property_in_order():
    results = verify.run_suite("all", seed=0, cases=1)
    assert [r.name for r in results] == ALL_NAMES
    assert all(r.passed for r in results), [r.detail for r in results if not r.passed]


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_error_fails_its_property(monkeypatch, bad):
    # max(0.0, nan) is 0.0, so a fold by max() alone would pass a NaN
    monkeypatch.setattr(spectral, "e_trace", lambda t: bad)
    result = verify._prop_trace_spectrum(0, 5)
    assert result.name == "trace-vs-spectrum-sum"
    assert not result.passed and result.detail == f"max err {bad} (tol 1.0e-10)"


def test_nan_tail_bound_fails_monotonicity(monkeypatch):
    monkeypatch.setattr(bounds.BernsteinReport, "tail",
                        lambda self, t: bounds.TailBound(math.nan, math.nan))
    result = verify._prop_tail_monotonicity(0, 1)
    assert result.name == "tail-monotonicity" and not result.passed


def test_nan_intrinsic_dimension_fails_identity(monkeypatch):
    real = bounds.intrinsic_report

    def nan_dv(*args):
        report = real(*args)
        object.__setattr__(report, "dv", math.nan)
        return report

    monkeypatch.setattr(bounds, "intrinsic_report", nan_dv)
    result = verify._prop_intrinsic_identity(0, 5)
    assert result.name == "intrinsic-dimension-identity"
    assert not result.passed and "nan" in result.detail
