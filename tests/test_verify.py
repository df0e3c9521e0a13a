"""The worked example (paper Example 4.5) behind `example45` and `verify`."""

import pytest

from einbern import verify


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


def test_counterexample_property_fails_with_any_fact(monkeypatch):
    facts = verify.worked_example(0)
    assert verify._prop_counterexample(0, 1).passed
    for i, fact in enumerate(facts):
        broken = list(facts)
        broken[i] = verify.PropertyResult(fact.name, False, fact.detail)
        monkeypatch.setattr(verify, "worked_example", lambda seed, b=broken: b)
        result = verify._prop_counterexample(0, 1)
        assert not result.passed and fact.name in result.detail
