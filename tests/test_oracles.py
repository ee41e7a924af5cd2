import numpy as np
import pytest

from dcsam import tensor as tensor_module
from dcsam.oracles import (
    SUITES,
    SuiteResult,
    cycle_bias_reference,
    run_cyc_suite,
    run_grad_suite,
    run_softmax_suite,
    softmax_rows_reference,
)


def test_suite_result_summary():
    good = SuiteResult("cyc", 10, 0)
    bad = SuiteResult("grad", 4, 1, ("trial 2: blew up",))
    assert good.passed
    assert "10/10" in good.summary() and "ok" in good.summary()
    assert not bad.passed
    assert "3/4" in bad.summary() and "FAILED" in bad.summary()


def test_cycle_bias_reference_hand_case():
    # round trip: column 1's best row is 0, row 0's best column is 0
    a = np.array([[3.0, 2.0], [1.0, 0.0]])
    same = cycle_bias_reference(a, np.array([1.0, 1.0]))
    assert np.array_equal(same, np.zeros(2))
    split = cycle_bias_reference(a, np.array([1.0, 0.0]))
    assert split[0] == 0.0
    assert np.isneginf(split[1])  # 1 -> row 0 -> column 0, labels differ


def test_softmax_reference_rows_sum_to_one(rng):
    x = rng.normal(size=(3, 5))
    bias = np.zeros(5)
    bias[2] = -np.inf
    out = softmax_rows_reference(x, bias)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-12)
    assert (out[:, 2] == 0.0).all()


def test_cyc_suite_small_run():
    result = run_cyc_suite(trials=60, seed=0)
    assert result.passed, result.detail
    assert result.trials == 60


def test_cyc_suite_deterministic():
    assert run_cyc_suite(trials=30, seed=1) == run_cyc_suite(trials=30, seed=1)


def test_softmax_suite_small_run():
    result = run_softmax_suite(trials=40, seed=0)
    assert result.passed, result.detail


def test_grad_suite_single_trial():
    result = run_grad_suite(trials=1, seed=0, samples_per_param=2)
    assert result.passed, result.detail


def test_grad_suite_catches_corrupted_backward(monkeypatch):
    # the negative control: a wrong vector-Jacobian product must be reported
    original = tensor_module._matmul_vjp

    def corrupted(g, a_data, b_data):
        ga, gb = original(g, a_data, b_data)
        return ga * 1.01, gb

    monkeypatch.setattr(tensor_module, "_matmul_vjp", corrupted)
    result = run_grad_suite(trials=1, seed=0, samples_per_param=2)
    assert not result.passed
    assert result.detail  # names the worst parameter


def test_suites_registry():
    assert set(SUITES) == {"cyc", "softmax", "grad", "batch"}
    for fn in SUITES.values():
        assert callable(fn)
