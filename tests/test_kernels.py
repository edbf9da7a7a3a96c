"""Kernels: reference values, numerical edge cases, dtype."""

import math

import numpy as np
import pytest
from scipy import special

import mca.kernels as K


def test_gelu_reference_points():
    # gelu(x) = x * Phi(x); symmetric tail behavior
    x = np.array([0.0, 1.0, -1.0, 6.0, -6.0], dtype=np.float64)
    y = K.gelu_forward_cdf(x)[0]
    assert y[0] == 0.0
    assert abs(y[1] - 0.8413447461) < 1e-7
    assert abs(y[2] - (-0.1586552539)) < 1e-7
    assert abs(y[3] - 6.0) < 1e-7        # saturates to identity
    assert abs(y[4]) < 1e-7              # saturates to zero


def test_gelu_negative_tail_keeps_relative_precision():
    # Phi(-10) and Phi(-20) of the standard normal, to 17 significant digits.
    # 1 + erf(x / sqrt(2)) cancels to exactly 0 this far out in float64.
    x = np.array([-10.0, -20.0], dtype=np.float64)
    cdf = np.array([7.6198530241605261e-24, 2.7536241186062337e-89])
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    y, fwd_cdf = K.gelu_forward_cdf(x)
    assert np.all(y != 0.0)
    np.testing.assert_allclose(y, x * cdf, rtol=1e-12, atol=0.0)
    dy = K.gelu_backward(x, np.ones_like(x), fwd_cdf)
    np.testing.assert_allclose(dy, cdf + x * pdf, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gelu_backward_from_saved_cdf_equals_recomputed_formula(dtype):
    # The tape's GELU backward takes Phi from the forward; it must give the
    # bits of the formula that evaluates erfc again.
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.normal(0.0, 3.0, 500), [-40.0, -20.0, -8.5, 0.0, 8.5]]).astype(dtype)
    g = rng.normal(size=x.shape).astype(dtype)
    out, cdf = K.gelu_forward_cdf(x)
    erfc = special.erfc(-x * (1.0 / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) * (1.0 / math.sqrt(2.0 * math.pi))
    got = K.gelu_backward(x, g, cdf)
    assert out.dtype == cdf.dtype == got.dtype == dtype
    np.testing.assert_array_equal(got, g * (0.5 * erfc + x * pdf))
    np.testing.assert_array_equal(out, x * 0.5 * erfc)


def test_sigmoid_extremes_are_stable():
    x = np.array([-500.0, 0.0, 500.0], dtype=np.float32)
    y = K.sigmoid_forward(x)
    assert np.all(np.isfinite(y))
    assert y[0] == 0.0 or y[0] < 1e-30
    assert y[1] == 0.5
    assert y[2] == 1.0 or y[2] > 1.0 - 1e-7


def _sigmoid_two_branch(x):
    """The logistic function by boolean gather and scatter, one formula per sign."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_two_branch_formula_bitwise(dtype):
    rng = np.random.default_rng(6)
    edges = [0.0, -0.0, 500.0, -500.0, np.inf, -np.inf, np.nan]
    x = np.concatenate([rng.normal(0.0, 8.0, 1000), edges]).astype(dtype)
    got = K.sigmoid_forward(x)
    want = _sigmoid_two_branch(x)
    assert got.dtype == want.dtype == dtype
    # NaN stays NaN; its sign bit is not part of the contract.
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    np.testing.assert_array_equal(got[~nan].view(uint), want[~nan].view(uint))


def test_logsumexp_rows_handles_neg_inf_entries():
    out = K.logsumexp_rows_forward(np.array([[0.0, -np.inf]], dtype=np.float64))
    assert abs(out[0] - 0.0) < 1e-12


def test_softmax_rows_shift_invariance():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 9))
    assert np.allclose(K.softmax_rows_forward(x), K.softmax_rows_forward(x + 1000.0), atol=1e-6)


def test_dtype_preserved():
    for dt in (np.float32, np.float64):
        x = np.ones(5, dtype=dt)
        assert K.gelu_forward_cdf(x)[0].dtype == dt
        assert K.sigmoid_forward(x).dtype == dt
