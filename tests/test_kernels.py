"""Kernels: reference values, numerical edge cases, dtype.

``scipy.special.erfc`` is the oracle of ``K.erfc``, the numpy port of Cephes
``erfc``: every comparison is bit for bit.
"""

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


# Where scipy's erfc first reaches 0 (positive z) and 2 (negative z, by
# magnitude).  In float64 the positive point is the first z with
# z * z > MAXLOG, from where Cephes returns 0.
_SATURATION = {np.float32: (10.054195404052734, 3.8325068950653076),
               np.float64: (26.64174755704633, 5.863584748755168)}
_SQRT_MAXLOG = math.sqrt(7.09782712893383996843e2)


def _assert_erfc_bits(z):
    want = special.erfc(z)
    # Nothing the port does on these inputs may overflow, divide by zero or
    # make an invalid operation, so a step can run under these settings.
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = K.erfc(z)
    assert got.dtype == want.dtype == z.dtype and got.shape == z.shape
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    uint = np.uint32 if z.dtype == np.float32 else np.uint64
    bad = got[~nan].view(uint) != want[~nan].view(uint)
    assert not bad.any(), f"{bad.sum()} of {bad.size} differ, first at z = {z[~nan][bad][:5]}"


def _float32_run(first, last):
    """Every float32 from ``first`` to ``last``, both of one sign, by magnitude."""
    lo, hi = np.array([first, last], np.float32).view(np.uint32)
    return np.arange(lo, hi + 1, dtype=np.uint32).view(np.float32)


def test_erfc_every_float32_of_the_exp_band_matches_scipy():
    # 1 <= |z| up to the saturation points: the only branch whose bits rest
    # on the platform's exp (numpy's, in float32).  About 43 M values.
    pos, neg = _SATURATION[np.float32]
    chunk = 1 << 20
    for z in (_float32_run(1.0, pos), _float32_run(-1.0, -neg)):
        for lo in range(0, z.size, chunk):
            _assert_erfc_bits(z[lo:lo + chunk])


def test_erfc_strided_float32_bit_patterns_match_scipy():
    bits = np.arange(0, 1 << 32, 4099, dtype=np.uint64).astype(np.uint32)
    z = bits.view(np.float32)
    # A signalling NaN raises "invalid" when it is widened, as IEEE 754 says;
    # no arithmetic makes one, so only quiet NaNs stay in the sweep.
    signalling = np.isnan(z) & (bits & 0x00400000 == 0)
    _assert_erfc_bits(z[~signalling])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_erfc_branch_edges_and_specials_match_scipy(dtype):
    pos, neg = _SATURATION[dtype]
    assert special.erfc(dtype(pos)) == 0.0 < special.erfc(np.nextafter(dtype(pos), dtype(0)))
    assert special.erfc(dtype(-neg)) == 2.0 > special.erfc(np.nextafter(dtype(-neg), dtype(0)))
    # Cephes switches branch at 1, 8 and sqrt(MAXLOG); the port clips |z| at
    # 10.06 (float32) and 27 (float64).
    edges = np.array([1.0, 8.0, _SQRT_MAXLOG, pos, neg, 10.06, 27.0], dtype)
    near = np.concatenate([np.nextafter(edges, dtype(0)), edges, np.nextafter(edges, dtype(np.inf))])
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, tiny, np.inf, np.finfo(dtype).max], dtype)
    z = np.concatenate([near, -near, specials, -specials, [np.nan]]).astype(dtype)
    _assert_erfc_bits(z)
    for v in (0.5, -2.5, 12.0):  # 0-d, one value per branch
        _assert_erfc_bits(np.asarray(v, dtype))


def test_erfc_seeded_float64_sample_matches_scipy():
    rng = np.random.default_rng(11)
    wide = np.exp(rng.uniform(-700.0, 700.0, 20_000)) * rng.choice([-1.0, 1.0], 20_000)
    z = np.concatenate([rng.normal(0.0, 3.0, 200_000), rng.uniform(-30.0, 30.0, 50_000), wide])
    _assert_erfc_bits(z)
    block = z[197_000:203_000].reshape(2, 3, 1000)
    _assert_erfc_bits(block)
    _assert_erfc_bits(block.astype(np.float32))


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
        assert K.gelu_forward_cdf(np.asarray(-1.5, dt))[0].dtype == dt
        assert K.sigmoid_forward(x).dtype == dt
