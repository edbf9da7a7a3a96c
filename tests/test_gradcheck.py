"""Gradient-verification harness plumbing (the full sweep runs in acceptance)."""

import numpy as np

from mca.gradcheck import SUITES, finite_diff_check, float64_session, run_gradcheck
from mca.tensor import Tensor, get_default_dtype, linear, mean_all

REQUIRED_OPS = (
    "gelu", "matmul", "normalize_rows", "logsumexp",
    "tc_forward", "sc_forward", "token_infonce", "sample_infonce",
    "bce_loss", "iou_loss", "layer_forward", "decode_mask", "total_loss",
)


def test_suite_covers_all_required_ops():
    assert tuple(SUITES) == REQUIRED_OPS
    assert len(SUITES) == 13
    assert all(callable(fn) for fn in SUITES.values())


def test_float64_session_restores_dtype():
    assert get_default_dtype() == np.float32
    with float64_session():
        assert get_default_dtype() == np.float64
    assert get_default_dtype() == np.float32


def _linear_operands():
    rng = np.random.default_rng(6)
    return [Tensor(rng.normal(size=shape), requires_grad=True)
            for shape in ((2, 3, 4), (4, 5), (5,))]


def test_a_check_leaves_no_gradient_behind(f64):
    # Each check's backward returns its target's gradient and stores none, so
    # checking x first cannot change the check of w that follows.
    x, w, b = _linear_operands()
    f = lambda _v: mean_all(linear(x, w, b) * linear(x, w, b))
    finite_diff_check(f, x)
    after_x = finite_diff_check(f, w)
    x2, w2, b2 = _linear_operands()
    alone = finite_diff_check(lambda _v: mean_all(linear(x2, w2, b2) * linear(x2, w2, b2)), w2)
    assert after_x == alone
    assert not any(hasattr(t, "grad") for t in (x, w, b, f(x)))


def test_single_seed_sweep_passes(capsys):
    passed, worst = run_gradcheck(seeds=range(1), tol=1e-4, verbose=True)
    assert passed
    assert set(worst) == set(SUITES)
    assert all(0.0 <= err < 1e-4 for err in worst.values())
    out = capsys.readouterr().out
    for name in SUITES:
        assert name in out
    assert out.count("PASS") == len(SUITES) + 1  # per-op lines plus summary


def test_impossible_tolerance_reports_failure(capsys):
    passed, worst = run_gradcheck(seeds=range(1), tol=1e-30, verbose=True)
    assert not passed
    assert "FAIL" in capsys.readouterr().out
