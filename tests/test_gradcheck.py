"""Gradient-verification harness plumbing (the full sweep runs in acceptance)."""

import numpy as np

from mca.gradcheck import SUITES, float64_session, run_gradcheck
from mca.tensor import get_default_dtype

REQUIRED_OPS = (
    "gelu", "matmul", "normalize_rows", "logsumexp",
    "tc_forward", "sc_forward", "token_infonce", "sample_infonce",
    "bce_loss", "iou_loss", "layer_forward", "decode_mask", "total_loss",
)


def test_suite_covers_all_required_ops():
    assert tuple(SUITES) == REQUIRED_OPS
    assert len(SUITES) == 13


def test_float64_session_restores_dtype():
    assert get_default_dtype() == np.float32
    with float64_session():
        assert get_default_dtype() == np.float64
    assert get_default_dtype() == np.float32


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
