"""Property-based invariants over randomly generated inputs."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mca.augment import color_jitter, grayscale, random_shift
from mca.metrics import EvalPair, ber, dice_iou, e_measure, mae, s_measure
from mca.netpbm import load_pgm, save_pgm
from mca.trainer import cosine_lr

SETTINGS = settings(max_examples=50, deadline=None)


def _grids(side=6):
    pred = hnp.arrays(
        np.float64, (side, side),
        elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
    )
    gt = hnp.arrays(np.int8, (side, side), elements=st.sampled_from([0, 1]))
    return pred, gt


pred_st, gt_st = _grids()


@SETTINGS
@given(pred_st, gt_st)
def test_metric_output_ranges(pred, gt):
    pair = EvalPair(pred, gt.astype(np.float64))
    assert 0.0 <= mae(pair) <= 1.0
    assert 0.0 <= s_measure(pair) <= 1.0
    assert 0.0 <= e_measure(pair) <= 1.0
    d, i = dice_iou(pair)
    assert 0.0 <= i <= d <= 1.0
    if 0 < gt.sum() < gt.size:
        assert 0.0 <= ber(pair) <= 100.0


@SETTINGS
@given(pred_st, gt_st, st.randoms(use_true_random=False))
def test_mae_is_permutation_invariant(pred, gt, rnd):
    gt = gt.astype(np.float64)
    idx = list(range(pred.size))
    rnd.shuffle(idx)
    idx = np.array(idx)
    shuffled = EvalPair(
        pred.ravel()[idx].reshape(pred.shape), gt.ravel()[idx].reshape(gt.shape)
    )
    assert abs(mae(EvalPair(pred, gt)) - mae(shuffled)) < 1e-12


@SETTINGS
@given(pred_st, gt_st)
def test_complement_symmetry_of_mae(pred, gt):
    gt = gt.astype(np.float64)
    a = mae(EvalPair(pred, gt))
    if np.all((1.0 - gt) >= 0):
        b = mae(EvalPair(1.0 - pred, 1.0 - gt))
        assert abs(a - b) < 1e-12


IMG = hnp.arrays(
    np.float64, (3, 6, 6),
    elements=st.floats(0.0, 1.0, allow_nan=False, allow_infinity=False),
)


@SETTINGS
@given(IMG, st.floats(0.0, 3.0), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
def test_color_jitter_range_closed(img, b, c, s):
    out = color_jitter(img, brightness=b, contrast=c, saturation=s)
    assert out.shape == img.shape
    assert out.min() >= 0.0 and out.max() <= 1.0


@SETTINGS
@given(IMG)
def test_grayscale_is_idempotent(img):
    once = grayscale(img)
    np.testing.assert_allclose(grayscale(once), once, atol=1e-7)


@SETTINGS
@given(IMG, st.integers(-2, 2), st.integers(-2, 2))
def test_shift_never_creates_mass(img, dx, dy):
    out = random_shift(img, dx, dy)
    assert out.sum() <= img.sum() + 1e-9
    if dx == 0 and dy == 0:
        np.testing.assert_array_equal(out, img)


# The tmp_path fixture cannot mix with @given, so use a manual temp file.
@SETTINGS
@given(hnp.arrays(np.uint8, (4, 5), elements=st.sampled_from([0, 1])))
def test_pgm_round_trip(mask):
    import tempfile

    with tempfile.NamedTemporaryFile(suffix=".pgm", delete=False) as f:
        path = f.name
    try:
        save_pgm(path, mask)
        raw = load_pgm(path)
        np.testing.assert_array_equal(raw, mask * 255)
    finally:
        import os

        os.unlink(path)


@SETTINGS
@given(st.integers(1, 10_000), st.floats(1e-7, 1.0), st.floats(1e-9, 1e-8))
def test_cosine_lr_bounded_by_endpoints(total, lr_start, lr_end):
    for step in (0, total // 3, total // 2, total):
        lr = cosine_lr(step, total, lr_start, lr_end)
        assert lr_end <= lr <= lr_start
