"""Mask decoding and the training objective terms."""

import math

import mca.trainer as trainer_mod

import numpy as np
import pytest

from mca.checkpoint import save_checkpoint
from mca.cli import main
from mca.config import config_to_text
from mca.errors import ContractError, ShapeError, TrainingAbortError
from mca.netpbm import load_mask
from mca.objectives import (
    LOGIT_GAIN,
    DecoderWeights,
    bce_loss,
    decode_mask,
    init_decoder,
    iou_loss,
    mask_fraction,
)
from mca.synthdata import load_split
from mca.tensor import Graph, Tensor, backward
from mca.trainer import (LOSS_TERMS, checkpoint_payload, frozen_rows, init_model,
                         named_tensors, step_objective, tunable_names)


def _loss(loss_fn, pred, truth):
    """The loss of a prediction against truth, reduced on the prediction's grid."""
    return loss_fn(pred, mask_fraction(truth, pred.shape[-2:]))


def test_bce_known_value(f64):
    m = Tensor(np.array([[0.9, 0.1], [0.8, 0.2]]))
    g = np.array([[1.0, 0.0], [1.0, 0.0]])
    val = float(_loss(bce_loss, m, g).data)
    assert abs(val - 0.164252) < 1e-5


def test_bce_uniform_half_is_log_two(f64):
    m = Tensor(np.full((4, 4), 0.5))
    g = np.zeros((4, 4))
    g[:2] = 1.0
    assert abs(float(_loss(bce_loss, m, g).data) - math.log(2.0)) < 1e-9


def test_bce_perfect_prediction_is_clamp_bounded(f64):
    g = np.array([[1.0, 0.0], [0.0, 1.0]])
    val = float(_loss(bce_loss, Tensor(g.copy()), g).data)
    assert val <= 1e-6 * abs(math.log(1e-7))


def test_iou_known_values(f64):
    g_half = np.array([[1.0, 1.0], [0.0, 0.0]])
    m = Tensor(np.full((2, 2), 0.5))
    assert abs(float(_loss(iou_loss, m, g_half).data) - 0.666667) < 1e-6
    # Disjoint supports.
    g = np.array([[1.0, 0.0], [0.0, 0.0]])
    s = Tensor(np.array([[0.0, 0.0], [0.0, 1.0]]))
    assert float(_loss(iou_loss, s, g).data) == 1.0
    # Exact binary match.
    assert float(_loss(iou_loss, Tensor(g.copy()), g).data) == 0.0
    # Both empty.
    z = np.zeros((2, 2))
    assert float(_loss(iou_loss, Tensor(z.copy()), z).data) == 0.0


def test_iou_monotone_in_overlap(f64):
    g = np.zeros((4, 4))
    g[:2] = 1.0
    prev = None
    for p in (0.1, 0.3, 0.5, 0.7, 0.9):
        m = np.where(g == 1.0, p, 0.0)
        val = float(_loss(iou_loss, Tensor(m), g).data)
        if prev is not None:
            assert val < prev
        prev = val


def test_iou_symmetric_under_joint_permutation(f64):
    rng = np.random.default_rng(0)
    m = rng.random((4, 4))
    g = (rng.random((4, 4)) > 0.5).astype(np.float64)
    perm = rng.permutation(16)
    a = float(_loss(iou_loss, Tensor(m), g).data)
    b = float(
        _loss(iou_loss, Tensor(m.ravel()[perm].reshape(4, 4)), g.ravel()[perm].reshape(4, 4)).data
    )
    assert abs(a - b) < 1e-12


def test_decoder_zero_init_gives_uniform_half(f64):
    w = init_decoder(8)
    xn = Tensor(np.random.default_rng(1).normal(size=(4, 8)))
    out = decode_mask(xn, w)
    assert out.shape == (2, 2)
    np.testing.assert_allclose(out.data, 0.5, atol=1e-12)


def test_decode_mask_block_structure(f64):
    # One token carrying a positive pre-gain logit saturates exactly its own
    # patch; every other patch stays at 0.5.
    d = 8
    w = DecoderWeights(
        w=Tensor(np.eye(d)[:, :1] * 1.0, requires_grad=True),
        b=Tensor(np.zeros(1), requires_grad=True),
    )
    xn = np.zeros((4, d))
    xn[2, 0] = 10.0 / LOGIT_GAIN  # logit +10 after the fixed gain
    out = decode_mask(Tensor(xn), w)
    assert out.shape == (2, 2)
    # Token index 2 -> grid row 1, col 0.
    assert abs(out.data[1, 0] - 1.0) < 1e-4
    for r in range(2):
        for c in range(2):
            if (r, c) != (1, 0):
                assert abs(out.data[r, c] - 0.5) < 1e-12


def test_decode_mask_upsampling_is_nearest(small_cfg, tiny_dataset, tmp_path):
    # decode_mask stays on the patch grid; mca dump-masks copies each
    # thresholded patch probability into its patch x patch block of pixels.
    cfg = small_cfg(variant="decoder_only")
    model = init_model(cfg)
    model.decoder.w.data = np.random.default_rng(2).normal(
        0.0, 1e-3, model.decoder.w.data.shape).astype(model.decoder.w.data.dtype)
    ckpt = str(tmp_path / "m.mcaf")
    save_checkpoint(ckpt, checkpoint_payload(model, {}), config_to_text(cfg), 0)
    assert main(["dump-masks", "--checkpoint", ckpt, "--data", tiny_dataset,
                 "--split", "train", "--out", str(tmp_path / "masks")]) == 0
    ids = load_split(tiny_dataset, "train").ids
    masks = np.stack([load_mask(str(tmp_path / "masks" / f"{sid}.pgm")) for sid in ids])
    g, f = cfg.image_size // cfg.patch_size, cfg.patch_size
    blocks = masks.reshape(len(ids), g, f, g, f)
    assert np.all(blocks == blocks[:, :, :1, :, :1])
    assert len(np.unique(blocks[:, :, 0, :, 0])) > 1


def test_decode_mask_shape_errors(f64):
    w = init_decoder(8)
    with pytest.raises(ShapeError):
        decode_mask(Tensor(np.zeros((3, 8))), w)  # 3 not square
    with pytest.raises(ShapeError):
        decode_mask(Tensor(np.zeros((4, 6))), w)  # width mismatch


def test_mask_pair_validation():
    with pytest.raises(ContractError):
        mask_fraction(np.zeros((2, 3)), (2, 2))
    with pytest.raises(ContractError, match="binary"):
        mask_fraction(np.full((2, 2), 0.5), (2, 2))
    for loss_fn in (bce_loss, iou_loss):
        # An ndarray prediction gets wrapped.
        assert isinstance(_loss(loss_fn, np.full((2, 2), 0.25), np.ones((2, 2))), Tensor)


@pytest.mark.parametrize("pred_shape, truth_shape", [
    ((2, 2), (5, 5)),        # not a whole multiple
    ((2, 2), (4, 6)),        # blocks 2 x 3, not square
    ((2, 2), (1, 1)),        # smaller than the grid
    ((2, 0), (4, 4)),        # an empty grid
    ((2, 2, 2), (3, 4, 4)),  # batch sizes differ
])
def test_mask_pair_rejects_truth_not_tiling_the_prediction(pred_shape, truth_shape):
    # mask_fraction rejects truth that does not tile the grid, and each loss
    # a fraction whose batch differs from the prediction's.
    for loss_fn in (bce_loss, iou_loss):
        with pytest.raises(ContractError, match="mask shapes disagree"):
            _loss(loss_fn, Tensor(np.full(pred_shape, 0.5)), np.zeros(truth_shape))


@pytest.mark.parametrize("f", [2, 4])
@pytest.mark.parametrize("loss_fn", [bce_loss, iou_loss])
def test_patch_grid_loss_is_the_pixel_loss_of_the_upsampled_map(f64, f, loss_fn):
    rng = np.random.default_rng(f)
    patch = rng.uniform(0.05, 0.95, size=(3, 2, 2))
    patch[2] = 0.0
    gt = (rng.random((3, 2 * f, 2 * f)) > 0.5).astype(np.float64)
    gt[2] = 0.0   # both empty: the IoU convention holds on the grid too
    pixels = patch.repeat(f, axis=-2).repeat(f, axis=-1)
    grids = {}
    for name, pred in (("patch", patch), ("pixels", pixels)):
        t = Tensor(pred, requires_grad=True)
        with Graph() as g:
            loss = _loss(loss_fn, t, gt)
            (grad,) = backward(g, loss, [t])
        grids[name] = (float(loss.data), grad)
    block_mean = gt.reshape(3, 2, f, 2, f).mean(axis=(-3, -1))
    np.testing.assert_array_equal(mask_fraction(gt, patch.shape[-2:]), block_mean)
    assert grids["patch"][0] == pytest.approx(grids["pixels"][0], rel=1e-12, abs=1e-15)
    block_grad = grids["pixels"][1].reshape(3, 2, f, 2, f).sum(axis=(-3, -1))
    np.testing.assert_allclose(grids["patch"][1], block_grad, rtol=1e-12, atol=1e-15)


def _live_model(cfg):
    """A model whose token adaptors are live, so every term of its variant is computed."""
    model = init_model(cfg)
    rng = np.random.default_rng(11)
    for pair in model.encoder.adaptors:
        pair.token.w_up.data = rng.normal(0.0, 0.1, pair.token.w_up.data.shape)
    return model


def _objective(model, tiny_dataset):
    """``step_objective`` of the first train batch, the images doubling as views."""
    split = load_split(tiny_dataset, "train")
    images = np.stack(split.images[:model.cfg.batch_size])
    fraction = mask_fraction(split.masks[:model.cfg.batch_size], (model.cfg.grid,) * 2)
    return step_objective(model, frozen_rows(model, images), images, fraction)


def _fix_terms(monkeypatch, values):
    """Make each objective term's function return a constant: bce, iou, cl_t, cl_s."""
    for fn, value in zip(("bce_loss", "iou_loss", "token_contrastive_loss",
                          "sample_contrastive_loss"), values):
        monkeypatch.setattr(trainer_mod, fn, lambda *args, v=value: Tensor(np.asarray(v)))


def test_objective_refuses_a_non_finite_term(small_cfg, tiny_dataset, f64, monkeypatch):
    model = _live_model(small_cfg(variant="mca"))
    for values, label, bad in [((math.nan, 2.0, 3.0, 4.0), "bce", "nan"),
                               ((1.0, math.inf, 3.0, 4.0), "iou", "inf"),
                               ((1.0, 2.0, math.nan, 4.0), "cl_t", "nan"),
                               ((1.0, 2.0, 3.0, -math.inf), "cl_s", "-inf")]:
        _fix_terms(monkeypatch, values)
        with pytest.raises(TrainingAbortError, match=f"^non-finite loss term {label}: {bad}$"):
            _objective(model, tiny_dataset)


def test_total_loss_zero_weights_zero_value_and_gradient(small_cfg, tiny_dataset, f64):
    model = _live_model(small_cfg(variant="mca", w_bce=0.0, w_iou=0.0, w_cl_t=0.0, w_cl_s=0.0))
    named = named_tensors(model)
    with Graph() as graph:
        total, terms = _objective(model, tiny_dataset)
        assert list(terms) == list(LOSS_TERMS) and all(t.item() > 0.0 for t in terms.values())
        assert total.item() == 0.0
        grads = backward(graph, total, [named[name] for name in tunable_names(model)])
    for name, grad in zip(tunable_names(model), grads):
        assert grad is None or not grad.any(), name


def test_total_loss_matches_manual_combination(small_cfg, tiny_dataset, f64, monkeypatch):
    # Each term is weighted by its own config weight and the total is their
    # sum, left to right in the order bce, iou_loss, cl_t, cl_s.
    for variant in ("decoder_only", "mca"):
        model = _live_model(small_cfg(variant=variant))
        total, terms = _objective(model, tiny_dataset)
        assert list(terms) == list(LOSS_TERMS[:2] if variant == "decoder_only" else LOSS_TERMS)
        manual = terms["bce"].data + terms["iou_loss"].data
        for name in LOSS_TERMS[2:]:
            if name in terms:
                manual = manual + terms[name].data
        assert total.item() == float(manual)
    _fix_terms(monkeypatch, (1.0, 2.0, 3.0, 4.0))
    cfg = small_cfg(variant="mca", w_bce=1.0, w_iou=0.5, w_cl_t=2.0, w_cl_s=0.0)
    total, _ = _objective(_live_model(cfg), tiny_dataset)
    assert total.item() == 1.0 + 1.0 + 6.0


def test_non_finite_prediction_rejected(small_cfg):
    # The objective checks the decoded map.  Under the zero-init head every
    # token decodes to 0.5, and a token holding NaN decodes to NaN.
    model = init_model(small_cfg(variant="decoder_only", patch_size=8))  # a 4 x 4 grid
    tokens = np.zeros((1, 16, model.cfg.embed_dim))
    tokens[0, 1 * 4 + 2, 0] = tokens[0, 3 * 4 + 0, 0] = np.nan
    fraction = mask_fraction(np.zeros((1, 32, 32)), (4, 4))
    with pytest.raises(TrainingAbortError, match="2 non-finite"):
        step_objective(model, tokens, None, fraction)


def test_iou_of_batch_is_mean_of_per_map_losses(f64):
    rng = np.random.default_rng(8)
    pred = rng.uniform(0.05, 0.95, size=(4, 6, 6))
    gt = (rng.random((4, 6, 6)) > 0.5).astype(np.float64)
    gt[1] = 0.0   # empty truth, nonzero prediction: loss 1
    pred[2] = 0.0
    gt[2] = 0.0   # both empty: loss 0 by convention
    per_map = [float(_loss(iou_loss, Tensor(pred[b]), gt[b]).data) for b in range(4)]
    assert per_map[1] == 1.0 and per_map[2] == 0.0
    batched = float(_loss(iou_loss, Tensor(pred), gt).data)
    assert batched == pytest.approx(np.mean(per_map), rel=1e-12, abs=0.0)


def test_iou_both_empty_map_has_zero_gradient(f64):
    pred = Tensor(np.zeros((2, 3, 3)), requires_grad=True)
    gt = np.zeros((2, 3, 3))
    gt[0, 1, 1] = 1.0
    with Graph() as g:
        loss = _loss(iou_loss, pred, gt)
        (grad,) = backward(g, loss, [pred])
    assert float(loss.data) == 0.5  # map 0 scores 1, map 1 (both empty) 0
    assert np.all(np.isfinite(grad))
    assert np.array_equal(grad[1], np.zeros((3, 3)))
