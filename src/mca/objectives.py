"""Mask decoder head and the supervised mask losses composing the objective.

The decoder is a deliberately minimal linear head: one logit per final-layer
token, reshaped to the patch grid, nearest-neighbor upsampled to the image
size, and sigmoid-squashed.  The training objective is
w_bce * BCE + w_iou * soft-IoU + w_clt * CL_t + w_cls * CL_s with all default
weights 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import ContractError, ShapeError, TrainingAbortError
from .tensor import (
    Tensor,
    add_const,
    clamp,
    div,
    log,
    matmul,
    mean_all,
    mul,
    neg,
    nearest_upsample,
    reshape,
    sigmoid,
    sub,
    sum_axis,
)

BCE_CLAMP = 1e-7  # probability clamp for log stability

# Fixed output gain of the linear head.  Adam-style updates move each weight
# coordinate by roughly the learning rate per step, so within a short
# schedule a unit-gain zero-init head can only reach logits far inside the
# sigmoid's linear region; the gain rescales the reachable weight ball to a
# useful logit range without touching the optimizer.
LOGIT_GAIN = 1024.0


@dataclass
class DecoderWeights:
    """Per-token linear head mapping [K, d] tokens to patch logits."""

    w: Tensor  # [d, 1]
    b: Tensor  # [1]


def init_decoder(d: int) -> DecoderWeights:
    """Zero init: the untrained head predicts a uniform 0.5 map."""
    return DecoderWeights(
        w=Tensor(np.zeros((d, 1)), requires_grad=True),
        b=Tensor(np.zeros(1), requires_grad=True),
    )


@dataclass
class MaskPair:
    """Prediction probabilities in [0, 1] and binary ground truth.

    One map [H, W] or a batch [..., H, W]; a non-finite prediction aborts
    training.
    """

    prediction: Tensor       # [..., H, W]
    ground_truth: np.ndarray  # [..., H, W], values in {0, 1}

    def __post_init__(self):
        if not isinstance(self.prediction, Tensor):
            self.prediction = Tensor(np.asarray(self.prediction))
        self.ground_truth = np.asarray(self.ground_truth)
        if self.prediction.shape != self.ground_truth.shape or self.prediction.ndim < 2:
            raise ContractError(
                f"mask shapes disagree: {self.prediction.shape} vs {self.ground_truth.shape}"
            )
        gt = self.ground_truth
        if not np.all((gt == 0) | (gt == 1)):
            raise ContractError("ground truth mask must be binary {0, 1}")
        bad = int(np.count_nonzero(~np.isfinite(self.prediction.data)))
        if bad:
            raise TrainingAbortError(
                f"mask prediction has {bad} non-finite values "
                f"of {self.prediction.data.size}"
            )


def decode_mask(xn: Tensor, w: DecoderWeights, patch_size: int) -> Tensor:
    """[..., K, d] final tokens -> [..., H, W] probability maps (H = W = grid * patch)."""
    *lead, k, d = xn.shape
    grid = math.isqrt(k)
    if grid * grid != k:
        raise ShapeError(f"token count {k} is not a square grid")
    if w.w.shape != (d, 1):
        raise ShapeError(f"decoder width {w.w.shape} vs token width {d}")
    logits = reshape((matmul(xn, w.w) + w.b) * LOGIT_GAIN, (*lead, grid, grid))
    return sigmoid(nearest_upsample(logits, patch_size))


def bce_loss(pair: MaskPair) -> Tensor:
    """Mean binary cross-entropy with the prediction clamped away from {0, 1}.

    Over a batch of equal-sized maps this is the mean of the per-map losses.
    """
    m = clamp(pair.prediction, BCE_CLAMP, 1.0 - BCE_CLAMP)
    g = pair.ground_truth.astype(m.data.dtype)
    term = mul(g, log(m)) + mul(1.0 - g, log(sub(1.0, m)))
    return neg(mean_all(term))


def iou_loss(pair: MaskPair) -> Tensor:
    """Soft IoU loss 1 - sum(m*g) / (sum(m) + sum(g) - sum(m*g)), per map.

    A batch [..., H, W] scores the mean of its per-map losses, not the IoU
    of the pooled pixels.  A map whose truth and prediction are both empty
    (all exactly 0) scores 0 by convention, with a zero gradient: its ratio
    is taken as 0/1 instead of 0/0, and its 1 is dropped.
    """
    pred = pair.prediction
    lead, pixels = pred.shape[:-2], pred.shape[-2] * pred.shape[-1]
    g = pair.ground_truth.astype(pred.data.dtype).reshape(*lead, pixels)
    m = reshape(pred, (*lead, pixels))
    gt_sum = g.sum(axis=-1)
    pred_sum = sum_axis(m, -1)
    empty = ((gt_sum == 0.0) & (pred_sum.data == 0.0)).astype(pred.data.dtype)
    inter = sum_axis(mul(m, g), -1)
    union = sub(pred_sum + gt_sum, inter)
    ratio = div(inter, add_const(union, empty))
    return mean_all(sub(1.0 - empty, ratio))


def combine_losses(
    bce: Union[Tensor, float],
    iou: Union[Tensor, float],
    cl_t: Union[Tensor, float],
    cl_s: Union[Tensor, float],
    weights: Sequence[float],
) -> Tensor:
    """Weighted sum of the four objective terms; aborts on non-finite terms."""
    if len(weights) != 4:
        raise ContractError(f"need 4 loss weights, got {len(weights)}")
    terms = {"bce": bce, "iou": iou, "cl_t": cl_t, "cl_s": cl_s}
    for name, t in terms.items():
        val = t.item() if isinstance(t, Tensor) else float(t)
        if not math.isfinite(val):
            raise TrainingAbortError(f"non-finite loss term {name}: {val}")
    total = None
    for w, t in zip(weights, terms.values()):
        if not isinstance(t, Tensor):
            t = Tensor(np.asarray(t))
        piece = mul(t, float(w))
        total = piece if total is None else total + piece
    return total
