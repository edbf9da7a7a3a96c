"""Mask decoder head and the supervised mask losses composing the objective.

The decoder is a deliberately minimal linear head: one logit per final-layer
token, reshaped to the g x g patch grid and sigmoid-squashed.  The head is
scored on that grid.  A patch probability m stands for every pixel of its
f x f block of truth (f = image side / g), so the mask losses, whose terms
are sums over pixels, need only the count n of foreground pixels per block:
the pixel BCE is -mean(n log m + (f^2 - n) log(1 - m)) / f^2, and the soft
IoU sums m * n, f^2 * m and n.  These are the per-pixel losses of the
nearest-neighbor upsampled map, exactly; only the float summation order
differs.  The training objective is
w_bce * BCE + w_iou * soft-IoU + w_clt * CL_t + w_cls * CL_s with all default
weights 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence, Union

import numpy as np

from .errors import ContractError, ShapeError, TrainingAbortError
from .metrics import block_counts
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
    """Patch probabilities in [0, 1] and the binary ground truth they cover.

    One map or a batch: prediction [..., g, g], truth [..., H, W] with H
    and W whole multiples f * g of the grid, so each prediction entry
    covers an f x f block of truth (f = 1 pairs pixel with pixel).  The
    truth is reduced once to its integer foreground count n per block,
    kept as the fraction n / f^2 in the prediction's float width (the
    truth itself at f = 1).  A non-finite prediction aborts training.
    """

    prediction: Tensor       # [..., g, g]
    ground_truth: np.ndarray  # [..., H, W], values in {0, 1}
    fraction: np.ndarray = field(init=False)  # [..., g, g] n / f^2

    def __post_init__(self):
        if not isinstance(self.prediction, Tensor):
            self.prediction = Tensor(np.asarray(self.prediction))
        self.ground_truth = np.asarray(self.ground_truth)
        pred, gt = self.prediction, self.ground_truth
        if pred.ndim < 2 or pred.shape[:-2] != gt.shape[:-2]:
            raise ContractError(f"mask shapes disagree: {pred.shape} vs {gt.shape}")
        if not np.all((gt == 0) | (gt == 1)):
            raise ContractError("ground truth mask must be binary {0, 1}")
        counts = block_counts(gt, pred.shape[-2:])
        self.fraction = (counts / (gt.shape[-1] // pred.shape[-1]) ** 2).astype(pred.data.dtype)
        bad = int(np.count_nonzero(~np.isfinite(pred.data)))
        if bad:
            raise TrainingAbortError(
                f"mask prediction has {bad} non-finite values "
                f"of {pred.data.size}"
            )


def decode_mask(xn: Tensor, w: DecoderWeights) -> Tensor:
    """[..., K, d] final tokens -> [..., g, g] patch probabilities (K = g * g)."""
    *lead, k, d = xn.shape
    grid = math.isqrt(k)
    if grid * grid != k:
        raise ShapeError(f"token count {k} is not a square grid")
    if w.w.shape != (d, 1):
        raise ShapeError(f"decoder width {w.w.shape} vs token width {d}")
    return sigmoid(reshape((matmul(xn, w.w) + w.b) * LOGIT_GAIN, (*lead, grid, grid)))


def bce_loss(pair: MaskPair) -> Tensor:
    """Mean pixel binary cross-entropy, the prediction clamped away from {0, 1}.

    With p = n / f^2 per block this is -mean(p log m + (1 - p) log(1 - m))
    over the blocks, the mean over every pixel.  Over a batch of
    equal-sized maps it is the mean of the per-map losses.
    """
    m = clamp(pair.prediction, BCE_CLAMP, 1.0 - BCE_CLAMP)
    p = pair.fraction
    term = mul(p, log(m)) + mul(1.0 - p, log(sub(1.0, m)))
    return neg(mean_all(term))


def iou_loss(pair: MaskPair) -> Tensor:
    """Pixel soft IoU loss 1 - sum(m*g) / (sum(m) + sum(g) - sum(m*g)), per map.

    On the grid the sums are inter = sum(m n), pred_sum = f^2 sum(m) and
    gt_sum = sum(n); the ratio is taken with all three divided by f^2.  A
    batch [..., g, g] scores the mean of its per-map losses, not the IoU
    of the pooled pixels.  A map whose truth and prediction are both empty
    (all exactly 0) scores 0 by convention, with a zero gradient: its ratio
    is taken as 0/1 instead of 0/0, and its 1 is dropped.
    """
    pred = pair.prediction
    lead, cells = pred.shape[:-2], pred.shape[-2] * pred.shape[-1]
    p = pair.fraction.reshape(*lead, cells)
    m = reshape(pred, (*lead, cells))
    gt_sum = p.sum(axis=-1)
    pred_sum = sum_axis(m, -1)
    empty = ((gt_sum == 0.0) & (pred_sum.data == 0.0)).astype(pred.data.dtype)
    inter = sum_axis(mul(m, p), -1)
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
