"""Mask decoder head and the supervised mask losses composing the objective.

The decoder is a deliberately minimal linear head: one logit per final-layer
token, reshaped to the g x g patch grid and sigmoid-squashed.  The head is
scored on that grid.  A patch probability m stands for every pixel of its
f x f block of truth (f = image side / g), so the mask losses, whose terms
are sums over pixels, need only the count n of foreground pixels per block:
the pixel BCE is -mean(n log m + (f^2 - n) log(1 - m)) / f^2, and the soft
IoU sums m * n, f^2 * m and n.  These are the per-pixel losses of the
nearest-neighbor upsampled map, exactly; only the float summation order
differs.  ``mask_fraction`` reduces truth to n / f^2 once, and both losses
take the patch map with that fraction; the trainer reduces the whole train
split once per session, since its masks never change.  The training
objective w_bce * BCE + w_iou * soft-IoU + w_clt * CL_t + w_cls * CL_s (all
default weights 1) is summed in ``mca.trainer.step_objective``, from the
terms its variant computes; this module supplies the two mask terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ContractError, ShapeError
from .metrics import block_counts
from .tensor import (
    Tensor,
    add,
    clamp,
    div,
    get_default_dtype,
    linear,
    log,
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


def mask_fraction(truth: np.ndarray, grid: Tuple[int, int]) -> np.ndarray:
    """Binary truth [..., H, W] -> foreground fraction n / f^2 per block [..., gh, gw].

    Each block is the f x f square of truth that one patch probability
    covers (``metrics.block_counts``); the fraction has the session width.
    """
    counts = block_counts(truth, grid)
    return (counts / (truth.shape[-1] // grid[-1]) ** 2).astype(get_default_dtype())


def decode_mask(xn: Tensor, w: DecoderWeights) -> Tensor:
    """[..., K, d] final tokens -> [..., g, g] patch probabilities (K = g * g)."""
    *lead, k, d = xn.shape
    grid = math.isqrt(k)
    if grid * grid != k:
        raise ShapeError(f"token count {k} is not a square grid")
    if w.w.shape != (d, 1):
        raise ShapeError(f"decoder width {w.w.shape} vs token width {d}")
    return sigmoid(reshape(linear(xn, w.w, w.b) * LOGIT_GAIN, (*lead, grid, grid)))


def bce_loss(m: Tensor, fraction: np.ndarray) -> Tensor:
    """Mean pixel binary cross-entropy, the prediction clamped away from {0, 1}.

    ``m`` is the patch map [..., g, g] and ``fraction`` its ``mask_fraction``.
    With p = n / f^2 per block this is -mean(p log m + (1 - p) log(1 - m))
    over the blocks, the mean over every pixel.  Over a batch of
    equal-sized maps it is the mean of the per-map losses.
    """
    if m.shape != fraction.shape:
        raise ContractError(f"mask shapes disagree: {m.shape} vs {fraction.shape}")
    m = clamp(m, BCE_CLAMP, 1.0 - BCE_CLAMP)
    term = mul(fraction, log(m)) + mul(1.0 - fraction, log(sub(1.0, m)))
    return neg(mean_all(term))


def iou_loss(m: Tensor, fraction: np.ndarray) -> Tensor:
    """Pixel soft IoU loss 1 - sum(m*g) / (sum(m) + sum(g) - sum(m*g)), per map.

    On the grid the sums are inter = sum(m n), pred_sum = f^2 sum(m) and
    gt_sum = sum(n); the ratio is taken with all three divided by f^2.  A
    batch [..., g, g] scores the mean of its per-map losses, not the IoU
    of the pooled pixels.  A map whose truth and prediction are both empty
    (all exactly 0) scores 0 by convention, with a zero gradient: its ratio
    is taken as 0/1 instead of 0/0, and its 1 is dropped.
    """
    if m.shape != fraction.shape:
        raise ContractError(f"mask shapes disagree: {m.shape} vs {fraction.shape}")
    lead, cells = m.shape[:-2], m.shape[-2] * m.shape[-1]
    p = fraction.reshape(*lead, cells)
    m = reshape(m, (*lead, cells))
    gt_sum = p.sum(axis=-1)
    pred_sum = sum_axis(m, -1)
    empty = ((gt_sum == 0.0) & (pred_sum.data == 0.0)).astype(pred_sum.data.dtype)
    inter = sum_axis(mul(m, p), -1)
    union = sub(pred_sum + gt_sum, inter)
    ratio = div(inter, add(union, empty))
    return mean_all(sub(1.0 - empty, ratio))

