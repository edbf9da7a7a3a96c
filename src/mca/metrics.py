"""Segmentation evaluation metrics: MAE, S-measure, E-measure, BER, Dice, IoU.

Every metric scores a map on a grid (``EvalPair``): a prediction entry
stands for each pixel of its f x f block of truth, so each pixel sum is a
sum over blocks weighted by the block's integer foreground count n (of f^2
pixels).  These are the metrics of the nearest-neighbor upsampled map;
only the float summation order differs.  A map of pixels is the case
f = 1, and a stack of N maps is scored in one pass, one value per map.

Conventions pinned here (and mirrored by the brute-force oracles in tests):

* S-measure: alpha * S_object + (1 - alpha) * S_region, alpha default 0.5.
  - All-background truth scores 1 - mean(S); all-foreground scores mean(S).
  - S_object = mu * 2 x/(x^2 + 1) on the foreground (x = mean of S where
    G = 1) plus (1 - mu) * the same on the background (x = mean of 1 - S
    where G = 0), with mu = mean(G).
  - S_region: split both maps into 4 blocks at the ground-truth centroid
    (rounded, clamped so every block is nonempty), compare blocks with the
    SSIM-style score alpha_t / (beta_t + eps) where alpha_t = 4 xbar ybar
    s_xy and beta_t = (xbar^2 + ybar^2)(s_x + s_y) (sample statistics,
    ddof=1); a block scores 1 when alpha_t = 0 and beta_t = 0, else 0 when
    alpha_t = 0.  Blocks are weighted by pixel area.  A prediction whose
    values in a block are all equal has variance and covariance exactly 0
    there, whatever the rounding of its mean.
  - Final value clamped into [0, 1].
* E-measure: mean over all W*H pixels of (xi + 1)^2 / 4 with
  xi = 2 phi_G phi_S / (phi_G^2 + phi_S^2 + eps), phi_X = X - mean(X);
  all-zero truth uses 1 - S as the enhanced matrix, all-one truth uses S.
* BER: binarize S at THRESHOLD (>= THRESHOLD is positive), then
  100 * (1 - (TP/(TP+FN) + TN/(TN+FP)) / 2); errors on single-class truth.
* Dice/IoU: same binarization; both-empty defined as (1, 1).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .errors import ContractError, UndefinedMetricError

EPS = 1e-12
THRESHOLD = 0.5   # one binarization for BER, Dice, IoU and dumped masks
SAT_BLOCK = 64    # maps per S_region summed-area table; each map's value is its own
METRIC_NAMES = ("mae", "s_measure", "e_measure", "ber", "dice", "iou")
CSV_HEADER = ("image",) + METRIC_NAMES


def block_counts(truth: np.ndarray, grid: Tuple[int, int]) -> np.ndarray:
    """Foreground pixels per block: binary truth [..., H, W] -> int counts [..., gh, gw].

    The blocks are square, f x f with f = H / gh = W / gw; any other shape,
    or truth with a value other than 0 and 1, is a ContractError.
    """
    *lead, h, w = truth.shape
    gh, gw = grid
    f = h // gh if gh else 0
    if f < 1 or (h, w) != (gh * f, gw * f):
        raise ContractError(f"mask shapes disagree: truth {truth.shape} does not tile "
                            f"the grid {tuple(grid)} in square blocks")
    # Summing each block's f rows first adds whole image rows, which numpy
    # vectorizes; one reduction over both block axes took about 2.5x longer.
    rows = (truth == 1).reshape(*lead, gh, f, w).sum(axis=-2, dtype=np.int64)
    counts = rows.reshape(*lead, gh, gw, f).sum(axis=-1)
    # Binary exactly when every nonzero value is a 1 that the counts hold.
    if np.count_nonzero(truth) != counts.sum():
        raise ContractError("ground truth must be binary {0, 1}")
    return counts


@dataclass
class EvalPair:
    """Prediction maps in [0, 1] and the binary ground truth they cover.

    One map or a stack: prediction [gh, gw] or [N, gh, gw], truth [H, W]
    or [N, H, W] with H = f * gh and W = f * gw, so each prediction entry
    covers an f x f block of truth (f = 1 pairs pixel with pixel).  The
    truth is reduced once to its integer foreground count per block.  A
    metric returns a float for one map and a float64 array [N] for a stack.
    """

    prediction: np.ndarray
    ground_truth: np.ndarray
    counts: np.ndarray = field(init=False)  # [..., gh, gw] foreground pixels per block

    def __post_init__(self):
        self.prediction = np.asarray(self.prediction, dtype=np.float64)
        self.ground_truth = np.asarray(self.ground_truth)
        pred, g = self.prediction, self.ground_truth
        if pred.ndim not in (2, 3) or g.ndim != pred.ndim or g.shape[:-2] != pred.shape[:-2]:
            raise ContractError(
                f"evaluation pair needs a map [gh, gw] or a stack [N, gh, gw] and truth "
                f"of the same rank, got {pred.shape} vs {g.shape}"
            )
        self.counts = block_counts(g, pred.shape[-2:])
        bad = np.count_nonzero(~np.isfinite(pred), axis=(-2, -1)).ravel()
        if bad.any():
            area = (g.shape[-2] // pred.shape[-2]) ** 2
            raise ContractError(f"prediction map has {bad[bad > 0][0] * area} non-finite values")
        if np.any((pred < 0) | (pred > 1)):
            raise ContractError("prediction map must lie in [0, 1]")


def _grid(pair: EvalPair):
    """Maps and counts as stacks [N, gh, gw], pixels per block, pixels per map."""
    gh, gw = pair.prediction.shape[-2:]
    area = (pair.ground_truth.shape[-2] // gh) ** 2
    return (pair.prediction.reshape(-1, gh, gw), pair.counts.reshape(-1, gh, gw),
            area, area * gh * gw)


def _per_map(pair: EvalPair, values: np.ndarray):
    """A float for one map, the array [N] for a stack."""
    return float(values[0]) if pair.prediction.ndim == 2 else np.asarray(values, np.float64)


def mae(pair: EvalPair):
    """Mean absolute error over all pixels."""
    m, n, area, pixels = _grid(pair)
    err = n * (1.0 - m) + (area - n) * m
    return _per_map(pair, err.sum(axis=(-2, -1)) / pixels)


def _s_object(m: np.ndarray, n: np.ndarray, area: int, pixels: int) -> np.ndarray:
    fg = n.sum(axis=(-2, -1))
    mu = fg / pixels
    x_fg = (n * m).sum(axis=(-2, -1)) / np.maximum(fg, 1)
    x_bg = ((area - n) * (1.0 - m)).sum(axis=(-2, -1)) / np.maximum(pixels - fg, 1)
    o_fg = 2.0 * x_fg / (x_fg * x_fg + 1.0)
    o_bg = 2.0 * x_bg / (x_bg * x_bg + 1.0)
    return mu * o_fg + (1.0 - mu) * o_bg


def _centroid_split(sums: np.ndarray, total: np.ndarray) -> np.ndarray:
    """Rounded centroid of foreground pixel sums [N, size] along their axis.

    The middle when there is no foreground; clamped so both sides are nonempty.
    """
    size = sums.shape[-1]
    at = np.rint(sums @ np.arange(size) / np.maximum(total, 1))
    return np.clip(np.where(total == 0, size // 2, at), 1, size - 1).astype(np.int64)


def _halves(split: np.ndarray, f: int, blocks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Start and end [N, 2, blocks] of each block inside [0, split) and [split, size)."""
    start, s = np.arange(blocks) * f, split[:, None]
    lo = np.stack([np.minimum(start, s), np.maximum(start, s)], axis=1)
    hi = np.stack([np.minimum(start + f, s), np.maximum(start + f, s)], axis=1)
    return lo, hi


def _s_region(m: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """S_region [N] of maps [N, gh, gw] against their binary truth [N, H, W]."""
    (gh, gw), (h, w) = m.shape[-2:], truth.shape[-2:]
    f, pixels = h // gh, h * w
    # sat[i, y, x]: foreground pixels of map i in rows < y and columns < x.
    sat = np.zeros((len(m), h + 1, w + 1), dtype=np.int32)
    sat[:, 1:, 1:] = truth  # binary, checked by EvalPair
    sat.cumsum(axis=-1, out=sat)
    sat.cumsum(axis=-2, out=sat)
    total = sat[:, h, w]
    y0, y1 = _halves(_centroid_split(np.diff(sat[:, :, w]), total), f, gh)
    x0, x1 = _halves(_centroid_split(np.diff(sat[:, h, :]), total), f, gw)
    # Axes [N, row half, column half, block row, block column]: the split
    # cuts at most one row and one column of blocks, so each block meets
    # each quadrant in a rectangle; cell is its pixel count, cell_fg its
    # foreground pixels.
    y0, y1 = y0[:, :, None, :, None], y1[:, :, None, :, None]
    x0, x1 = x0[:, None, :, None, :], x1[:, None, :, None, :]
    i = np.arange(len(m))[:, None, None, None, None]
    cell = (y1 - y0) * (x1 - x0)
    cell_fg = sat[i, y1, x1] - sat[i, y0, x1] - sat[i, y1, x0] + sat[i, y0, x0]
    x = m[:, None, None]
    size, ny = cell.sum(axis=(-2, -1)), cell_fg.sum(axis=(-2, -1))
    mx = (cell * x).sum(axis=(-2, -1)) / size
    my = ny / size
    dx = x - mx[..., None, None]
    # A prediction constant on a quadrant (equal values in every block it
    # meets) has variance and covariance exactly 0, however mx rounds.
    # Truth with a count of 0 or the quadrant's size has my exactly 0 or 1,
    # so its deviations, and with them its terms, are exactly 0 as they stand.
    met = cell > 0
    flat_x = (np.where(met, x, np.inf).min(axis=(-2, -1))
              == np.where(met, x, -np.inf).max(axis=(-2, -1)))
    dof = np.maximum(size - 1, 1)
    vx = np.where(flat_x, 0.0, (cell * dx * dx).sum(axis=(-2, -1)) / dof)
    vy = (ny * (1.0 - my) ** 2 + (size - ny) * my * my) / dof
    cxy = np.where(flat_x, 0.0,
                   (dx * (cell_fg - cell * my[..., None, None])).sum(axis=(-2, -1)) / dof)
    alpha_t = 4.0 * mx * my * cxy
    beta_t = (mx * mx + my * my) * (vx + vy)
    ssim = np.where(alpha_t != 0.0, alpha_t / (beta_t + EPS), np.where(beta_t == 0.0, 1.0, 0.0))
    part = (size / pixels * ssim).reshape(-1, 4)
    return part[:, 0] + part[:, 1] + part[:, 2] + part[:, 3]


def s_measure(pair: EvalPair, alpha: float = 0.5):
    """Structure measure: alpha * S_object + (1 - alpha) * S_region in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    m, n, area, pixels = _grid(pair)
    fg = n.sum(axis=(-2, -1))
    mean_s = m.mean(axis=(-2, -1))
    truth = pair.ground_truth.reshape(-1, *pair.ground_truth.shape[-2:])
    # The summed-area table is [N, H+1, W+1] int32: build it SAT_BLOCK maps at a time.
    region = np.concatenate([_s_region(m[k:k + SAT_BLOCK], truth[k:k + SAT_BLOCK])
                             for k in range(0, len(m), SAT_BLOCK)])
    mixed = alpha * _s_object(m, n, area, pixels) + (1.0 - alpha) * region
    val = np.where(fg == 0, 1.0 - mean_s, np.where(fg == pixels, mean_s, mixed))
    return _per_map(pair, np.clip(val, 0.0, 1.0))


def _enhanced(phi_g: np.ndarray, phi_s: np.ndarray) -> np.ndarray:
    xi = 2.0 * phi_g * phi_s / (phi_g * phi_g + phi_s * phi_s + EPS)
    return (xi + 1.0) ** 2 / 4.0


def e_measure(pair: EvalPair):
    """Mean enhanced-alignment value over all pixels."""
    m, n, area, pixels = _grid(pair)
    fg = n.sum(axis=(-2, -1))
    mu = (fg / pixels)[:, None, None]
    phi_s = m - m.mean(axis=(-2, -1), keepdims=True)
    # A block holds n truth pixels of 1 and area - n of 0, each kind with one value.
    mixed = n * _enhanced(1.0 - mu, phi_s) + (area - n) * _enhanced(-mu, phi_s)
    val = np.where(fg == 0, (1.0 - m).mean(axis=(-2, -1)),
                   np.where(fg == pixels, m.mean(axis=(-2, -1)),
                            mixed.sum(axis=(-2, -1)) / pixels))
    return _per_map(pair, val)


def _confusion(pair: EvalPair):
    """Integer tp, tn, fp, fn [N] of the maps binarized at THRESHOLD."""
    m, n, area, _ = _grid(pair)
    hit = m >= THRESHOLD
    tp = (n * hit).sum(axis=(-2, -1))
    fp = ((area - n) * hit).sum(axis=(-2, -1))
    fn = (n * ~hit).sum(axis=(-2, -1))
    tn = ((area - n) * ~hit).sum(axis=(-2, -1))
    return tp, tn, fp, fn


def ber(pair: EvalPair):
    """Balanced error rate in percent; truth must contain both classes."""
    tp, tn, fp, fn = _confusion(pair)
    if np.any((tp + fn == 0) | (tn + fp == 0)):
        raise UndefinedMetricError("BER undefined for single-class ground truth")
    return _per_map(pair, 100.0 * (1.0 - 0.5 * (tp / (tp + fn) + tn / (tn + fp))))


def dice_iou(pair: EvalPair):
    """(Dice, IoU) of the thresholded prediction; both-empty scores (1, 1)."""
    tp, _tn, fp, fn = _confusion(pair)
    union = tp + fp + fn
    dice = np.where(union == 0, 1.0, 2.0 * tp / np.maximum(union + tp, 1))
    iou = np.where(union == 0, 1.0, tp / np.maximum(union, 1))
    return _per_map(pair, dice), _per_map(pair, iou)


@dataclass
class MetricReport:
    """Per-image metric rows plus their arithmetic means."""

    rows: List[Dict[str, object]]
    means: Dict[str, float]


def evaluate_dataset(pair: EvalPair, names: Sequence[str]) -> MetricReport:
    """Score a stack of N maps and aggregate arithmetic means, in stack order."""
    if pair.prediction.ndim != 3 or len(pair.prediction) == 0:
        raise ContractError("evaluate_dataset needs a stack of at least one map")
    if len(names) != len(pair.prediction):
        raise ContractError("names and maps must have equal length")
    dice, iou = dice_iou(pair)
    columns = {"mae": mae(pair), "s_measure": s_measure(pair), "e_measure": e_measure(pair),
               "ber": ber(pair), "dice": dice, "iou": iou}
    rows: List[Dict[str, object]] = [
        {"image": str(name), **{m: float(columns[m][k]) for m in METRIC_NAMES}}
        for k, name in enumerate(names)
    ]
    means = {m: float(np.mean(columns[m])) for m in METRIC_NAMES}
    return MetricReport(rows=rows, means=means)


def report_to_csv(report: MetricReport) -> str:
    """Fixed 6-decimal CSV: one row per image plus a final MEAN row."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report.rows:
        writer.writerow([row["image"]] + [f"{row[m]:.6f}" for m in METRIC_NAMES])
    writer.writerow(["MEAN"] + [f"{report.means[m]:.6f}" for m in METRIC_NAMES])
    return buf.getvalue()
