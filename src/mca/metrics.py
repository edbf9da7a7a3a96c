"""Segmentation evaluation metrics: MAE, S-measure, E-measure, BER, Dice, IoU.

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
    alpha_t = 0.  Blocks are weighted by pixel area.
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
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from .errors import ContractError, UndefinedMetricError

EPS = 1e-12
THRESHOLD = 0.5   # one binarization for BER, Dice, IoU and dumped masks
METRIC_NAMES = ("mae", "s_measure", "e_measure", "ber", "dice", "iou")
CSV_HEADER = ("image",) + METRIC_NAMES


@dataclass
class EvalPair:
    """Prediction map in [0, 1] and binary ground truth of equal shape."""

    prediction: np.ndarray
    ground_truth: np.ndarray

    def __post_init__(self):
        self.prediction = np.asarray(self.prediction, dtype=np.float64)
        self.ground_truth = np.asarray(self.ground_truth, dtype=np.float64)
        if self.prediction.shape != self.ground_truth.shape or self.prediction.ndim != 2:
            raise ContractError(
                f"evaluation pair needs equal 2-D shapes, got "
                f"{self.prediction.shape} vs {self.ground_truth.shape}"
            )
        bad = int(np.count_nonzero(~np.isfinite(self.prediction)))
        if bad:
            raise ContractError(f"prediction map has {bad} non-finite values")
        if np.any((self.prediction < 0) | (self.prediction > 1)):
            raise ContractError("prediction map must lie in [0, 1]")
        g = self.ground_truth
        if not np.all((g == 0) | (g == 1)):
            raise ContractError("ground truth must be binary {0, 1}")


def mae(pair: EvalPair) -> float:
    """Mean absolute error over all pixels."""
    return float(np.abs(pair.ground_truth - pair.prediction).mean())


def _s_object(pair: EvalPair) -> float:
    s, g = pair.prediction, pair.ground_truth
    mu = g.mean()
    x_fg = s[g == 1].mean() if mu > 0 else 0.0
    x_bg = (1.0 - s)[g == 0].mean() if mu < 1 else 0.0
    o_fg = 2.0 * x_fg / (x_fg * x_fg + 1.0)
    o_bg = 2.0 * x_bg / (x_bg * x_bg + 1.0)
    return float(mu * o_fg + (1.0 - mu) * o_bg)


def _ssim_block(x: np.ndarray, y: np.ndarray) -> float:
    n = x.size
    mx, my = x.mean(), y.mean()
    if n > 1:
        vx = x.var(ddof=1)
        vy = y.var(ddof=1)
        cxy = ((x - mx) * (y - my)).sum() / (n - 1)
    else:
        vx = vy = cxy = 0.0
    alpha_t = 4.0 * mx * my * cxy
    beta_t = (mx * mx + my * my) * (vx + vy)
    if alpha_t != 0.0:
        return float(alpha_t / (beta_t + EPS))
    if beta_t == 0.0:
        return 1.0
    return 0.0


def _centroid(g: np.ndarray) -> tuple:
    h, w = g.shape
    total = g.sum()
    if total == 0:
        cy, cx = h // 2, w // 2
    else:
        ys, xs = np.mgrid[0:h, 0:w]
        cy = int(round((ys * g).sum() / total))
        cx = int(round((xs * g).sum() / total))
    # Clamp the split point so all four blocks are nonempty.
    return min(max(cy, 1), h - 1), min(max(cx, 1), w - 1)


def _s_region(pair: EvalPair) -> float:
    s, g = pair.prediction, pair.ground_truth
    h, w = g.shape
    cy, cx = _centroid(g)
    total = float(h * w)
    score = 0.0
    for ys, xs in ((slice(0, cy), slice(0, cx)), (slice(0, cy), slice(cx, w)),
                   (slice(cy, h), slice(0, cx)), (slice(cy, h), slice(cx, w))):
        sb, gb = s[ys, xs], g[ys, xs]
        score += (sb.size / total) * _ssim_block(sb, gb)
    return score


def s_measure(pair: EvalPair, alpha: float = 0.5) -> float:
    """Structure measure: alpha * S_object + (1 - alpha) * S_region in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
    mu = pair.ground_truth.mean()
    if mu == 0.0:
        val = 1.0 - pair.prediction.mean()
    elif mu == 1.0:
        val = pair.prediction.mean()
    else:
        val = alpha * _s_object(pair) + (1.0 - alpha) * _s_region(pair)
    return float(min(max(val, 0.0), 1.0))


def e_measure(pair: EvalPair) -> float:
    """Mean enhanced-alignment value over all pixels."""
    s, g = pair.prediction, pair.ground_truth
    if np.all(g == 0):
        enhanced = 1.0 - s
    elif np.all(g == 1):
        enhanced = s
    else:
        phi_g = g - g.mean()
        phi_s = s - s.mean()
        xi = 2.0 * phi_g * phi_s / (phi_g * phi_g + phi_s * phi_s + EPS)
        enhanced = (xi + 1.0) ** 2 / 4.0
    return float(enhanced.mean())


def _confusion(pair: EvalPair):
    pred = pair.prediction >= THRESHOLD
    gt = pair.ground_truth == 1
    tp = int(np.count_nonzero(pred & gt))
    tn = int(np.count_nonzero(~pred & ~gt))
    fp = int(np.count_nonzero(pred & ~gt))
    fn = int(np.count_nonzero(~pred & gt))
    return tp, tn, fp, fn


def ber(pair: EvalPair) -> float:
    """Balanced error rate in percent; truth must contain both classes."""
    tp, tn, fp, fn = _confusion(pair)
    if tp + fn == 0 or tn + fp == 0:
        raise UndefinedMetricError("BER undefined for single-class ground truth")
    recall_pos = tp / (tp + fn)
    recall_neg = tn / (tn + fp)
    return float(100.0 * (1.0 - 0.5 * (recall_pos + recall_neg)))


def dice_iou(pair: EvalPair) -> tuple:
    """(Dice, IoU) of the thresholded prediction; both-empty scores (1, 1)."""
    tp, _tn, fp, fn = _confusion(pair)
    union = tp + fp + fn
    if union == 0:
        return 1.0, 1.0
    return float(2.0 * tp / (union + tp)), float(tp / union)


@dataclass
class MetricReport:
    """Per-image metric rows plus their arithmetic means."""

    rows: List[Dict[str, object]]
    means: Dict[str, float]


def evaluate_dataset(pairs: Sequence[EvalPair], names: Sequence[str]) -> MetricReport:
    """Score every pair and aggregate arithmetic means, in input order."""
    if len(pairs) == 0:
        raise ContractError("evaluate_dataset needs at least one pair")
    if len(names) != len(pairs):
        raise ContractError("names and pairs must have equal length")
    rows: List[Dict[str, object]] = []
    for name, pair in zip(names, pairs):
        d, i = dice_iou(pair)
        rows.append({
            "image": str(name),
            "mae": mae(pair),
            "s_measure": s_measure(pair),
            "e_measure": e_measure(pair),
            "ber": ber(pair),
            "dice": d,
            "iou": i,
        })
    means = {m: float(np.mean([r[m] for r in rows])) for m in METRIC_NAMES}
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

