"""Photometric/geometric augmentations producing positive views.

One augmented view applies exactly one operation kind, drawn uniformly from
the strategy set.  ``sample_view`` is the one place that draws: the kind,
then the op's parameters from the fixed ranges JITTER_RANGE and
SHIFT_FRACTION.  The ops themselves are pure functions of their required
parameters.  Masks are never augmented: views feed only the sample-level
contrastive branch.  Every op returns the input shape, clamped to [0, 1].

A view's bits depend on its input's memory layout, not only its values:
``color_jitter``'s mean sums in memory order.  The trainer passes each
image exactly as ``load_ppm`` returned it (channel-last in memory).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConfigError, ShapeError

KINDS = ("CJ", "Gray", "RS")
JITTER_RANGE = (0.6, 1.4)   # brightness/contrast/saturation factor draw range
SHIFT_FRACTION = 0.1        # max shift as a fraction of the image side

_LUMA = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class AugmentStrategy:
    """Nonempty subset of the three op kinds."""

    ops: Tuple[str, ...]

    def __post_init__(self):
        if not self.ops:
            raise ConfigError("augmentation strategy must name at least one op")
        for op in self.ops:
            if op not in KINDS:
                raise ConfigError(f"unknown augmentation kind {op!r}; valid: {KINDS}")
        if len(set(self.ops)) != len(self.ops):
            raise ConfigError(f"duplicate augmentation kind in {self.ops}")


def parse_strategy(text: str) -> AugmentStrategy:
    """Parse 'CJ+RS' style strategy strings."""
    parts = tuple(p.strip() for p in text.split("+") if p.strip())
    return AugmentStrategy(ops=parts)


def _check_image(img: np.ndarray) -> np.ndarray:
    img = np.asarray(img)
    if img.ndim != 3 or img.shape[0] != 3:
        raise ShapeError(f"augmentations need [3, H, W] images, got {img.shape}")
    return img


def _luma(img: np.ndarray) -> np.ndarray:
    return np.tensordot(_LUMA.astype(img.dtype), img, axes=1)


def color_jitter(img: np.ndarray, brightness: float, contrast: float,
                 saturation: float) -> np.ndarray:
    """Sequential brightness scale, contrast blend toward the per-image mean,
    saturation blend toward per-pixel gray; clamped to [0, 1] after each step.
    """
    img = _check_image(img)
    b, c, s = float(brightness), float(contrast), float(saturation)
    for name, f in (("brightness", b), ("contrast", c), ("saturation", s)):
        if f < 0:
            raise ConfigError(f"{name} factor must be nonnegative, got {f}")
    out = np.clip(img * b, 0.0, 1.0)
    mean = out.mean()
    out = np.clip(mean + c * (out - mean), 0.0, 1.0)
    gray = _luma(out)[None, :, :]
    out = np.clip(gray + s * (out - gray), 0.0, 1.0)
    return out.astype(img.dtype)


def grayscale(img: np.ndarray) -> np.ndarray:
    """Luma 0.299 R + 0.587 G + 0.114 B replicated to all three channels."""
    img = _check_image(img)
    gray = _luma(img)
    return np.clip(np.broadcast_to(gray, img.shape), 0.0, 1.0).astype(img.dtype)


def random_shift(img: np.ndarray, dx: int, dy: int) -> np.ndarray:
    """Integer translation by (dx right, dy down) with zero padding."""
    img = _check_image(img)
    _, h, w = img.shape
    out = np.zeros_like(img)
    src_y = slice(max(0, -dy), h - max(0, dy))
    dst_y = slice(max(0, dy), h - max(0, -dy))
    src_x = slice(max(0, -dx), w - max(0, dx))
    dst_x = slice(max(0, dx), w - max(0, -dx))
    out[:, dst_y, dst_x] = img[:, src_y, src_x]
    return out


def sample_view(img: np.ndarray, strategy: AugmentStrategy,
                rng: np.random.Generator) -> np.ndarray:
    """One op kind drawn uniformly from the strategy, applied once.

    Draws, in order: the kind; then for CJ the brightness, contrast and
    saturation factors from JITTER_RANGE, or for RS the offsets dx, dy from
    [-e, e] with e = round(SHIFT_FRACTION * width).
    """
    img = _check_image(img)
    kind = strategy.ops[int(rng.integers(len(strategy.ops)))]
    if kind == "CJ":
        b, c, s = (float(rng.uniform(*JITTER_RANGE)) for _ in range(3))
        return color_jitter(img, b, c, s)
    if kind == "Gray":
        return grayscale(img)
    e = int(round(SHIFT_FRACTION * img.shape[2]))
    dx, dy = (int(rng.integers(-e, e + 1)) for _ in range(2))
    return random_shift(img, dx, dy)
