"""Photometric/geometric augmentations producing positive views.

One augmented view applies exactly one operation kind, drawn uniformly from
the strategy set; op parameters are drawn from fixed documented ranges.
Masks are never augmented: views feed only the sample-level contrastive
branch.  All functions are pure given an explicit numpy Generator, return the
input shape, and clamp output to [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

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


def _draw_factor(rng: np.random.Generator) -> float:
    return float(rng.uniform(*JITTER_RANGE))


def color_jitter(
    img: np.ndarray,
    brightness: Optional[float] = None,
    contrast: Optional[float] = None,
    saturation: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Sequential brightness scale, contrast blend toward the per-image mean,
    saturation blend toward per-pixel gray; clamped to [0, 1] after each step.

    Factors not given are drawn uniformly from JITTER_RANGE using ``rng``.
    """
    img = _check_image(img)
    if rng is None and (brightness is None or contrast is None or saturation is None):
        raise ConfigError("color_jitter needs an rng when factors are not fixed")
    b = _draw_factor(rng) if brightness is None else float(brightness)
    c = _draw_factor(rng) if contrast is None else float(contrast)
    s = _draw_factor(rng) if saturation is None else float(saturation)
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


def random_shift(
    img: np.ndarray,
    dx: Optional[int] = None,
    dy: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    extent: Optional[int] = None,
) -> np.ndarray:
    """Integer translation by (dx right, dy down) with zero padding.

    Offsets not given are drawn uniformly from [-extent, extent] using
    ``rng``; the default extent is SHIFT_FRACTION of the image side.
    """
    img = _check_image(img)
    _, h, w = img.shape
    if extent is None:
        extent = int(round(SHIFT_FRACTION * w))
    if extent >= min(h, w):
        raise ConfigError(f"shift extent {extent} must be smaller than image side {min(h, w)}")
    if rng is None and (dx is None or dy is None):
        raise ConfigError("random_shift needs an rng when offsets are not fixed")
    if dx is None:
        dx = int(rng.integers(-extent, extent + 1))
    if dy is None:
        dy = int(rng.integers(-extent, extent + 1))
    if abs(dx) > extent or abs(dy) > extent:
        raise ConfigError(f"shift ({dx}, {dy}) exceeds extent {extent}")
    out = np.zeros_like(img)
    src_y = slice(max(0, -dy), h - max(0, dy))
    dst_y = slice(max(0, dy), h - max(0, -dy))
    src_x = slice(max(0, -dx), w - max(0, dx))
    dst_x = slice(max(0, dx), w - max(0, -dx))
    out[:, dst_y, dst_x] = img[:, src_y, src_x]
    return out


def sample_view(img: np.ndarray, strategy: AugmentStrategy,
                rng: np.random.Generator) -> np.ndarray:
    """One op kind drawn uniformly from the strategy, applied once."""
    img = _check_image(img)
    kind = strategy.ops[int(rng.integers(len(strategy.ops)))]
    if kind == "CJ":
        return color_jitter(img, rng=rng)
    if kind == "Gray":
        return grayscale(img)
    return random_shift(img, rng=rng)
