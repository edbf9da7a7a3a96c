"""Synthetic camouflage-style and shadow-style scene generation.

Every (image, mask) is a pure function of (SceneSpec, integer seed); a
``Split`` holds a split's images, stacked masks and ids.  Backgrounds
are value noise summed over OCTAVES octaves from BASE_FREQUENCY (each octave
doubles the frequency and scales the amplitude by NOISE_AMPLITUDE);
foregrounds are unions of BLOB_COUNT_RANGE wobbly blobs whose radii are
drawn from RADIUS_RANGE.  The contrast gap controls how separable
foreground statistics are from the background: at gap 0 the foreground
texture is moment-matched to the background (statistically camouflaged),
at larger gaps the foreground mean is shifted away from the background mean
by the gap itself.  The shift direction is drawn per image (camouflage
kind), so region detection cannot be reduced to a single global intensity
threshold; the shadow kind always dims (multiplicative, proportional to the
gap).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .errors import ConfigError, ContractError, DataParseError
from .netpbm import load_mask, load_ppm, save_pgm, save_ppm

OCCUPANCY_RANGE = (0.05, 0.60)   # valid foreground fraction per mask
TEXTURE_RANGE = (0.15, 0.85)     # background texture is stretched into this
SHADOW_STRENGTH = 0.92           # max multiplicative dimming at gap 1
TINT_RANGE = (0.92, 1.08)        # per-channel color tint draw range
BASE_FREQUENCY = 8               # value-noise lattice cells per side, first octave
OCTAVES = 3
NOISE_AMPLITUDE = 0.5            # per-octave amplitude decay
FREQUENCY_JITTER = (-1, 1)       # per-image offset added to BASE_FREQUENCY
BLOB_COUNT_RANGE = (1, 3)        # blobs per mask, inclusive
RADIUS_RANGE = (0.16, 0.30)      # blob radius as a fraction of the side
MAX_ATTEMPTS = 10                # mask regeneration budget per sample

KINDS = ("camouflage", "shadow")


@dataclass(frozen=True)
class SceneSpec:
    kind: str = "camouflage"
    image_size: int = 64
    contrast_gap: float = 0.3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"scene kind must be one of {KINDS}, got {self.kind!r}")
        if not 0.0 <= self.contrast_gap <= 1.0:
            raise ConfigError(f"contrast gap must lie in [0, 1], got {self.contrast_gap}")
        if self.image_size < 8:
            raise ConfigError("image_size must be at least 8")


@dataclass
class Split:
    """A split in manifest order: its images as loaded and its stacked masks."""

    images: List[np.ndarray]  # [3, H, W] float32 in [0, 1], one array per id
    masks: np.ndarray         # [N, H, W] uint8 {0, 1}
    ids: List[str]

    def __len__(self) -> int:
        return len(self.ids)


def _bilinear_lattice(lattice: np.ndarray, size: int) -> np.ndarray:
    """Upsample an (n+1) x (n+1) control lattice to size x size."""
    n = lattice.shape[0] - 1
    coords = (np.arange(size) + 0.5) / size * n
    i0 = np.minimum(coords.astype(int), n - 1)
    frac = coords - i0
    i1 = i0 + 1
    rows = lattice[i0][:, i0] * (1 - frac)[:, None] * (1 - frac)[None, :]
    rows += lattice[i0][:, i1] * (1 - frac)[:, None] * frac[None, :]
    rows += lattice[i1][:, i0] * frac[:, None] * (1 - frac)[None, :]
    rows += lattice[i1][:, i1] * frac[:, None] * frac[None, :]
    return rows


def _value_noise(
    rng: np.random.Generator, spec: SceneSpec, base_frequency: int
) -> np.ndarray:
    """Octave-summed value noise stretched into TEXTURE_RANGE."""
    acc = np.zeros((spec.image_size, spec.image_size))
    amp, total, freq = 1.0, 0.0, base_frequency
    for _ in range(OCTAVES):
        lattice = rng.random((freq + 1, freq + 1))
        acc += amp * _bilinear_lattice(lattice, spec.image_size)
        total += amp
        amp *= NOISE_AMPLITUDE
        freq *= 2
    acc /= total
    lo, hi = TEXTURE_RANGE
    span = acc.max() - acc.min()
    return lo + (hi - lo) * (acc - acc.min()) / (span + 1e-12)


def _blob_mask(rng: np.random.Generator, spec: SceneSpec) -> np.ndarray:
    """Union of 1..n wobbly-radius blobs as a boolean mask."""
    size = spec.image_size
    yy, xx = np.mgrid[0:size, 0:size].astype(float)
    n_blobs = int(rng.integers(BLOB_COUNT_RANGE[0], BLOB_COUNT_RANGE[1] + 1))
    mask = np.zeros((size, size), dtype=bool)
    for _ in range(n_blobs):
        cy, cx = rng.uniform(0.18, 0.82, 2) * size
        radius = rng.uniform(*RADIUS_RANGE) * size
        amps = rng.uniform(0.2, 1.0, 3)
        phases = rng.uniform(0.0, 2.0 * np.pi, 3)
        theta = np.arctan2(yy - cy, xx - cx)
        wobble = np.zeros_like(theta)
        for k in range(3):
            wobble += amps[k] * np.cos((k + 1) * theta + phases[k])
        wobble *= 0.30 / amps.sum()
        dist = np.hypot(yy - cy, xx - cx)
        mask |= dist <= radius * (1.0 + wobble)
    return mask


def _render(rng: np.random.Generator, mask: np.ndarray, spec: SceneSpec) -> np.ndarray:
    gap = spec.contrast_gap
    # Per-image texture scale: foreground and background share it, so the
    # re-textured foreground stays in the same distribution family.
    jitter = int(rng.integers(FREQUENCY_JITTER[0], FREQUENCY_JITTER[1] + 1))
    freq = max(1, BASE_FREQUENCY + jitter)
    bg = _value_noise(rng, spec, freq)
    if spec.kind == "camouflage":
        fg0 = _value_noise(rng, spec, freq)
        inside, outside = fg0[mask], bg[~mask]
        # Moment-match the foreground texture to the background region so the
        # two regions share mean/std exactly at gap 0, then shift the
        # foreground mean by the gap in a per-image random direction.
        matched = (fg0 - inside.mean()) / (inside.std() + 1e-9)
        matched = matched * outside.std() + outside.mean()
        direction = 1.0 if rng.random() < 0.5 else -1.0
        fg = np.clip(matched + direction * gap, 0.0, 1.0)
        gray = np.where(mask, fg, bg)
    else:
        gray = bg * np.where(mask, 1.0 - SHADOW_STRENGTH * gap, 1.0)
    tints = rng.uniform(*TINT_RANGE, 3)
    img = np.clip(gray[None, :, :] * tints[:, None, None], 0.0, 1.0)
    return img.astype(np.float32)


def _sample_rng(seed: int, attempt: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=(attempt,)))
    )


def generate_sample(spec: SceneSpec, seed: int) -> Tuple[np.ndarray, np.ndarray]:
    """Deterministic (image, mask); regenerates degenerate masks on derived seeds."""
    lo, hi = OCCUPANCY_RANGE
    for attempt in range(MAX_ATTEMPTS):
        rng = _sample_rng(seed, attempt)
        mask = _blob_mask(rng, spec)
        occupancy = mask.mean()
        if lo <= occupancy <= hi:
            return _render(rng, mask, spec), mask.astype(np.uint8)
    raise ContractError(
        f"mask occupancy outside [{lo}, {hi}] after {MAX_ATTEMPTS} attempts (seed {seed})"
    )


def _derived_seed(master_seed: int, split_index: int, i: int) -> int:
    words = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(split_index, i)
    ).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def generate_split(spec: SceneSpec, n_train: int, n_test: int, seed: int) -> Tuple[Split, Split]:
    """Disjoint seed streams for train and test; unique ids."""
    if n_train < 1 or n_test < 1:
        raise ContractError("split counts must be >= 1")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    splits = []
    for index, (name, n) in enumerate((("train", n_train), ("test", n_test))):
        images, masks = zip(*(generate_sample(spec, _derived_seed(seed, index, i))
                              for i in range(n)))
        splits.append(Split(list(images), np.stack(masks), [f"{name}_{i:04d}" for i in range(n)]))
    return splits[0], splits[1]


# ---------------------------------------------------------------------------
# dataset directory layout: root/{train,test}/{images,masks}/<id>.{ppm,pgm}
# plus a per-split manifest.txt with one id per line
# ---------------------------------------------------------------------------

def write_split(root: str, name: str, split: Split) -> None:
    base = os.path.join(root, name)
    os.makedirs(os.path.join(base, "images"), exist_ok=True)
    os.makedirs(os.path.join(base, "masks"), exist_ok=True)
    for sid, image, mask in zip(split.ids, split.images, split.masks):
        save_ppm(os.path.join(base, "images", f"{sid}.ppm"), image)
        save_pgm(os.path.join(base, "masks", f"{sid}.pgm"), mask)
    with open(os.path.join(base, "manifest.txt"), "w", encoding="ascii") as f:
        f.writelines(sid + "\n" for sid in split.ids)


def write_dataset(root: str, train: Split, test: Split) -> None:
    write_split(root, "train", train)
    write_split(root, "test", test)


def load_split(root: str, split: str) -> Split:
    """Load a split in manifest order; every image and mask must share one size."""
    base = os.path.join(root, split)
    manifest = os.path.join(base, "manifest.txt")
    if not os.path.exists(manifest):
        raise DataParseError(f"missing manifest: {manifest}")
    try:
        with open(manifest, "r", encoding="ascii") as f:
            ids = [line.strip() for line in f if line.strip()]
    except UnicodeDecodeError as exc:
        raise DataParseError(f"manifest is not ASCII text: {manifest}") from exc
    if not ids:
        raise DataParseError(f"empty manifest: {manifest}")
    images, masks = [], []
    for sid in ids:
        image = load_ppm(os.path.join(base, "images", f"{sid}.ppm"))
        mask = load_mask(os.path.join(base, "masks", f"{sid}.pgm"))
        shape = images[0].shape if images else image.shape
        for kind, got, want in (("image", image.shape, shape), ("mask", mask.shape, shape[1:])):
            if got != want:
                raise DataParseError(f"{split} {kind} {sid!r} is {got}, "
                                     f"not {want} like image {ids[0]!r}")
        images.append(image)
        masks.append(mask)
    return Split(images, np.stack(masks), ids)
