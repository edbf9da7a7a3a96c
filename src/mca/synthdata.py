"""Synthetic camouflage-style and shadow-style scene generation.

Every (image, mask) is a pure function of (SceneSpec, integer seed).
``generate_split`` describes a dataset's two splits, and ``write_dataset``
writes each sample before it draws the next, so generation holds one
sample at a time.  A ``Split`` read back from disk holds its stacked masks
and ids, and reads each image when it is indexed.  Backgrounds
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
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, List, Tuple

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
    """A split in manifest order: its images and its stacked masks."""

    images: Sequence          # [3, H, W] float32 in [0, 1], one per id (``SplitImages``)
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


@dataclass(frozen=True)
class Draws:
    """One generated split, drawn a sample at a time when iterated."""

    name: str    # "train" or "test"
    index: int   # the split's word in each derived seed
    spec: SceneSpec
    seed: int
    n: int

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[Tuple[str, np.ndarray, np.ndarray]]:
        """(id, image, mask) in id order; sample i is drawn from its derived seed."""
        for i in range(self.n):
            image, mask = generate_sample(self.spec, _derived_seed(self.seed, self.index, i))
            yield f"{self.name}_{i:04d}", image, mask


def generate_split(spec: SceneSpec, n_train: int, n_test: int, seed: int) -> Tuple[Draws, Draws]:
    """Disjoint seed streams for train and test; unique ids.  Draws nothing yet."""
    if n_train < 1 or n_test < 1:
        raise ContractError("split counts must be >= 1")
    if seed < 0:
        raise ContractError(f"seed must be >= 0, got {seed}")
    return Draws("train", 0, spec, seed, n_train), Draws("test", 1, spec, seed, n_test)


# ---------------------------------------------------------------------------
# dataset directory layout: root/{train,test}/{images,masks}/<id>.{ppm,pgm}
# plus a per-split manifest.txt with one id per line
# ---------------------------------------------------------------------------

def write_dataset(root: str, train: Draws, test: Draws) -> None:
    """Write each sample as it is drawn, and each split's manifest after its samples."""
    for draws in (train, test):
        base = os.path.join(root, draws.name)
        os.makedirs(os.path.join(base, "images"), exist_ok=True)
        os.makedirs(os.path.join(base, "masks"), exist_ok=True)
        ids = []
        for sid, image, mask in draws:
            save_ppm(os.path.join(base, "images", f"{sid}.ppm"), image)
            save_pgm(os.path.join(base, "masks", f"{sid}.pgm"), mask)
            ids.append(sid)
        with open(os.path.join(base, "manifest.txt"), "w", encoding="ascii") as f:
            f.writelines(sid + "\n" for sid in ids)


class SplitImages(Sequence):
    """A split's images on disk, each read by ``load_ppm`` when indexed.

    A slice reads a list.  Every image must have the shape of the split's
    first; the refusal names the image and fires when it is read.
    """

    def __init__(self, base: str, split: str, ids: List[str], shape: Tuple[int, ...]):
        self._base, self._split, self._ids, self._shape = base, split, ids, shape

    def __len__(self) -> int:
        return len(self._ids)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        sid = self._ids[index]
        image = load_ppm(os.path.join(self._base, "images", f"{sid}.ppm"))
        if image.shape != self._shape:
            raise DataParseError(f"{self._split} image {sid!r} is {image.shape}, "
                                 f"not {self._shape} like image {self._ids[0]!r}")
        return image


def load_split(root: str, split: str) -> Split:
    """A split in manifest order: its masks read now, each image when it is indexed.

    Every image and mask must have the size of the first image: a mask of
    another size is refused here, an image when it is read.
    """
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
    shape = load_ppm(os.path.join(base, "images", f"{ids[0]}.ppm")).shape
    masks = np.empty((len(ids),) + shape[1:], dtype=np.uint8)
    for k, sid in enumerate(ids):
        mask = load_mask(os.path.join(base, "masks", f"{sid}.pgm"))
        if mask.shape != shape[1:]:
            raise DataParseError(f"{split} mask {sid!r} is {mask.shape}, "
                                 f"not {shape[1:]} like image {ids[0]!r}")
        masks[k] = mask
    return Split(SplitImages(base, split, ids, shape), masks, ids)
