"""Synthetic scene generator: determinism, difficulty control, disk layout."""

import os

import numpy as np
import pytest

from mca.errors import ConfigError, ContractError, DataParseError
from mca.synthdata import (
    KINDS,
    OCCUPANCY_RANGE,
    SceneSpec,
    _derived_seed,
    generate_sample,
    generate_split,
    load_split,
    write_dataset,
)


def _best_threshold_iou(img, mask):
    """Best single-threshold intensity rule, trying both polarities."""
    gray = img.mean(axis=0)
    best = 0.0
    for t in np.linspace(0.05, 0.95, 19):
        for pred in (gray > t, gray < t):
            inter = np.logical_and(pred, mask).sum()
            union = np.logical_or(pred, mask).sum()
            if union:
                best = max(best, inter / union)
    return best


def test_scene_spec_validation():
    assert KINDS == ("camouflage", "shadow")
    with pytest.raises(ConfigError):
        SceneSpec(kind="edges")
    with pytest.raises(ConfigError):
        SceneSpec(contrast_gap=1.5)
    with pytest.raises(ConfigError):
        SceneSpec(image_size=4)


def test_sample_is_bit_deterministic():
    spec = SceneSpec(kind="camouflage", image_size=32)
    a = generate_sample(spec, 123)
    b = generate_sample(spec, 123)
    np.testing.assert_array_equal(a.image, b.image)
    np.testing.assert_array_equal(a.mask, b.mask)
    c = generate_sample(spec, 124)
    assert np.any(a.image != c.image)


def test_sample_shapes_ranges_occupancy():
    spec = SceneSpec(kind="camouflage", image_size=32, contrast_gap=0.3)
    lo, hi = OCCUPANCY_RANGE
    for seed in range(30):
        s = generate_sample(spec, seed)
        assert s.image.shape == (3, 32, 32) and s.image.dtype == np.float32
        assert s.mask.shape == (32, 32) and s.mask.dtype == np.uint8
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert set(np.unique(s.mask)) <= {0, 1}
        assert lo <= s.mask.mean() <= hi


def test_gap_zero_regions_are_moment_matched():
    spec = SceneSpec(kind="camouflage", image_size=64, contrast_gap=0.0)
    for seed in range(20):
        s = generate_sample(spec, seed)
        gray = s.image.mean(axis=0)
        m = s.mask.astype(bool)
        assert abs(gray[m].mean() - gray[~m].mean()) < 0.02


def test_gap_one_is_threshold_separable():
    spec = SceneSpec(kind="camouflage", image_size=64, contrast_gap=1.0)
    for seed in range(20):
        s = generate_sample(spec, seed)
        assert _best_threshold_iou(s.image, s.mask.astype(bool)) > 0.9


def test_difficulty_is_monotone_in_gap():
    means = []
    for gap in (0.0, 0.5, 1.0):
        spec = SceneSpec(kind="camouflage", image_size=64, contrast_gap=gap)
        ious = [
            _best_threshold_iou(s.image, s.mask.astype(bool))
            for s in (generate_sample(spec, 1000 + i) for i in range(50))
        ]
        means.append(float(np.mean(ious)))
    assert means[0] < means[1] < means[2]
    assert means[0] < 0.6 and means[2] > 0.95


def test_shadow_darkens_masked_region():
    spec = SceneSpec(kind="shadow", image_size=32, contrast_gap=0.5)
    for seed in range(20):
        s = generate_sample(spec, seed)
        gray = s.image.mean(axis=0)
        m = s.mask.astype(bool)
        assert gray[m].mean() < gray[~m].mean()


def test_generate_split_counts_ids_and_determinism():
    spec = SceneSpec(kind="camouflage", image_size=32)
    train, test = generate_split(spec, 6, 3, seed=5)
    assert len(train) == 6 and len(test) == 3
    ids = [s.id for s in train + test]
    assert len(set(ids)) == 9
    assert train[0].id == "train_0000" and test[2].id == "test_0002"
    train2, test2 = generate_split(spec, 6, 3, seed=5)
    for a, b in zip(train + test, train2 + test2):
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.mask, b.mask)
    with pytest.raises(ContractError):
        generate_split(spec, 0, 3, seed=5)


def test_derived_seeds_do_not_collide():
    seen = set()
    for split in (0, 1):
        for i in range(50_000):
            seen.add(_derived_seed(7, split, i))
    assert len(seen) == 100_000


def test_write_then_load_round_trip(tmp_path):
    spec = SceneSpec(kind="camouflage", image_size=32)
    train, test = generate_split(spec, 3, 2, seed=11)
    root = str(tmp_path / "ds")
    write_dataset(root, train, test)
    for split, originals in (("train", train), ("test", test)):
        assert os.path.exists(os.path.join(root, split, "manifest.txt"))
        loaded = load_split(root, split)
        assert [s.id for s in loaded] == [s.id for s in originals]
        for a, b in zip(loaded, originals):
            # Images pass through 8-bit quantization on disk.
            assert np.abs(a.image - b.image).max() <= 0.5 / 255 + 1e-7
            np.testing.assert_array_equal(a.mask, b.mask)


def test_load_split_missing_or_empty_manifest(tmp_path):
    with pytest.raises(DataParseError):
        load_split(str(tmp_path), "train")
    base = tmp_path / "train"
    base.mkdir()
    (base / "manifest.txt").write_text("")
    with pytest.raises(DataParseError):
        load_split(str(tmp_path), "train")


def test_load_split_non_ascii_manifest(tmp_path):
    base = tmp_path / "test"
    base.mkdir()
    manifest = base / "manifest.txt"
    manifest.write_bytes(b"test_0000\ntest_\xe91\n")
    with pytest.raises(DataParseError, match="manifest"):
        load_split(str(tmp_path), "test")
