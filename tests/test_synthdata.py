"""Synthetic scene generator: determinism, difficulty control, disk layout, reads on demand."""

import os

import numpy as np
import pytest

from mca.errors import ConfigError, ContractError, DataParseError
from mca.netpbm import load_ppm, save_pgm, save_ppm
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
    a_image, a_mask = generate_sample(spec, 123)
    b_image, b_mask = generate_sample(spec, 123)
    np.testing.assert_array_equal(a_image, b_image)
    np.testing.assert_array_equal(a_mask, b_mask)
    c_image, _ = generate_sample(spec, 124)
    assert np.any(a_image != c_image)


def test_sample_shapes_ranges_occupancy():
    spec = SceneSpec(kind="camouflage", image_size=32, contrast_gap=0.3)
    lo, hi = OCCUPANCY_RANGE
    for seed in range(30):
        image, mask = generate_sample(spec, seed)
        assert image.shape == (3, 32, 32) and image.dtype == np.float32
        assert mask.shape == (32, 32) and mask.dtype == np.uint8
        assert image.min() >= 0.0 and image.max() <= 1.0
        assert set(np.unique(mask)) <= {0, 1}
        assert lo <= mask.mean() <= hi


def test_gap_zero_regions_are_moment_matched():
    spec = SceneSpec(kind="camouflage", image_size=64, contrast_gap=0.0)
    for seed in range(20):
        image, mask = generate_sample(spec, seed)
        gray = image.mean(axis=0)
        m = mask.astype(bool)
        assert abs(gray[m].mean() - gray[~m].mean()) < 0.02


def test_gap_one_is_threshold_separable():
    spec = SceneSpec(kind="camouflage", image_size=64, contrast_gap=1.0)
    for seed in range(20):
        image, mask = generate_sample(spec, seed)
        assert _best_threshold_iou(image, mask.astype(bool)) > 0.9


def test_difficulty_is_monotone_in_gap():
    means = []
    for gap in (0.0, 0.5, 1.0):
        spec = SceneSpec(kind="camouflage", image_size=64, contrast_gap=gap)
        ious = [
            _best_threshold_iou(image, mask.astype(bool))
            for image, mask in (generate_sample(spec, 1000 + i) for i in range(50))
        ]
        means.append(float(np.mean(ious)))
    assert means[0] < means[1] < means[2]
    assert means[0] < 0.6 and means[2] > 0.95


def test_shadow_darkens_masked_region():
    spec = SceneSpec(kind="shadow", image_size=32, contrast_gap=0.5)
    for seed in range(20):
        image, mask = generate_sample(spec, seed)
        gray = image.mean(axis=0)
        m = mask.astype(bool)
        assert gray[m].mean() < gray[~m].mean()


def test_generate_split_counts_ids_and_determinism():
    spec = SceneSpec(kind="camouflage", image_size=32)
    train, test = generate_split(spec, 6, 3, seed=5)
    assert len(train) == 6 and len(test) == 3
    drawn = {split.name: list(split) for split in (train, test)}
    masks = np.stack([mask for _, _, mask in drawn["train"]])
    assert masks.shape == (6, 32, 32) and masks.dtype == np.uint8
    ids = [sid for split in drawn.values() for sid, _, _ in split]
    assert len(set(ids)) == 9
    assert ids[0] == "train_0000" and ids[-1] == "test_0002"
    train2, test2 = generate_split(spec, 6, 3, seed=5)
    for a, b in ((drawn["train"], train2), (drawn["test"], test2)):
        for (id_a, image_a, mask_a), (id_b, image_b, mask_b) in zip(a, b, strict=True):
            assert id_a == id_b
            np.testing.assert_array_equal(image_a, image_b)
            np.testing.assert_array_equal(mask_a, mask_b)
    with pytest.raises(ContractError):
        generate_split(spec, 0, 3, seed=5)
    with pytest.raises(ContractError):
        generate_split(spec, 6, 3, seed=-1)


def test_every_written_file_is_the_saved_sample_of_its_derived_seed(tmp_path):
    spec = SceneSpec(kind="shadow", image_size=32, contrast_gap=0.5)
    root = tmp_path / "ds"
    write_dataset(str(root), *generate_split(spec, 3, 2, seed=11))
    for index, (split, n) in enumerate((("train", 3), ("test", 2))):
        ids = [f"{split}_{i:04d}" for i in range(n)]
        assert (root / split / "manifest.txt").read_text(encoding="ascii") == "".join(
            sid + "\n" for sid in ids)
        assert sorted(os.listdir(root / split / "images")) == [f"{sid}.ppm" for sid in ids]
        assert sorted(os.listdir(root / split / "masks")) == [f"{sid}.pgm" for sid in ids]
        for i, sid in enumerate(ids):
            image, mask = generate_sample(spec, _derived_seed(11, index, i))
            save_ppm(str(tmp_path / "saved.ppm"), image)
            save_pgm(str(tmp_path / "saved.pgm"), mask)
            for kind, suffix in (("images", "ppm"), ("masks", "pgm")):
                written = (root / split / kind / f"{sid}.{suffix}").read_bytes()
                assert written == (tmp_path / f"saved.{suffix}").read_bytes(), (sid, kind)


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
    for split, originals in (("train", list(train)), ("test", list(test))):
        assert os.path.exists(os.path.join(root, split, "manifest.txt"))
        loaded = load_split(root, split)
        assert loaded.ids == [sid for sid, _, _ in originals]
        assert len(loaded.images) == len(originals)
        for a, (_, b, _) in zip(loaded.images, originals, strict=True):
            # Images pass through 8-bit quantization on disk.
            assert np.abs(a - b).max() <= 0.5 / 255 + 1e-7
        np.testing.assert_array_equal(loaded.masks, np.stack([m for _, _, m in originals]))
        # Each read is load_ppm of the image's file: same values, same layout.
        expected = load_ppm(os.path.join(root, split, "images", f"{loaded.ids[-1]}.ppm"))
        for image in (loaded.images[-1], loaded.images[1:][-1]):
            np.testing.assert_array_equal(image, expected)
            assert image.strides == expected.strides


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


def _written_split(tmp_path):
    spec = SceneSpec(kind="camouflage", image_size=32)
    root = str(tmp_path / "ds")
    write_dataset(root, *generate_split(spec, 3, 2, seed=11))
    return root


def test_load_split_rejects_an_image_of_another_size(tmp_path):
    root = _written_split(tmp_path)
    save_ppm(os.path.join(root, "train", "images", "train_0001.ppm"),
             np.zeros((3, 48, 48), dtype=np.float32))
    # Images are read when indexed, so the refusal fires at the read.
    split = load_split(root, "train")
    assert split.images[0].shape == (3, 32, 32)
    for read in (lambda: split.images[1], lambda: split.images[:]):
        with pytest.raises(DataParseError, match=r"train image 'train_0001' is \(3, 48, 48\)"):
            read()


def test_load_split_rejects_a_mask_of_another_size(tmp_path):
    root = _written_split(tmp_path)
    save_pgm(os.path.join(root, "test", "masks", "test_0001.pgm"),
             np.zeros((40, 40), dtype=np.uint8))
    with pytest.raises(DataParseError, match=r"test mask 'test_0001' is \(40, 40\)"):
        load_split(root, "test")
