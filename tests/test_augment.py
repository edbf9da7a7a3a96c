"""View augmentations: fixed-parameter identities, drawn bounds, strategy parsing."""

import numpy as np
import pytest

from mca.augment import (
    AugmentStrategy,
    JITTER_RANGE,
    KINDS,
    SHIFT_FRACTION,
    color_jitter,
    grayscale,
    parse_strategy,
    random_shift,
    sample_view,
)
from mca.errors import ConfigError, ShapeError


def _img(rng, h=8, w=8):
    return rng.random((3, h, w))


def test_color_jitter_identity_factors_is_noop(rng):
    img = _img(rng)
    out = color_jitter(img, brightness=1.0, contrast=1.0, saturation=1.0)
    np.testing.assert_allclose(out, img, atol=1e-12)


def test_color_jitter_brightness_scales(rng):
    img = _img(rng) * 0.4  # keep products below 1 so the clamp is inactive
    out = color_jitter(img, brightness=2.0, contrast=1.0, saturation=1.0)
    np.testing.assert_allclose(out, np.clip(img * 2.0, 0, 1), atol=1e-12)


def test_color_jitter_zero_contrast_flattens_to_mean(rng):
    img = _img(rng)
    out = color_jitter(img, brightness=1.0, contrast=0.0, saturation=1.0)
    assert np.allclose(out, img.mean(), atol=1e-12)


def test_color_jitter_zero_saturation_equals_grayscale(rng):
    img = _img(rng)
    out = color_jitter(img, brightness=1.0, contrast=1.0, saturation=0.0)
    np.testing.assert_allclose(out, grayscale(img), atol=1e-12)


def test_color_jitter_output_stays_in_range(rng):
    for _ in range(20):
        out = sample_view(_img(rng), parse_strategy("CJ"), rng)
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_color_jitter_validation(rng):
    img = _img(rng)
    with pytest.raises(ConfigError):
        color_jitter(img, brightness=-0.5, contrast=1.0, saturation=1.0)
    with pytest.raises(ShapeError):
        color_jitter(np.zeros((8, 8)), brightness=1.0, contrast=1.0, saturation=1.0)


def test_color_jitter_draws_are_bounded_and_deterministic(rng):
    img = _img(rng)
    a = sample_view(img, parse_strategy("CJ"), np.random.default_rng(5))
    b = sample_view(img, parse_strategy("CJ"), np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)
    lo, hi = JITTER_RANGE
    assert (lo, hi) == (0.6, 1.4)


def test_grayscale_luma_formula(rng):
    img = _img(rng)
    out = grayscale(img)
    luma = 0.299 * img[0] + 0.587 * img[1] + 0.114 * img[2]
    for ch in range(3):
        np.testing.assert_allclose(out[ch], luma, atol=1e-7)
    np.testing.assert_array_equal(out[0], out[1])
    np.testing.assert_array_equal(out[1], out[2])


def test_grayscale_fixed_point():
    flat = np.full((3, 4, 4), 0.3)
    np.testing.assert_allclose(grayscale(flat), flat, atol=1e-7)


def test_random_shift_fixed_offsets_match_manual_padding(rng):
    img = _img(rng)
    out = random_shift(img, dx=2, dy=-1)
    manual = np.zeros_like(img)
    manual[:, : 8 - 1, 2:] = img[:, 1:, : 8 - 2]
    np.testing.assert_array_equal(out, manual)


def test_random_shift_zero_offset_is_identity(rng):
    img = _img(rng)
    np.testing.assert_array_equal(random_shift(img, dx=0, dy=0), img)


def test_random_shift_default_extent_bound():
    # At a 64-wide image the default extent is 10% of the side.
    img = np.ones((3, 64, 64))
    rng = np.random.default_rng(0)
    for _ in range(30):
        out = sample_view(img, parse_strategy("RS"), rng)
        # Border of zeros no wider than the extent on any side.
        cols = out[0].sum(axis=0)
        rows = out[0].sum(axis=1)
        assert (cols > 0).sum() >= 64 - 6
        assert (rows > 0).sum() >= 64 - 6
    assert int(round(SHIFT_FRACTION * 64)) == 6


def test_random_shift_validation():
    with pytest.raises(ShapeError):
        random_shift(np.zeros((2, 8, 8)), dx=0, dy=0)


def test_strategy_parse_and_round_trip():
    s = parse_strategy("CJ+RS")
    assert s.ops == ("CJ", "RS")
    assert parse_strategy(" Gray ").ops == ("Gray",)
    assert KINDS == ("CJ", "Gray", "RS")


def test_strategy_validation():
    with pytest.raises(ConfigError):
        parse_strategy("")
    with pytest.raises(ConfigError):
        parse_strategy("CJ+Blur")
    with pytest.raises(ConfigError):
        parse_strategy("CJ+CJ")
    with pytest.raises(ConfigError):
        AugmentStrategy(ops=())


def test_sample_view_deterministic_and_within_strategy(rng):
    img = _img(rng, 16, 16)
    strategy = parse_strategy("Gray")
    out = sample_view(img, strategy, np.random.default_rng(1))
    np.testing.assert_array_equal(out, grayscale(img))
    a = sample_view(img, parse_strategy("CJ+RS"), np.random.default_rng(7))
    b = sample_view(img, parse_strategy("CJ+RS"), np.random.default_rng(7))
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("op", ["CJ", "RS"])
def test_sample_view_draw_order(rng, op):
    # Draw order: kind, then b, c, s (CJ) or dx, dy (RS), all from one stream.
    img = _img(rng, 20, 20)
    # The first seed whose kind draw over all three ops picks ``op``.
    seed = next(n for n in range(100) if KINDS[np.random.default_rng(n).integers(3)] == op)
    draws = np.random.default_rng(seed)
    assert KINDS[int(draws.integers(3))] == op
    if op == "CJ":
        b, c, s = (float(draws.uniform(*JITTER_RANGE)) for _ in range(3))
        want = color_jitter(img, b, c, s)
    else:
        e = int(round(SHIFT_FRACTION * 20))
        dx, dy = (int(draws.integers(-e, e + 1)) for _ in range(2))
        want = random_shift(img, dx, dy)
    got = sample_view(img, parse_strategy("CJ+Gray+RS"), np.random.default_rng(seed))
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)


def test_sample_view_covers_all_ops_over_many_draws(rng):
    img = _img(rng, 16, 16)
    strategy = parse_strategy("CJ+Gray+RS")
    gray = grayscale(img)
    seen_gray = seen_other = False
    g = np.random.default_rng(3)
    for _ in range(60):
        out = sample_view(img, strategy, g)
        if np.array_equal(out, gray):
            seen_gray = True
        else:
            seen_other = True
    assert seen_gray and seen_other
