"""Frozen backbone: patching, tokenization, layers, adaptor equivalence."""

import numpy as np
import pytest

from mca.encoder import (
    EncoderConfig,
    encoder_forward,
    extract_patches,
    init_encoder_state,
    layer_forward,
    tokenize,
)
from mca.errors import ConfigError, ShapeError
from mca.tensor import Tensor

CFG = EncoderConfig(
    image_size=32, patch_size=16, channels=3,
    embed_dim=16, num_layers=2, num_heads=2, mlp_ratio=2,
)


def _state(seed=0, bottleneck=4):
    return init_encoder_state(CFG, np.random.default_rng(seed), bottleneck)


def test_config_validation_and_derived_sizes():
    assert CFG.grid == 2
    assert CFG.num_tokens == 4
    assert CFG.patch_dim == 3 * 16 * 16
    with pytest.raises(ConfigError):
        EncoderConfig(image_size=30, patch_size=16)
    with pytest.raises(ConfigError):
        EncoderConfig(embed_dim=10, num_heads=4)
    with pytest.raises(ConfigError):
        EncoderConfig(num_layers=0)
    with pytest.raises(ConfigError):
        EncoderConfig(mlp_ratio=0)


def test_extract_patches_matches_manual_slices(rng):
    img = rng.random((3, 32, 32))
    patches = extract_patches(img, CFG)
    assert patches.shape == (4, 768)
    p = CFG.patch_size
    for idx in range(4):
        r, c = divmod(idx, CFG.grid)
        manual = img[:, r * p:(r + 1) * p, c * p:(c + 1) * p].reshape(-1)
        np.testing.assert_array_equal(patches[idx], manual)


def test_extract_patches_shape_error(rng):
    with pytest.raises(ShapeError):
        extract_patches(rng.random((3, 32, 16)), CFG)
    with pytest.raises(ShapeError):
        extract_patches(rng.random((1, 32, 32)), CFG)


def test_tokenize_locality(rng):
    # Token i depends only on patch i: changing one patch moves exactly one
    # token row relative to the base image.
    state = _state()
    base = np.full((3, 32, 32), 0.5, dtype=np.float64)
    t0 = tokenize(base, CFG, state)
    for idx in range(CFG.num_tokens):
        r, c = divmod(idx, CFG.grid)
        img = base.copy()
        p = CFG.patch_size
        img[:, r * p:(r + 1) * p, c * p:(c + 1) * p] += 0.25
        t1 = tokenize(img, CFG, state)
        diff = np.abs(t1.data - t0.data).max(axis=1)
        assert diff[idx] > 0.0
        others = np.delete(diff, idx)
        np.testing.assert_array_equal(others, np.zeros_like(others))


def test_tokenize_affine_structure(rng):
    # tokenize is affine in the patch content with a per-token offset row.
    state = _state()
    t = tokenize(np.zeros((3, 32, 32)), CFG, state)
    expected = state.patch_bias.data + state.position_embedding.data
    np.testing.assert_allclose(t.data, expected, rtol=0, atol=1e-6)


def test_frozen_vs_tunable_grad_flags():
    state = _state()
    assert not state.patch_projection.requires_grad
    assert not state.patch_bias.requires_grad
    assert not state.position_embedding.requires_grad
    for layer in state.layers:
        for name in ("ln1_g", "w_q", "w_k", "w_v", "w_o", "w_mlp1", "w_mlp2", "ln2_b"):
            assert not getattr(layer, name).requires_grad, name
    for pair in state.adaptors:
        assert pair.token.w_down.requires_grad
        assert pair.token.w_up.requires_grad
        assert pair.sample.w_p.requires_grad
        assert pair.sample.w_up.requires_grad


def test_init_is_seed_deterministic():
    a, b = _state(seed=3), _state(seed=3)
    np.testing.assert_array_equal(a.patch_projection.data, b.patch_projection.data)
    np.testing.assert_array_equal(a.position_embedding.data, b.position_embedding.data)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la.w_q.data, lb.w_q.data)
    c = _state(seed=4)
    assert np.any(a.patch_projection.data != c.patch_projection.data)


def test_forward_zero_adaptors_bitwise_equals_disabled(rng):
    # Token adaptors start with zero up-projection, so the adapted forward is
    # bit-for-bit the frozen forward until training moves them.
    state = _state()
    x0 = tokenize(rng.random((3, 32, 32)), CFG, state)
    xs_off, ys_off = encoder_forward(x0, state, adaptors_enabled=False)
    xs_on, ys_on = encoder_forward(x0, state, adaptors_enabled=True)
    assert ys_off is None
    assert ys_on is not None and len(ys_on) == CFG.num_layers
    assert len(xs_off) == len(xs_on) == CFG.num_layers
    for a, b in zip(xs_off, xs_on):
        np.testing.assert_array_equal(a.data, b.data)
    for y in ys_on:
        np.testing.assert_array_equal(y.data, np.zeros_like(y.data))


def test_forward_diverges_once_adaptor_is_nonzero(rng):
    state = _state()
    state.adaptors[0].token.w_up.data[:] = 0.05
    x0 = tokenize(rng.random((3, 32, 32)), CFG, state)
    xs_off, _ = encoder_forward(x0, state, adaptors_enabled=False)
    xs_on, ys_on = encoder_forward(x0, state, adaptors_enabled=True)
    assert np.any(xs_on[0].data != xs_off[0].data)
    assert np.any(ys_on[0].data != 0.0)
