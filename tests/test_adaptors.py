"""Adaptor blocks and the two contrastive losses: identities and contracts."""

import math

import numpy as np
import pytest

from mca.adaptors import (
    init_sample_adaptor,
    init_token_adaptor,
    sample_contrastive_loss,
    sc_forward,
    tc_forward,
    token_adaptor_is_zero,
    token_contrastive_loss,
)
from mca.config import TrainConfig
from mca.encoder import encoder_forward, init_encoder_state, tokenize
from mca.errors import ConfigError, ContractError, DegenerateInputError, ShapeError
from mca.gradcheck import E2E_TRAIN_CONFIG
from mca.tensor import Tensor, set_default_dtype


def test_token_adaptor_init_shapes_and_zero_residual(rng):
    w = init_token_adaptor(16, 4, rng)
    assert w.w_down.data.shape == (16, 4)
    assert w.b_down.data.shape == (4,)
    assert w.w_up.data.shape == (4, 16)
    assert w.b_up.data.shape == (16,)
    # Residual branch starts at exactly zero: w_up and both biases are zero.
    assert np.all(w.w_up.data == 0.0)
    assert np.all(w.b_down.data == 0.0)
    assert np.all(w.b_up.data == 0.0)
    assert np.any(w.w_down.data != 0.0)
    assert token_adaptor_is_zero(w)
    x = Tensor(np.random.default_rng(0).normal(size=(5, 16)))
    out = tc_forward(x, w)  # residual delta, exactly zero at init
    np.testing.assert_array_equal(out.data, np.zeros((5, 16), dtype=out.data.dtype))


def test_sample_adaptor_init_shapes(rng):
    w = init_sample_adaptor(16, 4, rng)
    assert w.w_p.data.shape == (16, 16)
    assert w.b_p.data.shape == (16,)
    assert w.w_down.data.shape == (16, 4)
    assert w.w_up.data.shape == (4, 16)
    assert np.any(w.w_p.data != 0.0)
    assert np.all(w.b_p.data == 0.0)


def test_both_bottleneck_extremes_work(rng):
    # The reduction factor is overridable; narrow and wide variants both run.
    x = Tensor(np.random.default_rng(1).normal(size=(4, 64)))
    for r in (2, 32):
        inner = 64 // r
        tw = init_token_adaptor(64, r, rng)
        assert tw.w_down.data.shape == (64, inner)
        assert tc_forward(x, tw).data.shape == (4, 64)
        sw = init_sample_adaptor(64, r, rng)
        assert sc_forward(x, sw).data.shape == (64,)
    with pytest.raises(ConfigError):
        init_token_adaptor(64, 3, rng)  # factor must divide the width


@pytest.mark.parametrize("geometry", ["gradcheck", "default"])
def test_sample_embedding_never_zero_at_init(geometry):
    # The sample-level InfoNCE takes the cosine of each embedding, so a
    # freshly initialised sample adaptor must never map the tokens it is fed
    # (each adaptor's input X^i, as in training) to an exactly zero vector.
    cfg = E2E_TRAIN_CONFIG if geometry == "gradcheck" else TrainConfig()
    try:
        for dtype in ("float32", "float64"):
            set_default_dtype(dtype)
            for seed in range(300):
                rng = np.random.default_rng(seed)
                state = init_encoder_state(cfg, rng, cfg.bottleneck)
                image = rng.random((cfg.channels, cfg.image_size, cfg.image_size))
                x0 = tokenize(image, cfg, state)
                xs, _ = encoder_forward(x0, state, True)
                for i, x_in in enumerate([x0] + xs[:-1]):
                    emb = sc_forward(x_in, state.adaptors[i].sample).data
                    assert np.linalg.norm(emb) > 0.0, f"{dtype}, seed {seed}, layer {i}"
    finally:
        set_default_dtype("float32")


def test_tc_forward_shape_errors(rng):
    w = init_token_adaptor(8, 2, rng)
    with pytest.raises(ShapeError):
        tc_forward(Tensor(np.zeros((3, 7))), w)
    with pytest.raises(ShapeError):
        tc_forward(Tensor(np.zeros(8)), w)


def test_sc_forward_shape_errors(rng):
    w = init_sample_adaptor(8, 2, rng)
    with pytest.raises(ShapeError):
        sc_forward(Tensor(np.zeros((3, 7))), w)


def test_token_loss_single_token_is_exactly_zero():
    x = Tensor(np.array([[1.0, 2.0, 3.0]]))
    y = Tensor(np.array([[0.5, -1.0, 2.0]]))
    loss = token_contrastive_loss(x, y, 0.1)
    assert float(loss.data) == 0.0


def test_sample_loss_single_image_is_exactly_zero():
    e = Tensor(np.array([[1.0, 2.0, 3.0]]))
    ea = Tensor(np.array([[0.5, -1.0, 2.0]]))
    loss = sample_contrastive_loss(e, ea, 0.1)
    assert float(loss.data) == 0.0


def test_two_orthogonal_tokens_closed_form(f64):
    # Two orthogonal unit rows with identical views: each row's positive
    # similarity is 1 and its sole negative is 0, so the per-row loss is
    # log(1 + exp(-1/tau)) at every temperature.
    x = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    loss = token_contrastive_loss(x, x, 0.1)
    expected = math.log(1.0 + math.exp(-1.0 / 0.1))
    assert abs(float(loss.data) - expected) < 1e-9


def test_two_orthogonal_samples_closed_form(f64):
    e = Tensor(np.array([[2.0, 0.0], [0.0, 3.0]]))  # scale-free via cosine
    loss = sample_contrastive_loss(e, e, 0.1)
    expected = math.log(1.0 + math.exp(-1.0 / 0.1))
    assert abs(float(loss.data) - expected) < 1e-9


def test_losses_invariant_to_positive_row_scaling(f64):
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 8))
    y = rng.normal(size=(6, 8))
    base = float(token_contrastive_loss(Tensor(x), Tensor(y), 0.1).data)
    scales_x = rng.uniform(0.1, 10.0, size=(6, 1))
    scales_y = rng.uniform(0.1, 10.0, size=(6, 1))
    scaled = float(
        token_contrastive_loss(Tensor(x * scales_x), Tensor(y * scales_y), 0.1).data
    )
    assert abs(base - scaled) < 1e-6

    b = float(sample_contrastive_loss(Tensor(x), Tensor(y), 0.1).data)
    s = float(
        sample_contrastive_loss(Tensor(x * scales_x), Tensor(y * scales_y), 0.1).data
    )
    assert abs(b - s) < 1e-6


def test_losses_invariant_to_simultaneous_permutation(f64):
    rng = np.random.default_rng(3)
    x = rng.normal(size=(7, 5))
    y = rng.normal(size=(7, 5))
    perm = rng.permutation(7)
    a = float(token_contrastive_loss(Tensor(x), Tensor(y), 0.1).data)
    b = float(token_contrastive_loss(Tensor(x[perm]), Tensor(y[perm]), 0.1).data)
    assert abs(a - b) < 1e-9


def test_zero_norm_row_rejected():
    x = Tensor(np.array([[0.0, 0.0], [1.0, 0.0]]))
    y = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(DegenerateInputError):
        token_contrastive_loss(x, y, 0.1)


def test_sample_loss_checks_batch_shapes():
    rng_data = np.random.default_rng(5)
    e = rng_data.normal(size=(3, 4))
    ea = rng_data.normal(size=(3, 4))
    with pytest.raises(ContractError):
        sample_contrastive_loss(Tensor(e), Tensor(ea[:2]), 0.1)
    with pytest.raises(ContractError):
        sample_contrastive_loss(Tensor(e[None]), Tensor(ea[None]), 0.1)


def test_token_loss_view_count_mismatch():
    with pytest.raises(ShapeError):
        token_contrastive_loss(
            Tensor(np.ones((3, 4))), Tensor(np.ones((2, 4))), 0.1
        )


def test_token_loss_of_batch_is_mean_of_per_image_losses(f64):
    rng_data = np.random.default_rng(12)
    x = rng_data.normal(size=(3, 5, 6))
    y = rng_data.normal(size=(3, 5, 6))
    batched = float(token_contrastive_loss(Tensor(x), Tensor(y), 0.1).data)
    per_image = [float(token_contrastive_loss(Tensor(x[b]), Tensor(y[b]), 0.1).data)
                 for b in range(3)]
    assert batched == pytest.approx(np.mean(per_image), rel=1e-12, abs=0.0)
