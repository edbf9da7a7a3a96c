"""Training loop: schedule, optimizer, determinism, resume, ablation harness."""

import math

import mca.encoder as encoder_mod
import mca.trainer as trainer_mod

import numpy as np
import pytest

from _oracles import oracle_step_objective
from mca.augment import parse_strategy, sample_view
from mca.checkpoint import load_checkpoint, save_checkpoint
from mca.encoder import encoder_forward, tokenize
from mca.errors import ConfigError, ContractError, TrainingAbortError
from mca.kernels import sigmoid_forward
from mca.metrics import EvalPair, dice_iou
from mca.objectives import LOGIT_GAIN, decode_mask, mask_fraction
from mca.synthdata import load_split
from mca.tensor import Graph, Tensor, backward
from mca.trainer import (
    ADAM_BETAS,
    ADAM_EPS,
    LOG_FIELDS,
    WEIGHT_DECAY,
    AdamState,
    _train_set_dice,
    _train_step,
    adamw_step,
    cosine_lr,
    derive_rng,
    evaluate,
    frozen_names,
    frozen_rows,
    init_model,
    log_to_csv,
    model_from_checkpoint,
    named_tensors,
    predict,
    run_ablation,
    save_result,
    step_objective,
    train,
    tunable_names,
)

# The batched objective reorders float64 sums against the per-image loop;
# each reordered operation moves a term by about 1e-16 relative.
OBJECTIVE_RTOL = 1e-10
# Batched and per-image float32 forwards differ at most in summation order.
PREDICT_ATOL = 1e-6


def _batch(cfg, tiny_dataset):
    """The first batch of the train split: its images and their mask fraction."""
    split = load_split(tiny_dataset, "train")
    masks = split.masks[:cfg.batch_size]
    return split.images[:cfg.batch_size], mask_fraction(masks, (cfg.grid, cfg.grid))


def _fresh_opt(model):
    """``_train_step``'s tunable tensors and fresh optimizer states, by name."""
    named = named_tensors(model)
    tunable = {name: named[name] for name in tunable_names(model)}
    return tunable, {
        name: AdamState(m=np.zeros_like(t.data), v=np.zeros_like(t.data))
        for name, t in tunable.items()
    }


# ---------------------------------------------------------------------------
# learning-rate schedule
# ---------------------------------------------------------------------------

def test_cosine_lr_exact_endpoints():
    assert cosine_lr(0, 100, 2e-4, 1e-7) == 2e-4
    assert cosine_lr(100, 100, 2e-4, 1e-7) == 1e-7


def test_cosine_lr_midpoint():
    mid = cosine_lr(50, 100, 2e-4, 1e-7)
    assert abs(mid - (2e-4 + 1e-7) / 2.0) < 1e-12


def test_cosine_lr_monotone_decay():
    vals = [cosine_lr(s, 40, 1e-3, 1e-6) for s in range(41)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cosine_lr_validation():
    with pytest.raises(ContractError):
        cosine_lr(0, 0, 1e-3, 1e-6)
    with pytest.raises(ContractError):
        cosine_lr(-1, 10, 1e-3, 1e-6)
    with pytest.raises(ContractError):
        cosine_lr(11, 10, 1e-3, 1e-6)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def _scalar_state():
    return AdamState(m=np.zeros(1, np.float64), v=np.zeros(1, np.float64))


def test_adamw_first_step_hand_value():
    # With m_hat = g and v_hat = g^2, the first update is exactly lr * sign(g)
    # up to eps, independent of the gradient magnitude.
    w = Tensor(np.array([1.0]), requires_grad=True)
    adamw_step(w, np.array([1.0]), _scalar_state(), lr=0.1, weight_decay=0.0)
    expected = 1.0 - 0.1 * (1.0 / (1.0 + ADAM_EPS))
    assert abs(float(w.data[0]) - expected) < 1e-6
    assert abs(float(w.data[0]) - 0.9) < 1e-6


def test_adamw_decay_only():
    w = Tensor(np.array([1.0]), requires_grad=True)
    adamw_step(w, np.array([0.0]), _scalar_state(), lr=0.1, weight_decay=0.1)
    assert abs(float(w.data[0]) - (1.0 - 0.01)) < 1e-6


def test_adamw_zero_grad_zero_decay_is_identity():
    w = Tensor(np.array([2.5]), requires_grad=True)
    adamw_step(w, np.array([0.0]), _scalar_state(), lr=0.1, weight_decay=0.0)
    assert float(w.data[0]) == 2.5


def test_adamw_bias_correction_second_step():
    # Replay the textbook recursion in numpy and compare after two steps.
    w = Tensor(np.array([0.7]), requires_grad=True)
    state = _scalar_state()
    b1, b2 = ADAM_BETAS
    ref, m, v = 0.7, 0.0, 0.0
    for g in (0.3, -0.2):
        adamw_step(w, np.array([g]), state, lr=0.05, weight_decay=0.0)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        t = 1 if g == 0.3 else 2
        ref -= 0.05 * (m / (1 - b1**t)) / (math.sqrt(v / (1 - b2**t)) + ADAM_EPS)
    assert abs(float(w.data[0]) - ref) < 1e-6


def test_adamw_validation():
    w = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ContractError):
        adamw_step(w, np.zeros(2), _scalar_state(), lr=0.1)
    with pytest.raises(TrainingAbortError):
        adamw_step(w, np.array([float("nan")]), _scalar_state(), lr=0.1, name="w")
    assert ADAM_BETAS == (0.9, 0.999) and ADAM_EPS == 1e-8 and WEIGHT_DECAY == 0.01


# ---------------------------------------------------------------------------
# rng derivation
# ---------------------------------------------------------------------------

def test_derive_rng_deterministic_and_separated():
    a = derive_rng(3, 1, 5).random(4)
    b = derive_rng(3, 1, 5).random(4)
    np.testing.assert_array_equal(a, b)
    c = derive_rng(3, 1, 6).random(4)
    d = derive_rng(4, 1, 5).random(4)
    assert np.any(a != c) and np.any(a != d)


# ---------------------------------------------------------------------------
# parameter partition
# ---------------------------------------------------------------------------

def test_named_tensor_universe(small_cfg):
    cfg = small_cfg()
    model = init_model(cfg)
    names = list(named_tensors(model))
    assert names[0] == "patch_proj.w"
    assert "pos_embed" in names
    assert "layer0.w_q" in names and "layer1.w_mlp2" in names
    assert "layer0.tc.w_up" in names and "layer1.sc.w_p" in names
    assert names[-2:] == ["decoder.w", "decoder.b"]
    # 3 stem + 16 per layer + 10 adaptor tensors per layer + 2 decoder
    assert len(names) == 3 + cfg.num_layers * (16 + 10) + 2


def test_tunable_partition_per_variant(small_cfg):
    expected_counts = {
        "decoder_only": 2,
        "adaptor_plain": 2 + 2 * 4,
        "tc_only": 2 + 2 * 4,
        "sc_only": 2 + 2 * 4 + 2 * 6,
        "mca": 2 + 2 * 4 + 2 * 6,
    }
    for variant, count in expected_counts.items():
        cfg = small_cfg(variant=variant)
        model = init_model(cfg)
        tun = tunable_names(model)
        assert len(tun) == count, variant
        assert "decoder.w" in tun and "decoder.b" in tun
        froz = frozen_names(model)
        assert set(tun).isdisjoint(froz)
        assert set(tun) | set(froz) == set(named_tensors(model))
        assert any(n.startswith("layer0.tc.") for n in tun) == cfg.adaptors_enabled
        assert any(n.startswith("layer0.sc.") for n in tun) == cfg.use_sample_loss


def test_registry_names_are_the_checkpoint_format(small_cfg):
    # The names derive from the weight dataclasses' field order, which the
    # .mcaf format and the opt.* record order fix; a reordered field fails here.
    cfg = small_cfg(variant="mca")
    model = init_model(cfg)
    tc = ["w_down", "b_down", "w_up", "b_up"]
    sc = ["w_p", "b_p", "w_down", "b_down", "w_up", "b_up"]
    assert [n for n in named_tensors(model) if n.startswith("layer0.")] == (
        ["layer0." + f for f in ("ln1_g", "ln1_b", "w_q", "b_q", "w_k", "b_k", "w_v", "b_v",
                                 "w_o", "b_o", "ln2_g", "ln2_b", "w_mlp1", "b_mlp1",
                                 "w_mlp2", "b_mlp2")]
        + ["layer0.tc." + f for f in tc] + ["layer0.sc." + f for f in sc]
    )
    assert tunable_names(model) == (
        [f"layer{i}.tc.{f}" for i in range(cfg.num_layers) for f in tc]
        + [f"layer{i}.sc.{f}" for i in range(cfg.num_layers) for f in sc]
        + ["decoder.w", "decoder.b"]
    )


def test_init_model_identical_across_variants(small_cfg):
    a = init_model(small_cfg(variant="decoder_only"))
    b = init_model(small_cfg(variant="mca"))
    for name, t in named_tensors(a).items():
        np.testing.assert_array_equal(t.data, named_tensors(b)[name].data)


# ---------------------------------------------------------------------------
# training sessions (tiny geometry, session-scoped dataset)
# ---------------------------------------------------------------------------

def test_train_epochs_zero_returns_init(small_cfg):
    cfg = small_cfg(epochs=0)
    result = train(cfg)
    assert result.step == 0 and result.log == []
    init = named_tensors(init_model(cfg))
    for name, t in init.items():
        np.testing.assert_array_equal(result.tensors[name], t.data)


def test_frozen_tensors_never_move(small_cfg):
    cfg = small_cfg(variant="mca", epochs=1)
    result = train(cfg)
    init = named_tensors(init_model(cfg))
    moved = 0
    for name in frozen_names(result.model):
        np.testing.assert_array_equal(
            result.tensors[name], init[name].data, err_msg=name
        )
    for name in tunable_names(result.model):
        if np.any(result.tensors[name] != init[name].data):
            moved += 1
    assert moved > 0  # training actually updates the tunable set


def test_training_is_bit_deterministic(small_cfg, tmp_path):
    cfg = small_cfg(epochs=1)
    p1, p2 = str(tmp_path / "a.mcaf"), str(tmp_path / "b.mcaf")
    r1, r2 = train(cfg), train(cfg)
    save_result(r1, p1)
    save_result(r2, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()
    assert log_to_csv(r1.log) == log_to_csv(r2.log)


def test_resume_matches_uninterrupted_run(small_cfg, tmp_path):
    cfg = small_cfg(epochs=2)  # 8 samples / batch 4 -> 4 total steps
    full = train(cfg)
    assert [r["step"] for r in full.records] == [0.0, 1.0, 2.0, 3.0]
    for stop in range(1, full.step):  # mid-epoch and at the epoch boundary
        first = train(cfg, stop_after_steps=stop)
        assert first.step == stop
        mid = str(tmp_path / f"mid{stop}.mcaf")
        save_result(first, mid)
        resumed = train(cfg, resume_from=mid)
        assert resumed.step == full.step
        assert first.records + resumed.records == full.records, stop
        for name, arr in full.tensors.items():
            np.testing.assert_array_equal(arr, resumed.tensors[name], err_msg=f"{stop} {name}")
    # A stop at or below the resume step runs nothing.
    idle = train(cfg, resume_from=str(tmp_path / "mid3.mcaf"), stop_after_steps=1)
    assert idle.step == 3 and idle.records == [] and idle.log == []


def test_resume_geometry_mismatch_rejected(small_cfg, tmp_path):
    cfg = small_cfg(epochs=0)
    path = str(tmp_path / "g.mcaf")
    save_result(train(cfg), path)
    other = small_cfg(num_layers=1, epochs=0)
    with pytest.raises(ConfigError):
        train(other, resume_from=path)


def test_resume_beyond_schedule_rejected(small_cfg, tmp_path):
    cfg = small_cfg(epochs=1)  # 2 steps total
    done = train(cfg)
    path = str(tmp_path / "d.mcaf")
    save_result(done, path)
    with pytest.raises(ConfigError):
        train(small_cfg(epochs=0), resume_from=path)  # 0 < step 2


def test_resume_refuses_changed_config(small_cfg, tmp_path):
    cfg = small_cfg(variant="decoder_only", epochs=1)
    path = str(tmp_path / "p.mcaf")
    save_result(train(cfg, stop_after_steps=1), path)
    with pytest.raises(ConfigError, match="variant"):
        train(small_cfg(variant="mca", epochs=1), resume_from=path)
    with pytest.raises(ConfigError, match="lr_start"):
        train(small_cfg(variant="decoder_only", epochs=1, lr_start=1e-3), resume_from=path)
    # Where the data and the output live does not shape the step stream.
    moved = small_cfg(variant="decoder_only", epochs=1, out_dir=str(tmp_path / "elsewhere"))
    assert train(moved, resume_from=path).step == 2


def test_resume_refuses_missing_optimizer_state(small_cfg, tmp_path):
    cfg = small_cfg(variant="adaptor_plain", epochs=1)
    result = train(cfg, stop_after_steps=1)
    path = str(tmp_path / "o.mcaf")
    tensors = {k: v for k, v in result.tensors.items()
               if not k.startswith("opt.layer1.tc.w_up.")}
    save_checkpoint(path, tensors, result.config_text, result.step)
    with pytest.raises(ConfigError, match="layer1.tc.w_up"):
        train(cfg, resume_from=path)


def test_resume_refuses_optimizer_step_off_the_step_counter(small_cfg, tmp_path):
    cfg = small_cfg(variant="adaptor_plain", epochs=1)
    result = train(cfg, stop_after_steps=1)
    path = str(tmp_path / "t.mcaf")
    tensors = dict(result.tensors)
    tensors["opt.layer0.tc.b_up.t"] = np.asarray(2.0, dtype=np.float32)
    save_checkpoint(path, tensors, result.config_text, result.step)
    with pytest.raises(ConfigError, match="layer0.tc.b_up"):
        train(cfg, resume_from=path)


def test_loss_descends_early(small_cfg):
    # Total training loss after the first epoch should not exceed its start
    # for the stable mask-only variants across several seeds.
    for variant in ("decoder_only", "adaptor_plain"):
        wins = 0
        for seed in range(5):
            cfg = small_cfg(variant=variant, epochs=3, seed=seed,
                            lr_start=1e-4, lr_end=1e-7)
            log = train(cfg).log
            if log[-1]["total"] < log[0]["total"]:
                wins += 1
        assert wins >= 4, variant


def test_log_rows_and_csv_shape(small_cfg):
    cfg = small_cfg(epochs=2)
    result = train(cfg)
    assert len(result.log) == 2
    for row in result.log:
        assert set(row) == set(LOG_FIELDS)
        assert 0.0 <= row["train_dice"] <= 1.0
        assert row["lr"] > 0.0
    csv_text = log_to_csv(result.log)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "epoch,lr,bce,iou_loss,cl_t,cl_s,total,train_dice"
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "0"


def test_contrastive_terms_respect_variant(small_cfg):
    log_plain = train(small_cfg(variant="adaptor_plain", epochs=1)).log
    assert log_plain[0]["cl_t"] == 0.0 and log_plain[0]["cl_s"] == 0.0
    log_mca = train(small_cfg(variant="mca", epochs=1)).log
    assert log_mca[0]["cl_t"] > 0.0 and log_mca[0]["cl_s"] > 0.0


def test_zero_sample_embedding_aborts_with_step_label(small_cfg, tiny_dataset):
    # A sample adaptor whose output is identically zero leaves the
    # sample-level cosine undefined; the step must abort as a labelled
    # TrainingAbortError rather than leak the DegenerateInputError.
    cfg = small_cfg(variant="mca")
    model = init_model(cfg)
    for pair in model.encoder.adaptors:
        pair.sample.w_up.data[...] = 0.0
        pair.sample.b_up.data[...] = 0.0
    images, fraction = _batch(cfg, tiny_dataset)
    with pytest.raises(TrainingAbortError, match=r"^step 3: .*zero-norm"):
        _train_step(model, images, frozen_rows(model, images), fraction, cfg.lr_start,
                    *_fresh_opt(model), epoch=1, step_in_epoch=1, global_step=3)


def test_non_finite_prediction_aborts_with_step_label(small_cfg, tiny_dataset):
    cfg = small_cfg(variant="decoder_only")
    model = init_model(cfg)
    model.decoder.w.data[0, 0] = np.nan
    images, fraction = _batch(cfg, tiny_dataset)
    with pytest.raises(TrainingAbortError,
                       match=r"^step 5: mask prediction has \d+ non-finite values"):
        _train_step(model, images, frozen_rows(model, images), fraction, cfg.lr_start,
                    *_fresh_opt(model), epoch=2, step_in_epoch=1, global_step=5)


def test_non_finite_gradient_aborts_with_step_label(small_cfg, tiny_dataset, monkeypatch):
    cfg = small_cfg(variant="decoder_only")
    model = init_model(cfg)

    seen = []

    def nan_backward(graph, total, wrt):
        grads = backward(graph, total, wrt)
        for t, grad in zip(wrt, grads):
            if t is model.decoder.w:
                grad.flat[0] = np.nan
                seen.append(grad.copy())
        return grads

    monkeypatch.setattr(trainer_mod, "backward", nan_backward)
    images, fraction = _batch(cfg, tiny_dataset)
    # The step runs under np.errstate(over="raise", invalid="raise"), so the
    # message is built there: building it raises nothing of its own.
    with pytest.raises(TrainingAbortError,
                       match=r"^step 7: non-finite gradient for tensor decoder\.w: ") as info:
        _train_step(model, images, frozen_rows(model, images), fraction, cfg.lr_start,
                    *_fresh_opt(model), epoch=3, step_in_epoch=1, global_step=7)
    (grad,) = seen
    finite = grad.ravel()[1:]
    assert str(info.value) == (
        f"step 7: non-finite gradient for tensor decoder.w: 1 non-finite of {grad.size}, "
        f"finite entries in [{finite.min():.6g}, {finite.max():.6g}]")


@pytest.mark.parametrize("grad, summary", [
    ([np.nan, np.inf, 1.5, -np.inf, -2.25], "3 non-finite of 5, finite entries in [-2.25, 1.5]"),
    ([np.nan, np.inf], "2 non-finite of 2, no finite entry"),
])
def test_adamw_names_the_non_finite_count_and_the_finite_range(grad, summary):
    weights = Tensor(np.zeros(len(grad), dtype=np.float32))
    state = AdamState(m=np.zeros_like(weights.data), v=np.zeros_like(weights.data))
    with np.errstate(over="raise", invalid="raise"):
        with pytest.raises(TrainingAbortError) as info:
            adamw_step(weights, np.array(grad), state, 1e-3, name="w")
    assert str(info.value) == f"non-finite gradient for tensor w: {summary}"
    assert state.t == 0 and not weights.data.any()


def _objective_inputs(cfg, tiny_dataset, live_layers):
    """A model with live token adaptors and a sloped head, and one batch."""
    model = init_model(cfg)
    rng = np.random.default_rng(11)
    for i in live_layers:
        token = model.encoder.adaptors[i].token
        token.w_up.data = rng.normal(0.0, 0.1, token.w_up.data.shape)
    model.decoder.w.data = rng.normal(0.0, 1e-3, model.decoder.w.data.shape)
    split = load_split(tiny_dataset, "train")
    batch = split.images[:cfg.batch_size]
    strategy = parse_strategy(cfg.strategy)
    views = np.stack([sample_view(image, strategy, derive_rng(cfg.seed, 2, 0, b))
                      for b, image in enumerate(batch)])
    return model, np.stack(batch), views, split.masks[:cfg.batch_size]


@pytest.mark.parametrize("variant, seed, live_layers", [
    ("decoder_only", 0, ()),
    ("adaptor_plain", 0, (0, 1)),
    ("mca", 0, (0, 1)),
    ("mca", 0, (0,)),  # layer 1 keeps a zero token adaptor and skips its term
])
def test_step_objective_matches_per_image_loop(small_cfg, tiny_dataset, f64,
                                               variant, seed, live_layers):
    cfg = small_cfg(variant=variant, seed=seed)
    model, images, views, masks = _objective_inputs(cfg, tiny_dataset, live_layers)
    fraction = mask_fraction(masks, (cfg.grid, cfg.grid))
    total, terms = step_objective(model, frozen_rows(model, images), views, fraction)
    got = {k: (t.item() if isinstance(t, Tensor) else t) for k, t in terms.items()}
    got["total"] = total.item()
    want = oracle_step_objective(model, images, views, masks, cfg)
    assert set(got) == set(want)
    for name, value in want.items():
        assert got[name] == pytest.approx(value, rel=OBJECTIVE_RTOL, abs=0.0), name
    assert (got["cl_t"] > 0.0) == cfg.use_token_loss
    assert (got["cl_s"] > 0.0) == cfg.use_sample_loss


def test_predict_in_chunks_matches_per_image_forward(small_cfg, tiny_dataset):
    cfg = small_cfg(variant="mca", batch_size=3)
    model, _, _, _ = _objective_inputs(cfg, tiny_dataset, (0, 1))
    images = load_split(tiny_dataset, "train").images
    maps = predict(model, images)  # 8 images: chunks of 3, 3 and 2
    assert maps.shape == (8, 32, 32)
    for image, got in zip(images, maps):
        xs, _ = encoder_forward(tokenize(image, model.cfg, model.encoder),
                                model.encoder, True)
        f = model.cfg.patch_size
        want = decode_mask(xs[-1], model.decoder).data.repeat(f, axis=0).repeat(f, axis=1)
        assert np.max(np.abs(got - want)) <= PREDICT_ATOL


def test_predict_is_the_sigmoid_of_upsampled_logits(small_cfg, tiny_dataset):
    # The head decodes on the patch grid and predict copies the
    # probabilities into blocks; the sigmoid commutes with that copy, so
    # the maps are bitwise those of the upsample-then-sigmoid head.
    cfg = small_cfg(variant="mca", batch_size=3)
    model, _, _, _ = _objective_inputs(cfg, tiny_dataset, (0, 1))
    for t in named_tensors(model).values():
        t.data = t.data.astype(np.float32)  # the training width, as a checkpoint holds it
    images = load_split(tiny_dataset, "train").images
    chunk, f, g = cfg.batch_size, cfg.patch_size, cfg.image_size // cfg.patch_size
    maps = predict(model, images)
    tokens = np.concatenate([
        encoder_forward(tokenize(np.stack(images[i:i + chunk]), cfg, model.encoder),
                        model.encoder, True)[0][-1].data
        for i in range(0, len(images), chunk)])
    w, b = model.decoder.w.data, model.decoder.b.data
    logits = np.concatenate([((tokens[i:i + chunk] @ w + b) * LOGIT_GAIN).reshape(-1, g, g)
                             for i in range(0, len(tokens), chunk)])
    want = sigmoid_forward(logits.repeat(f, axis=-2).repeat(f, axis=-1))
    assert maps.dtype == want.dtype and np.array_equal(maps, want)


def test_train_set_dice_equals_dice_iou_of_upsampled_maps(small_cfg, tiny_dataset):
    cfg = small_cfg(variant="mca", epochs=3)
    model = train(cfg).model
    split = load_split(tiny_dataset, "train")
    maps = predict(model, split.images)
    scores = [dice_iou(EvalPair(m, mask))[0] for m, mask in zip(maps, split.masks)]
    assert len(set(scores)) > 2  # a partly trained head: the dice differ by image
    assert _train_set_dice(model, split, frozen_rows(model, split.images)) == float(np.mean(scores))


def test_mca_step_skips_the_views_last_layer(small_cfg, tiny_dataset, monkeypatch):
    # L layers on the images, L-1 on the views: the sample loss reads only
    # layer inputs, so the views' last layer output is never computed.
    cfg = small_cfg(variant="mca")
    model, _, _, _ = _objective_inputs(cfg, tiny_dataset, (0, 1))
    forward, calls = encoder_mod.layer_forward, []
    monkeypatch.setattr(encoder_mod, "layer_forward",
                        lambda *args: calls.append(None) or forward(*args))
    images, fraction = _batch(cfg, tiny_dataset)
    _train_step(model, images, frozen_rows(model, images), fraction, cfg.lr_start,
                *_fresh_opt(model), epoch=0, step_in_epoch=0, global_step=0)
    assert len(calls) == 2 * cfg.num_layers - 1


def _cached_session(cfg, tmp_path, stop, recompute, monkeypatch):
    """Run ``cfg``, split at ``stop`` steps when given; return the results and tokenize calls.

    ``recompute`` hides the session's frozen rows from the step and the
    train dice: each computes ``frozen_rows`` of its own images.
    """
    calls = []

    def counted_tokenize(images, *args):
        calls.append(images.shape[0])
        return tokenize(images, *args)

    rows_of, step = trainer_mod.frozen_rows, trainer_mod._train_step
    dice = trainer_mod._train_set_dice
    with monkeypatch.context() as m:
        m.setattr(trainer_mod, "tokenize", counted_tokenize)
        if recompute:
            m.setattr(trainer_mod, "_train_step", lambda model, images, _rows, *rest:
                      step(model, images, rows_of(model, images), *rest))
            m.setattr(trainer_mod, "_train_set_dice", lambda model, split, _rows:
                      dice(model, split, rows_of(model, split.images)))
        if stop is None:
            return [train(cfg)], calls
        first = train(cfg, stop_after_steps=stop)
        path = str(tmp_path / f"split-{recompute}.mcaf")
        save_result(first, path)
        return [first, train(cfg, resume_from=path)], calls


@pytest.mark.parametrize("variant, stop", [
    pytest.param("decoder_only", None, id="whole"),
    pytest.param("decoder_only", 4, id="resumed_mid_epoch"),
    pytest.param("mca", None, id="mca-whole"),
    pytest.param("mca", 4, id="mca-resumed_mid_epoch"),
])
def test_trunk_cache_matches_recomputed_trunk(small_cfg, tmp_path, monkeypatch, variant, stop):
    # 8 images in batches of 3: steps of 3, 3 and 2 images; step 4 is the
    # second step of epoch 1, so the split falls inside an epoch.
    cfg = small_cfg(variant=variant, batch_size=3, epochs=2)
    cached, cached_calls = _cached_session(cfg, tmp_path, stop, False, monkeypatch)
    plain, _ = _cached_session(cfg, tmp_path, stop, True, monkeypatch)
    # One pass of frozen rows per session, in batch-size chunks; a step
    # tokenizes only its augmented views, when the sample loss draws them.
    chunks = [3, 3, 2]
    assert cached_calls == [n for result in cached for n in chunks + [
        chunks[int(r["step"]) % 3] for r in result.records if cfg.use_sample_loss]]
    for got, want in zip(cached, plain):
        assert got.step == want.step
        assert got.records == want.records
        assert log_to_csv(got.log) == log_to_csv(want.log)
        assert list(got.tensors) == list(want.tensors)
        for name, arr in want.tensors.items():
            np.testing.assert_array_equal(got.tensors[name], arr, err_msg=name)
    assert cached[-1].step == 6


def test_train_reduces_the_masks_once_per_session(small_cfg, monkeypatch):
    # The train masks never change within a session: one reduction of the
    # whole stacked split serves every step of both epochs.
    calls, reduce = [], trainer_mod.mask_fraction
    monkeypatch.setattr(trainer_mod, "mask_fraction",
                        lambda *args: calls.append(args[0].shape) or reduce(*args))
    train(small_cfg(variant="mca", epochs=2))
    assert calls == [(8, 32, 32)]


def _step_gradients(cfg, tiny_dataset, frozen_requires_grad):
    """Gradients of one ``step_objective`` backward, by tensor name."""
    model, images, views, masks = _objective_inputs(cfg, tiny_dataset, (0, 1))
    named = named_tensors(model)
    for name in frozen_names(model):
        named[name].requires_grad = frozen_requires_grad
    fraction, rows = mask_fraction(masks, (cfg.grid, cfg.grid)), frozen_rows(model, images)
    with Graph() as g:
        total, _ = step_objective(model, rows, views, fraction)
        grads = backward(g, total, list(named.values()))
    return dict(zip(named, grads))


@pytest.mark.parametrize("variant", ["decoder_only", "adaptor_plain", "mca"])
def test_frozen_weights_get_no_gradient(small_cfg, tiny_dataset, variant):
    cfg = small_cfg(variant=variant)
    model = init_model(cfg)
    frozen, tunable = frozen_names(model), tunable_names(model)
    grads = _step_gradients(cfg, tiny_dataset, False)
    assert [n for n in frozen if grads[n] is not None] == []
    # Differentiating the frozen weights too must not move a tunable bit.
    # The encoder resumes from cached rows at layer 0 with adaptors and at
    # layer L without, so layer 0 is on the tape exactly when adaptors are.
    every = _step_gradients(cfg, tiny_dataset, True)
    assert (every["layer0.w_q"] is not None) == cfg.adaptors_enabled
    for name in tunable:
        assert grads[name] is not None, name
        np.testing.assert_array_equal(grads[name], every[name], err_msg=name)


def test_model_round_trips_through_checkpoint(small_cfg, tmp_path):
    cfg = small_cfg(epochs=1)
    result = train(cfg)
    path = str(tmp_path / "m.mcaf")
    save_result(result, path)
    model, step = model_from_checkpoint(path)
    assert step == result.step
    assert model.cfg == cfg
    for name, t in named_tensors(model).items():
        np.testing.assert_array_equal(t.data, result.tensors[name], err_msg=name)
    # Optimizer state rides along in the same container.
    arrays, _, _ = load_checkpoint(path)
    assert any(k.startswith("opt.decoder.w.") for k in arrays)


def test_evaluate_produces_full_report(small_cfg, tiny_dataset):
    cfg = small_cfg(epochs=1)
    result = train(cfg)
    split = load_split(tiny_dataset, "test")
    report = evaluate(result.model, split)
    assert len(report.rows) == 3
    assert {r["image"] for r in report.rows} == set(split.ids)
    assert 0.0 <= report.means["dice"] <= 1.0
    assert 0.0 <= report.means["mae"] <= 1.0


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def test_run_ablation_requires_exactly_one_axis(small_cfg):
    cfg = small_cfg()
    with pytest.raises(ContractError):
        run_ablation(cfg)
    with pytest.raises(ContractError):
        run_ablation(cfg, variants=("mca",), strategies=("CJ",))
    with pytest.raises(ContractError):
        run_ablation(cfg, variants=())
    with pytest.raises(ContractError):
        run_ablation(cfg, variants=("mca",), seeds=())


def test_run_ablation_variant_axis_structure(small_cfg):
    cfg = small_cfg(epochs=1)
    rows, csv_text = run_ablation(
        cfg, variants=("decoder_only", "adaptor_plain"), seeds=(0, 1)
    )
    assert [r["name"] for r in rows] == ["decoder_only", "adaptor_plain"]
    assert all(r["seeds"] == 2 for r in rows)
    lines = csv_text.strip().split("\n")
    header = lines[0].split(",")
    assert header[:2] == ["name", "seeds"]
    for metric in ("mae", "s_measure", "e_measure", "ber", "dice", "iou"):
        assert f"{metric}_mean" in header and f"{metric}_std" in header
    assert len(lines) == 3
    for row in rows:
        assert 0.0 <= row["dice_mean"] <= 1.0
        assert row["dice_std"] >= 0.0


def test_run_ablation_single_seed_has_zero_std(small_cfg):
    cfg = small_cfg(epochs=1)
    rows, _ = run_ablation(cfg, strategies=("Gray",), seeds=(3,))
    assert rows[0]["name"] == "Gray"
    assert rows[0]["dice_std"] == 0.0
