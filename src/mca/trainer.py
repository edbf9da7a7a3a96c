"""Training and evaluation orchestration.

One training session is a single deterministic sequence of steps.  The
backbone is frozen, so the tokens X^k before the first layer k with a
tunable tensor are a fixed function of the image: k = L with no adaptor
active (``decoder_only``), k = 0 otherwise.  ``train`` computes them for the
train split once per session, in manifest order (``frozen_rows``, after any
resume load).  A step is one batched tape (``step_objective``): the encoder
resumes at layer k from its batch's rows as one [B, K, d] pass with the
token adaptor residuals, and, when the sample-level loss is active, the
augmented views go as a second [B, K, d] pass, with the same residuals,
through the first L-1 of the L layers (the loss reads only layer inputs).
Contrastive terms are computed per layer on the adaptor inputs (the token
term contrasts each token with all K - 1 others of its image), masks are
decoded from the final layer, the objective is summed and
backpropagated, and AdamW updates the adaptor and decoder weights only.

The objective is written once, in ``step_objective``: its terms are the
tensors the variant computes (BCE and soft IoU always, CL_t and CL_s when
their loss is on), and the total is their weighted sum in the fixed order
bce, iou_loss, cl_t, cl_s.  A term that is off is absent, not zero; the log
records it as 0.0.

The inference maps are written once too: ``patch_maps`` reads, encodes and
decodes ``batch_size`` images at a time into the patch maps [N, g, g] of a
split.  ``evaluate`` scores them and ``mca dump-masks`` thresholds them; the
train dice decodes the same way from the session's cached rows.

``train`` is one loop over the session's global steps.  Each ``_train_step``
returns its step's record (step, epoch, lr and the loss terms), and the log
is ``log_rows`` of the records and of each epoch's train dice.

A ``ModelState`` carries the ``TrainConfig`` that built it, and every
function here reads the variant, the losses and the batch size from
``model.cfg``: no config travels beside a model, so the two cannot
disagree.  Eager passes (``frozen_rows``, ``patch_maps``, the train dice)
run ``batch_size`` images at a time, and ``patch_maps`` reads its split's
images from disk a batch at a time; ``train`` reads its split once per
session, since every step's views read its images.

The train masks never change within a session either: ``train`` reduces
them once, next to the frozen rows, to per-block fractions
(``mask_fraction``), and a step takes its batch's rows.  Images stay one
array each, as ``load_ppm`` returned them (``mca.augment`` says why).

All randomness (weight init, per-epoch shuffles, per-sample augmentation
draws) derives from the config seed through fixed-purpose SeedSequence
spawn keys, so resuming from a checkpoint reproduces the exact step stream
of an uninterrupted run.

The mask head is scored on the token grid (``mca.objectives``,
``mca.metrics``): a patch probability stands for each pixel of its block,
so the losses, the train dice and ``evaluate`` read per-block foreground
counts of the truth, and only ``mca dump-masks`` upsamples, copying each
thresholded patch into its block.

Reductions, in their fixed order: BCE is the mean over every pixel of the
batch, computed as the mean over its patches weighted by their foreground
counts; soft IoU is computed per image and then averaged over the batch; a
token InfoNCE term is the mean over the batch's images and anchors of one
layer; each contrastive term is the mean of its per-layer values, summed
left to right from layer 0 and scaled by 1/L.  With equal-sized images these
equal the per-image means of the per-image losses; only float rounding
depends on the order, and the order is the same on every run.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass, fields, replace
from functools import reduce
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .adaptors import (
    sample_contrastive_loss,
    sc_forward,
    token_adaptor_is_zero,
    token_contrastive_loss,
)
from .augment import parse_strategy, sample_view
from .checkpoint import load_checkpoint, save_checkpoint
from .config import TrainConfig, config_from_text, config_to_text
from .encoder import EncoderState, encoder_forward, init_encoder_state, tokenize
from .errors import ConfigError, ContractError, DegenerateInputError, TrainingAbortError
from .metrics import METRIC_NAMES, EvalPair, MetricReport, dice_iou, evaluate_dataset
from .objectives import DecoderWeights, bce_loss, decode_mask, init_decoder, iou_loss, mask_fraction
from .synthdata import Split, load_split
from .tensor import Graph, Tensor, backward

ADAM_BETAS = (0.9, 0.999)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 0.01

# SeedSequence purpose tags (first spawn-key word)
_PURPOSE_INIT = 0
_PURPOSE_SHUFFLE = 1
_PURPOSE_AUGMENT = 2

LOG_FIELDS = ("epoch", "lr", "bce", "iou_loss", "cl_t", "cl_s", "total", "train_dice")
LOSS_TERMS = ("bce", "iou_loss", "cl_t", "cl_s")  # the objective's order, as cfg.loss_weights
_TERMS = LOSS_TERMS + ("total",)


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Stateless deterministic generator for (seed, purpose, indices...)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))
    )


def cosine_lr(step: int, total_steps: int, lr_start: float, lr_end: float) -> float:
    """Cosine decay from lr_start (step 0) to lr_end (step = total_steps)."""
    if total_steps < 1:
        raise ContractError(f"total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ContractError(f"step {step} outside [0, {total_steps}]")
    # Exact endpoints as configured (the midpoint formula rounds).
    if step == 0:
        return lr_start
    if step == total_steps:
        return lr_end
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + math.cos(math.pi * step / total_steps))


@dataclass
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adamw_step(
    weights: Tensor,
    grad: np.ndarray,
    state: AdamState,
    lr: float,
    weight_decay: float = WEIGHT_DECAY,
    name: str = "",
) -> AdamState:
    """Decoupled-weight-decay Adam with bias correction; updates in place."""
    grad = np.asarray(grad, dtype=weights.data.dtype)
    if grad.shape != weights.data.shape:
        raise ContractError(
            f"gradient shape {grad.shape} vs weights {weights.data.shape} ({name})"
        )
    finite = np.isfinite(grad)
    if not finite.all():
        # Comparisons and selection only: nothing here can raise a floating-point error.
        values = grad[finite]
        spread = (f"finite entries in [{values.min():.6g}, {values.max():.6g}]"
                  if values.size else "no finite entry")
        raise TrainingAbortError(
            f"non-finite gradient for tensor {name or '<unnamed>'}: "
            f"{grad.size - values.size} non-finite of {grad.size}, {spread}")
    b1, b2 = ADAM_BETAS
    state.t += 1
    state.m = b1 * state.m + (1.0 - b1) * grad
    state.v = b2 * state.v + (1.0 - b2) * (grad * grad)
    m_hat = state.m / (1.0 - b1 ** state.t)
    v_hat = state.v / (1.0 - b2 ** state.t)
    weights.data = weights.data - lr * (
        m_hat / (np.sqrt(v_hat) + ADAM_EPS) + weight_decay * weights.data
    )
    return state


@dataclass
class ModelState:
    """Weights and the config that built them; every function of the model reads it."""

    cfg: TrainConfig
    encoder: EncoderState
    decoder: DecoderWeights


def init_model(cfg: TrainConfig) -> ModelState:
    """Seeded model; the same seed yields identical weights for every variant."""
    rng = derive_rng(cfg.seed, _PURPOSE_INIT)
    return ModelState(
        cfg=cfg,
        encoder=init_encoder_state(cfg, rng, cfg.bottleneck),
        decoder=init_decoder(cfg.embed_dim),
    )


def _tensor_fields(prefix: str, weights) -> List[Tuple[str, Tensor]]:
    """(prefix + field name, tensor) for each Tensor field, in declaration order."""
    pairs = ((prefix + f.name, getattr(weights, f.name)) for f in fields(weights))
    return [(name, t) for name, t in pairs if isinstance(t, Tensor)]


def named_tensors(model: ModelState) -> "OrderedDict[str, Tensor]":
    """Checkpoint and optimizer names; past the embeddings, dataclass field order."""
    enc = model.encoder
    out: "OrderedDict[str, Tensor]" = OrderedDict([
        ("patch_proj.w", enc.patch_projection),
        ("patch_proj.b", enc.patch_bias),
        ("pos_embed", enc.position_embedding),
    ])
    for i, layer in enumerate(enc.layers):
        out.update(_tensor_fields(f"layer{i}.", layer))
    for i, pair in enumerate(enc.adaptors):
        out.update(_tensor_fields(f"layer{i}.tc.", pair.token))
        out.update(_tensor_fields(f"layer{i}.sc.", pair.sample))
    out.update(_tensor_fields("decoder.", model.decoder))
    return out


def tunable_names(model: ModelState) -> List[str]:
    """Token adaptors when enabled, then sample adaptors when used, then the decoder."""
    cfg = model.cfg
    groups = [".tc."] * cfg.adaptors_enabled + [".sc."] * cfg.use_sample_loss + ["decoder."]
    named = named_tensors(model)
    return [name for group in groups for name in named if group in name]


def frozen_names(model: ModelState) -> List[str]:
    all_tunable = set(tunable_names(model))
    return [n for n in named_tensors(model) if n not in all_tunable]


@dataclass
class TrainResult:
    model: ModelState
    log: List[Dict[str, float]]
    records: List[Dict[str, float]]  # one per step this session ran, from ``_train_step``
    tensors: "OrderedDict[str, np.ndarray]"  # checkpoint payload
    config_text: str
    step: int


def _load_model_arrays(model: ModelState, arrays: Dict[str, np.ndarray]) -> None:
    named = named_tensors(model)
    for name, tensor in named.items():
        if name not in arrays:
            raise ConfigError(f"checkpoint is missing tensor {name!r}")
        arr = arrays[name]
        if tuple(arr.shape) != tuple(tensor.data.shape):
            raise ConfigError(
                f"checkpoint tensor {name!r} has shape {arr.shape}, "
                f"model expects {tensor.data.shape}"
            )
        tensor.data = arr.astype(tensor.data.dtype, copy=True)


def model_from_checkpoint(path: str) -> Tuple[ModelState, int]:
    """Rebuild a model from the self-describing checkpoint config echo."""
    arrays, config_text, step = load_checkpoint(path)
    model = init_model(config_from_text(config_text))
    _load_model_arrays(model, arrays)
    return model, step


def checkpoint_payload(model: ModelState, opt: Dict[str, AdamState]) -> "OrderedDict[str, np.ndarray]":
    tensors: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for name, t in named_tensors(model).items():
        tensors[name] = t.data.copy()
    for name, state in opt.items():
        tensors[f"opt.{name}.m"] = state.m.copy()
        tensors[f"opt.{name}.v"] = state.v.copy()
        tensors[f"opt.{name}.t"] = np.asarray(float(state.t), dtype=np.float32)
    return tensors


def _encoder_halves(model: ModelState) -> Tuple[EncoderState, EncoderState]:
    """The frozen encoder before layer k and the rest (k = L with no adaptor active, else 0)."""
    enc = model.encoder
    k = 0 if model.cfg.adaptors_enabled else len(enc.layers)
    return (replace(enc, layers=enc.layers[:k], adaptors=enc.adaptors[:k]),
            replace(enc, layers=enc.layers[k:], adaptors=enc.adaptors[k:]))


def frozen_rows(model: ModelState, images: Sequence[np.ndarray]) -> np.ndarray:
    """Tokens X^k [N, K, d] of N images [C, H, W], ``batch_size`` images per pass; eager."""
    cfg, (prefix, _) = model.cfg, _encoder_halves(model)
    rows = []
    for start in range(0, len(images), cfg.batch_size):
        x0 = tokenize(np.stack(images[start:start + cfg.batch_size]), cfg, model.encoder)
        xs, _ = encoder_forward(x0, prefix, cfg.adaptors_enabled)
        rows.append(([x0] + xs)[-1].data)
    return np.concatenate(rows)


def _resume(model: ModelState, rows: np.ndarray) -> Tuple[List[Tensor], Optional[List[Tensor]]]:
    """[X^k, ..., X^L] from rows X^k, and the token adaptor outputs of layers k on."""
    x = Tensor(rows)
    xs, ys = encoder_forward(x, _encoder_halves(model)[1], model.cfg.adaptors_enabled)
    return [x] + xs, ys


def _decode_rows(model: ModelState, rows: np.ndarray) -> np.ndarray:
    """Patch probability maps [N, g, g] of ``frozen_rows`` [N, K, d], ``batch_size`` per pass."""
    chunk = model.cfg.batch_size
    return np.concatenate([
        decode_mask(_resume(model, rows[start:start + chunk])[0][-1], model.decoder).data
        for start in range(0, len(rows), chunk)
    ])


def patch_maps(model: ModelState, images: Sequence[np.ndarray]) -> np.ndarray:
    """Patch probability maps [N, g, g] of N images [C, H, W]; eager (no tape).

    Reads, encodes and decodes ``batch_size`` images at a time, so of a
    split's lazily read images only one batch is held.  ``evaluate`` scores
    these maps and ``mca dump-masks`` thresholds them; the train dice
    decodes the same way from its cached rows.
    """
    chunk = model.cfg.batch_size
    return np.concatenate([_decode_rows(model, frozen_rows(model, images[start:start + chunk]))
                           for start in range(0, len(images), chunk)])


def _layer_mean(losses: List[Tensor]) -> Tensor:
    """Mean of per-layer terms, summed left to right from layer 0."""
    return sum(losses[1:], losses[0]) * (1.0 / len(losses))


def step_objective(
    model: ModelState,
    rows: np.ndarray,
    views: Optional[np.ndarray],
    fraction: np.ndarray,
) -> Tuple[Tensor, Dict[str, object]]:
    """The training objective of one batch, as one batched tape.

    ``rows`` are the images' ``frozen_rows`` [B, K, d]; ``views`` (the
    augmented views, used only with the sample-level loss) are
    [B, C, H, W]; ``fraction`` is the masks' ``mask_fraction`` [B, g, g].
    Returns the total and its terms: ``bce`` and ``iou_loss`` always,
    ``cl_t`` and ``cl_s`` only when the variant computes them.  The total is
    the terms' weighted sum (weights ``cfg.loss_weights``), added in the
    order of ``LOSS_TERMS``.  A non-finite mask prediction or term aborts.
    """
    cfg, enc = model.cfg, model.encoder
    # Contrastive terms anchor on each adaptor's INPUT tokens (X^i = xs[i], as
    # k = 0 with adaptors), not on the layer outputs: the token loss aligns
    # the residual with the tokens it was computed from.
    xs, ys = _resume(model, rows)
    m = decode_mask(xs[-1], model.decoder)
    bad = int(np.count_nonzero(~np.isfinite(m.data)))
    if bad:
        raise TrainingAbortError(f"mask prediction has {bad} non-finite values of {m.data.size}")
    terms: Dict[str, Tensor] = {"bce": bce_loss(m, fraction), "iou_loss": iou_loss(m, fraction)}

    if cfg.use_token_loss:
        # Layers whose token adaptor output is exactly zero (only at
        # initialization) are omitted from the token loss: the cosine of a
        # zero vector is undefined.  Mask-loss gradients make them nonzero
        # after the first update.
        live = [i for i, p in enumerate(enc.adaptors) if not token_adaptor_is_zero(p.token)]
        if live:
            terms["cl_t"] = _layer_mean([
                token_contrastive_loss(xs[i], ys[i], cfg.temperature) for i in live
            ])

    if cfg.use_sample_loss:
        x0a = tokenize(views, cfg, enc)
        # The sample loss reads each layer's input, so the view pass stops
        # before the last layer, whose output nothing reads.
        xsa, _ = encoder_forward(x0a, replace(enc, layers=enc.layers[:-1]), cfg.adaptors_enabled)
        xa_in = [x0a] + xsa
        terms["cl_s"] = _layer_mean([
            sample_contrastive_loss(sc_forward(xs[i], p.sample),
                                    sc_forward(xa_in[i], p.sample), cfg.temperature)
            for i, p in enumerate(enc.adaptors)
        ])

    for name, term in terms.items():
        value = term.item()
        if not math.isfinite(value):
            raise TrainingAbortError(f"non-finite loss term {name.removesuffix('_loss')}: {value}")
    weights = dict(zip(LOSS_TERMS, cfg.loss_weights))
    return reduce(add, (term * weights[name] for name, term in terms.items())), terms


def _train_step(
    model: ModelState,
    images: Sequence[np.ndarray],
    rows: np.ndarray,
    fraction: np.ndarray,
    lr: float,
    tunable: Dict[str, Tensor],
    opt: Dict[str, AdamState],
    epoch: int,
    step_in_epoch: int,
    global_step: int,
) -> Dict[str, float]:
    """One AdamW update of the ``tunable`` tensors (by name, those of ``opt``); its record."""
    cfg = model.cfg
    views = None
    if cfg.use_sample_loss:
        strategy = parse_strategy(cfg.strategy)
        views = np.stack([
            sample_view(image, strategy, derive_rng(
                cfg.seed, _PURPOSE_AUGMENT, epoch, step_in_epoch * cfg.batch_size + pos))
            for pos, image in enumerate(images)
        ])

    try:
        # Overflow and invalid operations raise, so a diverging step stops at
        # its first bad operation instead of warning and carrying NaN on.
        with np.errstate(over="raise", invalid="raise"):
            with Graph() as g:
                total, terms = step_objective(model, rows, views, fraction)
                grads = backward(g, total, [tunable[name] for name in opt])
            for (name, state), grad in zip(opt.items(), grads):
                tensor = tunable[name]
                adamw_step(tensor, np.zeros_like(tensor.data) if grad is None else grad,
                           state, lr, name=name)
    except (TrainingAbortError, DegenerateInputError, FloatingPointError) as exc:
        # A zero-norm embedding or token row in a contrastive term, a
        # floating-point overflow or invalid operation, or a non-finite
        # prediction, loss or gradient, is a training failure; label it with
        # the step.
        raise TrainingAbortError(f"step {global_step}: {exc}") from exc

    record = {"step": float(global_step), "epoch": float(epoch), "lr": lr}
    record.update((k, terms[k].item() if k in terms else 0.0) for k in LOSS_TERMS)
    record["total"] = total.item()
    return record


def log_rows(records: Sequence[Dict[str, float]],
             dice: Sequence[float]) -> List[Dict[str, float]]:
    """One log row per epoch of ``records`` (in step order); ``dice[i]`` is the i-th epoch's.

    A row's lr is that of its epoch's first record, and each term is the sum
    of the epoch's records, added in step order from 0.0, over their count.
    """
    epochs: Dict[float, List[Dict[str, float]]] = {}
    for record in records:
        epochs.setdefault(record["epoch"], []).append(record)
    # reduce, not sum: the builtin sum compensates its rounding from Python 3.12.
    return [{"epoch": epoch, "lr": group[0]["lr"],
             **{k: reduce(add, (r[k] for r in group), 0.0) / len(group) for k in _TERMS},
             "train_dice": train_dice}
            for (epoch, group), train_dice in zip(epochs.items(), dice, strict=True)]


def _train_set_dice(model: ModelState, split: Split, rows: np.ndarray) -> float:
    """Mean dice over the train split; ``rows`` are its ``frozen_rows``.

    Scored on the patch grid by ``metrics.dice_iou``, as ``evaluate``
    scores it: each dice is bitwise that of the upsampled map.
    """
    pair = EvalPair(_decode_rows(model, rows), split.masks)
    return float(np.mean(dice_iou(pair)[0]))


# Config fields that name places, not the step stream: a resumed run may
# read its data from, and write its output to, somewhere else.
_RESUME_FREE_FIELDS = ("out_dir", "data_root")


def _check_resumable(saved: TrainConfig, cfg: TrainConfig) -> None:
    """ConfigError unless ``cfg`` continues the run that wrote ``saved``."""
    differ = [f.name for f in fields(TrainConfig)
              if f.name not in _RESUME_FREE_FIELDS
              and getattr(saved, f.name) != getattr(cfg, f.name)]
    if differ:
        raise ConfigError(
            "checkpoint config differs from this run in "
            + ", ".join(f"{n} ({getattr(saved, n)!r} vs {getattr(cfg, n)!r})" for n in differ)
        )


def train(
    cfg: TrainConfig,
    resume_from: Optional[str] = None,
    stop_after_steps: Optional[int] = None,
) -> TrainResult:
    """Run the configured session; returns final weights, log, and payload.

    ``stop_after_steps`` suspends the session once that many global steps
    have completed, without shortening the learning-rate schedule; resuming
    the saved checkpoint under the same config reproduces the uninterrupted
    run's weights and optimizer state bitwise.  ``records`` holds one record
    per step this session ran, and the log is their ``log_rows``: it covers
    only the epochs this session ran, each averaged over the steps it ran.
    """
    if stop_after_steps is not None and stop_after_steps < 0:
        raise ConfigError(f"stop_after_steps must be >= 0, got {stop_after_steps}")
    split = load_split(cfg.data_root, "train")
    model = init_model(cfg)
    named = named_tensors(model)
    tunable = {name: named[name] for name in tunable_names(model)}
    opt = {name: AdamState(m=np.zeros_like(t.data), v=np.zeros_like(t.data))
           for name, t in tunable.items()}
    start_step = 0
    if resume_from is not None:
        arrays, config_text, start_step = load_checkpoint(resume_from)
        _check_resumable(config_from_text(config_text), cfg)
        _load_model_arrays(model, arrays)
        for name, state in opt.items():
            keys = (f"opt.{name}.m", f"opt.{name}.v", f"opt.{name}.t")
            if not all(k in arrays for k in keys):
                raise ConfigError(
                    f"checkpoint has no optimizer state for tunable tensor {name!r}"
                )
            state.m = arrays[keys[0]].astype(np.float32, copy=True)
            state.v = arrays[keys[1]].astype(np.float32, copy=True)
            state.t = int(round(float(arrays[keys[2]])))
            # Every tunable tensor takes one update per step from step 0.
            if state.t != start_step:
                raise ConfigError(f"checkpoint optimizer step {state.t} of tensor {name!r} "
                                  f"differs from its step counter {start_step}")

    steps_per_epoch = math.ceil(len(split) / cfg.batch_size)
    total_steps = cfg.epochs * steps_per_epoch
    if start_step > total_steps:
        raise ConfigError(
            f"checkpoint step {start_step} exceeds configured schedule {total_steps}"
        )
    # Read once per session: every step's views read these images.
    images = split.images[:]
    # Built after any resume load, which sets the frozen weights it depends on.
    rows = frozen_rows(model, images)
    fraction = mask_fraction(split.masks, (cfg.grid, cfg.grid))

    end_step = total_steps if stop_after_steps is None else min(total_steps, stop_after_steps)
    records: List[Dict[str, float]] = []
    dice: List[float] = []
    for step in range(start_step, end_step):
        epoch, b = divmod(step, steps_per_epoch)
        if b == 0 or step == start_step:
            order = derive_rng(cfg.seed, _PURPOSE_SHUFFLE, epoch).permutation(len(split))
        idxs = order[b * cfg.batch_size:(b + 1) * cfg.batch_size]
        lr = cosine_lr(step, total_steps, cfg.lr_start, cfg.lr_end)
        records.append(_train_step(model, [images[i] for i in idxs], rows[idxs],
                                   fraction[idxs], lr, tunable, opt, epoch, b, step))
        if b == steps_per_epoch - 1 or step == end_step - 1:
            dice.append(_train_set_dice(model, split, rows))

    return TrainResult(
        model=model,
        log=log_rows(records, dice),
        records=records,
        tensors=checkpoint_payload(model, opt),
        config_text=config_to_text(cfg),
        step=max(start_step, end_step),
    )


def log_to_csv(log: List[Dict[str, float]]) -> str:
    lines = [",".join(LOG_FIELDS)]
    for row in log:
        lines.append(
            ",".join(
                (str(int(row["epoch"])) if f == "epoch" else f"{row[f]:.8g}")
                for f in LOG_FIELDS
            )
        )
    return "\n".join(lines) + "\n"


def evaluate(model: ModelState, split: Split) -> MetricReport:
    """Inference scoring of the split's ``patch_maps``: no augmentation, no contrastive losses."""
    return evaluate_dataset(EvalPair(patch_maps(model, split.images), split.masks), split.ids)


def save_result(result: TrainResult, path: str) -> None:
    save_checkpoint(path, result.tensors, result.config_text, result.step)


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

def run_ablation(
    base_cfg: TrainConfig,
    variants: Optional[Sequence[str]] = None,
    seeds: Sequence[int] = (0,),
    strategies: Optional[Sequence[str]] = None,
) -> Tuple[List[Dict[str, object]], str]:
    """Train/evaluate each (value, seed); one aggregated row per value.

    Exactly one of ``variants`` (component ablation) or ``strategies``
    (augmentation-strategy ablation) must be given.
    Returns (rows, csv_text); each row holds mean and stddev per metric
    aggregated over seeds (population stddev).
    """
    if (variants is None) == (strategies is None):
        raise ContractError("pass exactly one of variants or strategies")
    if not seeds:
        raise ContractError("need at least one seed")
    values = list(variants) if variants is not None else list(strategies)
    if not values:
        raise ContractError("need at least one ablation value")
    axis = "variant" if variants is not None else "strategy"

    # An unknown value or a negative seed is refused before any training.
    configs = [[replace(base_cfg, seed=seed, **{axis: value}) for seed in seeds]
               for value in values]
    # Every session scores the same test images: read them once, before any training.
    test_split = load_split(base_cfg.data_root, "test")
    test_split = replace(test_split, images=test_split.images[:])
    rows: List[Dict[str, object]] = []
    for value, value_configs in zip(values, configs):
        per_seed = [evaluate(train(cfg).model, test_split).means for cfg in value_configs]
        row: Dict[str, object] = {"name": value, "seeds": len(seeds)}
        for metric in METRIC_NAMES:
            vals = np.array([m[metric] for m in per_seed])
            row[f"{metric}_mean"] = float(vals.mean())
            row[f"{metric}_std"] = float(vals.std())
        rows.append(row)

    header = ["name", "seeds"]
    for metric in METRIC_NAMES:
        header += [f"{metric}_mean", f"{metric}_std"]
    lines = [",".join(header)]
    for row in rows:
        cells = [str(row["name"]), str(row["seeds"])]
        for metric in METRIC_NAMES:
            cells += [f"{row[f'{metric}_mean']:.6f}", f"{row[f'{metric}_std']:.6f}"]
        lines.append(",".join(cells))
    return rows, "\n".join(lines) + "\n"
