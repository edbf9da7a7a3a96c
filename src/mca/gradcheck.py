"""Finite-difference verification of every differentiable building block.

Each suite builds a small random instance of one operation (or the full
training objective), takes the analytic gradient of one tensor at a time
from ``backward``, which returns it and stores none, and compares it against
the fourth-order five-point central difference (``finite_diff_check``)
coordinate by coordinate.  Runs in float64 so the h=1e-5 stencil resolves to
~1e-10 even where the objective is steep; the session dtype is restored
afterwards.

Each suite checks the single-instance form and the batched form
(leading axes) of its operation.  The ``total_loss`` suite differentiates
the trainer's own ``step_objective`` on the ``frozen_rows`` of two images
and their views, so the objective that trains is the objective that is
checked.  Every suite runs the same checks on every seed, from its own
generator ``derive_rng(seed, 99, seed index)``; ``total_loss`` includes the
sample adaptor's projection ``w_p``, its largest weight matrix.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from functools import partial
from typing import Callable, Dict, Iterable, List, Tuple

import numpy as np

from .adaptors import (
    init_sample_adaptor,
    init_token_adaptor,
    sample_contrastive_loss,
    sc_forward,
    tc_forward,
    token_contrastive_loss,
)
from .config import TrainConfig
from .encoder import EncoderConfig, init_encoder_state, init_layer, layer_forward
from .errors import ConfigError, ContractError
from .objectives import DecoderWeights, bce_loss, decode_mask, iou_loss, mask_fraction
from .tensor import (
    Graph,
    Tensor,
    backward,
    gelu,
    get_default_dtype,
    linear,
    logsumexp_rows,
    matmul,
    mean_all,
    normalize_rows,
    set_default_dtype,
)
from .trainer import ModelState, derive_rng, frozen_rows, step_objective

# End-to-end geometry: 32x32 images, two encoder layers, batches of two.
E2E_TRAIN_CONFIG = TrainConfig(
    image_size=32, patch_size=8, channels=3,
    embed_dim=16, num_layers=2, num_heads=2, mlp_ratio=2,
    bottleneck=4, batch_size=2, temperature=0.1, variant="mca",
)


@contextmanager
def float64_session():
    prev = "float64" if get_default_dtype() == np.float64 else "float32"
    set_default_dtype("float64")
    try:
        yield
    finally:
        set_default_dtype(prev)


def finite_diff_check(f: Callable[[Tensor], Tensor], x: Tensor) -> float:
    """Max relative error between analytic and central finite-difference grads.

    ``f`` must be a pure scalar-valued function of ``x``.  Each coordinate's
    numeric derivative, with h = 1e-5, is the fourth-order five-point
    central stencil

        c = (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / (12 h),

    whose truncation error is O(h^4 f^(5)) rather than the O(h^2 f^(3)) of
    the three-point difference, so steep objectives are resolved without
    shrinking ``h`` into float64 round-off.  The error per coordinate is
    |analytic - c| / max(1, |c|).
    """
    if not x.requires_grad:
        raise ContractError("finite_diff_check requires x.requires_grad")
    h = 1e-5
    with Graph() as g:
        (grad,) = backward(g, f(x), [x])
    analytic = (
        grad.reshape(-1).copy()
        if grad is not None
        else np.zeros(x.data.size, dtype=x.data.dtype)
    )

    x.data = np.ascontiguousarray(x.data)  # reshape below must be a view
    flat = x.data.reshape(-1)
    max_err = 0.0
    for i in range(flat.size):
        orig = flat[i]
        vals = []
        for step in (h, -h, 2.0 * h, -2.0 * h):
            flat[i] = orig + step
            vals.append(f(x).item())
        flat[i] = orig
        if not all(math.isfinite(v) for v in vals):
            raise ContractError(f"non-finite evaluation at perturbed coordinate {i}")
        fp, fm, fp2, fm2 = vals
        central = (8.0 * (fp - fm) - (fp2 - fm2)) / (12.0 * h)
        err = abs(float(analytic[i]) - central) / max(1.0, abs(central))
        if err > max_err:
            max_err = err
    return max_err


def _t(rng: np.random.Generator, shape, scale: float = 1.0) -> Tensor:
    return Tensor(rng.normal(0.0, scale, size=shape), requires_grad=True)


def _randomize(tensor: Tensor, rng: np.random.Generator, scale: float = 0.2) -> None:
    tensor.data = rng.normal(0.0, scale, size=tensor.data.shape).astype(tensor.data.dtype)


def _check_gelu(rng) -> List[float]:
    x = _t(rng, (4, 5))
    return [finite_diff_check(lambda v: mean_all(gelu(v)), x)]


def _check_matmul(rng) -> List[float]:
    """``matmul`` in both forms, and ``linear`` (its affine form) over leading axes."""
    a = _t(rng, (3, 4))
    b = _t(rng, (4, 5))
    ab = _t(rng, (2, 3, 4))
    bb = _t(rng, (2, 4, 5))
    v = _t(rng, (4,))
    a4 = _t(rng, (2, 2, 3, 4))
    b4 = _t(rng, (2, 2, 4, 5))
    return [
        finite_diff_check(lambda w: mean_all(matmul(w, b)), a),
        finite_diff_check(lambda w: mean_all(matmul(a, w)), b),
        finite_diff_check(lambda w: mean_all(matmul(w, bb)), ab),
        finite_diff_check(lambda w: mean_all(matmul(ab, w)), bb),
        # a weight matrix applied over leading axes, and to a vector
        finite_diff_check(lambda w: mean_all(matmul(w, b)), ab),
        finite_diff_check(lambda w: mean_all(matmul(ab, w) * matmul(ab, w)), b),
        finite_diff_check(lambda w: mean_all(matmul(w, b) * matmul(w, b)), v),
        finite_diff_check(lambda w: mean_all(matmul(w, b4)), a4),
        finite_diff_check(lambda w: mean_all(matmul(a4, w)), b4),
    ] + _check_linear(rng)


def _check_linear(rng) -> List[float]:
    x = _t(rng, (2, 3, 4))
    w = _t(rng, (4, 5))
    b = _t(rng, (5,))
    f = lambda _v: mean_all(linear(x, w, b) * linear(x, w, b))
    errs = [finite_diff_check(f, p) for p in (x, w, b)]
    # Frozen weight and bias: only the input's gradient is taped.
    w.requires_grad = b.requires_grad = False
    errs.append(finite_diff_check(f, x))
    return errs


def _check_normalize_rows(rng) -> List[float]:
    # A random weight per coordinate gives each Jacobian column its own factor.
    v = _t(rng, (7,))
    w = Tensor(rng.normal(size=(7,)))
    vb = _t(rng, (2, 3, 7))
    wb = Tensor(rng.normal(size=(2, 3, 7)))
    return [
        finite_diff_check(lambda u: mean_all(normalize_rows(u) * w), v),
        finite_diff_check(lambda u: mean_all(normalize_rows(u) * wb), vb),
    ]


def _check_logsumexp(rng) -> List[float]:
    x = _t(rng, (9,))
    rows = _t(rng, (4, 6))
    batched = _t(rng, (2, 3, 5))
    return [
        finite_diff_check(logsumexp_rows, x),
        finite_diff_check(lambda v: mean_all(logsumexp_rows(v)), rows),
        finite_diff_check(lambda v: mean_all(logsumexp_rows(v) * logsumexp_rows(v)), batched),
    ]


def _check_tc_forward(rng) -> List[float]:
    # finite_diff_check perturbs the target tensor in place, so a closure
    # over the shared weights sees every perturbation.
    w = init_token_adaptor(8, 2, rng)
    _randomize(w.w_up, rng)  # zero-init would flatten the x path
    _randomize(w.b_up, rng)
    _randomize(w.b_down, rng)
    x = _t(rng, (6, 8))
    xb = _t(rng, (2, 3, 8))
    f = lambda _v: mean_all(tc_forward(x, w))
    fb = lambda _v: mean_all(tc_forward(xb, w) * tc_forward(xb, w))
    return (
        [finite_diff_check(f, p) for p in (x, w.w_down, w.b_down, w.w_up, w.b_up)]
        + [finite_diff_check(fb, p) for p in (xb, w.w_down)]
    )


def _check_sc_forward(rng) -> List[float]:
    w = init_sample_adaptor(8, 2, rng)
    x = _t(rng, (6, 8))
    xb = _t(rng, (2, 3, 8))
    f = lambda _v: mean_all(sc_forward(x, w))
    fb = lambda _v: mean_all(sc_forward(xb, w) * sc_forward(xb, w))
    targets = [x] + [getattr(w, n) for n in ("w_p", "b_p", "w_down", "b_down", "w_up", "b_up")]
    return [finite_diff_check(f, p) for p in targets] + [
        finite_diff_check(fb, p) for p in (xb, w.w_p)
    ]


def _check_token_infonce(rng) -> List[float]:
    temperature = 0.1
    x = _t(rng, (5, 6))
    y = _t(rng, (5, 6))
    xb = _t(rng, (2, 4, 6))
    yb = _t(rng, (2, 4, 6))
    fb = lambda _v: token_contrastive_loss(xb, yb, temperature)
    return [
        finite_diff_check(lambda v: token_contrastive_loss(v, y, temperature), x),
        finite_diff_check(lambda v: token_contrastive_loss(x, v, temperature), y),
        finite_diff_check(fb, xb),
        finite_diff_check(fb, yb),
    ]


def _check_sample_infonce(rng) -> List[float]:
    temperature = 0.1
    a = _t(rng, (3, 6))
    b = _t(rng, (3, 6))
    return [
        finite_diff_check(lambda v: sample_contrastive_loss(v, b, temperature), a),
        finite_diff_check(lambda v: sample_contrastive_loss(a, v, temperature), b),
    ]


def _check_bce(rng) -> List[float]:
    logits = rng.normal(0.0, 2.0, size=(5, 5))
    pred = Tensor(1.0 / (1.0 + np.exp(-logits)), requires_grad=True)
    gt = (rng.random((5, 5)) > 0.5).astype(np.float64)
    pred_b = Tensor(rng.uniform(0.05, 0.95, size=(2, 4, 4)), requires_grad=True)
    gt_b = (rng.random((2, 4, 4)) > 0.5).astype(np.float64)
    # Patch grid: each of the 3 x 3 predictions covers a 2 x 2 block of truth.
    pred_p = Tensor(rng.uniform(0.05, 0.95, size=(2, 3, 3)), requires_grad=True)
    gt_p = (rng.random((2, 6, 6)) > 0.5).astype(np.float64)
    # Each truth is reduced once, outside the finite-difference closures.
    return [finite_diff_check(partial(bce_loss, fraction=mask_fraction(g, p.shape[-2:])), p)
            for p, g in ((pred, gt), (pred_b, gt_b), (pred_p, gt_p))]


def _check_iou(rng) -> List[float]:
    pred = Tensor(rng.uniform(0.05, 0.95, size=(5, 5)), requires_grad=True)
    gt = (rng.random((5, 5)) > 0.4).astype(np.float64)
    # A batch of three maps; the last has empty truth.
    pred_b = Tensor(rng.uniform(0.05, 0.95, size=(3, 4, 4)), requires_grad=True)
    gt_b = (rng.random((3, 4, 4)) > 0.4).astype(np.float64)
    gt_b[2] = 0.0
    # Patch grid: each of the 3 x 3 predictions covers a 2 x 2 block of truth.
    pred_p = Tensor(rng.uniform(0.05, 0.95, size=(2, 3, 3)), requires_grad=True)
    gt_p = (rng.random((2, 6, 6)) > 0.4).astype(np.float64)
    # Each truth is reduced once, outside the finite-difference closures.
    return [finite_diff_check(partial(iou_loss, fraction=mask_fraction(g, p.shape[-2:])), p)
            for p, g in ((pred, gt), (pred_b, gt_b), (pred_p, gt_p))]


def _check_layer_forward(rng) -> List[float]:
    cfg = EncoderConfig(image_size=16, patch_size=8, channels=3,
                        embed_dim=8, num_layers=1, num_heads=2, mlp_ratio=2)
    layer = init_layer(cfg, rng)
    # The structure permits trainable layer weights even though training
    # freezes them; flipping the flags exercises every internal backward.
    for field in ("ln1_g", "w_q", "b_v", "w_o", "w_mlp1"):
        getattr(layer, field).requires_grad = True
    x = _t(rng, (4, 8))
    errs = [finite_diff_check(lambda v: mean_all(layer_forward(v, layer)), x)]
    for field in ("ln1_g", "w_q", "b_v", "w_o", "w_mlp1"):
        t = getattr(layer, field)
        errs.append(finite_diff_check(lambda _v: mean_all(layer_forward(x, layer)), t))
    xb = _t(rng, (2, 4, 8))
    fb = lambda _v: mean_all(layer_forward(xb, layer) * layer_forward(xb, layer))
    errs += [finite_diff_check(fb, p) for p in (xb, layer.w_q)]
    return errs


def _check_decode_mask(rng) -> List[float]:
    dec = DecoderWeights(w=_t(rng, (8, 1), 0.5), b=_t(rng, (1,), 0.5))
    xn = _t(rng, (4, 8))
    # LOGIT_GAIN saturates the sigmoid at unit-scale weights; a small head
    # keeps the batched maps on its slope.
    dec_b = DecoderWeights(w=_t(rng, (8, 1), 1e-3), b=_t(rng, (1,), 1e-3))
    xb = _t(rng, (2, 4, 8))
    fb = lambda _v: mean_all(decode_mask(xb, dec_b) * decode_mask(xb, dec_b))
    return [
        finite_diff_check(lambda v: mean_all(decode_mask(v, dec)), xn),
        finite_diff_check(lambda _v: mean_all(decode_mask(xn, dec)), dec.w),
        finite_diff_check(lambda _v: mean_all(decode_mask(xn, dec)), dec.b),
        finite_diff_check(fb, xb),
        finite_diff_check(fb, dec_b.w),
    ]


def _check_total_loss(rng) -> List[float]:
    cfg = E2E_TRAIN_CONFIG
    state = init_encoder_state(cfg, rng, cfg.bottleneck)
    for pair in state.adaptors:
        # Random (not zero) token up-projections so both contrastive terms
        # are live at the checked point.
        _randomize(pair.token.w_up, rng, 0.1)
        _randomize(pair.token.b_up, rng, 0.1)
    dec = DecoderWeights(w=_t(rng, (cfg.embed_dim, 1), 0.3), b=_t(rng, (1,), 0.3))
    model = ModelState(cfg=cfg, encoder=state, decoder=dec)

    size = cfg.image_size
    images = np.stack([rng.random((3, size, size)) for _ in range(2)])
    views = np.stack([rng.random((3, size, size)) for _ in range(2)])
    masks = np.stack([(rng.random((size, size)) > 0.5).astype(np.float64) for _ in range(2)])
    fraction = mask_fraction(masks, (cfg.grid, cfg.grid))
    rows = frozen_rows(model, images)

    def objective(_v):
        total, _terms = step_objective(model, rows, views, fraction)
        return total

    targets = [
        state.adaptors[0].token.w_down,
        state.adaptors[0].token.w_up,
        state.adaptors[1].token.b_up,
        state.adaptors[0].sample.b_p,
        state.adaptors[1].sample.w_down,
        dec.w,
        dec.b,
        state.adaptors[0].sample.w_p,
    ]
    return [finite_diff_check(objective, t) for t in targets]


SUITES = OrderedDict([
    ("gelu", _check_gelu),
    ("matmul", _check_matmul),
    ("normalize_rows", _check_normalize_rows),
    ("logsumexp", _check_logsumexp),
    ("tc_forward", _check_tc_forward),
    ("sc_forward", _check_sc_forward),
    ("token_infonce", _check_token_infonce),
    ("sample_infonce", _check_sample_infonce),
    ("bce_loss", _check_bce),
    ("iou_loss", _check_iou),
    ("layer_forward", _check_layer_forward),
    ("decode_mask", _check_decode_mask),
    ("total_loss", _check_total_loss),
])


def run_gradcheck(
    seeds: Iterable[int],
    tol: float,
    verbose: bool = True,
) -> Tuple[bool, Dict[str, float]]:
    """Run every suite on every seed; returns (all_passed, worst_error_by_op)."""
    seeds = list(seeds)
    if not seeds:
        raise ContractError("gradcheck needs at least one seed")
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"gradcheck tolerance must be a finite number > 0, got {tol!r}")
    worst: Dict[str, float] = OrderedDict((name, 0.0) for name in SUITES)
    with float64_session():
        for idx, seed in enumerate(seeds):
            for name, fn in SUITES.items():
                worst[name] = max(worst[name], max(fn(derive_rng(seed, 99, idx))))
    passed = all(err < tol for err in worst.values())
    if verbose:
        for name, err in worst.items():
            status = "PASS" if err < tol else "FAIL"
            print(f"{name:<18s} max_rel_err={err:.3e}  {status}")
        print(f"gradcheck: {'PASS' if passed else 'FAIL'} ({len(seeds)} seeds, tol={tol:g})")
    return passed, worst
