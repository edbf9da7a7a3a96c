"""Brute-force reference implementations used as test oracles.

The metric oracles are written with explicit Python loops straight from the
documented formulas, sharing no code with mca.metrics.  The objective
oracle is the per-image loop the batched training step replaced: it calls
the package's single-image layer functions once per image and reduces in
Python floats, so it checks the batching and the reductions, not the
layers.  Its mask losses are the per-pixel formulas in numpy, on the patch
map upsampled with np.repeat, so they also check the patch-grid losses.
Slow on purpose.
"""

import numpy as np

EPS = 1e-12


def oracle_mae(s, g):
    h, w = g.shape
    total = 0.0
    for i in range(h):
        for j in range(w):
            total += abs(g[i][j] - s[i][j])
    return total / (h * w)


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def oracle_s_object(s, g):
    h, w = g.shape
    fg = [s[i][j] for i in range(h) for j in range(w) if g[i][j] == 1]
    bg = [1.0 - s[i][j] for i in range(h) for j in range(w) if g[i][j] == 0]
    mu = len(fg) / (h * w)
    x_fg = _mean(fg) if mu > 0 else 0.0
    x_bg = _mean(bg) if mu < 1 else 0.0
    o_fg = 2.0 * x_fg / (x_fg * x_fg + 1.0)
    o_bg = 2.0 * x_bg / (x_bg * x_bg + 1.0)
    return mu * o_fg + (1.0 - mu) * o_bg


def _block_stats(xs):
    n = len(xs)
    m = _mean(xs)
    if n > 1:
        v = sum((x - m) ** 2 for x in xs) / (n - 1)
    else:
        v = 0.0
    return n, m, v


def oracle_ssim_block(xs, ys):
    n, mx, vx = _block_stats(xs)
    _, my, vy = _block_stats(ys)
    if n > 1:
        cxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / (n - 1)
    else:
        cxy = 0.0
    alpha_t = 4.0 * mx * my * cxy
    beta_t = (mx * mx + my * my) * (vx + vy)
    if alpha_t != 0.0:
        return alpha_t / (beta_t + EPS)
    if beta_t == 0.0:
        return 1.0
    return 0.0


def oracle_s_region(s, g):
    h, w = g.shape
    total = 0.0
    sy = sx = 0.0
    for i in range(h):
        for j in range(w):
            if g[i][j] == 1:
                total += 1
                sy += i
                sx += j
    if total == 0:
        cy, cx = h // 2, w // 2
    else:
        cy = int(round(sy / total))
        cx = int(round(sx / total))
    cy = min(max(cy, 1), h - 1)
    cx = min(max(cx, 1), w - 1)
    score = 0.0
    for y0, y1, x0, x1 in ((0, cy, 0, cx), (0, cy, cx, w), (cy, h, 0, cx), (cy, h, cx, w)):
        xs, ys = [], []
        for i in range(y0, y1):
            for j in range(x0, x1):
                xs.append(s[i][j])
                ys.append(g[i][j])
        score += (len(xs) / (h * w)) * oracle_ssim_block(xs, ys)
    return score


def oracle_s_measure(s, g, alpha=0.5):
    h, w = g.shape
    mu = sum(g[i][j] for i in range(h) for j in range(w)) / (h * w)
    if mu == 0.0:
        val = 1.0 - oracle_mae(np.zeros_like(g), s)  # 1 - mean(S)
    elif mu == 1.0:
        val = _mean([s[i][j] for i in range(h) for j in range(w)])
    else:
        val = alpha * oracle_s_object(s, g) + (1.0 - alpha) * oracle_s_region(s, g)
    return min(max(val, 0.0), 1.0)


def oracle_e_measure(s, g):
    h, w = g.shape
    flat_g = [g[i][j] for i in range(h) for j in range(w)]
    flat_s = [s[i][j] for i in range(h) for j in range(w)]
    if all(v == 0 for v in flat_g):
        return _mean([1.0 - v for v in flat_s])
    if all(v == 1 for v in flat_g):
        return _mean(flat_s)
    mg, ms = _mean(flat_g), _mean(flat_s)
    vals = []
    for pg, ps in zip(flat_g, flat_s):
        fg, fs = pg - mg, ps - ms
        xi = 2.0 * fg * fs / (fg * fg + fs * fs + EPS)
        vals.append((xi + 1.0) ** 2 / 4.0)
    return _mean(vals)


def oracle_confusion(s, g, threshold):
    tp = tn = fp = fn = 0
    h, w = g.shape
    for i in range(h):
        for j in range(w):
            pred = s[i][j] >= threshold
            pos = g[i][j] == 1
            if pred and pos:
                tp += 1
            elif pred and not pos:
                fp += 1
            elif not pred and pos:
                fn += 1
            else:
                tn += 1
    return tp, tn, fp, fn


def oracle_ber(s, g, threshold=0.5):
    tp, tn, fp, fn = oracle_confusion(s, g, threshold)
    return 100.0 * (1.0 - 0.5 * (tp / (tp + fn) + tn / (tn + fp)))


def oracle_dice_iou(s, g, threshold=0.5):
    tp, _tn, fp, fn = oracle_confusion(s, g, threshold)
    ps, gs = tp + fp, tp + fn
    if ps == 0 and gs == 0:
        return 1.0, 1.0
    dice = 2.0 * tp / (ps + gs)
    union = ps + gs - tp
    iou = tp / union if union > 0 else 1.0
    return dice, iou


def oracle_step_objective(model, images, views, masks, cfg):
    """Per-image loop objective of one batch; every term as a float.

    Per image: tokens, encoder, the decoded patch map copied into its
    patch x patch pixel blocks, the pixel BCE and soft IoU of that map, and the
    token InfoNCE averaged over layers whose token adaptor is nonzero.
    The sample InfoNCE takes each layer's [B, d] embeddings as plain
    values, so this is a reference for the objective's value only.
    """
    from mca.adaptors import (
        sample_contrastive_loss,
        sc_forward,
        token_adaptor_is_zero,
        token_contrastive_loss,
    )
    from mca.encoder import encoder_forward, tokenize
    from mca.objectives import BCE_CLAMP, decode_mask
    from mca.tensor import Tensor

    enc, ecfg = model.encoder, model.cfg
    n_layers = len(enc.layers)
    live = [i for i in range(n_layers) if not token_adaptor_is_zero(enc.adaptors[i].token)]
    bces, ious, clts = [], [], []
    emb_o = [[] for _ in range(n_layers)]
    emb_a = [[] for _ in range(n_layers)]
    for b in range(len(images)):
        x0 = tokenize(images[b], ecfg, enc)
        xs, ys = encoder_forward(x0, enc, cfg.adaptors_enabled)
        x_in = [x0] + xs[:-1]
        f = ecfg.patch_size
        m = decode_mask(xs[-1], model.decoder).data.repeat(f, axis=0).repeat(f, axis=1)
        g = masks[b].astype(m.dtype)
        mc = np.clip(m, BCE_CLAMP, 1.0 - BCE_CLAMP)
        bces.append(float(-np.mean(g * np.log(mc) + (1.0 - g) * np.log(1.0 - mc))))
        inter, pred_sum, gt_sum = float((m * g).sum()), float(m.sum()), float(g.sum())
        both_empty = pred_sum == 0.0 and gt_sum == 0.0
        ious.append(0.0 if both_empty else 1.0 - inter / (pred_sum + gt_sum - inter))
        if cfg.use_token_loss and cfg.adaptors_enabled and live:
            clts.append(_mean([
                token_contrastive_loss(x_in[i], ys[i], cfg.temperature).item() for i in live
            ]))
        if cfg.use_sample_loss:
            x0a = tokenize(views[b], ecfg, enc)
            xsa, _ = encoder_forward(x0a, enc, cfg.adaptors_enabled)
            xa_in = [x0a] + xsa[:-1]
            for i in range(n_layers):
                emb_o[i].append(sc_forward(x_in[i], enc.adaptors[i].sample).data)
                emb_a[i].append(sc_forward(xa_in[i], enc.adaptors[i].sample).data)
    cl_s = 0.0
    if cfg.use_sample_loss:
        cl_s = _mean([
            sample_contrastive_loss(Tensor(np.stack(emb_o[i])), Tensor(np.stack(emb_a[i])),
                                    cfg.temperature).item()
            for i in range(n_layers)
        ])
    terms = {"bce": _mean(bces), "iou_loss": _mean(ious), "cl_t": _mean(clts), "cl_s": cl_s}
    terms["total"] = sum(w * t for w, t in zip(cfg.loss_weights, list(terms.values())))
    return terms
