"""Token-level and sample-level contrastive adaptors with InfoNCE losses.

The token adaptor is a per-token bottleneck MLP whose output joins the
transformer residual stream; the sample adaptor projects the mean-pooled
token matrix to one embedding per image and exists only as a training-time
loss branch.  Both InfoNCE losses contrast matched pairs (same token index,
or same sample) against the cross-view mismatched pairs, with cosine
similarity taken for all pairs at once as
``matmul(normalize_rows(x), normalize_rows(y)^T)`` and divided by the
``temperature`` argument (``TrainConfig`` checks that it is positive).
Every mismatched pair is a negative: the token loss of an image contrasts
each token with all K - 1 others.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import (
    Tensor,
    diag_part,
    gelu,
    linear,
    logsumexp_rows,
    matmul,
    mean_all,
    mean_axis,
    normalize_rows,
    sub,
    transpose_last,
)


@dataclass
class TokenAdaptorWeights:
    """Bottleneck MLP applied per token: up(gelu(down(x)))."""

    w_down: Tensor  # [d, d/r]
    b_down: Tensor  # [d/r]
    w_up: Tensor    # [d/r, d]
    b_up: Tensor    # [d]


@dataclass
class SampleAdaptorWeights:
    """Projection + bottleneck MLP applied to the pooled token matrix."""

    w_p: Tensor     # [d, d]
    b_p: Tensor     # [d]
    w_down: Tensor  # [d, d/r]
    b_down: Tensor  # [d/r]
    w_up: Tensor    # [d/r, d]
    b_up: Tensor    # [d]


# Tunable-weight init scale of the token down-projection and the sample
# up-projection.  Adam moves each coordinate by roughly the learning rate
# per step regardless of gradient magnitude, so over a short cosine schedule
# the reachable ball around the init is small; starting these weights at
# O(1) scale puts the adaptor in a responsive regime from the first step
# instead of spending most of the schedule escaping a near-zero plateau.
# The residual path still starts at exactly zero because w_up of the token
# adaptor is zero-initialised.  The sample branch's w_p and w_down are
# drawn at fan-in scale instead (see init_sample_adaptor).
ADAPTOR_INIT_STD = 4.0


def _check_bottleneck(d: int, r: int) -> int:
    if d % r != 0:
        raise ConfigError(f"bottleneck factor {r} must divide width {d}")
    return d // r


def init_token_adaptor(d: int, r: int, rng: np.random.Generator) -> TokenAdaptorWeights:
    """Seeded-random down-projection, zero up-projection and biases.

    Zero w_up guarantees the adapted forward starts exactly at the frozen
    backbone.
    """
    dr = _check_bottleneck(d, r)
    return TokenAdaptorWeights(
        w_down=Tensor(rng.normal(0.0, ADAPTOR_INIT_STD, (d, dr)), requires_grad=True),
        b_down=Tensor(np.zeros(dr), requires_grad=True),
        w_up=Tensor(np.zeros((dr, d)), requires_grad=True),
        b_up=Tensor(np.zeros(d), requires_grad=True),
    )


def init_sample_adaptor(d: int, r: int, rng: np.random.Generator) -> SampleAdaptorWeights:
    """Seeded-random init throughout.

    Unlike the token adaptor, w_up here is random rather than zero: the
    sample embedding never enters the residual stream, so zero-init buys no
    equivalence property and would make the embedding zero-norm (its cosine,
    and therefore the sample-level loss, would be undefined at step 0).

    w_p and w_down are drawn at fan-in scale (std 1/sqrt(d)), w_up at
    ``ADAPTOR_INIT_STD``.  At that scale through both projections the
    pre-GELU variance compounds, so every bottleneck unit of an image could
    sit far enough below zero that the whole hidden vector, and with it the
    embedding, is zero.  The draws keep their order and count, so every
    other tensor initialised from the same ``rng`` is unchanged.
    """
    dr = _check_bottleneck(d, r)
    fan_in_std = 1.0 / math.sqrt(d)
    return SampleAdaptorWeights(
        w_p=Tensor(rng.normal(0.0, fan_in_std, (d, d)), requires_grad=True),
        b_p=Tensor(np.zeros(d), requires_grad=True),
        w_down=Tensor(rng.normal(0.0, fan_in_std, (d, dr)), requires_grad=True),
        b_down=Tensor(np.zeros(dr), requires_grad=True),
        w_up=Tensor(rng.normal(0.0, ADAPTOR_INIT_STD, (dr, d)), requires_grad=True),
        b_up=Tensor(np.zeros(d), requires_grad=True),
    )


def token_adaptor_is_zero(w: TokenAdaptorWeights) -> bool:
    """True while the adaptor output is exactly zero for every input."""
    return not (np.any(w.w_up.data) or np.any(w.b_up.data))


def tc_forward(x: Tensor, w: TokenAdaptorWeights) -> Tensor:
    """Per-token bottleneck MLP: [..., K, d] -> [..., K, d]."""
    if x.ndim < 2 or x.shape[-1] != w.w_down.shape[0]:
        raise ShapeError(f"tc_forward width mismatch: x {x.shape} vs {w.w_down.shape}")
    h = gelu(linear(x, w.w_down, w.b_down))
    return linear(h, w.w_up, w.b_up)


def sc_forward(x: Tensor, w: SampleAdaptorWeights) -> Tensor:
    """Mean-pool tokens, project, bottleneck MLP: [..., K, d] -> [..., d]."""
    if x.ndim < 2 or x.shape[-1] != w.w_p.shape[0]:
        raise ShapeError(f"sc_forward width mismatch: x {x.shape} vs {w.w_p.shape}")
    h = linear(mean_axis(x, -2), w.w_p, w.b_p)
    return linear(gelu(linear(h, w.w_down, w.b_down)), w.w_up, w.b_up)


def _infonce_from_pairs(x: Tensor, y: Tensor, temperature: float) -> Tensor:
    """Mean over leading indices and anchors j of logsumexp_j'(sim[j, j']/t) - sim[j, j]/t.

    ``x`` and ``y`` are [..., n, d]; every leading index is its own set of
    n pairs.  Row j of each [n, n] similarity matrix holds the positive at
    the diagonal and the cross-view negatives off it, so the expression
    equals -log(exp(s+/t) / sum_j' exp(s_jj'/t)).  With equal n per leading
    index, the mean over all anchors is the mean of the per-index losses.
    """
    sim = matmul(normalize_rows(x), transpose_last(normalize_rows(y)))
    scaled = sim * (1.0 / temperature)
    return mean_all(sub(logsumexp_rows(scaled), diag_part(scaled)))


def token_contrastive_loss(x: Tensor, y: Tensor, temperature: float) -> Tensor:
    """Token-level InfoNCE over K anchor tokens; exactly 0 at K=1.

    ``x`` and ``y`` are one image's tokens [K, d] or a batch [..., K, d];
    the loss of a batch is the mean of its per-image losses.  Every other
    token of the view is a negative.
    """
    if x.ndim < 2 or x.shape != y.shape:
        raise ShapeError(f"token loss needs equal [..., K, d] inputs, got {x.shape}/{y.shape}")
    if x.shape[-2] < 1:
        raise ContractError("token loss needs at least one token")
    return _infonce_from_pairs(x, y, temperature)


def sample_contrastive_loss(eps: Tensor, eps_aug: Tensor, temperature: float) -> Tensor:
    """Sample-level InfoNCE over B embeddings [B, d]; exactly 0 at B=1.

    Each embedding's positive is its own augmented view; every other
    augmented view of the batch is a negative.
    """
    if eps.ndim != 2 or eps.shape != eps_aug.shape:
        raise ContractError(
            f"sample loss needs matching [B, d] batches, got {eps.shape}/{eps_aug.shape}"
        )
    return _infonce_from_pairs(eps, eps_aug, temperature)
