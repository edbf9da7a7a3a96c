"""Toy vision-transformer encoder with frozen weights and adaptor residuals.

Images tokenize into K = (image_size / patch_size)^2 patch tokens (linear
projection of each flattened patch plus a learned position embedding row).
Each pre-norm transformer layer computes multi-head attention and a GELU MLP
with residual connections; all layer weights, the patch projection, and the
position embedding are frozen.  With adaptors enabled, every layer output is
the sum of the transformer layer output and the token adaptor applied to the
same layer input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import List, Optional, Tuple

import numpy as np

from .adaptors import (
    SampleAdaptorWeights,
    TokenAdaptorWeights,
    init_sample_adaptor,
    init_token_adaptor,
    tc_forward,
)
from .errors import ConfigError, ShapeError
from .tensor import (
    Tensor,
    gelu,
    layer_norm,
    linear,
    matmul,
    permute,
    reshape,
    softmax_rows,
    transpose_last,
)

INIT_STD = 0.02  # frozen-weight init scale (seeded normal)


@dataclass(frozen=True)
class EncoderConfig:
    image_size: int = 64
    patch_size: int = 16
    channels: int = 3
    embed_dim: int = 64
    num_layers: int = 4
    num_heads: int = 4
    mlp_ratio: int = 4

    def __post_init__(self):
        for f in fields(EncoderConfig):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be >= 1, got {getattr(self, f.name)}")
        if self.image_size % self.patch_size != 0:
            raise ConfigError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads != 0:
            raise ConfigError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_tokens(self) -> int:
        return self.grid * self.grid

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size * self.patch_size


@dataclass
class LayerWeights:
    """One pre-norm transformer layer; every tensor frozen."""

    num_heads: int
    ln1_g: Tensor
    ln1_b: Tensor
    w_q: Tensor
    b_q: Tensor
    w_k: Tensor
    b_k: Tensor
    w_v: Tensor
    b_v: Tensor
    w_o: Tensor
    b_o: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w_mlp1: Tensor
    b_mlp1: Tensor
    w_mlp2: Tensor
    b_mlp2: Tensor


@dataclass
class LayerAdaptors:
    """Tunable adaptor pair attached to one layer."""

    token: TokenAdaptorWeights
    sample: SampleAdaptorWeights


@dataclass
class EncoderState:
    patch_projection: Tensor      # [patch_dim, d], frozen
    patch_bias: Tensor            # [d], frozen
    position_embedding: Tensor    # [K, d], frozen
    layers: List[LayerWeights]
    adaptors: List[LayerAdaptors] = field(default_factory=list)


def _frozen(rng: np.random.Generator, shape) -> Tensor:
    return Tensor(rng.normal(0.0, INIT_STD, shape), requires_grad=False)


def init_layer(cfg: EncoderConfig, rng: np.random.Generator) -> LayerWeights:
    d = cfg.embed_dim
    hidden = cfg.mlp_ratio * d
    ones = lambda n: Tensor(np.ones(n), requires_grad=False)
    zeros = lambda n: Tensor(np.zeros(n), requires_grad=False)
    return LayerWeights(
        num_heads=cfg.num_heads,
        ln1_g=ones(d), ln1_b=zeros(d),
        w_q=_frozen(rng, (d, d)), b_q=zeros(d),
        w_k=_frozen(rng, (d, d)), b_k=zeros(d),
        w_v=_frozen(rng, (d, d)), b_v=zeros(d),
        w_o=_frozen(rng, (d, d)), b_o=zeros(d),
        ln2_g=ones(d), ln2_b=zeros(d),
        w_mlp1=_frozen(rng, (d, hidden)), b_mlp1=zeros(hidden),
        w_mlp2=_frozen(rng, (hidden, d)), b_mlp2=zeros(d),
    )


def init_encoder_state(cfg: EncoderConfig, rng: np.random.Generator,
                       bottleneck: int) -> EncoderState:
    """Seeded frozen backbone plus per-layer tunable adaptors."""
    d = cfg.embed_dim
    patch_projection = _frozen(rng, (cfg.patch_dim, d))
    # Frozen bias centers the expected pixel level (images live in [0, 1], so
    # E[pixel] = 0.5): token content then encodes per-patch deviations rather
    # than sharing one large DC direction, which would make all tokens of an
    # image nearly parallel in cosine space.
    patch_bias = Tensor(-0.5 * patch_projection.data.sum(axis=0), requires_grad=False)
    state = EncoderState(
        patch_projection=patch_projection,
        patch_bias=patch_bias,
        position_embedding=_frozen(rng, (cfg.num_tokens, d)),
        layers=[init_layer(cfg, rng) for _ in range(cfg.num_layers)],
    )
    state.adaptors = [
        LayerAdaptors(
            token=init_token_adaptor(d, bottleneck, rng),
            sample=init_sample_adaptor(d, bottleneck, rng),
        )
        for _ in range(cfg.num_layers)
    ]
    return state


def extract_patches(image: np.ndarray, cfg: EncoderConfig) -> np.ndarray:
    """[..., C, H, W] -> [..., K, C*p*p] row-major patch matrices (pure numpy)."""
    if image.shape[-3:] != (cfg.channels, cfg.image_size, cfg.image_size):
        raise ShapeError(
            f"image shape {image.shape} vs configured "
            f"({cfg.channels}, {cfg.image_size}, {cfg.image_size})"
        )
    lead = image.shape[:-3]
    g, p, n = cfg.grid, cfg.patch_size, len(lead)
    blocks = image.reshape(*lead, cfg.channels, g, p, g, p)
    blocks = blocks.transpose(*range(n), n + 1, n + 3, n, n + 2, n + 4)
    return np.ascontiguousarray(blocks.reshape(*lead, cfg.num_tokens, cfg.patch_dim))


def tokenize(image: np.ndarray, cfg: EncoderConfig, state: EncoderState) -> Tensor:
    """Patch tokens plus position embedding: [..., C, H, W] -> [..., K, d]."""
    patches = Tensor(extract_patches(image, cfg), requires_grad=False)
    tokens = linear(patches, state.patch_projection, state.patch_bias)
    return tokens + state.position_embedding


def layer_forward(x: Tensor, layer: LayerWeights) -> Tensor:
    """Pre-norm multi-head attention + MLP with residuals: [..., K, d] -> [..., K, d].

    Leading axes are independent images.
    """
    *lead, k_tokens, d = x.shape
    heads = layer.num_heads
    dh = d // heads
    n = len(lead)
    h = layer_norm(x, layer.ln1_g, layer.ln1_b)
    q = linear(h, layer.w_q, layer.b_q)
    k = linear(h, layer.w_k, layer.b_k)
    v = linear(h, layer.w_v, layer.b_v)
    # [..., K, d] <-> [..., heads, K, dh]
    to_heads = (*range(n), n + 1, n, n + 2)
    split = lambda t: permute(reshape(t, (*lead, k_tokens, heads, dh)), to_heads)
    qh, kh, vh = split(q), split(k), split(v)
    scores = matmul(qh, transpose_last(kh)) * (1.0 / math.sqrt(dh))
    attn = softmax_rows(scores)
    ctx = matmul(attn, vh)  # [..., heads, K, dh]
    merged = reshape(permute(ctx, to_heads), (*lead, k_tokens, d))
    x1 = x + linear(merged, layer.w_o, layer.b_o)
    h2 = layer_norm(x1, layer.ln2_g, layer.ln2_b)
    mlp = linear(gelu(linear(h2, layer.w_mlp1, layer.b_mlp1)), layer.w_mlp2, layer.b_mlp2)
    return x1 + mlp


def encoder_forward(
    x0: Tensor, state: EncoderState, adaptors_enabled: bool
) -> Tuple[List[Tensor], Optional[List[Tensor]]]:
    """All layer outputs [X^1..X^N] and, when enabled, adaptor outputs [Y^1..Y^N].

    ``x0`` is [..., K, d]: one image's tokens, or a batch of them.

    With adaptors enabled each layer output is layer(x) + token_adaptor(x)
    on the same input x; otherwise it is the plain frozen forward.
    """
    xs: List[Tensor] = []
    ys: Optional[List[Tensor]] = [] if adaptors_enabled else None
    x = x0
    for i, layer in enumerate(state.layers):
        lx = layer_forward(x, layer)
        if adaptors_enabled:
            y = tc_forward(x, state.adaptors[i].token)
            ys.append(y)
            x = lx + y
        else:
            x = lx
        xs.append(x)
    return xs, ys
