"""Training configuration: the hyperparameters a run may set, serialized as
a flat ``key = value`` text format.  A choice that no run varies is a
constant of the code, not a key: the token loss keeps every negative, and
the augmented views pass through the adaptors the variant enables.

Precedence when loading: file values, then explicit CLI overrides, then the
``MCA_SEED`` environment variable (seed only).  Unknown keys are errors.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from typing import Optional

from .augment import parse_strategy
from .encoder import EncoderConfig
from .errors import ConfigError

VARIANTS = ("decoder_only", "adaptor_plain", "tc_only", "sc_only", "mca")


@dataclass(frozen=True)
class TrainConfig(EncoderConfig):
    # The inherited EncoderConfig geometry fields come first in config.txt.
    # adaptors / contrastive
    bottleneck: int = 8          # width-reduction factor; overridable per run
    temperature: float = 0.1
    # augmentation
    strategy: str = "CJ+RS"
    # optimization
    batch_size: int = 8
    epochs: int = 30
    lr_start: float = 2e-4
    lr_end: float = 1e-7
    # loss weights (BCE, IoU, CL_t, CL_s)
    w_bce: float = 1.0
    w_iou: float = 1.0
    w_cl_t: float = 1.0
    w_cl_s: float = 1.0
    # run identity
    variant: str = "mca"
    seed: int = 0
    data_root: str = "data"
    out_dir: str = "runs/default"

    def __post_init__(self):
        super().__post_init__()  # validates geometry divisibility
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")
            # config_to_text must read back: '#' starts a comment, a line break
            # ends the line, and each value is stripped.
            if isinstance(value, str) and ("#" in value or len(value.splitlines()) > 1
                                           or value != value.strip()):
                raise ConfigError(f"{f.name} = {value!r} would not read back from config.txt: "
                                  "no '#', line break or whitespace at either end")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if not (self.lr_start > self.lr_end > 0):
            raise ConfigError(
                f"need lr_start > lr_end > 0, got {self.lr_start} / {self.lr_end}"
            )
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.bottleneck < 1 or self.embed_dim % self.bottleneck != 0:
            raise ConfigError(
                f"bottleneck {self.bottleneck} must be >= 1 and divide embed_dim {self.embed_dim}"
            )
        if not self.temperature > 0:
            raise ConfigError("temperature must be positive")
        parse_strategy(self.strategy)  # validates the op set

    @property
    def adaptors_enabled(self) -> bool:
        return self.variant != "decoder_only"

    @property
    def use_token_loss(self) -> bool:
        return self.variant in ("tc_only", "mca")

    @property
    def use_sample_loss(self) -> bool:
        return self.variant in ("sc_only", "mca")

    @property
    def loss_weights(self):
        return (self.w_bce, self.w_iou, self.w_cl_t, self.w_cl_s)


# Config key -> value type, read from each field's default.
_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)}


def config_to_text(cfg: TrainConfig) -> str:
    """Serialize as one 'key = value' line per field, in declaration order."""
    return "".join(f"{f.name} = {getattr(cfg, f.name)}\n" for f in fields(cfg))


def _coerce(name: str, raw: str, target_type: type):
    raw = raw.strip()
    try:
        return target_type(raw)
    except ValueError as exc:
        raise ConfigError(f"cannot parse config key {name!r} from {raw!r}") from exc


def config_from_text(text: str) -> TrainConfig:
    """Parse 'key = value' lines; '#' starts a comment; unknown or repeated keys error."""
    updates, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"config line {lineno} is not 'key = value': {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r} on line {lineno}")
        if key in lines:
            raise ConfigError(
                f"config key {key!r} is set twice, on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        updates[key] = _coerce(key, raw, _TYPES[key])
    return TrainConfig(**updates)


def load_config(path: Optional[str], overrides: Optional[dict] = None) -> TrainConfig:
    """File (optional) -> overrides -> MCA_SEED environment variable."""
    cfg = TrainConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as f:
                cfg = config_from_text(f.read())
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file is not UTF-8 text: {path}") from exc
    if overrides:
        bad = set(overrides) - _TYPES.keys()
        if bad:
            raise ConfigError(f"unknown config keys in overrides: {sorted(bad)}")
        cfg = replace(cfg, **overrides)
    env_seed = os.environ.get("MCA_SEED")
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError as exc:
            raise ConfigError(f"MCA_SEED must be an integer, got {env_seed!r}") from exc
        cfg = replace(cfg, seed=seed)
    return cfg


def parse_override(text: str) -> tuple:
    """Parse a 'key=value' CLI override into a typed (key, value) pair."""
    if "=" not in text:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    key, raw = (part.strip() for part in text.split("=", 1))
    if key not in _TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    return key, _coerce(key, raw, _TYPES[key])
