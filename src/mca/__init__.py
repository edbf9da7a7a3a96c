"""Multi-scale contrastive adaptors on a frozen toy transformer segmenter.

A pure-NumPy research artifact: tape-based autodiff, a small frozen ViT
encoder, token- and sample-level contrastive adaptors, synthetic
camouflage/shadow data, and a deterministic AdamW training loop.  Hot
elementwise kernels are vectorized numpy (see mca.kernels), GELU's erfc
included: a numpy port of Cephes' erfc that gives scipy.special.erfc's
bits, with libm's exp for float64 arrays and numpy's for float32.
"""

from .config import TrainConfig, VARIANTS, load_config
from .errors import (
    ConfigError,
    ContractError,
    DataParseError,
    DegenerateInputError,
    ShapeError,
    TrainingAbortError,
    UndefinedMetricError,
)
from .tensor import Graph, Tensor, backward, set_default_dtype

__version__ = "0.1.0"

__all__ = [
    "Tensor",
    "Graph",
    "backward",
    "set_default_dtype",
    "TrainConfig",
    "VARIANTS",
    "load_config",
    "ShapeError",
    "ContractError",
    "DegenerateInputError",
    "ConfigError",
    "DataParseError",
    "TrainingAbortError",
    "UndefinedMetricError",
    "__version__",
]
