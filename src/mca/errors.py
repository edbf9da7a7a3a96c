"""Shared exception types, so error contracts are testable by class."""

from __future__ import annotations


class MCAError(Exception):
    """Base of every error type here; the CLI reports one as a single line."""


class ShapeError(MCAError, ValueError):
    """Operand shapes violate an operation's dimension contract."""


class ContractError(MCAError, ValueError):
    """A non-shape precondition was violated (scalar-ness, ranges, pairing)."""


class DegenerateInputError(MCAError, ValueError):
    """Input is mathematically degenerate (zero-norm vector in a cosine)."""


class ConfigError(MCAError, ValueError):
    """Invalid configuration value or combination."""


class DataParseError(MCAError, ValueError):
    """Malformed on-disk data; message carries a byte offset when known."""


class TrainingAbortError(MCAError, RuntimeError):
    """Non-finite loss or gradient encountered; names the offending term."""


class UndefinedMetricError(MCAError, ValueError):
    """Metric undefined for this input (single-class ground truth in BER)."""
