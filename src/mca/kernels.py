"""Hot numerical kernels, vectorized numpy and scipy.

GELU evaluates the normal CDF as ``Phi(x) = 0.5 * erfc(-x / sqrt(2))``.  The
textbook ``0.5 * (1 + erf(x / sqrt(2)))`` cancels to exactly 0 below
x ~ -8.3 in float64 (~ -5.8 in float32), although x * Phi(x) stays
representable down to about -38; erfc keeps the tail to full relative
precision.  ``gelu_forward_cdf`` returns the Phi its forward used, and
``gelu_backward`` takes it instead of evaluating erfc a second time.

The softmax and logsumexp kernels reduce over the last axis of an input of
any rank; every leading index is an independent row.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special as _sp

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)


def gelu_forward_cdf(x):
    """Exact GELU x * Phi(x), and Phi(x), with Phi from erfc (exact negative tail)."""
    erfc = _sp.erfc(-x * _INV_SQRT2)
    return x * 0.5 * erfc, 0.5 * erfc


def gelu_backward(x, g, cdf):
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x), chained with upstream g.

    ``cdf`` is Phi(x) as ``gelu_forward_cdf`` returned it.
    """
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * (cdf + x * phi)


def sigmoid_forward(x):
    """Numerically stable logistic: 1/(1+e) where x >= 0, else e/(1+e), e = exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid_backward(y, g):
    """Backward from the forward output y = sigmoid(x)."""
    return g * y * (1.0 - y)


def softmax_rows_forward(x):
    """Softmax over the last axis with max-shift stabilization."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_rows_backward(s, g):
    """Backward of the last-axis softmax given forward output s."""
    dot = (g * s).sum(axis=-1, keepdims=True)
    return s * (g - dot)


def logsumexp_rows_forward(x):
    """log(sum(exp(x))) over the last axis with max-shift; -inf entries contribute 0."""
    m = x.max(axis=-1)
    # exp(-inf - m) is 0, so masked entries drop out of the sum.
    e = np.exp(x - m[..., None])
    return m + np.log(e.sum(axis=-1))
