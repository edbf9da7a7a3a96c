"""Hot numerical kernels, vectorized numpy and scipy.

GELU evaluates the normal CDF as ``Phi(x) = 0.5 * erfc(-x / sqrt(2))``.  The
textbook ``0.5 * (1 + erf(x / sqrt(2)))`` cancels to exactly 0 below
x ~ -8.3 in float64 (~ -5.8 in float32), although x * Phi(x) stays
representable down to about -38; erfc keeps the tail to full relative
precision.  ``gelu_forward_cdf`` returns the Phi its forward used, so that a
backward pass can take it instead of evaluating erfc a second time.
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


def gelu_forward(x):
    """Exact GELU: x * Phi(x)."""
    return gelu_forward_cdf(x)[0]


def gelu_backward(x, g, cdf=None):
    """d/dx [x * Phi(x)] = Phi(x) + x * phi(x), chained with upstream g.

    ``cdf`` is Phi(x) as ``gelu_forward_cdf`` returned it; without it Phi is
    evaluated again, to the same bits.
    """
    if cdf is None:
        cdf = 0.5 * _sp.erfc(-x * _INV_SQRT2)
    phi = np.exp(-0.5 * x * x) * _INV_SQRT2PI
    return g * (cdf + x * phi)


def sigmoid_forward(x):
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid_backward(y, g):
    """Backward from the forward output y = sigmoid(x)."""
    return g * y * (1.0 - y)


def softmax_rows_forward(x):
    """Row softmax of a 2-D array with max-shift stabilization."""
    shifted = x - x.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def softmax_rows_backward(s, g):
    """Backward of row softmax given forward output s."""
    dot = (g * s).sum(axis=1, keepdims=True)
    return s * (g - dot)


def logsumexp_rows_forward(x):
    """Row-wise log(sum(exp(x))) with max-shift; -inf entries contribute 0."""
    m = x.max(axis=1)
    # exp(-inf - m) is 0, so masked entries drop out of the sum.
    e = np.exp(x - m[:, None])
    return m + np.log(e.sum(axis=1))
