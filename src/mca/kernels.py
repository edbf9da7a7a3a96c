"""Hot numerical kernels, vectorized numpy.

GELU evaluates the normal CDF as ``Phi(x) = 0.5 * erfc(-x / sqrt(2))``.  The
textbook ``0.5 * (1 + erf(x / sqrt(2)))`` cancels to exactly 0 below
x ~ -8.3 in float64 (~ -5.8 in float32), although x * Phi(x) stays
representable down to about -38; erfc keeps the tail to full relative
precision.  ``gelu_forward_cdf`` returns the Phi its forward used, and
``gelu_backward`` takes it instead of evaluating erfc a second time.

``erfc`` is a numpy port of Moshier's Cephes ``erfc``/``erf`` (``ndtr.c``),
the routine ``scipy.special.erfc`` evaluates, and gives its bits: the same
float64 operations in the same order, rounded to the input dtype.  The
dtype picks the ``exp``.  Float64 calls libm's, as Cephes does, through
``math.exp`` one element at a time; it runs only in the gradient check and
the tests.  Float32, all of training and eval, calls ``np.exp``, whose
float64 result can differ from libm's in the last bit, and evaluates the
rational Cephes uses for 1 <= |z| < 8 up to the clip below instead of
switching to its second rational at 8.  Rounding to float32 hides both: the
tests compare every float32 with 1 <= |z| up to where erfc saturates, bit
for bit, against scipy.

The softmax and logsumexp kernels reduce over the last axis of an input of
any rank; every leading index is an independent row.
"""

from __future__ import annotations

import math

import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cephes ndtr.c.  erf(x) = x T(x^2) / U(x^2) for |x| <= 1; for |x| >= 1,
# erfc(x) = exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8.
# Highest power first; U, Q and S are monic, their leading 1 left out.
_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
      7.00332514112805075473e3, 5.55923013010394962768e4)
_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
      2.26290000613890934246e4, 4.92673942608635921086e4)
_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
      4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
      9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
      9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
      1.65666309194161350182e3, 5.57535340817727675546e2)
_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
      6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
      1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_MAXLOG = 7.09782712893383996843e2  # Cephes: erfc is 0 or 2 once x^2 > MAXLOG

# |z| is clipped to these before squaring, so nothing overflows.  A float32
# erfc is exactly 0 from z = 10.054195 and exactly 2 from z = -3.832507, so
# the float32 clip changes no result; past 27, z^2 > MAXLOG.
_CLIP_F32 = 10.06
_CLIP_F64 = 27.0


def _polevl(x, k):
    """Cephes polevl: k[0] x^n + ... + k[n] by Horner's rule."""
    y = x * k[0]
    y += k[1]
    for c in k[2:]:
        y *= x
        y += c
    return y


def _p1evl(x, k):
    """Cephes p1evl: x^n + k[0] x^(n-1) + ... + k[n-1], the monic case."""
    y = x + k[0]
    for c in k[1:]:
        y *= x
        y += c
    return y


def _one_minus_erf(c):
    """1 - erf(c) for |c| <= 1, in float64."""
    s = c * c
    y = _polevl(s, _T)
    y *= c
    y /= _p1evl(s, _U)
    return np.subtract(1.0, y, out=y)


def _erfc_tail(x, float32):
    """erfc(x) for 1 <= x <= the dtype's clip, in float64."""
    p = _polevl(x, _P)
    q = _p1evl(x, _Q)
    xx = x * x
    if float32:
        y = np.exp(np.negative(xx, out=xx), out=xx)
    else:
        y = np.fromiter(map(math.exp, np.negative(xx).ravel().tolist()), np.float64, xx.size)
        y = y.reshape(x.shape)
        y[xx > _MAXLOG] = 0.0
        hi = x >= 8.0
        if hi.any():
            p[hi] = _polevl(x[hi], _R)
            q[hi] = _p1evl(x[hi], _S)
    y *= p
    y /= q
    return y


def erfc(z):
    """scipy.special.erfc(z), bit for bit, for a float32 or float64 array z."""
    z = np.asarray(z)
    # Flat, so that a 0-d z also gives arrays, which the in-place steps need.
    a = np.asarray(z, dtype=np.float64).reshape(-1)
    if not a.size or (a.max() < 1.0 and a.min() > -1.0):
        y = _one_minus_erf(a)
    else:
        float32 = z.dtype == np.float32
        ax = np.abs(a)
        tail = _erfc_tail(np.clip(ax, 1.0, _CLIP_F32 if float32 else _CLIP_F64), float32)
        tail = np.where(a < 0.0, 2.0 - tail, tail)
        y = np.where(ax >= 1.0, tail, _one_minus_erf(np.clip(a, -1.0, 1.0)))
    return y.astype(z.dtype, copy=False).reshape(z.shape)


def gelu_forward_cdf(x):
    """Exact GELU x * Phi(x), and Phi(x), with Phi from erfc (exact negative tail)."""
    c = erfc(x * -_INV_SQRT2)
    return x * 0.5 * c, 0.5 * c


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
    """log(sum(exp(x))) over the last axis with max-shift."""
    m = x.max(axis=-1)
    e = np.exp(x - m[..., None])
    return m + np.log(e.sum(axis=-1))
