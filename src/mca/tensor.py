"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a row-major numpy array and a ``requires_grad`` flag.
Primitives record themselves onto the innermost active ``Graph`` (a linear
tape) whenever at least one operand requires a gradient; with no active graph
they run eagerly with no bookkeeping, which is the inference path.

``backward(graph, loss, wrt)`` consumes the tape once in reverse and returns
d loss / d t for each tensor t of ``wrt``, accumulating additively across
multiple uses of a tensor; no tensor stores a gradient.  No gradient is
computed for a tensor with ``requires_grad=False``: each primitive's
backward skips its operands that do not require one (frozen weights,
constants).

Two float widths are supported as a global session setting
(``set_default_dtype``): float32 for training, float64 for the
finite-difference gradient checks.  Widths are never mixed within one graph.

Operator sugar covers ``+`` and ``*``; other primitives are called by name.
Row operations (softmax, logsumexp, normalize) act on the last axis.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from . import kernels
from .errors import ContractError, DegenerateInputError, ShapeError

_DTYPE = np.float32


def set_default_dtype(name: str) -> None:
    """Select the session float width: 'float32' or 'float64'."""
    global _DTYPE
    if name not in ("float32", "float64"):
        raise ContractError(f"unsupported dtype {name!r}")
    _DTYPE = np.float32 if name == "float32" else np.float64


def get_default_dtype() -> type:
    return _DTYPE


class Tensor:
    """Multi-dimensional float array; ``requires_grad`` marks it as differentiable."""

    __slots__ = ("data", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_DTYPE)
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # Operator sugar; scalars and arrays wrap as constants.
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)


class _Node:
    __slots__ = ("out", "inputs", "backward_fn")

    def __init__(self, out, inputs, backward_fn):
        self.out = out
        self.inputs = inputs
        self.backward_fn = backward_fn


class Graph:
    """Linear tape of executed primitives; context manager activates it."""

    def __init__(self):
        self._tape: list[_Node] = []
        self._produced: set[int] = set()
        self._consumed = False

    def __enter__(self):
        _GRAPH_STACK.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _GRAPH_STACK.pop()
        assert popped is self, "graph stack corrupted"
        return False

    def _record(self, node: _Node) -> None:
        self._tape.append(node)
        self._produced.add(id(node.out))


_GRAPH_STACK: list[Graph] = []


def _active_graph() -> Optional[Graph]:
    return _GRAPH_STACK[-1] if _GRAPH_STACK else None


def _wrap(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=_DTYPE), requires_grad=False)


def _make(out_data, inputs: Sequence[Tensor], backward_fn: Callable) -> Tensor:
    """Create the op output, recording onto the active graph when needed."""
    g = _active_graph()
    needs = False
    if g is not None:
        for t in inputs:
            if t.requires_grad:
                needs = True
                break
    out = Tensor(out_data, requires_grad=needs)
    # Tensor.__init__ casts; avoid a second copy by assigning directly.
    out.data = out_data
    if needs:
        g._record(_Node(out, tuple(inputs), backward_fn))
    return out


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, s in enumerate(shape):
        if s == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


def backward(graph: Graph, loss: Tensor,
             wrt: Sequence[Tensor]) -> list[Optional[np.ndarray]]:
    """d loss / d t for each t in ``wrt``, or None where loss does not reach t.

    Consumes the tape: each node is popped before it runs, and its output's
    gradient is dropped once read, so a node's saved arrays are freed as the
    sweep passes them and the graph holds no array once this returns.
    Gradients are kept by tensor identity in a dict that lives only for the
    sweep; the sweep creates no ``Tensor``, so no other tensor can take a key.
    A tensor this graph produced cannot be in ``wrt``: its gradient is
    dropped during the sweep.
    """
    if loss.data.size != 1:
        raise ContractError(f"loss must be scalar, got shape {loss.shape}")
    if id(loss) not in graph._produced:
        raise ContractError("loss was not produced inside this graph")
    if graph._consumed:
        raise ContractError("backward already ran on this graph")
    if any(id(t) in graph._produced for t in wrt):
        raise ContractError("backward is taken only with respect to tensors "
                            "this graph did not produce")
    graph._consumed = True
    grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
    tape = graph._tape
    while tape:
        node = tape.pop()
        gout = grads.pop(id(node.out), None)
        if gout is None:
            continue
        gins = node.backward_fn(gout)
        for t, gin in zip(node.inputs, gins):
            if gin is None or not t.requires_grad:
                continue
            prev = grads.get(id(t))
            if prev is None:
                # Nothing writes a gradient in place, so the first may share its array.
                grads[id(t)] = gin.astype(t.data.dtype, copy=False)
            else:
                grads[id(t)] = prev + gin
    return [grads.get(id(t)) for t in wrt]


# ---------------------------------------------------------------------------
# elementwise / broadcast arithmetic
# ---------------------------------------------------------------------------

def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data + b.data

    def bw(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data - b.data

    def bw(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), bw)


def neg(a) -> Tensor:
    a = _wrap(a)
    return _make(-a.data, (a,), lambda g: (-g,))


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data * b.data
    ad, bd = a.data, b.data

    def bw(g):
        return (
            _unbroadcast(g * bd, a.shape) if a.requires_grad else None,
            _unbroadcast(g * ad, b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), bw)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    out = a.data / b.data
    ad, bd = a.data, b.data

    def bw(g):
        return (
            _unbroadcast(g / bd, a.shape) if a.requires_grad else None,
            _unbroadcast(-g * ad / (bd * bd), b.shape) if b.requires_grad else None,
        )

    return _make(out, (a, b), bw)


# ---------------------------------------------------------------------------
# linear algebra / shape
# ---------------------------------------------------------------------------

def matmul(a, b) -> Tensor:
    """Matrix product over the last two axes.

    Two forms: ``[..., m, k] @ [k, n]`` (a weight matrix applied to every
    leading index; ``a`` may also be a single vector ``[k]``), and equal-rank
    batched products ``[..., m, k] @ [..., k, n]`` with equal leading axes.
    """
    a, b = _wrap(a), _wrap(b)
    if b.ndim == 2 and a.ndim >= 1:
        if a.shape[-1] != b.shape[0]:
            raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    elif a.ndim == b.ndim >= 3:
        if a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
            raise ShapeError(f"batched matmul shapes disagree: {a.shape} @ {b.shape}")
    else:
        raise ShapeError(
            f"matmul needs [..., k] @ [k, n] or equal-rank batches, got {a.shape} @ {b.shape}"
        )
    out = a.data @ b.data
    ad, bd = a.data, b.data

    def bw(g):
        ga = g @ bd.swapaxes(-1, -2) if a.requires_grad else None
        gb = None
        if b.requires_grad and bd.ndim == 2:
            # Sum the weight gradient over every leading index at once.
            k, n = bd.shape
            gb = ad.reshape(-1, k).T @ g.reshape(-1, n)
        elif b.requires_grad:
            gb = ad.swapaxes(-1, -2) @ g
        return (ga, gb)

    return _make(out, (a, b), bw)


def linear(x, w, b) -> Tensor:
    """Affine map ``x @ w + b`` as one node: [..., k] @ [k, n] + [n] -> [..., n].

    The same numpy operations, in the same order, as ``matmul(x, w) + b``,
    so values and gradients are bitwise those of the pair.
    """
    x, w, b = _wrap(x), _wrap(w), _wrap(b)
    if x.ndim < 1 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ShapeError(
            f"linear needs [..., k] @ [k, n] + [n], got {x.shape} @ {w.shape} + {b.shape}"
        )
    xd, wd = x.data, w.data
    out = xd @ wd + b.data

    def bw(g):
        k, n = wd.shape
        return (
            g @ wd.swapaxes(-1, -2) if x.requires_grad else None,
            xd.reshape(-1, k).T @ g.reshape(-1, n) if w.requires_grad else None,
            _unbroadcast(g, b.shape) if b.requires_grad else None,
        )

    return _make(out, (x, w, b), bw)


def transpose_last(a) -> Tensor:
    a = _wrap(a)
    if a.ndim < 2:
        raise ShapeError(f"transpose_last needs ndim >= 2, got {a.shape}")
    out = a.data.swapaxes(-1, -2)
    return _make(out, (a,), lambda g: (g.swapaxes(-1, -2),))


def permute(a, axes) -> Tensor:
    a = _wrap(a)
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    out = a.data.transpose(axes)
    return _make(out, (a,), lambda g: (g.transpose(inv),))


def reshape(a, shape) -> Tensor:
    a = _wrap(a)
    shape = tuple(shape)
    orig = a.shape
    out = a.data.reshape(shape)
    return _make(out, (a,), lambda g: (g.reshape(orig),))


def diag_part(a) -> Tensor:
    """Diagonal of the last two axes: [..., n, n] -> [..., n]."""
    a = _wrap(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ShapeError(f"diag_part needs square last axes, got {a.shape}")
    out = np.ascontiguousarray(np.diagonal(a.data, axis1=-2, axis2=-1))
    shape, idx = a.shape, np.arange(a.shape[-1])

    def bw(g):
        full = np.zeros(shape, dtype=g.dtype)
        full[..., idx, idx] = g
        return (full,)

    return _make(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------

def mean_all(a) -> Tensor:
    a = _wrap(a)
    out = a.data.mean()
    shape, n = a.shape, a.data.size

    def bw(g):
        return (np.broadcast_to(g / n, shape).copy(),)

    return _make(np.asarray(out), (a,), bw)


def sum_axis(a, axis: int) -> Tensor:
    """Sum over one axis (negative counts from the end)."""
    a = _wrap(a)
    out = a.data.sum(axis=axis)
    shape = a.shape

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g, axis), shape).copy(),)

    return _make(out, (a,), bw)


def mean_axis(a, axis: int) -> Tensor:
    """Mean over one axis, e.g. the token axis -2 of [..., K, d] -> [..., d]."""
    a = _wrap(a)
    if a.shape[axis] < 1:
        raise ShapeError(f"mean_axis over an empty axis, got {a.shape}")
    out = a.data.mean(axis=axis)
    n, shape = a.shape[axis], a.shape

    def bw(g):
        return (np.broadcast_to(np.expand_dims(g / n, axis), shape).copy(),)

    return _make(out, (a,), bw)


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------

def gelu(a) -> Tensor:
    a = _wrap(a)
    xd = a.data
    out, cdf = kernels.gelu_forward_cdf(xd)
    return _make(out, (a,), lambda g: (kernels.gelu_backward(xd, g, cdf),))


def sigmoid(a) -> Tensor:
    a = _wrap(a)
    out = kernels.sigmoid_forward(a.data)
    return _make(out, (a,), lambda g: (kernels.sigmoid_backward(out, g),))


def log(a) -> Tensor:
    a = _wrap(a)
    out = np.log(a.data)
    ad = a.data
    return _make(out, (a,), lambda g: (g / ad,))


def clamp(a, lo: float, hi: float) -> Tensor:
    a = _wrap(a)
    out = np.clip(a.data, lo, hi)
    mask = (a.data >= lo) & (a.data <= hi)

    def bw(g):
        return (g * mask,)

    return _make(out, (a,), bw)


def softmax_rows(a) -> Tensor:
    """Softmax over the last axis: [..., n] -> [..., n]."""
    a = _wrap(a)
    if a.ndim < 1:
        raise ShapeError(f"softmax_rows needs at least one axis, got {a.shape}")
    s = kernels.softmax_rows_forward(a.data)

    def bw(g):
        return (kernels.softmax_rows_backward(s, g),)

    return _make(s, (a,), bw)


def logsumexp_rows(a) -> Tensor:
    """logsumexp over the last axis: [..., n] -> [...]; a 1-D input gives a 0-d scalar."""
    a = _wrap(a)
    if a.ndim < 1 or a.shape[-1] < 1:
        raise ShapeError(f"logsumexp_rows needs a nonempty last axis, got {a.shape}")
    lse = np.asarray(kernels.logsumexp_rows_forward(a.data))
    ad = a.data

    def bw(g):
        soft = np.exp(ad - lse[..., None])
        return (g[..., None] * soft,)

    return _make(lse, (a,), bw)


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize over the last axis (variance eps 1e-5), then affine scale/shift."""
    x, gamma, beta = _wrap(x), _wrap(gamma), _wrap(beta)
    d = x.shape[-1]
    if gamma.shape != (d,) or beta.shape != (d,):
        raise ShapeError(
            f"layer_norm affine shapes {gamma.shape}/{beta.shape} vs width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x.data - mu) * rstd
    out = xhat * gamma.data + beta.data
    gd = gamma.data

    def bw(g):
        dx = dgamma = dbeta = None
        if x.requires_grad:
            dxhat = g * gd
            m1 = dxhat.mean(axis=-1, keepdims=True)
            m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
            dx = rstd * (dxhat - m1 - xhat * m2)
        axes = tuple(range(g.ndim - 1))
        if gamma.requires_grad:
            dgamma = (g * xhat).sum(axis=axes)
        if beta.requires_grad:
            dbeta = g.sum(axis=axes)
        return (dx, dgamma, dbeta)

    return _make(out, (x, gamma, beta), bw)


# ---------------------------------------------------------------------------
# similarity
# ---------------------------------------------------------------------------

def normalize_rows(x) -> Tensor:
    """Scale each row [..., d] to unit Euclidean norm; zero rows are errors."""
    x = _wrap(x)
    if x.ndim < 1:
        raise ShapeError(f"normalize_rows needs at least one axis, got {x.shape}")
    norms = np.linalg.norm(x.data, axis=-1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInputError("normalize_rows: zero-norm row")
    y = x.data / norms

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return ((g - y * dot) / norms,)

    return _make(y, (x,), bw)
