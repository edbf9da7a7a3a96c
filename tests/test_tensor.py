"""Autodiff engine: forward values, gradients, and graph contracts."""

import contextlib
import weakref

import numpy as np
import pytest

from mca import tensor as T
from mca.errors import ContractError, DegenerateInputError, ShapeError
from mca.gradcheck import finite_diff_check, float64_session


def _total(t):
    """Sum of every entry, as a scalar loss."""
    return T.sum_axis(T.reshape(t, (-1,)), 0)


def test_matmul_known_value():
    a = T.Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = T.Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(T.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as e:
        T.matmul(T.Tensor(np.ones((2, 3))), T.Tensor(np.ones((4, 2))))
    assert "(2, 3)" in str(e.value) and "(4, 2)" in str(e.value)


def test_gelu_known_values():
    x = T.Tensor([0.0, 1.0])
    y = T.gelu(x).data
    assert y[0] == 0.0
    assert abs(y[1] - 0.841345) < 1e-6


def test_logsumexp_singleton_is_exact_identity():
    x = T.Tensor([3.25])
    assert T.logsumexp_rows(x).item() == x.data[0]


def test_logsumexp_matches_numpy(f64):
    rng = np.random.default_rng(0)
    v = rng.normal(size=17)
    got = T.logsumexp_rows(T.Tensor(v)).item()
    want = float(np.log(np.sum(np.exp(v - v.max()))) + v.max())
    assert abs(got - want) < 1e-12


def test_logsumexp_empty_rejected():
    with pytest.raises(ShapeError):
        T.logsumexp_rows(T.Tensor(np.zeros(0)))


def test_softmax_rows_sums_to_one():
    rng = np.random.default_rng(1)
    s = T.softmax_rows(T.Tensor(rng.normal(size=(5, 7)))).data
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-6)
    assert (s > 0).all()


def test_layer_norm_zero_mean_unit_var(f64):
    rng = np.random.default_rng(2)
    x = T.Tensor(rng.normal(2.0, 3.0, size=(4, 16)))
    g = T.Tensor(np.ones(16))
    b = T.Tensor(np.zeros(16))
    y = T.layer_norm(x, g, b).data
    assert np.allclose(y.mean(axis=1), 0.0, atol=1e-12)
    assert np.allclose(y.var(axis=1), 1.0, atol=1e-4)  # eps-softened


def test_eager_mode_records_nothing():
    a = T.Tensor([1.0], requires_grad=True)
    out = T.gelu(a)  # no active graph
    assert out.requires_grad is False
    assert T._GRAPH_STACK == [] and not hasattr(a, "grad")


def test_requires_grad_propagates_only_inside_graph():
    a = T.Tensor([1.0], requires_grad=True)
    with T.Graph() as g:
        out = T.gelu(a)
        assert out.requires_grad is True
        (grad,) = T.backward(g, _total(out), [a])
    assert grad is not None


def test_backward_accumulates_across_reuse():
    a = T.Tensor([2.0], requires_grad=True)
    with T.Graph() as g:
        loss = _total(a * a)  # d/da = 2a = 4
        (grad,) = T.backward(g, loss, [a])
    assert abs(grad[0] - 4.0) < 1e-6


def test_operands_sharing_an_upstream_gradient_keep_their_own(f64):
    # add without broadcast hands the same upstream array to both operands.
    # a's earlier use (q = a * a) adds to a's gradient after b's is set, and
    # must not reach b's.
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    b = T.Tensor([3.0, 4.0], requires_grad=True)
    w = T.Tensor([0.5, -2.0])
    with T.Graph() as g:
        q = T.mul(a, a)
        s = T.add(a, b)
        ga, gb = T.backward(g, _total(T.mul(T.add(s, q), w)), [a, b])
    np.testing.assert_array_equal(ga, w.data + 2.0 * a.data * w.data)
    np.testing.assert_array_equal(gb, w.data)


def test_backward_consumes_the_tape():
    a = T.Tensor([1.0, -2.0], requires_grad=True)
    w = T.Tensor(np.full((2, 3), 0.5), requires_grad=True)
    b = T.Tensor(np.zeros(3), requires_grad=True)
    frozen = T.Tensor([2.0, 3.0, 4.0])
    with T.Graph() as g:
        h = T.linear(a, w, b)
        loss = _total(T.gelu(h) * h * frozen)
        saved = [weakref.ref(node.backward_fn) for node in g._tape]
        *grads, frozen_grad = T.backward(g, loss, [a, w, b, frozen])
    assert g._tape == []
    assert all(r() is None for r in saved)  # each node's saved arrays went with it
    for leaf, grad in zip((a, w, b), grads, strict=True):
        assert grad is not None and grad.shape == leaf.shape
    assert frozen_grad is None


def test_backward_refuses_a_tensor_its_graph_produced():
    # A produced tensor's gradient is dropped during the sweep, so there is
    # no right answer to return for it.
    a = T.Tensor([1.0, -2.0], requires_grad=True)
    with T.Graph() as g:
        h = a * a
        loss = _total(h)
        nodes = list(g._tape)
        with pytest.raises(ContractError, match="did not produce"):
            T.backward(g, loss, [a, h])
        assert g._tape == nodes  # refused before the sweep: the tape is intact
        (grad,) = T.backward(g, loss, [a])
    np.testing.assert_array_equal(grad, 2.0 * a.data)


def test_backward_rejects_non_scalar():
    a = T.Tensor([1.0, 2.0], requires_grad=True)
    with T.Graph() as g:
        out = a * 2.0
        with pytest.raises(ContractError):
            T.backward(g, out, [a])


def test_backward_rejects_foreign_loss():
    a = T.Tensor([1.0], requires_grad=True)
    with T.Graph():
        pass
    with T.Graph() as g2:
        _ = a * 1.0
        foreign = T.Tensor([3.0])
        with pytest.raises(ContractError):
            T.backward(g2, foreign, [a])


def test_broadcast_add_unbroadcasts_gradient(f64):
    a = T.Tensor(np.ones((3, 4)), requires_grad=True)
    b = T.Tensor(np.ones(4), requires_grad=True)
    with T.Graph() as g:
        ga, gb = T.backward(g, _total(a + b), [a, b])
    assert ga.shape == (3, 4) and np.all(ga == 1.0)
    assert gb.shape == (4,) and np.all(gb == 3.0)


def test_frozen_tensor_gets_no_grad():
    a = T.Tensor([1.0], requires_grad=True)
    w = T.Tensor([2.0], requires_grad=False)
    with T.Graph() as g:
        ga, gw = T.backward(g, _total(a * w), [a, w])
    assert gw is None
    assert ga is not None


_PRIMITIVES = {
    "add": (T.add, (3, 4), (4,)),
    "sub": (T.sub, (3, 4), (4,)),
    "mul": (T.mul, (3, 4), (4,)),
    "div": (T.div, (3, 4), (4,)),
    "matmul_weight": (T.matmul, (2, 3, 4), (4, 5)),
    "matmul_batched": (T.matmul, (2, 3, 4), (2, 4, 5)),
    "linear": (T.linear, (2, 3, 4), (4, 5), (5,)),
    "layer_norm": (T.layer_norm, (2, 3, 4), (4,), (4,)),
}


def _primitive_backward(fn, arrays, live):
    """The tape's one node's backward outputs, with only ``live`` operands tunable."""
    ops = [T.Tensor(x, requires_grad=i in live) for i, x in enumerate(arrays)]
    with T.Graph() as g:
        out = fn(*ops)
    (node,) = g._tape
    return node.backward_fn(np.ones_like(out.data))


@pytest.mark.parametrize("name", sorted(_PRIMITIVES))
def test_backward_skips_frozen_operands(name):
    rng = np.random.default_rng(5)
    fn, *shapes = _PRIMITIVES[name]
    arrays = [rng.uniform(0.5, 1.5, shape) for shape in shapes]
    every = _primitive_backward(fn, arrays, live=range(len(arrays)))
    for live in range(len(arrays)):
        got = _primitive_backward(fn, arrays, live={live})
        for i, gin in enumerate(got):
            if i == live:
                np.testing.assert_array_equal(gin, every[i])
            else:
                assert gin is None, (name, live, i)


def _value_and_grads(fn, arrays):
    """fn's output and each operand's gradient of sum(fn(...)^2), all operands tunable."""
    ops = [T.Tensor(x, requires_grad=True) for x in arrays]
    with T.Graph() as g:
        out = fn(*ops)
        grads = T.backward(g, _total(out * out), ops)
    return [out.data] + grads


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["rank1", "rank2", "rank3"])
def test_linear_is_bitwise_matmul_plus_bias(dtype, lead):
    rng = np.random.default_rng(len(lead))
    arrays = [rng.normal(size=(*lead, 4)), rng.normal(size=(4, 5)), rng.normal(size=(5,))]
    with float64_session() if dtype == "float64" else contextlib.nullcontext():
        got = _value_and_grads(T.linear, arrays)
        want = _value_and_grads(lambda x, w, b: T.matmul(x, w) + b, arrays)
    for g, w in zip(got, want, strict=True):
        assert g.dtype == np.dtype(dtype) and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


def test_linear_shape_errors_name_every_shape():
    for shapes in (((2, 3), (4, 5), (5,)), ((2, 4), (4, 5), (4,)), ((2, 4), (4,), (4,))):
        with pytest.raises(ShapeError) as e:
            T.linear(*(T.Tensor(np.ones(s)) for s in shapes))
        assert all(str(s) in str(e.value) for s in shapes)


def test_clamp_masks_gradient(f64):
    x = T.Tensor([-1.0, 0.5, 2.0], requires_grad=True)
    with T.Graph() as g:
        (grad,) = T.backward(g, _total(T.clamp(x, 0.0, 1.0)), [x])
    assert np.array_equal(grad, [0.0, 1.0, 0.0])


def test_normalize_rows_unit_norm(f64):
    rng = np.random.default_rng(3)
    y = T.normalize_rows(T.Tensor(rng.normal(size=(6, 5)))).data
    assert np.allclose(np.linalg.norm(y, axis=1), 1.0, atol=1e-12)


def test_normalize_rows_zero_row_rejected():
    with pytest.raises(DegenerateInputError):
        T.normalize_rows(T.Tensor(np.zeros((2, 3))))


def test_diag_part_of_batched_matrices(f64):
    m = T.Tensor(np.arange(8.0).reshape(2, 2, 2), requires_grad=True)
    assert np.array_equal(T.diag_part(m).data, [[0.0, 3.0], [4.0, 7.0]])
    with T.Graph() as g:
        (grad,) = T.backward(g, _total(T.diag_part(m)), [m])
    assert np.array_equal(grad, np.broadcast_to(np.eye(2), (2, 2, 2)))


def test_mean_axis_gradient_spreads(f64):
    x = T.Tensor(np.arange(12.0).reshape(2, 3, 2), requires_grad=True)
    with T.Graph() as g:
        out = T.mean_axis(x, -2)
        (grad,) = T.backward(g, _total(out), [x])
    assert np.array_equal(out.data, x.data.mean(axis=1))
    assert np.allclose(grad, 1.0 / 3.0)


@pytest.mark.parametrize("seed", range(5))
def test_finite_diff_random_composites(f64, seed):
    rng = np.random.default_rng(seed)
    x = T.Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(3, 3)))

    def f(v):
        h = T.gelu(T.matmul(v, w))
        return T.mean_all(T.softmax_rows(h) * h)

    assert finite_diff_check(f, x) < 1e-6


def test_finite_diff_resolves_steep_objective(f64):
    # sum(gelu(k x)) with k = 2000 has a third derivative of order k^3, so
    # the three-point difference at h = 1e-5 errs by ~6e-4 here; the
    # five-point stencil's O(h^4) truncation stays far below 1e-6.
    k = 2000.0
    x = T.Tensor(np.linspace(-2.0, 2.0, 9) / k, requires_grad=True)
    assert finite_diff_check(lambda v: _total(T.gelu(v * k)), x) < 1e-6


def test_finite_diff_requires_grad_flag(f64):
    x = T.Tensor(np.ones(3))
    with pytest.raises(ContractError):
        finite_diff_check(lambda v: _total(v), x)


def test_batched_matmul_matches_loop(f64):
    rng = np.random.default_rng(4)
    a = rng.normal(size=(3, 4, 5))
    b = rng.normal(size=(3, 5, 2))
    got = T.matmul(T.Tensor(a), T.Tensor(b)).data
    want = np.stack([a[i] @ b[i] for i in range(3)])
    assert np.allclose(got, want, atol=1e-12)


def test_permute_roundtrip_gradient(f64):
    x = T.Tensor(np.arange(24.0).reshape(2, 3, 4), requires_grad=True)
    with T.Graph() as g:
        y = T.permute(x, (2, 0, 1))
        (grad,) = T.backward(g, _total(y * y), [x])
    assert np.allclose(grad, 2.0 * x.data)


def test_one_backward_per_graph():
    a = T.Tensor([1.0], requires_grad=True)
    with T.Graph() as g:
        loss = _total(a * a)
        T.backward(g, loss, [a])
        with pytest.raises(ContractError):
            T.backward(g, loss, [a])
