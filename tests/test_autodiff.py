"""Autodiff core: forward values against brute-force oracles, gradients
against central finite differences."""

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sinecast import autodiff
from sinecast.autodiff import (
    Parameter,
    Tensor,
    backward,
    grad_check,
    dense,
    layer_norm_rows,
    multi_head_attention,
    no_grad,
)
from sinecast.errors import GraphError, NumericError, ShapeError


def numeric_grad(loss_fn, param, h=1e-5):
    """Central finite differences over every coordinate of one parameter."""
    g = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    gflat = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        lp = loss_fn().item()
        flat[i] = orig - h
        lm = loss_fn().item()
        flat[i] = orig
        gflat[i] = (lp - lm) / (2.0 * h)
    return g


def rel_err(a, b):
    return np.abs(a - b) / np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def softmax_of(logits):
    """Row softmax of `logits` as computed inside multi_head_attention.

    Identity keys make the scores the queries over sqrt(n), so queries of
    logits * sqrt(n) inject the logits, and identity values return the
    probabilities themselves.
    """
    m, n = logits.shape
    eye = Tensor(np.eye(n))
    return multi_head_attention(Tensor(logits * np.sqrt(n)), eye, eye, 1).data


def reference_attention(q, k, v, n_heads, causal=False):
    """Plain numpy multi-head attention, one head at a time."""
    dk, dv = q.shape[-1] // n_heads, v.shape[-1] // n_heads
    heads = []
    for h in range(n_heads):
        qh, kh, vh = q[..., h * dk:(h + 1) * dk], k[..., h * dk:(h + 1) * dk], v[..., h * dv:(h + 1) * dv]
        s = qh @ np.swapaxes(kh, -1, -2) / np.sqrt(dk)
        if causal:
            s = s + np.triu(np.full(s.shape[-2:], -1e9), k=1)
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        heads.append((e / e.sum(axis=-1, keepdims=True)) @ vh)
    return np.concatenate(heads, axis=-1)


def stored_p_attention(q, k, v, g, n_heads, causal=False):
    """Attention and its q/k/v gradients for output adjoint `g`, keeping each
    head's probabilities P for backward instead of rebuilding them: the op's
    operations in the op's order, on the whole batch at once."""
    (m, d), (n, e) = q.shape[-2:], v.shape[-2:]
    qf, kf, vf, gf = q.reshape(-1, m, d), k.reshape(-1, n, d), v.reshape(-1, n, e), g.reshape(-1, m, e)
    dh, eh = d // n_heads, e // n_heads
    scale = 1.0 / np.sqrt(dh)
    out, gq, gk, gv = np.empty(gf.shape), np.empty(qf.shape), np.empty(kf.shape), np.empty(vf.shape)
    probs = []
    for h in range(n_heads):
        qk, vs = slice(h * dh, (h + 1) * dh), slice(h * eh, (h + 1) * eh)
        p = np.matmul(qf[:, :, qk], np.swapaxes(kf[:, :, qk], -1, -2))
        p *= scale
        if causal:
            p += np.triu(np.full((m, n), -1e9), k=1)
        p -= p.max(axis=-1, keepdims=True)
        np.exp(p, out=p)
        p /= p.sum(axis=-1, keepdims=True)
        out[:, :, vs] = p @ vf[:, :, vs]
        probs.append(p)
    for h, p in enumerate(probs):
        qk, vs = slice(h * dh, (h + 1) * dh), slice(h * eh, (h + 1) * eh)
        g_h = gf[:, :, vs]
        gv[:, :, vs] = np.swapaxes(p, -1, -2) @ g_h
        ds = g_h @ np.swapaxes(vf[:, :, vs], -1, -2)
        ds -= (ds * p).sum(axis=-1, keepdims=True)
        ds *= p
        ds *= scale
        gq[:, :, qk] = ds @ kf[:, :, qk]
        gk[:, :, qk] = np.swapaxes(ds, -1, -2) @ qf[:, :, qk]
    return [out.reshape(g.shape), gq.reshape(q.shape), gk.reshape(k.shape), gv.reshape(v.shape)]


class TestForwardValues:
    # "matmul" in a test name means the matrix product, which dense computes
    def test_matmul_matches_triple_loop(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(4, 5))
        w = rng.normal(size=(3, 5))
        expected = np.zeros((4, 3))
        for i in range(4):
            for j in range(3):
                for k in range(5):
                    expected[i, j] += a[i, k] * w[j, k]
        got = dense(Tensor(a), Tensor(w)).data
        assert np.abs(got - expected).max() < 1e-12

    def test_batched_times_shared_matches_per_item_loop(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(6, 4, 5))
        w = rng.normal(size=(3, 5))
        got = dense(Tensor(a), Tensor(w)).data
        for n in range(6):
            assert np.abs(got[n] - a[n] @ w.T).max() < 1e-12

    def test_matmul_associativity(self):
        # (a b^T) c^T == a (c b)^T
        rng = np.random.default_rng(10)
        a, b, c = (Tensor(rng.normal(size=(4, 4))) for _ in range(3))
        left = dense(dense(a, b), c).data
        right = dense(a, dense(c, b.transpose())).data
        assert np.abs(left - right).max() < 1e-9

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(11)
        y = softmax_of(rng.normal(size=(5, 7)) * 10)
        assert np.abs(y.sum(axis=-1) - 1.0).max() < 1e-12
        assert (y > 0).all()

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(3, 6))
        y1 = softmax_of(x)
        y2 = softmax_of(x + 123.456)
        assert np.abs(y1 - y2).max() < 1e-12

    def test_softmax_extreme_logits_stay_finite(self):
        y = softmax_of(np.array([[0.0, 100.0], [-1e9, 0.0]]))
        assert np.isfinite(y).all()
        assert y[0, 0] < 1e-40
        assert abs(y[1, 1] - 1.0) < 1e-12

    def test_layer_norm_rows_zero_mean_unit_var(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(4, 9)) * 5 + 2
        gamma = Tensor(np.ones(9))
        beta = Tensor(np.zeros(9))
        y = layer_norm_rows(Tensor(x), gamma, beta).data
        assert np.abs(y.mean(axis=-1)).max() < 1e-12
        # biased variance, so row variance is n/(n) of the target up to eps
        v = (y * y).mean(axis=-1)
        assert np.abs(v - 1.0).max() < 1e-4

    def test_layer_norm_matches_direct_recomputation(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(2, 3, 5))
        gamma = rng.normal(size=5)
        beta = rng.normal(size=5)
        eps = 1e-5
        mu = x.mean(axis=-1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + eps) * gamma + beta
        got = layer_norm_rows(Tensor(x), Tensor(gamma), Tensor(beta), eps=eps).data
        assert np.abs(got - expected).max() < 1e-12

    def test_mean_and_sum(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert x.sum().item() == 10.0
        assert x.mean().item() == 2.5


class TestShapeValidation:
    def test_matmul_inner_mismatch(self):
        with pytest.raises(ShapeError):
            dense(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))

    def test_add_incompatible(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) + Tensor(np.zeros((3, 2)))

    def test_add_trailing_broadcast_allowed(self):
        out = Tensor(np.ones((4, 2, 3))) + Tensor(np.ones(3))
        assert out.shape == (4, 2, 3)
        assert (out.data == 2.0).all()

    def test_mul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((2, 3))) * Tensor(np.zeros((2, 4)))

    def test_non_finite_input_rejected(self):
        with pytest.raises(NumericError):
            Tensor(np.array([1.0, np.nan]))
        with pytest.raises(NumericError):
            Tensor(np.array([np.inf]))

    def test_backward_on_non_scalar(self):
        x = Parameter(np.ones((2, 2)), "x")
        with pytest.raises(GraphError):
            backward(x + x)


class TestGradients:
    """Every gradient is checked against finite differences computed here,
    independent of the library's own grad_check."""

    def _check(self, loss_fn, params, tol=1e-6):
        loss = loss_fn()
        backward(loss)
        for p in params:
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            numeric = numeric_grad(loss_fn, p)
            assert rel_err(analytic, numeric).max() < tol, p

    def test_matmul_2d(self):
        rng = np.random.default_rng(20)
        a = Parameter(rng.normal(size=(3, 4)), "a")
        w = Parameter(rng.normal(size=(2, 4)), "w")
        self._check(lambda: dense(a, w).sum(), [a, w])

    def test_matmul_3d_shared_rhs(self):
        rng = np.random.default_rng(21)
        a = Parameter(rng.normal(size=(5, 3, 4)), "a")
        w = Parameter(rng.normal(size=(2, 4)), "w")
        self._check(lambda: dense(a, w).abs().mean(), [a, w])

    @pytest.mark.parametrize("d_in", [1, 4])
    @pytest.mark.parametrize("transposed", [False, True])
    def test_matmul_3d_shared_rhs_weight_grad_matches_einsum(self, d_in, transposed):
        rng = np.random.default_rng(23)
        a_np = rng.normal(size=(5, d_in, 3)).transpose(0, 2, 1) if transposed else rng.normal(size=(5, 3, d_in))
        a = Tensor(a_np)
        w = Parameter(rng.normal(size=(2, d_in)), "w")
        g = rng.normal(size=(5, 3, 2))
        backward((dense(a, w) * Tensor(g)).sum())
        expected = np.einsum("nab,nac->cb", a_np, g)
        assert np.abs(w.grad - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_softmax(self):
        # identity values expose the probabilities, so only the softmax
        # backward (and the score matmul) lies between q and the loss
        rng = np.random.default_rng(23)
        q = Parameter(rng.normal(size=(4, 3)), "q")
        k = Tensor(rng.normal(size=(5, 3)))
        w = Tensor(rng.normal(size=(4, 5)))
        self._check(lambda: (multi_head_attention(q, k, Tensor(np.eye(5)), 1) * w).sum(), [q])

    def test_layer_norm(self):
        rng = np.random.default_rng(24)
        x = Parameter(rng.normal(size=(3, 6)), "x")
        gamma = Parameter(rng.normal(size=6), "gamma")
        beta = Parameter(rng.normal(size=6), "beta")
        w = Tensor(rng.normal(size=(3, 6)))
        self._check(
            lambda: (layer_norm_rows(x, gamma, beta) * w).sum(), [x, gamma, beta], tol=1e-5
        )

    def test_sin_relu_abs(self):
        rng = np.random.default_rng(25)
        x = Parameter(rng.normal(size=(4, 4)) + 0.3, "x")
        self._check(lambda: (x.sin().relu() + x.abs()).sum(), [x])

    def test_reshape_transpose(self):
        rng = np.random.default_rng(26)
        x = Parameter(rng.normal(size=(2, 3, 4)), "x")
        w = Tensor(rng.normal(size=(6, 3)))

        def loss():
            t = x.transpose((0, 2, 1)).reshape(8, 3)
            return (dense(t, w) * 0.5).mean()

        self._check(loss, [x])

    def test_bias_broadcast_grad(self):
        rng = np.random.default_rng(27)
        x = Tensor(rng.normal(size=(5, 2, 3)))
        b = Parameter(rng.normal(size=3), "b")
        self._check(lambda: ((x + b) * (x + b)).sum(), [b])

    def test_grad_reused_node(self):
        # a node consumed twice must receive both adjoint contributions
        x = Parameter(np.array([[2.0, -1.0]]), "x")
        self._check(lambda: (x * x + x * 3.0).sum(), [x])

    def test_backward_twice_no_accumulation(self):
        x = Parameter(np.array([[1.0, 2.0]]), "x")
        loss = (x * x).sum()
        backward(loss)
        first = x.grad.copy()
        backward(loss)
        assert np.array_equal(x.grad, first)

    def test_constant_branch_gets_no_grad(self):
        x = Parameter(np.ones((2, 2)), "x")
        c = Tensor(np.ones((2, 2)))
        backward((x + c).sum())
        assert c.grad is None
        assert x.grad is not None

    def test_graph_frees_without_cycle_collector(self):
        # Backward closures must not reference their own output node, or every
        # step's graph becomes cyclic garbage and training leaks until the gc
        # catches up. Weakrefs expire immediately under pure refcounting.
        import weakref

        w = Parameter(np.ones((4, 4)), "w")
        mid = dense(Tensor(np.ones((4, 4))), w).sin()
        loss = mid.mean()
        backward(loss)
        ref = weakref.ref(mid)
        del mid, loss
        assert ref() is None

    @pytest.mark.parametrize("variant", ["Linear", "NLinear", "DLinear", "SLP", "MLP", "Sencoder", "Sinformer"])
    def test_interior_adjoints_dropped_leaf_grads_unchanged(self, variant):
        from sinecast.models import Forecaster, ModelConfig
        from sinecast.training import MLP_L1, MLP_L2, elastic_net_penalty

        model = Forecaster(
            ModelConfig(variant=variant, input_len=8, horizon=8, channels=2, d_model=8, n_heads=2, ffn_dim=8, ma_kernel=3)
        )
        rng = np.random.default_rng(5)
        pred = model(Tensor(rng.normal(size=(3, 8, 2))))
        loss = (pred - Tensor(rng.normal(size=(3, 8, 2)))).abs().mean()
        if variant == "MLP":
            loss = loss + elastic_net_penalty(model.parameters(), MLP_L1, MLP_L2)
        order = autodiff._topo_order(loss)

        # reference: the same closures in the same order, every adjoint kept
        loss.grad = np.ones_like(loss.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
        kept = {id(p): p.grad for p in model.parameters()}

        backward(loss)
        interior = [n for n in order if n._backward is not None]
        assert interior and all(n.grad is None for n in interior)
        for p in model.parameters():
            assert np.array_equal(p.grad, kept[id(p)]), p.name
        backward(loss)  # a second pass over the same graph gives the same grads
        for p in model.parameters():
            assert np.array_equal(p.grad, kept[id(p)]), p.name


class TestInPlaceAccumulation:
    """Gradient sums added in place equal the out-of-place ``t.grad + g`` rule
    bit for bit, and write no adjoint a node passed on and no caller's array."""

    @staticmethod
    def _out_of_place_acc(t, g, owned=False):
        if t.requires_grad:
            t.grad = g if t.grad is None else t.grad + g

    @staticmethod
    def _grads(build, leaves, callers):
        before = [a.copy() for a in callers]
        loss = build()
        passed = []
        for node in autodiff._topo_order(loss):
            if node._backward is not None:
                def watching(g, inner=node._backward):
                    passed.append((g, np.array(g, copy=True)))
                    inner(g)

                node._backward = watching
        backward(loss)
        assert passed
        for g, at_the_time in passed:
            assert np.array_equal(g, at_the_time)
        for a, b in zip(callers, before):
            assert np.array_equal(a, b)
        return [p.grad.copy() for p in leaves]

    def _check(self, monkeypatch, build, leaves, callers):
        in_place = self._grads(build, leaves, callers)
        monkeypatch.setattr(autodiff, "_acc", self._out_of_place_acc)
        out_of_place = self._grads(build, leaves, callers)
        for p, a, b in zip(leaves, in_place, out_of_place):
            assert np.array_equal(a, b), p.name

    def test_add_passes_one_adjoint_to_both_parents(self, monkeypatch):
        rng = np.random.default_rng(40)
        x = rng.normal(size=(5, 3))
        w1, w2, w3 = (Parameter(rng.normal(size=s), n) for s, n in (((4, 3), "w1"), ((4, 3), "w2"), ((2, 4), "w3")))

        def build():
            a, b = dense(Tensor(x), w1), dense(Tensor(x), w2)
            s = a + b  # a and b both receive s's adjoint itself
            return (s.sin() + a * b).sum() + dense(a, w3).sum() + dense(b, w3).sum()

        self._check(monkeypatch, build, [w1, w2, w3], [x, w1.data, w2.data, w3.data])

    def test_adjoint_through_reshape_and_transpose_views(self, monkeypatch):
        rng = np.random.default_rng(41)
        x = rng.normal(size=(5, 3))
        w1, w2 = Parameter(rng.normal(size=(4, 3)), "w1"), Parameter(rng.normal(size=(2, 4)), "w2")
        w3 = Parameter(rng.normal(size=(3, 5)), "w3")

        def build():
            a = dense(Tensor(x), w1)
            r, t = a.reshape(4, 5), a.transpose()  # a receives views of their adjoints
            return ((r.sin() * 2.0).sum() + (t * t).sum() + dense(a, w2).sum()
                    + dense(t, w3).sum() + dense(t.transpose(), w2).sum())

        self._check(monkeypatch, build, [w1, w2, w3], [x, w1.data, w2.data, w3.data])

    def test_four_consumers_as_in_an_encoder_block(self, monkeypatch):
        from sinecast.models import Forecaster, ModelConfig, encoder_block

        model = Forecaster(ModelConfig("Sencoder", 6, 6, 1, d_model=8, n_heads=2, ffn_dim=8, seed=3))
        rng = np.random.default_rng(42)
        x = Parameter(rng.normal(size=(2, 6, 8)), "x")  # residual add and three projections
        leaves = [x] + [p for p in model.parameters() if p.name.startswith("enc.")]

        def build():
            return (encoder_block(model.encoder, x) * 1.5).sin().mean()

        self._check(monkeypatch, build, leaves, [p.data for p in leaves])


class TestConstantOperands:
    """Backward computes no contribution for an operand that needs no gradient,
    as for a training step's target in ``pred - Tensor(yb)``."""

    @staticmethod
    def _backward_peak(loss):
        tracemalloc.start()
        try:
            backward(loss)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_sub_allocates_nothing_of_the_constants_size(self):
        rng = np.random.default_rng(48)
        x, c = Parameter(rng.normal(size=(500, 400)), "x"), Tensor(rng.normal(size=(500, 400)))
        peak = self._backward_peak((x - c).sum())
        assert peak < c.data.nbytes / 4, peak
        assert c.grad is None and np.array_equal(x.grad, np.ones(x.shape))

    def test_mul_allocates_only_the_parameters_gradient(self):
        rng = np.random.default_rng(49)
        x, c = Parameter(rng.normal(size=(500, 400)), "x"), Tensor(rng.normal(size=(500, 400)))
        peak = self._backward_peak((x * c).sum())
        assert peak < 1.25 * c.data.nbytes, peak
        assert c.grad is None and np.array_equal(x.grad, c.data)


class TestNoGrad:
    def test_same_values_and_no_graph(self):
        w = Parameter(np.random.default_rng(0).normal(size=(3, 4)), "w")
        x = Tensor(np.random.default_rng(1).normal(size=(2, 4)))
        taped = dense(x, w).sin()
        with no_grad():
            free = dense(x, w).sin()
        assert np.array_equal(free.data, taped.data)
        assert not free.requires_grad and free._parents == () and free._backward is None
        assert taped.requires_grad and taped._parents

    def test_intermediates_freed_while_output_lives(self):
        import weakref

        w = Parameter(np.ones((4, 4)), "w")
        with no_grad():
            mid = dense(Tensor(np.ones((4, 4))), w)
            ref = weakref.ref(mid)
            out = mid.sin()
            del mid
        assert ref() is None
        assert out.data.shape == (4, 4)

    def test_restored_after_exception_and_nesting(self):
        w = Parameter(np.ones((2, 2)), "w")
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert not (w * 2.0).requires_grad
                raise RuntimeError
        assert (w * 2.0).requires_grad

    def test_other_threads_keep_their_graph(self):
        import threading

        w = Parameter(np.ones((2, 2)), "w")
        seen = []
        inside, done = threading.Event(), threading.Event()

        def worker():
            inside.wait(timeout=10)
            seen.append((w * 2.0).requires_grad)
            done.set()

        t = threading.Thread(target=worker)
        t.start()
        with no_grad():
            inside.set()
            assert done.wait(timeout=10)
        t.join(timeout=10)
        assert not t.is_alive()
        assert seen == [True]


class TestDense:
    @pytest.mark.parametrize("bias", [False, True])
    @pytest.mark.parametrize("lead", [(6,), (4, 3)])
    def test_gradients(self, lead, bias):
        rng = np.random.default_rng(50)
        x = Parameter(rng.normal(size=lead + (5,)), "x")
        w = Parameter(rng.normal(size=(3, 5)), "w")
        b = Parameter(rng.normal(size=3), "b") if bias else None
        up = Tensor(rng.normal(size=lead + (3,)))
        params = [x, w] if b is None else [x, w, b]
        err = grad_check(lambda: (dense(x, w, b).sin() * up).sum(), params, max_coords_per_param=100)
        assert err < 1e-7

    def test_gradients_through_non_contiguous_folded_input(self):
        # a [B, I, C] batch read as [B, C, I]: the input is a strided view
        rng = np.random.default_rng(51)
        x = Parameter(rng.normal(size=(4, 5, 2)), "x")
        w = Parameter(rng.normal(size=(3, 5)), "w")
        b = Parameter(rng.normal(size=3), "b")
        up = Tensor(rng.normal(size=(4, 2, 3)))
        assert not x.transpose((0, 2, 1)).data.flags.c_contiguous
        err = grad_check(
            lambda: (dense(x.transpose((0, 2, 1)), w, b) * up).sum(), [x, w, b], max_coords_per_param=100
        )
        assert err < 1e-7

    @pytest.mark.parametrize("lead", [(6,), (4, 3)])
    def test_forward_is_exactly_product_plus_bias(self, lead):
        rng = np.random.default_rng(52)
        x, w, b = rng.normal(size=lead + (5,)), rng.normal(size=(3, 5)), rng.normal(size=3)
        assert np.array_equal(dense(Tensor(x), Tensor(w), Tensor(b)).data, x @ w.T + b)
        assert np.array_equal(dense(Tensor(x), Tensor(w)).data, x @ w.T)

    @pytest.mark.parametrize("lead", [(64,), (8, 24)])
    def test_weight_grad_is_c_order_g_transpose_x(self, lead):
        rng = np.random.default_rng(53)
        x = rng.normal(size=lead + (40,))
        w = Parameter(rng.normal(size=(30, 40)), "w")
        b = Parameter(rng.normal(size=30), "b")
        g = rng.normal(size=lead + (30,))
        backward((dense(Tensor(x), w, b) * Tensor(g)).sum())
        assert w.grad.flags.c_contiguous
        assert np.array_equal(w.grad, g.reshape(-1, 30).T @ x.reshape(-1, 40))
        assert np.array_equal(b.grad, g.sum(axis=tuple(range(len(lead)))))

    def test_skips_gradients_nothing_needs(self):
        rng = np.random.default_rng(54)
        x, w = Tensor(rng.normal(size=(4, 5))), Parameter(rng.normal(size=(3, 5)), "w")
        backward(dense(x, w).sum())
        assert x.grad is None and w.grad is not None
        xp, wc = Parameter(rng.normal(size=(4, 5)), "x"), Tensor(rng.normal(size=(3, 5)))
        backward(dense(xp, wc).sum())
        assert wc.grad is None
        assert np.array_equal(xp.grad, np.ones((4, 3)) @ wc.data)

    def test_one_node(self):
        rng = np.random.default_rng(55)
        x = Tensor(rng.normal(size=(4, 5)))
        w, b = Parameter(rng.normal(size=(3, 5)), "w"), Parameter(np.zeros(3), "b")
        out = dense(x, w, b)
        assert out.op == "dense" and out._parents == (x, w, b)

    def test_shape_errors(self):
        x = Tensor(np.zeros((4, 5)))
        with pytest.raises(ShapeError):
            dense(x, Tensor(np.zeros((3, 4))))  # inner dimension
        with pytest.raises(ShapeError):
            dense(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros(5)))  # bias length
        with pytest.raises(ShapeError):
            dense(x, Tensor(np.zeros((3, 5))), Tensor(np.zeros((1, 3))))  # bias rank
        with pytest.raises(ShapeError):
            dense(x, Tensor(np.zeros((2, 3, 5))))  # weight rank
        with pytest.raises(ShapeError):
            dense(x, Tensor(np.zeros(5)))


class TestMultiHeadAttention:
    @pytest.mark.parametrize("n_heads", [1, 4])
    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("m, n", [(5, 5), (3, 6)])
    def test_gradients(self, n_heads, causal, m, n):
        rng = np.random.default_rng(40)
        q = Parameter(rng.normal(size=(2, m, 8)), "q")
        k = Parameter(rng.normal(size=(2, n, 8)), "k")
        v = Parameter(rng.normal(size=(2, n, 8)), "v")
        w = Tensor(rng.normal(size=(2, m, 8)))
        err = grad_check(
            lambda: (multi_head_attention(q, k, v, n_heads, causal) * w).sum(),
            [q, k, v],
            max_coords_per_param=200,
        )
        assert err < 1e-7

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("causal", [False, True])
    def test_matches_per_head_reference(self, n_heads, causal):
        rng = np.random.default_rng(41)
        q = rng.normal(size=(3, 4, 8)) * 2
        k = rng.normal(size=(3, 7, 8)) * 2
        v = rng.normal(size=(3, 7, 12))
        got = multi_head_attention(Tensor(q), Tensor(k), Tensor(v), n_heads, causal).data
        assert np.abs(got - reference_attention(q, k, v, n_heads, causal)).max() < 1e-12

    @staticmethod
    def _taped(q, k, v, g, n_heads, causal):
        qt, kt, vt = Parameter(q, "q"), Parameter(k, "k"), Parameter(v, "v")
        out = multi_head_attention(qt, kt, vt, n_heads, causal)
        backward((out * Tensor(g)).sum())
        return [out.data, qt.grad, kt.grad, vt.grad]

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("lead, m, n", [((7,), 4, 4), ((7,), 3, 6), ((), 5, 5), ((2, 3), 4, 6)])
    def test_batch_chunks_match_one_chunk_exactly(self, monkeypatch, set_cpus, lead, m, n, causal):
        rng = np.random.default_rng(42)
        q, k = rng.normal(size=lead + (m, 8)), rng.normal(size=lead + (n, 8))
        v, g = rng.normal(size=lead + (n, 4)), rng.normal(size=lead + (m, 4))
        set_cpus(1)
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 1 << 40)
        whole = self._taped(q, k, v, g, 2, causal)
        # three [m, n] float64 blocks per chunk: a batch of 7 runs as 3 + 3 + 1
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 3 * m * n * 8)
        # parts: one, two, one per chunk (batch 7), and more CPUs than chunks
        for cpus in (1, 2, 3, 8):
            set_cpus(cpus)
            chunked = self._taped(q, k, v, g, 2, causal)
            with no_grad():
                free = multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 2, causal).data
            for a, b in zip(whole, chunked):
                assert np.array_equal(a, b)
            assert np.array_equal(free, whole[0])

    @pytest.mark.parametrize("causal", [False, True])
    @pytest.mark.parametrize("lead, m, n", [((7,), 6, 6), ((7,), 4, 9), ((2, 3), 9, 5), ((), 6, 6)])
    def test_rebuilt_probabilities_match_stored_ones_exactly(self, monkeypatch, set_cpus, lead, m, n, causal):
        # backward rebuilds P from each row's max and sum; every output and
        # gradient equals the stored-P computation bit for bit
        rng = np.random.default_rng(46)
        q, k = rng.normal(size=lead + (m, 8)) * 3, rng.normal(size=lead + (n, 8)) * 3
        v, g = rng.normal(size=lead + (n, 4)), rng.normal(size=lead + (m, 4))
        expected = stored_p_attention(q, k, v, g, 2, causal)
        # one chunk, chunks of three and of one [m, n] block
        for chunk_bytes in (1 << 40, 3 * m * n * 8, m * n * 8):
            monkeypatch.setattr(autodiff, "_CHUNK_BYTES", chunk_bytes)
            for cpus in (1, 2, 8):
                set_cpus(cpus)
                for a, b in zip(expected, self._taped(q, k, v, g, 2, causal)):
                    assert np.array_equal(a, b)

    def test_taped_call_keeps_row_statistics_not_probabilities(self, set_cpus):
        # [32, 720, 32] with 4 heads: keeping P would hold 4 * 32 * 720 * 720
        # floats (506 MiB) from forward to backward
        set_cpus(1)
        batch, length, width, n_heads = 32, 720, 32, 4
        stored_p = n_heads * batch * length * length * 8
        rng = np.random.default_rng(47)
        q, k, v = (Parameter(rng.normal(size=(batch, length, width)), name) for name in "qkv")
        g = Tensor(rng.normal(size=(batch, length, width)))
        tracemalloc.start()
        try:
            out = multi_head_attention(q, k, v, n_heads)
            kept = tracemalloc.get_traced_memory()[0] - out.data.nbytes
            backward((out * g).sum())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert kept < 0.01 * stored_p, kept
        assert peak < 0.15 * stored_p, peak
        assert q.grad is not None and k.grad is not None and v.grad is not None

    def test_one_part_starts_no_thread(self, monkeypatch, set_cpus):
        rng = np.random.default_rng(43)
        q, k, v, g = (rng.normal(size=(7, 4, 8)) for _ in range(4))
        threads = threading.active_count()
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 4 * 4 * 8)  # seven chunks
        set_cpus(1)
        self._taped(q, k, v, g, 2, False)
        with no_grad():
            multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 2)
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 1 << 40)  # one chunk
        set_cpus(4)
        self._taped(q, k, v, g, 2, False)
        assert autodiff._pool is None
        assert threading.active_count() == threads

    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_failed_part_waits_for_the_others(self, monkeypatch, set_cpus, failing):
        rng = np.random.default_rng(44)
        q, k, v, g = (rng.normal(size=(6, 4, 8)) for _ in range(4))
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 4 * 4 * 8)  # six chunks, two parts
        set_cpus(1)
        expected = self._taped(q, k, v, g, 2, False)
        set_cpus(2)
        run_split, finished = autodiff._run_split, []

        def split_with_a_failing_part(fn, chunks):
            def part(run):
                if (run[-1] is chunks[-1]) == (failing == "caller"):
                    raise RuntimeError("part failed")
                time.sleep(0.2)  # still running when the other part raises
                fn(run)
                finished.append(run)

            run_split(part, chunks)

        monkeypatch.setattr(autodiff, "_run_split", split_with_a_failing_part)
        with pytest.raises(RuntimeError, match="part failed"):
            multi_head_attention(Tensor(q), Tensor(k), Tensor(v), 2)
        assert len(finished) == 1 and len(finished[0]) == 3
        monkeypatch.setattr(autodiff, "_run_split", run_split)
        for a, b in zip(expected, self._taped(q, k, v, g, 2, False)):
            assert np.array_equal(a, b)

    def test_concurrent_callers_share_one_pool(self, monkeypatch, set_cpus):
        rng = np.random.default_rng(45)
        q, k, v, g = (rng.normal(size=(9, 4, 8)) for _ in range(4))
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 4 * 4 * 8)  # nine chunks
        set_cpus(1)
        expected = self._taped(q, k, v, g, 2, False)
        set_cpus(3)
        pools = []

        class CountedPool(autodiff.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(autodiff, "ThreadPoolExecutor", CountedPool)
        results = []

        def caller():
            for _ in range(5):
                results.append(self._taped(q, k, v, g, 2, False))

        callers = [threading.Thread(target=caller) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert len(results) == 20 and len(pools) == 1
        for got in results:
            for a, b in zip(expected, got):
                assert np.array_equal(a, b)

    def test_shape_errors(self):
        z = Tensor(np.zeros((2, 3, 4)))
        with pytest.raises(ShapeError):
            multi_head_attention(z, Tensor(np.zeros((2, 3, 5))), z, 1)
        with pytest.raises(ShapeError):
            multi_head_attention(z, z, Tensor(np.zeros((2, 4, 4))), 1)
        with pytest.raises(ShapeError):
            multi_head_attention(z, z, z, 3)
        with pytest.raises(ShapeError):
            multi_head_attention(z, z, z, 0)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_composite_gradient_property(seed):
    """Random small composite graphs always agree with finite differences."""
    rng = np.random.default_rng(seed)
    w1 = Parameter(rng.normal(size=(4, 3)) * 0.5, "w1")
    b1 = Parameter(rng.normal(size=4) * 0.1, "b1")
    w2 = Parameter(rng.normal(size=(2, 4)) * 0.5, "w2")
    x = Tensor(rng.normal(size=(5, 3)))
    y = Tensor(rng.normal(size=(5, 2)))

    def loss():
        h = dense(x, w1, b1).sin()
        pred = dense(h, w2)
        return (pred - y).abs().mean() + (w2 * w2).sum() * 1e-2

    # a residual near 0 lets the finite-difference step cross the kink of `abs`
    residual = dense(dense(x, w1, b1).sin(), w2).data - y.data
    assume(np.all(np.abs(residual) > 1e-3))
    loss_val = loss()
    backward(loss_val)
    for p in (w1, b1, w2):
        numeric = numeric_grad(loss, p)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        assert rel_err(analytic, numeric).max() < 1e-4


class TestGradCheckHelper:
    def test_reports_small_error_on_correct_graph(self):
        rng = np.random.default_rng(30)
        w = Parameter(rng.normal(size=(3, 4)), "w")
        x = Tensor(rng.normal(size=(6, 4)))
        err = grad_check(lambda: dense(x, w).sin().mean(), [w])
        assert err < 1e-7

    def test_detects_a_wrong_gradient(self):
        # a loss whose analytic grad we corrupt on purpose via a frozen copy:
        # compare f(w) = sum(w * w) pretending the grad is that of sum(w)
        w = Parameter(np.full((2, 2), 3.0), "w")

        def loss():
            return (w * w).sum()

        loss_val = loss()
        backward(loss_val)
        w.grad = np.ones_like(w.data)  # wrong on purpose
        numeric = numeric_grad(loss, w)
        assert rel_err(w.grad, numeric).max() > 1e-2

    def test_rejects_bad_h(self):
        w = Parameter(np.ones((1,)), "w")
        with pytest.raises(ValueError):
            grad_check(lambda: (w * w).sum(), [w], h=0.1)


class TestParameter:
    def test_names_and_flags(self):
        p = Parameter(np.zeros((2, 2)), "layer.weight")
        b = Parameter(np.zeros(2), "layer.bias")
        assert p.name == "layer.weight" and b.name == "layer.bias"
        assert p.requires_grad and b.requires_grad
