"""Dense float64 tensors with reverse-mode automatic differentiation.

The graph is taped implicitly: every operation returns a new Tensor holding
references to its parents and a closure that, given the node's adjoint,
pushes gradient contributions back to them. Each op defines its closure
first and ends with ``Tensor._from_op(data, parents, closure, op)``, the
only place that sets a node's parents and backward. A closure therefore
exists before its node and cannot reference it, so graphs are acyclic by
construction and are freed by reference counting the moment the caller
drops the loss (no reliance on the cycle collector, which matters when each
step allocates hundreds of megabytes). Gradients are plain numpy arrays,
filled by :func:`backward`.

Broadcasting is deliberately restricted: elementwise ops require equal
shapes, and addition additionally accepts a right operand whose shape
matches the trailing axes of the left one (a row-wise bias).
Anything else raises ShapeError so that model wiring bugs stay loud.

Where a chain of ops would only build one formula, it is one op instead, so
the tape keeps one output and backward allocates only what the formula
needs: :func:`dense` is the only matrix product (a layer's weight and bias in
one node), :func:`layer_norm_rows` a whole normalization and
:func:`multi_head_attention` a whole attention site, whose node keeps each
softmax row's max and sum rather than the [batch, m, n] probabilities and
rebuilds them in backward. A backward closure computes no contribution for
an operand that needs no gradient, such as a data batch or a target.

Two places run on more than one thread, both through :func:`_run_split`:
the attention op splits its batch chunks, and ``evaluation.evaluate`` its
scoring batches, into one part per CPU the process may use. Each part writes
only its own slices or slots, so the results do not depend on the CPU count.
A split called inside a part runs inline, as one part: attention inside a
scoring part does not split again.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager

import numpy as np

from .errors import GraphError, NumericError, ShapeError

__all__ = [
    "Tensor",
    "Parameter",
    "dense",
    "layer_norm_rows",
    "multi_head_attention",
    "backward",
    "grad_check",
    "no_grad",
]

# Per thread, because run_experiment may train cells on worker threads.
_grad_mode = threading.local()

# Upper bound on one batch chunk's [c, m, n] attention score block: small
# enough to stay in a core's L2 while the softmax passes run over it.
_CHUNK_BYTES = 1 << 18

# Added to a causal attention score above the diagonal: exp of it underflows
# to zero, so a query gets no weight on later keys.
_MASK_FILL = -1e9

# The CPUs this process may run on (`taskset` narrows them): attention splits
# its batch chunks, and scoring its batches, into at most this many parts.
# Not *_NUM_THREADS, which size BLAS's own threads; this split is not BLAS
# threading.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
# Runs every part but the caller's own, for all threads of the process
# (--workers cell threads included), so compute threads never exceed
# workers + _CPUS - 1. Created on first use. Parts never submit to it: a
# part that did and waited could be waiting on itself, on the one worker.
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
# Set on a thread while it runs one of several parts; a split made there runs inline.
_in_part = threading.local()


@contextmanager
def no_grad():
    """Record no graph inside: op outputs keep no parents and need no gradient.

    For forward-only passes: each intermediate array is freed as soon as
    the next op has used it, instead of living until the output is dropped.
    """
    before = getattr(_grad_mode, "off", False)
    _grad_mode.off = True
    try:
        yield
    finally:
        _grad_mode.off = before


class Tensor:
    """A node in the autodiff graph: a float64 array plus its provenance.

    Tensors built from raw data must be finite; operation outputs skip the
    check for speed (non-finite training losses are caught downstream).
    Data is treated as immutable once wrapped, except for Parameters, whose
    buffers the optimizer updates in place between graph builds. So no
    graph, view or caller's array that aliases a Parameter's ``data`` may
    outlive an optimizer step: it would see the new values.
    """

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor constructed from non-finite data")
        self.data = arr
        self.grad: np.ndarray | None = None
        self._owns_grad = False
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward = None
        self.op = "leaf"

    @classmethod
    def _from_op(cls, data, parents, backward_fn, op: str) -> "Tensor":
        """The output `data` of op `op` on `parents`.

        When :func:`_records` holds for `parents`, the node requires grad
        and keeps `parents` and `backward_fn`; otherwise it keeps neither,
        so a graph-free pass frees each intermediate as soon as it is used.
        """
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        out._owns_grad = False
        out.requires_grad = _records(parents)
        out._parents = tuple(parents) if out.requires_grad else ()
        out._backward = backward_fn if out.requires_grad else None
        out.op = op
        return out

    # -- metadata ---------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self) -> str:
        flag = ", requires_grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, op={self.op!r}{flag})"

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            c = float(other)

            def bw(g):
                _acc(self, g)

            return Tensor._from_op(self.data + c, (self,), bw, "add_const")

        if self.shape == other.shape:
            reduce_axes = None
        elif other.ndim < self.ndim and self.shape[self.ndim - other.ndim:] == other.shape:
            # trailing broadcast: bias vectors
            reduce_axes = tuple(range(self.ndim - other.ndim))
        else:
            raise ShapeError(f"add: shapes {self.shape} and {other.shape} do not align")

        def bw(g):
            _acc(self, g)
            if reduce_axes is None:
                _acc(other, g)
            elif other.requires_grad:
                _acc(other, g.sum(axis=reduce_axes))

        return Tensor._from_op(self.data + other.data, (self, other), bw, "add")

    def __sub__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            return self + (-float(other))
        if self.shape != other.shape:
            raise ShapeError(f"sub: shapes {self.shape} and {other.shape} differ")

        def bw(g):
            _acc(self, g)
            if other.requires_grad:
                _acc(other, -g)

        return Tensor._from_op(self.data - other.data, (self, other), bw, "sub")

    def __mul__(self, other) -> "Tensor":
        if not isinstance(other, Tensor):
            c = float(other)

            def bw(g):
                _acc(self, g * c)

            return Tensor._from_op(self.data * c, (self,), bw, "scale")
        if self.shape != other.shape:
            raise ShapeError(f"mul: shapes {self.shape} and {other.shape} differ")

        def bw(g):
            if self.requires_grad:
                _acc(self, g * other.data)
            if other.requires_grad:
                _acc(other, g * self.data)

        return Tensor._from_op(self.data * other.data, (self, other), bw, "mul")

    # -- pointwise --------------------------------------------------------

    def sin(self) -> "Tensor":
        def bw(g):
            _acc(self, g * np.cos(self.data))

        return Tensor._from_op(np.sin(self.data), (self,), bw, "sin")

    def relu(self) -> "Tensor":
        def bw(g):
            _acc(self, g * (self.data > 0.0))

        return Tensor._from_op(np.maximum(self.data, 0.0), (self,), bw, "relu")

    def abs(self) -> "Tensor":
        # subgradient at 0 is 0 (np.sign(0) == 0), keeping L1 terms deterministic
        def bw(g):
            _acc(self, g * np.sign(self.data))

        return Tensor._from_op(np.abs(self.data), (self,), bw, "abs")

    # -- reductions -------------------------------------------------------

    def sum(self) -> "Tensor":
        def bw(g):
            _acc(self, np.broadcast_to(g, self.shape))

        return Tensor._from_op(np.asarray(self.data.sum()), (self,), bw, "sum")

    def mean(self) -> "Tensor":
        n = self.data.size

        def bw(g):
            _acc(self, np.broadcast_to(g / n, self.shape))

        return Tensor._from_op(np.asarray(self.data.mean()), (self,), bw, "mean")

    # -- structure --------------------------------------------------------

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape

        def bw(g):
            _acc(self, g.reshape(old))

        return Tensor._from_op(self.data.reshape(shape), (self,), bw, "reshape")

    def transpose(self, axes=None) -> "Tensor":
        if axes is None:
            axes = tuple(reversed(range(self.ndim)))
        axes = tuple(axes)
        inv = tuple(np.argsort(axes))

        def bw(g):
            _acc(self, np.transpose(g, inv))

        return Tensor._from_op(np.transpose(self.data, axes), (self,), bw, "transpose")


class Parameter(Tensor):
    """Trainable leaf tensor with a stable name inside one model.

    It owns its buffer: ``data`` is copied into a fresh C-contiguous array,
    because the optimizer updates it in place and must not write into the
    caller's array.
    """

    def __init__(self, data, name: str):
        super().__init__(np.array(data, dtype=np.float64, order="C"), requires_grad=True)
        self.name = name

    @classmethod
    def _unset(cls, shape: tuple[int, ...], name: str) -> "Parameter":
        """A parameter whose buffer is allocated but not written, for a loader
        that fills and checks every element before anything reads it."""
        p = cls(np.empty(0), name)
        p.data = np.empty(shape)
        return p

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.shape})"


def _records(parents) -> bool:
    """Whether an op on `parents` records a graph node: grad mode is on and
    some parent requires grad. :meth:`Tensor._from_op` decides by it, and an
    op that must know before its forward runs asks it too."""
    return not getattr(_grad_mode, "off", False) and any(p.requires_grad for p in parents)


def _acc(t: Tensor, g: np.ndarray, owned: bool = False) -> None:
    """Add the contribution `g` to `t.grad`.

    `owned` says that `g` is a fresh array made for `t` alone, as ``dense``'s
    products are; otherwise it may be another node's adjoint, or a view of
    one, passed on by reference. A later contribution is added in place only
    into a gradient that ``t._owns_grad`` marks as such an array; any other
    sum is a new array, which `t` then owns. Backward reaches a node only
    once every contribution to it has arrived, so an owned gradient is never
    written after its node has passed it on, and no adjoint, view or
    caller's array is ever written. Each sum equals ``t.grad + g`` bit for
    bit. A weight used by several ops thus holds one gradient-sized array
    through the whole pass, and training peaks at the weights, Adam's two
    moments, one gradient set and one best-epoch snapshot, plus one step's
    graph (see ``training.train_model``).
    """
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad, t._owns_grad = g, owned
    elif t._owns_grad:
        t.grad += g
    else:
        t.grad, t._owns_grad = t.grad + g, True


def _owned_grad(t: Tensor) -> np.ndarray | None:
    """`t.grad` as a C-contiguous array that `t` owns (see :func:`_acc`),
    copied first if it is not; None while nothing has arrived."""
    if t.grad is not None and not (t._owns_grad and t.grad.flags.c_contiguous):
        t.grad, t._owns_grad = np.array(t.grad, dtype=np.float64, order="C"), True
    return t.grad


def dense(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x [..., in] -> x @ w.T + b [..., out], with the weight stored [out, in].

    One node: the bias is added in place to the product. Backward computes
    the weight gradient as g^T x over the flattened leading axes, one GEMM
    whose result is already C-order [out, in], and sums the bias gradient
    over the leading axes. It skips g @ w when x needs no gradient (a data
    batch) and the weight gradient when w needs none.
    """
    if w.ndim != 2 or x.ndim < 1 or x.shape[-1] != w.shape[1]:
        raise ShapeError(f"dense: input {x.shape} vs weight {w.shape} (expected [..., in] and [out, in])")
    n_out, n_in = w.shape
    if b is not None and b.shape != (n_out,):
        raise ShapeError(f"dense: bias {b.shape} vs ({n_out},)")
    y = x.data @ w.data.T
    if b is not None:
        y += b.data

    def bw(g):
        if x.requires_grad:
            _acc(x, g @ w.data, owned=True)
        if w.requires_grad:
            _acc(w, g.reshape(-1, n_out).T @ x.data.reshape(-1, n_in), owned=True)
        if b is not None and b.requires_grad:
            _acc(b, g.sum(axis=tuple(range(g.ndim - 1))))

    return Tensor._from_op(y, (x, w) if b is None else (x, w, b), bw, "dense")


def layer_norm_rows(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize each row (last axis) to zero mean and unit variance.

    Uses the population (biased) variance; gamma and beta are length-n
    vectors applied per feature.
    """
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise ShapeError(
            f"layer_norm: gamma {gamma.shape} / beta {beta.shape} must be ({n},)"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bw(g):
        lead = tuple(range(g.ndim - 1))
        _acc(beta, g.sum(axis=lead))
        _acc(gamma, (g * xhat).sum(axis=lead))
        dxhat = g * gamma.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        _acc(x, inv * (dxhat - m1 - xhat * m2))

    return Tensor._from_op(xhat * gamma.data + beta.data, (x, gamma, beta), bw, "layer_norm")


def multi_head_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int, causal: bool = False) -> Tensor:
    """softmax(q_h k_h^T / sqrt(d_h)) v_h for each of `n_heads` heads.

    q is [..., m, d], k is [..., n, d] and v is [..., n, e] with the same
    leading axes; head h reads the h-th of `n_heads` equal slices of the last
    axis of each, and writes the same slice of the [..., m, e] output. A
    causal call lets query i attend to keys 0..i only: `_MASK_FILL` is added
    to every score above the diagonal before the softmax, from one [m, n]
    array that the forward makes and backward makes again, so the node does
    not keep it.

    The leading axes are flattened into one batch axis, which is walked in
    chunks sized so that one chunk's [c, m, n] score block (at most
    `_CHUNK_BYTES`) stays in cache while the softmax passes run over it in
    place; the heads run one at a time within each chunk. The chunks are
    split into contiguous parts, one part per CPU the process may use (at
    most one part per chunk, and one part inside a part of another split,
    such as a scoring batch): the calling thread runs the last part and a
    shared thread pool the others, and each part writes only its own chunks'
    slices. Each part reuses one chunk-sized block for the probabilities P of
    all its chunks and heads, with or without a graph. For backward the
    graph keeps no P, only each row's max and sum, two [n_heads, batch, m, 1]
    arrays (the row statistics of Rabe & Staats 2021 and FlashAttention, Dao
    et al. 2022). Backward walks the same chunks, parts and heads, rebuilds
    each chunk's P into its part's block by the forward's own operations (the
    score product, scale and causal fill, then subtracting the stored max,
    exp, and dividing by the stored sum), and uses
    dS = P * (dP - rowsum(dP * P)), with dS and dP * P in two more reused
    blocks per part. So a taped call keeps 2 * n_heads * batch * m floats
    beyond its output, not n_heads * batch * m * n, and its transients are
    three chunks per part. Each batch element sees the same float
    operations, in the same order, as composing a batched matrix product,
    scale, causal fill, max-shifted softmax and a batched matrix product node
    by node, and backward rebuilds the same P bit for bit, so the results
    equal that composition bit for bit, whatever the chunk size and the CPU
    count. On a 2-CPU Xeon VM with one BLAS thread, at [32, 192, 32] inputs
    and 4 heads in two parts, a taped forward takes 20 ms and its backward
    37 ms, against 23 and 28 ms when the graph kept P (medians of five rounds
    of 40 calls); in one part the call's tracemalloc peak is 10.3 MiB
    against 45.6 MiB.
    """
    if n_heads < 1:
        raise ShapeError(f"multi_head_attention: n_heads={n_heads} must be >= 1")
    if q.ndim < 2 or q.shape[:-2] != k.shape[:-2] or q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"multi_head_attention: query {q.shape} vs key {k.shape}")
    if k.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"multi_head_attention: key {k.shape} vs value {v.shape}")
    if q.shape[-1] % n_heads or v.shape[-1] % n_heads:
        raise ShapeError(
            f"multi_head_attention: widths {q.shape[-1]} and {v.shape[-1]} not divisible by {n_heads} heads"
        )
    (m, d), (n, e) = q.shape[-2:], v.shape[-2:]
    qf, kf, vf = q.data.reshape(-1, m, d), k.data.reshape(-1, n, d), v.data.reshape(-1, n, e)
    batch = qf.shape[0]
    c = max(1, _CHUNK_BYTES // (m * n * 8))
    chunks = [slice(i, min(i + c, batch)) for i in range(0, batch, c)]
    dh, eh = d // n_heads, e // n_heads
    scale = 1.0 / np.sqrt(dh)
    heads = [(slice(h * dh, (h + 1) * dh), slice(h * eh, (h + 1) * eh)) for h in range(n_heads)]

    def scores(p, sl, qk, fill):
        """Write head `qk`'s scaled, causally filled scores of chunk `sl` into `p`."""
        np.matmul(qf[sl, :, qk], np.swapaxes(kf[sl, :, qk], -1, -2), out=p)
        p *= scale
        if fill is not None:
            p += fill

    out_flat = np.empty((batch, m, e))
    taped = _records((q, k, v))
    row_max = np.empty((n_heads, batch, m, 1)) if taped else None
    row_sum = np.empty((n_heads, batch, m, 1)) if taped else None
    fill = _causal_fill(m, n) if causal else None

    def forward(part):
        block = np.empty((min(c, batch), m, n))
        for sl in part:
            p = block[: sl.stop - sl.start]
            for h, (qk, vs) in enumerate(heads):
                scores(p, sl, qk, fill)
                mx = p.max(axis=-1, keepdims=True)
                p -= mx
                np.exp(p, out=p)
                total = p.sum(axis=-1, keepdims=True)
                p /= total
                if taped:
                    row_max[h, sl], row_sum[h, sl] = mx, total
                np.matmul(p, vf[sl, :, vs], out=out_flat[sl, :, vs])

    _run_split(forward, chunks)

    def bw(g):
        gf = g.reshape(batch, m, e)
        gq, gk, gv = np.empty(qf.shape), np.empty(kf.shape), np.empty(vf.shape)
        fill = _causal_fill(m, n) if causal else None

        def backward_part(part):
            blocks = [np.empty((min(c, batch), m, n)) for _ in range(3)]
            for sl in part:
                p, ds, dsp = (b[: sl.stop - sl.start] for b in blocks)
                for h, (qk, vs) in enumerate(heads):
                    scores(p, sl, qk, fill)
                    p -= row_max[h, sl]
                    np.exp(p, out=p)
                    p /= row_sum[h, sl]
                    g_h = gf[sl, :, vs]
                    np.matmul(np.swapaxes(p, -1, -2), g_h, out=gv[sl, :, vs])
                    np.matmul(g_h, np.swapaxes(vf[sl, :, vs], -1, -2), out=ds)
                    ds -= np.multiply(ds, p, out=dsp).sum(axis=-1, keepdims=True)
                    ds *= p
                    ds *= scale
                    np.matmul(ds, kf[sl, :, qk], out=gq[sl, :, qk])
                    np.matmul(np.swapaxes(ds, -1, -2), qf[sl, :, qk], out=gk[sl, :, qk])

        _run_split(backward_part, chunks)
        _acc(q, gq.reshape(q.shape))
        _acc(k, gk.reshape(k.shape))
        _acc(v, gv.reshape(v.shape))

    return Tensor._from_op(out_flat.reshape(q.shape[:-1] + (e,)), (q, k, v), bw, "multi_head_attention")


def _causal_fill(m: int, n: int) -> np.ndarray:
    """[m, n]: `_MASK_FILL` above the diagonal, 0 on and below it."""
    return np.triu(np.full((m, n), _MASK_FILL), k=1)


def _split_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_CPUS - 1, thread_name_prefix="sinecast-split")
        return _pool


def _run_part(fn, run: list) -> None:
    _in_part.on = True
    try:
        fn(run)
    finally:
        _in_part.on = False


def _run_split(fn, chunks: list) -> None:
    """Call `fn` on min(_CPUS, len(chunks)) contiguous runs of `chunks`.

    The calling thread runs the last run, the shared pool the others. Every
    submitted run has finished before this returns or raises, so none is
    still writing into the caller's arrays; an exception from any run is
    re-raised. With one part no pool is created and no thread started.
    Reentrant: called from inside a part (of any split, on any thread), it
    calls `fn` on all of `chunks` inline, so a part never waits on the pool.
    """
    parts = 1 if getattr(_in_part, "on", False) else max(1, min(_CPUS, len(chunks)))
    if parts == 1:
        fn(chunks)
        return
    bounds = [len(chunks) * i // parts for i in range(parts + 1)]
    futures = []
    try:
        pool = _split_pool()
        for lo, hi in zip(bounds[:-2], bounds[1:-1]):
            futures.append(pool.submit(_run_part, fn, chunks[lo:hi]))
        _run_part(fn, chunks[bounds[-2]:])
    finally:
        wait(futures)
    for f in futures:
        f.result()


def _topo_order(loss: Tensor) -> list[Tensor]:
    """Ancestors of `loss` that require grad, children before parents reversed."""
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen or not node.requires_grad:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            stack.append((p, False))
    return order


def backward(loss: Tensor) -> None:
    """Fill `grad` on every reachable parameter of a scalar loss.

    Grads of all reachable nodes are zeroed first, so repeated calls on the
    same graph always produce identical results (no silent accumulation).
    An interior node's adjoint is dropped once its closure has passed it on,
    so the backward pass holds fewer of them at once; leaves keep theirs.
    """
    if loss.data.size != 1:
        raise GraphError(f"backward expects a scalar loss, got shape {loss.shape}")
    order = _topo_order(loss)
    for node in order:
        node.grad, node._owns_grad = None, False
    if not loss.requires_grad:
        return
    loss.grad = np.ones_like(loss.data)
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)
            node.grad, node._owns_grad = None, False


def grad_check(
    loss_fn,
    params,
    h: float = 1e-5,
    max_coords_per_param: int = 20,
    seed: int = 0,
) -> float:
    """Compare analytic grads of `loss_fn()` against central finite differences.

    `loss_fn` must rebuild the graph from the current parameter buffers on
    every call. Returns the max over sampled coordinates of
    |g_analytic - g_numeric| / max(1, |g_analytic|, |g_numeric|).
    """
    if not (0.0 < h <= 1e-3):
        raise ValueError(f"grad_check: h={h} outside (0, 1e-3]")
    params = list(params)
    loss = loss_fn()
    backward(loss)
    analytic = {id(p): (np.zeros_like(p.data) if p.grad is None else p.grad.copy()) for p in params}

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p in params:
        flat = p.data.reshape(-1)
        n = flat.size
        if n <= max_coords_per_param:
            coords = np.arange(n)
        else:
            coords = rng.choice(n, size=max_coords_per_param, replace=False)
        ga_flat = analytic[id(p)].reshape(-1)
        for idx in coords:
            orig = flat[idx]
            flat[idx] = orig + h
            lp = loss_fn().item()
            flat[idx] = orig - h
            lm = loss_fn().item()
            flat[idx] = orig
            if not (np.isfinite(lp) and np.isfinite(lm)):
                raise NumericError("grad_check: non-finite loss at perturbed point")
            gn = (lp - lm) / (2.0 * h)
            ga = ga_flat[idx]
            rel = abs(ga - gn) / max(1.0, abs(ga), abs(gn))
            worst = max(worst, rel)
    return worst
