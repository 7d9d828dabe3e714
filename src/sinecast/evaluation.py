"""Test-set MAE evaluation and the improvement over a baseline.

All metrics operate in standardized space; improvements are fractions where
positive means the model beats the baseline.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, _run_split, no_grad
from .data import WindowDataset
from .errors import ConfigError
from .models import Forecaster

__all__ = [
    "EvalResult",
    "evaluate",
    "improvement",
]


@dataclass(frozen=True)
class EvalResult:
    mae: float
    n_windows: int

    def __post_init__(self):
        if self.mae < 0:
            raise ConfigError(f"mae must be non-negative, got {self.mae}")
        if self.n_windows < 1:
            raise ConfigError(f"n_windows must be >= 1, got {self.n_windows}")


# glibc's mallopt parameters, and the ceilings its dynamic thresholds reach on
# 64-bit systems: a freed mmapped block raises the mmap threshold to its size,
# up to 32 MB, and the trim threshold to twice that.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_MAX = 32 << 20


def _pin_malloc_thresholds() -> bool:
    """Fix glibc's mmap and trim thresholds at the ceilings they rise to.

    A training step frees its whole graph before the next forward builds one
    of the same size, and a scoring batch frees its activations before the
    next batch makes its own. Under the dynamic thresholds that freed memory
    sits at the top of the heap and is trimmed back to the OS, so every step
    or batch faults it in again; with the thresholds at their ceilings it
    stays mapped and the next one reuses it. The cost is that up to 64 MB of
    freed heap per malloc arena can stay mapped. ``train_model`` and
    :func:`evaluate` both call it, so training and scoring run under one
    heap policy. Process-wide, and a no-op where the C library has no
    ``mallopt``; returns whether both thresholds were set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_MAX)) and bool(
        mallopt(_M_TRIM_THRESHOLD, 2 * _MMAP_THRESHOLD_MAX))


def evaluate(
    model: Forecaster,
    test: WindowDataset,
    dataset_name: str = "",
    batch_size: int = 256,
) -> EvalResult:
    """MAE of the frozen model over every test window, computed in batches.

    The batches are split into contiguous runs, one per CPU the process may
    use (``autodiff._run_split``), and each run gathers and scores its
    batches one at a time, so a run holds one batch at once. Each batch's
    absolute-error sum and count go into its own slot, and the slots are
    added in batch order, so the MAE is bit-identical to a serial loop over
    the batches whatever the CPU count. It does depend on `batch_size`: each
    batch's sum is rounded before it is added. `dataset_name` only names the
    test set in the error for an empty one. It pins the heap thresholds
    (:func:`_pin_malloc_thresholds`) first.
    """
    if batch_size < 1:
        raise ConfigError(f"evaluate: batch_size must be >= 1, got {batch_size}")
    n = len(test)
    if n == 0:
        raise ConfigError(f"evaluate: empty test set for {dataset_name or model.config.variant}")
    _pin_malloc_thresholds()
    starts = list(range(0, n, batch_size))
    slots: list[tuple[float, int]] = [(0.0, 0)] * len(starts)

    def score(run):
        with no_grad():  # per thread: a pool thread must enter it itself
            for lo in run:
                xb, yb = test.gather(np.arange(lo, min(lo + batch_size, n)))
                pred = model(Tensor(xb)).data
                slots[lo // batch_size] = (float(np.abs(pred - yb).sum()), yb.size)

    _run_split(score, starts)
    abs_sum = 0.0
    count = 0
    for batch_sum, batch_count in slots:
        abs_sum += batch_sum
        count += batch_count
    return EvalResult(mae=abs_sum / count, n_windows=n)


def improvement(baseline_mae: float, model_mae: float) -> float:
    """(baseline - model) / baseline; positive when the model is better."""
    if baseline_mae <= 0:
        raise ConfigError(f"baseline mae must be positive, got {baseline_mae}")
    return (baseline_mae - model_mae) / baseline_mae

