"""Test-set MAE evaluation and the improvement over a baseline.

All metrics operate in standardized space; improvements are fractions where
positive means the model beats the baseline.
"""

from __future__ import annotations

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
    test set in the error for an empty one.
    """
    if batch_size < 1:
        raise ConfigError(f"evaluate: batch_size must be >= 1, got {batch_size}")
    n = len(test)
    if n == 0:
        raise ConfigError(f"evaluate: empty test set for {dataset_name or model.config.variant}")
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

