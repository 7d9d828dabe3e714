"""MAE metrics, test-set evaluation, and improvement-vs-baseline aggregation.

All metrics operate in standardized space; improvements are fractions where
positive means the model beats the baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .autodiff import Tensor, no_grad
from .data import WindowDataset
from .errors import ConfigError, ShapeError
from .models import Forecaster

__all__ = [
    "EvalResult",
    "mae",
    "evaluate",
    "improvement",
    "mean_improvements",
]


@dataclass(frozen=True)
class EvalResult:
    dataset: str
    model: str
    horizon: int
    input_len: int
    mae: float
    n_windows: int

    def __post_init__(self):
        if self.mae < 0:
            raise ConfigError(f"mae must be non-negative, got {self.mae}")
        if self.n_windows < 1:
            raise ConfigError(f"n_windows must be >= 1, got {self.n_windows}")


def _as_array(x) -> np.ndarray:
    return x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)


def mae(pred, truth) -> float:
    """Mean absolute error over every element of equally shaped arrays."""
    p, t = _as_array(pred), _as_array(truth)
    if p.shape != t.shape:
        raise ShapeError(f"mae: shapes {p.shape} and {t.shape} differ")
    return float(np.abs(p - t).mean())


def evaluate(
    model: Forecaster,
    test: WindowDataset,
    dataset_name: str = "",
    batch_size: int = 256,
) -> EvalResult:
    """MAE of the frozen model over every test window, computed in batches."""
    n = len(test)
    if n == 0:
        raise ConfigError(f"evaluate: empty test set for {dataset_name or model.config.variant}")
    abs_sum = 0.0
    count = 0
    for lo in range(0, n, batch_size):
        idx = np.arange(lo, min(lo + batch_size, n))
        xb, yb = test.gather(idx)
        with no_grad():
            pred = model(Tensor(xb)).data
        abs_sum += float(np.abs(pred - yb).sum())
        count += yb.size
    return EvalResult(
        dataset=dataset_name,
        model=model.config.variant,
        horizon=model.config.horizon,
        input_len=model.config.input_len,
        mae=abs_sum / count,
        n_windows=n,
    )


def improvement(baseline_mae: float, model_mae: float) -> float:
    """(baseline - model) / baseline; positive when the model is better."""
    if baseline_mae <= 0:
        raise ConfigError(f"baseline mae must be positive, got {baseline_mae}")
    return (baseline_mae - model_mae) / baseline_mae


def mean_improvements(rows: Iterable[Mapping]) -> dict[tuple[str, int], tuple[float, int]]:
    """Mean improvement over datasets for every (model, horizon) of result rows.

    Averages the `improvement_vs_persistence` of each ok row of a trained
    model; rows without one (a failed or zero baseline) are left out.
    Returns {(model, horizon): (mean improvement, number of rows averaged)}.
    """
    buckets: dict[tuple[str, int], list[float]] = {}
    for r in rows:
        imp = r.get("improvement_vs_persistence")
        if r["status"] == "ok" and r["model"] != "Persistence" and imp is not None:
            buckets.setdefault((r["model"], r["horizon"]), []).append(imp)
    return {key: (sum(vals) / len(vals), len(vals)) for key, vals in buckets.items()}
