"""Deterministic synthetic series for demos, acceptance runs, and tests.

All generators return 1-D float64 arrays. Sinusoid phases are computed from
`t % period` so that values separated by an integer multiple of the period
are bitwise identical, which keeps persistence-style exactness checks sharp.
"""

from __future__ import annotations

import numpy as np

from .data import TimeSeriesTable

__all__ = [
    "sine_series",
    "multi_sine_with_trend",
    "tidal_series",
    "as_table",
]


def _sine(n: int, period: float, amplitude: float) -> np.ndarray:
    t = np.arange(n, dtype=np.float64)
    return amplitude * np.sin(2.0 * np.pi * (t % period) / period)


def sine_series(n: int, period: float = 24.0, amplitude: float = 1.0,
                noise: float = 0.0, seed: int = 0) -> np.ndarray:
    """Single sinusoid, optionally with additive Gaussian noise."""
    values = _sine(n, period, amplitude)
    if noise > 0.0:
        values = values + np.random.default_rng(seed).normal(0.0, noise, size=n)
    return values


def multi_sine_with_trend(
    n: int,
    periods: tuple[float, ...] = (23.0, 141.0),
    amplitudes: tuple[float, ...] = (1.0, 0.6),
    slope: float = 1e-4,
    noise: float = 0.02,
    seed: int = 0,
) -> np.ndarray:
    """Sum of incommensurate sinusoids plus a linear trend.

    The default periods do not divide the usual horizons, so a copy-forward
    forecast drifts out of phase while the signal stays perfectly learnable.
    """
    if len(periods) != len(amplitudes):
        raise ValueError(f"{len(periods)} periods vs {len(amplitudes)} amplitudes")
    values = np.zeros(n)
    for period, amplitude in zip(periods, amplitudes):
        values += _sine(n, period, amplitude)
    values += slope * np.arange(n, dtype=np.float64)
    if noise > 0.0:
        values = values + np.random.default_rng(seed).normal(0.0, noise, size=n)
    return values


def tidal_series(
    n: int,
    periods: tuple[float, ...] = (12.42, 12.0, 23.93, 25.82),
    amplitudes: tuple[float, ...] = (1.0, 0.45, 0.35, 0.3),
    noise: float = 0.05,
    seed: int = 0,
) -> np.ndarray:
    """Hourly sea-level-like signal: the four main tidal constituents."""
    return multi_sine_with_trend(
        n, periods=periods, amplitudes=amplitudes, slope=0.0, noise=noise, seed=seed
    )


def as_table(values: np.ndarray, name: str = "synthetic") -> TimeSeriesTable:
    return TimeSeriesTable(name=name, values=np.asarray(values, dtype=np.float64).reshape(-1, 1))
