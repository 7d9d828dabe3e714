"""Dataset ingestion, chronological splitting, standardization, and
sliding-window pair construction.

Values at rest are plain float64 numpy arrays; they are wrapped into
autodiff Tensors only when a batch enters a model graph.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, StandardizeError

__all__ = [
    "TimeSeriesTable",
    "SplitSpec",
    "StandardizationStats",
    "WindowDataset",
    "load_csv",
    "split",
    "fit_standardizer",
    "apply_standardizer",
    "make_windows",
    "batches",
]


@dataclass(frozen=True)
class TimeSeriesTable:
    """A named multivariate series in chronological row order.

    values has shape [T, C]. Immutable after construction; the array is
    not defensively copied, callers must not mutate it.
    """

    name: str
    values: np.ndarray
    columns: tuple[str, ...] = ()

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise DataError(f"{self.name}: values must be 2-D [T, C], got shape {v.shape}")
        t, c = v.shape
        if t < 2:
            raise DataError(f"{self.name}: need at least 2 rows, got {t}")
        if c < 1:
            raise DataError(f"{self.name}: need at least 1 channel")
        if not np.isfinite(v).all():
            raise DataError(f"{self.name}: non-finite values present")

    @property
    def length(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class SplitSpec:
    train_frac: float
    val_frac: float
    test_frac: float

    def __post_init__(self):
        for label, f in (("train", self.train_frac), ("val", self.val_frac), ("test", self.test_frac)):
            if not 0.0 < f < 1.0:
                raise DataError(f"{label}_frac={f} must lie in (0, 1)")
        total = self.train_frac + self.val_frac + self.test_frac
        if abs(total - 1.0) > 1e-9:
            raise DataError(f"split fractions sum to {total}, expected 1")


@dataclass(frozen=True)
class StandardizationStats:
    """Per-channel mean and population standard deviation from the train segment."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.std.shape or self.mean.ndim != 1:
            raise StandardizeError(
                f"stats shapes disagree: mean {self.mean.shape}, std {self.std.shape}"
            )
        if not (self.std > 0).all():
            raise StandardizeError("standard deviation must be positive for every channel")


def load_csv(path, timestamp_column: str | None = None, name: str | None = None) -> TimeSeriesTable:
    """Read a UTF-8, comma-separated file with a header row into a table.

    The optional timestamp column is skipped; every other column must parse
    as a float, and the first offending cell is reported by row and column
    name.
    """
    p = Path(path)
    if not p.exists():
        raise DataError(f"no such file: {p}")
    with open(p, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{p}: empty file") from None
        header = [h.strip() for h in header]
        ts_idx = None
        if timestamp_column is not None:
            if timestamp_column not in header:
                raise DataError(f"{p}: timestamp column {timestamp_column!r} not in header {header}")
            ts_idx = header.index(timestamp_column)
        value_cols = [(i, h) for i, h in enumerate(header) if i != ts_idx]

        rows: list[list[float]] = []
        for rownum, raw in enumerate(reader, start=2):  # header is line 1
            if len(raw) != len(header):
                raise DataError(f"{p}: line {rownum} has {len(raw)} cells, expected {len(header)}")
            parsed = []
            for i, col in value_cols:
                cell = raw[i].strip()
                if cell == "":
                    raise DataError(f"{p}: line {rownum}, column {col!r}: missing value")
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise DataError(
                        f"{p}: line {rownum}, column {col!r}: could not parse {cell!r}"
                    ) from None
            rows.append(parsed)

    if len(rows) < 2:
        raise DataError(f"{p}: empty (needs at least 2 data rows, found {len(rows)})")
    return TimeSeriesTable(
        name=name if name is not None else p.stem,
        values=np.asarray(rows, dtype=np.float64),
        columns=tuple(h for _, h in value_cols),
    )


def split(table: TimeSeriesTable, spec: SplitSpec) -> tuple[TimeSeriesTable, TimeSeriesTable, TimeSeriesTable]:
    """Cut the table into contiguous train/val/test segments.

    Boundaries are floor(T * train_frac) and floor(T * (train_frac + val_frac)).
    """
    t = table.length
    b1 = int(np.floor(t * spec.train_frac))
    b2 = int(np.floor(t * (spec.train_frac + spec.val_frac)))
    if not (0 < b1 < b2 < t):
        raise DataError(f"{table.name}: split of {t} rows leaves an empty segment ({b1}, {b2 - b1}, {t - b2})")

    def piece(lo: int, hi: int, tag: str) -> TimeSeriesTable:
        return TimeSeriesTable(
            name=f"{table.name}/{tag}",
            values=table.values[lo:hi],
            columns=table.columns,
        )

    return piece(0, b1, "train"), piece(b1, b2, "val"), piece(b2, t, "test")


def fit_standardizer(train: TimeSeriesTable) -> StandardizationStats:
    """Per-channel mean and population std, computed on the train segment only."""
    v = train.values
    mean = v.mean(axis=0)
    std = v.std(axis=0)  # population (ddof=0)
    for c in np.flatnonzero(std == 0.0):
        colname = train.columns[c] if c < len(train.columns) else str(c)
        raise StandardizeError(f"{train.name}: channel {colname!r} is constant, cannot standardize")
    return StandardizationStats(mean=mean, std=std)


def apply_standardizer(table: TimeSeriesTable, stats: StandardizationStats) -> TimeSeriesTable:
    if stats.mean.shape[0] != table.n_channels:
        raise StandardizeError(
            f"{table.name}: stats fitted for {stats.mean.shape[0]} channels, table has {table.n_channels}"
        )
    return TimeSeriesTable(
        name=table.name,
        values=(table.values - stats.mean) / stats.std,
        columns=table.columns,
    )


@dataclass(frozen=True)
class WindowDataset:
    """Sliding-window supervised pairs over one split segment.

    Window k reads input rows [k*stride, k*stride + I) and target rows
    [k*stride + I, k*stride + I + L). Pairs are stored as offsets into the
    segment and materialized on demand: `gather` copies out only the
    requested windows, so that long-horizon runs never hold every window at
    once.
    """

    base: np.ndarray
    input_len: int
    horizon: int
    stride: int
    starts: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.input_len < 1 or self.horizon < 1 or self.stride < 1:
            raise DataError(
                f"window spec must be positive: I={self.input_len}, L={self.horizon}, stride={self.stride}"
            )
        t = self.base.shape[0]
        span = self.input_len + self.horizon
        n = (t - span) // self.stride + 1 if t >= span else 0
        object.__setattr__(self, "starts", np.arange(n) * self.stride)

    def __len__(self) -> int:
        return len(self.starts)

    @property
    def n_channels(self) -> int:
        return self.base.shape[1]

    def gather(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Materialize the windows at positions `idx` as ([n,I,C], [n,L,C])."""
        i, l = self.input_len, self.horizon
        xs = np.empty((len(idx), i, self.n_channels))
        ys = np.empty((len(idx), l, self.n_channels))
        for row, k in enumerate(idx):
            s = self.starts[k]
            xs[row] = self.base[s:s + i]
            ys[row] = self.base[s + i:s + i + l]
        return xs, ys


def make_windows(table: TimeSeriesTable, input_len: int, horizon: int, stride: int = 1) -> WindowDataset:
    return WindowDataset(base=table.values, input_len=input_len, horizon=horizon, stride=stride)


def batches(ds: WindowDataset, batch_size: int, shuffle_seed: int | None = None):
    """Yield (inputs, targets) numpy pairs covering every window exactly once.

    With a seed the window order is shuffled reproducibly; without one,
    windows come out in file order. The last batch may be short.
    """
    if batch_size < 1:
        raise DataError(f"batch_size must be >= 1, got {batch_size}")
    order = np.arange(len(ds))
    if shuffle_seed is not None:
        np.random.default_rng(shuffle_seed).shuffle(order)
    for lo in range(0, len(order), batch_size):
        yield ds.gather(order[lo:lo + batch_size])
