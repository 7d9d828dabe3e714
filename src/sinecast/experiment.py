"""Benchmark harness: config files, run grids, tuning, artifacts.

One experiment is a dataset, a split, a list of horizons, and a list of
models. Each grid cell is a `Cell`: a model at a horizon on the dataset,
trained from the config's seed. `run_experiment` trains and scores every
cell, always scoring the copy-forward baseline first at each horizon so that
improvements can be computed, and writes three artifacts into the output
directory: results.csv (byte-deterministic), report.md, and manifest.json
(the only file that carries wall-clock information). `tune` trains its
candidates through the same code as the cells of `run_experiment`.

Failures are isolated: a cell that raises records an error row and the grid
keeps going. Attention models whose estimated score buffers exceed the
memory budget are skipped up front rather than attempted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import platform
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping

import numpy as np

from . import __version__, autodiff, synthetic
from .data import (
    SplitSpec,
    TimeSeriesTable,
    apply_standardizer,
    fit_standardizer,
    load_csv,
    make_windows,
    split,
)
from .errors import ConfigError, SinecastError, TuningError
from .evaluation import evaluate, improvement
from .models import VARIANTS, Forecaster, ModelConfig, save_checkpoint
from .reporting import RunRecord, status_counts, write_csv, write_report, write_results_csv
from .training import LrSchedule, TrainConfig, train_model

__all__ = [
    "DatasetSource",
    "ExperimentConfig",
    "Cell",
    "RunRecord",
    "ExperimentOutcome",
    "TuneRecord",
    "TuneOutcome",
    "load_config",
    "config_hash",
    "normalized_config",
    "load_source",
    "prepared_segments",
    "tail_portion",
    "attention_memory_bytes",
    "run_experiment",
    "tune",
]

ATTENTION_SITES = {"Sencoder": 1, "Sinformer": 3}
ATTENTION_MODELS = tuple(ATTENTION_SITES)

_SYNTHETIC_KINDS = {
    "sine": synthetic.sine_series,
    "multi_sine_trend": synthetic.multi_sine_with_trend,
    "tidal": synthetic.tidal_series,
}

_TUPLE_ARGS = {"periods", "amplitudes"}


@dataclass(frozen=True)
class DatasetSource:
    """Where the series comes from: a CSV file or a built-in generator.

    `path` is kept as the config wrote it, and a relative one is read from
    `config_dir`, so the config hash, which leaves `config_dir` out, is the
    same wherever a config and its CSV are copied together.
    """

    name: str
    path: str | None = None
    timestamp_column: str | None = None
    frequency: str = ""
    synthetic: Mapping | None = None
    config_dir: str | None = None

    def __post_init__(self):
        if (self.path is None) == (self.synthetic is None):
            raise ConfigError("dataset needs exactly one of 'path' or 'synthetic'")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    source: DatasetSource
    split: SplitSpec
    horizons: tuple[int, ...]
    models: tuple[str, ...]
    input_len: int | None = None
    epochs: int = 50
    lr_start: float = 1e-3
    lr_end: float = 1e-6
    batch_size: int = 32
    eval_batch_size: int = 256
    seed: int = 0
    stride: int = 1
    eval_stride: int = 1
    train_portion: float = 1.0
    standardize: bool = True
    loss: str = "mae"
    memory_budget_mb: float = 2048.0
    d_model: int = 32
    n_heads: int = 4
    ffn_dim: int = 64
    ma_kernel: int = 25
    save_checkpoints: bool = False
    workers: int = 1
    out_dir: str | None = None
    tuning_input_lens: tuple[int, ...] | None = None
    tuning_train_portions: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.split, SplitSpec):
            object.__setattr__(self, "split", SplitSpec(*self.split))
        if not self.name:
            raise ConfigError("experiment name must be non-empty")
        if not self.horizons or any(h < 1 for h in self.horizons):
            raise ConfigError(f"horizons must be a non-empty list of positive ints, got {self.horizons}")
        if not self.models:
            raise ConfigError("models must be non-empty")
        for m in self.models:
            if m not in VARIANTS:
                raise ConfigError(f"unknown model {m!r}; choose from {VARIANTS}")
        if self.input_len is not None and self.input_len < 1:
            raise ConfigError(f"input_len must be >= 1 or null, got {self.input_len}")
        # ModelConfig, LrSchedule and TrainConfig check the settings they take
        self.model_config(self.models[0], self.horizons[0], self.input_len or self.horizons[0], 1)
        self.train_config(self.models[0])
        if not 0.0 < self.train_portion <= 1.0:
            raise ConfigError(f"train_portion must lie in (0, 1], got {self.train_portion}")
        if self.tuning_train_portions and not all(0.0 < p <= 1.0 for p in self.tuning_train_portions):
            raise ConfigError(
                f"tuning.train_portions must lie in (0, 1], got {list(self.tuning_train_portions)}"
            )
        # each value names its own cells, so a repeat would train them twice
        for key, values in (("horizons", self.horizons),
                            ("models", self.models),
                            ("tuning.input_lens", self.tuning_input_lens),
                            ("tuning.train_portions", self.tuning_train_portions)):
            if values and len(set(values)) < len(values):
                raise ConfigError(f"{key} must not repeat a value, got {list(values)}")
        if min(self.eval_batch_size, self.stride, self.eval_stride, self.workers) < 1:
            raise ConfigError("eval_batch_size, strides, and workers must be >= 1")
        if self.memory_budget_mb <= 0:
            raise ConfigError(f"memory_budget_mb must be positive, got {self.memory_budget_mb}")

    def model_config(self, variant: str, horizon: int, input_len: int, channels: int) -> ModelConfig:
        return ModelConfig(
            variant=variant,
            input_len=input_len,
            horizon=horizon,
            channels=channels,
            d_model=self.d_model,
            n_heads=self.n_heads,
            ffn_dim=self.ffn_dim,
            ma_kernel=self.ma_kernel,
            seed=self.seed,
        )

    def train_config(self, variant: str) -> TrainConfig:
        eval_batch = self.eval_batch_size
        if variant in ATTENTION_MODELS:
            # Caps the memory of scoring a batch. It can move a score's last
            # digits, since each batch's error sum is rounded before it is
            # added: the demo's Linear@96 scores ...664 at batch sizes 7 and
            # 32 but ...666 at 256 and at all 505 windows. The cap stays,
            # because removing it would change results.csv.
            eval_batch = min(eval_batch, self.batch_size)
        return TrainConfig(
            schedule=LrSchedule(self.lr_start, self.lr_end, self.epochs),
            batch_size=self.batch_size,
            seed=self.seed,
            loss=self.loss,
            eval_batch_size=eval_batch,
        )


def _slug(text: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text).strip("_") or "series"


@dataclass(frozen=True)
class Cell:
    """One grid cell: a model at a horizon on a dataset, trained from a seed."""

    dataset: str
    model: str
    horizon: int
    seed: int

    @property
    def stem(self) -> str:
        """File name stem of the cell's training log, checkpoint and plots."""
        return f"{_slug(self.dataset)}_{self.model}_{self.horizon}"

    @property
    def key(self) -> str:
        """The cell's key in the manifest's run_seconds."""
        return f"{self.dataset}/{self.model}/{self.horizon}"


@dataclass
class ExperimentOutcome:
    records: list[RunRecord]
    out_dir: Path
    results_path: Path
    report_path: Path
    manifest_path: Path

    @property
    def n_errors(self) -> int:
        return status_counts(r.status for r in self.records)["error"]


@dataclass
class TuneRecord:
    """One tuning candidate: a model at a horizon with an input length and a
    train portion. Its fields, in order, are the columns of tuning.csv."""

    dataset: str
    model: str
    horizon: int
    input_len: int
    train_portion: float
    status: str = "ok"  # ok | infeasible | skipped | error
    reason: str = ""
    val_mae: float | None = None
    best_epoch: int | None = None


@dataclass
class TuneOutcome:
    rows: list[TuneRecord]
    best: dict
    out_dir: Path
    table_path: Path
    best_path: Path


# -- config files -----------------------------------------------------------


def _take(raw: dict, key: str, kinds, default, required: bool = False):
    if key not in raw:
        if required:
            raise ConfigError(f"config is missing required key {key!r}")
        return default
    value = raw.pop(key)
    if value is None and not required:
        return default
    if kinds is int and isinstance(value, bool):
        raise ConfigError(f"config key {key!r} must be an integer, got {value!r}")
    if kinds is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kinds):
        raise ConfigError(f"config key {key!r} has wrong type: {value!r}")
    return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _int_list(value, key: str) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"config key {key!r} must be a non-empty list")
    out = []
    for v in value:
        if isinstance(v, bool) or not isinstance(v, int):
            raise ConfigError(f"config key {key!r} must hold integers, got {v!r}")
        out.append(v)
    return tuple(out)


def _parse_source(raw, config_dir: Path, fallback_name: str) -> DatasetSource:
    if not isinstance(raw, dict):
        raise ConfigError("config key 'dataset' must be an object")
    raw = dict(raw)
    path = _take(raw, "path", str, None)
    name = _take(raw, "name", str, None)
    ts = _take(raw, "timestamp_column", str, None)
    freq = _take(raw, "frequency", str, "")
    synth = _take(raw, "synthetic", dict, None)
    if raw:
        raise ConfigError(f"unknown dataset key(s): {sorted(raw)}")
    if path is not None and name is None:
        name = Path(path).stem
    if synth is not None:
        synth = dict(synth)
        kind = synth.get("kind")
        if kind not in _SYNTHETIC_KINDS:
            raise ConfigError(f"synthetic kind must be one of {sorted(_SYNTHETIC_KINDS)}, got {kind!r}")
        if not isinstance(synth.get("n"), int) or synth["n"] < 2:
            raise ConfigError("synthetic dataset needs an integer sample count 'n' >= 2")
        for key in sorted(_TUPLE_ARGS.intersection(synth)):
            if not isinstance(synth[key], list) or not all(_is_number(v) for v in synth[key]):
                raise ConfigError(f"synthetic {key!r} must be a list of numbers, got {synth[key]!r}")
        if name is None:
            name = kind
    return DatasetSource(name=name or fallback_name, path=path, timestamp_column=ts,
                         frequency=freq, synthetic=synth,
                         config_dir=None if path is None else str(config_dir.resolve()))


# load_config parses these fields itself; every other field of
# ExperimentConfig is one config key, or one key of "model_overrides", whose
# default and JSON type are the field's own.
_STRUCTURED_FIELDS = ("name", "source", "split", "horizons", "models",
                      "tuning_input_lens", "tuning_train_portions")
_OVERRIDE_FIELDS = ("d_model", "n_heads", "ffn_dim", "ma_kernel")
_JSON_TYPES = {"int": int, "float": float, "bool": bool, "str": str}


def load_config(path) -> ExperimentConfig:
    """Parse and validate an experiment config JSON file."""
    p = Path(path)
    try:
        raw = json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{p} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{p}: top level must be a JSON object")

    name = _take(raw, "name", str, None, required=True)
    source = _parse_source(raw.pop("dataset", None) or {}, p.parent, fallback_name=name)

    split_raw = raw.pop("split", None)
    if not isinstance(split_raw, list) or len(split_raw) != 3 or not all(map(_is_number, split_raw)):
        raise ConfigError(f"config key 'split' must be a list of three fractions, got {split_raw!r}")
    spec = SplitSpec(*(float(f) for f in split_raw))

    horizons = _int_list(raw.pop("horizons", None), "horizons")
    models_raw = raw.pop("models", None)
    if not isinstance(models_raw, list) or not all(isinstance(m, str) for m in models_raw):
        raise ConfigError("config key 'models' must be a list of model names")
    models = tuple(dict.fromkeys(models_raw))

    overrides = dict(_take(raw, "model_overrides", dict, {}))
    settings = {}
    for f in dataclasses.fields(ExperimentConfig):
        if f.name not in _STRUCTURED_FIELDS:
            kind = _JSON_TYPES[f.type.removesuffix(" | None")]
            settings[f.name] = _take(overrides if f.name in _OVERRIDE_FIELDS else raw,
                                     f.name, kind, f.default)
    if overrides:
        raise ConfigError(f"unknown model_overrides key(s): {sorted(overrides)}")

    tuning = dict(_take(raw, "tuning", dict, {}))
    t_lens = tuning.pop("input_lens", None)
    t_portions = tuning.pop("train_portions", None)
    if tuning:
        raise ConfigError(f"unknown tuning key(s): {sorted(tuning)}")
    if t_lens is not None:
        t_lens = _int_list(t_lens, "tuning.input_lens")
    if t_portions is not None:
        if not isinstance(t_portions, list) or not t_portions or not all(map(_is_number, t_portions)):
            raise ConfigError("config key 'tuning.train_portions' must be a non-empty list of numbers")
        t_portions = tuple(float(x) for x in t_portions)
    if raw:
        raise ConfigError(f"unknown config key(s): {sorted(raw)}")

    return ExperimentConfig(
        name=name,
        source=source,
        split=spec,
        horizons=horizons,
        models=models,
        tuning_input_lens=t_lens,
        tuning_train_portions=t_portions,
        **settings,
    )


def normalized_config(cfg: ExperimentConfig) -> dict:
    """JSON-ready view of a config with every default filled in."""
    d = dataclasses.asdict(cfg)
    d["split"] = [cfg.split.train_frac, cfg.split.val_frac, cfg.split.test_frac]
    return d


# Execution details that do not change any result value stay out of the hash,
# and so does `source.config_dir`, the directory a CSV path is read from.
_UNHASHED_KEYS = ("out_dir", "workers", "save_checkpoints")


def config_hash(cfg: ExperimentConfig) -> str:
    d = {k: v for k, v in normalized_config(cfg).items() if k not in _UNHASHED_KEYS}
    del d["source"]["config_dir"]
    canonical = json.dumps(d, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _environment() -> dict:
    """What results.csv is byte-identical under: the Python, numpy and BLAS
    builds and the BLAS thread settings. Also the CPU count that attention
    splits its batch chunks and scoring its batches over, which changes
    speed, not results. Recorded in the manifest, not hashed."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "num_threads": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "cpus": autodiff._CPUS,
    }


# -- data loading -----------------------------------------------------------


def load_source(source: DatasetSource) -> TimeSeriesTable:
    if source.synthetic is not None:
        spec = dict(source.synthetic)
        maker = _SYNTHETIC_KINDS[spec.pop("kind")]
        kwargs = {k: tuple(v) if k in _TUPLE_ARGS else v for k, v in spec.items()}
        try:
            values = maker(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"bad synthetic dataset options: {exc}") from exc
        return synthetic.as_table(values, name=source.name)
    return load_csv(
        Path(source.config_dir or "") / source.path,
        timestamp_column=source.timestamp_column,
        name=source.name,
    )


def tail_portion(table: TimeSeriesTable, portion: float) -> TimeSeriesTable:
    """Keep the most recent floor(portion * T) rows of a segment."""
    if not 0.0 < portion <= 1.0:
        raise ConfigError(f"train_portion must lie in (0, 1], got {portion}")
    if portion == 1.0:
        return table
    keep = int(table.length * portion)
    if keep < 2:
        raise ConfigError(f"train_portion={portion} leaves {keep} rows of {table.length}")
    return TimeSeriesTable(name=table.name, values=table.values[table.length - keep:], columns=table.columns)


# -- memory guard -----------------------------------------------------------


def attention_memory_bytes(variant: str, n_heads: int, batch: int, horizon: int) -> int:
    """Rough peak size of the attention buffers of one training step.

    Attention is one autodiff op (``autodiff.multi_head_attention``). For
    backward it keeps, per attention site, one [batch, T, T] array of softmax
    probabilities per head. ``train_model`` drops each step's graph before
    the next forward, so every step holds one set of them, not only the
    first. Its forward and backward split the batch chunks into one part per
    CPU, and each part works on one chunk and head at a time, so their
    transients (the score block, dP overwritten into dS, and dS * P) are one
    chunk per part: at most 256 KB each, or one [T, T] array when that is
    larger. Scoring, which keeps no probabilities, holds one
    batch per CPU, each running its attention as one part. The factor 4 per
    head and site covers the probabilities with room to spare. The
    projection, feed-forward and layer-norm activations are not counted, so
    at short horizons a step's measured peak can exceed this estimate (a
    B=32 step's tracemalloc peak over this estimate, the first step's and
    every later one's: Sencoder 0.75 at T=96, 0.50 at 192, 0.40 at 336;
    Sinformer 0.60 at 96). Non-attention models return 0.
    """
    sites = ATTENTION_SITES.get(variant, 0)
    return sites * 4 * n_heads * batch * horizon * horizon * 8


# -- the run grid -----------------------------------------------------------


def prepared_segments(cfg: ExperimentConfig):
    """Split, standardize, and trim the configured dataset.

    Standardization statistics always come from the full training segment;
    train_portion then keeps only the most recent windows for optimization.
    """
    table = load_source(cfg.source)
    train_t, val_t, test_t = split(table, cfg.split)
    if cfg.standardize:
        stats = fit_standardizer(train_t)
        train_t = apply_standardizer(train_t, stats)
        val_t = apply_standardizer(val_t, stats)
        test_t = apply_standardizer(test_t, stats)
    train_t = tail_portion(train_t, cfg.train_portion)
    return train_t, val_t, test_t


def _resolve_out_dir(cfg: ExperimentConfig, out_dir) -> Path:
    """The output directory, created with its logs/ subdirectory."""
    chosen = out_dir if out_dir is not None else cfg.out_dir
    if chosen is None or str(chosen) == "":
        raise ConfigError("no output directory: pass out_dir or set 'out_dir' in the config")
    p = Path(chosen)
    (p / "logs").mkdir(parents=True, exist_ok=True)
    return p


def _over_budget(cfg: ExperimentConfig, variant: str, horizon: int, n_train: int) -> str:
    """The skip reason when the attention buffers exceed the budget, else ""."""
    batch = min(cfg.batch_size, n_train) if n_train else cfg.batch_size
    est = attention_memory_bytes(variant, cfg.n_heads, batch, horizon)
    if est <= cfg.memory_budget_mb * 2**20:
        return ""
    return (
        f"intractable at this horizon: ~{est / 2**20:.4g} MB of attention "
        f"buffers exceed the {cfg.memory_budget_mb:.4g} MB budget"
    )


def _attempt(
    cfg: ExperimentConfig,
    cell: Cell,
    input_len: int,
    train_t: TimeSeriesTable,
    val_t: TimeSeriesTable,
    log_path: Path,
    finish,
) -> tuple[str, str]:
    """Train one cell and pass the model and its training report to `finish`.

    A trained model's windows are made first; the memory guard then skips the
    cell, or the model is fitted and comes back with its best validation
    epoch restored. Persistence trains nothing, and its report is None. Any
    exception, `finish`'s included, becomes an error. Returns the status
    ("ok", "skipped" or "error") and its reason.
    """
    try:
        config = cfg.model_config(cell.model, cell.horizon, input_len, val_t.n_channels)
        if cell.model == "Persistence":
            model, report = Forecaster(config), None
        else:
            train_ds = make_windows(train_t, input_len, cell.horizon, cfg.stride)
            skip = _over_budget(cfg, cell.model, cell.horizon, len(train_ds))
            if skip:
                return "skipped", skip
            model = Forecaster(config)
            val_ds = make_windows(val_t, input_len, cell.horizon, cfg.eval_stride)
            report = train_model(model, train_ds, val_ds, cfg.train_config(cell.model), log_path=log_path)
        finish(model, report)
    except SinecastError as exc:  # keep going, the row carries the cause
        return "error", str(exc)
    except Exception as exc:
        return "error", f"{type(exc).__name__}: {exc}"
    return "ok", ""


def _run_cell(
    cfg: ExperimentConfig,
    cell: Cell,
    train_t: TimeSeriesTable,
    val_t: TimeSeriesTable,
    test_t: TimeSeriesTable,
    out: Path,
) -> tuple[RunRecord, float]:
    input_len = cell.horizon if cell.model == "Persistence" else (cfg.input_len or cell.horizon)
    record = RunRecord(**dataclasses.asdict(cell), input_len=input_len,
                       train_portion=cfg.train_portion, status="ok")
    started = time.perf_counter()

    def score(model, report):
        test_ds = make_windows(test_t, input_len, cell.horizon, cfg.eval_stride)
        result = evaluate(model, test_ds, dataset_name=test_t.name,
                          batch_size=cfg.train_config(cell.model).eval_batch_size)
        if cfg.save_checkpoints and cell.model != "Persistence":
            save_checkpoint(model, out / "checkpoints" / f"{cell.stem}.json")
        record.mae, record.n_windows = result.mae, result.n_windows
        record.best_epoch = None if report is None else report.best_epoch

    record.status, record.reason = _attempt(cfg, cell, input_len, train_t, val_t,
                                            out / "logs" / f"{cell.stem}.csv", score)
    return record, time.perf_counter() - started


def run_experiment(cfg: ExperimentConfig, out_dir=None) -> ExperimentOutcome:
    """Run the full grid and write results.csv, report.md, manifest.json."""
    out = _resolve_out_dir(cfg, out_dir)
    if cfg.save_checkpoints:
        (out / "checkpoints").mkdir(exist_ok=True)
    started_wall = datetime.now(timezone.utc).isoformat(timespec="seconds")
    started = time.perf_counter()

    train_t, val_t, test_t = prepared_segments(cfg)
    trained = [m for m in cfg.models if m != "Persistence"]
    cells = [Cell(cfg.source.name, m, h, cfg.seed)
             for h in cfg.horizons for m in ["Persistence"] + trained]

    def run(cell):
        return _run_cell(cfg, cell, train_t, val_t, test_t, out)

    if cfg.workers > 1:
        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            outcomes = list(pool.map(run, cells))
    else:
        outcomes = [run(cell) for cell in cells]

    records = [rec for rec, _ in outcomes]
    timings = {cell.key: round(secs, 3) for cell, (_, secs) in zip(cells, outcomes)}

    scored = {cell.key: r.mae for cell, r in zip(cells, records) if r.status == "ok"}
    for cell, r in zip(cells, records):
        if cell.model != "Persistence" and r.status == "ok":
            base = scored.get(dataclasses.replace(cell, model="Persistence").key)
            # a baseline of exactly zero (noise-free periodic data) admits no ratio
            if base is not None and base > 0:
                r.improvement_vs_persistence = improvement(base, r.mae)

    results_path = write_results_csv(out / "results.csv", records)
    report_path = write_report(out / "report.md", records, title=cfg.name, config_hash=config_hash(cfg))

    manifest = {
        "experiment": cfg.name,
        "config_hash": config_hash(cfg),
        "config": normalized_config(cfg),
        "environment": _environment(),
        "tool": f"sinecast {__version__}",
        "started_utc": started_wall,
        "finished_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seconds": round(time.perf_counter() - started, 3),
        "counts": status_counts(r.status for r in records),
        "run_seconds": timings,
        "results": [dataclasses.asdict(r) for r in records],
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    return ExperimentOutcome(
        records=records,
        out_dir=out,
        results_path=results_path,
        report_path=report_path,
        manifest_path=manifest_path,
    )


# -- input-length and history tuning ----------------------------------------


def tune(cfg: ExperimentConfig, out_dir=None) -> TuneOutcome:
    """Grid-search input length and train portion per (model, horizon).

    Selection is by validation MAE with ties broken toward the shorter
    input and then the larger portion. Standardization statistics come from
    the full training segment, so scores are comparable across portions.
    Candidates train through the same code as `run_experiment` cells: the
    memory guard skips them and a failure becomes an error row. A (model,
    horizon) with a skipped candidate but none that trained gets no entry in
    best.json; one whose candidates are all infeasible or failed raises.
    """
    out = _resolve_out_dir(cfg, out_dir)
    train_t, val_t, _ = prepared_segments(dataclasses.replace(cfg, train_portion=1.0))

    trained = [m for m in cfg.models if m != "Persistence"]
    if not trained:
        raise ConfigError("tuning needs at least one trainable model")
    # a portion that leaves too few rows fails here, before any candidate trains
    tails = {p: tail_portion(train_t, p) for p in cfg.tuning_train_portions or (0.5, 1.0)}

    rows: list[TuneRecord] = []
    best: dict[str, dict] = {}
    for horizon in cfg.horizons:
        lens = cfg.tuning_input_lens or tuple(sorted({horizon, 2 * horizon, 336, 720}))
        for model in trained:
            cell = Cell(cfg.source.name, model, horizon, cfg.seed)
            candidates: list[TuneRecord] = []
            skipped = False
            for input_len in lens:
                for portion, tail in tails.items():
                    row = TuneRecord(cell.dataset, model, horizon, input_len, portion)
                    rows.append(row)
                    if input_len < horizon:
                        # keeps every candidate comparable to the copy-forward
                        # baseline, which needs input_len >= horizon
                        row.status = "infeasible"
                        row.reason = f"input_len {input_len} < horizon {horizon}"
                        continue
                    span = input_len + horizon
                    if tail.length < span or val_t.length < span:
                        row.status = "infeasible"
                        row.reason = (
                            f"needs {span} rows, train tail has {tail.length}, "
                            f"val has {val_t.length}"
                        )
                        continue

                    def keep(_, report):
                        row.val_mae, row.best_epoch = report.best_val_mae, report.best_epoch

                    row.status, row.reason = _attempt(
                        cfg, cell, input_len, tail, val_t,
                        out / "logs" / f"tune_{cell.stem}_{input_len}_{portion}.csv", keep,
                    )
                    skipped |= row.status == "skipped"
                    if row.status == "ok":
                        candidates.append(row)
            if not candidates:
                if skipped:
                    continue
                raise TuningError(f"no feasible tuning candidate for {model} at horizon {horizon}")
            pick = min(candidates, key=lambda r: (r.val_mae, r.input_len, -r.train_portion))
            best[f"{model}@{horizon}"] = {
                k: getattr(pick, k) for k in ("input_len", "train_portion", "val_mae", "best_epoch")
            }

    table_path = write_csv(out / "tuning.csv", TuneRecord, rows)
    best_path = out / "best.json"
    best_path.write_text(json.dumps(best, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return TuneOutcome(rows=rows, best=best, out_dir=out, table_path=table_path, best_path=best_path)
