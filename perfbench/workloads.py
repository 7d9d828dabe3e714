"""The three benchmark workloads, each one closed loop with a single client.

Every input comes from the package's own synthetic generators, seeded by the
workload seed, which is also the config ``seed``. A workload has a set-up
(``infer``: the checkpoints its loop reads, written several times so the
median can be reported), a unit of timed work that the loop repeats, and the
outputs the gate in ``checks.py`` inspects. A training unit does its own
set-up: ``run_experiment`` builds segments, windows and models before the
first optimizer step, and that stretch of every unit is its set-up time.

- ``attn-train``: two grids through ``experiment.run_experiment``. Sencoder
  at the short and the long horizon, Sinformer at the short one only; a
  single grid would also train Sinformer at the long horizon.
- ``shallow-train``: one grid of the five non-attention models at L=720,
  saving checkpoints as the demo config does.
- ``infer``: set-up saves seeded, untrained models as checkpoints; the unit
  loads each one and scores it with ``evaluation.evaluate``.

Within a training workload every trained cell runs the same number of steps
(one shared train segment per horizon, a stride chosen so the two horizons
of ``attn-train`` get nearly the same window count), and the number of
trained cells is odd (3 and 5). The median over cells of each cell's median
step is then one cell's median, and the pooled p90 falls inside the slowest
cell's own distribution, rather than on the gap between two cells whose
step times differ several-fold.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

ATTENTION = ("Sencoder", "Sinformer")
SHALLOW = ("Linear", "NLinear", "DLinear", "SLP", "MLP")
ALL_VARIANTS = ("Persistence",) + SHALLOW + ATTENTION
SPLIT = (0.4, 0.2, 0.4)

# n: series length; short/long: horizons (input length = horizon);
# stride: stride of train and evaluation windows.
SIZES = {
    "full": {
        "attn-train": {"n": 30000, "short": 96, "long": 192, "stride": 96, "batch": 32},
        "shallow-train": {"n": 8600, "long": 720, "stride": 8, "batch": 64},
        "infer": {"n": 10000, "short": 96, "long": 720, "stride": 4},
    },
    "smoke": {
        "attn-train": {"n": 600, "short": 8, "long": 16, "stride": 4, "batch": 8},
        "shallow-train": {"n": 400, "long": 24, "stride": 2, "batch": 8},
        "infer": {"n": 400, "short": 8, "long": 24, "stride": 1},
    },
}

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def cell_label(variant: str, horizon: int) -> str:
    """Metric-name form of a (variant, horizon) cell, e.g. ``Sencoder-96``."""
    return f"{variant}-{horizon}"


def trained_cells(workload: str, size: str) -> list[tuple[str, int]]:
    """(variant, horizon) of every trained cell of a training workload, in grid order."""
    s = SIZES[size][workload]
    if workload == "attn-train":
        return [("Sencoder", s["short"]), ("Sencoder", s["long"]), ("Sinformer", s["short"])]
    if workload == "shallow-train":
        return [(v, s["long"]) for v in SHALLOW]
    return []


def scored_cells(size: str) -> list[tuple[str, int]]:
    """(variant, horizon) of every model the infer workload scores."""
    s = SIZES[size]["infer"]
    return [(v, s["short"]) for v in ALL_VARIANTS] + [(v, s["long"]) for v in SHALLOW]


def model_config(cfg, variant: str, horizon: int):
    """The ModelConfig the run harness builds for one cell of `cfg`."""
    from sinecast.models import ModelConfig

    return ModelConfig(
        variant=variant,
        input_len=horizon if variant == "Persistence" else (cfg.input_len or horizon),
        horizon=horizon,
        channels=1,
        d_model=cfg.d_model,
        n_heads=cfg.n_heads,
        ffn_dim=cfg.ffn_dim,
        ma_kernel=cfg.ma_kernel,
        seed=cfg.seed,
    )


def eval_batch(cfg, variant: str) -> int:
    """The harness caps the evaluation batch of attention models at the train batch."""
    return min(cfg.eval_batch_size, cfg.batch_size) if variant in ATTENTION else cfg.eval_batch_size


def _config(name: str, kind: str, s: dict, seed: int, horizons, models, **extra):
    from sinecast.experiment import DatasetSource, ExperimentConfig

    source = DatasetSource(name=kind.replace("_", "-"), synthetic={"kind": kind, "n": s["n"], "seed": seed})
    return ExperimentConfig(
        name=name, source=source, split=SPLIT, horizons=tuple(horizons), models=tuple(models),
        epochs=2, stride=s["stride"], eval_stride=s["stride"], seed=seed, **extra,
    )


@dataclass
class GridUnit:
    records: list  # experiment.RunRecord of every cell, all configs in order
    results_csv: list[bytes]  # one per config
    cell_seconds: dict[str, float]  # trained cell label -> seconds, from the run manifest


@dataclass
class GridWorkload:
    """Training grids run through experiment.run_experiment, one config after another."""

    name: str
    configs: list
    out: Path
    step: str = "train"
    n_parameters: int = 0
    setup_repeats: int = 1

    def setup(self) -> None:
        """Only the parameter count: run_experiment builds segments, windows and
        models itself, and that set-up is timed inside each unit."""
        from sinecast import models

        self.n_parameters = sum(
            models.Forecaster(model_config(cfg, variant, horizon)).n_parameters()
            for cfg in self.configs for variant in cfg.models for horizon in cfg.horizons)

    def run_unit(self) -> GridUnit:
        from sinecast import experiment

        records, csvs, seconds = [], [], {}
        for cfg in self.configs:
            outcome = experiment.run_experiment(cfg, out_dir=self.out / cfg.name)
            records.extend(outcome.records)
            csvs.append(outcome.results_path.read_bytes())
            manifest = json.loads(outcome.manifest_path.read_text(encoding="utf-8"))
            for key, secs in manifest["run_seconds"].items():
                _, variant, horizon = key.rsplit("/", 2)
                if variant != "Persistence":
                    seconds[cell_label(variant, int(horizon))] = secs
        return GridUnit(records, csvs, seconds)

    def checkpoint_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out.glob("*/checkpoints/*.json"))


@dataclass
class ScoringWorkload:
    """Forward-only scoring of checkpoints through models.load_checkpoint and evaluation.evaluate."""

    name: str
    cfg: object
    cells: list
    out: Path
    step: str = "eval"
    n_parameters: int = 0
    setup_repeats: int = 3
    windows: dict = field(default_factory=dict)

    def path(self, variant: str, horizon: int) -> Path:
        return self.out / "checkpoints" / f"{variant}_{horizon}.json"

    def setup(self) -> None:
        """Segments, test windows, and one seeded checkpoint per scored model."""
        from sinecast import data, experiment, models

        cfg = self.cfg
        _, _, test_t = experiment.prepared_segments(cfg)
        self.windows = {h: data.make_windows(test_t, h, h, cfg.eval_stride) for h in cfg.horizons}
        (self.out / "checkpoints").mkdir(parents=True, exist_ok=True)
        n_params = 0
        for variant, horizon in self.cells:
            model = models.Forecaster(model_config(cfg, variant, horizon))
            models.save_checkpoint(model, self.path(variant, horizon))
            n_params += model.n_parameters()
        self.n_parameters = n_params

    def score(self, model, horizon: int) -> float:
        from sinecast import evaluation

        return evaluation.evaluate(
            model, self.windows[horizon], dataset_name=self.cfg.source.name,
            batch_size=eval_batch(self.cfg, model.config.variant),
        ).mae

    def run_unit(self) -> dict[str, float]:
        """MAE of every loaded checkpoint, by cell label."""
        from sinecast import models

        return {
            cell_label(v, h): self.score(models.load_checkpoint(self.path(v, h)), h)
            for v, h in self.cells
        }

    def checkpoint_bytes(self) -> int:
        return sum(self.path(v, h).stat().st_size for v, h in self.cells)


def make(workload: str, size: str, seed: int, out: Path):
    """Build one workload; `out` is emptied first and receives every artifact."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    s = SIZES[size][workload]
    if workload == "attn-train":
        common = {"batch_size": s["batch"]}
        configs = [
            _config("sencoder", "multi_sine_trend", s, seed, (s["short"], s["long"]), ["Sencoder"], **common),
            _config("sinformer", "multi_sine_trend", s, seed, (s["short"],), ["Sinformer"], **common),
        ]
        return GridWorkload(workload, configs, out)
    if workload == "shallow-train":
        cfg = _config("shallow", "tidal", s, seed, (s["long"],), SHALLOW,
                      batch_size=s["batch"], save_checkpoints=True)
        return GridWorkload(workload, [cfg], out)
    if workload == "infer":
        cfg = _config("infer", "multi_sine_trend", s, seed, (s["short"], s["long"]), ALL_VARIANTS)
        return ScoringWorkload(workload, cfg, scored_cells(size), out)
    raise ValueError(f"unknown workload {workload!r}")
