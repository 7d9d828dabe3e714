"""Command-line entry points.

    sinecast run CONFIG      train/score the grid, write results + report
    sinecast tune CONFIG     grid-search input length and train portion
    sinecast report CSV      re-render a markdown report from a results file
    sinecast plot CONFIG     draw one forecast window as an SVG

Exit codes: 0 on success (skipped cells are still success), 1 when any grid
cell failed, 2 for config or usage problems. The output directory is chosen
from --out, then the SINECAST_OUT environment variable, then the config's
out_dir, then ./runs/<experiment name>.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .data import make_windows
from .errors import SinecastError
from .experiment import (
    Cell,
    ExperimentConfig,
    config_hash,
    load_config,
    prepared_segments,
    run_experiment,
    tune,
)
from .models import Forecaster, load_checkpoint
from .plotting import emit_forecast_plot
from .reporting import read_results_csv, write_report

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sinecast",
        description="Train and benchmark zero-dependency time-series forecasters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full model/horizon grid from a config file")
    run_p.add_argument("--config", required=True, help="experiment config JSON")
    run_p.add_argument("--seed", type=int, help="override the config's seed")
    run_p.add_argument("--out", help="output directory (overrides SINECAST_OUT and the config)")
    run_p.add_argument("--workers", type=int, help="parallel grid cells (threads)")

    tune_p = sub.add_parser("tune", help="grid-search input length and train portion")
    tune_p.add_argument("--config", required=True, help="experiment config JSON")
    tune_p.add_argument("--out", help="output directory")

    report_p = sub.add_parser("report", help="render a markdown report from a results.csv")
    report_p.add_argument("--results", required=True, help="path to a results.csv written by 'run'")
    report_p.add_argument("--out", help="output markdown path (default: report.md next to the csv)")
    report_p.add_argument("--title", default="Forecast benchmark", help="report heading")

    plot_p = sub.add_parser("plot", help="plot one forecast window as SVG")
    plot_p.add_argument("--config", required=True, help="experiment config JSON (defines data and preprocessing)")
    plot_p.add_argument("--checkpoint", help="model checkpoint written by 'run' (checkpoints/<stem>.json)")
    plot_p.add_argument("--model", help="model name; without --checkpoint only Persistence works")
    plot_p.add_argument("--horizon", type=int, help="forecast horizon (required without --checkpoint)")
    plot_p.add_argument("--window-index", type=int, default=0, help="test window to draw")
    plot_p.add_argument("--channel", type=int, default=0, help="channel to draw")
    plot_p.add_argument("--out", help="output SVG path")
    return parser


def _resolve_out(cli_out: str | None, cfg: ExperimentConfig) -> Path:
    for candidate in (cli_out, os.environ.get("SINECAST_OUT"), cfg.out_dir):
        if candidate:
            return Path(candidate)
    return Path("runs") / cfg.name


def _cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.workers is not None:
        cfg = dataclasses.replace(cfg, workers=args.workers)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = _resolve_out(args.out, cfg)
    print(f"{cfg.name}: config hash {config_hash(cfg)[:12]}, writing to {out}")
    outcome = run_experiment(cfg, out_dir=out)
    for r in outcome.records:
        if r.status == "ok":
            extra = ""
            if r.improvement_vs_persistence is not None:
                extra = f" (improvement {100 * r.improvement_vs_persistence:+.1f}%)"
            print(f"[ok]      {r.dataset} {r.model} @{r.horizon} mae={r.mae:.4f}{extra}")
        else:
            print(f"[{r.status}] {r.dataset} {r.model} @{r.horizon}: {r.reason}")
    print(f"wrote {outcome.results_path}")
    print(f"wrote {outcome.report_path}")
    print(f"wrote {outcome.manifest_path}")
    return 1 if outcome.n_errors else 0


def _cmd_tune(args) -> int:
    cfg = load_config(args.config)
    out = _resolve_out(args.out, cfg)
    outcome = tune(cfg, out_dir=out)
    for key in sorted(outcome.best):
        choice = outcome.best[key]
        print(
            f"{key}: input_len={choice['input_len']} "
            f"train_portion={choice['train_portion']} val_mae={choice['val_mae']:.4f}"
        )
    print(f"wrote {outcome.table_path}")
    print(f"wrote {outcome.best_path}")
    return 1 if any(r["status"] == "error" for r in outcome.rows) else 0


def _cmd_report(args) -> int:
    rows = read_results_csv(args.results)
    out = Path(args.out) if args.out else Path(args.results).parent / "report.md"
    write_report(out, rows, title=args.title)
    print(f"wrote {out}")
    return 0


def _cmd_plot(args) -> int:
    cfg = load_config(args.config)
    train_t, val_t, test_t = prepared_segments(cfg)
    if args.checkpoint:
        model = load_checkpoint(args.checkpoint)
        if args.model and args.model != model.config.variant:
            raise SinecastError(
                f"checkpoint holds {model.config.variant}, not {args.model}"
            )
    elif args.model == "Persistence":
        if args.horizon is None:
            raise SinecastError("plot needs --horizon when no checkpoint is given")
        model = Forecaster(cfg.model_config("Persistence", args.horizon, args.horizon, test_t.n_channels))
    else:
        raise SinecastError(
            "plot needs --checkpoint for trained models; only --model Persistence works without one"
        )
    test_ds = make_windows(test_t, model.config.input_len, model.config.horizon, cfg.eval_stride)
    if args.out:
        out = Path(args.out)
    else:
        out = _resolve_out(None, cfg) / "plots"
        out.mkdir(parents=True, exist_ok=True)
        cell = Cell(cfg.source.name, model.config.variant, model.config.horizon, model.config.seed)
        out = out / f"{cell.stem}_w{args.window_index}.svg"
    emit_forecast_plot(
        model,
        test_ds,
        args.window_index,
        out,
        dataset_name=cfg.source.name,
        channel=args.channel,
    )
    print(f"wrote {out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handler = {
        "run": _cmd_run,
        "tune": _cmd_tune,
        "report": _cmd_report,
        "plot": _cmd_plot,
    }[args.command]
    try:
        return handler(args)
    except SinecastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
