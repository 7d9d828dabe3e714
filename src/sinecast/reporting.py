"""Results serialization and report rendering.

The results CSV is the artifact downstream tooling diffs, so it is written
byte-deterministically: floats via repr (round-trips exactly), no
timestamps, stable row order as produced by the run. The markdown report is
derived from the same rows and is deterministic too; wall-clock details live
in the run manifest instead.
"""

from __future__ import annotations

import csv
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping

from .errors import DataError
from .evaluation import mean_improvements
from .models import VARIANTS
from .reference import canonical_dataset_key, literature_models, reported_mae

__all__ = [
    "RESULT_FIELDS",
    "status_counts",
    "write_results_csv",
    "read_results_csv",
    "render_report",
    "write_report",
]

RESULT_FIELDS = (
    "dataset",
    "model",
    "horizon",
    "input_len",
    "train_portion",
    "seed",
    "status",
    "reason",
    "mae",
    "n_windows",
    "best_epoch",
    "improvement_vs_persistence",
)

_INT_FIELDS = {"horizon", "input_len", "seed", "n_windows", "best_epoch"}
_FLOAT_FIELDS = {"train_portion", "mae", "improvement_vs_persistence"}


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path, fields: tuple[str, ...], rows: Iterable[Mapping]) -> Path:
    p = Path(path)
    with open(p, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for row in rows:
            writer.writerow([_format_cell(row.get(field)) for field in fields])
    return p


def write_results_csv(path, rows: Iterable[Mapping]) -> Path:
    return _write_csv(path, RESULT_FIELDS, rows)


def status_counts(statuses: Iterable[str]) -> dict[str, int]:
    """How many runs are ok, skipped and failed; any other status gets its own count."""
    counts = dict.fromkeys(("ok", "skipped", "error"), 0)
    counts.update(Counter(statuses))
    return counts


def _coerce(field: str, text: str):
    if field in _INT_FIELDS:
        return int(text) if text else None
    if field in _FLOAT_FIELDS:
        return float(text) if text else None
    return text


def read_results_csv(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty results file") from None
        if tuple(header) != RESULT_FIELDS:
            raise DataError(f"{path}: unexpected header {header}")
        rows = []
        for line_no, record in enumerate(reader, start=2):
            if len(record) != len(RESULT_FIELDS):
                raise DataError(f"{path}: line {line_no} has {len(record)} fields")
            row = {}
            for f, v in zip(RESULT_FIELDS, record):
                try:
                    row[f] = _coerce(f, v)
                except ValueError:
                    raise DataError(f"{path}: line {line_no}, field {f!r}: cannot parse {v!r}") from None
            rows.append(row)
    return rows


def _variant_rank(name: str) -> int:
    return VARIANTS.index(name) if name in VARIANTS else len(VARIANTS)


def _model_order(names: Iterable[str]) -> list[str]:
    present = set(names)
    ordered = [m for m in VARIANTS if m in present]
    ordered.extend(sorted(present - set(VARIANTS)))
    return ordered


def _fmt_mae(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def render_report(rows: list[Mapping], title: str = "Forecast benchmark", config_hash: str | None = None) -> str:
    """Markdown summary of one run: MAE grid, improvements, skips and errors.

    In the MAE grid the best value per row is bold and trained models that
    beat the copy-forward baseline are marked with a check. Columns for
    reported literature numbers are appended where the dataset and horizon
    match a published benchmark cell; those values come from the shipped
    tables, not from this library.
    """
    lines = [f"# {title}", ""]
    if config_hash:
        lines += [f"Config hash: `{config_hash}`", ""]

    ok = [r for r in rows if r["status"] == "ok"]
    models = _model_order(r["model"] for r in ok)
    group_keys = sorted({(r["dataset"], r["horizon"]) for r in rows})
    cells = {(r["dataset"], r["horizon"], r["model"]): r for r in ok}

    lit_models = [
        m
        for m in literature_models()
        if any(
            canonical_dataset_key(d) and reported_mae(d, h, m) is not None
            for d, h in group_keys
        )
    ]

    lines += ["## Test MAE", ""]
    header = ["dataset", "horizon"] + models + [f"{m} (reported)" for m in lit_models]
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for dataset, horizon in group_keys:
        row_cells = [cells.get((dataset, horizon, m)) for m in models]
        maes = [c["mae"] for c in row_cells if c is not None and c["mae"] is not None]
        best = min(maes) if maes else None
        base = cells.get((dataset, horizon, "Persistence"))
        base_mae = base["mae"] if base else None
        rendered = []
        for c in row_cells:
            if c is None or c["mae"] is None:
                rendered.append("n/a")
                continue
            text = _fmt_mae(c["mae"])
            if best is not None and c["mae"] == best:
                text = f"**{text}**"
            if c["model"] != "Persistence" and base_mae is not None:
                if c["mae"] < base_mae:
                    text += " ✓"
                elif c["mae"] > base_mae:
                    text += " ✗"
            rendered.append(text)
        for m in lit_models:
            rendered.append(_fmt_mae(reported_mae(dataset, horizon, m)))
        lines.append("| " + " | ".join([dataset, str(horizon)] + rendered) + " |")
    lines += [
        "",
        "Bold marks the best value in its row; ✓ marks a trained model that",
        "beats the copy-forward baseline and ✗ one that trails it. Reported",
        "columns repeat published benchmark numbers for context and were not",
        "produced by this run.",
        "",
    ]

    improvements = mean_improvements(rows)
    if improvements:
        lines += ["## Mean improvement over the baseline", ""]
        lines.append("| model | horizon | mean improvement | datasets |")
        lines.append("|---|---|---|---|")
        ordered = sorted(
            improvements.items(),
            key=lambda kv: (_variant_rank(kv[0][0]), kv[0][0], kv[0][1]),
        )
        for (model, horizon), (mean, n) in ordered:
            lines.append(f"| {model} | {horizon} | {100.0 * mean:.1f}% | {n} |")
        lines.append("")

    not_ok = [r for r in rows if r["status"] != "ok"]
    if not_ok:
        lines += ["## Skipped and failed runs", ""]
        for r in sorted(not_ok, key=lambda r: (r["dataset"], r["horizon"], r["model"])):
            lines.append(
                f"- {r['dataset']} / {r['model']} @ {r['horizon']}: {r['status']} ({r['reason']})"
            )
        lines.append("")

    counts = status_counts(r["status"] for r in rows)
    lines.append(f"Runs: {counts['ok']} ok, {counts['skipped']} skipped, {counts['error']} failed.")
    lines.append("")
    return "\n".join(lines)


def write_report(path, rows: list[Mapping], title: str = "Forecast benchmark", config_hash: str | None = None) -> Path:
    p = Path(path)
    p.write_text(render_report(rows, title=title, config_hash=config_hash), encoding="utf-8")
    return p
