"""Metric catalog and the arithmetic that turns timestamps and spans into metrics.

End-to-end metrics come from the untraced run; per-layer metrics from the
traced run. Every metric is present on every workload; a per-layer metric of
a layer or cell that a workload does not use reads 0 there.

Per-layer seconds are inclusive span times per repetition: the mean over the
traced units plus, on ``infer``, the mean over its set-ups, so that the
checkpoint writing done there is seen too. Training workloads have no
separate set-up; theirs runs inside each unit.
"""

from __future__ import annotations

import bisect
import statistics

from workloads import cell_label, trained_cells

# name, unit, better, bound (largest tolerated worsening, as a share of the parent's median).
# Timing bounds are wide because the host itself drifts by up to a quarter over
# tens of seconds (see README). Peak RSS moved by up to 8% between runs.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("windows_per_s", "windows/s", "higher", 0.25),
    ("step_ms.p50", "ms", "lower", 0.25),
    ("step_ms.p90", "ms", "lower", 0.25),
    ("eval_windows_per_s", "windows/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
]

# peak_rss_mb is read once this many units are done: after a fixed amount of
# work, so a faster host that fits more units into a run does not raise it.
# On attn-train it varies from process to process for the same seed
# (anonymous memory; file-backed pages stayed at 19 MB). Three sets of ten
# runs had medians of 479, 500 and 518 MB after one unit, and of 491, 506 and
# 518 MB after three.
RSS_AFTER_UNITS = 3

_TIMED_CALLS = ("matmul", "softmax_rows", "layer_norm_rows")


def _cells(size: str) -> list[str]:
    return [cell_label(v, h) for w in ("attn-train", "shallow-train") for v, h in trained_cells(w, size)]


def per_layer_catalog(size: str) -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, for the cells of this size."""
    cells = _cells(size)
    attn = [cell_label(v, h) for v, h in trained_cells("attn-train", size)]
    out = [("autodiff.backward_s", "s"), ("autodiff.backward_ms.p50", "ms")]
    for op in _TIMED_CALLS:
        out += [(f"autodiff.{op}_s", "s"), (f"autodiff.{op}.calls", "count")]
    out += [(f"autodiff.nodes_per_step.{c}", "count") for c in cells]
    out += [(f"autodiff.tape_mb_per_step.{c}", "MB") for c in cells]
    out += [(f"models.{m}_s", "s") for m in (
        "forward_train", "forward_eval", "attention", "encoder_block", "decoder_block",
        "addt2v_forward", "save_checkpoint", "load_checkpoint")]
    out += [("models.checkpoint_mb", "MB"), ("models.parameters", "count")]
    out += [("training.step_s", "s"), ("training.adam_step_s", "s"), ("training.adam_step_ms.p50", "ms")]
    out += [(f"training.step_peak_mb.{c}", "MB") for c in cells]
    out += [("data.gather_s", "s"), ("data.windows_gathered", "count")]
    out += [("evaluation.evaluate_s", "s"), ("evaluation.evaluate_val_s", "s"),
            ("evaluation.evaluate_test_s", "s"), ("evaluation.windows", "count")]
    out += [("experiment.prepared_segments_s", "s")]
    out += [(f"experiment.cell_s.{c}", "s") for c in cells]
    out += [(f"experiment.guard_ratio.{c}", "ratio") for c in attn]
    out += [("reporting.write_s", "s"), ("synthetic.generate_s", "s"), ("trace.overhead_s", "s")]
    return out


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def steps(clock, kind: str) -> tuple[list[float], int]:
    """Durations in seconds of the workload's steps, and the windows they carried."""
    rows = clock.train_steps if kind == "train" else clock.eval_batches
    return [t1 - t0 for _, t0, t1, _ in rows], sum(n for _, _, _, n in rows)


def setup_seconds(import_times: list[float], setup_times: list[float], clock, kind: str) -> float:
    """Median import time plus the median set-up: of the workload's set-up
    runs on ``infer``; of each training unit's stretch from its start to its
    first optimizer step (segments, Persistence cells, windows, model) otherwise."""
    if kind == "train":
        setup_times = [next(t for _, t, _, _ in clock.train_steps if t >= start) - start
                       for start in clock.unit_starts]
    return statistics.median(import_times) + statistics.median(setup_times)


def end_to_end(import_times: list[float], setup_times: list[float], walls: list[float], clock, kind: str) -> dict:
    durations, windows = steps(clock, kind)
    eval_time = sum(t1 - t0 for t0, t1, _ in clock.eval_calls)
    return {
        "setup_s": setup_seconds(import_times, setup_times, clock, kind),
        # means over units: see step_p50_by_cell
        "wall_s": statistics.mean(walls),
        "windows_per_s": windows / sum(durations),
        "step_ms.p50": statistics.median(step_p50_by_cell(clock, kind).values()),
        "step_ms.p90": 1000 * p90(durations),
        "eval_windows_per_s": sum(n for _, _, n in clock.eval_calls) / eval_time,
        "peak_rss_mb": clock.unit_rss_mb[min(RSS_AFTER_UNITS, len(clock.unit_rss_mb)) - 1],
    }


def step_p50_by_cell(clock, kind: str) -> dict[str, float]:
    """Each cell's median step in milliseconds, taken within each unit and
    averaged over the units.

    The median over cells of these is ``step_ms.p50``. A pooled median would
    fall wherever the cells' counts put it: on ``infer`` the cells carry 3 to
    30 batches, and the pooled median sat on the Sencoder batches, whose time
    alone moved between 20 and 39 ms from one set of runs to the next.

    A cell's steps within one unit come from a fraction of a second, and the
    host switches between a fast and a slow state that lasts seconds. A median
    over all units lands wholly in one state and flips with the majority of a
    handful of units; the mean of the per-unit medians moves with the share of
    units that ran slow, so it spreads less from run to run.
    """
    by_cell: dict[str, dict[int, list[float]]] = {}
    for cell, t0, t1, _ in clock.train_steps if kind == "train" else clock.eval_batches:
        unit = bisect.bisect_right(clock.unit_starts, t0)
        by_cell.setdefault(cell, {}).setdefault(unit, []).append(t1 - t0)
    return {c: statistics.mean(_median_ms(d) for d in units.values()) for c, units in by_cell.items()}


def step_shares(values: dict) -> dict[str, float]:
    """Share of traced optimizer-step time in forward, backward, Adam, and the rest
    (batch gather, loss and penalty ops, freeing the previous step's graph)."""
    step = values["training.step_s"]
    if step == 0:
        return {}
    shares = {part: values[name] / step for part, name in (
        ("forward", "models.forward_train_s"), ("backward", "autodiff.backward_s"),
        ("adam_step", "training.adam_step_s"))}
    shares["other"] = 1.0 - sum(shares.values())
    return shares


class SpanTable:
    """Per-repetition sums over the spans of the traced units and set-ups."""

    def __init__(self, spans: list[list], n_units: int, n_setups: int):
        self.spans = spans
        self.n_units = n_units
        self.n_setups = n_setups
        # parents are recorded before their children, so one pass finds ancestors
        self.in_eval, self.in_train = [], []
        for name, _, _, parent, _ in spans:
            up_eval = self.in_eval[parent] if parent >= 0 else False
            up_train = self.in_train[parent] if parent >= 0 else False
            self.in_eval.append(up_eval or name == "evaluation.evaluate")
            self.in_train.append(up_train or name == "training.train_model")

    def _weight(self, unit: str) -> float:
        return 1.0 / (self.n_units if unit.startswith("unit") else self.n_setups)

    def seconds(self, keep) -> float:
        return sum((t1 - t0) * self._weight(unit) for i, (name, t0, t1, parent, unit)
                   in enumerate(self.spans) if keep(i, name, parent))

    def calls(self, name: str) -> float:
        units = sum(1 for s in self.spans if s[0] == name and s[4].startswith("unit"))
        setups = sum(1 for s in self.spans if s[0] == name and not s[4].startswith("unit"))
        return units / self.n_units + setups / self.n_setups

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name and s[4].startswith("unit")]

    def named(self, name: str) -> float:
        return self.seconds(lambda i, n, p: n == name)

    def layer_top(self, layer: str) -> float:
        """Time in a layer's spans that are not nested inside another span of the same layer."""
        prefix = layer + "."
        return self.seconds(lambda i, n, p: n.startswith(prefix)
                            and (p < 0 or not self.spans[p][0].startswith(prefix)))


def _median_ms(values: list[float]) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def _guard_bytes(wl) -> dict[str, int]:
    """The memory guard's estimate for each attention cell of a training workload."""
    from sinecast.experiment import ATTENTION_MODELS, attention_memory_bytes

    return {cell_label(v, h): attention_memory_bytes(v, cfg.n_heads, cfg.batch_size, h)
            for cfg in getattr(wl, "configs", []) for v in cfg.models if v in ATTENTION_MODELS
            for h in cfg.horizons}


def _cell_seconds(units) -> dict[str, float]:
    """Mean seconds of each trained cell over the traced grid units, from their manifests."""
    out: dict[str, float] = {}
    for unit in units:
        for cell, secs in getattr(unit, "cell_seconds", {}).items():
            out[cell] = out.get(cell, 0.0) + secs / len(units)
    return out


def per_layer(size: str, table: SpanTable, clock, probe, wl, traced_units: list, overhead_s: float) -> dict:
    """Every metric of `per_layer_catalog(size)`, from the traced units, set-ups and step probe."""
    n = table.n_units
    guard_bytes = _guard_bytes(wl)
    cell_seconds = _cell_seconds(traced_units)
    forward = "models.Forecaster.forward"
    out = {
        "autodiff.backward_s": table.named("autodiff.backward"),
        "autodiff.backward_ms.p50": _median_ms(table.durations("autodiff.backward")),
    }
    for op in _TIMED_CALLS:
        out[f"autodiff.{op}_s"] = table.named(f"autodiff.{op}")
        out[f"autodiff.{op}.calls"] = table.calls(f"autodiff.{op}")
    for c in _cells(size):
        measured = probe.results.get(c, {})
        out[f"autodiff.nodes_per_step.{c}"] = measured.get("nodes", 0)
        out[f"autodiff.tape_mb_per_step.{c}"] = measured.get("tape_bytes", 0) / 2**20
    out["models.forward_train_s"] = table.seconds(lambda i, nm, p: nm == forward and not table.in_eval[i])
    out["models.forward_eval_s"] = table.seconds(lambda i, nm, p: nm == forward and table.in_eval[i])
    for m in ("attention", "encoder_block", "decoder_block", "addt2v_forward", "save_checkpoint", "load_checkpoint"):
        out[f"models.{m}_s"] = table.named(f"models.{m}")
    out["models.checkpoint_mb"] = wl.checkpoint_bytes() / 2**20
    out["models.parameters"] = wl.n_parameters
    train_s, train_windows = steps(clock, "train")
    out["training.step_s"] = sum(train_s) / n
    out["training.adam_step_s"] = table.named("training.adam_step")
    out["training.adam_step_ms.p50"] = _median_ms(table.durations("training.adam_step"))
    for c in _cells(size):
        out[f"training.step_peak_mb.{c}"] = probe.results.get(c, {}).get("peak_bytes", 0) / 2**20
    out["data.gather_s"] = table.named("data.WindowDataset.gather")
    out["data.windows_gathered"] = (train_windows + sum(w for _, _, w in clock.eval_calls)) / n
    out["evaluation.evaluate_s"] = table.named("evaluation.evaluate")
    out["evaluation.evaluate_val_s"] = table.seconds(
        lambda i, nm, p: nm == "evaluation.evaluate" and table.in_train[i])
    out["evaluation.evaluate_test_s"] = table.seconds(
        lambda i, nm, p: nm == "evaluation.evaluate" and not table.in_train[i])
    out["evaluation.windows"] = sum(w for _, _, w in clock.eval_calls) / n
    out["experiment.prepared_segments_s"] = table.named("experiment.prepared_segments")
    for c in _cells(size):
        out[f"experiment.cell_s.{c}"] = cell_seconds.get(c, 0.0)
    for v, h in trained_cells("attn-train", size):
        c = cell_label(v, h)
        peak = probe.results.get(c, {}).get("peak_bytes", 0)
        out[f"experiment.guard_ratio.{c}"] = peak / guard_bytes[c] if c in guard_bytes else 0.0
    out["reporting.write_s"] = table.layer_top("reporting")
    out["synthetic.generate_s"] = table.layer_top("synthetic")
    out["trace.overhead_s"] = overhead_s
    return out

