"""The output gate: every operation a workload attempts, and whether it was right.

An operation is one grid cell (or one scored model) in one repetition, or
one output check. ``failed_ratio`` is failures over attempts.

Checks:
- every cell has status ``ok``, with a finite MAE, and every expected cell is there;
- repetitions of the same work give identical results (``results.csv`` bytes,
  or scored MAEs);
- each Persistence MAE equals, exactly, a recomputation in plain numpy on the
  same windows, in the same batches;
- each ``infer`` MAE equals the MAE of the same seeded model before its
  checkpoint round-trip;
- shallow-train wrote a checkpoint for every trained cell;
- for the default seed at full size, every MAE matches ``reference.json``
  within its stated relative tolerance.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import REFERENCE, cell_label, model_config


class Gate:
    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)


def persistence_mae(cfg, horizon: int) -> float:
    """Copy-forward MAE on the test windows, recomputed without the package's
    data, model or evaluation code: split, standardize, window, and sum the
    absolute errors batch by batch exactly as the harness does."""
    from sinecast import synthetic

    spec = dict(cfg.source.synthetic)
    maker = {"multi_sine_trend": synthetic.multi_sine_with_trend, "tidal": synthetic.tidal_series}[spec.pop("kind")]
    series = np.asarray(maker(**spec), dtype=np.float64).reshape(-1, 1)
    t = series.shape[0]
    b1 = int(np.floor(t * cfg.split.train_frac))
    b2 = int(np.floor(t * (cfg.split.train_frac + cfg.split.val_frac)))
    test = series[b2:]
    if cfg.standardize:
        train = series[:b1]
        test = (test - train.mean(axis=0)) / train.std(axis=0)
    n = (test.shape[0] - 2 * horizon) // cfg.eval_stride + 1
    starts = np.arange(n) * cfg.eval_stride
    offsets = np.arange(horizon)
    total = 0.0
    for lo in range(0, n, cfg.eval_batch_size):
        s = starts[lo:lo + cfg.eval_batch_size, None]
        total += float(np.abs(test[s + offsets] - test[s + horizon + offsets]).sum())
    return total / (n * horizon)


def reference_maes(workload: str, size: str, seed: int) -> tuple[dict, float] | None:
    """The recorded MAEs and tolerance, when this run is the one they were recorded for."""
    ref = json.loads(REFERENCE.read_text(encoding="utf-8"))
    if size != ref["size"] or seed != ref["seed"]:
        return None
    return ref["mae"][workload], ref["rtol"]


def unit_maes(unit) -> dict[str, float]:
    """MAE of every cell of one repetition, by cell label."""
    if isinstance(unit, dict):
        return unit
    return {cell_label(rec.model, rec.horizon): rec.mae for rec in unit.records}


def _check_reference(gate: Gate, maes: dict, reference) -> None:
    if reference is None:
        return
    table, rtol = reference
    for label, want in table.items():
        got = maes.get(label)
        gate.check(got is not None and abs(got - want) <= rtol * abs(want),
                   f"{label}: MAE {got!r} differs from reference {want!r} (rtol {rtol})")


def check_grid(wl, units, reference) -> Gate:
    gate = Gate()
    expected = [(cfg.name, m, h) for cfg in wl.configs for h in cfg.horizons
                for m in ["Persistence"] + list(cfg.models)]
    for i, unit in enumerate(units):
        gate.check(len(unit.records) == len(expected), f"repetition {i}: {len(unit.records)} cells, expected {len(expected)}")
        for rec in unit.records:
            gate.check(rec.status == "ok" and rec.mae is not None and math.isfinite(rec.mae),
                       f"repetition {i}: {rec.model}@{rec.horizon} status={rec.status} mae={rec.mae} {rec.reason}")
    gate.check(all(u.results_csv == units[0].results_csv for u in units),
               "results.csv differs between repetitions of the same grid")

    records = iter(units[0].records)
    for cfg_name, variant, horizon in expected:
        rec = next(records, None)
        if rec is None or (rec.model, rec.horizon) != (variant, horizon):
            gate.check(False, f"{cfg_name}: expected {variant}@{horizon}, found {rec and (rec.model, rec.horizon)}")
            continue
        if variant == "Persistence":
            cfg = next(c for c in wl.configs if c.name == cfg_name)
            want = persistence_mae(cfg, horizon)
            gate.check(rec.mae == want, f"{cfg_name}: Persistence@{horizon} MAE {rec.mae!r} != numpy {want!r}")
    for cfg in wl.configs:
        if cfg.save_checkpoints:
            paths = [wl.out / cfg.name / "checkpoints" / f"{cfg.source.name}_{m}_{h}.json"
                     for h in cfg.horizons for m in cfg.models]
            gate.check(all(p.is_file() and p.stat().st_size > 0 for p in paths),
                       f"{cfg.name}: a checkpoint is missing")
    _check_reference(gate, unit_maes(units[0]), reference)
    return gate


def check_scoring(wl, units, reference) -> Gate:
    from sinecast import models

    gate = Gate()
    for i, maes in enumerate(units):
        for v, h in wl.cells:
            got = maes.get(cell_label(v, h))
            gate.check(got is not None and math.isfinite(got), f"repetition {i}: {v}@{h} MAE {got!r}")
    gate.check(all(u == units[0] for u in units), "scored MAEs differ between repetitions")
    maes = units[0]
    for v, h in wl.cells:
        label = cell_label(v, h)
        before = wl.score(models.Forecaster(model_config(wl.cfg, v, h)), h)
        gate.check(maes.get(label) == before,
                   f"{label}: MAE after checkpoint round-trip {maes.get(label)!r} != before {before!r}")
        if v == "Persistence":
            want = persistence_mae(wl.cfg, h)
            gate.check(maes.get(label) == want, f"{label}: MAE {maes.get(label)!r} != numpy {want!r}")
    _check_reference(gate, maes, reference)
    return gate
