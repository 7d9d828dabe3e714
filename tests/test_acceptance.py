"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line with the measured numbers (run with
``pytest -s`` to see them as they happen; without ``-s`` they appear in the
captured output of any failing test). The daily-temperature reproduction
needs a user-provided CSV and is skipped with an explicit note when the file
is absent.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from sinecast.autodiff import Parameter, Tensor, grad_check
from sinecast.data import SplitSpec, make_windows, split
from sinecast.evaluation import evaluate, improvement
from sinecast.experiment import DatasetSource, ExperimentConfig, run_experiment
from sinecast.models import VARIANTS, Forecaster, ModelConfig
from sinecast.reporting import RunRecord, mean_improvements
from sinecast.synthetic import as_table, sine_series
from sinecast.training import (
    AdamState,
    LrSchedule,
    TrainConfig,
    adam_step,
    lr_at_epoch,
    train_model,
)

TEMPERATURE_CSV = Path(__file__).resolve().parents[1] / "data" / "milan_temperature.csv"


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_1_gradients_match_finite_differences():
    t0 = time.time()
    rng = np.random.default_rng(42)
    x = rng.normal(size=(2, 8, 2))
    y = rng.normal(size=(2, 4, 2))
    worst: dict[str, float] = {}
    for variant in VARIANTS:
        if variant == "Persistence":
            continue
        model = Forecaster(
            ModelConfig(variant, input_len=8, horizon=4, channels=2,
                        d_model=8, n_heads=2, ffn_dim=16, ma_kernel=3, seed=5)
        )

        def loss():
            err = model.forward(Tensor(x)) - Tensor(y)
            return (err * err).mean()

        worst[variant] = grad_check(loss, model.parameters(), h=1e-5,
                                    max_coords_per_param=12, seed=1)
    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = peak < 1e-4 and elapsed < 120.0
    assert _verdict(
        1, ok,
        f"worst relative gradient error {peak:.2e} over {len(worst)} trainable "
        f"variants (tolerance 1e-4) in {elapsed:.1f}s",
    ), worst


def test_criterion_2_persistence_is_exact_on_periodic_data():
    values = sine_series(4800, period=24.0, amplitude=1.0)
    _, _, test_t = split(as_table(values, name="sine"), SplitSpec(0.6, 0.2, 0.2))
    model = Forecaster(ModelConfig("Persistence", input_len=96, horizon=96, channels=1))
    res = evaluate(model, make_windows(test_t, 96, 96), dataset_name="sine")
    assert _verdict(
        2, res.mae < 1e-12,
        f"persistence MAE {res.mae:.3e} on a period-24 sine with I=L=96 "
        f"({res.n_windows} test windows)",
    )


def test_criterion_3_slp_learns_noisy_sine():
    t0 = time.time()
    values = sine_series(6000, period=24.0, amplitude=1.0, noise=0.1, seed=3)
    train_t, val_t, test_t = split(as_table(values, name="noisy-sine"), SplitSpec(0.6, 0.2, 0.2))
    model = Forecaster(ModelConfig("SLP", input_len=96, horizon=96, channels=1, seed=0))
    train_model(
        model,
        make_windows(train_t, 96, 96),
        make_windows(val_t, 96, 96),
        TrainConfig(schedule=LrSchedule(1e-3, 1e-6, 50), batch_size=32, seed=0),
    )
    res = evaluate(model, make_windows(test_t, 96, 96))
    elapsed = time.time() - t0
    floor = 0.1 * np.sqrt(2.0 / np.pi)
    ok = res.mae <= 0.15 and elapsed < 300.0
    assert _verdict(
        3, ok,
        f"SLP test MAE {res.mae:.4f} (bound 0.15, noise floor {floor:.4f}) "
        f"after the full 50-epoch schedule in {elapsed:.1f}s",
    )


def _timestamp_column(path: Path) -> str | None:
    """Name of the first non-numeric column, judged by the first data row."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        first = fh.readline().rstrip("\n").split(",")
    for name, cell in zip(header, first):
        try:
            float(cell)
        except ValueError:
            return name.strip()
    return None


def test_criterion_4_daily_temperature_reproduction(tmp_path):
    csv_path = Path(os.environ.get("SINECAST_MILAN_CSV", TEMPERATURE_CSV))
    if not csv_path.exists():
        print(
            f"[criterion 4] SKIP: daily temperature CSV not found at {csv_path}; "
            "place it there (or set SINECAST_MILAN_CSV) to run the reproduction"
        )
        pytest.skip(f"temperature dataset not present at {csv_path}")
    t0 = time.time()
    cfg = ExperimentConfig(
        name="milan-reproduction",
        source=DatasetSource(
            name="milan-temperature",
            path=str(csv_path),
            timestamp_column=_timestamp_column(csv_path),
        ),
        split=(0.66, 0.17, 0.17),
        horizons=(96,),
        models=("SLP", "MLP", "Linear", "NLinear", "DLinear", "Sencoder", "Sinformer"),
        epochs=50,
        batch_size=32,
        stride=2,
        seed=0,
    )
    out = run_experiment(cfg, out_dir=tmp_path / "milan")
    by_model = {r.model: r for r in out.records}
    base = by_model["Persistence"].mae
    slp = by_model["SLP"].mae
    trained = [r for r in out.records if r.model != "Persistence"]
    all_beat = all(
        r.status == "ok" and r.improvement_vs_persistence is not None
        and r.improvement_vs_persistence > 0
        for r in trained
    )
    elapsed = time.time() - t0
    ok = (
        abs(base - 1.337) <= 0.15 * 1.337
        and slp <= 0.45
        and all_beat
        and elapsed < 1800.0
    )
    assert _verdict(
        4, ok,
        f"persistence {base:.3f} (want 1.337 +/- 15%), SLP {slp:.3f} (bound 0.45), "
        f"all 7 trained models beat persistence: {all_beat}, {elapsed / 60:.1f} min",
    )


@pytest.mark.slow
def test_criterion_5_trained_models_beat_drifting_persistence(tmp_path):
    t0 = time.time()
    cfg = ExperimentConfig(
        name="ordering",
        source=DatasetSource(
            name="multi-sine-trend",
            synthetic={"kind": "multi_sine_trend", "n": 9000, "seed": 7},
        ),
        split=(0.6, 0.2, 0.2),
        horizons=(96, 336),
        models=("SLP", "Sencoder"),
        epochs=5,
        batch_size=32,
        stride=3,
        eval_stride=3,
        seed=0,
    )
    out = run_experiment(cfg, out_dir=tmp_path / "ordering")
    trained = {
        (r.model, r.horizon): r.improvement_vs_persistence
        for r in out.records
        if r.model != "Persistence"
    }
    elapsed = time.time() - t0
    expected_keys = {(m, h) for m in ("SLP", "Sencoder") for h in (96, 336)}
    ok = (
        set(trained) == expected_keys
        and all(v is not None and v > 0 for v in trained.values())
    )
    shown = ", ".join(f"{m}@{h}={v:+.2f}" for (m, h), v in sorted(trained.items()))
    assert _verdict(
        5, ok, f"improvement vs persistence {shown} in {elapsed:.0f}s"
    )


def test_criterion_6_optimizer_and_schedule_oracles():
    p = Parameter(np.array([0.0]), "p")
    state = AdamState([p])
    p.grad = np.array([1.0])
    adam_step(state, lr=1e-3)
    got = float(p.data[0])
    # with a unit gradient both bias-corrected moments are exactly 1, so the
    # step is -lr / (1 + eps); that differs from plain -lr by lr * 1e-8
    expected = -1e-3 / (1.0 + 1e-8)
    sched = LrSchedule(lr_start=1e-3, lr_end=1e-6, n_epochs=50)
    ok = (
        abs(got - expected) <= 1e-12
        and abs(got + 1e-3) < 1e-10
        and lr_at_epoch(sched, 0) == 1e-3
        and lr_at_epoch(sched, 49) == 1e-6
    )
    assert _verdict(
        6, ok,
        f"adam step {got:.15e} vs hand-computed {expected:.15e}; "
        f"lr(0)={lr_at_epoch(sched, 0)}, lr(49)={lr_at_epoch(sched, 49)}",
    )


def test_criterion_7_improvement_formula_and_aggregation():
    imp = improvement(0.480, 0.392)
    rows = [
        RunRecord(dataset=dataset, model="SLP", horizon=96, input_len=96, train_portion=1.0,
                  seed=0, status="ok", improvement_vs_persistence=improvement(base, model_mae))
        for dataset, base, model_mae in (("site-a", 0.5, 0.4), ("site-b", 0.6, 0.3))
    ]
    means = mean_improvements(rows)
    expected_mean = (improvement(0.5, 0.4) + improvement(0.6, 0.3)) / 2.0
    ok = (
        abs(imp - 11.0 / 60.0) <= 1e-9
        and means == {("SLP", 96): (expected_mean, 2)}
    )
    assert _verdict(
        7, ok,
        f"improvement(0.480, 0.392) = {imp:.12f} (11/60 within 1e-9); "
        f"two-dataset aggregate equals the arithmetic mean exactly",
    )


@pytest.mark.slow
def test_criterion_8_extreme_horizons_train_or_skip(tmp_path):
    t0 = time.time()
    source = DatasetSource(name="tidal", synthetic={"kind": "tidal", "n": 50000, "seed": 11})
    trained_cfg = ExperimentConfig(
        name="extreme-slp",
        source=source,
        split=(0.6, 0.2, 0.2),
        horizons=(1440,),
        models=("SLP",),
        epochs=6,
        batch_size=64,
        stride=8,
        eval_stride=8,
        seed=0,
    )
    out_a = run_experiment(trained_cfg, out_dir=tmp_path / "slp-1440")
    by_model = {r.model: r for r in out_a.records}
    base, slp = by_model["Persistence"], by_model["SLP"]

    guard_cfg = ExperimentConfig(
        name="extreme-guard",
        source=source,
        split=(0.6, 0.2, 0.2),
        horizons=(2880,),
        models=("Sinformer",),
        batch_size=256,
        eval_stride=8,
        memory_budget_mb=2048.0,
        seed=0,
    )
    out_b = run_experiment(guard_cfg, out_dir=tmp_path / "guard-2880")
    guarded = next(r for r in out_b.records if r.model == "Sinformer")
    elapsed = time.time() - t0

    ok = (
        base.status == "ok" and slp.status == "ok"
        and slp.mae < base.mae
        and guarded.status == "skipped"
        and "intractable" in guarded.reason
        and elapsed < 1200.0
    )
    assert _verdict(
        8, ok,
        f"SLP@1440 {slp.mae:.3f} < persistence {base.mae:.3f}; "
        f"Sinformer@2880 {guarded.status} ({guarded.reason!r}) in {elapsed:.0f}s",
    )


def test_criterion_9_runs_are_byte_deterministic(tmp_path):
    cfg = ExperimentConfig(
        name="repeat",
        source=DatasetSource(
            name="multi-sine-trend",
            synthetic={"kind": "multi_sine_trend", "n": 2400, "seed": 5},
        ),
        split=(0.6, 0.2, 0.2),
        horizons=(24,),
        models=("SLP", "Linear", "DLinear"),
        epochs=3,
        batch_size=64,
        stride=2,
        seed=12,
    )
    run_experiment(cfg, out_dir=tmp_path / "a")
    run_experiment(cfg, out_dir=tmp_path / "b")
    first = (tmp_path / "a" / "results.csv").read_bytes()
    second = (tmp_path / "b" / "results.csv").read_bytes()
    ok = first == second and len(first) > 0
    assert _verdict(
        9, ok,
        f"two identically seeded invocations wrote identical results.csv "
        f"({len(first)} bytes)",
    )
