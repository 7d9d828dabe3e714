"""Metrics and improvement aggregation."""

import threading
import time

import numpy as np
import pytest

from sinecast import autodiff
from sinecast.autodiff import Tensor, no_grad
from sinecast.data import TimeSeriesTable, make_windows
from sinecast.errors import ConfigError
from sinecast.evaluation import (
    evaluate,
    improvement,
    mean_improvements,
)
from sinecast.models import VARIANTS, Forecaster, ModelConfig


def serial_mae(model, ds, batch_size):
    """The scoring loop on one thread, batch by batch."""
    abs_sum, count = 0.0, 0
    for lo in range(0, len(ds), batch_size):
        xb, yb = ds.gather(np.arange(lo, min(lo + batch_size, len(ds))))
        with no_grad():
            pred = model(Tensor(xb)).data
        abs_sum += float(np.abs(pred - yb).sum())
        count += yb.size
    return abs_sum / count


def small_model(variant, channels=2):
    return Forecaster(ModelConfig(variant=variant, input_len=16, horizon=8, channels=channels,
                                  d_model=8, n_heads=2, ffn_dim=8, ma_kernel=3, seed=5))


class Windows:
    """A test set whose gather sleeps, or fails at one batch, and records the batches it served."""

    def __init__(self, ds, fail_at):
        self.ds, self.fail_at, self.done = ds, fail_at, []

    def __len__(self):
        return len(self.ds)

    def gather(self, idx):
        if idx[0] == self.fail_at:
            raise RuntimeError("batch failed")
        time.sleep(0.1)
        self.done.append(int(idx[0]))
        return self.ds.gather(idx)


class TestEvaluate:
    def _periodic(self, n=200, period=8):
        t = np.arange(n, dtype=float)
        return TimeSeriesTable(
            name="periodic", values=np.sin(2 * np.pi * (t % period) / period).reshape(n, 1)
        )

    def test_persistence_on_divisible_period_is_exact(self):
        table = self._periodic()
        ds = make_windows(table, input_len=16, horizon=8)
        model = Forecaster(ModelConfig(variant="Persistence", input_len=16, horizon=8, channels=1))
        result = evaluate(model, ds, dataset_name="periodic")
        assert result.mae < 1e-12
        assert result.n_windows == len(ds)

    def test_bitwise_deterministic(self):
        table = TimeSeriesTable(name="r", values=np.random.default_rng(2).normal(size=(150, 2)))
        ds = make_windows(table, input_len=12, horizon=6)
        model = Forecaster(ModelConfig(variant="Linear", input_len=12, horizon=6, channels=2, seed=1))
        a = evaluate(model, ds, dataset_name="r")
        b = evaluate(model, ds, dataset_name="r")
        assert a.mae == b.mae

    def test_batched_equals_single_shot(self):
        table = TimeSeriesTable(name="r", values=np.random.default_rng(3).normal(size=(90, 1)))
        ds = make_windows(table, input_len=10, horizon=5)
        model = Forecaster(ModelConfig(variant="Linear", input_len=10, horizon=5, channels=1, seed=2))
        small = evaluate(model, ds, batch_size=7).mae
        big = evaluate(model, ds, batch_size=10_000).mae
        assert abs(small - big) < 1e-12

    def test_graph_free_forward_scores_like_the_taped_one(self):
        table = TimeSeriesTable(name="r", values=np.random.default_rng(4).normal(size=(60, 1)))
        ds = make_windows(table, input_len=8, horizon=8)
        model = Forecaster(ModelConfig(variant="Sinformer", input_len=8, horizon=8, channels=1,
                                       d_model=8, n_heads=2, ffn_dim=8, seed=3))
        xb, yb = ds.gather(np.arange(len(ds)))
        taped = model(Tensor(xb))
        assert taped.requires_grad
        expected = np.abs(taped.data - yb).sum() / yb.size
        assert evaluate(model, ds, batch_size=len(ds)).mae == expected
        assert model(Tensor(xb)).requires_grad

    @pytest.mark.parametrize("batch_size", [0, -1])
    def test_batch_size_below_one_rejected(self, batch_size):
        ds = make_windows(self._periodic(), input_len=16, horizon=8)
        model = Forecaster(ModelConfig(variant="Persistence", input_len=16, horizon=8, channels=1))
        with pytest.raises(ConfigError, match="batch_size"):
            evaluate(model, ds, batch_size=batch_size)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_split_scores_equal_the_serial_loop(self, monkeypatch, set_cpus, variant):
        table = TimeSeriesTable(name="r", values=np.random.default_rng(6).normal(size=(48, 2)))
        ds = make_windows(table, input_len=16, horizon=8)
        assert len(ds) == 25
        model = small_model(variant)
        # one attention chunk per window, so attention inside a part has chunks to split
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 8 * 8 * 8)
        set_cpus(1)
        # one batch, two, and an odd number (five)
        expected = {b: serial_mae(model, ds, b) for b in (25, 13, 5)}
        for cpus in (1, 2, 3, 8):
            set_cpus(cpus)
            for b, want in expected.items():
                assert evaluate(model, ds, batch_size=b).mae == want, (cpus, b)

    def test_attention_inside_a_part_submits_nothing(self, monkeypatch, set_cpus):
        table = TimeSeriesTable(name="r", values=np.random.default_rng(7).normal(size=(60, 1)))
        ds = make_windows(table, input_len=16, horizon=8)
        model = small_model("Sencoder", channels=1)
        monkeypatch.setattr(autodiff, "_CHUNK_BYTES", 8 * 8 * 8)  # one chunk per window
        set_cpus(1)
        expected = serial_mae(model, ds, 8)
        set_cpus(2)
        submitted = []

        class CheckedPool(autodiff.ThreadPoolExecutor):
            def submit(self, *args, **kwargs):
                # a part that submitted and waited could wait on itself; fail instead of hanging
                in_part = getattr(autodiff._in_part, "on", False)
                if in_part or threading.current_thread().name.startswith("sinecast-split"):
                    raise AssertionError("a part submitted to the pool")
                submitted.append(args[0])
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(autodiff, "ThreadPoolExecutor", CheckedPool)
        got = []
        scorer = threading.Thread(target=lambda: got.append(evaluate(model, ds, batch_size=8).mae), daemon=True)
        scorer.start()
        scorer.join(timeout=60)
        assert not scorer.is_alive(), "scoring deadlocked"
        assert got == [expected]
        assert len(submitted) == 1  # the scoring split's one pool part

    @pytest.mark.parametrize("failing", ["caller", "pool"])
    def test_failed_batch_waits_for_the_other_part(self, set_cpus, failing):
        table = TimeSeriesTable(name="r", values=np.random.default_rng(8).normal(size=(47, 1)))
        ds = make_windows(table, input_len=16, horizon=8)
        assert len(ds) == 24
        model = small_model("Linear", channels=1)
        set_cpus(2)
        # batches 0 and 6 run on the pool, 12 and 18 on the calling thread
        windows = Windows(ds, fail_at=12 if failing == "caller" else 0)
        with pytest.raises(RuntimeError, match="batch failed"):
            evaluate(model, windows, batch_size=6)
        assert sorted(windows.done) == ([0, 6] if failing == "caller" else [12, 18])

    def test_empty_test_rejected(self):
        table = self._periodic(20)
        ds = make_windows(table, input_len=16, horizon=8)
        assert len(ds) == 0
        model = Forecaster(ModelConfig(variant="Persistence", input_len=16, horizon=8, channels=1))
        with pytest.raises(ConfigError, match="empty"):
            evaluate(model, ds)


class TestImprovement:
    def test_equal_is_zero(self):
        assert improvement(0.5, 0.5) == 0.0

    def test_published_pair(self):
        got = improvement(0.480, 0.392)
        assert abs(got - (0.480 - 0.392) / 0.480) < 1e-15
        assert abs(got - 0.18333333333333332) < 1e-9

    def test_double_is_minus_one(self):
        assert improvement(0.4, 0.8) == -1.0

    def test_antitone_in_model_mae(self):
        vals = [improvement(1.0, m) for m in (0.2, 0.5, 0.9, 1.5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nonpositive_baseline_rejected(self):
        with pytest.raises(ConfigError):
            improvement(0.0, 0.5)
        with pytest.raises(ConfigError):
            improvement(-1.0, 0.5)


def _row(dataset, model, horizon, imp, status="ok"):
    return {"dataset": dataset, "model": model, "horizon": horizon, "status": status,
            "improvement_vs_persistence": imp}


class TestAggregateImprovements:
    def test_single_dataset_row(self):
        rows = [_row("a", "Persistence", 96, None), _row("a", "SLP", 96, improvement(0.5, 0.4)),
                _row("a", "MLP", 96, None, status="error")]
        means = mean_improvements(rows)
        assert list(means) == [("SLP", 96)]
        mean, n = means[("SLP", 96)]
        assert abs(mean - 0.2) < 1e-15
        assert n == 1

    def test_mean_over_datasets(self):
        rows = [_row("a", "SLP", 96, improvement(1.0, 0.8)), _row("b", "SLP", 96, improvement(1.0, 0.6))]
        mean, n = mean_improvements(rows)[("SLP", 96)]
        assert abs(mean - 0.3) < 1e-15
        assert n == 2

    def test_separate_rows_per_horizon_and_model(self):
        rows = [_row("a", m, h, 0.1) for m in ("SLP", "MLP") for h in (96, 192)]
        assert set(mean_improvements(rows)) == {
            ("SLP", 96), ("SLP", 192), ("MLP", 96), ("MLP", 192)
        }

    def test_worse_than_baseline_is_negative(self):
        mean, _ = mean_improvements([_row("a", "MLP", 96, improvement(0.5, 0.9))])[("MLP", 96)]
        assert mean < 0
