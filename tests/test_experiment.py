import json
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from sinecast import autodiff, experiment
from sinecast.cli import main
from sinecast.data import SplitSpec
from sinecast.errors import ConfigError, TuningError
from sinecast.evaluation import improvement
from sinecast.experiment import (
    DatasetSource,
    ExperimentConfig,
    attention_memory_bytes,
    config_hash,
    load_config,
    load_source,
    run_experiment,
    tail_portion,
    tune,
)
from sinecast.synthetic import as_table, sine_series

SHIPPED_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def write_series_csv(path, values):
    """A one-column CSV; repr formatting round-trips floats exactly."""
    path.write_text("value\n" + "".join(f"{float(v)!r}\n" for v in values), encoding="utf-8")


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "name": "tiny",
        "dataset": {"synthetic": {"kind": "sine", "n": 600, "period": 24.0,
                                  "noise": 0.05, "seed": 3}},
        "split": [0.6, 0.2, 0.2],
        "horizons": [24],
        "models": ["SLP"],
        "epochs": 2,
        "batch_size": 64,
        "stride": 2,
        "seed": 1,
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestLoadConfig:
    def test_defaults_fill_in(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.input_len is None
        assert cfg.lr_start == 1e-3 and cfg.lr_end == 1e-6
        assert cfg.standardize is True
        assert cfg.memory_budget_mb == 2048.0
        assert cfg.train_portion == 1.0
        assert cfg.models == ("SLP",)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key.*learning_rate"):
            load_config(write_config(tmp_path, learning_rate=0.1))

    def test_unknown_model_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown model 'LSTM'"):
            load_config(write_config(tmp_path, models=["LSTM"]))

    def test_unknown_override_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="model_overrides"):
            load_config(write_config(tmp_path, model_overrides={"depth": 3}))

    def test_dataset_required(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"name": "x", "split": [0.6, 0.2, 0.2],
                                    "horizons": [24], "models": ["SLP"]}))
        with pytest.raises(ConfigError, match="exactly one of 'path' or 'synthetic'"):
            load_config(path)

    def test_path_and_synthetic_exclusive(self, tmp_path):
        with pytest.raises(ConfigError, match="exactly one"):
            load_config(write_config(
                tmp_path,
                dataset={"path": "x.csv", "synthetic": {"kind": "sine", "n": 10}},
            ))

    def test_bool_is_not_an_int(self, tmp_path):
        with pytest.raises(ConfigError, match="epochs"):
            load_config(write_config(tmp_path, epochs=True))

    def test_bad_json_reported_with_path(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="broken.json"):
            load_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")

    def test_relative_csv_path_resolves_against_config_dir(self, tmp_path, monkeypatch):
        write_series_csv(tmp_path / "series.csv", sine_series(50))
        cfg = load_config(write_config(tmp_path, dataset={"path": "series.csv"}))
        assert cfg.source.path == "series.csv"
        assert cfg.source.config_dir == str(tmp_path.resolve())
        assert cfg.source.name == "series"
        monkeypatch.chdir(tmp_path.parent)
        table = load_source(cfg.source)
        assert table.length == 50

    def test_even_kernel_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ma_kernel"):
            load_config(write_config(tmp_path, model_overrides={"ma_kernel": 4}))

    def test_negative_seed_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="seed"):
            load_config(write_config(tmp_path, seed=-1))

    def test_heads_must_divide_d_model(self, tmp_path):
        with pytest.raises(ConfigError, match="multiple of n_heads"):
            load_config(write_config(tmp_path, model_overrides={"d_model": 10, "n_heads": 4}))

    @pytest.mark.parametrize("portions", [[0.5, 0.0], [1.5], [-0.2, 1.0]])
    def test_tuning_portion_outside_unit_interval_rejected(self, tmp_path, portions):
        with pytest.raises(ConfigError, match=r"tuning.train_portions must lie in \(0, 1\]"):
            load_config(write_config(tmp_path, tuning={"train_portions": portions}))

    def test_tuning_portion_must_be_a_number(self, tmp_path):
        with pytest.raises(ConfigError, match="tuning.train_portions"):
            load_config(write_config(tmp_path, tuning={"train_portions": ["half"]}))

    @pytest.mark.parametrize("overrides, key", [
        ({"horizons": [24, 12, 24]}, "horizons"),
        ({"tuning": {"input_lens": [24, 24]}}, "tuning.input_lens"),
        ({"tuning": {"train_portions": [0.5, 1, 1.0]}}, "tuning.train_portions"),
    ])
    def test_repeated_cell_values_rejected(self, tmp_path, overrides, key):
        with pytest.raises(ConfigError, match=f"{key} must not repeat a value"):
            load_config(write_config(tmp_path, **overrides))

    def test_repeated_models_are_dropped(self, tmp_path):
        cfg = load_config(write_config(tmp_path, models=["SLP", "Linear", "SLP"]))
        assert cfg.models == ("SLP", "Linear")

    def test_repeated_models_rejected_when_built_directly(self):
        # load_config drops repeats; a config built in code must not train a cell twice
        with pytest.raises(ConfigError, match=r"models must not repeat a value, got \['Linear', 'Linear'\]"):
            ExperimentConfig(name="tiny", source=DatasetSource(name="sine", synthetic={"kind": "sine", "n": 600}),
                             split=SplitSpec(0.6, 0.2, 0.2), horizons=(24,), models=("Linear", "Linear"))

    def test_split_must_hold_numbers(self, tmp_path):
        with pytest.raises(ConfigError, match="'split' must be a list of three fractions"):
            load_config(write_config(tmp_path, split=["a", 0.2, 0.2]))

    def test_synthetic_periods_must_be_a_list(self, tmp_path):
        dataset = {"synthetic": {"kind": "multi_sine_trend", "n": 600, "periods": 5}}
        with pytest.raises(ConfigError, match="'periods' must be a list of numbers"):
            load_config(write_config(tmp_path, dataset=dataset))

    @pytest.mark.parametrize("lrs", [{"lr_start": 1e-6, "lr_end": 1e-3}, {"lr_end": 0}],
                             ids=["reversed", "zero-end"])
    def test_bad_learning_rates_rejected(self, tmp_path, lrs):
        with pytest.raises(ConfigError, match="need lr_start > lr_end > 0"):
            load_config(write_config(tmp_path, **lrs))

    def test_minimal_config_takes_the_dataclass_defaults(self, tmp_path):
        path = tmp_path / "minimal.json"
        path.write_text(json.dumps({
            "name": "minimal",
            "dataset": {"synthetic": {"kind": "sine", "n": 600}},
            "split": [0.6, 0.2, 0.2],
            "horizons": [24],
            "models": ["SLP"],
        }))
        expected = ExperimentConfig(
            name="minimal",
            source=DatasetSource(name="sine", synthetic={"kind": "sine", "n": 600}),
            split=SplitSpec(0.6, 0.2, 0.2),
            horizons=(24,),
            models=("SLP",),
        )
        assert load_config(path) == expected

    @pytest.mark.parametrize("path", SHIPPED_CONFIGS, ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        assert isinstance(load_config(path), ExperimentConfig)


class TestConfigHash:
    def test_demo_hash_is_stable(self):
        # quoted in the README; a schema change must not move it
        cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "demo.json")
        assert config_hash(cfg) == "2e9e68e62fa7b7edbbf9649119667f269a41f516960bca9b4b93bea848c357aa"

    def test_key_order_does_not_matter(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.json"))
        raw = json.loads((tmp_path / "a.json").read_text())
        reordered = {k: raw[k] for k in reversed(list(raw))}
        (tmp_path / "b.json").write_text(json.dumps(reordered))
        b = load_config(tmp_path / "b.json")
        assert config_hash(a) == config_hash(b)

    def test_seed_changes_hash(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.json", seed=1))
        b = load_config(write_config(tmp_path, name="b.json", seed=2))
        assert config_hash(a) != config_hash(b)

    def test_csv_config_hashes_the_same_in_any_directory(self, tmp_path):
        write_series_csv(tmp_path / "series.csv", sine_series(50))
        original = write_config(tmp_path, dataset={"path": "series.csv"})
        hashes = []
        for place in ("one", "two/nested"):
            d = tmp_path / place
            d.mkdir(parents=True)
            for f in (original, tmp_path / "series.csv"):
                shutil.copy(f, d / f.name)
            cfg = load_config(d / original.name)
            assert cfg.source.config_dir == str(d.resolve())
            assert load_source(cfg.source).length == 50
            hashes.append(config_hash(cfg))
        assert hashes[0] == hashes[1] == config_hash(load_config(original))

    def test_execution_details_do_not_change_hash(self, tmp_path):
        a = load_config(write_config(tmp_path, name="a.json"))
        b = load_config(write_config(tmp_path, name="b.json", workers=4,
                                     out_dir="elsewhere", save_checkpoints=True))
        assert config_hash(a) == config_hash(b)


class TestSources:
    def test_synthetic_kinds(self):
        for kind in ("sine", "multi_sine_trend", "tidal"):
            src = DatasetSource(name="x", synthetic={"kind": kind, "n": 64})
            assert load_source(src).length == 64

    def test_bad_kind_rejected_at_load(self, tmp_path):
        with pytest.raises(ConfigError, match="synthetic kind"):
            load_config(write_config(tmp_path, dataset={"synthetic": {"kind": "sawtooth", "n": 10}}))

    def test_bad_option_reported(self):
        src = DatasetSource(name="x", synthetic={"kind": "sine", "n": 64, "wavelength": 3})
        with pytest.raises(ConfigError, match="bad synthetic dataset options"):
            load_source(src)


class TestTailPortion:
    def test_keeps_most_recent_rows(self):
        table = as_table(np.arange(100, dtype=np.float64))
        tail = tail_portion(table, 0.25)
        assert tail.length == 25
        assert tail.values[0, 0] == 75.0
        assert tail.values[-1, 0] == 99.0

    def test_full_portion_is_identity(self):
        table = as_table(np.arange(10, dtype=np.float64))
        assert tail_portion(table, 1.0) is table

    def test_too_small_portion_rejected(self):
        table = as_table(np.arange(10, dtype=np.float64))
        with pytest.raises(ConfigError, match="leaves"):
            tail_portion(table, 0.1)


class TestMemoryGuardEstimate:
    def test_formula(self):
        est = attention_memory_bytes("Sinformer", 4, 256, 2880)
        assert est == 3 * 4 * 4 * 256 * 2880 * 2880 * 8

    def test_encoder_has_one_site(self):
        one = attention_memory_bytes("Sencoder", 2, 8, 16)
        three = attention_memory_bytes("Sinformer", 2, 8, 16)
        assert three == 3 * one

    def test_zero_for_models_without_attention(self):
        for variant in ("Persistence", "Linear", "NLinear", "DLinear", "SLP", "MLP"):
            assert attention_memory_bytes(variant, 4, 32, 96) == 0


class TestRunExperiment:
    def test_grid_rows_and_improvements(self, tmp_path):
        cfg = load_config(write_config(tmp_path, models=["SLP", "Linear"], horizons=[12, 24]))
        outcome = run_experiment(cfg, out_dir=tmp_path / "out")
        assert [(r.model, r.horizon) for r in outcome.records] == [
            ("Persistence", 12), ("SLP", 12), ("Linear", 12),
            ("Persistence", 24), ("SLP", 24), ("Linear", 24),
        ]
        base = {r.horizon: r.mae for r in outcome.records if r.model == "Persistence"}
        for r in outcome.records:
            assert r.status == "ok"
            if r.model != "Persistence":
                assert r.improvement_vs_persistence == improvement(base[r.horizon], r.mae)
        assert outcome.results_path.exists()
        assert outcome.report_path.exists()
        assert json.loads(outcome.manifest_path.read_text())["config_hash"] == config_hash(cfg)

    def test_manifest_records_environment_outside_the_hash(self, tmp_path, monkeypatch, set_cpus):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        set_cpus(5)
        cfg = load_config(write_config(tmp_path, models=["Persistence"]))
        manifest = json.loads(run_experiment(cfg, out_dir=tmp_path / "out").manifest_path.read_text())
        env = manifest["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["num_threads"]["OPENBLAS_NUM_THREADS"] == "3"
        assert env["cpus"] == 5
        assert "environment" not in manifest["config"]
        assert manifest["config_hash"] == config_hash(cfg)

    def test_persistence_always_uses_matching_input_len(self, tmp_path):
        cfg = load_config(write_config(tmp_path, input_len=48))
        outcome = run_experiment(cfg, out_dir=tmp_path / "out")
        by_model = {r.model: r for r in outcome.records}
        assert by_model["Persistence"].input_len == 24
        assert by_model["SLP"].input_len == 48

    def test_memory_budget_skips_attention_model(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            models=["SLP", "Sencoder"],
            memory_budget_mb=0.5,
            model_overrides={"d_model": 8, "n_heads": 2, "ffn_dim": 16},
        ))
        outcome = run_experiment(cfg, out_dir=tmp_path / "out")
        by_model = {r.model: r for r in outcome.records}
        assert by_model["Sencoder"].status == "skipped"
        assert "intractable at this horizon" in by_model["Sencoder"].reason
        assert by_model["SLP"].status == "ok"
        assert outcome.n_errors == 0

    def test_oversized_horizon_becomes_error_row(self, tmp_path):
        cfg = load_config(write_config(tmp_path, horizons=[24, 400]))
        outcome = run_experiment(cfg, out_dir=tmp_path / "out")
        by_key = {(r.model, r.horizon): r for r in outcome.records}
        assert by_key[("SLP", 24)].status == "ok"
        assert by_key[("Persistence", 400)].status == "error"
        assert by_key[("SLP", 400)].status == "error"
        assert outcome.n_errors == 2

    def test_results_csv_is_byte_deterministic(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        a = run_experiment(cfg, out_dir=tmp_path / "a")
        b = run_experiment(cfg, out_dir=tmp_path / "b")
        assert a.results_path.read_bytes() == b.results_path.read_bytes()
        assert a.report_path.read_bytes() == b.report_path.read_bytes()

    def test_worker_threads_do_not_change_results(self, tmp_path, set_cpus):
        # Sencoder's attention splits its batch chunks over a shared pool
        # while the cell threads run; the reference splits nothing
        cfg = load_config(write_config(tmp_path, models=["SLP", "Linear", "Sencoder"]))
        import dataclasses

        set_cpus(1)
        seq = run_experiment(cfg, out_dir=tmp_path / "seq")
        set_cpus(3)
        par = run_experiment(dataclasses.replace(cfg, workers=3), out_dir=tmp_path / "par")
        assert seq.results_path.read_bytes() == par.results_path.read_bytes()
        assert autodiff._pool is not None

    def test_checkpoints_written_on_request(self, tmp_path):
        cfg = load_config(write_config(tmp_path, save_checkpoints=True))
        outcome = run_experiment(cfg, out_dir=tmp_path / "out")
        files = list((outcome.out_dir / "checkpoints").iterdir())
        assert [f.name for f in files] == ["sine_SLP_24.json"]

    def test_missing_out_dir_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        with pytest.raises(ConfigError, match="output directory"):
            run_experiment(cfg)

    def test_perfect_baseline_leaves_improvement_unset(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            dataset={"synthetic": {"kind": "sine", "n": 600, "period": 24.0}},
        ))
        outcome = run_experiment(cfg, out_dir=tmp_path / "out")
        by_model = {r.model: r for r in outcome.records}
        assert by_model["Persistence"].mae == 0.0
        assert by_model["SLP"].status == "ok"
        assert by_model["SLP"].improvement_vs_persistence is None

    def test_unstandardized_run_keeps_raw_units(self, tmp_path):
        raw = load_config(write_config(tmp_path, name="raw.json", standardize=False,
                                       dataset={"synthetic": {"kind": "sine", "n": 600,
                                                              "amplitude": 10.0,
                                                              "noise": 0.3, "seed": 3}}))
        outcome = run_experiment(raw, out_dir=tmp_path / "out")
        slp = next(r for r in outcome.records if r.model == "SLP")
        # a bounded head cannot reach amplitude-10 targets, so raw units show
        assert slp.mae > 1.0


class TestTune:
    def test_grid_and_selection(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            tuning={"input_lens": [24, 48], "train_portions": [0.5, 1.0]},
        ))
        outcome = tune(cfg, out_dir=tmp_path / "out")
        ok = [r for r in outcome.rows if r.status == "ok"]
        assert len(ok) == 4
        best = outcome.best["SLP@24"]
        expected = min(ok, key=lambda r: (r.val_mae, r.input_len, -r.train_portion))
        assert best["input_len"] == expected.input_len
        assert best["train_portion"] == expected.train_portion
        assert best["val_mae"] == expected.val_mae
        assert outcome.table_path.exists()
        assert json.loads(outcome.best_path.read_text())["SLP@24"] == best

    def test_infeasible_candidates_recorded(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            tuning={"input_lens": [24, 500], "train_portions": [1.0]},
        ))
        outcome = tune(cfg, out_dir=tmp_path / "out")
        statuses = {r.input_len: r.status for r in outcome.rows}
        assert statuses == {24: "ok", 500: "infeasible"}

    def test_window_shorter_than_horizon_is_infeasible(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            tuning={"input_lens": [12, 24], "train_portions": [1.0]},
        ))
        outcome = tune(cfg, out_dir=tmp_path / "out")
        short = next(r for r in outcome.rows if r.input_len == 12)
        assert short.status == "infeasible"
        assert "input_len 12 < horizon 24" in short.reason

    def test_longer_window_wins_when_period_exceeds_horizon(self, tmp_path):
        # one period = 36 quiet samples then a 12-sample bump; a 24-sample
        # window can sit entirely inside the quiet stretch, which makes the
        # bump's arrival time unknowable, while a 48-sample window always
        # covers a full period and the target is an exact lag-48 copy
        pattern = np.zeros(48)
        pattern[36:] = np.sin(np.pi * np.arange(12) / 12)
        write_series_csv(tmp_path / "spiky.csv", np.tile(pattern, 30))
        cfg = load_config(write_config(
            tmp_path,
            dataset={"path": "spiky.csv"},
            models=["Linear"],
            epochs=15,
            lr_start=1e-2,
            stride=1,
            tuning={"input_lens": [24, 48], "train_portions": [1.0]},
        ))
        outcome = tune(cfg, out_dir=tmp_path / "out")
        by_len = {r.input_len: r.val_mae for r in outcome.rows if r.status == "ok"}
        assert by_len[48] < by_len[24]
        assert outcome.best["Linear@24"]["input_len"] == 48

    def test_all_infeasible_raises(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            tuning={"input_lens": [500], "train_portions": [1.0]},
        ))
        with pytest.raises(TuningError, match="SLP at horizon 24"):
            tune(cfg, out_dir=tmp_path / "out")

    def test_persistence_only_config_rejected(self, tmp_path):
        cfg = load_config(write_config(tmp_path, models=["Persistence"]))
        with pytest.raises(ConfigError, match="trainable"):
            tune(cfg, out_dir=tmp_path / "out")

    def test_portion_too_small_fails_before_training(self, tmp_path):
        cfg = load_config(write_config(
            tmp_path,
            tuning={"input_lens": [24], "train_portions": [1.0, 0.001]},
        ))
        with pytest.raises(ConfigError, match="train_portion=0.001 leaves"):
            tune(cfg, out_dir=tmp_path / "out")
        assert list((tmp_path / "out" / "logs").iterdir()) == []

    def test_memory_budget_skips_attention_candidates(self, tmp_path):
        path = write_config(
            tmp_path,
            models=["SLP", "Sencoder"],
            memory_budget_mb=0.05,
            model_overrides={"d_model": 8, "n_heads": 2, "ffn_dim": 16},
            tuning={"input_lens": [24, 48], "train_portions": [0.5, 1.0]},
        )
        outcome = tune(load_config(path), out_dir=tmp_path / "out")
        sencoder = [r for r in outcome.rows if r.model == "Sencoder"]
        assert len(sencoder) == 4
        for r in sencoder:
            assert r.status == "skipped"
            assert r.reason.startswith("intractable at this horizon")
            assert "0.05 MB budget" in r.reason
        assert "SLP@24" in outcome.best
        assert not any(key.startswith("Sencoder@") for key in outcome.best)
        assert main(["tune", "--config", str(path), "--out", str(tmp_path / "cli")]) == 0

    def test_candidate_failure_becomes_error_row(self, tmp_path, monkeypatch):
        train_model = experiment.train_model

        def flaky_train_model(model, *args, **kwargs):
            if model.config.input_len == 48:
                raise RuntimeError("boom")
            return train_model(model, *args, **kwargs)

        monkeypatch.setattr(experiment, "train_model", flaky_train_model)
        cfg = load_config(write_config(
            tmp_path,
            tuning={"input_lens": [24, 48], "train_portions": [1.0]},
        ))
        outcome = tune(cfg, out_dir=tmp_path / "out")
        by_len = {r.input_len: r for r in outcome.rows}
        assert by_len[48].status == "error"
        assert by_len[48].reason == "RuntimeError: boom"
        assert by_len[24].status == "ok"
        assert outcome.best["SLP@24"]["input_len"] == 24


class TestArtifactNames:
    """The names and keys that code outside this package reads: the manifest's
    run_seconds keys, the log, checkpoint and tuning log file names, and the
    best.json keys."""

    def test_run_and_tune_artifacts(self, tmp_path):
        path = write_config(
            tmp_path,
            dataset={"name": "site a/b", "synthetic": {"kind": "sine", "n": 600, "period": 24.0,
                                                       "noise": 0.05, "seed": 3}},
            horizons=[12, 24],
            models=["SLP", "Linear"],
            save_checkpoints=True,
            tuning={"input_lens": [24, 48], "train_portions": [0.5, 1.0]},
        )
        cfg = load_config(path)
        out = run_experiment(cfg, out_dir=tmp_path / "run").out_dir
        manifest = json.loads((out / "manifest.json").read_text())
        assert sorted(manifest["run_seconds"]) == [
            f"site a/b/{m}/{h}" for m in ("Linear", "Persistence", "SLP") for h in (12, 24)
        ]
        stems = [f"site_a_b_{m}_{h}" for m in ("Linear", "SLP") for h in (12, 24)]
        assert sorted(f.name for f in (out / "logs").iterdir()) == [f"{s}.csv" for s in stems]
        assert sorted(f.name for f in (out / "checkpoints").iterdir()) == [f"{s}.json" for s in stems]

        outcome = tune(cfg, out_dir=tmp_path / "tune")
        assert sorted(f.name for f in (outcome.out_dir / "logs").iterdir()) == [
            f"tune_site_a_b_{m}_{h}_{n}_{p}.csv"
            for m in ("Linear", "SLP") for h in (12, 24) for n in (24, 48) for p in (0.5, 1.0)
        ]
        assert sorted(json.loads(outcome.best_path.read_text())) == [
            "Linear@12", "Linear@24", "SLP@12", "SLP@24",
        ]
