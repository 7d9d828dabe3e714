import json

import pytest

from sinecast.cli import main


def run_cli(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


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


class TestRun:
    def test_happy_path(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        for artifact in ("results.csv", "report.md", "manifest.json"):
            assert (tmp_path / "out" / artifact).exists()
        stdout = capsys.readouterr().out
        assert "[ok]" in stdout
        assert "results.csv" in stdout

    def test_failed_cell_exits_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, horizons=[400])
        code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert (tmp_path / "out" / "results.csv").exists()

    def test_skipped_cell_still_exits_0(self, tmp_path):
        cfg = write_config(
            tmp_path,
            models=["Sencoder"],
            memory_budget_mb=0.5,
            model_overrides={"d_model": 8, "n_heads": 2, "ffn_dim": 16},
        )
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bogus_key=1)
        code = run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = run_cli(["run", "--config", str(tmp_path / "nope.json")])
        assert code == 2

    def test_no_arguments_is_usage_error(self):
        assert run_cli([]) == 2

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_cli(["run", "--config", str(cfg), "--seed", "7",
                        "--out", str(tmp_path / "out")]) == 0
        text = (tmp_path / "out" / "results.csv").read_text()
        assert ",7,ok," in text

    def test_negative_seed_flag_exits_2_and_writes_nothing(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run_cli(["run", "--config", str(cfg), "--seed", "-1", "--out", str(tmp_path / "out")])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    @pytest.mark.parametrize("lrs", [{"lr_start": 1e-6, "lr_end": 1e-3}, {"lr_end": 0}],
                             ids=["reversed", "zero-end"])
    def test_bad_learning_rates_exit_2_and_write_nothing(self, tmp_path, capsys, lrs):
        cfg = write_config(tmp_path, **lrs)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "lr_start > lr_end > 0" in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.csv").exists()

    def test_env_var_picks_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SINECAST_OUT", str(tmp_path / "envout"))
        assert run_cli(["run", "--config", str(write_config(tmp_path))]) == 0
        assert (tmp_path / "envout" / "results.csv").exists()

    def test_flag_beats_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SINECAST_OUT", str(tmp_path / "envout"))
        assert run_cli(["run", "--config", str(write_config(tmp_path)),
                        "--out", str(tmp_path / "flagout")]) == 0
        assert (tmp_path / "flagout" / "results.csv").exists()
        assert not (tmp_path / "envout").exists()

    def test_default_out_dir_uses_experiment_name(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("SINECAST_OUT", raising=False)
        assert run_cli(["run", "--config", str(write_config(tmp_path))]) == 0
        assert (tmp_path / "runs" / "tiny" / "results.csv").exists()

    def test_workers_flag_keeps_results_identical(self, tmp_path):
        cfg = write_config(tmp_path, models=["SLP", "Linear"])
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "b"),
                        "--workers", "3"]) == 0
        assert (tmp_path / "a" / "results.csv").read_bytes() == \
            (tmp_path / "b" / "results.csv").read_bytes()


class TestReport:
    def test_rerenders_markdown(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        out_md = tmp_path / "fresh.md"
        code = run_cli(["report", "--results", str(tmp_path / "out" / "results.csv"),
                        "--out", str(out_md), "--title", "Rebuilt"])
        assert code == 0
        text = out_md.read_text()
        assert text.startswith("# Rebuilt")
        assert "## Test MAE" in text

    def test_missing_csv_exits_2(self, tmp_path):
        assert run_cli(["report", "--results", str(tmp_path / "none.csv")]) == 2


class TestTuneCommand:
    def test_writes_grid_and_best(self, tmp_path, capsys):
        cfg = write_config(tmp_path, tuning={"input_lens": [12, 24],
                                             "train_portions": [1.0]})
        code = run_cli(["tune", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "tuning.csv").exists()
        best = json.loads((tmp_path / "out" / "best.json").read_text())
        assert "SLP@24" in best
        assert "SLP@24" in capsys.readouterr().out


class TestPlot:
    def test_persistence_plot(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out_svg = tmp_path / "p.svg"
        code = run_cli(["plot", "--config", str(cfg), "--model", "Persistence",
                        "--horizon", "24", "--out", str(out_svg)])
        assert code == 0
        assert out_svg.read_text().startswith("<svg")

    def test_trained_model_needs_checkpoint(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code = run_cli(["plot", "--config", str(cfg), "--model", "SLP", "--horizon", "24",
                        "--out", str(tmp_path / "p.svg")])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_plot_from_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path, save_checkpoints=True)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        ckpt = tmp_path / "out" / "checkpoints" / "sine_SLP_24.json"
        out_svg = tmp_path / "slp.svg"
        code = run_cli(["plot", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--out", str(out_svg)])
        assert code == 0
        assert "SLP" in out_svg.read_text()

    def test_default_plot_name_slugs_the_dataset(self, tmp_path):
        dataset = {"name": "site a/b", "synthetic": {"kind": "sine", "n": 600, "period": 24.0}}
        cfg = write_config(tmp_path, dataset=dataset, save_checkpoints=True,
                           out_dir=str(tmp_path / "out"))
        assert run_cli(["run", "--config", str(cfg)]) == 0
        ckpt = tmp_path / "out" / "checkpoints" / "site_a_b_SLP_24.json"
        assert run_cli(["plot", "--config", str(cfg), "--model", "Persistence",
                        "--horizon", "24"]) == 0
        assert run_cli(["plot", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--window-index", "1"]) == 0
        plots = sorted(f.name for f in (tmp_path / "out" / "plots").iterdir())
        assert plots == ["site_a_b_Persistence_24_w0.svg", "site_a_b_SLP_24_w1.svg"]

    def test_checkpoint_variant_mismatch(self, tmp_path, capsys):
        cfg = write_config(tmp_path, save_checkpoints=True)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        ckpt = tmp_path / "out" / "checkpoints" / "sine_SLP_24.json"
        code = run_cli(["plot", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--model", "MLP", "--out", str(tmp_path / "x.svg")])
        assert code == 2
        assert "holds SLP" in capsys.readouterr().err

    def test_truncated_checkpoint_is_an_error_not_a_traceback(self, tmp_path, capsys):
        cfg = write_config(tmp_path, save_checkpoints=True)
        assert run_cli(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        ckpt = tmp_path / "out" / "checkpoints" / "sine_SLP_24.json"
        ckpt.write_bytes(ckpt.read_bytes()[: ckpt.stat().st_size // 2])
        code = run_cli(["plot", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "t.svg")])
        assert code == 2
        assert f"error: checkpoint {ckpt}" in capsys.readouterr().err

    def test_old_format_checkpoint_is_an_error_not_a_traceback(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "old.json"
        ckpt.write_text(json.dumps({"config": {"variant": "SLP"}, "parameters": {}}))
        code = run_cli(["plot", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "o.svg")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: checkpoint {ckpt}" in err
        assert "sinecast run" in err

    def test_garbage_checkpoint_is_an_error_not_a_traceback(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "garbage.json"
        ckpt.write_bytes(b"\x00\xffnot a checkpoint")
        code = run_cli(["plot", "--config", str(cfg), "--checkpoint", str(ckpt),
                        "--out", str(tmp_path / "g.svg")])
        assert code == 2
        assert f"error: checkpoint {ckpt}" in capsys.readouterr().err
