import dataclasses

import pytest

from sinecast.errors import DataError
from sinecast.reporting import (
    RESULT_FIELDS,
    RunRecord,
    read_results_csv,
    render_report,
    write_results_csv,
)


def row(**kwargs):
    base = RunRecord(dataset="toy", model="SLP", horizon=24, input_len=24, train_portion=1.0,
                     seed=0, status="ok", reason="", mae=0.5, n_windows=10, best_epoch=3,
                     improvement_vs_persistence=0.25)
    return dataclasses.replace(base, **kwargs)


def grid_row(text, dataset, horizon):
    """The Test MAE grid's row for (dataset, horizon), as {column header: cell}."""
    lines = text.splitlines()
    header = next(line for line in lines if line.startswith("| dataset | horizon |"))
    row_line = next(line for line in lines if line.startswith(f"| {dataset} | {horizon} |"))
    cells = [[c.strip() for c in line.strip("|").split("|")] for line in (header, row_line)]
    return dict(zip(*cells))


class TestResultsCsv:
    def test_round_trip_preserves_values(self, tmp_path):
        rows = [
            row(),
            row(model="Persistence", mae=0.1 + 0.2, best_epoch=None,
                improvement_vs_persistence=None),
            row(model="Sinformer", status="skipped", reason="too big, skipped",
                mae=None, n_windows=None, best_epoch=None,
                improvement_vs_persistence=None),
        ]
        path = write_results_csv(tmp_path / "results.csv", rows)
        got = read_results_csv(path)
        assert got == rows
        # each column comes back as its field's type, not only as an equal value
        assert list(map(type, dataclasses.astuple(got[0]))) == list(map(type, dataclasses.astuple(rows[0])))

    def test_floats_written_via_repr(self, tmp_path):
        path = write_results_csv(tmp_path / "r.csv", [row(mae=0.1 + 0.2)])
        assert repr(0.1 + 0.2) in path.read_text()

    def test_reason_with_comma_survives(self, tmp_path):
        rows = [row(status="error", reason="a, b, and c", mae=None)]
        path = write_results_csv(tmp_path / "r.csv", rows)
        assert read_results_csv(path)[0].reason == "a, b, and c"

    def test_header_is_checked(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("dataset,model\nx,y\n")
        with pytest.raises(DataError, match="unexpected header"):
            read_results_csv(p)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            read_results_csv(p)

    def test_short_row_rejected(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text(",".join(RESULT_FIELDS) + "\ntoy,SLP\n")
        with pytest.raises(DataError, match="line 2"):
            read_results_csv(p)

    def test_unparsable_field_names_line_and_field(self, tmp_path):
        p = write_results_csv(tmp_path / "r.csv", [row(), row(model="MLP")])
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("MLP,24,", "MLP,abc,")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3, field 'horizon': cannot parse 'abc'"):
            read_results_csv(p)

    def test_empty_cell_only_where_the_field_allows_none(self, tmp_path):
        p = write_results_csv(tmp_path / "r.csv", [row(reason="", mae=None), row(model="MLP")])
        assert read_results_csv(p)[0].mae is None
        lines = p.read_text().splitlines()
        lines[2] = lines[2].replace("MLP,24,", "MLP,,")
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="line 3, field 'horizon': cannot parse ''"):
            read_results_csv(p)

    def test_writes_are_byte_identical(self, tmp_path):
        rows = [row(), row(model="MLP", mae=0.31)]
        a = write_results_csv(tmp_path / "a.csv", rows)
        b = write_results_csv(tmp_path / "b.csv", rows)
        assert a.read_bytes() == b.read_bytes()


class TestRenderReport:
    def rows(self):
        return [
            row(model="Persistence", mae=0.8, best_epoch=None,
                improvement_vs_persistence=None),
            row(model="SLP", mae=0.4, improvement_vs_persistence=0.5),
            row(model="MLP", mae=0.6, improvement_vs_persistence=0.25),
        ]

    def test_best_value_is_bold(self):
        text = render_report(self.rows())
        assert "**0.400**" in text

    def test_baseline_beaters_get_check(self):
        text = render_report(self.rows())
        line = next(l for l in text.splitlines() if l.startswith("| toy | 24 |"))
        assert line.count("✓") == 2
        assert "0.800 |" in line  # the baseline itself is never checked

    def test_baseline_trailers_get_cross(self):
        rows = self.rows() + [row(model="Linear", mae=1.2,
                                  improvement_vs_persistence=-0.5)]
        text = render_report(rows)
        line = next(l for l in text.splitlines() if l.startswith("| toy | 24 |"))
        assert "1.200 ✗" in line

    def test_improvement_table_shows_mean_percent(self):
        text = render_report(self.rows())
        assert "| SLP | 24 | 50.0% | 1 |" in text

    def test_skips_and_errors_listed(self):
        rows = self.rows() + [
            row(model="Sinformer", status="skipped", mae=None,
                reason="intractable at this horizon", improvement_vs_persistence=None)
        ]
        text = render_report(rows)
        assert "## Skipped and failed runs" in text
        assert "toy / Sinformer @ 24: skipped (intractable at this horizon)" in text
        assert "3 ok, 1 skipped, 0 failed" in text

    def test_benchmark_dataset_gains_reported_columns(self):
        rows = [
            row(dataset="ETTh1", horizon=96, model="Persistence", mae=0.5,
                improvement_vs_persistence=None),
            row(dataset="ETTh1", horizon=96, model="SLP", mae=0.45,
                improvement_vs_persistence=0.1),
        ]
        cells = grid_row(render_report(rows), "ETTh1", 96)
        assert cells["SLP"] == "**0.450** ✓"
        assert cells["FEDformer (reported)"] == "0.419"
        assert cells["Informer (reported)"] == "0.713"

    def test_unknown_dataset_has_no_reported_columns(self):
        # "toy" and the names a synthetic config's dataset takes from its generator
        for name in ("toy", "sine", "multi_sine_trend", "tidal"):
            rows = [dataclasses.replace(r, dataset=name) for r in self.rows()]
            text = render_report(rows)
            assert "(reported)" not in text
            assert list(grid_row(text, name, 24)) == ["dataset", "horizon", "Persistence", "SLP", "MLP"]

    def test_config_hash_line(self):
        text = render_report(self.rows(), config_hash="abc123")
        assert "Config hash: `abc123`" in text

    def test_rendering_is_deterministic(self):
        assert render_report(self.rows()) == render_report(self.rows())
