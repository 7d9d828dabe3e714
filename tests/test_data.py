"""Loading, splitting, standardization, and windowing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sinecast.data import (
    SplitSpec,
    TimeSeriesTable,
    apply_standardizer,
    batches,
    fit_standardizer,
    load_csv,
    make_windows,
    split,
)
from sinecast.errors import DataError, StandardizeError


def table_from(values, name="t"):
    return TimeSeriesTable(name=name, values=np.asarray(values, dtype=float))


class TestLoadCsv:
    def test_small_file(self, tmp_path):
        p = tmp_path / "small.csv"
        p.write_text("a,b\n1,2\n3,4\n5,6\n")
        t = load_csv(p)
        assert t.length == 3 and t.n_channels == 2
        assert t.columns == ("a", "b")
        assert np.array_equal(t.values, [[1, 2], [3, 4], [5, 6]])

    def test_timestamp_column_excluded(self, tmp_path):
        p = tmp_path / "ts.csv"
        p.write_text("date,x\n2020-01-01,1\n2020-01-02,2\n")
        t = load_csv(p, timestamp_column="date")
        assert t.columns == ("x",)
        assert np.array_equal(t.values, [[1], [2]])

    def test_header_only_is_empty(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b\n")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_truly_empty_file(self, tmp_path):
        p = tmp_path / "zero.csv"
        p.write_text("")
        with pytest.raises(DataError, match="empty"):
            load_csv(p)

    def test_bad_cell_reports_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(DataError, match=r"line 3.*'b'.*oops"):
            load_csv(p)

    def test_missing_cell_reported(self, tmp_path):
        p = tmp_path / "gap.csv"
        p.write_text("a,b\n1,2\n3,\n")
        with pytest.raises(DataError, match=r"line 3.*'b'.*missing"):
            load_csv(p)

    def test_ragged_row_reported(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("a,b\n1,2\n3\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_csv(tmp_path / "nope.csv")

    def test_unknown_timestamp_column(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("a\n1\n2\n")
        with pytest.raises(DataError, match="timestamp column"):
            load_csv(p, timestamp_column="date")


class TestSplit:
    def test_even_tenths(self):
        t = table_from(np.arange(20).reshape(10, 2))
        tr, va, te = split(t, SplitSpec(0.6, 0.2, 0.2))
        assert (tr.length, va.length, te.length) == (6, 2, 2)

    def test_hundred_rows(self):
        t = table_from(np.arange(100).reshape(100, 1))
        tr, va, te = split(t, SplitSpec(0.7, 0.1, 0.2))
        assert (tr.length, va.length, te.length) == (70, 10, 20)

    def test_floor_rule_on_awkward_length(self):
        # floor(7360*0.66)=4857, floor(7360*0.83)=6108
        t = table_from(np.arange(7360).reshape(7360, 1))
        tr, va, te = split(t, SplitSpec(0.66, 0.17, 0.17))
        assert (tr.length, va.length, te.length) == (4857, 1251, 1252)

    def test_segments_are_chronological_and_cover_everything(self):
        rng = np.random.default_rng(0)
        t = table_from(rng.normal(size=(37, 3)))
        tr, va, te = split(t, SplitSpec(0.5, 0.25, 0.25))
        rebuilt = np.vstack([tr.values, va.values, te.values])
        assert np.array_equal(rebuilt, t.values)

    def test_bad_fractions(self):
        with pytest.raises(DataError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(DataError):
            SplitSpec(1.0, 0.0, 0.0)

    def test_tiny_table_cannot_split(self):
        t = table_from([[1.0], [2.0]])
        with pytest.raises(DataError, match="empty segment"):
            split(t, SplitSpec(0.34, 0.33, 0.33))


class TestStandardizer:
    def test_two_point_channel(self):
        stats = fit_standardizer(table_from([[0.0], [2.0]]))
        assert stats.mean[0] == 1.0 and stats.std[0] == 1.0

    def test_constant_channel_rejected(self):
        t = TimeSeriesTable(name="t", values=np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]),
                            columns=("flat", "ok"))
        with pytest.raises(StandardizeError, match="flat"):
            fit_standardizer(t)

    def test_standardized_train_has_zero_mean_unit_std(self):
        rng = np.random.default_rng(1)
        t = table_from(rng.normal(loc=3.0, scale=7.0, size=(200, 4)))
        stats = fit_standardizer(t)
        z = apply_standardizer(t, stats).values
        assert np.abs(z.mean(axis=0)).max() < 1e-10
        assert np.abs(z.std(axis=0) - 1.0).max() < 1e-10

    def test_population_std_not_sample_std(self):
        t = table_from([[0.0], [1.0], [2.0]])
        stats = fit_standardizer(t)
        assert abs(stats.std[0] - np.sqrt(2.0 / 3.0)) < 1e-15

    def test_apply_then_invert_roundtrip(self):
        rng = np.random.default_rng(2)
        t = table_from(rng.normal(size=(50, 3)) * 100 + 5)
        stats = fit_standardizer(t)
        back = apply_standardizer(t, stats).values * stats.std + stats.mean
        assert np.abs(back - t.values).max() < 1e-12

    def test_stats_ignore_other_segments(self):
        rng = np.random.default_rng(3)
        t = table_from(rng.normal(size=(100, 2)))
        tr, va, te = split(t, SplitSpec(0.6, 0.2, 0.2))
        stats = fit_standardizer(tr)
        shifted = TimeSeriesTable(name="t", values=np.vstack([tr.values, va.values, te.values + 1000.0]))
        tr2, _, _ = split(shifted, SplitSpec(0.6, 0.2, 0.2))
        stats2 = fit_standardizer(tr2)
        assert np.array_equal(stats.mean, stats2.mean)
        assert np.array_equal(stats.std, stats2.std)

    def test_channel_mismatch(self):
        stats = fit_standardizer(table_from([[0.0], [2.0]]))
        with pytest.raises(StandardizeError, match="channels"):
            apply_standardizer(table_from([[0.0, 1.0], [2.0, 3.0]]), stats)


class TestWindows:
    def test_tiny_example(self):
        t = table_from(np.arange(5).reshape(5, 1))
        ds = make_windows(t, input_len=2, horizon=1, stride=1)
        assert len(ds) == 3
        xs, ys = ds.gather(np.arange(len(ds)))
        assert np.array_equal(xs[0].ravel(), [0, 1])
        assert np.array_equal(ys[0].ravel(), [2])

    def test_too_short_gives_empty(self):
        t = table_from(np.arange(5).reshape(5, 1))
        ds = make_windows(t, input_len=3, horizon=3)
        assert len(ds) == 0

    def test_strided_count(self):
        t = table_from(np.arange(100).reshape(100, 1))
        ds = make_windows(t, input_len=10, horizon=5, stride=2)
        assert len(ds) == 43

    def test_target_follows_input_contiguously(self):
        t = table_from(np.arange(30).reshape(30, 1))
        ds = make_windows(t, input_len=4, horizon=3, stride=5)
        xs, ys = ds.gather(np.arange(len(ds)))
        for k in range(len(ds)):
            x = xs[k].ravel()
            y = ys[k].ravel()
            assert y[0] == x[-1] + 1
            assert np.array_equal(np.diff(np.concatenate([x, y])), np.ones(6))

    def test_gather_matches_full_materialization(self):
        rng = np.random.default_rng(4)
        t = table_from(rng.normal(size=(40, 2)))
        ds = make_windows(t, input_len=5, horizon=3, stride=2)
        idx = np.array([0, 3, 7])
        xs, ys = ds.gather(idx)
        assert np.array_equal(xs, np.stack([t.values[2 * k:2 * k + 5] for k in idx]))
        assert np.array_equal(ys, np.stack([t.values[2 * k + 5:2 * k + 8] for k in idx]))

    @settings(max_examples=200, deadline=None)
    @given(
        t=st.integers(min_value=2, max_value=300),
        i=st.integers(min_value=1, max_value=50),
        l=st.integers(min_value=1, max_value=50),
        stride=st.integers(min_value=1, max_value=9),
    )
    def test_window_count_formula(self, t, i, l, stride):
        table = table_from(np.arange(t, dtype=float).reshape(t, 1))
        ds = make_windows(table, input_len=i, horizon=l, stride=stride)
        expected = (t - i - l) // stride + 1 if t >= i + l else 0
        assert len(ds) == expected
        # last window must fit entirely inside the segment
        if expected:
            assert ds.starts[-1] + i + l <= t


class TestBatches:
    def _ds(self, n_rows=16):
        t = table_from(np.arange(n_rows, dtype=float).reshape(n_rows, 1))
        return make_windows(t, input_len=2, horizon=1)

    def test_sizes(self):
        ds = self._ds(12)  # N = 10
        sizes = [len(x) for x, _ in batches(ds, 4)]
        assert sizes == [4, 4, 2]

    def test_every_window_once(self):
        ds = self._ds()
        seen = np.concatenate([x[:, 0, 0] for x, _ in batches(ds, 3, shuffle_seed=9)])
        assert sorted(seen.tolist()) == ds.gather(np.arange(len(ds)))[0][:, 0, 0].tolist()

    def test_same_seed_same_order(self):
        ds = self._ds()
        a = [x.copy() for x, _ in batches(ds, 5, shuffle_seed=42)]
        b = [x.copy() for x, _ in batches(ds, 5, shuffle_seed=42)]
        for xa, xb in zip(a, b):
            assert np.array_equal(xa, xb)

    def test_no_seed_keeps_order(self):
        ds = self._ds()
        first_x, first_y = next(iter(batches(ds, 4)))
        xs, ys = ds.gather(np.arange(4))
        assert np.array_equal(first_x, xs)
        assert np.array_equal(first_y, ys)

    def test_bad_batch_size(self):
        with pytest.raises(DataError):
            list(batches(self._ds(), 0))
