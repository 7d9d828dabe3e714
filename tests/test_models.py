"""Forecaster behavior: forward contracts, analytic examples, and
finite-difference gradient checks for every trainable variant."""

import base64
import gc
import io
import json
import re
import tracemalloc
import weakref
from dataclasses import asdict

import numpy as np
import pytest

from sinecast import models
from sinecast.autodiff import Tensor, backward, grad_check
from sinecast.errors import ConfigError, ShapeError
from sinecast.models import (
    VARIANTS,
    Forecaster,
    ModelConfig,
    addt2v_forward,
    attention,
    decoder_block,
    encoder_block,
    load_checkpoint,
    moving_average,
    persistence_forecast,
    save_checkpoint,
)


def f64_bytes(values) -> bytes:
    """A parameter's checkpoint bytes, written independently of models.py."""
    return np.asarray(values, dtype="<f8").tobytes()


def _open_in_blocks(monkeypatch, block):
    """Make `models.open` return a buffered file over a raw one that reads or
    writes at most `block` bytes per call, as an OS may; returns the list of
    raw calls made."""
    calls = []

    class ShortIO(io.FileIO):
        def readinto(self, b):
            calls.append(1)
            return super().readinto(memoryview(b).cast("B")[:block])

        def write(self, b):
            calls.append(1)
            return super().write(memoryview(b).cast("B")[:block])

    def short_open(file, mode):
        raw = ShortIO(file, mode)
        return io.BufferedReader(raw) if "r" in mode else io.BufferedWriter(raw)

    monkeypatch.setattr(models, "open", short_open, raising=False)
    return calls


def brute_force_moving_average(row, kernel):
    """Mean of each `kernel`-step window centered on each step, indices clamped to the row."""
    n, half = len(row), kernel // 2
    return np.array([np.mean([row[min(max(i + t, 0), n - 1)] for t in range(-half, half + 1)]) for i in range(n)])


def toy_config(variant, input_len=8, horizon=8, channels=1, seed=0):
    return ModelConfig(
        variant=variant,
        input_len=input_len,
        horizon=horizon,
        channels=channels,
        d_model=8,
        n_heads=2,
        ffn_dim=8,
        ma_kernel=3,
        seed=seed,
    )


class TestModelConfig:
    def test_rejects_unknown_variant(self):
        with pytest.raises(ConfigError, match="variant"):
            ModelConfig(variant="LSTM", input_len=8, horizon=8, channels=1)

    def test_head_divisibility(self):
        with pytest.raises(ConfigError, match="n_heads"):
            ModelConfig(variant="Sencoder", input_len=8, horizon=8, channels=1,
                        d_model=10, n_heads=4)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError, match="ma_kernel"):
            ModelConfig(variant="DLinear", input_len=8, horizon=8, channels=1, ma_kernel=4)

    def test_nonpositive_lengths_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(variant="Linear", input_len=0, horizon=8, channels=1)


class TestPersistence:
    def test_repeats_last_window(self):
        x = Tensor(np.arange(12, dtype=float).reshape(1, 12, 1))
        out = persistence_forecast(x, 3)
        assert np.array_equal(out.data.ravel(), [9, 10, 11])

    def test_periodic_signal_continuation_is_exact(self):
        period = 4
        series = np.tile([0.0, 1.0, 0.0, -1.0], 10)
        x = Tensor(series[:24].reshape(1, 24, 1))
        truth = series[24:32]
        out = persistence_forecast(x, 8).data.ravel()
        assert np.abs(out - truth).max() == 0.0

    def test_horizon_longer_than_input_rejected(self):
        x = Tensor(np.zeros((1, 4, 1)))
        with pytest.raises(ConfigError, match="input_len >= horizon"):
            persistence_forecast(x, 5)

    def test_parameter_free_and_bitwise_deterministic(self):
        model = Forecaster(ModelConfig(variant="Persistence", input_len=8, horizon=4, channels=2))
        assert model.parameters() == []
        x = Tensor(np.random.default_rng(0).normal(size=(3, 8, 2)))
        a = model(x).data
        b = model(x).data
        assert np.array_equal(a, b)


class TestAddT2V:
    def _model(self, seed=1):
        return Forecaster(toy_config("SLP", input_len=5, horizon=4, seed=seed))

    def test_zero_periodic_branch_is_affine(self):
        m = self._model()
        m.embed.w_per.data[:] = 0.0
        m.embed.b_per.data[:] = 0.0
        x = np.random.default_rng(2).normal(size=(3, 5))
        got = addt2v_forward(m.embed, Tensor(x)).data
        expected = x @ m.embed.w_lin.data.T + m.embed.b_lin.data
        assert np.abs(got - expected).max() < 1e-12

    def test_constant_one_when_only_periodic_bias(self):
        m = self._model()
        for p in (m.embed.w_lin, m.embed.b_lin, m.embed.w_per):
            p.data[:] = 0.0
        m.embed.b_per.data[:] = np.pi / 2.0
        got = addt2v_forward(m.embed, Tensor(np.random.default_rng(3).normal(size=(2, 5)))).data
        assert np.abs(got - 1.0).max() < 1e-12

    def test_matches_two_branch_recomputation(self):
        m = self._model(seed=7)
        x = np.random.default_rng(4).normal(size=(6, 5))
        got = addt2v_forward(m.embed, Tensor(x)).data
        lin = x @ m.embed.w_lin.data.T + m.embed.b_lin.data
        per = np.sin(x @ m.embed.w_per.data.T + m.embed.b_per.data)
        assert np.abs(got - (lin + per)).max() < 1e-12

    def test_width_mismatch(self):
        m = self._model()
        with pytest.raises(ShapeError):
            addt2v_forward(m.embed, Tensor(np.zeros((2, 9))))


class TestSLP:
    def test_outputs_bounded_by_sine(self):
        m = Forecaster(toy_config("SLP", input_len=12, horizon=6, channels=3))
        x = Tensor(np.random.default_rng(5).normal(size=(4, 12, 3)) * 10)
        out = m(x).data
        assert out.shape == (4, 6, 3)
        assert np.abs(out).max() <= 1.0

    def test_identity_head_gives_sin_of_embedding(self):
        m = Forecaster(toy_config("SLP", input_len=5, horizon=5, seed=2))
        m.embed.w_per.data[:] = 0.0
        m.embed.b_per.data[:] = 0.0
        m.w.data[:] = np.eye(5)
        m.b.data[:] = 0.0
        x = np.random.default_rng(6).normal(size=(3, 5))
        h = x @ m.embed.w_lin.data.T + m.embed.b_lin.data
        got = m(Tensor(x.reshape(3, 5, 1))).data[:, :, 0]
        assert np.abs(got - np.sin(h)).max() < 1e-12


class TestMLP:
    def test_all_zero_parameters_give_zero_output(self):
        m = Forecaster(toy_config("MLP", input_len=6, horizon=4))
        for p in m.parameters():
            p.data[:] = 0.0
        out = m(Tensor(np.random.default_rng(7).normal(size=(2, 6, 1)))).data
        assert np.array_equal(out, np.zeros((2, 4, 1)))

    def test_relu_gates_negative_first_layer(self):
        m = Forecaster(toy_config("MLP", input_len=6, horizon=4))
        m.w1.data[:] = 0.0
        m.b1.data[:] = -1.0  # layer-1 preactivations all negative
        m.b2.data[:] = 0.0
        m.b3.data[:] = 0.0
        out = m(Tensor(np.random.default_rng(8).normal(size=(2, 6, 1)))).data
        assert np.abs(out).max() == 0.0


class TestLinearFamily:
    def test_nlinear_zero_weights_forecast_last_value(self):
        m = Forecaster(toy_config("NLinear", input_len=7, horizon=4, channels=2))
        m.w.data[:] = 0.0
        m.b.data[:] = 0.0
        x = np.random.default_rng(9).normal(size=(3, 7, 2))
        out = m(Tensor(x)).data
        expected = np.repeat(x[:, -1:, :], 4, axis=1)
        assert np.abs(out - expected).max() < 1e-12

    def test_dlinear_constant_series_has_zero_seasonal_part(self):
        m = Forecaster(toy_config("DLinear", input_len=9, horizon=3))
        const = np.full((1, 9, 1), 5.0)
        # trend of a constant series is the constant, so zeroing the trend
        # weight must zero the whole forecast (seasonal part is zero)
        m.w_trend.data[:] = 0.0
        m.b.data[:] = 0.0
        out = m(Tensor(const)).data
        assert np.abs(out).max() < 1e-12

    @pytest.mark.parametrize("input_len, kernel", [(20, 3), (9, 5), (6, 25), (30, 25)])
    def test_dlinear_forward_is_trend_head_plus_seasonal_head(self, input_len, kernel):
        cfg = ModelConfig(variant="DLinear", input_len=input_len, horizon=4, channels=2,
                          ma_kernel=kernel, seed=10)
        m = Forecaster(cfg)
        m.b.data[:] = np.random.default_rng(9).normal(size=4)
        x = np.random.default_rng(10).normal(size=(3, input_len, 2))
        rows = x.transpose(0, 2, 1).reshape(6, input_len)
        trend = np.stack([brute_force_moving_average(r, kernel) for r in rows])
        expected = trend @ m.w_trend.data.T + (rows - trend) @ m.w_seasonal.data.T + m.b.data
        out = m(Tensor(x)).data.transpose(0, 2, 1).reshape(6, 4)
        assert np.abs(out - expected).max() < 1e-12

    def test_linear_is_plain_affine(self):
        m = Forecaster(toy_config("Linear", input_len=7, horizon=4, seed=3))
        x = np.random.default_rng(11).normal(size=(2, 7, 1))
        out = m(Tensor(x)).data[:, :, 0]
        expected = x[:, :, 0] @ m.w.data.T + m.b.data
        assert np.abs(out - expected).max() < 1e-12


class TestMovingAverage:
    def test_constant_series_unchanged(self):
        assert np.abs(moving_average(np.full(11, 3.5), 5) - 3.5).max() < 1e-12

    def test_spike_example(self):
        got = moving_average(np.array([0.0, 0.0, 3.0, 0.0, 0.0]), 3)
        assert np.abs(got - np.array([0.0, 1.0, 1.0, 1.0, 0.0])).max() < 1e-12

    # (batch shape, length, kernel): lengths below kernel // 2 pad with
    # more copies of an edge value than the series has steps
    @pytest.mark.parametrize("batch, length, kernel", [
        ((), 17, 5), ((), 1, 3), ((), 5, 25), ((), 30, 25), ((4,), 6, 25), ((3,), 40, 7), ((2, 3), 11, 5),
    ], ids=["17-k5", "1-k3", "5-k25", "30-k25", "4x6-k25", "3x40-k7", "2x3x11-k5"])
    def test_matches_brute_force_with_edge_replication(self, batch, length, kernel):
        x = np.random.default_rng(12).normal(size=batch + (length,))
        rows = x.reshape(-1, length)
        expected = np.stack([brute_force_moving_average(r, kernel) for r in rows]).reshape(x.shape)
        got = moving_average(x, kernel)
        assert got.shape == x.shape
        assert np.abs(got - expected).max() < 1e-12

    def test_even_kernel_rejected(self):
        for kernel in (4, 1):
            with pytest.raises(ConfigError):
                moving_average(np.zeros(5), kernel)


class TestAttention:
    def test_single_key_returns_its_value(self):
        rng = np.random.default_rng(13)
        q = Tensor(rng.normal(size=(4, 3)))
        k = Tensor(rng.normal(size=(1, 3)))
        v = Tensor(rng.normal(size=(1, 3)))
        out = attention(q, k, v).data
        assert np.abs(out - v.data).max() < 1e-12

    def test_identical_keys_average_values(self):
        rng = np.random.default_rng(14)
        q = Tensor(rng.normal(size=(2, 3)))
        k = Tensor(np.tile(rng.normal(size=(1, 3)), (5, 1)))
        v = Tensor(rng.normal(size=(5, 3)))
        out = attention(q, k, v).data
        assert np.abs(out - v.data.mean(axis=0)).max() < 1e-12

    def test_joint_key_value_permutation_invariance(self):
        rng = np.random.default_rng(15)
        q = Tensor(rng.normal(size=(6, 4)))
        k = rng.normal(size=(9, 4))
        v = rng.normal(size=(9, 4))
        perm = rng.permutation(9)
        base = attention(q, Tensor(k), Tensor(v)).data
        permuted = attention(q, Tensor(k[perm]), Tensor(v[perm])).data
        assert np.abs(base - permuted).max() < 1e-12

    def test_causal_mask_blocks_future_positions(self):
        rng = np.random.default_rng(16)
        q = Tensor(rng.normal(size=(5, 4)))
        k = Tensor(rng.normal(size=(5, 4)))
        v = rng.normal(size=(5, 4))
        base = attention(q, k, Tensor(v), causal=True).data
        v2 = v.copy()
        v2[3:] += 100.0  # rows later than position 2
        bumped = attention(q, k, Tensor(v2), causal=True).data
        assert np.abs(base[:3] - bumped[:3]).max() < 1e-12
        assert np.abs(base[3:] - bumped[3:]).max() > 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            attention(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros((4, 5))))


class TestEncoderBlock:
    def _model(self):
        return Forecaster(toy_config("Sencoder", seed=4))

    def test_zero_weights_leave_pure_residual_path(self):
        m = self._model()
        for name in ("enc.attn.w_q", "enc.attn.w_k", "enc.attn.w_v", "enc.attn.w_o",
                     "enc.ffn.w1", "enc.ffn.w2"):
            m.params[name].data[:] = 0.0
        x = np.random.default_rng(17).normal(size=(2, 8, 8))
        got = encoder_block(m.encoder, Tensor(x)).data

        def ln(a):
            mu = a.mean(axis=-1, keepdims=True)
            var = ((a - mu) ** 2).mean(axis=-1, keepdims=True)
            return (a - mu) / np.sqrt(var + 1e-5)

        assert np.abs(got - ln(ln(x))).max() < 1e-12

    def test_shape_contract(self):
        m = self._model()
        x = Tensor(np.random.default_rng(18).normal(size=(3, 8, 8)))
        assert encoder_block(m.encoder, x).shape == (3, 8, 8)

    def test_gradients_through_block(self):
        m = self._model()
        x = Tensor(np.random.default_rng(19).normal(size=(2, 8, 8)))
        target = Tensor(np.random.default_rng(20).normal(size=(2, 8, 8)))
        err = grad_check(
            lambda: (encoder_block(m.encoder, x) - target).abs().mean(),
            m.parameters(),
            max_coords_per_param=4,
        )
        assert err < 1e-4


class TestDecoderWiring:
    def test_zeroed_cross_attention_ignores_encoder_memory(self):
        m = Forecaster(toy_config("Sinformer", seed=5))
        for name in ("dec.cross_attn.w_q", "dec.cross_attn.w_k",
                     "dec.cross_attn.w_v", "dec.cross_attn.w_o"):
            m.params[name].data[:] = 0.0
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 8, 8)))
        mem1 = Tensor(rng.normal(size=(2, 8, 8)))
        mem2 = Tensor(mem1.data + rng.normal(size=(2, 8, 8)))
        out1 = decoder_block(m.decoder, x, mem1).data
        out2 = decoder_block(m.decoder, x, mem2).data
        assert np.abs(out1 - out2).max() < 1e-12

    def test_masked_self_attention_is_causal(self):
        m = Forecaster(toy_config("Sinformer", seed=6))
        for name in ("dec.cross_attn.w_v", "dec.cross_attn.w_o"):
            m.params[name].data[:] = 0.0  # silence cross path to isolate self-attn
        rng = np.random.default_rng(22)
        x = rng.normal(size=(1, 8, 8))
        mem = Tensor(rng.normal(size=(1, 8, 8)))
        base = decoder_block(m.decoder, Tensor(x), mem).data
        x2 = x.copy()
        x2[:, 5:, :] += 10.0  # only positions after index 4 change
        bumped = decoder_block(m.decoder, Tensor(x2), mem).data
        assert np.abs(base[:, :5, :] - bumped[:, :5, :]).max() < 1e-12


class TestFullModels:
    @pytest.mark.parametrize("variant", [v for v in VARIANTS if v != "Persistence"])
    def test_shape_contract(self, variant):
        cfg = toy_config(variant, input_len=10, horizon=6, channels=3, seed=8)
        m = Forecaster(cfg)
        x = Tensor(np.random.default_rng(23).normal(size=(4, 10, 3)))
        out = m(x)
        assert out.shape == (4, 6, 3)

    @pytest.mark.parametrize("variant", ["SLP", "Sencoder", "Sinformer"])
    def test_sinusoidal_heads_bounded(self, variant):
        m = Forecaster(toy_config(variant, seed=9))
        x = Tensor(np.random.default_rng(24).normal(size=(3, 8, 1)) * 20)
        assert np.abs(m(x).data).max() <= 1.0

    def test_wrong_input_shape_rejected(self):
        m = Forecaster(toy_config("Linear"))
        with pytest.raises(ShapeError):
            m(Tensor(np.zeros((2, 9, 1))))

    @pytest.mark.parametrize("variant", ["Linear", "NLinear", "DLinear", "SLP", "MLP"])
    def test_channels_are_independent_and_shared(self, variant):
        # swapping channels in the input swaps them in the output
        m = Forecaster(toy_config(variant, input_len=8, horizon=5, channels=2, seed=10))
        x = np.random.default_rng(25).normal(size=(3, 8, 2))
        out = m(Tensor(x)).data
        swapped = m(Tensor(x[:, :, ::-1].copy())).data
        assert np.abs(out[:, :, ::-1] - swapped).max() < 1e-12

    @pytest.mark.parametrize("variant", ["Linear", "NLinear", "DLinear", "SLP", "MLP"])
    def test_gradients_match_finite_differences(self, variant):
        m = Forecaster(toy_config(variant, input_len=6, horizon=4, channels=2, seed=11))
        x = Tensor(np.random.default_rng(26).normal(size=(3, 6, 2)))
        y = Tensor(np.random.default_rng(27).normal(size=(3, 4, 2)))
        err = grad_check(lambda: (m(x) - y).abs().mean(), m.parameters(), max_coords_per_param=6)
        assert err < 1e-4

    @pytest.mark.parametrize("variant", ["Sencoder", "Sinformer"])
    def test_attention_output_does_not_depend_on_batch_size(self, variant):
        m = Forecaster(toy_config(variant, channels=2, seed=14))
        x = np.random.default_rng(31).normal(size=(4, 8, 2))
        together = m(Tensor(x)).data
        alone = np.concatenate([m(Tensor(x[i:i + 1])).data for i in range(4)])
        assert np.abs(together - alone).max() < 1e-12

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_model_freed_without_the_cycle_collector(self, variant):
        # a forward stores no bound method (a model -> method -> model cycle)
        m = Forecaster(toy_config(variant, seed=13))
        m(Tensor(np.ones((2, 8, 1))))
        ref = weakref.ref(m)
        gc.disable()
        try:
            del m
            assert ref() is None
        finally:
            gc.enable()

    def test_sinformer_holds_no_horizon_squared_constant(self):
        # the decoder's causal self-attention stores nothing of [L, L]: at
        # L=720 an additive mask alone would be 4.1 MB
        def held(variant):
            tracemalloc.start()
            try:
                model = Forecaster._unset(ModelConfig(variant=variant, input_len=720, horizon=720, channels=1))
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        extra = held("Sinformer") - held("Sencoder")
        assert extra < 1_000_000, extra

    @pytest.mark.parametrize("variant", ["Sencoder", "Sinformer"])
    def test_attention_model_gradients(self, variant):
        m = Forecaster(toy_config(variant, seed=12))
        x = Tensor(np.random.default_rng(28).normal(size=(2, 8, 1)))
        y = Tensor(np.random.default_rng(29).normal(size=(2, 8, 1)) * 0.5)
        err = grad_check(lambda: (m(x) - y).abs().mean(), m.parameters(), max_coords_per_param=3)
        assert err < 1e-4


class TestCheckpoints:
    def test_round_trip_is_bit_exact(self, tmp_path):
        m = Forecaster(toy_config("Sinformer", seed=13))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        m2 = load_checkpoint(path)
        assert m2.config == m.config
        for name, p in m.params.items():
            assert np.array_equal(p.data, m2.params[name].data), name
        x = Tensor(np.random.default_rng(30).normal(size=(2, 8, 1)))
        assert np.array_equal(m(x).data, m2(x).data)

    @pytest.mark.parametrize("channels", [1, 3])
    @pytest.mark.parametrize("horizon", [24, 96, 720])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_variant_round_trips_bit_exactly(self, tmp_path, variant, horizon, channels):
        config = ModelConfig(variant=variant, input_len=96, horizon=horizon, channels=channels, seed=5)
        m = Forecaster(config)
        extremes = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308]
        for p in m.params.values():
            p.data.flat[: len(extremes)] = extremes[: p.size]
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path)
        assert loaded.config == config
        assert list(loaded.params) == list(m.params)
        for name, p in m.params.items():
            assert np.array_equal(loaded.params[name].data, p.data), name
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name

    def test_parameter_name_mismatch_rejected(self, tmp_path):
        path = self._rewritten(tmp_path, lambda header, m: header["parameters"].append(["bogus", [1]]))
        with pytest.raises(ConfigError, match="bogus"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        path = self._rewritten(tmp_path, lambda header, m: header["config"].update(depth=3))
        with pytest.raises(ConfigError, match="depth"):
            load_checkpoint(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = self._rewritten(tmp_path, lambda header, m: header["config"].update(seed=-1))
        with pytest.raises(ConfigError, match=r"model\.json: config: seed=-1"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        m, path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        w_start = data.index(b"\n") + 1  # w is the first parameter of a Linear model
        data[w_start + 3 * 8 : w_start + 4 * 8] = f64_bytes([float("nan")])
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="checkpoint w: non-finite"):
            load_checkpoint(path)

    def test_extreme_values_round_trip_bit_exactly(self, tmp_path):
        m = Forecaster(toy_config("Linear"))
        values = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1 / 3]
        w = m.params["w"].data
        w.flat[: len(values)] = values
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        loaded = load_checkpoint(path).params["w"].data
        assert loaded.tobytes() == w.tobytes()
        assert np.signbit(loaded.flat[0])
        assert loaded.flags.writeable and loaded.flags.c_contiguous

    def test_size_is_eight_bytes_per_parameter_plus_the_header(self, tmp_path):
        m = Forecaster(ModelConfig(variant="Linear", input_len=720, horizon=720, channels=1))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        assert path.stat().st_size <= 8 * m.n_parameters() + 4096

    @pytest.mark.parametrize("block", [None, 3, 6])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bytes_equal_json_dumps_of_the_payload(self, tmp_path, monkeypatch, variant, block):
        # the header line is json.dumps of the header; 3- and 6-byte raw writes split it and every parameter
        if block is not None:
            calls = _open_in_blocks(monkeypatch, block)
        m = Forecaster(toy_config(variant, channels=2, seed=21))
        header = {
            "format": "sinecast-checkpoint-f64le",
            "config": asdict(m.config),
            "parameters": [[name, list(p.shape)] for name, p in m.params.items()],
        }
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        payload = b"".join(f64_bytes(p.data) for p in m.params.values())
        assert path.read_bytes() == json.dumps(header).encode() + b"\n" + payload
        if block is not None:
            assert len(calls) >= path.stat().st_size // block
        assert [f.name for f in tmp_path.iterdir()] == ["model.json"]

    def _saved(self, tmp_path, variant="Linear"):
        m = Forecaster(toy_config(variant, channels=2, seed=21))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        return m, path

    def _rewritten(self, tmp_path, edit, variant="Linear"):
        """A saved checkpoint whose header `edit(header, model)` changed; the payload is kept."""
        m, path = self._saved(tmp_path, variant)
        line, payload = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        edit(header, m)
        path.write_bytes(json.dumps(header).encode() + b"\n" + payload)
        return path

    def _assert_loads_identically(self, path, m):
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        assert loaded.params.keys() == m.params.keys()
        for name, p in m.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
            assert loaded.params[name].shape == p.shape, name

    def test_wrong_byte_count_rejected(self, tmp_path):
        m, path = self._saved(tmp_path)
        size = path.stat().st_size
        with open(path, "ab") as fh:
            fh.write(f64_bytes([0.0]))
        message = f"checkpoint {re.escape(str(path))}: {size + 8} bytes vs expected {size}"
        with pytest.raises(ConfigError, match=message):
            load_checkpoint(path)

    @pytest.mark.parametrize("cut", ['"variant"', "\n"], ids=["in-config", "in-payload"])
    def test_truncated_file_rejected(self, tmp_path, cut):
        # in-payload: 5 bytes into w, the first parameter
        m, path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(cut.encode()) + len(cut) + 5])
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: "):
            load_checkpoint(path)

    def test_missing_encoded_data_rejected(self, tmp_path):
        m, path = self._saved(tmp_path)
        line = path.read_bytes().split(b"\n", 1)[0] + b"\n"
        path.write_bytes(line)
        expected = len(line) + 8 * m.n_parameters()
        with pytest.raises(ConfigError, match=f"{len(line)} bytes vs expected {expected}"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = self._rewritten(tmp_path, lambda header, m: header["parameters"][0].__setitem__(1, [3, 5]))
        with pytest.raises(ConfigError, match=r"checkpoint w: shape \[3, 5\] vs expected \[8, 8\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda ps: ps.reverse(), r"parameters \['b3', 'w3'"),
            (lambda ps: ps[0].__setitem__(0, "w9"), r"parameters \['w9'"),
            (lambda ps: ps.pop(), r"parameters \[.*\] vs expected"),
            (lambda ps: ps.append(ps[0]), r"parameters \[.*\] vs expected"),
            (lambda ps: ps.__setitem__(0, "w1"), r"each parameter must be \[name, shape\]"),
        ],
        ids=["reversed", "renamed", "missing", "repeated", "not-a-pair"],
    )
    def test_parameter_list_other_than_the_models_rejected(self, tmp_path, edit, message):
        path = self._rewritten(tmp_path, lambda header, m: edit(header["parameters"]), variant="MLP")
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: {message}"):
            load_checkpoint(path)

    def test_old_list_format_rejected(self, tmp_path):
        m = Forecaster(toy_config("Linear"))
        path = tmp_path / "model.json"
        parameters = {name: {"shape": list(p.shape), "data": p.data.reshape(-1).tolist()}
                      for name, p in m.params.items()}
        path.write_text(json.dumps({"config": asdict(m.config), "parameters": parameters}))
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: .*earlier format.*sinecast run"):
            load_checkpoint(path)

    def test_old_base64_format_rejected_without_reading_it_whole(self, tmp_path):
        m = Forecaster(ModelConfig(variant="Linear", input_len=720, horizon=720, channels=1))
        path = tmp_path / "model.json"
        parameters = {
            name: {"shape": list(p.shape), "float64_le": base64.b64encode(f64_bytes(p.data)).decode()}
            for name, p in m.params.items()
        }
        path.write_text(json.dumps({"config": asdict(m.config), "parameters": parameters}))
        assert path.stat().st_size > 5_000_000
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: .*earlier format.*sinecast run"):
                load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json {\n")
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: header is not JSON"):
            load_checkpoint(path)

    def test_header_longer_than_the_bound_rejected(self, tmp_path):
        m, path = self._saved(tmp_path)
        line, payload = path.read_bytes().split(b"\n", 1)
        fill = models._HEADER_LIMIT - len(line) - 1  # JSON allows trailing spaces
        path.write_bytes(line + b" " * fill + b"\n" + payload)
        self._assert_loads_identically(path, m)
        path.write_bytes(line + b" " * (fill + 1) + b"\n" + payload)
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: no header line"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "rewrite",
        [
            # the header is one line, so an indented header is indented as a whole
            lambda header: "\t  " + json.dumps(header),
            lambda header: json.dumps(header, separators=(",", ":")),
            lambda header: json.dumps(dict(reversed(header.items()))),
            lambda header: json.dumps(header).replace('"format"', '"\\u0066ormat"'),
            lambda header: json.dumps({"note": 'a \\ "format": "\n', **header}),
        ],
        ids=["indented", "compact", "reordered", "escaped-key", "escaped-quotes-in-a-string"],
    )
    @pytest.mark.parametrize("block", [4, None])
    def test_reader_depends_on_the_json_only(self, tmp_path, monkeypatch, rewrite, block):
        m, path = self._saved(tmp_path, "MLP")
        line, payload = path.read_bytes().split(b"\n", 1)
        path.write_bytes(rewrite(json.loads(line)).encode() + b"\n" + payload)
        if block is not None:
            _open_in_blocks(monkeypatch, block)
        self._assert_loads_identically(path, m)

    @pytest.mark.parametrize("block", [4, 8])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_across_read_blocks(self, tmp_path, monkeypatch, variant, block):
        # 4- and 8-byte raw reads split the header line and every parameter across reads
        m, path = self._saved(tmp_path, variant)
        calls = _open_in_blocks(monkeypatch, block)
        self._assert_loads_identically(path, m)
        assert len(calls) >= path.stat().st_size // block

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.pop("config"),
            lambda p: p.pop("parameters"),
            lambda p: p.update(parameters=5),
            lambda p: p.update(parameters={"w": [8, 8]}),
            lambda p: p.update(format="sinecast-checkpoint-f32le"),
        ],
        ids=["no-config", "no-parameters", "numeric-parameters", "parameters-object", "other-format"],
    )
    def test_payload_not_a_checkpoint_object_rejected(self, tmp_path, edit):
        path = self._rewritten(tmp_path, lambda header, m: edit(header))
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: expected a JSON header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("horizon", 8.0), ("input_len", True)])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, key, value):
        path = self._rewritten(tmp_path, lambda header, m: header["config"].update({key: value}))
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: config \\['{key}'\\]"):
            load_checkpoint(path)

    def test_save_replaces_an_earlier_file_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(Forecaster(toy_config("Linear", seed=1)), path)
        m = Forecaster(toy_config("Linear", seed=2))
        save_checkpoint(m, str(path))
        assert np.array_equal(load_checkpoint(path).params["w"].data, m.params["w"].data)
        assert [f.name for f in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
    def test_failed_save_keeps_the_earlier_file(self, tmp_path, monkeypatch, error):
        path = tmp_path / "model.json"
        save_checkpoint(Forecaster(toy_config("MLP", seed=1)), path)
        before = path.read_bytes()
        calls = []

        class FailingFile(io.FileIO):
            def write(self, data):
                calls.append(1)
                if len(calls) == 3:
                    raise error("interrupted partway through the file")
                return super().write(data)

        monkeypatch.setattr(models, "open", lambda file, mode: FailingFile(file, mode), raising=False)
        with pytest.raises(error):
            save_checkpoint(Forecaster(toy_config("MLP", seed=2)), path)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.json"]

    @pytest.mark.parametrize("variant", ["Linear", "MLP"])
    def test_load_allocates_no_parameter_sized_copy(self, tmp_path, variant):
        config = ModelConfig(variant=variant, input_len=720, horizon=720, channels=1)
        path = tmp_path / "model.json"
        save_checkpoint(Forecaster(config), path)
        peaks = []
        for build in (lambda: Forecaster(config), lambda: load_checkpoint(path)):
            tracemalloc.start()
            try:
                build()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1_000_000, peaks

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_load_draws_no_weights_and_restores_the_saved_bytes(self, tmp_path, monkeypatch, variant):
        m = Forecaster(toy_config(variant, channels=2, seed=21))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew random weights")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        assert list(loaded.params) == list(m.params)
        for name, p in m.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name

    def test_load_peak_is_the_parameters(self, tmp_path):
        # no drawn weight beside the buffer it is copied into
        m = Forecaster(ModelConfig(variant="Linear", input_len=720, horizon=720, channels=1))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m.params["w"].data.nbytes + 1_000_000, peak

    @pytest.mark.parametrize("variant", ["Linear", "SLP", "MLP"])
    def test_load_peak_beyond_the_parameters_stays_small(self, tmp_path, variant):
        # the finiteness check makes no mask the size of a parameter (a
        # [720, 720] weight's mask alone is 518 KB)
        m = Forecaster(ModelConfig(variant=variant, input_len=720, horizon=720, channels=1))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        tracemalloc.start()
        try:
            load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 8 * m.n_parameters() < 64 * 1024, peak

    @pytest.mark.parametrize("value", [float("inf"), float("-inf")])
    def test_infinite_parameter_rejected(self, tmp_path, value):
        m, path = self._saved(tmp_path)
        data = bytearray(path.read_bytes())
        data[-8:] = f64_bytes([value])  # the last element of the last parameter, b
        path.write_bytes(data)
        with pytest.raises(ConfigError, match="checkpoint b: non-finite"):
            load_checkpoint(path)

    def test_save_allocates_no_parameter_sized_copy(self, tmp_path):
        m = Forecaster(ModelConfig(variant="Linear", input_len=720, horizon=720, channels=1))
        assert m.params["w"].data.nbytes > 4_000_000
        path = tmp_path / "model.json"
        tracemalloc.start()
        try:
            save_checkpoint(m, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak
