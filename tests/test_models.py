"""Forecaster behavior: forward contracts, analytic examples, and
finite-difference gradient checks for every trainable variant."""

import base64
import binascii
import json
import re
import tracemalloc
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
    causal_mask,
    decoder_block,
    encoder_block,
    load_checkpoint,
    moving_average,
    persistence_forecast,
    save_checkpoint,
)


def encode_f64(values) -> str:
    """A parameter's checkpoint encoding, written independently of models.py."""
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


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
        mask = causal_mask(5)
        base = attention(q, k, Tensor(v), mask).data
        v2 = v.copy()
        v2[3:] += 100.0  # rows later than position 2
        bumped = attention(q, k, Tensor(v2), mask).data
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
        out1 = decoder_block(m.decoder, x, mem1, m._mask).data
        out2 = decoder_block(m.decoder, x, mem2, m._mask).data
        assert np.abs(out1 - out2).max() < 1e-12

    def test_masked_self_attention_is_causal(self):
        m = Forecaster(toy_config("Sinformer", seed=6))
        for name in ("dec.cross_attn.w_v", "dec.cross_attn.w_o"):
            m.params[name].data[:] = 0.0  # silence cross path to isolate self-attn
        rng = np.random.default_rng(22)
        x = rng.normal(size=(1, 8, 8))
        mem = Tensor(rng.normal(size=(1, 8, 8)))
        base = decoder_block(m.decoder, Tensor(x), mem, m._mask).data
        x2 = x.copy()
        x2[:, 5:, :] += 10.0  # only positions after index 4 change
        bumped = decoder_block(m.decoder, Tensor(x2), mem, m._mask).data
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

    def test_parameter_name_mismatch_rejected(self, tmp_path):
        m = Forecaster(toy_config("Linear"))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        payload = json.loads(path.read_text())
        payload["parameters"]["bogus"] = {"shape": [1], "float64_le": encode_f64([0.0])}
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="bogus"):
            load_checkpoint(path)

    def test_unknown_config_key_rejected(self, tmp_path):
        m = Forecaster(toy_config("Linear"))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        payload = json.loads(path.read_text())
        payload["config"]["depth"] = 3
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="depth"):
            load_checkpoint(path)

    def test_negative_seed_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        save_checkpoint(Forecaster(toy_config("Linear")), path)
        payload = json.loads(path.read_text())
        payload["config"]["seed"] = -1
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match=r"model\.json: config: seed=-1"):
            load_checkpoint(path)

    def test_non_finite_parameter_rejected(self, tmp_path):
        m = Forecaster(toy_config("Linear"))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        payload = json.loads(path.read_text())
        w = m.params["w"].data.copy()
        w.flat[3] = float("nan")
        payload["parameters"]["w"]["float64_le"] = encode_f64(w)
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="non-finite"):
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

    def test_size_is_about_eleven_bytes_per_parameter(self, tmp_path):
        m = Forecaster(ModelConfig(variant="Linear", input_len=720, horizon=720, channels=1))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        assert path.stat().st_size <= 11 * m.n_parameters() + 4096

    def _rewritten(self, tmp_path, edit):
        m = Forecaster(toy_config("Linear"))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        payload = json.loads(path.read_text())
        edit(payload, m)
        path.write_text(json.dumps(payload))
        return path

    def _tampered(self, tmp_path, edit):
        return self._rewritten(tmp_path, lambda payload, m: edit(payload["parameters"]["w"], m.params["w"].data))

    def test_invalid_base64_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda e, w: e.update(float64_le="not*base64"))
        with pytest.raises(ConfigError, match="checkpoint w: invalid base64"):
            load_checkpoint(path)

    def test_wrong_byte_count_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda e, w: e.update(float64_le=encode_f64(w.flat[:-1])))
        with pytest.raises(ConfigError, match="checkpoint w: 504 bytes vs expected 512"):
            load_checkpoint(path)

    def test_shape_mismatch_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda e, w: e.update(shape=[3, 5]))
        with pytest.raises(ConfigError, match=r"checkpoint w: shape \[3, 5\] vs expected \[8, 8\]"):
            load_checkpoint(path)

    def test_missing_encoded_data_rejected(self, tmp_path):
        path = self._tampered(tmp_path, lambda e, w: [e.clear(), e.update(shape=[8, 8])])
        with pytest.raises(ConfigError, match="checkpoint w: missing key 'float64_le'"):
            load_checkpoint(path)

    def test_old_list_format_rejected(self, tmp_path):
        def to_list_format(entry, w):
            entry.pop("float64_le", None)
            entry["data"] = w.reshape(-1).tolist()

        path = self._tampered(tmp_path, to_list_format)
        with pytest.raises(ConfigError, match="checkpoint w: old list-format.*sinecast run"):
            load_checkpoint(path)

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("not json {")
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: not a JSON file"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "edit",
        [lambda p: p.pop("config"), lambda p: p.pop("parameters"), lambda p: p.update(parameters=5)],
        ids=["no-config", "no-parameters", "numeric-parameters"],
    )
    def test_payload_not_a_checkpoint_object_rejected(self, tmp_path, edit):
        path = self._rewritten(tmp_path, lambda payload, m: edit(payload))
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: expected a JSON object"):
            load_checkpoint(path)

    @pytest.mark.parametrize("key, value", [("horizon", 8.0), ("input_len", True)])
    def test_config_value_of_wrong_type_rejected(self, tmp_path, key, value):
        path = self._rewritten(tmp_path, lambda payload, m: payload["config"].update({key: value}))
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: config \\['{key}'\\]"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", [None, 3, 6])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bytes_equal_json_dumps_of_the_payload(self, tmp_path, monkeypatch, variant, block):
        # blocks of 3 and 6 elements split every parameter and end most in a partial block
        if block is not None:
            monkeypatch.setattr(models, "_B64_BLOCK", block)
        m = Forecaster(toy_config(variant, channels=2, seed=21))
        payload = {
            "config": asdict(m.config),
            "parameters": {
                name: {"shape": list(p.shape), "float64_le": encode_f64(p.data)} for name, p in m.params.items()
            },
        }
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        assert path.read_bytes() == json.dumps(payload).encode()

    def test_block_is_a_whole_number_of_base64_groups(self):
        assert models._B64_BLOCK % 3 == 0
        assert models._READ_BLOCK % 4 == 0

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

        def failing_b2a_base64(data, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise error("interrupted partway through the file")
            return binascii.b2a_base64(data, **kwargs)

        monkeypatch.setattr(models.binascii, "b2a_base64", failing_b2a_base64)
        with pytest.raises(error):
            save_checkpoint(Forecaster(toy_config("MLP", seed=2)), path)
        assert len(calls) == 3
        assert path.read_bytes() == before
        assert [f.name for f in tmp_path.iterdir()] == ["model.json"]

    def _saved(self, tmp_path, variant="Linear"):
        m = Forecaster(toy_config(variant, channels=2, seed=21))
        path = tmp_path / "model.json"
        save_checkpoint(m, path)
        return m, path

    def _assert_loads_identically(self, path, m):
        loaded = load_checkpoint(path)
        assert loaded.config == m.config
        assert loaded.params.keys() == m.params.keys()
        for name, p in m.params.items():
            assert loaded.params[name].data.tobytes() == p.data.tobytes(), name
            assert loaded.params[name].shape == p.shape, name

    @pytest.mark.parametrize("block", [4, 8])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_round_trip_across_read_blocks(self, tmp_path, monkeypatch, variant, block):
        # 4- and 8-byte reads split every key, marker and base64 string across blocks
        monkeypatch.setattr(models, "_READ_BLOCK", block)
        m, path = self._saved(tmp_path, variant)
        self._assert_loads_identically(path, m)

    @pytest.mark.parametrize(
        "rewrite",
        [
            lambda payload: json.dumps(payload, indent=1),
            lambda payload: json.dumps(
                {
                    "parameters": {
                        name: {"float64_le": e["float64_le"], "shape": e["shape"]}
                        for name, e in payload["parameters"].items()
                    },
                    "config": payload["config"],
                }
            ),
            lambda payload: json.dumps(payload).replace('"float64_le"', '"float64\\u005fle"'),
            lambda payload: json.dumps(
                {
                    **payload,
                    "parameters": {
                        name: {"note": 'a \\ "float64_le": "', **e} for name, e in payload["parameters"].items()
                    },
                }
            ),
        ],
        ids=["indented", "float64_le-before-shape", "escaped-key", "escaped-quotes-in-a-string"],
    )
    @pytest.mark.parametrize("block", [4, None])
    def test_reader_depends_on_the_json_only(self, tmp_path, monkeypatch, rewrite, block):
        if block is not None:
            monkeypatch.setattr(models, "_READ_BLOCK", block)
        m, path = self._saved(tmp_path, "MLP")
        path.write_text(rewrite(json.loads(path.read_text())))
        self._assert_loads_identically(path, m)

    @pytest.mark.parametrize("cut", ['"variant"', '"float64_le": "'], ids=["in-config", "in-base64"])
    def test_truncated_file_rejected(self, tmp_path, cut):
        m, path = self._saved(tmp_path)
        data = path.read_bytes()
        path.write_bytes(data[: data.index(cut.encode()) + len(cut) + 5])
        with pytest.raises(ConfigError, match=f"checkpoint {re.escape(str(path))}: not a JSON file"):
            load_checkpoint(path)

    @pytest.mark.parametrize("block", [4, None])
    def test_padding_before_the_end_rejected(self, tmp_path, monkeypatch, block):
        if block is not None:
            monkeypatch.setattr(models, "_READ_BLOCK", block)

        def pad_after_first_byte(entry, w):
            # the right byte count, but a padded group before the last one
            raw = w.astype("<f8").tobytes()
            entry["float64_le"] = (base64.b64encode(raw[:1]) + base64.b64encode(raw[1:])).decode()

        path = self._tampered(tmp_path, pad_after_first_byte)
        with pytest.raises(ConfigError, match="checkpoint w: invalid base64"):
            load_checkpoint(path)

    def test_json_escape_in_base64_string_rejected(self, tmp_path):
        m, path = self._saved(tmp_path)
        text = path.read_text()
        start = text.index('"float64_le": "') + len('"float64_le": "')
        path.write_text(f"{text[:start]}\\u{ord(text[start]):04x}{text[start + 1:]}")
        assert json.loads(path.read_text()) == json.loads(text)
        with pytest.raises(ConfigError, match="invalid base64"):
            load_checkpoint(path)

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
            assert loaded.params[name].is_bias == p.is_bias

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
