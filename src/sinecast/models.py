"""The eight forecasters and the building blocks they share.

Every parametric model is channel independent: a [B, I, C] batch is folded
to [B*C, I], pushed through weights shared across channels, and unfolded
back to [B, L, C]. The sinusoidal-head models (SLP, Sencoder, Sinformer)
emit values in [-1, 1] and are meant for standardized data.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .autodiff import Parameter, Tensor, dense, layer_norm_rows, multi_head_attention
from .errors import ConfigError, ShapeError

__all__ = [
    "VARIANTS",
    "ModelConfig",
    "Forecaster",
    "AddT2VParams",
    "AttentionParams",
    "FeedForwardParams",
    "NormParams",
    "AttentionBlockParams",
    "DecoderBlockParams",
    "persistence_forecast",
    "addt2v_forward",
    "moving_average",
    "attention",
    "encoder_block",
    "decoder_block",
    "save_checkpoint",
    "load_checkpoint",
]

VARIANTS = (
    "Persistence",
    "Linear",
    "NLinear",
    "DLinear",
    "SLP",
    "MLP",
    "Sencoder",
    "Sinformer",
)


@dataclass(frozen=True)
class ModelConfig:
    variant: str
    input_len: int
    horizon: int
    channels: int
    d_model: int = 32
    n_heads: int = 4
    ffn_dim: int = 64
    ma_kernel: int = 25
    seed: int = 0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}; choose one of {VARIANTS}")
        if self.input_len < 1 or self.horizon < 1:
            raise ConfigError(f"input_len={self.input_len} and horizon={self.horizon} must be >= 1")
        if self.channels < 1:
            raise ConfigError(f"channels={self.channels} must be >= 1")
        if self.d_model < 1 or self.n_heads < 1 or self.d_model % self.n_heads != 0:
            raise ConfigError(f"d_model={self.d_model} must be a positive multiple of n_heads={self.n_heads}")
        if self.ffn_dim < 1:
            raise ConfigError(f"ffn_dim={self.ffn_dim} must be >= 1")
        if self.ma_kernel < 3 or self.ma_kernel % 2 == 0:
            raise ConfigError(f"ma_kernel={self.ma_kernel} must be odd and >= 3")
        if self.seed < 0:
            raise ConfigError(f"seed={self.seed} must be >= 0")


@dataclass
class AddT2VParams:
    w_lin: Parameter  # [L, I]
    b_lin: Parameter  # [L]
    w_per: Parameter  # [L, I]
    b_per: Parameter  # [L]


@dataclass
class AttentionParams:
    w_q: Parameter
    w_k: Parameter
    w_v: Parameter
    w_o: Parameter  # all [d_model, d_model], no biases


@dataclass
class FeedForwardParams:
    w1: Parameter  # [ffn_dim, d_model]
    b1: Parameter  # [ffn_dim]
    w2: Parameter  # [d_model, ffn_dim]
    b2: Parameter  # [d_model]


@dataclass
class NormParams:
    gamma: Parameter
    beta: Parameter


@dataclass
class AttentionBlockParams:
    attn: AttentionParams
    ffn: FeedForwardParams
    norm1: NormParams
    norm2: NormParams
    n_heads: int


@dataclass
class DecoderBlockParams:
    self_attn: AttentionParams
    cross_attn: AttentionParams
    ffn: FeedForwardParams
    norm1: NormParams
    norm2: NormParams
    norm3: NormParams
    n_heads: int


def moving_average(x: np.ndarray, kernel: int) -> np.ndarray:
    """Centered moving average of `kernel` steps over the last axis, edges replicated."""
    if kernel % 2 == 0 or kernel < 3:
        raise ConfigError(f"moving-average kernel must be odd and >= 3, got {kernel}")
    pad = [(0, 0)] * (x.ndim - 1) + [(kernel // 2, kernel // 2)]
    padded = np.pad(x, pad, mode="edge")
    return sliding_window_view(padded, kernel, axis=-1).mean(axis=-1)


def attention(q: Tensor, k: Tensor, v: Tensor, causal: bool = False, n_heads: int = 1) -> Tensor:
    """softmax(q k^T / sqrt(d)) v per head, for [m, d] rows or [N, m, d] batches.

    One autodiff op (:func:`multi_head_attention`) that keeps only the
    softmax probabilities of each head for backward. With `causal`, query i
    attends to keys 0..i only.
    """
    return multi_head_attention(q, k, v, n_heads, causal)


def _multi_head(p: AttentionParams, n_heads: int, q_src: Tensor, kv_src: Tensor, causal: bool = False) -> Tensor:
    q = dense(q_src, p.w_q)
    k = dense(kv_src, p.w_k)
    v = dense(kv_src, p.w_v)
    return dense(attention(q, k, v, causal, n_heads), p.w_o)


def _ffn(p: FeedForwardParams, x: Tensor) -> Tensor:
    return dense(dense(x, p.w1, p.b1).relu(), p.w2, p.b2)


def encoder_block(params: AttentionBlockParams, x: Tensor) -> Tensor:
    """Self-attention then FFN, each wrapped in residual + layer norm."""
    y = layer_norm_rows(x + _multi_head(params.attn, params.n_heads, x, x), params.norm1.gamma, params.norm1.beta)
    return layer_norm_rows(y + _ffn(params.ffn, y), params.norm2.gamma, params.norm2.beta)


def decoder_block(params: DecoderBlockParams, x: Tensor, memory: Tensor) -> Tensor:
    """Causal self-attention (step i sees steps 0..i of `x`), cross-attention
    over all of `memory`, then FFN."""
    a = layer_norm_rows(
        x + _multi_head(params.self_attn, params.n_heads, x, x, causal=True), params.norm1.gamma, params.norm1.beta
    )
    b = layer_norm_rows(
        a + _multi_head(params.cross_attn, params.n_heads, a, memory), params.norm2.gamma, params.norm2.beta
    )
    return layer_norm_rows(b + _ffn(params.ffn, b), params.norm3.gamma, params.norm3.beta)


def persistence_forecast(x: Tensor, horizon: int) -> Tensor:
    """Repeat the last `horizon` observed steps as the forecast."""
    b, i, c = x.shape
    if i < horizon:
        raise ConfigError(
            f"persistence requires input_len >= horizon, got input_len={i}, horizon={horizon}"
        )
    return Tensor(x.data[:, i - horizon:, :])


def addt2v_forward(params: AddT2VParams, x: Tensor) -> Tensor:
    """Additive time embedding: affine branch plus sine-activated branch."""
    if x.shape[-1] != params.w_lin.shape[1]:
        raise ShapeError(f"addt2v: input width {x.shape[-1]} vs weight {params.w_lin.shape}")
    return dense(x, params.w_lin, params.b_lin) + dense(x, params.w_per, params.b_per).sin()


class Forecaster:
    """One configured model instance: parameters plus the forward map.

    Each variant is a pair of methods found by name: ``_build_<variant>``
    makes its parameters and ``_forward_<variant>`` maps the channel-folded
    [B*C, I] input to [B*C, L] (the variant in lower case). Persistence has
    no parameters and forecasts from the unfolded input.

    Parameters are created deterministically from config.seed, weights
    uniform in [-1/sqrt(fan_in), 1/sqrt(fan_in)], biases zero, layer-norm
    gains one. ``load_checkpoint`` builds the same parameters with the
    weights allocated but not drawn, and fills every one from the file.
    """

    def __init__(self, config: ModelConfig):
        self._build(config, np.random.default_rng(config.seed))

    @classmethod
    def _unset(cls, config: ModelConfig) -> "Forecaster":
        """The model with uninitialised weights, for `load_checkpoint` to fill."""
        model = cls.__new__(cls)
        model._build(config, None)
        return model

    def _build(self, config: ModelConfig, rng: np.random.Generator | None) -> None:
        self.config = config
        self.params: dict[str, Parameter] = {}
        self._rng = rng
        getattr(self, f"_build_{config.variant.lower()}")()
        del self._rng

    # -- parameter construction -------------------------------------------

    def _weight(self, name: str, out_dim: int, in_dim: int) -> Parameter:
        if self._rng is None:
            p = Parameter._unset((out_dim, in_dim), name)
        else:
            bound = 1.0 / np.sqrt(in_dim)
            p = Parameter(self._rng.uniform(-bound, bound, size=(out_dim, in_dim)), name)
        self.params[name] = p
        return p

    def _bias(self, name: str, dim: int) -> Parameter:
        p = Parameter(np.zeros(dim), name)
        self.params[name] = p
        return p

    def _norm(self, prefix: str, dim: int) -> NormParams:
        gamma = Parameter(np.ones(dim), f"{prefix}.gamma")
        beta = Parameter(np.zeros(dim), f"{prefix}.beta")
        self.params[gamma.name] = gamma
        self.params[beta.name] = beta
        return NormParams(gamma, beta)

    def _addt2v(self, prefix: str) -> AddT2VParams:
        i, l = self.config.input_len, self.config.horizon
        return AddT2VParams(
            w_lin=self._weight(f"{prefix}.w_lin", l, i),
            b_lin=self._bias(f"{prefix}.b_lin", l),
            w_per=self._weight(f"{prefix}.w_per", l, i),
            b_per=self._bias(f"{prefix}.b_per", l),
        )

    def _attn(self, prefix: str) -> AttentionParams:
        d = self.config.d_model
        return AttentionParams(
            w_q=self._weight(f"{prefix}.w_q", d, d),
            w_k=self._weight(f"{prefix}.w_k", d, d),
            w_v=self._weight(f"{prefix}.w_v", d, d),
            w_o=self._weight(f"{prefix}.w_o", d, d),
        )

    def _ffn_params(self, prefix: str) -> FeedForwardParams:
        d, f = self.config.d_model, self.config.ffn_dim
        return FeedForwardParams(
            w1=self._weight(f"{prefix}.w1", f, d),
            b1=self._bias(f"{prefix}.b1", f),
            w2=self._weight(f"{prefix}.w2", d, f),
            b2=self._bias(f"{prefix}.b2", d),
        )

    def _encoder_params(self, prefix: str) -> AttentionBlockParams:
        d = self.config.d_model
        return AttentionBlockParams(
            attn=self._attn(f"{prefix}.attn"),
            ffn=self._ffn_params(f"{prefix}.ffn"),
            norm1=self._norm(f"{prefix}.norm1", d),
            norm2=self._norm(f"{prefix}.norm2", d),
            n_heads=self.config.n_heads,
        )

    def _decoder_params(self, prefix: str) -> DecoderBlockParams:
        d = self.config.d_model
        return DecoderBlockParams(
            self_attn=self._attn(f"{prefix}.self_attn"),
            cross_attn=self._attn(f"{prefix}.cross_attn"),
            ffn=self._ffn_params(f"{prefix}.ffn"),
            norm1=self._norm(f"{prefix}.norm1", d),
            norm2=self._norm(f"{prefix}.norm2", d),
            norm3=self._norm(f"{prefix}.norm3", d),
            n_heads=self.config.n_heads,
        )

    # -- variants: a _build_ and a _forward_ each -----------------------------

    def _build_persistence(self):
        pass

    def _build_linear(self):
        i, l = self.config.input_len, self.config.horizon
        self.w = self._weight("w", l, i)
        self.b = self._bias("b", l)

    def _forward_linear(self, xc: Tensor) -> Tensor:
        return dense(xc, self.w, self.b)

    _build_nlinear = _build_linear

    def _forward_nlinear(self, xc: Tensor) -> Tensor:
        # the input never requires grad, so its last value is a constant
        last = xc.data[:, -1:]
        out = dense(Tensor(xc.data - last), self.w, self.b)
        return out + Tensor(np.broadcast_to(last, out.shape))

    def _build_dlinear(self):
        i, l = self.config.input_len, self.config.horizon
        self.w_trend = self._weight("w_trend", l, i)
        self.w_seasonal = self._weight("w_seasonal", l, i)
        self.b = self._bias("b", l)

    def _forward_dlinear(self, xc: Tensor) -> Tensor:
        # the input never requires grad, so trend and seasonal part are constants
        trend = moving_average(xc.data, self.config.ma_kernel)
        return dense(Tensor(trend), self.w_trend) + dense(Tensor(xc.data - trend), self.w_seasonal) + self.b

    def _build_slp(self):
        l = self.config.horizon
        self.embed = self._addt2v("embed")
        self.w = self._weight("head.w", l, l)
        self.b = self._bias("head.b", l)

    def _forward_slp(self, xc: Tensor) -> Tensor:
        return dense(addt2v_forward(self.embed, xc), self.w, self.b).sin()

    def _build_mlp(self):
        i, l = self.config.input_len, self.config.horizon
        self.w1 = self._weight("w1", l, i)
        self.b1 = self._bias("b1", l)
        self.w2 = self._weight("w2", l, l)
        self.b2 = self._bias("b2", l)
        self.w3 = self._weight("w3", l, l)
        self.b3 = self._bias("b3", l)

    def _forward_mlp(self, xc: Tensor) -> Tensor:
        h1 = dense(xc, self.w1, self.b1).relu()
        h2 = dense(h1, self.w2, self.b2).relu()
        return dense(h2, self.w3, self.b3)

    def _build_sencoder(self):
        d = self.config.d_model
        self.embed = self._addt2v("embed")
        self.w_in = self._weight("proj_in.w", d, 1)
        self.b_in = self._bias("proj_in.b", d)
        self.encoder = self._encoder_params("enc")
        self.w_head = self._weight("head.w", 1, d)
        self.b_head = self._bias("head.b", 1)

    def _forward_sencoder(self, xc: Tensor) -> Tensor:
        return self._head(encoder_block(self.encoder, self._embed_sequence(xc)))

    def _build_sinformer(self):
        self._build_sencoder()
        self.decoder = self._decoder_params("dec")

    def _forward_sinformer(self, xc: Tensor) -> Tensor:
        seq = self._embed_sequence(xc)
        z = encoder_block(self.encoder, seq)
        return self._head(decoder_block(self.decoder, seq, z))

    def _embed_sequence(self, xc: Tensor) -> Tensor:
        """AddT2V then scalar-per-step projection into d_model: [N, I] -> [N, L, d]."""
        e = addt2v_forward(self.embed, xc)
        n, l = e.shape
        return dense(e.reshape(n, l, 1), self.w_in, self.b_in)

    def _head(self, z: Tensor) -> Tensor:
        """[N, L, d] -> [N, L] scalar per step, then sine."""
        n, l, _ = z.shape
        return dense(z, self.w_head, self.b_head).reshape(n, l).sin()

    # -- forward ------------------------------------------------------------

    def parameters(self) -> list[Parameter]:
        return list(self.params.values())

    def n_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    def forward(self, x: Tensor) -> Tensor:
        """[B, I, C] -> [B, L, C], through the variant's ``_forward_`` method on
        the folded [B*C, I] rows. It is looked up on each call: a bound method
        stored on the model would make a cycle only the cycle collector frees."""
        cfg = self.config
        if x.ndim != 3 or x.shape[1] != cfg.input_len or x.shape[2] != cfg.channels:
            raise ShapeError(
                f"{cfg.variant}: expected [B, {cfg.input_len}, {cfg.channels}], got {x.shape}"
            )
        if cfg.variant == "Persistence":
            return persistence_forecast(x, cfg.horizon)
        b, i, c = x.shape
        xc = x.transpose((0, 2, 1)).reshape(b * c, i)
        out = getattr(self, f"_forward_{cfg.variant.lower()}")(xc)
        return out.reshape(b, c, cfg.horizon).transpose((0, 2, 1))

    __call__ = forward


# The first line of every checkpoint holds this tag; `load_checkpoint`
# reads no other format.
_FORMAT = "sinecast-checkpoint-f64le"

# The most bytes `load_checkpoint` reads looking for the header's newline.
# The largest header `save_checkpoint` writes (Sinformer's) is under 2 KiB.
_HEADER_LIMIT = 1 << 16


def save_checkpoint(model: Forecaster, path) -> None:
    """Write config and parameters as one line of JSON, then raw bytes.

    The first line is ``{"format": ..., "config": {...}, "parameters":
    [[name, shape], ...]}``. After its newline come each parameter's
    C-order little-endian float64 bytes in that order, and nothing else,
    so the round trip is bit exact and the file takes 8 bytes per
    parameter plus the header. Each buffer is written as it is, with no
    copy on a little-endian host. The file is written to ``<name>.tmp``
    next to `path` and renamed into place: a failed or interrupted save
    leaves any earlier file at `path` as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    header = {
        "format": _FORMAT,
        "config": asdict(model.config),
        "parameters": [[name, list(p.shape)] for name, p in model.params.items()],
    }
    try:
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for p in model.params.values():
                fh.write(p.data.astype("<f8", copy=False))  # C-contiguous, like every Parameter's data
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> Forecaster:
    """Rebuild a saved model. Anything but a checkpoint `save_checkpoint`
    writes is rejected with a ConfigError: a missing or malformed header,
    unknown config keys or values, parameter names, order or shapes other
    than the model's, a file size other than the header's plus 8 bytes per
    parameter, and non-finite values. Checkpoints of the earlier JSON-only
    formats are recognised from their first bytes and rejected too.

    Every check of the header runs before a parameter is read. The model is
    then built with its weights allocated but not drawn, and each
    parameter's bytes are read straight into its buffer, so no random
    weight is drawn and no parameter-sized copy is made.
    """
    with open(path, "rb") as fh:
        line = fh.readline(_HEADER_LIMIT)
        if line.startswith(b'{"config": '):
            raise ConfigError(
                f"checkpoint {path}: a checkpoint of an earlier format, no longer read; "
                "regenerate it with `sinecast run`"
            )
        if not line.endswith(b"\n"):
            raise ConfigError(f"checkpoint {path}: no header line within its first {_HEADER_LIMIT} bytes")
        try:
            header = json.loads(line)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise ConfigError(f"checkpoint {path}: header is not JSON: {exc}") from exc
        if not (
            isinstance(header, dict)
            and header.get("format") == _FORMAT
            and isinstance(header.get("config"), dict)
            and isinstance(header.get("parameters"), list)
        ):
            raise ConfigError(
                f"checkpoint {path}: expected a JSON header with format {_FORMAT!r}, "
                "a 'config' object and a 'parameters' list"
            )
        wrong_type = [k for k, v in header["config"].items() if type(v) is not (str if k == "variant" else int)]
        if wrong_type:
            raise ConfigError(f"checkpoint {path}: config {sorted(wrong_type)} must be integers (variant a string)")
        try:
            config = ModelConfig(**header["config"])
        except (TypeError, ConfigError) as exc:
            raise ConfigError(f"checkpoint {path}: config: {exc}") from exc
        model = Forecaster._unset(config)
        entries = header["parameters"]
        if not all(isinstance(e, list) and len(e) == 2 for e in entries):
            raise ConfigError(f"checkpoint {path}: each parameter must be [name, shape]")
        names = [name for name, _ in entries]
        if names != list(model.params):
            raise ConfigError(f"checkpoint {path}: parameters {names} vs expected {list(model.params)}")
        for (name, shape), p in zip(entries, model.params.values()):
            if shape != list(p.shape):
                raise ConfigError(f"checkpoint {name}: shape {shape} vs expected {list(p.shape)}")
        size = os.fstat(fh.fileno()).st_size
        expected = len(line) + 8 * model.n_parameters()
        if size != expected:
            raise ConfigError(f"checkpoint {path}: {size} bytes vs expected {expected}")
        for name, p in model.params.items():
            # a Parameter's data is C-contiguous float64; the size check above
            # leaves a short read only to a file that shrank since
            if fh.readinto(memoryview(p.data).cast("B")) != p.data.nbytes:
                raise ConfigError(f"checkpoint {path}: file ended inside {name}")
            if sys.byteorder == "big":  # the saved bytes are little-endian
                p.data.byteswap(inplace=True)
            # NaN carries through min and max, and an infinity is one of them:
            # no mask the size of the parameter is made
            if not (np.isfinite(p.data.min()) and np.isfinite(p.data.max())):
                raise ConfigError(f"checkpoint {name}: non-finite values")
    return model
