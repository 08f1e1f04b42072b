"""Structural models of the discriminator CNNs and the dual-stream
generator: exact parameter accounting, depthwise-separable cost ratios, and
deterministic inference-only forward passes with seeded random weights."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .featmaps import FeatureMapStack
from .spectral import MagPhase, phase_from_ri

__all__ = [
    "ConvSpec",
    "BatchNormSpec",
    "LeakyReluSpec",
    "NetDescriptor",
    "LatticeScalars",
    "GeneratorGraph",
    "conv_params",
    "param_count",
    "build_mrld_cnn",
    "build_msdfa_cnn",
    "forward_cnn",
    "init_weights",
    "generator_forward",
    "generator_param_count",
    "describe_net",
    "describe_generator",
]

DEFAULT_MRLD_WIDTHS = (64, 128, 256, 384, 256)
DEFAULT_MSDFA_WIDTHS = (64, 128, 256, 384, 256)
MPD_REFERENCE_PARAMS = 22_000_000  # published size of the periodicity discriminator
LEAKY_SLOPE = 0.1  # negative-side slope of every leaky ReLU


@dataclass(frozen=True)
class ConvSpec:
    kind: str  # 'standard' | 'depthwise_separable'
    dims: int  # 1 or 2
    kernel: int  # per-axis size (2-D kernels are square)
    c_in: int
    c_out: int
    stride: int = 1
    bias: bool = True

    def __post_init__(self):
        if self.kind not in ("standard", "depthwise_separable"):
            raise InvalidArgumentError(f"unknown conv kind {self.kind!r}")
        if self.dims not in (1, 2):
            raise InvalidArgumentError("dims must be 1 or 2")
        if self.kernel < 1 or self.c_in < 1 or self.c_out < 1 or self.stride < 1:
            raise InvalidArgumentError("kernel, channels, and stride must be >= 1")


@dataclass(frozen=True)
class BatchNormSpec:
    channels: int


@dataclass(frozen=True)
class LeakyReluSpec:
    """Leaky ReLU with slope LEAKY_SLOPE below zero."""


@dataclass(frozen=True)
class NetDescriptor:
    name: str
    layers: tuple

    def __post_init__(self):
        prev_out = None
        for layer in self.layers:
            if isinstance(layer, ConvSpec):
                if prev_out is not None and layer.c_in != prev_out:
                    raise InvalidArgumentError(
                        f"channel mismatch: {prev_out} feeds a layer expecting {layer.c_in}"
                    )
                prev_out = layer.c_out

    def conv_layers(self) -> list[ConvSpec]:
        return [l for l in self.layers if isinstance(l, ConvSpec)]


def conv_params(spec: ConvSpec) -> int:
    """Exact weight count. Depthwise-separable = per-channel spatial filter
    plus 1x1 pointwise mixing; standard = dense K^dims * c_in * c_out."""
    k = spec.kernel**spec.dims
    if spec.kind == "standard":
        n = k * spec.c_in * spec.c_out
        if spec.bias:
            n += spec.c_out
    else:
        n = k * spec.c_in + spec.c_in * spec.c_out
        if spec.bias:
            n += spec.c_in + spec.c_out
    return n


def param_count(net: NetDescriptor) -> int:
    total = 0
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            total += conv_params(layer)
        elif isinstance(layer, BatchNormSpec):
            total += 2 * layer.channels
    return total


def _dsc_stack(name, dims, in_channels, widths, kernels, strides) -> NetDescriptor:
    if len(widths) != 5:
        raise InvalidArgumentError("expected 5 channel widths")
    layers = []
    c_in = in_channels
    for c_out, k, s in zip(widths, kernels, strides):
        layers.append(
            ConvSpec("depthwise_separable", dims, k, c_in, c_out, stride=s, bias=True)
        )
        layers.append(BatchNormSpec(c_out))
        layers.append(LeakyReluSpec())
        c_in = c_out
    return NetDescriptor(name, tuple(layers))


def build_mrld_cnn(widths=DEFAULT_MRLD_WIDTHS, in_channels: int = 5) -> NetDescriptor:
    """Five depthwise-separable 1-D layers, kernels 5/5/5/5/3, strides
    2/2/2/2/1, batch-norm + leaky ReLU after each."""
    return _dsc_stack("mrld", 1, in_channels, widths, (5, 5, 5, 5, 3), (2, 2, 2, 2, 1))


def build_msdfa_cnn(widths=DEFAULT_MSDFA_WIDTHS, in_channels: int = 5) -> NetDescriptor:
    """2-D twin of the Lyapunov-map CNN, applied to tiled DFA maps."""
    return _dsc_stack("msdfa", 2, in_channels, widths, (5, 5, 5, 5, 3), (2, 2, 2, 2, 1))


# ---------------------------------------------------------------------------
# inference


class _ParamDraw:
    """Seeded uniform(-0.05, 0.05) draws (or zeros) in call order, counting
    the values handed out."""

    def __init__(self, seed: int, zero: bool):
        self.rng = np.random.default_rng(seed)
        self.zero = zero
        self.count = 0

    def __call__(self, *shape):
        self.count += int(np.prod(shape))
        if self.zero:
            return np.zeros(shape)
        return self.rng.uniform(-0.05, 0.05, size=shape)


def init_weights(net: NetDescriptor, seed: int = 0, zero: bool = False) -> list[dict]:
    """Per-layer weight arrays, drawn uniform(-0.05, 0.05) from a fixed seed
    (or all zeros). Order of draws is fixed so results are reproducible."""
    draw = _ParamDraw(seed, zero)
    weights = []
    for layer in net.layers:
        if isinstance(layer, ConvSpec):
            k = (layer.kernel,) * layer.dims
            if layer.kind == "standard":
                entry = {"w": draw(layer.c_out, layer.c_in, *k)}
                if layer.bias:
                    entry["b"] = draw(layer.c_out)
            else:
                entry = {"dw": draw(layer.c_in, *k), "pw": draw(layer.c_out, layer.c_in)}
                if layer.bias:
                    entry["dwb"] = draw(layer.c_in)
                    entry["pwb"] = draw(layer.c_out)
        elif isinstance(layer, BatchNormSpec):
            entry = {"gamma": draw(layer.channels), "beta": draw(layer.channels)}
        else:
            entry = {}
        weights.append(entry)
    return weights


def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Stride-spaced k-wide windows over the trailing spatial axes of a
    (C, *S) array zero-padded by k//2 on each side: shape (C, *S_out, k, ...)."""
    dims = x.ndim - 1
    xp = np.pad(x, ((0, 0),) + ((k // 2, k // 2),) * dims)
    if min(xp.shape[1:]) < k:
        raise InvalidArgumentError("feature smaller than the receptive field")
    spatial = tuple(range(1, x.ndim))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k,) * dims, axis=spatial)
    return windows[(slice(None),) + (slice(None, None, stride),) * dims]


def _depthwise(x: np.ndarray, kernel: np.ndarray, stride: int = 1) -> np.ndarray:
    """Per-channel correlation of a (C, *S) array with a (C, k, ...) kernel."""
    s, t = "xy"[: x.ndim - 1], "ij"[: x.ndim - 1]
    return np.einsum(f"c{s}{t},c{t}->c{s}", _windows(x, kernel.shape[-1], stride), kernel)


def _apply_conv(x: np.ndarray, layer: ConvSpec, entry: dict) -> np.ndarray:
    if layer.kind == "standard":
        windows = _windows(x, layer.kernel, layer.stride)
        # contract w's (c_in, taps...) axes with the windows' (C, ..., taps...)
        axes = tuple(range(1, 2 + layer.dims)), (0, *range(-layer.dims, 0))
        out = np.tensordot(entry["w"], windows, axes=axes)
        if layer.bias:
            out += entry["b"].reshape((-1,) + (1,) * layer.dims)
        return out
    # depthwise stage
    dw = _depthwise(x, entry["dw"], layer.stride)
    if layer.bias:
        dw += entry["dwb"].reshape((-1,) + (1,) * layer.dims)
    # pointwise 1x1 mixing
    out = np.tensordot(entry["pw"], dw, axes=(1, 0))
    if layer.bias:
        out += entry["pwb"].reshape((-1,) + (1,) * layer.dims)
    return out


def forward_cnn(
    net: NetDescriptor,
    stack: FeatureMapStack,
    seed: int = 0,
    weights: list[dict] | None = None,
    zero_weights: bool = False,
) -> np.ndarray:
    """Run the CNN on a feature stack; returns the flattened final map.

    Weights come from a fixed-seed uniform init unless given explicitly, so
    the output is a pure function of (descriptor, seed/weights, input).
    """
    convs = net.conv_layers()
    if not convs:
        raise InvalidArgumentError("descriptor has no convolution layers")
    dims = convs[0].dims
    if stack.channels != convs[0].c_in:
        raise InvalidArgumentError(
            f"stack has {stack.channels} channels, net expects {convs[0].c_in}"
        )
    if dims == 1:
        if stack.height != 1:
            raise InvalidArgumentError("1-D net needs an H=1 stack")
        x = stack.data[:, 0, :]
    else:
        x = stack.data
    if weights is None:
        weights = init_weights(net, seed, zero=zero_weights)
    for layer, entry in zip(net.layers, weights):
        if isinstance(layer, ConvSpec):
            x = _apply_conv(x, layer, entry)
        elif isinstance(layer, BatchNormSpec):
            shape = (-1,) + (1,) * dims
            x = entry["gamma"].reshape(shape) * x + entry["beta"].reshape(shape)
        elif isinstance(layer, LeakyReluSpec):
            x = np.where(x >= 0, x, LEAKY_SLOPE * x)
    return x.ravel()


# ---------------------------------------------------------------------------
# dual-stream generator


@dataclass(frozen=True)
class LatticeScalars:
    """Cross-stream gates: stage 1 mixes with (alpha1, beta1), stage 2 with
    (alpha2, beta2). Zero means no cross-stream injection."""

    alpha1: float = 0.5
    alpha2: float = 0.5
    beta1: float = 0.5
    beta2: float = 0.5

    def __post_init__(self):
        for v in (self.alpha1, self.alpha2, self.beta1, self.beta2):
            if not np.isfinite(v):
                raise InvalidArgumentError("lattice scalars must be finite")


@dataclass(frozen=True)
class GeneratorGraph:
    """Shape of the dual-stream magnitude/phase generator: two lattice
    stages, each holding one ConformerNeXt block per stream (4 blocks total),
    followed by a magnitude-residual head and pseudo-real/imaginary phase
    heads."""

    freq_bins: int = 257
    frames: int = 64
    hidden: int = 64
    heads: int = 8
    mlp_ratio: int = 4
    conv_kernel: int = 7
    scalars: LatticeScalars = field(default_factory=LatticeScalars)

    n_blocks = 4  # 2 stages x 2 streams, fixed by construction

    def __post_init__(self):
        if min(self.freq_bins, self.frames, self.hidden, self.heads, self.mlp_ratio) < 1:
            raise InvalidArgumentError("dims must be positive")
        if self.hidden % self.heads != 0:
            raise InvalidArgumentError("heads must divide hidden width")
        if self.conv_kernel < 1 or self.conv_kernel % 2 == 0:
            # a same-length time convolution needs a center tap
            raise InvalidArgumentError(f"conv_kernel must be odd and >= 1, got {self.conv_kernel}")


def _layer_norm(x: np.ndarray) -> np.ndarray:
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-6)


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _softmax(x: np.ndarray) -> np.ndarray:
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _block_params(g: GeneratorGraph, draw: _ParamDraw) -> dict:
    h = g.hidden
    e = g.mlp_ratio * h
    return {
        "wq": draw(h, h), "wk": draw(h, h), "wv": draw(h, h), "wo": draw(h, h),
        "dw": draw(h, g.conv_kernel),
        "cx1": draw(h, e), "cx1b": draw(e), "cx2": draw(e, h), "cx2b": draw(h),
        "ff1": draw(h, e), "ff1b": draw(e), "ff2": draw(e, h), "ff2b": draw(h),
    }


def _run_block(x: np.ndarray, g: GeneratorGraph, p: dict) -> np.ndarray:
    # x: (T, hidden). Pre-norm self-attention sublayer.
    t, h = x.shape
    dh = h // g.heads
    xa = _layer_norm(x)
    q = (xa @ p["wq"]).reshape(t, g.heads, dh).transpose(1, 0, 2)
    k = (xa @ p["wk"]).reshape(t, g.heads, dh).transpose(1, 0, 2)
    v = (xa @ p["wv"]).reshape(t, g.heads, dh).transpose(1, 0, 2)
    attn = _softmax(q @ k.transpose(0, 2, 1) / np.sqrt(dh)) @ v
    x = x + attn.transpose(1, 0, 2).reshape(t, h) @ p["wo"]

    # ConvNeXt sublayer: depthwise conv along time, norm, expand, project.
    conv = _depthwise(x.T, p["dw"]).T
    conv = _gelu(_layer_norm(conv) @ p["cx1"] + p["cx1b"]) @ p["cx2"] + p["cx2b"]
    x = x + conv

    # feed-forward sublayer
    ff = _gelu(_layer_norm(x) @ p["ff1"] + p["ff1b"]) @ p["ff2"] + p["ff2b"]
    return x + ff


def _generator_params(g: GeneratorGraph, seed: int, zero: bool) -> tuple[dict, int]:
    draw = _ParamDraw(seed, zero)
    params = {
        "in_m": draw(g.freq_bins, g.hidden), "in_mb": draw(g.hidden),
        "in_p": draw(g.freq_bins, g.hidden), "in_pb": draw(g.hidden),
        "blocks": [_block_params(g, draw) for _ in range(4)],
        "head_mag": draw(g.hidden, g.freq_bins), "head_magb": draw(g.freq_bins),
        "head_r": draw(g.hidden, g.freq_bins), "head_rb": draw(g.freq_bins),
        "head_i": draw(g.hidden, g.freq_bins), "head_ib": draw(g.freq_bins),
    }
    return params, draw.count


def generator_param_count(g: GeneratorGraph) -> int:
    return _generator_params(g, 0, zero=True)[1]


def generator_forward(
    g: GeneratorGraph, mp_nb: MagPhase, seed: int = 0, zero_weights: bool = False
) -> MagPhase:
    """Inference pass: magnitude stream predicts a log-magnitude residual
    added to the input; phase stream predicts pseudo-real/imaginary grids
    combined by atan2. Lattice gates inject each stream into the other
    before its block (stage 1 with alpha1/beta1, stage 2 with alpha2/beta2).
    """
    if mp_nb.mag.shape != (g.freq_bins, g.frames):
        raise InvalidArgumentError(
            f"expected ({g.freq_bins}, {g.frames}) grids, got {mp_nb.mag.shape}"
        )
    p, _ = _generator_params(g, seed, zero_weights)
    s = g.scalars
    m = mp_nb.mag.T @ p["in_m"] + p["in_mb"]  # (T, hidden)
    ph = mp_nb.phase.T @ p["in_p"] + p["in_pb"]

    m1 = _run_block(m + s.alpha1 * ph, g, p["blocks"][0])
    p1 = _run_block(ph + s.beta1 * m, g, p["blocks"][1])
    m2 = _run_block(m1 + s.alpha2 * p1, g, p["blocks"][2])
    p2 = _run_block(p1 + s.beta2 * m1, g, p["blocks"][3])

    residual = (_layer_norm(m2) @ p["head_mag"] + p["head_magb"]).T
    out_mag = mp_nb.mag + residual
    pn = _layer_norm(p2)
    r = (pn @ p["head_r"] + p["head_rb"]).T
    i = (pn @ p["head_i"] + p["head_ib"]).T
    return MagPhase(out_mag, phase_from_ri(r, i), mp_nb.config, mp_nb.n_samples)


# ---------------------------------------------------------------------------
# reporting


def describe_net(net: NetDescriptor) -> dict:
    """netinfo document: layer table, totals, and the cost ratio versus the
    equivalent standard convolutions."""
    layers = []
    dsc_total = 0
    standard_total = 0
    for conv in net.conv_layers():
        n = conv_params(conv)
        layers.append(
            {
                "kind": conv.kind,
                "dims": conv.dims,
                "kernel": conv.kernel,
                "stride": conv.stride,
                "c_in": conv.c_in,
                "c_out": conv.c_out,
                "params": n,
            }
        )
        dsc_total += n
        standard_total += conv_params(replace(conv, kind="standard"))
    return {
        "name": net.name,
        "layers": layers,
        "total_params": param_count(net),
        "dsc_reduction_ratio": standard_total / dsc_total if dsc_total else 0.0,
    }


def describe_generator(g: GeneratorGraph) -> dict:
    return {
        "name": "generator",
        "conformer_blocks": g.n_blocks,
        "heads": g.heads,
        "hidden": g.hidden,
        "mlp_ratio": g.mlp_ratio,
        "freq_bins": g.freq_bins,
        "frames": g.frames,
        "lattice_scalars": {
            "alpha1": g.scalars.alpha1,
            "alpha2": g.scalars.alpha2,
            "beta1": g.scalars.beta1,
            "beta2": g.scalars.beta2,
        },
        "total_params": generator_param_count(g),
    }
