"""Structural models of the discriminator CNNs and the dual-stream
generator: exact parameter accounting, depthwise-separable cost ratios, and
deterministic inference-only forward passes with seeded random weights.

The accounting half (layer shapes, descriptors, parameter counts, the
builders and the describe_* reports) is integer arithmetic and loads no
numpy; the forward passes import numpy, and `spectral`, when they run."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

from .errors import InvalidArgumentError, _finite, _size, _size_fields

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
        _size_fields(self, 1, "dims", "kernel", "c_in", "c_out", "stride")
        if self.dims > 2:
            raise InvalidArgumentError("dims must be 1 or 2")

    def shapes(self) -> dict:
        """Weight name -> shape in draw order. Depthwise-separable = per-channel
        spatial filter plus 1x1 pointwise mixing; standard = dense kernel."""
        k = (self.kernel,) * self.dims
        if self.kind == "standard":
            table = {"w": (self.c_out, self.c_in, *k)}
            return (table | {"b": (self.c_out,)}) if self.bias else table
        table = {"dw": (self.c_in, *k), "pw": (self.c_out, self.c_in)}
        return (table | {"dwb": (self.c_in,), "pwb": (self.c_out,)}) if self.bias else table

    def apply(self, x: np.ndarray, w: dict) -> np.ndarray:
        import numpy as np

        col = (-1,) + (1,) * self.dims
        if self.kind == "standard":
            windows = _windows(x, self.kernel, self.stride)
            # contract w's (c_in, taps...) axes with the windows' (C, ..., taps...)
            axes = tuple(range(1, 2 + self.dims)), (0, *range(-self.dims, 0))
            out = np.tensordot(w["w"], windows, axes=axes)
            if self.bias:
                out += w["b"].reshape(col)
            return out
        dw = _depthwise(x, w["dw"], self.stride)
        if self.bias:
            dw += w["dwb"].reshape(col)
        out = np.tensordot(w["pw"], dw, axes=(1, 0))  # pointwise 1x1 mixing
        if self.bias:
            out += w["pwb"].reshape(col)
        return out


@dataclass(frozen=True)
class BatchNormSpec:
    channels: int

    def __post_init__(self):
        _size_fields(self, 1, "channels")

    def shapes(self) -> dict:
        return {"gamma": (self.channels,), "beta": (self.channels,)}

    def apply(self, x: np.ndarray, w: dict) -> np.ndarray:
        col = (-1,) + (1,) * (x.ndim - 1)
        return w["gamma"].reshape(col) * x + w["beta"].reshape(col)


@dataclass(frozen=True)
class LeakyReluSpec:
    """Leaky ReLU with slope LEAKY_SLOPE below zero."""

    def shapes(self) -> dict:
        return {}

    def apply(self, x: np.ndarray, w: dict) -> np.ndarray:
        import numpy as np

        return np.where(x >= 0, x, LEAKY_SLOPE * x)


@dataclass(frozen=True)
class NetDescriptor:
    name: str
    layers: tuple

    def __post_init__(self):
        convs = self.conv_layers()
        for prev, conv in zip(convs, convs[1:]):
            if conv.c_in != prev.c_out:
                raise InvalidArgumentError(
                    f"channel mismatch: {prev.c_out} feeds a layer expecting {conv.c_in}"
                )

    def conv_layers(self) -> list[ConvSpec]:
        return [l for l in self.layers if isinstance(l, ConvSpec)]


def _count(*tables: dict) -> int:
    return sum(math.prod(shape) for table in tables for shape in table.values())


def conv_params(spec: ConvSpec) -> int:
    """Exact weight count of the shapes the layer declares."""
    return _count(spec.shapes())


def param_count(net: NetDescriptor) -> int:
    return _count(*(layer.shapes() for layer in net.layers))


def _dsc_stack(name, dims, widths, kernels, strides) -> NetDescriptor:
    if len(widths) != 5:
        raise InvalidArgumentError("expected 5 channel widths")
    layers = []
    c_in = 5  # one channel per featmaps default: five MRLD windows, or five MSDFA scales
    for c_out, k, s in zip(widths, kernels, strides):
        layers.append(
            ConvSpec("depthwise_separable", dims, k, c_in, c_out, stride=s, bias=True)
        )
        layers.append(BatchNormSpec(c_out))
        layers.append(LeakyReluSpec())
        c_in = c_out
    return NetDescriptor(name, tuple(layers))


def build_mrld_cnn(widths=DEFAULT_MRLD_WIDTHS) -> NetDescriptor:
    """Five depthwise-separable 1-D layers, kernels 5/5/5/5/3, strides
    2/2/2/2/1, batch-norm + leaky ReLU after each."""
    return _dsc_stack("mrld", 1, widths, (5, 5, 5, 5, 3), (2, 2, 2, 2, 1))


def build_msdfa_cnn(widths=DEFAULT_MRLD_WIDTHS) -> NetDescriptor:
    """2-D twin of the Lyapunov-map CNN, applied to tiled DFA maps."""
    return _dsc_stack("msdfa", 2, widths, (5, 5, 5, 5, 3), (2, 2, 2, 2, 1))


# ---------------------------------------------------------------------------
# inference


def _draw(tables: list[dict], seed: int, zero: bool) -> list[dict]:
    """One array per table entry, drawn uniform(-0.05, 0.05) from a fixed seed
    (or all zeros) in table order, so results are reproducible."""
    import numpy as np

    rng = np.random.default_rng(_size(seed, "seed", 0))
    sample = np.zeros if zero else lambda shape: rng.uniform(-0.05, 0.05, size=shape)
    return [{name: sample(shape) for name, shape in table.items()} for table in tables]


def init_weights(net: NetDescriptor, seed: int = 0, zero: bool = False) -> list[dict]:
    """Per-layer weight arrays in the order of each layer's shapes()."""
    return _draw([layer.shapes() for layer in net.layers], seed, zero)


def _windows(x: np.ndarray, k: int, stride: int) -> np.ndarray:
    """Stride-spaced k-wide windows over the trailing spatial axes of a
    (C, *S) array zero-padded by k//2 on each side: shape (C, *S_out, k, ...)."""
    import numpy as np

    dims = x.ndim - 1
    xp = np.pad(x, ((0, 0),) + ((k // 2, k // 2),) * dims)
    if min(xp.shape[1:]) < k:
        raise InvalidArgumentError("feature smaller than the receptive field")
    spatial = tuple(range(1, x.ndim))
    windows = np.lib.stride_tricks.sliding_window_view(xp, (k,) * dims, axis=spatial)
    return windows[(slice(None),) + (slice(None, None, stride),) * dims]


def _depthwise(x: np.ndarray, kernel: np.ndarray, stride: int = 1) -> np.ndarray:
    """Per-channel correlation of a (C, *S) array with a (C, k, ...) kernel."""
    import numpy as np

    s, t = "xy"[: x.ndim - 1], "ij"[: x.ndim - 1]
    return np.einsum(f"c{s}{t},c{t}->c{s}", _windows(x, kernel.shape[-1], stride), kernel)


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
    Its products go to BLAS, which OpenBLAS may thread, so the last bits may
    follow the BLAS build and thread count.
    """
    convs = net.conv_layers()
    if not convs:
        raise InvalidArgumentError("descriptor has no convolution layers")
    if stack.channels != convs[0].c_in:
        raise InvalidArgumentError(
            f"stack has {stack.channels} channels, net expects {convs[0].c_in}"
        )
    if convs[0].dims == 1:
        if stack.height != 1:
            raise InvalidArgumentError("1-D net needs an H=1 stack")
        x = stack.data[:, 0, :]
    else:
        x = stack.data
    if weights is None:
        weights = init_weights(net, seed, zero=zero_weights)
    for layer, entry in zip(net.layers, weights):
        x = layer.apply(x, entry)
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
        if not all(map(math.isfinite, (self.alpha1, self.alpha2, self.beta1, self.beta2))):
            raise InvalidArgumentError("lattice scalars has a non-finite entry")


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
        _size_fields(self, 1, "freq_bins", "frames", "hidden", "heads", "mlp_ratio", "conv_kernel")
        if self.hidden % self.heads != 0:
            raise InvalidArgumentError("heads must divide hidden width")
        if self.conv_kernel % 2 == 0:
            # a same-length time convolution needs a center tap
            raise InvalidArgumentError(f"conv_kernel must be odd, got {self.conv_kernel}")


def _layer_norm(x: np.ndarray) -> np.ndarray:
    import numpy as np

    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + 1e-6)


def _gelu(x: np.ndarray) -> np.ndarray:
    import numpy as np

    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


def _softmax(x: np.ndarray) -> np.ndarray:
    import numpy as np

    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _generator_shapes(g: GeneratorGraph) -> list[dict]:
    """Weight tables in draw order: input projections, one per block, heads."""
    f, h, e = g.freq_bins, g.hidden, g.mlp_ratio * g.hidden
    inputs = {"in_m": (f, h), "in_mb": (h,), "in_p": (f, h), "in_pb": (h,)}
    block = {
        "wq": (h, h), "wk": (h, h), "wv": (h, h), "wo": (h, h),
        "dw": (h, g.conv_kernel),
        "cx1": (h, e), "cx1b": (e,), "cx2": (e, h), "cx2b": (h,),
        "ff1": (h, e), "ff1b": (e,), "ff2": (e, h), "ff2b": (h,),
    }
    heads = {
        "head_mag": (h, f), "head_magb": (f,),
        "head_r": (h, f), "head_rb": (f,),
        "head_i": (h, f), "head_ib": (f,),
    }
    return [inputs, *[block] * g.n_blocks, heads]


def _run_block(x: np.ndarray, g: GeneratorGraph, p: dict) -> np.ndarray:
    # x: (T, hidden). Pre-norm self-attention sublayer.
    t, h = x.shape
    dh = h // g.heads
    xa = _layer_norm(x)
    q = (xa @ p["wq"]).reshape(t, g.heads, dh).transpose(1, 0, 2)
    k = (xa @ p["wk"]).reshape(t, g.heads, dh).transpose(1, 0, 2)
    v = (xa @ p["wv"]).reshape(t, g.heads, dh).transpose(1, 0, 2)
    attn = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh)) @ v
    x = x + attn.transpose(1, 0, 2).reshape(t, h) @ p["wo"]

    # ConvNeXt sublayer: depthwise conv along time, norm, expand, project.
    conv = _depthwise(x.T, p["dw"]).T
    conv = _gelu(_layer_norm(conv) @ p["cx1"] + p["cx1b"]) @ p["cx2"] + p["cx2b"]
    x = x + conv

    # feed-forward sublayer
    ff = _gelu(_layer_norm(x) @ p["ff1"] + p["ff1b"]) @ p["ff2"] + p["ff2b"]
    return x + ff


def generator_param_count(g: GeneratorGraph) -> int:
    return _count(*_generator_shapes(g))


def generator_forward(
    g: GeneratorGraph, mp_nb: MagPhase, seed: int = 0, zero_weights: bool = False
) -> MagPhase:
    """Inference pass: magnitude stream predicts a log-magnitude residual
    added to the input; phase stream predicts pseudo-real/imaginary grids
    combined by atan2. Lattice gates inject each stream into the other
    before its block (stage 1 with alpha1/beta1, stage 2 with alpha2/beta2).
    As in forward_cnn, the last bits may follow the BLAS thread count.
    """
    from .spectral import MagPhase, phase_from_ri

    if mp_nb.mag.shape != (g.freq_bins, g.frames):
        raise InvalidArgumentError(
            f"expected ({g.freq_bins}, {g.frames}) grids, got {mp_nb.mag.shape}"
        )
    _finite((mp_nb.mag, mp_nb.phase), "generator input magnitude/phase")
    w_in, *blocks, w_head = _draw(_generator_shapes(g), seed, zero_weights)
    s = g.scalars
    m = mp_nb.mag.T @ w_in["in_m"] + w_in["in_mb"]  # (T, hidden)
    ph = mp_nb.phase.T @ w_in["in_p"] + w_in["in_pb"]

    m1 = _run_block(m + s.alpha1 * ph, g, blocks[0])
    p1 = _run_block(ph + s.beta1 * m, g, blocks[1])
    m2 = _run_block(m1 + s.alpha2 * p1, g, blocks[2])
    p2 = _run_block(p1 + s.beta2 * m1, g, blocks[3])

    residual = (_layer_norm(m2) @ w_head["head_mag"] + w_head["head_magb"]).T
    out_mag = mp_nb.mag + residual
    pn = _layer_norm(p2)
    r = (pn @ w_head["head_r"] + w_head["head_rb"]).T
    i = (pn @ w_head["head_i"] + w_head["head_ib"]).T
    return MagPhase(out_mag, phase_from_ri(r, i), mp_nb.config, mp_nb.n_samples)


# ---------------------------------------------------------------------------
# reporting


def describe_net(net: NetDescriptor) -> dict:
    """netinfo document: layer table, totals, and the cost ratio versus the
    equivalent standard convolutions."""
    convs = net.conv_layers()
    layers = [dict(asdict(c), params=conv_params(c)) for c in convs]
    for row in layers:
        del row["bias"]
    dsc_total = sum(row["params"] for row in layers)
    standard_total = sum(conv_params(replace(c, kind="standard")) for c in convs)
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
        "lattice_scalars": asdict(g.scalars),
        "total_params": generator_param_count(g),
    }
