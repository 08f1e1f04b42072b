import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bwetools.errors import InvalidArgumentError
from bwetools.featmaps import FeatureMapStack
from bwetools.netshape import (
    BatchNormSpec,
    ConvSpec,
    GeneratorGraph,
    LatticeScalars,
    LeakyReluSpec,
    NetDescriptor,
    build_mrld_cnn,
    build_msdfa_cnn,
    conv_params,
    describe_generator,
    describe_net,
    forward_cnn,
    generator_forward,
    generator_param_count,
    init_weights,
    param_count,
)
from bwetools.netshape import _depthwise, _draw, _gelu, _generator_shapes, _layer_norm, _softmax
from bwetools.spectral import MagPhase, StftConfig, phase_from_ri


class TestConvParams:
    def test_standard_1d(self):
        assert conv_params(ConvSpec("standard", 1, 5, 1, 32)) == 5 * 1 * 32 + 32

    def test_dsc_1d(self):
        assert conv_params(ConvSpec("depthwise_separable", 1, 5, 1, 32)) == (5 + 1) + (32 + 32)

    def test_dsc_2d_reduction_ratio(self):
        dsc = conv_params(ConvSpec("depthwise_separable", 2, 5, 128, 128, bias=False))
        std = conv_params(ConvSpec("standard", 2, 5, 128, 128, bias=False))
        assert dsc == 25 * 128 + 128 * 128
        assert std == 409_600
        assert std / dsc >= 20


class TestBuilders:
    def test_mrld_param_target(self):
        total = param_count(build_mrld_cnn())
        assert abs(total - 235_500) <= 0.15 * 235_500

    def test_msdfa_param_target(self):
        total = param_count(build_msdfa_cnn())
        assert abs(total - 247_700) <= 0.15 * 247_700

    def test_layer_structure(self):
        net = build_mrld_cnn()
        convs = net.conv_layers()
        assert len(convs) == 5
        assert [c.kernel for c in convs] == [5, 5, 5, 5, 3]
        assert [c.stride for c in convs] == [2, 2, 2, 2, 1]
        assert all(c.kind == "depthwise_separable" and c.dims == 1 for c in convs)

    def test_combined_size_bounds(self):
        combined = param_count(build_mrld_cnn()) + param_count(build_msdfa_cnn())
        assert 400_000 <= combined < 550_000
        assert 22_000_000 / combined >= 30

    def test_width_ones_closed_form(self):
        net = build_mrld_cnn(widths=(1, 1, 1, 1, 1))
        expected = 0
        c_in = 5
        for k in (5, 5, 5, 5, 3):
            expected += k * c_in + c_in + c_in * 1 + 1  # dsc conv
            expected += 2  # batch norm on 1 channel
            c_in = 1
        assert param_count(net) == expected

    def test_wrong_width_count(self):
        with pytest.raises(InvalidArgumentError):
            build_mrld_cnn(widths=(8, 8, 8))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(InvalidArgumentError):
            NetDescriptor(
                "bad",
                (
                    ConvSpec("standard", 1, 3, 1, 4),
                    ConvSpec("standard", 1, 3, 8, 4),
                ),
            )

    def test_empty_net_zero_params(self):
        assert param_count(NetDescriptor("empty", ())) == 0

    def test_single_layer_accounting(self):
        spec = ConvSpec("depthwise_separable", 1, 5, 4, 8)
        net = NetDescriptor("one", (spec, BatchNormSpec(8)))
        assert param_count(net) == conv_params(spec) + 16


class TestForwardCnn:
    def stack(self, seed=0, width=80):
        data = np.random.default_rng(seed).standard_normal((5, 1, width))
        return FeatureMapStack(data, {})

    def test_zero_everything(self):
        out = forward_cnn(build_mrld_cnn(), self.stack(), zero_weights=True)
        assert np.all(out == 0)

    def test_deterministic(self):
        net = build_mrld_cnn()
        a = forward_cnn(net, self.stack(1), seed=7)
        b = forward_cnn(net, self.stack(1), seed=7)
        np.testing.assert_array_equal(a, b)
        c = forward_cnn(net, self.stack(1), seed=8)
        assert not np.array_equal(a, c)

    def test_output_shape_stride_arithmetic(self):
        out = forward_cnn(build_mrld_cnn(), self.stack(width=80))
        # per layer: pad K//2 both sides, floor((L_pad - K)/stride) + 1
        length = 80
        for k, s in zip((5, 5, 5, 5, 3), (2, 2, 2, 2, 1)):
            length = (length + 2 * (k // 2) - k) // s + 1
        assert out.size == 256 * length
        assert length == 5

    def test_2d_forward(self):
        data = np.random.default_rng(0).standard_normal((5, 64, 64))
        out = forward_cnn(build_msdfa_cnn(), FeatureMapStack(data, {}))
        assert np.all(np.isfinite(out))

    def test_channel_mismatch(self):
        data = np.zeros((3, 1, 80))
        with pytest.raises(InvalidArgumentError):
            forward_cnn(build_mrld_cnn(), FeatureMapStack(data, {}))

    def test_minimal_width_survives(self):
        # symmetric K//2 padding keeps odd-kernel layers defined down to a
        # single input column
        out = forward_cnn(build_mrld_cnn(), self.stack(width=1))
        assert out.size == 256


# The per-channel loop convolution the single windowed einsum/tensordot
# replaced, kept as the reference it is checked against.
def _ref_pad(x, dims, k):
    pad = k // 2
    return np.pad(x, ((0, 0),) + ((pad, pad),) * dims)


def _ref_conv1d(x, kernel, stride):
    k = kernel.size
    n_out = (x.size - k) // stride + 1
    if n_out < 1:
        raise InvalidArgumentError("feature shorter than the receptive field")
    idx = stride * np.arange(n_out)[:, None] + np.arange(k)[None, :]
    return x[idx] @ kernel


def _ref_conv2d(x, kernel, stride):
    k = kernel.shape[0]
    h_out = (x.shape[0] - k) // stride + 1
    w_out = (x.shape[1] - k) // stride + 1
    if h_out < 1 or w_out < 1:
        raise InvalidArgumentError("feature smaller than the receptive field")
    windows = np.lib.stride_tricks.sliding_window_view(x, (k, k))[::stride, ::stride]
    return np.einsum("hwij,ij->hw", windows, kernel)


def reference_conv(x, layer, entry):
    single = _ref_conv1d if layer.dims == 1 else _ref_conv2d
    xp = _ref_pad(x, layer.dims, layer.kernel)
    bias_shape = (-1,) + (1,) * layer.dims
    if layer.kind == "standard":
        out = np.stack(
            [
                sum(single(xp[c], entry["w"][o, c], layer.stride) for c in range(layer.c_in))
                for o in range(layer.c_out)
            ]
        )
        if layer.bias:
            out += entry["b"].reshape(bias_shape)
        return out
    dw = np.stack([single(xp[c], entry["dw"][c], layer.stride) for c in range(layer.c_in)])
    if layer.bias:
        dw += entry["dwb"].reshape(bias_shape)
    out = np.tensordot(entry["pw"], dw, axes=(1, 0))
    if layer.bias:
        out += entry["pwb"].reshape(bias_shape)
    return out


class TestConvOracle:
    @settings(deadline=None, max_examples=150)
    @given(
        kind=st.sampled_from(["standard", "depthwise_separable"]),
        dims=st.sampled_from([1, 2]),
        kernel=st.integers(1, 5),
        stride=st.integers(1, 3),
        c_in=st.integers(1, 6),
        c_out=st.integers(1, 6),
        height=st.integers(1, 9),
        width=st.integers(1, 24),
        bias=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_per_channel_loops(
        self, kind, dims, kernel, stride, c_in, c_out, height, width, bias, seed
    ):
        spec = ConvSpec(kind, dims, kernel, c_in, c_out, stride=stride, bias=bias)
        net = NetDescriptor("one", (spec,))
        weights = init_weights(net, seed)
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((c_in, 1 if dims == 1 else height, width))
        x = data[:, 0, :] if dims == 1 else data
        expected = reference_conv(x, spec, weights[0]).ravel()
        got = forward_cnn(net, FeatureMapStack(data, {}), weights=weights)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)

    @pytest.mark.parametrize("kernel", [3, 7])
    def test_depthwise_equals_generator_formula(self, kernel):
        # the generator's ConvNeXt time convolution, as it was written inline
        x = np.random.default_rng(kernel).standard_normal((40, 16))
        dw = np.random.default_rng(kernel + 1).uniform(-0.05, 0.05, (16, kernel))
        pad = kernel // 2
        xp = np.pad(x, ((pad, pad), (0, 0)))
        windows = np.lib.stride_tricks.sliding_window_view(xp, kernel, axis=0)
        expected = np.einsum("thk,hk->th", windows, dw)
        got = _depthwise(x.T, dw).T
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("net", [build_mrld_cnn(), build_msdfa_cnn()])
    def test_empty_stack_rejected(self, net):
        shape = (5, 1, 0) if net.name == "mrld" else (5, 0, 0)
        with pytest.raises(InvalidArgumentError):
            forward_cnn(net, FeatureMapStack(np.zeros(shape), {}))


class TestSeededDraw:
    @staticmethod
    def expected_shapes(layer):
        if isinstance(layer, BatchNormSpec):
            return [("gamma", (layer.channels,)), ("beta", (layer.channels,))]
        k = (layer.kernel,) * layer.dims
        if layer.kind == "standard":
            shapes = [("w", (layer.c_out, layer.c_in, *k))]
            return shapes + [("b", (layer.c_out,))] * layer.bias
        shapes = [("dw", (layer.c_in, *k)), ("pw", (layer.c_out, layer.c_in))]
        return shapes + [("dwb", (layer.c_in,)), ("pwb", (layer.c_out,))] * layer.bias

    @pytest.mark.parametrize(
        "net",
        [
            build_mrld_cnn(),
            build_msdfa_cnn(widths=(4, 3, 2, 3, 1)),
            NetDescriptor(
                "standard",
                (
                    ConvSpec("standard", 2, 3, 2, 4),
                    BatchNormSpec(4),
                    ConvSpec("standard", 1, 4, 4, 3, bias=False),
                ),
            ),
        ],
    )
    def test_init_weights_draw_order(self, net):
        rng = np.random.default_rng(11)
        weights = init_weights(net, seed=11)
        assert len(weights) == len(net.layers)
        for layer, entry in zip(net.layers, weights):
            shapes = [] if isinstance(layer, LeakyReluSpec) else self.expected_shapes(layer)
            assert list(entry) == [key for key, _ in shapes]
            for key, shape in shapes:
                assert np.array_equal(entry[key], rng.uniform(-0.05, 0.05, shape))

    @pytest.mark.parametrize(
        "g", [GeneratorGraph(), GeneratorGraph(freq_bins=33, frames=16, hidden=32, conv_kernel=5)]
    )
    def test_generator_param_count_closed_form(self, g):
        f, h, e = g.freq_bins, g.hidden, g.mlp_ratio * g.hidden
        block = 4 * h * h + h * g.conv_kernel + 2 * (h * e + e + e * h + h)
        assert generator_param_count(g) == 2 * (f * h + h) + 4 * block + 3 * (h * f + f)


class TestGenerator:
    def graph(self, **kw):
        return GeneratorGraph(freq_bins=33, frames=16, hidden=32, **kw)

    def mp(self, g, seed=0):
        rng = np.random.default_rng(seed)
        return MagPhase(
            rng.standard_normal((g.freq_bins, g.frames)),
            rng.uniform(-np.pi, np.pi, (g.freq_bins, g.frames)),
            StftConfig(),
        )

    def test_matches_the_formula(self):
        # the pass written out inline, each product one `@`
        g = GeneratorGraph()
        mp = self.mp(g)
        w_in, *blocks, w_head = _draw(_generator_shapes(g), 0, False)

        def block(x, p):
            t, h = x.shape
            dh = h // g.heads
            xa = _layer_norm(x)
            heads = (xa @ p[w] for w in ("wq", "wk", "wv"))
            q, k, v = (y.reshape(t, g.heads, dh).transpose(1, 0, 2) for y in heads)
            attn = _softmax(q @ k.transpose(0, 2, 1) / math.sqrt(dh)) @ v
            x = x + attn.transpose(1, 0, 2).reshape(t, h) @ p["wo"]
            conv = _depthwise(x.T, p["dw"]).T
            x = x + _gelu(_layer_norm(conv) @ p["cx1"] + p["cx1b"]) @ p["cx2"] + p["cx2b"]
            return x + _gelu(_layer_norm(x) @ p["ff1"] + p["ff1b"]) @ p["ff2"] + p["ff2b"]

        s = g.scalars
        m = mp.mag.T @ w_in["in_m"] + w_in["in_mb"]
        ph = mp.phase.T @ w_in["in_p"] + w_in["in_pb"]
        m1, p1 = block(m + s.alpha1 * ph, blocks[0]), block(ph + s.beta1 * m, blocks[1])
        m2, p2 = block(m1 + s.alpha2 * p1, blocks[2]), block(p1 + s.beta2 * m1, blocks[3])
        mag = mp.mag + (_layer_norm(m2) @ w_head["head_mag"] + w_head["head_magb"]).T
        pn = _layer_norm(p2)
        r = (pn @ w_head["head_r"] + w_head["head_rb"]).T
        i = (pn @ w_head["head_i"] + w_head["head_ib"]).T
        out = generator_forward(g, mp)
        # relative to each grid's largest value: a value near 0 has no relative bound
        for got, want in ((out.mag, mag), (out.phase, phase_from_ri(r, i))):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_zero_scalars_decouple_streams(self):
        g = self.graph(scalars=LatticeScalars(0.0, 0.0, 0.0, 0.0))
        mp_a = self.mp(g, seed=0)
        out_a = generator_forward(g, mp_a, seed=5)
        # perturbing the phase input must not touch the magnitude output
        mp_b = MagPhase(mp_a.mag, mp_a.phase + 0.5, mp_a.config)
        out_b = generator_forward(g, mp_b, seed=5)
        np.testing.assert_array_equal(out_a.mag, out_b.mag)
        # and perturbing the magnitude input must not touch the phase output
        mp_c = MagPhase(mp_a.mag * 2.0, mp_a.phase, mp_a.config)
        out_c = generator_forward(g, mp_c, seed=5)
        np.testing.assert_array_equal(out_a.phase, out_c.phase)

    def test_nonzero_scalars_couple_streams(self):
        g = self.graph()
        mp_a = self.mp(g, seed=0)
        mp_b = MagPhase(mp_a.mag, mp_a.phase + 0.5, mp_a.config)
        out_a = generator_forward(g, mp_a, seed=5)
        out_b = generator_forward(g, mp_b, seed=5)
        assert not np.array_equal(out_a.mag, out_b.mag)

    def test_zero_weights_passthrough(self):
        g = self.graph()
        mp = self.mp(g, seed=1)
        out = generator_forward(g, mp, zero_weights=True)
        np.testing.assert_array_equal(out.mag, mp.mag)
        assert np.all(out.phase == 0)

    def test_residual_offset_independence(self):
        # with zero weights, output minus input is identically zero whatever
        # constant offset rides on the input magnitude
        g = self.graph()
        mp = self.mp(g, seed=2)
        shifted = MagPhase(mp.mag + 3.0, mp.phase, mp.config)
        out = generator_forward(g, shifted, zero_weights=True)
        np.testing.assert_array_equal(out.mag - shifted.mag, np.zeros_like(mp.mag))

    def test_phase_range(self):
        g = self.graph()
        out = generator_forward(g, self.mp(g, seed=3), seed=11)
        assert np.all(out.phase > -np.pi) and np.all(out.phase <= np.pi)
        assert np.all(np.isfinite(out.mag))

    def test_deterministic(self):
        g = self.graph()
        mp = self.mp(g, seed=4)
        a = generator_forward(g, mp, seed=9)
        b = generator_forward(g, mp, seed=9)
        np.testing.assert_array_equal(a.mag, b.mag)
        np.testing.assert_array_equal(a.phase, b.phase)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(InvalidArgumentError):
            GeneratorGraph(hidden=30, heads=8)

    @pytest.mark.parametrize(
        "kw", [{"conv_kernel": 4}, {"conv_kernel": 0}, {"conv_kernel": -1}, {"heads": 0}, {"hidden": 0}]
    )
    def test_bad_graph_rejected(self, kw):
        with pytest.raises(InvalidArgumentError):
            GeneratorGraph(**kw)

    def test_shape_mismatch(self):
        g = self.graph()
        bad = MagPhase(np.zeros((10, 10)), np.zeros((10, 10)), StftConfig())
        with pytest.raises(InvalidArgumentError):
            generator_forward(g, bad)

    @pytest.mark.parametrize("name", ["alpha1", "alpha2", "beta1", "beta2"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "build", [LatticeScalars, lambda **kw: GeneratorGraph(scalars=LatticeScalars(**kw))]
    )
    def test_non_finite_scalar_rejected(self, name, value, build):
        with pytest.raises(InvalidArgumentError, match="lattice scalars has a non-finite entry"):
            build(**{name: value})

    @pytest.mark.parametrize("grid, value", [("mag", -np.inf), ("phase", np.nan)])
    def test_non_finite_input_rejected(self, grid, value):
        g = self.graph()
        mp = self.mp(g, seed=6)
        getattr(mp, grid)[3, 5] = value
        with pytest.raises(InvalidArgumentError, match="non-finite"):
            generator_forward(g, mp)


class TestDescribe:
    def test_net_document(self):
        doc = describe_net(build_mrld_cnn())
        assert doc["name"] == "mrld"
        assert len(doc["layers"]) == 5
        assert doc["total_params"] == param_count(build_mrld_cnn())
        assert doc["dsc_reduction_ratio"] > 1

    def test_generator_document(self):
        g = GeneratorGraph()
        doc = describe_generator(g)
        assert doc["conformer_blocks"] == 4
        assert doc["heads"] == 8
        assert doc["total_params"] == generator_param_count(g)
