import numpy as np
import pytest

from bwetools.demo import synthetic_speech
from bwetools.errors import InvalidArgumentError
from bwetools.featmaps import (
    DEFAULT_DFA_SCALES,
    DEFAULT_LYAPUNOV_WINDOWS,
    MultiResSpecConfig,
    mrad_mrpd_features,
    mrld_features,
    msdfa_features,
    resolution_params,
)
from bwetools.nld import dfa_exponent, dfa_fluctuation, lyapunov_windows
from bwetools.signal import Waveform
from bwetools.spectral import EPS_MAG, StftConfig, stft, to_mag_phase
from conftest import logistic_orbit


def noise_wave(n, seed=0, rate=48000):
    return Waveform(np.random.default_rng(seed).uniform(-1, 1, n), rate)


# window sizes and DFA scales go through one validator: each of these is rejected
BAD_SIZES = [
    (), (0, 64), (-64, 128), (64, 64), (64.7, 128), ("64",), (100, 100, 200), (100.7, 200), ("a",),
    (True, 2), (64, None), (64, float("nan")), (64, float("inf")), 64,
]


class TestMrld:
    def test_shape_and_counts(self):
        stack = mrld_features(noise_wave(5120))
        assert stack.data.shape == (5, 1, 80)
        # coarsest channel: 5 segments of 1024 samples before padding
        ch = stack.meta["channels"][-1]
        assert ch["window"] == 1024 and ch["count"] == 5

    def test_constant_input_all_zero(self):
        stack = mrld_features(Waveform(np.full(5120, 0.25), 48000))
        assert np.all(stack.data == 0)
        assert all(c["degenerate"] for c in stack.meta["channels"])

    def test_zscore_channels(self):
        stack = mrld_features(noise_wave(5120, seed=1))
        for c, meta in enumerate(stack.meta["channels"]):
            if meta["degenerate"]:
                continue
            values = stack.data[c, 0, : meta["count"]]
            assert abs(values.mean()) < 1e-9
            assert abs(values.var() - 1.0) < 1e-6

    def test_padding_is_zero(self):
        stack = mrld_features(noise_wave(5120, seed=2))
        for c, meta in enumerate(stack.meta["channels"]):
            assert np.all(stack.data[c, 0, meta["count"] :] == 0)

    def test_short_signal_degenerate_channel(self):
        stack = mrld_features(noise_wave(512))
        metas = {m["window"]: m for m in stack.meta["channels"]}
        assert metas[1024]["degenerate"]
        assert np.all(stack.data[-1] == 0)

    def test_chaos_vs_noise_separation(self):
        n = 5120
        chaotic = Waveform(logistic_orbit(n) * 2 - 1, 48000)
        noisy = noise_wave(n, seed=3)
        chaotic_levels = lyapunov_windows(chaotic.samples, DEFAULT_LYAPUNOV_WINDOWS)
        noisy_levels = lyapunov_windows(noisy.samples, DEFAULT_LYAPUNOV_WINDOWS)
        for w in DEFAULT_LYAPUNOV_WINDOWS:
            a, b = chaotic_levels[w], noisy_levels[w]
            pooled = np.sqrt((a.std() ** 2 + b.std() ** 2) / 2)
            assert abs(a.mean() - b.mean()) > 3 * pooled

    def test_deterministic(self):
        wf = noise_wave(4096, seed=4)
        a = mrld_features(wf)
        b = mrld_features(wf)
        np.testing.assert_array_equal(a.data, b.data)

    def test_extreme_amplitude(self, speech):
        wf = speech(0.5)
        base = mrld_features(wf)
        big = mrld_features(Waveform(wf.samples * 1e200, wf.rate))
        assert not any(c["degenerate"] for c in big.meta["channels"])
        assert np.all(np.isfinite(big.data))
        # only eps (1e-8, negligible next to 1e200 distances) tells them apart
        np.testing.assert_allclose(big.data, base.data, atol=1e-3)

    def test_tiny_amplitude_is_degenerate(self, speech):
        # EmbeddingParams.eps = 1e-8 is an absolute floor: next to distances
        # near 1e-200 every rate is log(eps/eps) = 0, so no channel varies
        wf = speech(0.5)
        tiny = mrld_features(Waveform(wf.samples * 1e-200, wf.rate))
        assert all(c["degenerate"] for c in tiny.meta["channels"])
        assert np.all(tiny.data == 0)

    @pytest.mark.parametrize("windows", BAD_SIZES)
    def test_bad_windows_rejected(self, windows):
        with pytest.raises(InvalidArgumentError):
            mrld_features(noise_wave(2048), windows)


class TestMsdfa:
    def test_tiling_definition(self):
        wf = noise_wave(4096, seed=5)
        stack = msdfa_features(wf, DEFAULT_DFA_SCALES, side=64)
        assert stack.data.shape == (5, 64, 64)
        assert np.all(stack.data == dfa_fluctuation(wf.samples, DEFAULT_DFA_SCALES)[:, None, None])

    def test_channels_constant(self):
        stack = msdfa_features(noise_wave(4096, seed=6))
        for c in range(stack.channels):
            assert stack.data[c].max() - stack.data[c].min() == 0.0

    def test_constant_input_zero(self):
        # every fluctuation is exactly 0, flagged as a zero-variance MRLD channel is
        stack = msdfa_features(Waveform(np.full(4096, -0.5), 16000))
        assert np.all(stack.data == 0)
        assert all(c["degenerate"] for c in stack.meta["channels"])

    def test_silent_input_degenerate(self):
        stack = msdfa_features(Waveform(np.zeros(4096), 16000))
        assert np.all(stack.data == 0)
        assert all(c["degenerate"] for c in stack.meta["channels"])

    def test_speech_not_degenerate(self):
        stack = msdfa_features(synthetic_speech(duration=0.5, rate=16000, seed=2))
        assert not any(c["degenerate"] for c in stack.meta["channels"])
        assert np.all(stack.data > 0)

    def test_extreme_amplitude_finite(self, speech):
        wf = speech(0.5)
        big = msdfa_features(Waveform(wf.samples * 1e200, wf.rate))
        assert np.all(np.isfinite(big.data)) and np.all(big.data > 0)

    def test_scale_too_large_flagged(self):
        stack = msdfa_features(noise_wave(500, seed=7))
        metas = {m["scale"]: m for m in stack.meta["channels"]}
        assert metas[300]["degenerate"] and metas[600]["degenerate"]
        assert not metas[100]["degenerate"]

    @pytest.mark.parametrize("scales", BAD_SIZES)
    @pytest.mark.parametrize(
        "extract", [msdfa_features, lambda wf, scales: dfa_exponent(wf.samples, scales)], ids=["msdfa", "dfa_exponent"]
    )
    def test_bad_scales_rejected(self, extract, scales):
        with pytest.raises(InvalidArgumentError):
            extract(noise_wave(4096), scales)

    @pytest.mark.parametrize("length", [1, 500])
    def test_scale_one_rejected_at_any_length(self, length):
        # a 1-sample clip flagged scale 1 degenerate, a 500-sample one raised
        with pytest.raises(InvalidArgumentError, match="DFA scale must be an integer >= 2"):
            msdfa_features(noise_wave(length), scales=(1, 100))

    @pytest.mark.parametrize("side", [8.7, "8", None, True, float("nan"), float("inf"), 0])
    def test_bad_side_rejected(self, side):
        with pytest.raises(InvalidArgumentError, match="tile side"):
            msdfa_features(noise_wave(4096), side=side)

    @pytest.mark.parametrize("scales, side", [(DEFAULT_DFA_SCALES, 10**9), ((100,), 2**30), ((100, 200), 3 * 2**28)])
    def test_side_past_the_largest_array_rejected(self, scales, side):
        # numpy refuses these maps itself, as more bytes than its largest index
        with pytest.raises(ValueError, match="too big"):
            np.empty((len(scales), side, side))
        with pytest.raises(InvalidArgumentError, match=f"tile side {side} "):
            msdfa_features(noise_wave(4096), scales, side=side)

    @pytest.mark.parametrize("side", [8.0, np.int64(8)])
    def test_integral_side_accepted(self, side):
        wf = noise_wave(4096, seed=8)
        stack = msdfa_features(wf, side=side)
        assert stack.meta["side"] == 8 and type(stack.meta["side"]) is int
        assert np.array_equal(stack.data, msdfa_features(wf, side=8).data)


class TestMradMrpd:
    def test_three_resolutions(self, speech_clip):
        grids = mrad_mrpd_features(speech_clip)
        assert len(grids) == 3
        assert [g.mag.shape[0] for g in grids] == [512, 128, 512]

    def test_zero_signal(self):
        cfg = MultiResSpecConfig()
        grids = mrad_mrpd_features(Waveform(np.zeros(8192), 48000), cfg)
        for g in grids:
            assert np.allclose(g.mag, np.log(EPS_MAG))
            assert np.all(g.phase == 0)

    def test_sine_bin_location(self):
        t = np.arange(48000) / 48000
        grids = mrad_mrpd_features(Waveform(np.sin(2 * np.pi * 1000 * t), 48000))
        n_fft_2 = 256
        expected = round(1000 / (48000 / n_fft_2))
        energy = np.exp(2 * grids[1].mag).mean(axis=1)
        assert np.argmax(energy) == expected

    @pytest.mark.parametrize(
        "cfg",
        [
            MultiResSpecConfig(),
            # the last resolution clamps to the settings of the one before it
            MultiResSpecConfig((64, 32, 64, 64, 64), (16, 8, 32, 16, 16), (64, 64, 64, 128, 256)),
        ],
    )
    @pytest.mark.parametrize("n", [1, 3000, 48000 + 17])
    def test_matches_each_resolution(self, cfg, n):
        wf = Waveform(np.random.default_rng(n).standard_normal(n), 48000)
        params, grids = resolution_params(cfg), mrad_mrpd_features(wf, cfg)
        assert len(grids) == len(params)
        for res, mp in zip(params, grids):
            stft_cfg = StftConfig(n_fft=res["n_fft"], win_length=res["win_length"], hop=res["hop"])
            full = to_mag_phase(stft(wf, stft_cfg))
            bins = res["freq_bins"]
            assert np.array_equal(mp.mag, full.mag[:bins])
            assert np.array_equal(mp.phase, full.phase[:bins])
            assert (mp.config, mp.n_samples) == (stft_cfg, n)

    def test_overflow_raises(self, speech):
        # peak 1, so the samples are finite and the spectra overflow
        loud = Waveform(1e307 * speech(0.5, seed=3).samples, 48000)
        with pytest.raises(InvalidArgumentError, match="finite"), np.errstate(all="ignore"):
            mrad_mrpd_features(loud)

    def test_clamps_recorded(self):
        params = resolution_params(MultiResSpecConfig())
        assert [p["win_clamped"] for p in params] == [True, True, True]
        assert all(p["hop"] <= p["win_length"] // 2 for p in params)

    def test_bad_config(self):
        with pytest.raises(InvalidArgumentError):
            MultiResSpecConfig(freq_bins=(512, 128), hops=(1024,), win_lengths=(2048,))

    @pytest.mark.parametrize("name", ["freq_bins", "hops", "win_lengths"])
    def test_bare_int_resolution_rejected(self, name):
        cfg = {"freq_bins": (64,), "hops": (32,), "win_lengths": (128,)} | {name: 512}
        with pytest.raises(InvalidArgumentError, match=f"{name} must be a tuple"):
            MultiResSpecConfig(**cfg)

    # the BAD_SIZES cases with a bad entry: repeats are fine here
    @pytest.mark.parametrize(
        "entries", [s for s in BAD_SIZES if isinstance(s, tuple) and 0 < len(set(s)) == len(s)]
    )
    @pytest.mark.parametrize("name", ["freq_bins", "hops", "win_lengths"])
    def test_bad_resolution_entry_rejected(self, name, entries):
        cfg = {"freq_bins": (64, 64), "hops": (32, 32), "win_lengths": (128, 128)}
        cfg = {key: value[: len(entries)] for key, value in cfg.items()} | {name: entries}
        with pytest.raises(InvalidArgumentError, match=f"each of {name}"):
            MultiResSpecConfig(**cfg)
