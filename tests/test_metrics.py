import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bwetools.demo import synthetic_speech
from bwetools.errors import InvalidArgumentError
from bwetools.metrics import (
    SI_CAP_DB,
    SI_DECIMALS,
    STOI_CONFIG,
    _third_octave_bands,
    evaluate,
    lsd,
    si_sdr,
    si_snr,
    stoi,
)
from bwetools.signal import Waveform, degrade, resample
from bwetools.spectral import StftConfig
from test_spectral import BLOCK_FRAMES, reference_stft


def noise_wave(n, seed=0, rate=16000):
    return Waveform(np.random.default_rng(seed).standard_normal(n), rate)


def orthogonal_error(ref, scale_sq=0.01, seed=97):
    """Noise orthogonal to ref with energy scale_sq * ||ref||^2."""
    e = np.random.default_rng(seed).standard_normal(len(ref))
    r = ref.samples
    e -= (e @ r) / (r @ r) * r
    e *= np.sqrt(scale_sq * (r @ r) / (e @ e))
    return e


@pytest.mark.parametrize("metric", [lsd, si_sdr, si_snr, stoi])
def test_empty_clip_raises(metric):
    # an empty common prefix scored LSD 0.0, a perfect score
    clip, empty = noise_wave(16000), Waveform(np.zeros(0), 16000)
    for ref, est in ((clip, empty), (empty, clip)):
        with pytest.raises(InvalidArgumentError, match=f"reference has {len(ref)} samples, estimate {len(est)}"):
            metric(ref, est)


class TestLsd:
    def test_identical_is_zero(self):
        ref = noise_wave(16000)
        assert lsd(ref, ref) == 0.0

    def test_amplitude_decade_is_20db(self):
        ref = noise_wave(16000, seed=1)
        est = Waveform(10.0 * ref.samples, ref.rate)
        assert lsd(ref, est) == pytest.approx(20.0, abs=1e-9)

    def test_symmetry(self):
        a = noise_wave(16000, seed=2)
        b = Waveform(a.samples + 0.1 * noise_wave(16000, seed=3).samples, a.rate)
        assert lsd(a, b) == pytest.approx(lsd(b, a), rel=1e-12)

    def test_rate_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            lsd(noise_wave(16000, rate=16000), noise_wave(16000, rate=8000))

    def test_degradation_ordering(self, speech_clip):
        values = [lsd(speech_clip, degrade(speech_clip, r)) for r in (4000, 8000, 16000)]
        assert values[0] > values[1] > values[2]


class TestSiMetrics:
    def test_identical_capped(self):
        ref = noise_wave(16000, seed=4)
        assert si_sdr(ref, ref) == SI_CAP_DB
        assert si_snr(ref, ref) == SI_CAP_DB

    def test_scale_invariance_exact(self):
        ref = noise_wave(16000, seed=5)
        est = Waveform(ref.samples + orthogonal_error(ref), ref.rate)
        est2 = Waveform(2.0 * est.samples, ref.rate)
        assert si_sdr(ref, est2) == si_sdr(ref, est)

    def test_orthogonal_noise_closed_form(self):
        ref = noise_wave(16000, seed=6)
        est = Waveform(ref.samples + orthogonal_error(ref, 0.01), ref.rate)
        assert si_sdr(ref, est) == pytest.approx(20.0, abs=1e-6)

    def test_si_snr_centers_means(self):
        ref = noise_wave(16000, seed=7)
        est = Waveform(ref.samples + 0.5, ref.rate)  # DC offset only
        assert si_snr(ref, est) == SI_CAP_DB  # offset removed by centering
        assert si_sdr(ref, est) < SI_CAP_DB

    def test_zero_reference(self):
        z = Waveform(np.zeros(100), 16000)
        with pytest.raises(InvalidArgumentError):
            si_sdr(z, noise_wave(100))

    @pytest.mark.parametrize(
        "ref", [np.full(16000, 0.5), np.full(16000, 0.1), np.ones(1)], ids=["dc", "dc_inexact_mean", "one_sample"]
    )
    def test_constant_reference_si_snr(self, ref):
        # not an all-zero reference: it is zero only after mean-centering
        with pytest.raises(InvalidArgumentError, match="constant, so all zero after mean-centering"):
            si_snr(Waveform(ref, 16000), noise_wave(ref.size))

    def test_silent_estimate_floor(self):
        ref = noise_wave(16000, seed=8)
        silent = Waveform(np.zeros(16000), ref.rate)
        assert si_sdr(ref, silent) == -SI_CAP_DB
        assert si_snr(ref, silent) == -SI_CAP_DB
        assert si_snr(ref, Waveform(np.full(16000, 0.5), ref.rate)) == -SI_CAP_DB

    def test_extreme_amplitude(self):
        ref = noise_wave(16000, seed=9)
        est = Waveform(ref.samples + orthogonal_error(ref), ref.rate)
        expected = si_sdr(ref, est)
        for scale in (1e200, 1e-200):
            big_ref = Waveform(scale * ref.samples, ref.rate)
            big_est = Waveform(scale * est.samples, ref.rate)
            assert np.isfinite(si_sdr(big_ref, big_est))
            assert si_sdr(big_ref, big_est) == expected
            assert si_snr(big_ref, big_est) == si_snr(ref, est)

    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(min_value=1e-4, max_value=10.0),
        scale=st.floats(min_value=1e-100, max_value=1e100),
    )
    # about 1e-13 dB above a rounding boundary of the 1e-9 dB grid, where
    # rounding the centred signals and alpha * ref once tipped si_snr over it
    @example(seed=357865, noise=0.0001, scale=4471657817455501.0)
    # rounding the scaled samples moves the true value across a boundary:
    # si_sdr reads 79.916315892 against 79.916315891, si_snr 80.15159196
    # against 80.151591959
    @example(seed=1676, noise=0.0001, scale=125.0)
    @example(seed=71773, noise=0.0001, scale=9.0)
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance_property(self, seed, noise, scale):
        """A factor other than a power of two rounds the scaled samples, so
        the value may land one grid step away (test_power_of_two_scale_is_exact
        pins exact equality); values on the grid differ by less than 1.5 steps
        only if they are at most one step apart."""
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(2000)
        e = r + noise * rng.standard_normal(2000)
        ref, est = Waveform(r, 16000), Waveform(e, 16000)
        scaled_est = Waveform(scale * e, 16000)
        step = 10.0**-SI_DECIMALS
        assert abs(si_sdr(ref, scaled_est) - si_sdr(ref, est)) < 1.5 * step
        assert abs(si_snr(ref, scaled_est) - si_snr(ref, est)) < 1.5 * step
        assert abs(si_sdr(Waveform(scale * r, 16000), est) - si_sdr(ref, est)) < 1.5 * step

    @given(
        seed=st.integers(0, 2**32 - 1),
        noise=st.floats(min_value=1e-4, max_value=10.0),
        k=st.integers(-600, 600),
    )
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_is_exact(self, seed, noise, k):
        """Scaling ref or est by 2**k rounds no sample, so both metrics
        return the identical float."""
        rng = np.random.default_rng(seed)
        r = rng.standard_normal(2000)
        e = r + noise * rng.standard_normal(2000)
        ref, est = Waveform(r, 16000), Waveform(e, 16000)
        scaled_ref, scaled_est = Waveform(np.ldexp(r, k), 16000), Waveform(np.ldexp(e, k), 16000)
        for metric in (si_sdr, si_snr):
            assert metric(ref, scaled_est) == metric(ref, est)
            assert metric(scaled_ref, est) == metric(ref, est)


# one 30-frame STOI segment at its rate, and the longest cut of a 1 s 16 kHz
# clip whose rest resamples, to ceil(n * rate / 16000) samples, to at least that
STOI_SEGMENT = (STOI_CONFIG["segment_frames"] - 1) * STOI_CONFIG["hop"] + STOI_CONFIG["n_fft"]
LONGEST_CUT = 16000 - ((STOI_SEGMENT - 1) * 16000 // STOI_CONFIG["rate"] + 1)


class TestStoi:
    def test_identical(self, speech_clip):
        assert stoi(speech_clip, speech_clip) >= 0.999

    def test_uncorrelated_noise_low(self, speech_clip):
        noise = Waveform(
            np.random.default_rng(8).standard_normal(len(speech_clip)) * 0.1,
            speech_clip.rate,
        )
        assert stoi(speech_clip, noise) < 0.2

    def test_degradation_ordering(self, speech_clip):
        assert stoi(speech_clip, degrade(speech_clip, 4000)) < stoi(
            speech_clip, degrade(speech_clip, 8000)
        )

    def test_monotone_in_noise_level(self, speech_clip):
        noise = np.random.default_rng(9).standard_normal(len(speech_clip))
        noise *= speech_clip.samples.std()
        prev = np.inf
        for sigma in (0.01, 0.1, 0.5, 1.0):
            est = Waveform(speech_clip.samples + sigma * noise, speech_clip.rate)
            score = stoi(speech_clip, est)
            assert score <= prev
            prev = score

    def test_silent_estimate_scores_zero(self, speech_clip):
        silent = Waveform(np.zeros(len(speech_clip)), speech_clip.rate)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert stoi(speech_clip, silent) == 0.0
            assert evaluate(speech_clip, silent).stoi == 0.0

    @given(k=st.integers(-600, 600))
    @settings(max_examples=30, deadline=None)
    def test_power_of_two_scale_is_exact(self, speech, k):
        # at 2**600 the band powers used to overflow, at 2**-600 underflow
        ref = speech(1.0, 16000, 4)
        est = degrade(ref, 8000)
        base = stoi(ref, est)
        assert stoi(ref, Waveform(np.ldexp(est.samples, k), ref.rate)) == base
        assert stoi(Waveform(np.ldexp(ref.samples, k), ref.rate), est) == base

    def test_preconditions(self, speech_clip):
        with pytest.raises(InvalidArgumentError):
            stoi(Waveform(np.ones(8000), 8000), Waveform(np.ones(8000), 8000))
        short = Waveform(speech_clip.samples[:4800], 48000)
        with pytest.raises(InvalidArgumentError):
            stoi(short, short)

    def test_needs_one_segment_of_active_samples(self, speech):
        # (segment_frames - 1) * hop + n_fft samples at 10 kHz make one 30-frame segment
        c = STOI_CONFIG
        need = (c["segment_frames"] - 1) * c["hop"] + c["n_fft"]
        assert need == 7936
        clip = speech(1.0, c["rate"], 0).samples
        ok = Waveform(clip[:need], c["rate"])
        assert 0.0 <= stoi(ok, ok) <= 1.0
        short = Waveform(clip[: need - 1], c["rate"])
        with pytest.raises(InvalidArgumentError, match=r"7936 active samples .* 29 of 29 frames"):
            stoi(short, short)

    def test_silent_reference_has_no_active_frame(self, speech):
        est = speech(1.0, 16000, 2)
        silent = Waveform(np.zeros(len(est)), est.rate)
        with pytest.raises(InvalidArgumentError, match=r"7936 active samples .* 0 of \d+ frames"):
            stoi(silent, est)

    @given(seed=st.integers(0, 2**16), cut=st.integers(1, LONGEST_CUT))
    @settings(max_examples=5, deadline=None)
    def test_unequal_lengths_score_the_common_prefix(self, speech, seed, cut):
        ref = speech(1.0, 16000, 5)
        for n in (len(ref) - cut, len(ref) + cut):
            noise = 0.1 * np.random.default_rng(seed).standard_normal(n)
            est = Waveform(np.resize(ref.samples, n) + noise, ref.rate)
            m = min(len(ref), n)
            prefix = stoi(Waveform(ref.samples[:m], ref.rate), Waveform(est.samples[:m], ref.rate))
            assert stoi(ref, est) == prefix

    def test_longest_cut_keeps_one_segment(self, speech):
        ref = speech(1.0, 16000, 5)
        assert LONGEST_CUT == 3303
        assert 0.0 <= stoi(Waveform(ref.samples[: 16000 - LONGEST_CUT], ref.rate), ref) <= 1.0
        short = Waveform(ref.samples[: 16000 - LONGEST_CUT - 1], ref.rate)
        with pytest.raises(InvalidArgumentError, match=r"7936 active samples .* 29 of 29 frames"):
            stoi(ref, short)


def reference_stoi(ref, est):
    """Per-segment STOI loop the vectorised `stoi` must match bit for bit
    (preconditions left to `stoi`)."""
    c = STOI_CONFIG
    n = min(len(ref), len(est))
    x = resample(Waveform(ref.samples[:n], ref.rate), c["rate"])
    y = resample(Waveform(est.samples[:n], est.rate), c["rate"])
    cfg = StftConfig(n_fft=c["n_fft"], win_length=c["n_fft"], hop=c["hop"], center=False)
    spec_x = reference_stft(x, cfg)
    spec_y = reference_stft(y, cfg)
    frame_energy = np.sum(np.abs(spec_x) ** 2, axis=0)
    keep = frame_energy > frame_energy.max() * 10.0 ** (-c["dyn_range_db"] / 10.0)
    bands = _third_octave_bands(c["rate"], c["n_fft"], c["n_bands"], c["first_center_hz"])
    env_x = np.sqrt(bands.astype(float) @ (np.abs(spec_x[:, keep]) ** 2))
    env_y = np.sqrt(bands.astype(float) @ (np.abs(spec_y[:, keep]) ** 2))
    clip_gain = 10.0 ** (-c["sdr_bound_db"] / 20.0)
    seg = c["segment_frames"]
    scores = []
    for m in range(seg, env_x.shape[1] + 1):
        xs = env_x[:, m - seg : m]
        ys = env_y[:, m - seg : m]
        norm_x = np.linalg.norm(xs, axis=1, keepdims=True)
        norm_y = np.linalg.norm(ys, axis=1, keepdims=True)
        ys = np.minimum(ys * (norm_x / np.maximum(norm_y, 1e-12)), xs * (1.0 + clip_gain))
        xs = xs - xs.mean(axis=1, keepdims=True)
        ys = ys - ys.mean(axis=1, keepdims=True)
        denom = np.linalg.norm(xs, axis=1) * np.linalg.norm(ys, axis=1)
        ok = denom > 1e-12
        scores.extend((np.sum(xs * ys, axis=1)[ok] / denom[ok]).tolist())
    return float(np.clip(np.mean(scores), 0.0, 1.0)) if scores else 0.0


class TestStoiOracle:
    @given(
        seed=st.integers(0, 2**16),
        rate=st.sampled_from([16000, 44100, 48000]),
        duration=st.floats(1.0, 2.0),
        noise=st.sampled_from([0.0, 0.01, 0.3, 3.0, None]),  # None: all-zero estimate
        degraded=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_segment_loop(self, seed, rate, duration, noise, degraded):
        ref = synthetic_speech(duration=duration, rate=rate, seed=seed)
        base = degrade(ref, 8000) if degraded else ref
        if noise is None:
            est = Waveform(np.zeros(len(ref)), rate)
        else:
            est = Waveform(base.samples + noise * np.random.default_rng(seed).standard_normal(len(ref)), rate)
        assert stoi(ref, est) == reference_stoi(ref, est)

    @pytest.mark.parametrize("frames", [f for f in BLOCK_FRAMES if f >= STOI_CONFIG["segment_frames"]])
    @pytest.mark.parametrize("extra", [0, STOI_CONFIG["hop"] - 1])
    def test_matches_at_block_boundaries(self, frames, extra):
        # uncentered 10 kHz frames: a clip of n samples has 1 + (n - n_fft) // hop of them
        c = STOI_CONFIG
        n = c["n_fft"] + c["hop"] * (frames - 1) + extra
        ref = Waveform(synthetic_speech(duration=3.5, rate=c["rate"], seed=frames).samples[:n], c["rate"])
        est = Waveform(ref.samples + 0.1 * np.random.default_rng(extra).standard_normal(n), c["rate"])
        assert stoi(ref, est) == reference_stoi(ref, est)


class TestEvaluate:
    def test_report_schema(self, speech_clip):
        est = degrade(speech_clip, 8000)
        report = evaluate(speech_clip, est)
        doc = report.as_dict()
        for key in ("lsd", "si_sdr", "si_snr", "stoi", "config"):
            assert key in doc
        assert np.isfinite(doc["lsd"])
        assert 0.0 <= doc["stoi"] <= 1.0
