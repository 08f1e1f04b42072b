import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from bwetools.errors import (
    InvalidArgumentError,
    UnreadableFileError,
    UnsupportedEncodingError,
)
from bwetools.signal import (
    ResampleConfig,
    Waveform,
    degrade,
    frame,
    load_wav,
    resample,
    save_wav,
)


def sine(freq, rate, n):
    return np.sin(2 * np.pi * freq * np.arange(n) / rate)


class TestLoadWav:
    def test_pcm16_scaling(self, tmp_path):
        path = tmp_path / "x.wav"
        wavfile.write(path, 8000, np.array([0, 16384, -16384], dtype=np.int16))
        wf = load_wav(path)
        assert wf.rate == 8000
        assert np.allclose(wf.samples, [0.0, 0.5, -0.5], atol=1 / 32768)

    def test_stereo_cancellation(self, tmp_path):
        path = tmp_path / "x.wav"
        c = np.linspace(-0.5, 0.5, 100, dtype=np.float32)
        wavfile.write(path, 16000, np.stack([c, -c], axis=1))
        wf = load_wav(path)
        assert np.allclose(wf.samples, 0.0)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.wav"
        path.write_bytes(b"RIFF\x10\x00\x00\x00WAV")
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_wav(tmp_path / "nope.wav")

    def test_roundtrip_float32(self, tmp_path):
        path = tmp_path / "x.wav"
        wf = Waveform(np.linspace(-0.9, 0.9, 512), 48000)
        save_wav(path, wf)
        back = load_wav(path)
        assert back.rate == 48000
        assert np.allclose(back.samples, wf.samples, atol=1e-6)


class TestResample:
    def test_identity(self):
        wf = Waveform(np.random.default_rng(0).standard_normal(100), 16000)
        out = resample(wf, 16000)
        assert out.rate == 16000
        np.testing.assert_array_equal(out.samples, wf.samples)

    def test_sine_oracle_48k_to_16k(self):
        wf = Waveform(sine(1000, 48000, 48000), 48000)
        out = resample(wf, 16000)
        expected = sine(1000, 16000, len(out))
        edge = ResampleConfig().filter_half_width
        assert np.max(np.abs(out.samples - expected)[edge:-edge]) < 1e-3

    def test_noise_band_rejection(self):
        rng = np.random.default_rng(1)
        wf = Waveform(rng.standard_normal(48000), 48000)
        back = resample(resample(wf, 8000), 48000)
        spec = np.abs(np.fft.rfft(back.samples)) ** 2
        freqs = np.fft.rfftfreq(len(back), 1 / 48000)
        passband = spec[(freqs > 100) & (freqs < 3800)].mean()
        stopband = spec[freqs > 4200].mean()
        assert 10 * np.log10(passband / stopband) > 40

    def test_linearity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(4000)
        y = rng.standard_normal(4000)
        a, b = 0.7, -1.3
        lhs = resample(Waveform(a * x + b * y, 48000), 16000).samples
        rhs = a * resample(Waveform(x, 48000), 16000).samples + b * resample(
            Waveform(y, 48000), 16000
        ).samples
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_passband_energy_preserved(self):
        wf = Waveform(sine(3000, 48000, 48000), 48000)
        out = resample(wf, 16000)
        ratio = np.mean(out.samples**2) / np.mean(wf.samples**2)
        assert abs(10 * np.log10(ratio)) < 0.5

    def test_bad_target_rate(self):
        with pytest.raises(InvalidArgumentError):
            resample(Waveform(np.zeros(10), 48000), 0)


class TestDegrade:
    def test_passband_sine_survives(self):
        wf = Waveform(sine(5000, 48000, 48000), 48000)
        out = degrade(wf, 24000)
        assert np.max(np.abs(out.samples - wf.samples)[200:-200]) < 1e-3

    def test_stopband_sine_removed(self):
        wf = Waveform(sine(15000, 48000, 48000), 48000)
        out = degrade(wf, 24000)
        assert np.sqrt(np.mean(out.samples**2)) < 0.01 * np.sqrt(np.mean(wf.samples**2))

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 97, 256, 999, 1000])
    def test_length_preserved(self, n):
        wf = Waveform(np.random.default_rng(n).standard_normal(n), 48000)
        out = degrade(wf, 31997)
        assert len(out) == n and out.rate == 48000

    @given(
        n=st.integers(1, 3000),
        rates=st.lists(
            st.sampled_from([8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000]),
            min_size=2,
            max_size=2,
            unique=True,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_never_short(self, n, rates):
        # degrade keeps the first len(wf) samples of this round trip unpadded
        low, rate = sorted(rates)
        wf = Waveform(np.random.default_rng(n).standard_normal(n), rate)
        assert len(resample(resample(wf, low), wf.rate)) >= len(wf)

    def test_low_rate_validation(self):
        wf = Waveform(np.zeros(100), 48000)
        with pytest.raises(InvalidArgumentError):
            degrade(wf, 48000)
        with pytest.raises(InvalidArgumentError):
            degrade(wf, 96000)

    def test_idempotent_on_bandlimited_input(self):
        rng = np.random.default_rng(0)
        base = degrade(Waveform(rng.standard_normal(48000), 48000), 16000)
        once = degrade(base, 24000)
        twice = degrade(once, 24000)
        assert np.sqrt(np.mean((twice.samples - once.samples) ** 2)) < 1e-3


class TestFrame:
    def test_non_overlapping_counts(self):
        wf = Waveform(np.arange(10, dtype=float), 8000)
        assert frame(wf, 4, 4).shape == (2, 4)

    def test_exact_fit(self):
        wf = Waveform(np.arange(4, dtype=float), 8000)
        out = frame(wf, 4, 4)
        assert out.shape == (1, 4)
        np.testing.assert_array_equal(out[0], wf.samples)

    def test_overlapping_is_fresh_copy(self):
        wf = Waveform(np.arange(10, dtype=float), 8000)
        out = frame(wf, 4, 3)
        np.testing.assert_array_equal(out, [[0, 1, 2, 3], [3, 4, 5, 6], [6, 7, 8, 9]])
        out[0, 3] = -1.0
        assert out[1, 0] == 3.0 and wf.samples[3] == 3.0

    def test_too_short_is_empty(self):
        out = frame(Waveform(np.arange(3, dtype=float), 8000), 4, 4)
        assert out.shape == (0, 4)

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            frame(Waveform(np.zeros(10), 8000), 0, 1)


class TestWaveform:
    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            Waveform(np.array([0.0, np.nan]), 8000)

    def test_rejects_bad_rate(self):
        with pytest.raises(InvalidArgumentError):
            Waveform(np.zeros(4), 0)
