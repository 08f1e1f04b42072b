import functools
import os
import struct
import threading
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.io import wavfile
from scipy.signal import upfirdn

from bwetools import cli
from bwetools.errors import (
    InvalidArgumentError,
    UnreadableFileError,
    UnsupportedEncodingError,
)
from bwetools.signal import (
    ResampleConfig,
    Waveform,
    _polyphase_taps,
    _resample_plan,
    degrade,
    frame,
    load_wav,
    resample,
    save_wav,
)


def reference_load_wav(path) -> Waveform:
    """load_wav as it was on scipy.io.wavfile, the oracle for the numpy reader.

    Two lines differ. The samples are brought to native byte order before the
    dtype check. Without it every RIFX file was rejected, since
    np.dtype(">i2") != np.int16; the numpy reader reads RIFX. And a 0 Hz
    header is an unsupported encoding, like every other malformed header,
    where scipy read it and Waveform then raised InvalidArgumentError."""
    try:
        with open(path, "rb") as fh:
            rate, data = wavfile.read(fh)
    except FileNotFoundError as exc:
        raise UnreadableFileError(f"cannot open {path!r}: {exc}") from exc
    except PermissionError as exc:
        raise UnreadableFileError(f"cannot open {path!r}: {exc}") from exc
    except Exception as exc:  # malformed RIFF, unsupported chunk layout
        raise UnsupportedEncodingError(f"unsupported encoding in {path!r}: {exc}") from exc
    if rate == 0:
        raise UnsupportedEncodingError(f"unsupported encoding in {path!r}: sample rate of 0 Hz")

    data = data.astype(data.dtype.newbyteorder("="))
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedEncodingError(
            f"unsupported sample format {data.dtype} in {path!r} (want int16 or float32)"
        )
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return Waveform(samples, int(rate))


# (format tag, container bytes, bits per sample): the two supported encodings
# first, then rejected ones: uint8, int32, float64 and packed 24-bit PCM
ENCODINGS = [(1, 2, 16), (3, 4, 32), (1, 1, 8), (1, 4, 32), (3, 8, 64), (1, 3, 24)]
GUID_TAIL = b"\x80\x00\x00\xaa\x00\x38\x9b\x71"


def riff_chunk(e, cid, payload):
    return cid + struct.pack(e + "I", len(payload)) + payload + b"\0" * (len(payload) % 2)


@st.composite
def wav_files(draw):
    """(file bytes, frame-aligned end): a WAV file over container, fmt layout,
    encoding, channels, frames and extra chunks, perhaps cut at any byte. The
    aligned end is where the cut would fall if it dropped its partial frame."""
    container = draw(st.sampled_from([b"RIFF", b"RIFX", b"RF64"]))
    e = ">" if container == b"RIFX" else "<"
    tag, width, bits = draw(st.sampled_from(ENCODINGS[:2]) | st.sampled_from(ENCODINGS))
    channels = draw(st.integers(1, 4))
    rate = draw(st.sampled_from([0, 8000, 16000, 44100, 48000]))
    align = channels * width
    header = (channels, rate, rate * align, align, bits)
    if draw(st.booleans()):  # EXTENSIBLE, with the subformat GUID
        guid = struct.pack(e + "IHH", tag, 0, 0x10) + GUID_TAIL
        fmt = struct.pack(e + "HHIIHHHHI", 0xFFFE, *header, 22, bits, 0) + guid
    else:
        fmt = struct.pack(e + "HHIIHH", tag, *header) + (b"\0\0" if tag == 3 else b"")
    extra = st.lists(
        st.tuples(
            st.sampled_from([b"LIST", b"JUNK", b"fact", b"Fake", b"abcd"]),
            st.binary(max_size=9),
        ),
        max_size=2,
    )
    before, after = draw(extra), draw(extra)
    frames = draw(st.integers(0, 40))
    data = draw(st.binary(min_size=frames * align, max_size=frames * align))

    body = riff_chunk(e, b"fmt ", fmt)
    body += b"".join(riff_chunk(e, cid, payload) for cid, payload in before)
    data_size = len(data) if container != b"RF64" else 0xFFFFFFFF
    data_start = len(body) + 8
    body += b"data" + struct.pack(e + "I", data_size) + data + b"\0" * (len(data) % 2)
    body += b"".join(riff_chunk(e, cid, payload) for cid, payload in after)
    if container == b"RF64":
        ds64 = struct.pack("<QQQI", 40 + len(body), len(data), frames, 0)
        head = b"RF64\xff\xff\xff\xffWAVE" + riff_chunk("<", b"ds64", ds64)
    else:
        head = container + struct.pack(e + "I", 4 + len(body)) + b"WAVE"
    blob = head + body
    data_start += len(head)

    cut = draw(st.none() | st.integers(0, len(blob)))
    if cut is None:
        return blob, len(blob)
    aligned = cut
    if data_start < cut < data_start + len(data):
        aligned = data_start + (cut - data_start) // align * align
    return blob[:cut], aligned


def outcome(load, path):
    """(rate, sample bytes) of a load, or the bwetools error class it raised."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            wf = load(path)
        except (InvalidArgumentError, UnreadableFileError, UnsupportedEncodingError) as exc:
            return type(exc)
    return wf.rate, wf.samples.tobytes()


@functools.lru_cache(maxsize=8)
def oracle_taps(rate, target, cfg):
    taps, up, down = _polyphase_taps(rate, target, cfg)
    taps.flags.writeable = False
    return taps, up, down


def upfirdn_resample(x, rate, target, cfg):
    """resample as it was on scipy.signal.upfirdn, with the same taps: the
    oracle for the numpy filter bank."""
    taps, up, down = oracle_taps(rate, target, cfg)
    n_half = (len(taps) - 1) // 2
    pad = (-n_half) % down  # puts the centre tap on the output grid
    out = upfirdn(np.concatenate([np.zeros(pad), taps]), x, up=up, down=down)
    skip = (n_half + pad) // down
    return out[skip : skip + -(-len(x) * up // down)]


def upfirdn_bound(x, rate, target, cfg):
    """Largest |resample - upfirdn_resample| the arithmetic allows. Both sum
    the same n products per output (n <= len(taps) // up + 1) in different
    orders, and each is within gamma_n * sum|h*x| of the exact sum (Higham,
    Accuracy and Stability of Numerical Algorithms, 2nd ed., section 3.1), with
    gamma_n = n*u / (1 - n*u), u = 2**-53 and sum|h*x| <= max|x| times the
    largest column sum of |bank|."""
    taps, up, _ = oracle_taps(rate, target, cfg)
    n = len(taps) // up + 1
    gamma = n * 2.0**-53 / (1 - n * 2.0**-53)
    column = max(np.abs(bank).sum(axis=0).max() for *_, bank in _resample_plan(rate, target, cfg)[-1])
    return 2 * gamma * np.abs(x).max() * column


# rate pairs for the kernel properties: every corpus pair kind (integer up,
# integer down, rational) plus coprime pairs whose filters have 2-3M taps
KERNEL_PAIRS = [
    (48000, 16000),
    (16000, 48000),
    (44100, 10000),
    (8000, 44100),
    (48000, 11025),
    (22050, 16000),
    (48000, 7999),
    (7999, 48000),
    (31997, 10000),
]
KERNEL_CONFIGS = [ResampleConfig(), ResampleConfig(filter_half_width=8, rolloff=1.0)]


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

    def test_directory_is_unreadable(self, tmp_path):
        with pytest.raises(UnreadableFileError):
            load_wav(tmp_path)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_reads_a_pipe(self, tmp_path):
        path, fifo = tmp_path / "x.wav", tmp_path / "fifo"
        save_wav(path, Waveform(np.linspace(-0.5, 0.5, 64), 8000), "pcm16")
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(path.read_bytes(),), daemon=True)
        writer.start()
        wf = load_wav(fifo)
        writer.join(timeout=10)
        assert not writer.is_alive()
        np.testing.assert_array_equal(wf.samples, load_wav(path).samples)

    def test_unknown_format_tag_is_unsupported(self, tmp_path):
        path = tmp_path / "x.wav"
        save_wav(path, Waveform(np.zeros(4), 8000), "pcm16")
        blob = bytearray(path.read_bytes())
        blob[20:22] = struct.pack("<H", 7)  # mu-law
        path.write_bytes(bytes(blob))
        with pytest.raises(UnsupportedEncodingError):
            load_wav(path)

    def test_rifx_pcm16(self, tmp_path):
        path = tmp_path / "x.wav"
        fmt = struct.pack(">HHIIHH", 1, 1, 8000, 16000, 2, 16)
        data = np.array([1, -2, 16384], ">i2").tobytes()
        body = riff_chunk(">", b"fmt ", fmt) + riff_chunk(">", b"data", data)
        path.write_bytes(b"RIFX" + struct.pack(">I", 4 + len(body)) + b"WAVE" + body)
        wf = load_wav(path)
        assert wf.rate == 8000
        np.testing.assert_array_equal(wf.samples * 32768, [1, -2, 16384])

    def test_cut_data_keeps_whole_frames_and_warns(self, tmp_path):
        path = tmp_path / "x.wav"
        c = np.arange(1, 11, dtype=np.float32)
        wavfile.write(path, 16000, np.stack([c, -2 * c], axis=1))
        path.write_bytes(path.read_bytes()[:-12])  # the last frame and half the one before
        with pytest.warns(UserWarning, match="8 of 10 frames"):
            wf = load_wav(path)
        np.testing.assert_array_equal(wf.samples, -c[:8] / 2)

    @given(wav=wav_files())
    @settings(
        max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_matches_scipy_reader(self, tmp_path, wav):
        # a cut inside a frame: the numpy reader keeps the whole frames, where
        # scipy fails to reshape unless the cut falls in the frame's first sample
        blob, aligned = wav
        path, ref_path = tmp_path / "x.wav", tmp_path / "ref.wav"
        path.write_bytes(blob)
        ref_path.write_bytes(blob[:aligned])
        assert outcome(load_wav, path) == outcome(reference_load_wav, ref_path)


def float32_wav_at(path, rate):
    """A 16-sample float32 WAV whose header claims `rate` Hz; float32 headers
    skip the byte-rate check, so only the rate bound decides."""
    save_wav(path, Waveform(np.zeros(16), 8000))
    blob = bytearray(path.read_bytes())
    blob[24:28] = struct.pack("<I", rate)
    path.write_bytes(blob)
    return path


class TestHeaderRate:
    def test_highest_rate_loads(self, tmp_path):
        assert load_wav(float32_wav_at(tmp_path / "x.wav", 768_000)).rate == 768_000
        for encoding in ("float32", "pcm16"):  # and save_wav writes it in either encoding
            save_wav(tmp_path / "y.wav", Waveform(np.zeros(8), 768_000), encoding)
            assert load_wav(tmp_path / "y.wav").rate == 768_000

    @pytest.mark.parametrize("rate", [768_001, 2**30, 2**32 - 1])
    def test_higher_rate_rejected(self, tmp_path, rate):
        with pytest.raises(UnsupportedEncodingError, match=f"sample rate of {rate} Hz is above"):
            load_wav(float32_wav_at(tmp_path / "x.wav", rate))
        # save_wav refuses it before opening the file, not with a struct.error
        with pytest.raises(InvalidArgumentError, match=f"sample rate of {rate} Hz is above"):
            save_wav(tmp_path / "y.wav", Waveform(np.zeros(8), rate))
        assert not (tmp_path / "y.wav").exists()

    def test_degrade_exits_before_any_resample_plan(self, tmp_path, capsys):
        path = float32_wav_at(tmp_path / "x.wav", 2**32 - 1)
        before = _resample_plan.cache_info()
        assert cli.main(["degrade", str(path), "8000", str(tmp_path / "out.wav")]) == cli.EXIT_IO
        assert _resample_plan.cache_info() == before
        assert "above 768000 Hz" in capsys.readouterr().err


class TestSaveWav:
    @given(
        samples=st.lists(st.floats(-1.5, 1.5), max_size=50),
        rate=st.sampled_from([1, 8000, 44100, 48000]),
        encoding=st.sampled_from(["float32", "pcm16"]),
    )
    @settings(
        max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_bytes_match_scipy_writer(self, tmp_path, samples, rate, encoding):
        wf = Waveform(np.array(samples), rate)
        if encoding == "float32":
            data = wf.samples.astype(np.float32)
        else:
            data = np.round(np.clip(wf.samples, -1.0, 32767 / 32768) * 32768).astype(np.int16)
        wavfile.write(tmp_path / "ref.wav", rate, data)
        save_wav(tmp_path / "x.wav", wf, encoding)
        ours = (tmp_path / "x.wav").read_bytes()
        assert ours == (tmp_path / "ref.wav").read_bytes()
        assert len(ours) - data.nbytes == (58 if encoding == "float32" else 44)

    def test_unknown_encoding(self, tmp_path):
        with pytest.raises(InvalidArgumentError):
            save_wav(tmp_path / "x.wav", Waveform(np.zeros(4), 8000), "pcm24")


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

    @given(
        n=st.integers(0, 3000),
        rates=st.lists(
            st.sampled_from([7999, 8000, 10000, 11025, 16000, 22050, 44100, 48000]),
            min_size=2,
            max_size=2,
            unique=True,
        ),
        cfg=st.sampled_from([ResampleConfig(), ResampleConfig(filter_half_width=8, rolloff=1.0)]),
    )
    @example(n=0, rates=[48000, 16000], cfg=ResampleConfig())
    @settings(max_examples=60, deadline=None)
    def test_length_is_ceil_of_ratio(self, n, rates, cfg):
        rate, target = rates
        wf = Waveform(np.random.default_rng(n).standard_normal(n), rate)
        assert len(resample(wf, target, cfg)) == -(-n * target // rate)  # ceil

    def test_plan_designed_once_per_rate_pair(self):
        _resample_plan.cache_clear()
        wf = Waveform(np.random.default_rng(3).standard_normal(500), 48000)
        first = resample(wf, 16000)
        second = resample(wf, 16000)
        assert _resample_plan.cache_info().misses == 1
        np.testing.assert_array_equal(first.samples, second.samples)
        blocks = _resample_plan(48000, 16000, ResampleConfig())[-1]
        assert blocks and not any(bank.flags.writeable for *_, bank in blocks)

    @given(
        n=st.integers(1, 3000),
        rates=st.sampled_from(KERNEL_PAIRS),
        cfg=st.sampled_from(KERNEL_CONFIGS),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_upfirdn_within_rounding_bound(self, n, rates, cfg, seed):
        rate, target = rates
        x = np.random.default_rng(seed).standard_normal(n)
        got = resample(Waveform(x, rate), target, cfg).samples
        want = upfirdn_resample(x, rate, target, cfg)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= upfirdn_bound(x, rate, target, cfg)

    @given(
        n=st.integers(1, 3000),
        rates=st.sampled_from(KERNEL_PAIRS),
        k=st.integers(-600, 600),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_power_of_two_scaling_and_repeats_are_exact(self, n, rates, k, seed):
        rate, target = rates
        x = np.random.default_rng(seed).standard_normal(n)
        base = resample(Waveform(x, rate), target).samples
        assert np.array_equal(resample(Waveform(x, rate), target).samples, base)
        scaled = resample(Waveform(np.ldexp(x, k), rate), target).samples
        assert np.array_equal(scaled, np.ldexp(base, k))

    def test_bank_size_at_coprime_rate(self):
        # one dense bank over all 7999 phases would hold about 4e8 values (3 GB)
        taps = _polyphase_taps(48000, 7999, ResampleConfig())[0]
        blocks = _resample_plan(48000, 7999, ResampleConfig())[-1]
        assert sum(bank.size for *_, bank in blocks) <= 3 * len(taps)


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
