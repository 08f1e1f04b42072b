import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.signal import check_COLA
from scipy.signal.windows import hann

from bwetools.errors import InvalidArgumentError, UnsupportedEncodingError
from bwetools.demo import synthetic_speech
from bwetools.signal import Waveform, degrade
from bwetools.spectral import (
    EPS_MAG,
    ComplexSpectrogram,
    MagPhase,
    StftConfig,
    istft,
    phase_from_ri,
    read_f32,
    stft,
    synthesize,
    to_mag_phase,
    write_csv,
    write_f32,
)
from bwetools.metrics import LSD_CONFIG, lsd
from bwetools.spectral import _BLOCK, _CSV_CHUNK, _hann


class TestStftConfig:
    def test_default_is_cola(self):
        StftConfig()

    def test_non_cola_rejected(self):
        with pytest.raises(InvalidArgumentError):
            StftConfig(n_fft=1024, win_length=1024, hop=1000)

    def test_ordering_enforced(self):
        with pytest.raises(InvalidArgumentError):
            StftConfig(n_fft=512, win_length=1024, hop=256)


class TestWindowOracle:
    """The numpy window and the COLA rule against the scipy functions they replace."""

    def test_hann_bit_identical(self):
        for m in range(1, 4097):
            assert np.array_equal(_hann(m), hann(m, sym=False)), m

    def test_cola_verdict_matches(self):
        # every window up to 300 samples, then a few FFT-sized ones, at every hop
        for win_length in [*range(1, 301), 511, 512, 1024, 2048]:
            w = hann(win_length, sym=False)
            for hop in range(1, win_length + 1):
                expected = check_COLA(w, win_length, win_length - hop)
                assert cola(win_length, hop) == expected, (win_length, hop)


def cola(win_length, hop):
    """Whether StftConfig accepts a window of win_length samples at hop."""
    try:
        StftConfig(n_fft=win_length, win_length=win_length, hop=hop)
    except InvalidArgumentError:
        return False
    return True


class TestStft:
    def test_zero_in_zero_out(self):
        spec = stft(Waveform(np.zeros(4096), 16000))
        assert np.all(spec.data == 0)
        assert spec.data.shape[0] == 513

    def test_single_frame_dft_oracle(self):
        # rectangular one-frame DFT: a bin-centered sine puts >= 90% of the
        # column energy in its bin
        n = 1024
        k = 37
        x = np.sin(2 * np.pi * k * np.arange(n) / n)
        col = np.abs(np.fft.rfft(x)) ** 2
        assert col[k] / col.sum() >= 0.90

    def test_sine_peaks_at_its_bin(self):
        cfg = StftConfig()
        fs = 16000
        k = 80
        x = np.sin(2 * np.pi * (k * fs / cfg.n_fft) * np.arange(fs) / fs)
        p = np.abs(stft(Waveform(x, fs), cfg).data) ** 2
        interior = p[:, 5:-5]
        assert np.all(np.argmax(interior, axis=0) == k)
        # hann main lobe spans +-2 bins
        assert np.all(interior[k - 2 : k + 3].sum(axis=0) / interior.sum(axis=0) > 0.99)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        cfg = StftConfig()  # hann, hop = win/4
        x = Waveform(rng.standard_normal(8000), 16000)
        y = istft(stft(x, cfg), 16000)
        assert len(y) == len(x)
        core = slice(cfg.n_fft, -cfg.n_fft)
        rel = np.sqrt(np.mean((y.samples[core] - x.samples[core]) ** 2)) / np.sqrt(
            np.mean(x.samples[core] ** 2)
        )
        assert rel < 1e-6

    def test_too_short_uncentered(self):
        cfg = StftConfig(center=False)
        with pytest.raises(InvalidArgumentError):
            stft(Waveform(np.zeros(100), 16000), cfg)

    def test_istft_zero_grid(self):
        cfg = StftConfig()
        spec = ComplexSpectrogram(np.zeros((513, 8), dtype=complex), cfg, n_samples=1024)
        assert np.all(istft(spec).samples == 0)

    def test_parseval_energy(self):
        rng = np.random.default_rng(4)
        cfg = StftConfig()
        x = rng.standard_normal(16384)
        spec = stft(Waveform(x, 16000), cfg).data
        # one-sided spectrum: double the interior bins
        weights = np.full(cfg.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        spec_energy = np.sum(weights[:, None] * np.abs(spec) ** 2) / cfg.n_fft
        # time-domain counterpart: per-sample energy scaled by the summed
        # squared-window coverage of that sample
        w = cfg.window_array()
        xp = np.pad(x, (cfg.n_fft // 2, cfg.n_fft // 2))
        n_frames = spec.shape[1]
        cover = np.zeros(xp.size)
        for t in range(n_frames):
            cover[t * cfg.hop : t * cfg.hop + cfg.n_fft] += w * w
        sig_energy = np.sum(xp**2 * cover)
        assert abs(spec_energy / sig_energy - 1) < 0.01


def reference_stft(wf, cfg):
    """Index-grid framing the sliding-window `stft` must match bit for bit."""
    x = wf.samples
    if cfg.center:
        x = np.pad(x, (cfg.n_fft // 2, cfg.n_fft // 2))
    starts = cfg.hop * np.arange(1 + (x.size - cfg.n_fft) // cfg.hop)
    frames = x[starts[:, None] + np.arange(cfg.n_fft)[None, :]]
    return np.fft.rfft(frames * cfg.window_array(), axis=1).T


def reference_lsd(ref, est):
    """One-shot LSD over full grids, the frame-block `metrics.lsd` must match
    bit for bit."""
    n = min(len(ref), len(est))
    cfg = StftConfig(n_fft=LSD_CONFIG["n_fft"], win_length=LSD_CONFIG["n_fft"], hop=LSD_CONFIG["hop"])
    eps = LSD_CONFIG["eps"]
    p_ref = np.abs(reference_stft(Waveform(ref.samples[:n], ref.rate), cfg)) ** 2 + eps
    p_est = np.abs(reference_stft(Waveform(est.samples[:n], ref.rate), cfg)) ** 2 + eps
    diff = 10.0 * np.log10(p_ref / p_est)
    return float(np.mean(np.sqrt(np.mean(diff**2, axis=0))))


def reference_mag_phase(z):
    """One-shot log-magnitude and phase of a complex grid."""
    angle = np.angle(z)
    phase = np.where(z == 0, 0.0, np.where(angle <= -np.pi, np.pi, angle))
    return np.log(np.abs(z) + EPS_MAG), phase


# frame counts around the analysis block: one frame, part of a block, whole
# blocks, and whole blocks plus one frame
BLOCK_FRAMES = [1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1]


class TestFrameBlocks:
    @given(
        frames=st.sampled_from(BLOCK_FRAMES),
        extra=st.integers(0, LSD_CONFIG["hop"] - 1),
        noise=st.sampled_from([0.0, 1e-3, 1.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_lsd_matches_one_shot(self, frames, extra, noise, seed):
        # centered frames: a clip of n samples has 1 + n // hop of them
        n = LSD_CONFIG["hop"] * (frames - 1) + extra
        rng = np.random.default_rng(seed)
        ref = Waveform(rng.standard_normal(n), 16000)
        est = Waveform(ref.samples + noise * rng.standard_normal(n), 16000)
        assert lsd(ref, est) == reference_lsd(ref, est)

    def test_lsd_overflow_raises(self):
        clip = synthetic_speech(1.0, seed=3)
        loud = Waveform(1e306 * clip.samples, clip.rate)
        with pytest.raises(InvalidArgumentError), np.errstate(over="ignore"):
            lsd(loud, Waveform(1e306 * degrade(clip, 16000).samples, clip.rate))

    @pytest.mark.parametrize("n", [0, 1, 100, LSD_CONFIG["n_fft"] - 1])
    def test_lsd_shorter_than_a_frame(self, n):
        # centering pads every clip to at least one frame, so none is too short
        rng = np.random.default_rng(5)
        ref, est = Waveform(rng.standard_normal(n), 16000), Waveform(rng.standard_normal(n), 16000)
        assert lsd(ref, est) == reference_lsd(ref, est)

    @given(frames=st.sampled_from(BLOCK_FRAMES), fortran=st.booleans(), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_mag_phase_matches_one_shot(self, frames, fortran, seed):
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((33, frames)) + 1j * rng.standard_normal((33, frames))
        z[rng.random(z.shape) < 0.2] = 0
        z[rng.random(z.shape) < 0.1] = complex(-0.0, -0.0)
        z[rng.random(z.shape) < 0.2] = complex(-1.0, -0.0)  # angle -pi, mapped to +pi
        z[0, 0] = complex(-1.0, -0.0)
        spec = ComplexSpectrogram(np.asfortranarray(z) if fortran else z, StftConfig(64, 64, 16))
        mag, phase = reference_mag_phase(spec.data)
        mp = to_mag_phase(spec)
        assert np.array_equal(mp.mag, mag) and np.array_equal(mp.phase, phase)
        assert mp.phase[0, 0] == np.pi


class TestStftOracle:
    @given(
        log_fft=st.integers(0, 11),
        win_shrink=st.integers(0, 3),
        hop_shrink=st.integers(1, 4),
        center=st.booleans(),
        length=st.integers(1, 12000),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_index_grid(self, log_fft, win_shrink, hop_shrink, center, length, seed):
        n_fft = 1 << log_fft
        win = max(1, n_fft >> win_shrink)
        cfg = StftConfig(n_fft=n_fft, win_length=win, hop=max(1, win >> hop_shrink), center=center)
        wf = Waveform(np.random.default_rng(seed).standard_normal(length), 16000)
        if length + 2 * (n_fft // 2) * center < n_fft:
            with pytest.raises(InvalidArgumentError):
                stft(wf, cfg)
            return
        assert np.array_equal(stft(wf, cfg).data, reference_stft(wf, cfg))


class TestMagPhase:
    def test_unit_entry(self):
        cfg = StftConfig()
        spec = ComplexSpectrogram(np.ones((513, 2), dtype=complex), cfg)
        mp = to_mag_phase(spec)
        assert np.allclose(mp.mag, np.log(1 + EPS_MAG))
        assert np.all(mp.phase == 0)

    def test_zero_entry_floor(self):
        cfg = StftConfig()
        spec = ComplexSpectrogram(np.zeros((513, 2), dtype=complex), cfg)
        mp = to_mag_phase(spec)
        assert np.allclose(mp.mag, np.log(1e-5))
        assert np.all(mp.phase == 0)

    def test_imaginary_axis(self):
        cfg = StftConfig()
        spec = ComplexSpectrogram(np.full((513, 1), 1j), cfg)
        assert np.allclose(to_mag_phase(spec).phase, np.pi / 2)

    def test_roundtrip_identity(self):
        rng = np.random.default_rng(1)
        cfg = StftConfig()
        z = rng.standard_normal((513, 16)) + 1j * rng.standard_normal((513, 16))
        spec = ComplexSpectrogram(z, cfg)
        back = synthesize(to_mag_phase(spec))
        assert np.all(np.abs(back.data - z) <= np.abs(z) * 1e-6 + EPS_MAG)


class TestPhaseFromRI:
    def test_axis_cases(self):
        one = np.ones((1, 1))
        zero = np.zeros((1, 1))
        assert phase_from_ri(one, zero)[0, 0] == 0.0
        assert phase_from_ri(zero, one)[0, 0] == pytest.approx(np.pi / 2)
        assert phase_from_ri(-one, zero)[0, 0] == pytest.approx(np.pi)  # +pi, not -pi
        assert phase_from_ri(zero, zero)[0, 0] == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            phase_from_ri(np.zeros((2, 2)), np.zeros((2, 3)))

    @given(st.floats(min_value=0.1, max_value=100.0))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance(self, k):
        rng = np.random.default_rng(7)
        r = rng.standard_normal((8, 8))
        i = rng.standard_normal((8, 8))
        np.testing.assert_allclose(
            phase_from_ri(k * r, k * i), phase_from_ri(r, i), rtol=0, atol=1e-12
        )

    def test_bytes_match_nested_where(self):
        def reference(r, i):
            phase = np.arctan2(i, r)
            return np.where((r == 0) & (i == 0), 0.0, np.where(phase <= -np.pi, np.pi, phase))

        edge = [0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -1e-300, np.inf, -np.inf]
        r, i = (a.ravel() for a in np.meshgrid(edge, edge))
        rng = np.random.default_rng(3)
        grids = [(r, i), (np.array([-1.0, -2.5]), np.array([-1e-300, -1e-300]))]
        grids += [tuple(rng.standard_normal((2, 257, 33)) * 10.0 ** rng.integers(-300, 300))]
        grids += [(np.array(-1.0), np.array(-0.0))]  # 0-d
        for r, i in grids:
            assert phase_from_ri(r, i).tobytes() == reference(r, i).tobytes()

    def test_range(self):
        rng = np.random.default_rng(2)
        r = rng.standard_normal(10000)
        i = rng.standard_normal(10000)
        phase = phase_from_ri(r, i)
        assert np.all(phase > -np.pi) and np.all(phase <= np.pi)


class TestSynthesize:
    def test_zero_log_magnitude(self):
        cfg = StftConfig()
        mp = MagPhase(np.zeros((513, 3)), np.zeros((513, 3)), cfg)
        assert np.all(synthesize(mp).data == 1.0 + 0.0j)

    def test_closed_form(self):
        cfg = StftConfig()
        mp = MagPhase(np.full((513, 1), np.log(2.0)), np.full((513, 1), np.pi / 2), cfg)
        assert np.all(np.abs(synthesize(mp).data - 2j) < 1e-12)


class TestExport:
    def test_f32_roundtrip(self, tmp_path):
        grid = np.random.default_rng(0).standard_normal((7, 5))
        path = tmp_path / "grid.f32"
        write_f32(path, grid)
        back = read_f32(path)
        assert back.shape == (7, 5)
        assert np.allclose(back, grid, atol=1e-6)

    @pytest.mark.parametrize(
        "blob, problem",
        [
            (b"\x07\x00\x00\x00\x05", "5-byte header"),
            (struct.pack("<II", 7, 5) + bytes(4 * 35 - 3), "137 bytes for 7 x 5 values"),
            (struct.pack("<II", 7, 5) + bytes(4 * 35 + 4), "144 bytes for 7 x 5 values"),
        ],
        ids=["short-header", "cut-payload", "trailing-bytes"],
    )
    def test_f32_malformed_is_unsupported(self, tmp_path, blob, problem):
        path = tmp_path / "grid.f32"
        path.write_bytes(blob)
        with pytest.raises(UnsupportedEncodingError, match=f"grid.f32.*{problem}"):
            read_f32(path)

    def test_csv_rows_are_bins(self, tmp_path):
        grid = np.arange(12, dtype=float).reshape(3, 4)
        path = tmp_path / "grid.csv"
        write_csv(path, grid)
        back = np.loadtxt(path, delimiter=",")
        np.testing.assert_allclose(back, grid)


def savetxt_bytes(grid) -> bytes:
    """The reference: np.savetxt's bytes for the same grid."""
    buf = io.BytesIO()
    np.savetxt(buf, np.asarray(grid, dtype=np.float64), delimiter=",", fmt="%.9g")
    return buf.getvalue()


def csv_bytes(tmp_path, grid) -> bytes:
    path = tmp_path / "grid.csv"
    write_csv(path, grid)
    return path.read_bytes()


def decimal_edges() -> np.ndarray:
    """Powers of ten and their neighbours, exact 9- and 10-digit ties and
    values that round up to the next power, at every exponent."""
    powers = 10.0 ** np.arange(-30, 40)
    edges = [
        powers,
        np.nextafter(powers, 0),
        np.nextafter(powers, np.inf),
        powers * 9.9999999949,
        powers * 9.999999995,
        powers * 9.9999999951,
        powers * 0.99999999950000,
    ]
    ties = (np.arange(100_000_000, 100_000_000 + 50) + 0.5)[:, None] * 10.0 ** np.arange(-12, 12)
    specials = [0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values = np.concatenate([*edges, ties.ravel(), specials, [-0.5, 0.5, 1.5, 2.5, 1e-4, 1e-5]])
    return np.concatenate([values, -values])


_cell_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.floats(-40.0, 40.0),
    st.builds(lambda m, k: m * 10.0**k, st.integers(10**8, 10**10), st.integers(-25, 25)),
    st.builds(lambda m, k: (m + 0.5) * 10.0**k, st.integers(10**8, 10**9 - 1), st.integers(-14, 14)),
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-4, 9.9999999995e8, 1e9, 1e31, 5e-324]),
)


class TestCsvText:
    """write_csv writes the bytes np.savetxt(..., delimiter=",", fmt="%.9g") does."""

    @settings(
        max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    @given(
        st.integers(0, 6).flatmap(
            lambda cols: st.lists(st.lists(_cell_values, min_size=cols, max_size=cols), max_size=6)
        )
    )
    def test_matches_savetxt(self, tmp_path, rows):
        grid = np.array(rows, dtype=np.float64).reshape(len(rows), -1 if rows else 0)
        assert csv_bytes(tmp_path, grid) == savetxt_bytes(grid)

    def test_decimal_edges(self, tmp_path):
        values = decimal_edges()
        assert csv_bytes(tmp_path, values.reshape(-1, 2)) == savetxt_bytes(values.reshape(-1, 2))

    def test_every_exponent_and_bit_pattern(self, tmp_path):
        # rows wider than one chunk and not dividing it, so delimiters cross chunk borders
        rng = np.random.default_rng(0)
        shape = (6, _CSV_CHUNK // 2 + 3)
        n = shape[0] * shape[1]
        bits = rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 35, n)
        places = 10.0 ** rng.integers(0, 9, n)
        short = np.round(rng.standard_normal(n) * places) / places
        for values in (bits, scaled, short):
            grid = values.reshape(shape)
            assert csv_bytes(tmp_path, grid) == savetxt_bytes(grid)

    def test_spectrogram_grids(self, tmp_path):
        rng = np.random.default_rng(1)
        cfg = StftConfig(n_fft=256, win_length=256, hop=64)
        mp = to_mag_phase(stft(Waveform(rng.standard_normal(8000), 16000), cfg))
        for grid in (mp.mag, mp.phase, np.zeros((3, 5)), -np.zeros((2, 2)), np.eye(7)):
            assert csv_bytes(tmp_path, grid) == savetxt_bytes(grid)

    def test_shapes(self, tmp_path):
        for grid in (np.zeros((0, 4)), np.zeros((3, 0)), np.arange(5.0), np.array([[2.5]])):
            assert csv_bytes(tmp_path, grid) == savetxt_bytes(grid)
        with pytest.raises(InvalidArgumentError):
            write_csv(tmp_path / "cube.csv", np.zeros((2, 2, 2)))
