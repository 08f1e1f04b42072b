"""STFT analysis/synthesis and log-magnitude / phase spectrogram handling.

The complex grid convention is F x T with F = n_fft//2 + 1 (one-sided
spectrum). Magnitude is natural-log with an additive floor; phase lives in
(-pi, pi] with atan2(0, 0) defined as 0.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError
from .signal import Waveform

__all__ = [
    "StftConfig",
    "ComplexSpectrogram",
    "MagPhase",
    "stft",
    "istft",
    "to_mag_phase",
    "phase_from_ri",
    "synthesize",
    "write_csv",
    "write_f32",
    "read_f32",
]


def _hann(m: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of m samples, bit-identical to
    scipy.signal.windows.hann(m, sym=False)."""
    if m == 1:
        return np.ones(1)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)[:-1])


def _is_cola(win: np.ndarray, hop: int) -> bool:
    """Constant overlap-add test of `win` at `hop`: the bin-sum of
    scipy.signal.check_COLA, in the same summation order and tolerance."""
    n = win.size
    binsums = sum(win[i * hop : (i + 1) * hop] for i in range(n // hop))
    if n % hop:
        binsums[: n % hop] += win[-(n % hop) :]
    return bool(np.max(np.abs(binsums - np.median(binsums))) < 1e-10)


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 1024
    win_length: int = 1024
    hop: int = 256
    window: str = "hann"
    center: bool = True
    eps_mag: float = 1e-5

    def __post_init__(self):
        if not (1 <= self.hop <= self.win_length <= self.n_fft):
            raise InvalidArgumentError("need hop <= win_length <= n_fft, all >= 1")
        if self.window != "hann":
            raise InvalidArgumentError(f"unsupported window {self.window!r}")
        if self.eps_mag <= 0:
            raise InvalidArgumentError("eps_mag must be > 0")
        if not _is_cola(_hann(self.win_length), self.hop):
            raise InvalidArgumentError(
                f"window/hop pair ({self.win_length}, {self.hop}) does not satisfy COLA"
            )

    @property
    def n_bins(self) -> int:
        return self.n_fft // 2 + 1

    def window_array(self) -> np.ndarray:
        w = _hann(self.win_length)
        if self.win_length < self.n_fft:
            # center the analysis window inside the FFT frame
            left = (self.n_fft - self.win_length) // 2
            w = np.pad(w, (left, self.n_fft - self.win_length - left))
        return w


@dataclass(frozen=True)
class ComplexSpectrogram:
    data: np.ndarray  # (F, T) complex
    config: StftConfig
    n_samples: int | None = None  # analysis-time signal length, for exact ISTFT trim

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.complex128)
        object.__setattr__(self, "data", data)
        if data.ndim != 2 or data.shape[0] != self.config.n_bins:
            raise InvalidArgumentError(
                f"expected (F={self.config.n_bins}, T) grid, got shape {data.shape}"
            )
        if data.size and not np.all(np.isfinite(data)):
            raise InvalidArgumentError("spectrogram entries must be finite")

    @property
    def n_frames(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MagPhase:
    mag: np.ndarray  # (F, T) natural-log magnitude
    phase: np.ndarray  # (F, T) radians in (-pi, pi]
    config: StftConfig = field(default_factory=StftConfig)
    n_samples: int | None = None

    def __post_init__(self):
        mag = np.asarray(self.mag, dtype=np.float64)
        phase = np.asarray(self.phase, dtype=np.float64)
        object.__setattr__(self, "mag", mag)
        object.__setattr__(self, "phase", phase)
        if mag.shape != phase.shape:
            raise InvalidArgumentError("mag and phase must share a shape")


def stft(wf: Waveform, cfg: StftConfig | None = None) -> ComplexSpectrogram:
    """One-sided STFT; with center=True the signal is zero-padded by
    n_fft//2 on both ends so frame t is centered on sample t*hop."""
    cfg = cfg or StftConfig()
    x = wf.samples
    if cfg.center:
        x = np.pad(x, (cfg.n_fft // 2, cfg.n_fft // 2))
    if x.size < cfg.n_fft:
        raise InvalidArgumentError(
            f"signal too short for one frame ({x.size} < {cfg.n_fft})"
        )
    frames = sliding_window_view(x, cfg.n_fft)[:: cfg.hop]
    spec = np.fft.rfft(frames * cfg.window_array(), axis=1).T
    return ComplexSpectrogram(spec, cfg, n_samples=len(wf))


def istft(spec: ComplexSpectrogram, rate: int = 1) -> Waveform:
    """Overlap-add inverse STFT with window-square normalization.

    The spectrogram does not carry a sample rate; pass the analysis rate to
    get a playable Waveform back.
    """
    cfg = spec.config
    w = cfg.window_array()
    frames = np.fft.irfft(spec.data.T, n=cfg.n_fft, axis=1) * w
    n_frames = spec.n_frames
    total = cfg.n_fft + cfg.hop * (n_frames - 1)
    out = np.zeros(total)
    norm = np.zeros(total)
    for t in range(n_frames):
        sl = slice(t * cfg.hop, t * cfg.hop + cfg.n_fft)
        out[sl] += frames[t]
        norm[sl] += w * w
    nonzero = norm > 1e-12
    out[nonzero] /= norm[nonzero]
    if cfg.center:
        out = out[cfg.n_fft // 2 :]
    if spec.n_samples is not None:
        out = out[: spec.n_samples]
        if out.size < spec.n_samples:
            out = np.pad(out, (0, spec.n_samples - out.size))
    return Waveform(out, rate)


def _canonical_phase(phase: np.ndarray) -> np.ndarray:
    # map the -pi branch (from atan2 on negative-zero imaginary parts) to +pi
    return np.where(phase <= -np.pi, np.pi, phase)


def to_mag_phase(spec: ComplexSpectrogram, eps_mag: float | None = None) -> MagPhase:
    """Split a complex grid into floored log-magnitude and phase."""
    eps = spec.config.eps_mag if eps_mag is None else eps_mag
    mag = np.log(np.abs(spec.data) + eps)
    phase = np.where(spec.data == 0, 0.0, _canonical_phase(np.angle(spec.data)))
    return MagPhase(mag, phase, spec.config, spec.n_samples)


def phase_from_ri(real_part: np.ndarray, imag_part: np.ndarray) -> np.ndarray:
    """Entrywise atan2(I, R) in (-pi, pi]; atan2(0, 0) := 0."""
    r = np.asarray(real_part, dtype=np.float64)
    i = np.asarray(imag_part, dtype=np.float64)
    if r.shape != i.shape:
        raise InvalidArgumentError(f"shape mismatch {r.shape} vs {i.shape}")
    phase = np.arctan2(i, r)
    phase = np.where((r == 0) & (i == 0), 0.0, phase)
    return _canonical_phase(phase)


def synthesize(mp: MagPhase) -> ComplexSpectrogram:
    """Rebuild the complex grid: exp(mag) * (cos(phase) + i sin(phase))."""
    data = np.exp(mp.mag) * (np.cos(mp.phase) + 1j * np.sin(mp.phase))
    return ComplexSpectrogram(data, mp.config, mp.n_samples)


def write_csv(path, grid: np.ndarray) -> None:
    """Export a real F x T grid: one CSV row per frequency bin."""
    np.savetxt(path, np.asarray(grid, dtype=np.float64), delimiter=",", fmt="%.9g")


def write_f32(path, grid: np.ndarray) -> None:
    """Raw dump: 8-byte header (F, T as uint32 LE) then float32 LE values."""
    grid = np.ascontiguousarray(grid, dtype="<f4")
    if grid.ndim != 2:
        raise InvalidArgumentError("expected a 2-D grid")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", grid.shape[0], grid.shape[1]))
        fh.write(grid.tobytes())


def read_f32(path) -> np.ndarray:
    with open(path, "rb") as fh:
        f, t = struct.unpack("<II", fh.read(8))
        return np.frombuffer(fh.read(), dtype="<f4").reshape(f, t).astype(np.float64)
