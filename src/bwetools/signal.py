"""Waveform I/O, framing, sample-rate conversion, and the narrowband
degradation simulator (downsample + sinc-interpolated upsample)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, UnreadableFileError, UnsupportedEncodingError

__all__ = [
    "Waveform",
    "ResampleConfig",
    "load_wav",
    "save_wav",
    "resample",
    "degrade",
    "frame",
    "peak_exponent",
]


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal: sample values (nominal range [-1, 1]) plus rate in Hz."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        if self.rate <= 0:
            raise InvalidArgumentError(f"rate must be positive, got {self.rate}")
        if samples.ndim != 1:
            raise InvalidArgumentError("Waveform samples must be one-dimensional")
        if samples.size and not np.all(np.isfinite(samples)):
            raise InvalidArgumentError("Waveform samples must be finite")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.rate


@dataclass(frozen=True)
class ResampleConfig:
    """Windowed-sinc filter design for rate conversion.

    filter_half_width counts sinc zero crossings kept on each side of the
    center tap; kaiser_beta sets stopband attenuation; rolloff shrinks the
    cutoff below Nyquist to leave room for the transition band.
    """

    filter_half_width: int = 32
    kaiser_beta: float = 8.6
    rolloff: float = 0.945

    def __post_init__(self):
        if self.filter_half_width < 8:
            raise InvalidArgumentError("filter_half_width must be >= 8")
        if not 0.0 < self.rolloff <= 1.0:
            raise InvalidArgumentError("rolloff must be in (0, 1]")


def load_wav(path) -> Waveform:
    """Read a RIFF WAV file (PCM16 or IEEE float32) into a mono Waveform.

    Multichannel inputs are averaged to mono; PCM16 is scaled by 1/32768.
    """
    from scipy.io import wavfile

    try:
        with open(path, "rb") as fh:
            rate, data = wavfile.read(fh)
    except FileNotFoundError as exc:
        raise UnreadableFileError(f"cannot open {path!r}: {exc}") from exc
    except PermissionError as exc:
        raise UnreadableFileError(f"cannot open {path!r}: {exc}") from exc
    except Exception as exc:  # malformed RIFF, unsupported chunk layout
        raise UnsupportedEncodingError(f"unsupported encoding in {path!r}: {exc}") from exc

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


def save_wav(path, wf: Waveform, encoding: str = "float32") -> None:
    """Write a Waveform as RIFF PCM16 or IEEE float32."""
    from scipy.io import wavfile

    if encoding == "float32":
        wavfile.write(path, wf.rate, wf.samples.astype(np.float32))
    elif encoding == "pcm16":
        clipped = np.clip(wf.samples, -1.0, 32767.0 / 32768.0)
        wavfile.write(path, wf.rate, np.round(clipped * 32768.0).astype(np.int16))
    else:
        raise InvalidArgumentError(f"unknown encoding {encoding!r}")


def _design_lowpass(cutoff: float, half_width: int, beta: float) -> np.ndarray:
    """Kaiser-windowed sinc with `half_width` zero crossings per side.

    cutoff is in units of the (post-upsampling) Nyquist frequency.
    """
    from scipy.signal.windows import kaiser

    n_half = int(math.ceil(half_width / cutoff))
    n = np.arange(-n_half, n_half + 1, dtype=np.float64)
    taps = cutoff * np.sinc(cutoff * n) * kaiser(2 * n_half + 1, beta)
    return taps / taps.sum()


def resample(wf: Waveform, target_rate: int, cfg: ResampleConfig | None = None) -> Waveform:
    """Polyphase windowed-sinc resampling to target_rate."""
    from scipy.signal import upfirdn

    if target_rate <= 0:
        raise InvalidArgumentError("target_rate must be positive")
    cfg = cfg or ResampleConfig()
    if target_rate == wf.rate:
        return Waveform(wf.samples.copy(), wf.rate)

    g = math.gcd(wf.rate, target_rate)
    up = target_rate // g
    down = wf.rate // g
    cutoff = cfg.rolloff * min(1.0 / up, 1.0 / down)
    taps = _design_lowpass(cutoff, cfg.filter_half_width, cfg.kaiser_beta) * up

    # Shift the filter center onto the output grid so output sample k sits
    # exactly at input time k*down/up.
    n_half = (len(taps) - 1) // 2
    pad = (-n_half) % down
    if pad:
        taps = np.concatenate([np.zeros(pad), taps])
        n_half += pad
    out = upfirdn(taps, wf.samples, up=up, down=down)
    skip = n_half // down
    out_len = -(-len(wf.samples) * up // down)  # ceil
    out = out[skip : skip + out_len]
    if out.size < out_len:
        out = np.pad(out, (0, out_len - out.size))
    return Waveform(out, target_rate)


def degrade(wf: Waveform, low_rate: int, cfg: ResampleConfig | None = None) -> Waveform:
    """Bandlimit a waveform by resampling down to low_rate and back up.

    The result has the same rate and exactly the same length as the input.
    """
    if low_rate >= wf.rate:
        raise InvalidArgumentError(
            f"low_rate must be below the waveform rate ({low_rate} >= {wf.rate})"
        )
    # resample returns ceil(n * up / down) samples, so the round trip is never short
    restored = resample(resample(wf, low_rate, cfg), wf.rate, cfg)
    return Waveform(restored.samples[: len(wf)], wf.rate)


def frame(wf: Waveform, size: int, hop: int) -> np.ndarray:
    """Slice a waveform into windows of `size` samples advancing by `hop`.

    Trailing samples that do not fill a window are dropped. Returns an array
    of shape (n_frames, size); zero frames for inputs shorter than size.
    """
    if size < 1 or hop < 1:
        raise InvalidArgumentError("size and hop must be >= 1")
    if len(wf) < size:
        return np.empty((0, size), dtype=np.float64)
    return sliding_window_view(wf.samples, size)[::hop].copy()


def peak_exponent(x: np.ndarray, axis: int | None = None) -> np.ndarray:
    """math.frexp's exponent e of the peak |x|, 0 for all-zero input; per slice
    along `axis` when given, reduced axes kept. np.ldexp(x, -e) brings each peak
    into [0.5, 1) exactly, so 1e200- or 1e-200-sized input neither overflows nor
    underflows downstream, and in-range results are unchanged."""
    kw = dict(axis=axis, keepdims=True, initial=0.0)
    return np.frexp(np.maximum(x.max(**kw), -x.min(**kw)))[1]
