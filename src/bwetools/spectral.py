"""STFT analysis/synthesis and log-magnitude / phase spectrogram handling.

The complex grid convention is F x T with F = n_fft//2 + 1 (one-sided
spectrum). Magnitude is natural-log with the additive floor EPS_MAG; phase
lives in (-pi, pi] with atan2(0, 0) defined as 0. The analysis window is the
periodic Hann window.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, UnsupportedEncodingError, _finite, _size_fields
from .signal import Waveform

__all__ = [
    "EPS_MAG",
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

EPS_MAG = 1e-5  # floor added to |X| before the log magnitude
_BLOCK = 64  # frames per analysis block, whose temporaries stay in cache (32-128 alike)


def _hann(m: int) -> np.ndarray:
    """Periodic (DFT-even) Hann window of m samples, bit-identical to
    scipy.signal.windows.hann(m, sym=False)."""
    if m == 1:
        return np.ones(1)
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, m + 1)[:-1])


@dataclass(frozen=True)
class StftConfig:
    n_fft: int = 1024
    win_length: int = 1024
    hop: int = 256
    center: bool = True

    def __post_init__(self):
        _size_fields(self, 1, "n_fft", "win_length", "hop")
        if not (self.hop <= self.win_length <= self.n_fft):
            raise InvalidArgumentError("need hop <= win_length <= n_fft")
        # a window overlap-adds to a constant at hop R iff its DTFT is 0 at k/R, 0 < k < R; the
        # periodic Hann DTFT is 0 at j/M for integer |j| >= 2 and at 1/2 (Harris, Proc. IEEE 1978)
        m, hop = self.win_length, self.hop
        if not (hop == 1 or (m % hop == 0 or hop == 2) and m > hop):
            raise InvalidArgumentError(f"window/hop pair ({m}, {hop}) does not satisfy COLA")

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
        _size_fields(self, 0, "n_samples", optional=True)
        if data.ndim != 2 or data.shape[0] != self.config.n_bins:
            raise InvalidArgumentError(
                f"expected (F={self.config.n_bins}, T) grid, got shape {data.shape}"
            )
        _finite(data, "STFT")

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
        _size_fields(self, 0, "n_samples", optional=True)
        if mag.shape != phase.shape:
            raise InvalidArgumentError("mag and phase must share a shape")


def stft(wf: Waveform, cfg: StftConfig | None = None) -> ComplexSpectrogram:
    """One-sided STFT; with center=True the signal is zero-padded by
    n_fft//2 on both ends so frame t is centered on sample t*hop."""
    cfg = cfg or StftConfig()
    return ComplexSpectrogram(_per_frame(lambda z: z, cfg, wf.samples).T, cfg, n_samples=len(wf))


def _per_frame(fn, cfg: StftConfig, *signals: np.ndarray) -> np.ndarray:
    """fn's rows for every analysis frame of the equal-length sample arrays
    `signals`, stacked along axis 0. fn gets the rfft of each signal's
    windowed frames, _BLOCK frames at a time, and returns one row per frame;
    a block with a non-finite entry raises InvalidArgumentError. Frames are
    views of the signals, so memory beyond the inputs and the output is one
    block's: only a block that reaches into the centring pad copies its span."""
    pad = cfg.n_fft // 2 if cfg.center else 0
    padded = signals[0].size + 2 * pad
    if padded < cfg.n_fft:
        raise InvalidArgumentError(f"signal too short for one frame ({padded} < {cfg.n_fft})")
    count = (padded - cfg.n_fft) // cfg.hop + 1
    win = cfg.window_array()
    for s in range(0, count, _BLOCK):
        lo = s * cfg.hop - pad  # the block's span [lo, hi) in sample indices
        hi = (min(s + _BLOCK, count) - 1) * cfg.hop - pad + cfg.n_fft
        frames = (sliding_window_view(_span(x, lo, hi), cfg.n_fft)[:: cfg.hop] for x in signals)
        rows = fn(*(_finite(np.fft.rfft(f * win, axis=1), "STFT") for f in frames))
        if s == 0:
            out = np.empty((count, *rows.shape[1:]), rows.dtype)
        out[s : s + _BLOCK] = rows
    return out


def _span(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """x[lo:hi], with zeros where the span reaches past either end of x."""
    if 0 <= lo and hi <= x.size:
        return x[lo:hi]
    span = np.zeros(hi - lo, x.dtype)
    span[max(0, -lo) : min(hi, x.size) - lo] = x[max(0, lo) : hi]
    return span


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


def to_mag_phase(spec: ComplexSpectrogram) -> MagPhase:
    """Split a complex grid into log(|X| + EPS_MAG) and phase."""
    z = spec.data.T
    mag, phase = np.empty(z.shape), np.empty(z.shape)
    for s in range(0, len(z), _BLOCK):
        mag[s : s + _BLOCK], phase[s : s + _BLOCK] = _mag_phase(z[s : s + _BLOCK])
    return MagPhase(mag.T, phase.T, spec.config, spec.n_samples)


def _mag_phase(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log(|z| + EPS_MAG) and the phase of complex z."""
    return np.log(np.abs(z) + EPS_MAG), phase_from_ri(z.real, z.imag)


def phase_from_ri(real_part: np.ndarray, imag_part: np.ndarray) -> np.ndarray:
    """Entrywise atan2(I, R) in (-pi, pi]; atan2(0, 0) := 0."""
    r = np.asarray(real_part, dtype=np.float64)
    i = np.asarray(imag_part, dtype=np.float64)
    if r.shape != i.shape:
        raise InvalidArgumentError(f"shape mismatch {r.shape} vs {i.shape}")
    phase = np.asarray(np.arctan2(i, r))  # an array for 0-d input too
    # the -pi branch (atan2 of a negative-zero imaginary part) maps to +pi
    np.copyto(phase, np.pi, where=phase <= -np.pi)
    np.copyto(phase, 0.0, where=(r == 0) & (i == 0))
    return phase


def synthesize(mp: MagPhase) -> ComplexSpectrogram:
    """Rebuild the complex grid: exp(mag) * (cos(phase) + i sin(phase))."""
    data = np.exp(mp.mag) * (np.cos(mp.phase) + 1j * np.sin(mp.phase))
    return ComplexSpectrogram(data, mp.config, mp.n_samples)


# CSV cells are "%.9g" texts. Most are spelled in numpy. A value with decimal
# exponent x in [-14, 30] is scaled into [1e8, 1e9) by an exact power of ten in
# one rounding (error at most 2**-24 there), so its 9 significant digits m are
# np.rint of the scaled value, unless that lies within 1e-6 of a half. Zeros
# are spelled as m = 0 at x = 0. Ties, non-finite and out-of-range values go
# through Python's "%.9g", once per distinct value.
#
# Every cell is first written into one 32-byte row holding all the characters
# any layout may need, in order: "-0.000", then the digits d0..d8 each followed
# by a ".", then "e", the exponent's sign and two digits, and the delimiter.
# A mask, looked up by layout, keeps the characters of the cell's text.
_X_MIN, _X_MAX = -14, 31  # exponents spelled in numpy (31 only after rounding up)
_ROW = 32
_CSV_CHUNK = 1 << 12  # values per pass: temporaries stay in cache, and the heap stays small


def _g9_mask(neg: bool, x: int, t: int) -> np.ndarray:
    """Row bytes spelling "%.9g" of digits d0..d8 (last nonzero at t) times
    10**(x - 8), then the delimiter."""
    keep = np.zeros(_ROW, dtype=bool)
    keep[0] = neg
    keep[[6 + 2 * j for j in range(max(t, x if x < 9 else 0) + 1)]] = True
    if 0 <= x < 9:
        keep[7 + 2 * x] = t > x
    elif -4 <= x < 0:
        keep[1 : 2 - x] = True  # "0." and -x - 1 zeros
    else:
        keep[7] = t > 0
        keep[24:28] = True
    keep[28] = True
    return keep


@functools.cache
def _g9_tables():
    """Exact multiplier and divisor taking exponent x to [1e8, 1e9); four
    digits of 0..9999 as "d.d.d.d." in one little-endian uint64 and their
    trailing zero count; "e", sign and two digits of every exponent; and the
    mask of every layout, indexed by (neg * n_x + x - _X_MIN) * 9 + t."""
    exponents = range(_X_MIN, _X_MAX + 1)
    mul = np.array([float(10 ** max(8 - x, 0)) for x in exponents])
    div = np.array([float(10 ** max(x - 8, 0)) for x in exponents])
    i = np.arange(10000, dtype=np.uint64)
    four = sum((i // 10 ** (3 - j) % 10 + (ord("0") | ord(".") << 8)) << (16 * j) for j in range(4))
    trailing = sum(i % 10**j == 0 for j in range(1, 5))
    suffix = np.array([int.from_bytes(b"e%+03d" % x, "little") for x in exponents], dtype=np.uint64)
    masks = np.array(
        [_g9_mask(neg, x, t) for neg in (False, True) for x in exponents for t in range(9)]
    )
    # one opaque 32-byte item per layout, so a lookup copies whole rows
    masks = masks.view(np.dtype((np.void, _ROW))).ravel()
    tables = mul, div, four.astype("<u8"), trailing, suffix, masks
    for table in tables:
        table.setflags(write=False)
    return tables


def _g9_cells(x: np.ndarray, delims: np.ndarray) -> bytes:
    """'%.9g' % v followed by its delimiter, for every v in the 1-D float64 x."""
    mul, div, four, trailing, suffix, masks = _g9_tables()
    a = np.abs(x)
    with np.errstate(all="ignore"):
        e = np.floor(np.log10(a))
        ok = (e >= _X_MIN) & (e < _X_MAX)  # False for 0, inf and nan
        e = np.where(ok, e, 0).astype(np.intp) - _X_MIN  # from here on, x - _X_MIN
        s = a * mul[e] / div[e]
        m = np.rint(s)
        # the range test also catches log10 missing the exponent next to a power of ten
        ok &= (s >= 1e8) & (s < 1e9) & (np.abs(s - m) < 0.499999)
    zero = a == 0  # spelled "0" or "-0" from m = 0 at x = 0
    e[zero] = -_X_MIN
    ok |= zero
    m = np.where(ok, m, 1e8).astype(np.uint64)
    m[zero] = 0
    carry = m == 1_000_000_000
    m[carry] = 100_000_000
    e += carry
    head, low = np.divmod(m, 10000)
    d0, mid = np.divmod(head, 10000)
    t = 8 - trailing[low]
    whole = np.flatnonzero(low == 0)
    t[whole] = 4 - trailing[mid[whole]]

    rows = np.empty((x.size, _ROW // 8), dtype="<u8")
    rows[:, 0] = int.from_bytes(b"-0.000\0.", "little") | (d0 + ord("0")) << 48
    rows[:, 1] = four[mid]
    rows[:, 2] = four[low]
    rows[:, 3] = suffix[e] | delims.astype(np.uint64) << 32
    key = (np.signbit(x) * (_X_MAX - _X_MIN + 1) + e) * 9 + t
    keep = np.take(masks, key).view(bool).reshape(x.size, _ROW)
    rest = np.flatnonzero(~ok)
    if rest.size:
        bits, inverse = np.unique(x[rest].view(np.uint64), return_inverse=True)
        texts = [b"%.9g" % v for v in bits.view(np.float64).tolist()]
        table = np.zeros((len(texts), _ROW), dtype=np.uint8)
        for j, text in enumerate(texts):
            table[j, : len(text)] = np.frombuffer(text, dtype=np.uint8)
        n = np.array([len(text) for text in texts])[inverse]
        cells = table[inverse]
        cells[np.arange(rest.size), n] = delims[rest]
        rows.view(np.uint8).reshape(x.size, _ROW)[rest] = cells
        keep[rest] = np.arange(_ROW) <= n[:, None]
    return np.compress(keep.ravel(), rows.view(np.uint8)).tobytes()


def write_csv(path, grid: np.ndarray) -> None:
    """Export a real F x T grid: one CSV row per frequency bin, each value as
    "%.9g" (the bytes np.savetxt(path, grid, delimiter=",", fmt="%.9g") writes)."""
    grid = np.asarray(grid, dtype=np.float64)
    if grid.ndim == 1:
        grid = grid[:, None]
    if grid.ndim != 2:
        raise InvalidArgumentError(f"expected a 1-D or 2-D grid, got {grid.ndim}-D")
    flat = grid.ravel()
    with open(path, "wb") as fh:
        if flat.size == 0:
            fh.write(b"\n" * grid.shape[0])
            return
        width = grid.shape[1]
        for start in range(0, flat.size, _CSV_CHUNK):
            stop = min(start + _CSV_CHUNK, flat.size)
            ends = np.arange(start + 1, stop + 1) % width == 0
            fh.write(_g9_cells(flat[start:stop], np.where(ends, ord("\n"), ord(","))))


def write_f32(path, grid: np.ndarray) -> None:
    """Raw dump: 8-byte header (F, T as uint32 LE) then float32 LE values."""
    grid = np.ascontiguousarray(grid, dtype="<f4")
    if grid.ndim != 2:
        raise InvalidArgumentError("expected a 2-D grid")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", grid.shape[0], grid.shape[1]))
        fh.write(grid.tobytes())


def read_f32(path) -> np.ndarray:
    """A `write_f32` dump as a float64 F x T grid; UnsupportedEncodingError,
    naming the file, if the header is short or the payload not F x T values."""
    with open(path, "rb") as fh:
        header, payload = fh.read(8), fh.read()
    if len(header) < 8:
        raise UnsupportedEncodingError(f"unsupported encoding in {path!r}: {len(header)}-byte header")
    f, t = struct.unpack("<II", header)
    if len(payload) != 4 * f * t:
        raise UnsupportedEncodingError(f"unsupported encoding in {path!r}: {len(payload)} bytes for {f} x {t} values")
    return np.frombuffer(payload, dtype="<f4").reshape(f, t).astype(np.float64)
