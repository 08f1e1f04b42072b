"""Waveform I/O, framing, sample-rate conversion, and the narrowband
degradation simulator (downsample + sinc-interpolated upsample)."""

from __future__ import annotations

import functools
import io
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, UnreadableFileError, UnsupportedEncodingError
from .errors import _finite, _size, _size_fields

__all__ = [
    "Waveform",
    "ResampleConfig",
    "load_wav",
    "save_wav",
    "resample",
    "degrade",
    "frame",
    "unit_peak",
]

KAISER_BETA = 8.6  # resampling filter's Kaiser window: sets the stopband attenuation


@dataclass(frozen=True)
class Waveform:
    """Mono audio signal: sample values (nominal range [-1, 1]) plus rate in Hz."""

    samples: np.ndarray
    rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        object.__setattr__(self, "samples", samples)
        _size_fields(self, 1, "rate")
        if samples.ndim != 1:
            raise InvalidArgumentError("Waveform samples must be one-dimensional")
        _finite(samples, "Waveform samples")

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.samples.size / self.rate


@dataclass(frozen=True)
class ResampleConfig:
    """Windowed-sinc filter design for rate conversion.

    filter_half_width counts sinc zero crossings kept on each side of the
    center tap; rolloff shrinks the cutoff below Nyquist to leave room for
    the transition band.
    """

    filter_half_width: int = 32
    rolloff: float = 0.945

    def __post_init__(self):
        _size_fields(self, 8, "filter_half_width")
        if not 0.0 < self.rolloff <= 1.0:
            raise InvalidArgumentError("rolloff must be in (0, 1]")


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 1, 3, 0xFFFE
_MAX_RATE = 768_000  # highest header rate read, in Hz: bounds the resampler's plans
# Last 12 bytes of the KSDATAFORMAT_SUBTYPE GUID (RFC 2361) in an EXTENSIBLE
# fmt chunk; the first three GUID groups follow the file's byte order.
_SUBTYPE_TAIL = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def _unpack(fmt: str, raw: bytes) -> tuple:
    if len(raw) != struct.calcsize(fmt):
        raise ValueError("file ends inside a header")
    return struct.unpack(fmt, raw)


def _read_fmt(f, e: str) -> tuple:
    """(format tag, channels, rate, block align, bits per sample) of a fmt
    chunk, the file left on the next chunk."""
    size, tag, channels, rate, byte_rate, align, bits = _unpack(e + "IHHIIHH", f.read(20))
    if size < 16:
        raise ValueError(f"fmt chunk of {size} bytes")
    used = 16
    if tag == _EXTENSIBLE:
        if size < 18 or _unpack(e + "H", f.read(2))[0] < 22:
            raise ValueError("EXTENSIBLE fmt chunk without a subformat")
        guid = f.read(22)[6:]
        used = 40
        if guid.endswith(_SUBTYPE_TAIL[e]):
            tag = struct.unpack(e + "I", guid[:4])[0]
    if tag not in (_PCM, _IEEE_FLOAT):
        raise ValueError(f"format tag {tag:#06x} is neither PCM nor IEEE float")
    f.seek(max(size - used, 0) + size % 2, 1)
    if tag == _PCM and byte_rate != rate * align:
        raise ValueError("byte rate is not sample rate x block align")
    if rate == 0:
        raise ValueError("sample rate of 0 Hz")
    if rate > _MAX_RATE:
        raise ValueError(f"sample rate of {rate} Hz is above {_MAX_RATE} Hz")
    return tag, channels, rate, align, bits


def _read_data(f, buf: bytes, e: str, fmt: tuple, size: int | None) -> np.ndarray:
    """The whole frames of a data chunk as a (frames, channels) int16 or
    float32 view of buf, the image f reads, in file byte order; size is the
    ds64 data size of an RF64 file."""
    tag, channels, _, align, bits = fmt
    raw_size = f.read(4)
    if size is None:
        size = _unpack(e + "I", raw_size)[0]
    width = align // channels if channels else 0
    # the sample container decides, as in scipy: 12-bit PCM in 2 bytes is PCM16
    if tag == _PCM and width == 2 and not 1 <= bits <= 8 and bits <= 64:
        dtype = e + "i2"
    elif tag == _IEEE_FLOAT and width == 4 and bits in (32, 64):
        dtype = e + "f4"
    else:
        kind = "PCM" if tag == _PCM else "float"
        raise ValueError(f"{bits}-bit {kind} in {align}-byte frames of {channels} channels "
                         "(want PCM16 or float32)")
    count = size // width
    start = f.tell()
    present = min(count * width, max(len(buf) - start, 0))
    f.seek(present + size % 2, 1)
    got = present // width
    if got < count:
        warnings.warn(f"data chunk cut short: {got // channels} of {count // channels} frames")
    elif count % channels:
        raise ValueError(f"data chunk of {size} bytes is not whole {align}-byte frames")
    frames = np.frombuffer(buf, dtype, got - got % channels, min(start, len(buf)))
    return frames.reshape(-1, channels)


def _read_riff(buf: bytes) -> tuple[int, np.ndarray]:
    """(rate, frames) of the RIFF, RIFX or RF64 WAV file image buf. Chunks are
    read in order as scipy.io.wavfile.read reads them, through a file object
    whose reads stop at the end and whose seeks may pass it: each fmt chunk
    replaces the last, the last data chunk wins, and fact, LIST, JUNK and
    unknown chunks are skipped with their pad byte. Raises ValueError for
    anything else."""
    f = io.BytesIO(buf)
    magic = f.read(4)
    if magic not in (b"RIFF", b"RIFX", b"RF64"):
        raise ValueError(f"file starts with {magic!r}, not RIFF, RIFX or RF64")
    e = ">" if magic == b"RIFX" else "<"
    data_size = None
    if magic == b"RF64":
        form = f.read(8)[4:]
        if f.read(4) != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        ds64_size, riff_size, data_size = _unpack("<IQQ", f.read(20))
        f.seek(ds64_size - 16, 1)
    else:
        riff_size = _unpack(e + "I", f.read(4))[0]
        form = f.read(4)
    if form != b"WAVE":
        raise ValueError(f"RIFF form {form!r} is not WAVE")
    fmt = frames = None
    while f.tell() < riff_size + 8:
        chunk = f.read(4)
        if len(chunk) < 4:
            if frames is None:
                raise ValueError("file ends before its data chunk")
            break
        if chunk == b"fmt ":
            fmt = _read_fmt(f, e)
        elif chunk == b"data":
            if fmt is None:
                raise ValueError("data chunk before the fmt chunk")
            frames = _read_data(f, buf, e, fmt, data_size)
        elif raw := f.read(4):
            size = _unpack(e + "I", raw)[0]
            f.seek(size + size % 2, 1)
    if frames is None:
        raise ValueError("no data chunk")
    return fmt[2], frames


def load_wav(path) -> Waveform:
    """Read a WAV file (PCM16 or IEEE float32; RIFF, RIFX or RF64, plain or
    EXTENSIBLE fmt) into a mono Waveform.

    Multichannel inputs are averaged to mono; PCM16 is scaled by 1/32768. A
    data chunk cut short gives its whole frames and a warning. Raises
    UnreadableFileError if the file cannot be opened or read, and
    UnsupportedEncodingError for any other encoding, a malformed header or a
    header rate of 0 or above 768 kHz.
    """
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except OSError as exc:
        raise UnreadableFileError(f"cannot read {path!r}: {exc}") from exc
    try:
        rate, frames = _read_riff(buf)
    except ValueError as exc:
        raise UnsupportedEncodingError(f"unsupported encoding in {path!r}: {exc}") from exc

    samples = frames.astype(np.float64)
    if frames.dtype.kind == "i":
        samples /= 32768.0
    samples = samples.mean(axis=1) if frames.shape[1] > 1 else samples[:, 0]
    return Waveform(samples, int(rate))


def save_wav(path, wf: Waveform, encoding: str = "float32") -> None:
    """Write a Waveform as mono RIFF PCM16 (44-byte header) or IEEE float32
    (58-byte header with a fact chunk), at a rate `load_wav` reads back."""
    if wf.rate > _MAX_RATE:
        raise InvalidArgumentError(f"sample rate of {wf.rate} Hz is above {_MAX_RATE} Hz")
    if encoding == "float32":
        data = wf.samples.astype("<f4")
        fmt = struct.pack("<HHIIHHH", _IEEE_FLOAT, 1, wf.rate, 4 * wf.rate, 4, 32, 0)
        fact = b"fact" + struct.pack("<II", 4, data.size)
    elif encoding == "pcm16":
        clipped = np.clip(wf.samples, -1.0, 32767.0 / 32768.0)
        data = np.round(clipped * 32768.0).astype("<i2")
        fmt = struct.pack("<HHIIHH", _PCM, 1, wf.rate, 2 * wf.rate, 2, 16)
        fact = b""
    else:
        raise InvalidArgumentError(f"unknown encoding {encoding!r}")
    chunks = b"fmt " + struct.pack("<I", len(fmt)) + fmt + fact
    chunks += b"data" + struct.pack("<I", data.nbytes)
    with open(path, "wb") as fh:
        fh.write(b"RIFF" + struct.pack("<I", 4 + len(chunks) + data.nbytes) + b"WAVE" + chunks)
        fh.write(data)


def _design_lowpass(cutoff: float, half_width: int) -> np.ndarray:
    """Kaiser-windowed sinc, beta KAISER_BETA, with `half_width` zero
    crossings per side.

    cutoff is in units of the (post-upsampling) Nyquist frequency.
    """
    n_half = int(math.ceil(half_width / cutoff))
    n = np.arange(-n_half, n_half + 1, dtype=np.float64)
    taps = cutoff * np.sinc(cutoff * n) * np.kaiser(2 * n_half + 1, KAISER_BETA)
    return taps / taps.sum()


def _polyphase_taps(rate_in: int, rate_out: int, cfg: ResampleConfig) -> tuple:
    """(taps, up, down) for rate_in -> rate_out Hz: the odd-length lowpass,
    centred on its middle tap and scaled by up, that `resample` applies to the
    input upsampled by up before keeping every down-th sample."""
    g = math.gcd(rate_in, rate_out)
    up = rate_out // g
    down = rate_in // g
    cutoff = cfg.rolloff * min(1.0 / up, 1.0 / down)
    return _design_lowpass(cutoff, cfg.filter_half_width) * up, up, down


@functools.lru_cache(maxsize=16)
def _resample_plan(rate_in: int, rate_out: int, cfg: ResampleConfig) -> tuple:
    """(U, D, left, right, blocks) for rate_in -> rate_out Hz, shared by every
    call at that rate pair and config.

    Output sample U*m + r (phase r < U) is sum_j x[D*m + j]*taps[N + r*down
    - j*up], N the centre tap and D = U*down/up. A block (r0, j_lo, bank)
    covers phases r0 <= r < r0 + B, and its read-only (S, B) bank holds their
    taps for j_lo <= j < j_lo + S. B is about len(taps)/down, so S stays
    within about twice the len(taps)/up taps of one phase; U = k*up is the
    fewest phases for which D >= every S, so each block is one matmul over
    input rows D apart. All blocks read within -left <= j < right.
    """
    taps, up, down = _polyphase_taps(rate_in, rate_out, cfg)
    n_half = (len(taps) - 1) // 2
    width = max(1, len(taps) // down)
    span = ((width - 1) * down + 2 * n_half) // up + 1  # the widest S
    k = -(-span // down)
    U, D = up * k, down * k
    width = -(-U // -(-U // width))  # as many blocks, evened out
    padded = np.concatenate([[0.0], taps, [0.0]])  # clipped indices fall on a zero
    blocks = []
    for r0 in range(0, U, width):
        r = np.arange(r0, min(r0 + width, U))
        j_lo = -((n_half - r0 * down) // up)  # ceil((r0*down - N) / up)
        j = np.arange(j_lo, (r[-1] * down + n_half) // up + 1)
        bank = padded.take((r * down + n_half + 1) - j[:, None] * up, mode="clip")
        bank.flags.writeable = False
        blocks.append((r0, j_lo, bank))
    return U, D, n_half // up, ((U - 1) * down + n_half) // up + 1, tuple(blocks)


def resample(wf: Waveform, target_rate: int, cfg: ResampleConfig | None = None) -> Waveform:
    """Polyphase windowed-sinc resampling to target_rate: ceil(n * up / down)
    samples for n input samples.

    The output is laid out as M rows of U phases, and each block of phases is
    one BLAS matmul of a sliding-window view of the zero-padded input (rows D
    apart, at most D wide, so no window is copied) with the plan's bank. It
    sums the products scipy.signal.upfirdn sums with the same taps, in
    another order, so with n taps per phase (n <= len(taps) // up + 1) the two
    differ by at most 2*gamma_n*max|x|*max_r sum|bank[:, r]|, where gamma_n =
    n*u/(1 - n*u) and u = 2**-53. Repeated calls give identical results, and
    scaling x by a power of two scales the output exactly unless a product
    leaves the normal range; the last bits depend on the BLAS build and its
    thread count.
    """
    target_rate = _size(target_rate, "target_rate", 1)
    cfg = cfg or ResampleConfig()
    if target_rate == wf.rate:
        return Waveform(wf.samples.copy(), wf.rate)

    U, D, left, right, blocks = _resample_plan(wf.rate, target_rate, cfg)
    n = len(wf.samples)
    out_len = -(-n * target_rate // wf.rate)  # ceil
    rows = -(-out_len // U)
    x = np.zeros(left + max(n, max(rows - 1, 0) * D + right))
    x[left : left + n] = wf.samples
    out = np.empty((rows, U))
    for r0, j_lo, bank in blocks:
        view = sliding_window_view(x, bank.shape[0])[left + j_lo :: D][:rows]
        np.matmul(view, bank, out=out[:, r0 : r0 + bank.shape[1]])
    return Waveform(out.ravel()[:out_len], target_rate)


def degrade(wf: Waveform, low_rate: int, cfg: ResampleConfig | None = None) -> Waveform:
    """Bandlimit a waveform by resampling down to low_rate and back up.

    The result has the same rate and exactly the same length as the input.
    """
    low_rate = _size(low_rate, "low_rate", 1)
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
    size, hop = _size(size, "size", 1), _size(hop, "hop", 1)
    if len(wf) < size:
        return np.empty((0, size), dtype=np.float64)
    return sliding_window_view(wf.samples, size)[::hop].copy()


def _peak_exponent(x: np.ndarray, axis: int | None = None) -> int | np.ndarray:
    """math.frexp's exponent of the peak |x| (0 for all-zero input): a Python
    int, or per slice along `axis` when given, with the reduced axis kept."""
    kw = dict(axis=axis, keepdims=True, initial=0.0)
    e = np.frexp(np.maximum(x.max(**kw), -x.min(**kw)))[1]
    return e.item() if axis is None else e


def unit_peak(x: np.ndarray, axis: int | None = None) -> tuple[np.ndarray, int | np.ndarray]:
    """(x * 2**-e, e), e being `_peak_exponent(x, axis)`. Each peak lands in
    [0.5, 1) exactly, so 1e200- or 1e-200-sized input neither overflows nor
    underflows downstream, and in-range results are unchanged."""
    e = _peak_exponent(x, axis)
    return np.ldexp(x, -e), e
