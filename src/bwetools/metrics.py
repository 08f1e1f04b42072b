"""Objective evaluation metrics for (reference, estimate) waveform pairs:
log-spectral distance, scale-invariant SDR/SNR, and short-time objective
intelligibility."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError
from .signal import Waveform, resample, unit_peak
from .spectral import StftConfig, _per_frame

__all__ = ["MetricReport", "lsd", "si_sdr", "si_snr", "stoi", "evaluate"]

# SI-SDR/SI-SNR are clipped to +/-SI_CAP_DB: +SI_CAP_DB for a (numerically)
# exact match, -SI_CAP_DB for an estimate with no component along the
# reference (a silent one included). Values are rounded to a grid of
# 10**-SI_DECIMALS dB, so that scaling either signal by a power of two gives
# the same float, not one an ULP away; any other positive factor rounds the
# samples and may move the value by one grid step.
SI_CAP_DB = 200.0
SI_DECIMALS = 9

LSD_CONFIG = {"n_fft": 2048, "hop": 512, "window": "hann", "eps": 1e-10, "log_base": 10}

STOI_CONFIG = {
    "rate": 10_000,
    "n_fft": 512,
    "hop": 256,
    "n_bands": 15,
    "first_center_hz": 150.0,
    "segment_frames": 30,
    "dyn_range_db": 40.0,
    "sdr_bound_db": -15.0,
}


@dataclass(frozen=True)
class MetricReport:
    lsd: float
    si_sdr: float
    si_snr: float
    stoi: float
    config: dict

    def as_dict(self) -> dict:
        return asdict(self)


def _aligned(ref: Waveform, est: Waveform) -> tuple[np.ndarray, np.ndarray]:
    if ref.rate != est.rate:
        raise InvalidArgumentError(f"rate mismatch: {ref.rate} vs {est.rate}")
    n = min(len(ref), len(est))
    return ref.samples[:n], est.samples[:n]


def lsd(ref: Waveform, est: Waveform) -> float:
    """Log-spectral distance in dB: per-frame RMS over bins of the 10*log10
    power ratio, averaged over frames (2048-point STFT, hop 512, hann).

    The 1e-10 floor on each bin's power is absolute, so the distance depends
    on loudness: scaling both signals by one gain changes it. For
    `synthetic_speech(1.0, seed=3)` against its `degrade(..., 16000)`, gains
    2**-20, 1 and 2**20 give 0.094, 73.6 and 81.4 dB, 1e-200 gives 0.0 and
    1e200 gives NaN (both powers overflow). A spectrum that overflows (at
    1e306) raises InvalidArgumentError. Each block of frames becomes per-frame RMS."""
    r, e = _aligned(ref, est)
    cfg = StftConfig(n_fft=LSD_CONFIG["n_fft"], win_length=LSD_CONFIG["n_fft"], hop=LSD_CONFIG["hop"])
    eps = LSD_CONFIG["eps"]

    def frame_rms(x, y):
        diff = 10.0 * np.log10((np.abs(x) ** 2 + eps) / (np.abs(y) ** 2 + eps))
        return np.sqrt(np.mean(diff**2, axis=1))

    return float(np.mean(_per_frame(frame_rms, cfg, r, e)))


_VELTKAMP = 134217729.0  # 2**27 + 1: splits a float64 into two halves of at most 26 bits
_SI_BLOCK = 1 << 15  # samples per residual block


def _split(x):
    c = _VELTKAMP * x
    hi = c - (c - x)
    return hi, x - hi


def _residual_energy(ref: np.ndarray, est: np.ndarray, alpha: float, offset: float) -> float:
    """sum((est - alpha * ref - offset)**2), each residual rounded at its own
    scale, not at est's. With alpha and ref split into halves of at most 26
    bits, alpha_hi * ref_hi is exact, and so is est minus it wherever the two
    are within a factor of 2 (Sterbenz), as they are for a close estimate;
    the rest of alpha * ref is 2**-26 smaller, and so is its rounding error.
    Runs _SI_BLOCK samples at a time, so its temporaries stay small."""
    alpha_hi, alpha_lo = _split(alpha)
    total = 0.0
    for s in range(0, len(ref), _SI_BLOCK):
        r, e = ref[s : s + _SI_BLOCK], est[s : s + _SI_BLOCK]
        r_hi, r_lo = _split(r)
        err = (e - alpha_hi * r_hi - offset) - (alpha_hi * r_lo + alpha_lo * r)
        total += float(err @ err)
    return total


def _si_ratio(ref: np.ndarray, est: np.ndarray, centered: bool) -> float:
    # each signal's peak scaled into [0.5, 1), so 1e200 does not overflow the dot products
    ref, est = unit_peak(ref)[0], unit_peak(est)[0]
    ref_c, est_c, ref_mean, est_mean = ref, est, 0.0, 0.0
    if centered:
        ref_mean, est_mean = float(ref.mean()), float(est.mean())
        ref_c, est_c = ref - ref_mean, est - est_mean
    denom = float(ref_c @ ref_c)
    if denom == 0.0:
        raise InvalidArgumentError("reference signal is all zero")
    cross = float(est_c @ ref_c)
    alpha = cross / denom
    target_energy = alpha * cross
    if target_energy == 0.0:
        return -SI_CAP_DB
    # the residual is taken from the uncentered signals: its energy is stationary
    # in alpha and in both means, so their rounding errors reach it only squared
    err_energy = _residual_energy(ref, est, alpha, est_mean - alpha * ref_mean)
    if err_energy == 0.0:
        return SI_CAP_DB
    value = 10.0 * np.log10(target_energy / err_energy)
    return round(float(np.clip(value, -SI_CAP_DB, SI_CAP_DB)), SI_DECIMALS)


def si_sdr(ref: Waveform, est: Waveform) -> float:
    """Scale-invariant SDR: projection of the estimate onto the raw
    (un-centered) reference.

    In dB on a 1e-9 dB grid, clipped to +/-SI_CAP_DB. Scaling ``ref`` or
    ``est`` by a power of two returns exactly the same float. Any other
    positive factor rounds the scaled samples, which moves the true value by
    up to some 1e-13 dB near 80 dB; the value is computed to within about
    1e-14 dB of the true one for the samples given, so it changes only where
    the true value lies that close to a grid point's rounding boundary."""
    r, e = _aligned(ref, est)
    return _si_ratio(r, e, centered=False)


def si_snr(ref: Waveform, est: Waveform) -> float:
    """Scale-invariant SNR: same projection after mean-centering both.

    In dB on a 1e-9 dB grid, clipped to +/-SI_CAP_DB, and scale-invariant as
    si_sdr is while the means are small against the residual: a large mean
    offset rounds the residual at its own scale. A constant reference (a DC
    clip, or any 1-sample clip) is all zero after mean-centering, so it raises
    InvalidArgumentError saying so."""
    r, e = _aligned(ref, est)
    if np.all(r == r[:1]):  # checked before centering, whose mean may be inexact
        raise InvalidArgumentError("reference signal is constant, so all zero after mean-centering")
    return _si_ratio(r, e, centered=True)


def _third_octave_bands(rate: int, n_fft: int, n_bands: int, first_center: float):
    """Boolean (n_bands, n_bins) membership matrix for one-third-octave bands."""
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / rate)
    centers = first_center * 2.0 ** (np.arange(n_bands) / 3.0)
    lo = centers / 2.0 ** (1.0 / 6.0)
    hi = centers * 2.0 ** (1.0 / 6.0)
    return (freqs[None, :] >= lo[:, None]) & (freqs[None, :] < hi[:, None])


def stoi(ref: Waveform, est: Waveform) -> float:
    """Short-time objective intelligibility in [0, 1].

    Both signals are cut to their common length and resampled to 10 kHz;
    frames more than 40 dB below the loudest reference frame are dropped from
    both; one-third-octave band envelopes over 30-frame segments are compared
    by normalized correlation after scaling and clipping the estimate at the
    -15 dB SDR bound. Bands where either envelope is flat over a segment give
    no correlation; when none is left (e.g. an all-zero estimate) the score is
    0.0. One segment needs (30 - 1) * 256 + 512 = 7,936 active samples at
    10 kHz (about 0.79 s); fewer raise InvalidArgumentError, as a silent
    reference does.

    Each signal is first scaled by a power of two to a peak in [0.5, 1), so
    scaling either input by 2**k gives exactly the same score, and the two
    1e-12 floors (on the estimate's envelope norm and on the correlation
    denominator) act on those peak-normalised signals. Both signals' power
    spectra come a block of frames at a time; no complex grid is built."""
    c = STOI_CONFIG
    r, e = _aligned(ref, est)
    if ref.rate < c["rate"]:
        raise InvalidArgumentError(f"stoi needs rate >= {c['rate']} Hz")
    # each signal's peak scaled into [0.5, 1), so 1e200 or 1e-200 neither
    # overflows nor underflows the band powers
    x, y = (resample(Waveform(unit_peak(s)[0], ref.rate), c["rate"]).samples for s in (r, e))

    cfg = StftConfig(n_fft=c["n_fft"], win_length=c["n_fft"], hop=c["hop"], center=False)
    # both signals' (F, T) power grids
    power = _per_frame(lambda u, v: np.abs(np.stack((u, v), axis=1)) ** 2, cfg, x, y)
    power_x, power_y = power.transpose(1, 2, 0)

    # energy-based silent-frame removal, synchronized on the reference
    frame_energy = np.sum(power_x, axis=0)
    keep = frame_energy > frame_energy.max() * 10.0 ** (-c["dyn_range_db"] / 10.0)
    seg, active = c["segment_frames"], np.count_nonzero(keep)
    if active < seg:
        raise InvalidArgumentError(
            f"stoi needs {seg} frames within {c['dyn_range_db']:g} dB of the loudest reference frame, "
            f"({seg} - 1) * {c['hop']} + {c['n_fft']} = {(seg - 1) * c['hop'] + c['n_fft']} active "
            f"samples at {c['rate']} Hz; {active} of {keep.size} frames are active"
        )

    bands = _third_octave_bands(c["rate"], c["n_fft"], c["n_bands"], c["first_center_hz"])
    env_x = np.sqrt(bands.astype(float) @ power_x[:, keep])
    env_y = np.sqrt(bands.astype(float) @ power_y[:, keep])

    # (segments, bands, seg): every 30-frame reduction runs along the last,
    # contiguous axis, and the correlations come out segment-major
    xs = np.ascontiguousarray(sliding_window_view(env_x, seg, axis=1).transpose(1, 0, 2))
    ys = np.ascontiguousarray(sliding_window_view(env_y, seg, axis=1).transpose(1, 0, 2))
    norm_x = np.linalg.norm(xs, axis=2, keepdims=True)
    norm_y = np.linalg.norm(ys, axis=2, keepdims=True)
    alpha = norm_x / np.maximum(norm_y, 1e-12)
    clip_gain = 10.0 ** (-c["sdr_bound_db"] / 20.0)
    ys = np.minimum(ys * alpha, xs * (1.0 + clip_gain))
    xs = xs - xs.mean(axis=2, keepdims=True)
    ys = ys - ys.mean(axis=2, keepdims=True)
    denom = np.linalg.norm(xs, axis=2) * np.linalg.norm(ys, axis=2)
    ok = denom > 1e-12
    if not ok.any():
        return 0.0
    scores = np.sum(xs * ys, axis=2)[ok] / denom[ok]
    return float(np.clip(np.mean(scores), 0.0, 1.0))


def evaluate(ref: Waveform, est: Waveform) -> MetricReport:
    """All four metrics plus the configuration they were computed with."""
    return MetricReport(
        lsd=lsd(ref, est),
        si_sdr=si_sdr(ref, est),
        si_snr=si_snr(ref, est),
        stoi=stoi(ref, est),
        config={"lsd": LSD_CONFIG, "stoi": STOI_CONFIG, "si_cap_db": SI_CAP_DB},
    )
