"""Deterministic speech-like test signal.

Real recordings are deliberately not shipped; this generator produces a
48 kHz clip with the gross structure the metrics care about: a harmonic
voiced source with slow pitch drift and syllabic amplitude modulation, plus
broadband fricative-like noise bursts so every octave up to Nyquist carries
energy.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError, _size
from .nld import _over_segments
from .signal import Waveform

__all__ = ["synthetic_speech"]


def synthetic_speech(duration: float = 3.0, rate: int = 48000, seed: int = 0) -> Waveform:
    """round(duration * rate) samples at `rate` Hz, peak-normalised, drawn from
    `seed`.

    The harmonics are summed over contiguous sample ranges, one per CPU in
    `os.sched_getaffinity` (see `nld._over_segments`); each sample takes the
    same operations in the same harmonic order on any range, so the clip is
    bit-identical at any CPU count. A rate below 1, or a duration that is not
    finite and > 0 or that rounds to no sample, raises InvalidArgumentError.
    """
    rate = _size(rate, "rate", 1)
    if not (0 < duration < math.inf and 0.5 < duration * rate < math.inf):
        raise InvalidArgumentError(
            f"duration must be finite and give at least one sample at {rate} Hz, got {duration!r}"
        )
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    t = np.arange(n) / rate

    f0 = 115.0 + 25.0 * np.sin(2.0 * np.pi * 0.6 * t + 1.0)
    phase = 2.0 * np.pi * np.cumsum(f0) / rate
    voiced = np.zeros(n)
    scratch = np.empty(n)
    max_harmonic = int(rate / 2 / (f0.max() + 1))
    offsets = rng.uniform(0, 2 * np.pi, max_harmonic)  # the stream of one draw per harmonic

    def harmonics(lo, hi):
        p, v, s = phase[lo:hi], voiced[lo:hi], scratch[lo:hi]
        for h, offset in enumerate(offsets, 1):
            np.multiply(h, p, out=s)
            s += offset
            np.sin(s, out=s)
            s /= h
            v += s

    # sin releases the GIL, so the ranges run in parallel
    _over_segments(n, harmonics)

    syllables = 0.55 + 0.45 * np.sin(2.0 * np.pi * 3.5 * t + rng.uniform(0, 2 * np.pi))
    voiced *= syllables

    # fricative-ish bursts: broadband noise gated by a slower envelope
    noise = rng.standard_normal(n)
    gate = (np.sin(2.0 * np.pi * 1.3 * t + 2.0) > 0.3).astype(float)
    out = voiced + 0.15 * noise * gate + 0.01 * noise

    return Waveform(out / np.abs(out).max(), rate)
