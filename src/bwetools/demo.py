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
from .nld import _BLOCK, _over_segments
from .signal import Waveform

__all__ = ["synthetic_speech"]


def synthetic_speech(duration: float = 3.0, rate: int = 48000, seed: int = 0) -> Waveform:
    """round(duration * rate) samples at `rate` Hz, peak-normalised, drawn from
    `seed`.

    The harmonics are summed over contiguous sample ranges, one per CPU in
    `os.sched_getaffinity` (see `nld._over_segments`). Each range walks the
    blocks of `_BLOCK` samples, counted from sample 0, that it overlaps, so
    memory beyond the returned samples is one block's scratch per CPU. Each
    sample takes the same operations in the same order on any block and range,
    so the clip is bit-identical at any CPU count. A rate below 1, or a
    duration that is not finite and > 0 or that rounds to no sample, raises
    InvalidArgumentError.
    """
    rate = _size(rate, "rate", 1)
    if not (0 < duration < math.inf and 0.5 < duration * rate < math.inf):
        raise InvalidArgumentError(
            f"duration must be finite and give at least one sample at {rate} Hz, got {duration!r}"
        )
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))

    def pitch(lo, hi):
        t = np.arange(lo, hi) / rate
        return t, 115.0 + 25.0 * np.sin(2.0 * np.pi * 0.6 * t + 1.0)

    def running_sum(f0, carry):
        # the carry, f0 summed before the block, joins the first f0 ahead of
        # the cumsum, so the sums are a whole-clip np.cumsum's bit for bit
        f0[0] += carry
        return np.cumsum(f0, out=f0)

    # pass 1, serial: f0's max, and its sum before each block
    carries, f0_max = [0.0], 0.0
    for lo in range(0, n, _BLOCK):
        _, f0 = pitch(lo, min(lo + _BLOCK, n))
        f0_max = max(f0_max, f0.max())
        carries.append(running_sum(f0, carries[-1])[-1])

    max_harmonic = int(rate / 2 / (f0_max + 1))
    offsets = rng.uniform(0, 2 * np.pi, max_harmonic)  # the stream of one draw per harmonic
    syllable_phase = rng.uniform(0, 2 * np.pi)
    out = np.empty(n)
    rng.standard_normal(out=out)  # fricative-ish noise, mixed in block by block below

    def fill_block(start, lo, hi):
        """out[lo:hi] for start <= lo < hi <= start + _BLOCK, start a block's
        first sample, from which f0 is summed onto the block's carry."""
        t, phase = pitch(start, hi)
        phase = running_sum(phase, carries[start // _BLOCK])[lo - start :]
        t = t[lo - start :]
        phase *= 2.0 * np.pi
        phase /= rate
        voiced, scratch = np.zeros(hi - lo), np.empty(hi - lo)
        for h, offset in enumerate(offsets, 1):
            np.multiply(h, phase, out=scratch)
            scratch += offset
            np.sin(scratch, out=scratch)
            scratch /= h
            voiced += scratch
        voiced *= 0.55 + 0.45 * np.sin(2.0 * np.pi * 3.5 * t + syllable_phase)

        # broadband noise gated by a slower envelope
        noise = out[lo:hi]
        gate = (np.sin(2.0 * np.pi * 1.3 * t + 2.0) > 0.3).astype(float)
        voiced += 0.15 * noise * gate
        voiced += 0.01 * noise
        noise[:] = voiced

    def fill(lo, hi):
        for start in range(lo - lo % _BLOCK, hi, _BLOCK):
            fill_block(start, max(lo, start), min(hi, start + _BLOCK))

    # sin releases the GIL, so the ranges run in parallel
    _over_segments(n, fill)

    out /= max(out.max(), -out.min())
    return Waveform(out, rate)
