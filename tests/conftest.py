import contextlib
import os
from unittest import mock

import numpy as np
import pytest

from bwetools import demo, nld
from bwetools.demo import synthetic_speech
from bwetools.signal import Waveform

SPLIT = nld._over_segments


@pytest.fixture(scope="session")
def speech_clip():
    return synthetic_speech(duration=3.0, rate=48000, seed=0)


@pytest.fixture(scope="session")
def speech():
    """speech(duration, rate=48000, seed=0): `synthetic_speech` generated once
    per session for each argument triple, as a fresh copy on every call."""
    clips = {}

    def make(duration, rate=48000, seed=0):
        key = (duration, rate, seed)
        if key not in clips:
            clips[key] = synthetic_speech(duration=duration, rate=rate, seed=seed)
        return Waveform(clips[key].samples.copy(), rate)

    return make


def logistic_orbit(n, x0=0.37):
    """Fully chaotic logistic map orbit, x_{t+1} = 4 x_t (1 - x_t)."""
    x = np.empty(n)
    x[0] = x0
    for i in range(1, n):
        x[i] = 4.0 * x[i - 1] * (1.0 - x[i - 1])
    return x


@contextlib.contextmanager
def record_split(cpus):
    """Within the block, this process may use `cpus` CPUs, and every
    `nld._over_segments` call, by MRLD or by `demo.synthetic_speech`, appends
    (count, ranges) to the list it yields; a range is recorded when it
    returns."""
    calls = []

    def over_segments(count, part):
        ranges = []
        calls.append((count, ranges))

        def recorded(lo, hi):
            part(lo, hi)
            ranges.append((lo, hi))

        SPLIT(count, recorded)

    with (
        mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True),
        mock.patch.object(nld, "_over_segments", over_segments),
        mock.patch.object(demo, "_over_segments", over_segments),
    ):
        yield calls
