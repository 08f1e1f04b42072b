"""demo.synthetic_speech: pinned output bytes at any CPU count, equal to the
whole-clip reference at any block boundary, its memory bound, and its argument
checks."""

import hashlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest

from bwetools import demo
from bwetools.demo import synthetic_speech
from bwetools.errors import InvalidArgumentError
from bwetools.signal import Waveform
from conftest import record_split

# sha256 of synthetic_speech(duration, rate, seed).samples, taken from the
# serial harmonic loop with one uniform draw per harmonic
PINNED = {
    (0.37, 11025, 1): "c97018ed253b65aaaaa732a083de42453891b501b6364ce552980bed07e66aed",  # 4079 samples
    (1.0, 280, 2): "e2aa624f871d2a03861eef69c8883ebb45b99c87ef479fabfef98b5aa83d76eb",  # no harmonic
    (3.0, 48000, 7): "877869b7dd521378d5d0dc51a534f2bab80fd9bb26b96c4fd5d38d6cdb7c8b88",
    (3.0, 44100, 3): "6a9ad73177faaa16f4911b34f1975e052df668ef7217de030303a73d393400cc",
    (5.5, 16000, 4): "9d06378491bbfa14999e6ae8117a448bcf43d7e3bac02466681edc5fee3f612f",
}


def digest(args):
    return hashlib.sha256(synthetic_speech(*args).samples.tobytes()).hexdigest()


@pytest.mark.parametrize("args", PINNED)
def test_samples_are_pinned(args):
    wf = synthetic_speech(*args)
    assert len(wf) == round(args[0] * args[1]) and wf.rate == args[1]
    assert digest(args) == PINNED[args]


@pytest.mark.parametrize("cpus", [1, 3])
def test_samples_do_not_depend_on_the_split(cpus):
    # one CPU runs the serial path; three split every clip into uneven ranges
    with record_split(cpus) as calls:
        for args, expected in PINNED.items():
            assert digest(args) == expected, args
    assert [len(ranges) for _, ranges in calls] == [cpus] * len(PINNED)


def test_harmonics_split_into_one_range_per_cpu():
    with record_split(3) as calls:
        synthetic_speech(1.0, 40000, 0)
        synthetic_speech(0.5, 40000, 0)
        synthetic_speech(2 / 40000, 40000, 0)  # one range per sample
        synthetic_speech(1 / 40000, 40000, 0)  # one range, on the calling thread
    assert [(count, sorted(ranges)) for count, ranges in calls] == [
        (40000, [(0, 13333), (13333, 26666), (26666, 40000)]),
        (20000, [(0, 6666), (6666, 13333), (13333, 20000)]),
        (2, [(0, 1), (1, 2)]),
        (1, [(0, 1)]),
    ]


def reference_speech(duration, rate, seed):
    """The whole-clip body synthetic_speech had before it worked in blocks,
    with the harmonics summed serially."""
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    t = np.arange(n) / rate

    f0 = 115.0 + 25.0 * np.sin(2.0 * np.pi * 0.6 * t + 1.0)
    phase = 2.0 * np.pi * np.cumsum(f0) / rate
    voiced = np.zeros(n)
    scratch = np.empty(n)
    max_harmonic = int(rate / 2 / (f0.max() + 1))
    offsets = rng.uniform(0, 2 * np.pi, max_harmonic)
    for h, offset in enumerate(offsets, 1):
        np.multiply(h, phase, out=scratch)
        scratch += offset
        np.sin(scratch, out=scratch)
        scratch /= h
        voiced += scratch

    syllables = 0.55 + 0.45 * np.sin(2.0 * np.pi * 3.5 * t + rng.uniform(0, 2 * np.pi))
    voiced *= syllables

    noise = rng.standard_normal(n)
    gate = (np.sin(2.0 * np.pi * 1.3 * t + 2.0) > 0.3).astype(float)
    out = voiced + 0.15 * noise * gate + 0.01 * noise

    return Waveform(out / np.abs(out).max(), rate)


B = demo._BLOCK
# 16 kHz keeps the harmonic loop short; 3B + 5 samples split over 2 or 3 CPUs
# into ranges that start off the block grid
REFERENCE_CASES = [(m / 16000, 16000, m % 7) for m in (1, B - 1, B, B + 1, 2 * B + 3, 3 * B + 5)]


@pytest.fixture(scope="module")
def reference_bytes():
    return {args: reference_speech(*args).samples.tobytes() for args in REFERENCE_CASES}


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_blocks_match_the_whole_clip_reference(cpus, reference_bytes):
    with record_split(cpus) as calls:
        for args in REFERENCE_CASES:
            assert synthetic_speech(*args).samples.tobytes() == reference_bytes[args], args
    assert len(calls[-1][1]) == cpus
    if cpus > 1:  # the premise: some range of the last clip starts inside a block
        assert any(lo % B for lo, _ in calls[-1][1])


def test_scratch_does_not_grow_with_the_clip():
    # numpy reports its allocations to tracemalloc; beyond the returned
    # samples, the traced peak is a block's scratch (at most ten float64
    # arrays of B) per CPU at any length
    cpus, block_scratch = 2, 10 * 8 * B
    excess = []
    with record_split(cpus):
        for duration in (1.0, 4.0):
            tracemalloc.start()
            try:
                samples = synthetic_speech(duration, 48000).samples
                excess.append(tracemalloc.get_traced_memory()[1] - samples.nbytes)
            finally:
                tracemalloc.stop()
    assert excess[1] - excess[0] <= cpus * block_scratch
    assert max(excess) <= cpus * block_scratch


@pytest.mark.parametrize(
    "duration, rate",
    [
        (0.0, 48000),
        (-1.0, 48000),
        (1e-5, 48000),  # 0.48 samples round to none
        (float("nan"), 48000),
        (float("inf"), 48000),
        (float("-inf"), 48000),
        (1e308, 48000),  # too many samples for a float
    ],
)
def test_bad_duration_rejected(duration, rate):
    with pytest.raises(InvalidArgumentError, match="duration"):
        synthetic_speech(duration, rate)


@pytest.mark.parametrize("rate", [0, -5, 0.5, 8000.5, True, float("nan"), float("inf"), None])
def test_bad_rate_rejected(rate):
    with pytest.raises(InvalidArgumentError, match="rate"):
        synthetic_speech(1.0, rate)


def test_rejected_before_any_allocation(monkeypatch):
    monkeypatch.setattr(np, "arange", mock.Mock(side_effect=AssertionError("allocated")))
    for duration, rate in [(0.0, 48000), (1e-5, 48000), (float("nan"), 48000), (1.0, 0)]:
        with pytest.raises(InvalidArgumentError):
            synthetic_speech(duration, rate)


def test_one_sample_clip():
    wf = synthetic_speech(1e-5, 60000)  # 0.6 samples round to one
    assert len(wf) == 1 and abs(wf.samples[0]) == 1.0
