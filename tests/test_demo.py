"""demo.synthetic_speech: pinned output bytes at any CPU count, and its
argument checks."""

import hashlib
from unittest import mock

import numpy as np
import pytest

from bwetools.demo import synthetic_speech
from bwetools.errors import InvalidArgumentError
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
