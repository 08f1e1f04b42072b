import math
import os
import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import cdist

from bwetools import nld
from bwetools.demo import synthetic_speech
from bwetools.errors import InvalidArgumentError
from bwetools.featmaps import DEFAULT_LYAPUNOV_WINDOWS, mrld_features, msdfa_features
from bwetools.nld import (
    EmbeddingParams,
    delay_embed,
    dfa_exponent,
    dfa_fluctuation,
    local_lyapunov,
    lyapunov_windows,
    poincare_sd,
    recurrence_plot,
)
from bwetools.signal import Waveform, frame, load_wav, save_wav, unit_peak
from conftest import SPLIT, logistic_orbit, one_segment_lyapunov, record_split

SCALES = (100, 200, 300, 500, 600)
# one range on the calling thread, and three uneven ones wherever the clip
# holds three lcm(windows) blocks
SPLIT_CPUS = (1, 3)
# cells per search tile: the module's own, or as few as one row per tile, so
# that one segment's search spans many tiles
TILES = st.one_of(st.just(nld._TILE), st.integers(1, 400))


class TestDelayEmbed:
    def test_basic(self):
        out = delay_embed([1, 2, 3, 4], d=2, tau=1)
        np.testing.assert_array_equal(out, [[1, 2], [2, 3], [3, 4]])

    def test_d1_identity(self):
        x = np.arange(5.0)
        np.testing.assert_array_equal(delay_embed(x, 1, 1)[:, 0], x)

    def test_sparse_delay(self):
        out = delay_embed([1, 2, 3, 4, 5], d=3, tau=2)
        np.testing.assert_array_equal(out, [[1, 3, 5]])

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            delay_embed([1, 2], d=3, tau=1)

    @given(
        d=st.integers(1, 5),
        tau=st.integers(1, 4),
        extra=st.integers(0, 40),
        count=st.one_of(st.none(), st.integers(0, 3)),  # None: one 1-D series
    )
    @settings(max_examples=100, deadline=None)
    def test_index_definition(self, d, tau, extra, count):
        """out[..., j, k] == x[..., j + tau*k] for 1-D series and segment
        stacks, as a fresh writable array that does not alias x."""
        length = (d - 1) * tau + 1 + extra
        shape = (length,) if count is None else (count, length)
        x = np.random.default_rng(length).standard_normal(shape)
        out = delay_embed(x, d, tau)
        j, k = np.ogrid[: length - (d - 1) * tau, :d]
        assert np.array_equal(out, x[..., j + tau * k])
        assert out.flags.writeable and out.flags.c_contiguous
        out[...] = 7.0
        assert not np.any(x == 7.0)

    @given(
        d=st.integers(1, 4),
        tau=st.integers(1, 4),
        extra=st.integers(0, 20),
    )
    @settings(max_examples=50, deadline=None)
    def test_count_formula(self, d, tau, extra):
        n = (d - 1) * tau + 1 + extra
        x = np.random.default_rng(n).standard_normal(n)
        assert delay_embed(x, d, tau).shape == (n - (d - 1) * tau, d)


class TestLocalLyapunov:
    """The estimator on one segment, through `lyapunov_windows`; only
    test_too_short checks `local_lyapunov` itself, whose other contract
    tests are the dense-reference and non-finite-input ones."""

    def test_constant_segment_is_zero(self):
        value, _ = one_segment_lyapunov(np.ones(128), EmbeddingParams(d=2, tau=1, delta=1))
        assert value == 0.0

    def test_logistic_map_ln2(self):
        x = logistic_orbit(4096)
        p = EmbeddingParams(d=1, tau=1, delta=1, eps=1e-8, theiler=1)
        value, _ = one_segment_lyapunov(x, p)
        assert abs(value - np.log(2)) < 0.1 * np.log(2)

    def test_sine_is_near_zero(self):
        x = np.sin(2 * np.pi * np.arange(2048) / 64)
        value, _ = one_segment_lyapunov(x, EmbeddingParams(d=3, tau=1))
        assert abs(value) < 0.05

    def test_scale_invariance(self):
        x = logistic_orbit(1024)
        p = EmbeddingParams(d=2, tau=1, delta=4, eps=1e-12)
        base, _ = one_segment_lyapunov(x, p)
        for c in (0.5, 2.0):
            assert abs(one_segment_lyapunov(c * x, p)[0] - base) < 1e-3

    def test_degenerate_flag(self):
        # theiler window excludes every candidate neighbor
        p = EmbeddingParams(d=1, tau=1, delta=1, theiler=50)
        value, degenerate = one_segment_lyapunov(np.sin(np.arange(12.0)), p)
        assert degenerate and value == 0.0

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            local_lyapunov(np.ones(4), EmbeddingParams(d=3, tau=2, delta=2))

    @pytest.mark.parametrize("eps", [0.0, -1e-8, float("nan"), float("inf"), -float("inf")])
    def test_bad_eps(self, eps):
        # a NaN or infinite floor made every rate NaN, and MRLD flagged none
        with pytest.raises(InvalidArgumentError, match="eps"):
            EmbeddingParams(eps=eps)


def reference_lyapunov(segment, p):
    """Dense one-segment estimator the batched kernel must match bit for bit:
    the segment scaled by the power of two from its peak, full distance
    matrix, O(m^2) Theiler mask, argmin (lowest index on ties), and the
    scale undone on the distances before eps is added."""
    segment = np.asarray(segment, dtype=np.float64)
    delta, theiler = p.resolved(segment.size)
    exponent = np.frexp(np.abs(segment).max())[1]
    y = delay_embed(np.ldexp(segment, -exponent), p.d, p.tau)
    n_valid = y.shape[0] - delta
    if n_valid < 2:
        return 0.0, True
    dist = cdist(y[:n_valid], y[:n_valid])
    j = np.arange(n_valid)
    dist[np.abs(j[:, None] - j[None, :]) <= theiler] = np.inf
    nn = np.argmin(dist, axis=1)
    valid = np.isfinite(dist[j, nn])
    if not np.any(valid):
        return 0.0, True
    j = j[valid]
    jn = nn[valid]
    d0 = np.ldexp(np.linalg.norm(y[j] - y[jn], axis=1), exponent)
    d1 = np.ldexp(np.linalg.norm(y[j + delta] - y[jn + delta], axis=1), exponent)
    with np.errstate(over="ignore"):  # an overflowing ratio gives inf here; the kernel raises
        return float(np.mean(np.log((d1 + p.eps) / (d0 + p.eps)) / delta)), False


def pcm16(x):
    return np.round(np.clip(x, -1.0, 32767.0 / 32768.0) * 32768.0) / 32768.0


def assert_same_levels(levels, expected):
    assert list(levels) == list(expected)
    for w, (values, degenerate) in expected.items():
        assert np.array_equal(levels[w][0], values) and np.array_equal(levels[w][1], degenerate)


def assert_each_segment_alone(levels, x, p=EmbeddingParams()):
    """Each window's values and flags are those of its segments, each as the one segment of its own call."""
    for w, (values, degenerate) in levels.items():
        expected = [one_segment_lyapunov(seg, p) for seg in x[: x.size // w * w].reshape(-1, w)]
        assert values.tolist() == [v for v, _ in expected]
        assert degenerate.tolist() == [flag for _, flag in expected]


class TestLyapunovKernel:
    @given(
        kind=st.sampled_from(["random", "sine", "constant", "pcm16"]),
        seed=st.integers(0, 2**16),
        count=st.integers(1, 4),
        extra=st.integers(0, 60),
        d=st.integers(1, 4),
        tau=st.integers(1, 3),
        delta=st.one_of(st.none(), st.integers(1, 8)),
        theiler=st.one_of(st.none(), st.integers(0, 40)),
        scale=st.sampled_from([1.0, 1e-3, 37.0]),
        quiet_row=st.booleans(),
        tile=TILES,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_dense_reference(self, kind, seed, count, extra, d, tau, delta, theiler, scale, quiet_row, tile):
        p = EmbeddingParams(d=d, tau=tau, delta=delta, theiler=theiler)
        span = (d - 1) * tau
        length = span + (delta or 1) + 1 + extra
        assume(length >= span + p.resolved(length)[0] + 1)
        rng = np.random.default_rng(seed)
        if kind == "sine":
            period = rng.uniform(3.0, 40.0)
            x = np.sin(2 * np.pi * np.arange(count * length) / period + rng.uniform(0, 6))
        elif kind == "constant":
            x = np.full(count * length, rng.uniform(-1, 1))
        else:
            x = rng.uniform(-1, 1, count * length)
            if kind == "pcm16":
                x = pcm16(0.01 * x)  # few levels: many exact distance ties
        segments = scale * x.reshape(count, length)
        if quiet_row:
            # one row about 2**-600 below the others: below the shared-scale
            # floor, so each row runs on its own scale
            segments[rng.integers(count)] *= 2.0**-600
        expected = [reference_lyapunov(seg, p) for seg in segments]
        for cpus in SPLIT_CPUS:
            with record_split(cpus), mock.patch.object(nld, "_TILE", tile):
                values, degenerate = lyapunov_windows(segments.ravel(), [length], p)[length]
            assert values.tolist() == [v for v, _ in expected]
            assert degenerate.tolist() == [flag for _, flag in expected]
        # local_lyapunov's contract: each segment's one-segment entry
        for seg, (value, flag) in zip(segments, expected):
            est = local_lyapunov(seg, p)
            assert est.value == value and est.degenerate == flag

    @given(
        kind=st.sampled_from(["random", "sine", "constant", "pcm16", "quiet"]),
        seed=st.integers(0, 2**16),
        windows=st.one_of(
            st.builds(
                lambda base, levels: [base << k for k in range(levels)],
                st.sampled_from([3, 4, 6, 8, 12, 16]),
                st.integers(2, 5),
            ),
            st.lists(
                st.sampled_from([5, 8, 12, 16, 24, 32, 48, 64, 100, 128]),
                min_size=1,
                max_size=5,
                unique=True,
            ),
        ),
        extra=st.integers(0, 300),
        d=st.sampled_from([1, 2, 3, 4, 13]),  # 13 at (16, 32): n = 2 and 16
        tau=st.integers(1, 3),
        delta=st.one_of(st.none(), st.integers(1, 8)),
        theiler=st.one_of(st.none(), st.integers(0, 40)),
        amplitude=st.sampled_from([1.0, 1e200, 1e-200, 2.0**1020]),
        below_floor=st.booleans(),
        tile=TILES,
    )
    @settings(max_examples=150, deadline=None)
    # theiler 14 leaves no pair at w = 16 (n = 15): 32 is searched whole, and 64 built from it
    @example(kind="random", seed=1, windows=[16, 32, 64], extra=0, d=1, tau=1, delta=1, theiler=14,
             amplitude=1.0, below_floor=False, tile=nld._TILE)
    # theiler 10 at w = 16: rows 4 to 10 have no pair in their half, and each has one at 32
    @example(kind="random", seed=2, windows=[16, 32], extra=40, d=1, tau=1, delta=1, theiler=10,
             amplitude=1.0, below_floor=False, tile=nld._TILE)
    # one row per tile on PCM16 levels at d = 1: exact ties between rows of
    # different tiles, which the column minima merged across tiles keep at the lowest
    @example(kind="pcm16", seed=3, windows=[12, 24, 48], extra=0, d=1, tau=1, delta=None, theiler=None,
             amplitude=1.0, below_floor=False, tile=1)
    def test_windows_match_dense_reference(
        self, kind, seed, windows, extra, d, tau, delta, theiler, amplitude, below_floor, tile
    ):
        """Every window of one `lyapunov_windows` call, dyadic chains composed
        from their halves included, equals the dense per-segment reference."""
        p = EmbeddingParams(d=d, tau=tau, delta=delta, theiler=theiler)
        rng = np.random.default_rng(seed)
        size = max(windows) + extra
        if kind == "sine":
            x = np.sin(2 * np.pi * np.arange(size) / rng.uniform(3.0, 40.0) + rng.uniform(0, 6))
        elif kind == "constant":
            x = np.full(size, rng.uniform(-1, 1))
        else:
            x = rng.uniform(-1, 1, size)
            if kind == "pcm16":
                x = pcm16(0.01 * x)
            elif kind == "quiet":
                # all blocks but the first up to 440 binades down: a segment's
                # own scale and the clip's differ by up to hundreds of powers of two
                blocks = np.split(x, np.sort(rng.integers(0, size, 4)))
                binades = [0, *rng.integers(0, 441, len(blocks) - 1)]
                x = np.concatenate([np.ldexp(b, -j) for b, j in zip(blocks, binades)])
        x = amplitude * x
        if below_floor:
            # one sample below 2**-459 of the peak: the clip-wide search is not exact
            x[rng.integers(size)] = np.abs(x).max() * 2.0**-470
        wf = Waveform(x, 8000)
        span = (d - 1) * tau
        expected = {
            w: [reference_lyapunov(seg, p) for seg in frame(wf, w, w)]
            for w in windows
            if w >= span + p.resolved(w)[0] + 1
        }
        if not np.all(np.isfinite([v for values in expected.values() for v, _ in values])):
            # a distance ratio past the float range (at 2**1020, a PCM16 tie
            # d0 = 0 against a large d1) raises instead of giving an infinite rate
            with pytest.raises(InvalidArgumentError, match="divergence rates"):
                lyapunov_windows(x, windows, p)
            return
        for cpus in SPLIT_CPUS:
            with record_split(cpus), mock.patch.object(nld, "_TILE", tile):
                levels = lyapunov_windows(x, windows, p)
            assert list(levels) == sorted(windows)
            for w, (values, degenerate) in levels.items():
                if w not in expected:
                    assert values.size == degenerate.size == 0
                    continue
                assert values.tolist() == [v for v, _ in expected[w]]
                assert degenerate.tolist() == [flag for _, flag in expected[w]]

    def test_split_search_raises_a_worker_error(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        searched = []

        def search(lo, hi):
            if lo:
                raise RuntimeError(f"segments {lo} to {hi}")
            searched.append((lo, hi))

        # 2 CPUs: the calling thread searches [0, 2), a worker [2, 4) and fails
        with pytest.raises(RuntimeError, match="segments 2 to 4"):
            nld._over_segments(4, search)
        assert searched == [(0, 2)]

    def test_split_search_on_more_threads_than_cpus(self):
        # 7 threads (8 CPUs, 7 blocks) on this process's CPUs, switching every
        # microsecond: every range writes only its own segments, so the split
        # changes no bit
        x = synthetic_speech(duration=0.5, rate=16000, seed=5).samples
        with record_split(1):
            serial = lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with record_split(8) as calls:
                split = lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS)
        finally:
            sys.setswitchinterval(interval)
        assert len(calls[0][1]) == 7
        assert_same_levels(split, serial)

    @pytest.mark.parametrize("windows, block", [(DEFAULT_LYAPUNOV_WINDOWS, 1024), ((64, 100), 1600)])
    def test_clip_is_cut_at_multiples_of_every_window(self, speech, windows, block):
        x = speech(3.0).samples
        with record_split(3) as calls:
            levels = lyapunov_windows(x, windows)
        [(count, ranges)] = calls
        # whole blocks of `block` samples, a third of them per CPU
        assert count == x.size // block
        assert sorted(ranges) == [(0, count // 3), (count // 3, 2 * count // 3), (2 * count // 3, count)]
        # the last range runs to the clip's end: at 1024 the 640-sample tail
        # holds the last segments at w <= 512
        tail = lyapunov_windows(x[count * block :], windows)
        for w, (values, degenerate) in tail.items():
            assert np.array_equal(levels[w][0][count * block // w :], values)
            assert not degenerate.any()
        assert tail[64][0].size == (10 if block == 1024 else 0)

    def test_windows_with_a_common_block_past_the_clip_run_as_one_range(self, speech):
        x = speech(1.0).samples
        with record_split(3) as calls:
            levels = lyapunov_windows(x, (1021, 1031))
        assert calls == [(0, [(0, 0)])]  # lcm 1052651
        assert [values.size for values, _ in levels.values()] == [47, 46]
        assert np.all(levels[1021][0] != 0) and np.all(levels[1031][0] != 0)

    @pytest.mark.parametrize("cpus", SPLIT_CPUS)
    def test_clip_shorter_than_one_block_is_one_group(self, speech, cpus):
        # lcm(64, 1024) = 1024 > 700: no whole block, so one call chain(0, 0)
        # runs the whole clip, whose ten 64-sample segments are searched
        x = speech(1.0).samples[:700]
        with record_split(cpus) as calls:
            levels = lyapunov_windows(x, (64, 1024))
        assert calls == [(0, [(0, 0)])]
        assert [values.size for values, _ in levels.values()] == [10, 0]
        assert_each_segment_alone(levels, x)

    @pytest.mark.parametrize("cpus", SPLIT_CPUS)
    def test_tail_past_the_last_group(self, speech, cpus):
        # lcm 256: a group is 128 blocks. 129 blocks and a 200-sample tail:
        # the last group (one block at 1 CPU, 43 at 3) takes the tail, which
        # holds three segments at w = 64 and one at 128
        x = speech(1.0).samples[: nld._BLOCK + 256 + 200]
        with record_split(cpus) as calls:
            levels = lyapunov_windows(x, (64, 128, 256))
        assert [count for count, _ in calls] == [129]
        assert [values.size for values, _ in levels.values()] == [519, 259, 129]
        assert_each_segment_alone(levels, x)

    @staticmethod
    def scratch(x, windows):
        """The traced peak of one `lyapunov_windows` call beyond its outputs:
        numpy reports its allocations to tracemalloc."""
        nld._cdist()  # the kernel's module is loaded once per process, not scratch
        tracemalloc.start()
        try:
            levels = lyapunov_windows(x, windows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - sum(v.nbytes + d.nbytes for v, d in levels.values())

    def test_scratch_does_not_grow_with_the_clip(self, speech):
        # Beyond the outputs, the traced peak is one group's scratch per CPU at
        # any length: one search tile of at most `nld._TILE` doubles (1 MB)
        # plus about 2 MB of arrays over the group's 32 blocks. The growth is
        # read on 1 CPU, where no thread runs and the reading is fixed; on 2
        # CPUs the two ranges' peaks may or may not coincide, so only an upper
        # bound is checked there.
        group_scratch = 4e6
        with record_split(1):
            short, long = (self.scratch(speech(s).samples, DEFAULT_LYAPUNOV_WINDOWS) for s in (1.0, 4.0))
        assert long - short <= 1e6
        assert long <= group_scratch
        with record_split(2):
            assert self.scratch(speech(4.0).samples, DEFAULT_LYAPUNOV_WINDOWS) <= 2 * group_scratch

    def test_scratch_without_a_search(self, speech):
        # a window longer than the clip is not searched, so no range runs and
        # no scaled copy of the 12 s clip (4.6 MB) is made
        x = np.tile(speech(4.0).samples, 3)
        assert self.scratch(x, [x.size + 1]) <= 1e6

    def test_scratch_does_not_grow_with_the_window(self, speech):
        # one tile per CPU however long a row: a whole 4096-sample segment
        # (3582 x 3582 distance cells, 103 MB as one block) is searched
        # through the same tile as the default windows
        x = speech(1.0).samples
        with record_split(1):
            scratch = [
                self.scratch(x, windows)
                for windows in (DEFAULT_LYAPUNOV_WINDOWS, (64, 128, 256, 512, 1024, 2048, 4096), (4096,))
            ]
        assert max(scratch) - min(scratch) <= 1e6

    @pytest.mark.parametrize("window", [4801, 10**30])
    def test_window_longer_than_the_clip_is_not_searched(self, monkeypatch, speech, window):
        x = speech(0.1).samples  # 4800 samples
        searched, search = [], nld._nearest

        def nearest(pts, *args, **kwargs):
            searched.append(pts.shape[1])
            return search(pts, *args, **kwargs)

        monkeypatch.setattr(nld, "_nearest", nearest)
        levels = lyapunov_windows(x, [64, window])
        assert set(searched) == {62}  # w = 64 only: 62 embedded points
        empty = (np.empty(0), np.empty(0, dtype=bool))
        assert_same_levels(levels, {**lyapunov_windows(x, [64]), window: empty})
        assert levels[window][1].dtype == bool

    def test_clip_split_changes_no_bit(self, speech):
        x = speech(1.0).samples
        levels = {}
        for cpus in (1, 3):
            with record_split(cpus) as calls:
                levels[cpus] = lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS)
            assert len(calls[0][1]) == cpus
        assert_same_levels(levels[3], levels[1])

    def test_kernel_is_loaded_before_any_range_starts(self, monkeypatch, speech):
        # ranges that each found it missing would each execute scipy's extension
        nld._cdist.cache_clear()
        loaded = []

        def over_segments(count, part):
            loaded.append(nld._cdist.cache_info().currsize)
            SPLIT(count, part)

        monkeypatch.setattr(nld, "_over_segments", over_segments)
        lyapunov_windows(speech(1.0).samples, DEFAULT_LYAPUNOV_WINDOWS)
        assert loaded == [1]

    def test_error_in_a_later_range_reaches_the_caller(self, speech):
        # the first half 2**20 below a peak of about 1.7e308; in the second
        # some neighbor distances exceed the largest float
        wf = speech(1.0)
        x = wf.samples / np.abs(wf.samples).max() * 1.7e308
        x[: x.size // 2] *= 2.0**-20
        with record_split(2) as calls, pytest.raises(InvalidArgumentError, match="neighbor distances"):
            lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS)
        # 46 blocks: the first range, samples [0, 23552), returned; the second raised
        assert calls == [(46, [(0, 23)])]
        lyapunov_windows(x[:23552], DEFAULT_LYAPUNOV_WINDOWS)  # its samples alone raise nothing

    def test_degenerate_cases(self):
        p = EmbeddingParams(d=2, tau=1, delta=1, theiler=0)
        # n_valid = 1 < 2
        values, degenerate = lyapunov_windows(np.ones(6), [3], p)[3]
        assert degenerate.all() and np.all(values == 0.0)
        # theiler >= n_valid masks every pair
        p = EmbeddingParams(d=2, tau=1, delta=1, theiler=9)
        values, degenerate = lyapunov_windows(np.sin(np.arange(24.0)), [12], p)[12]
        assert degenerate.all() and np.all(values == 0.0)
        # no segments at all
        values, degenerate = lyapunov_windows(np.empty(0), [64], EmbeddingParams())[64]
        assert values.shape == degenerate.shape == (0,)

    def test_bad_shapes_raise(self):
        for x in (np.ones((3, 4)), np.ones((1, 64)), np.float64(1.0)):
            with pytest.raises(InvalidArgumentError, match="one-dimensional"):
                lyapunov_windows(x, [4])

    def test_overflowing_distance_raises(self, speech):
        # at a peak of about 1.7e308 some neighbor distances exceed the largest
        # float: no +inf exponent flagged valid, no channel silently degenerate
        wf = speech(0.5)
        loud = Waveform(wf.samples / np.abs(wf.samples).max() * 1.7e308, wf.rate)
        calls = [
            lambda: lyapunov_windows(loud.samples, [64]),
            lambda: lyapunov_windows(loud.samples, DEFAULT_LYAPUNOV_WINDOWS),
            lambda: mrld_features(loud),
        ]
        for call in calls:
            with pytest.raises(InvalidArgumentError, match="neighbor distances"):
                call()

    def test_overflowing_rate_raises(self):
        # an exact tie (d0 = 0) against d1 above about 1.8e300 overflows the
        # distance ratio though its log is near 700: no +inf exponent flagged valid
        q = pcm16(0.01 * np.random.default_rng(0).uniform(-1, 1, 4096))
        loud = np.ldexp(q, 1010)
        for d in (1, 2):
            with pytest.raises(InvalidArgumentError, match="divergence rates"):
                lyapunov_windows(loud, (64, 128, 256), EmbeddingParams(d=d))
        with pytest.raises(InvalidArgumentError, match="divergence rates"):
            lyapunov_windows(loud, [64], EmbeddingParams(d=1))

    @pytest.mark.parametrize("encoding", ["float32", "pcm16"])
    def test_mrld_matches_reference_on_speech(self, tmp_path, speech, encoding):
        # float32 speech has no distance ties, PCM16 speech many
        path = tmp_path / "speech.wav"
        save_wav(path, speech(0.5, seed=3), encoding=encoding)
        wf = load_wav(path)
        p = EmbeddingParams()
        stack = mrld_features(wf)
        for c, w in enumerate(DEFAULT_LYAPUNOV_WINDOWS):
            expected = np.array([reference_lyapunov(seg, p)[0] for seg in frame(wf, w, w)])
            assert np.array_equal(lyapunov_windows(wf.samples, [w], p)[w][0], expected)
            z = (expected - expected.mean()) / expected.std()
            assert np.array_equal(stack.data[c, 0, : expected.size], z)

    @pytest.mark.parametrize("missing", ["file", "function"])
    @pytest.mark.parametrize("encoding", ["float", "pcm16"])
    def test_cdist_fallback_matches_the_kernel(self, monkeypatch, speech, missing, encoding):
        """Where scipy's distance extension or its Euclidean kernel is missing,
        the search runs on `cdist`, with the same results."""
        x = speech(0.5, seed=3).samples
        if encoding == "pcm16":
            x = pcm16(x)
        assert nld._cdist() is sys.modules[nld._DISTANCE_EXTENSION].cdist_euclidean
        kernel = lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS)
        # _hausdorff: an extension in the same folder with no cdist_euclidean
        name = {"file": "scipy.spatial._no_such_extension", "function": "scipy.spatial._hausdorff"}
        monkeypatch.setattr(nld, "_DISTANCE_EXTENSION", name[missing])
        nld._cdist.cache_clear()
        try:
            assert nld._cdist() is cdist
            fallback = lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS)
        finally:
            nld._cdist.cache_clear()  # the next call loads the kernel again
        assert_same_levels(fallback, kernel)


def reference_dfa(x, n):
    """DFA-1 fluctuation with each box's line fitted by `np.linalg.lstsq`."""
    if np.ptp(x) == 0.0:
        return 0.0
    x, exponent = unit_peak(np.asarray(x, dtype=np.float64))
    profile = np.cumsum(x - x.mean())
    boxes = profile[: profile.size // n * n].reshape(-1, n)
    design = np.vstack([np.arange(n, dtype=np.float64), np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(design, boxes.T, rcond=None)
    return math.ldexp(float(np.sqrt(np.mean((boxes.T - design @ coef) ** 2))), exponent)


class TestDfa:
    def test_constant_input_zero(self):
        assert dfa_fluctuation(np.full(1000, 3.7), 100) == 0.0

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_two_sample_boxes_are_fitted_exactly(self, speech, seed):
        # the closed-form fit left 1e-15-sized rounding dust at n = 2
        wf = speech(3.0, seed=seed)
        assert dfa_fluctuation(wf.samples, 2) == 0.0
        stack = msdfa_features(wf, scales=(2, 100))
        assert [c["degenerate"] for c in stack.meta["channels"]] == [True, False]
        assert np.all(stack.data[0] == 0.0)

    def test_blockwise_linear_profile_zero(self):
        # +-1 blocks aligned to the box size leave a linear profile per box
        n = 100
        x = np.tile(np.concatenate([np.ones(n), -np.ones(n)]), 5)
        assert dfa_fluctuation(x, n) == pytest.approx(0.0, abs=1e-9)

    def test_offset_invariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4000)
        assert dfa_fluctuation(x + 5.0, 100) == pytest.approx(dfa_fluctuation(x, 100), rel=1e-9)

    def test_scaling_homogeneity(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(4000)
        f = dfa_fluctuation(x, 200)
        assert dfa_fluctuation(-3.0 * x, 200) == pytest.approx(3.0 * f, rel=1e-9)

    def test_white_noise_alpha_half(self):
        alphas = [
            dfa_exponent(np.random.default_rng(seed).standard_normal(16384), SCALES)
            for seed in range(20)
        ]
        assert abs(np.mean(alphas) - 0.5) < 0.05

    def test_brownian_alpha_three_halves(self):
        alphas = [
            dfa_exponent(np.cumsum(np.random.default_rng(seed).standard_normal(16384)), SCALES)
            for seed in range(20)
        ]
        assert abs(np.mean(alphas) - 1.5) < 0.1

    def test_exponent_scale_invariant(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(8192)
        assert dfa_exponent(7.0 * x, SCALES) == pytest.approx(dfa_exponent(x, SCALES), abs=1e-9)

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            dfa_fluctuation(np.ones(150), 100)

    @pytest.mark.parametrize("n", [1, 100.5, True, None, "100"])
    def test_bad_scale(self, n):
        with pytest.raises(InvalidArgumentError, match="DFA scale"):
            dfa_fluctuation(np.random.default_rng(0).standard_normal(1000), n)

    def test_integral_scale_accepted(self):
        x = np.random.default_rng(0).standard_normal(1000)
        assert dfa_fluctuation(x, 100.0) == dfa_fluctuation(x, np.int64(100)) == dfa_fluctuation(x, 100)

    def test_exponent_needs_two_scales(self):
        with pytest.raises(InvalidArgumentError):
            dfa_exponent(np.full(1000, 1.0), (100, 200))  # both F(n) == 0

    @given(seed=st.integers(0, 2**16), k=st.integers(-600, 600), rounded=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_power_of_two_scale_is_exact(self, seed, k, rounded):
        """F(2**k x) == 2**k F(x) at every DFA scale, and likewise SD1 and SD2,
        where the plain sums would overflow or underflow."""
        x = np.random.default_rng(seed).standard_normal(1500)
        if rounded:
            x = pcm16(0.1 * x)
        scaled = np.ldexp(x, k)
        for n in SCALES:
            assert dfa_fluctuation(scaled, n) == np.ldexp(dfa_fluctuation(x, n), k)
        d, ds = poincare_sd(x), poincare_sd(scaled)
        assert (ds.sd1, ds.sd2) == (np.ldexp(d.sd1, k), np.ldexp(d.sd2, k))
        assert ds.clamped == d.clamped

    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(2, 300),
        extra=st.integers(0, 299),
        rounded=st.booleans(),
        k=st.integers(-600, 600),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_least_squares_reference(self, seed, n, extra, rounded, k):
        """The closed-form line per box gives lstsq's fluctuation to about
        1e-15 relative; at n = 2 the fluctuation is exactly 0 and lstsq's
        rounding dust is inside the absolute bound."""
        x = np.random.default_rng(seed).standard_normal(2 * n + extra)
        if rounded:
            x = pcm16(0.1 * x)
        x = np.ldexp(x, k)
        expected = reference_dfa(x, n)
        assert dfa_fluctuation(x, n) == pytest.approx(expected, rel=1e-12, abs=1e-12 * np.abs(x).max())

    def test_overflowing_fluctuation_raises(self, speech):
        wf = speech(0.5)
        loud = Waveform(np.ldexp(wf.samples, 1023), wf.rate)
        calls = [
            lambda: dfa_fluctuation(loud.samples, 200),
            lambda: dfa_exponent(loud.samples, SCALES),
            lambda: msdfa_features(loud),
        ]
        for call in calls:
            with pytest.raises(InvalidArgumentError, match="DFA fluctuation overflows"):
                call()

    def test_exponent_ignores_scale_order(self):
        x = np.random.default_rng(3).standard_normal(8192)
        assert dfa_exponent(x, (300, 100, 200)) == dfa_exponent(x, (100, 200, 300))


class TestRecurrencePlot:
    def test_constant_sequence_recurs_everywhere(self):
        # every distance is exactly 0, the threshold too, and every pair recurs
        for x in (np.full(8, 2.0), np.zeros(8)):
            rp = recurrence_plot(x)
            assert rp.threshold == 0.0
            np.testing.assert_array_equal(rp.matrix, np.ones((8, 8), dtype=np.uint8))

    def test_two_points(self):
        # single off-diagonal distance 1.0 becomes the threshold; the strict
        # comparison leaves only the diagonal's zero distances
        rp = recurrence_plot(np.array([0.0, 1.0]))
        assert rp.threshold == 1.0
        np.testing.assert_array_equal(rp.matrix, np.eye(2, dtype=np.uint8))

    def test_period4_sine_band(self):
        x = np.sin(2 * np.pi * np.arange(64) / 4)
        rp = recurrence_plot(x, 64)
        assert np.all(np.diagonal(rp.matrix, 4) == 1)

    def test_symmetry_and_diagonal(self):
        for seed in range(10):
            x = np.random.default_rng(seed).standard_normal(50)
            rp = recurrence_plot(x)
            np.testing.assert_array_equal(rp.matrix, rp.matrix.T)
            assert np.all(np.diagonal(rp.matrix) == 1)

    def test_decimation(self):
        rp = recurrence_plot(np.random.default_rng(0).standard_normal(2000), max_size=256)
        assert rp.matrix.shape[0] <= 256

    @given(start=st.integers(0, 120000), k=st.sampled_from([-1000, 0, 1000, 1020]))
    @settings(max_examples=25, deadline=None)
    def test_power_of_two_scale_is_exact(self, speech, start, k):
        """The matrix of 2**k x equals that of x and its threshold is exactly
        2**k times x's, where the plain mean overflows at k = 1020; x is 0.5 s
        of one 3 s clip."""
        x = speech(3.0).samples[start : start + 24000]
        rp, scaled = recurrence_plot(x), recurrence_plot(np.ldexp(x, k))
        assert np.array_equal(scaled.matrix, rp.matrix)
        assert scaled.threshold == np.ldexp(rp.threshold, k)

    def test_overflowing_threshold_raises(self):
        with pytest.raises(InvalidArgumentError, match="recurrence threshold overflows"):
            recurrence_plot(np.tile([1.7e308, -1.7e308], 8))

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            recurrence_plot(np.array([1.0]))

    @pytest.mark.parametrize("max_size", [1, 0, -5, 100.5, True, None, "8", float("nan")])
    def test_bad_max_size(self, max_size):
        with pytest.raises(InvalidArgumentError, match="max_size"):
            recurrence_plot(np.random.default_rng(0).standard_normal(50), max_size)


class TestPoincare:
    def test_constant(self):
        d = poincare_sd(np.full(16, 0.3))
        assert d.sd1 == 0.0 and d.sd2 == 0.0

    def test_alternating_closed_form(self):
        x = np.tile([1.0, -1.0], 50)
        d = poincare_sd(x)
        assert d.sd1 == pytest.approx(np.sqrt(2.0))
        assert d.sd2 == pytest.approx(0.0, abs=1e-9)

    def test_white_noise_symmetric(self):
        x = np.random.default_rng(3).standard_normal(65536)
        d = poincare_sd(x)
        assert abs(d.sd1 - d.sd2) / d.sd2 < 0.05

    def test_variance_identity(self):
        for seed in range(50):
            x = np.random.default_rng(seed).standard_normal(200)
            d = poincare_sd(x)
            if not d.clamped:
                assert d.sd1**2 + d.sd2**2 == pytest.approx(2 * np.var(x), rel=1e-9)

    def test_overflowing_descriptor_raises(self):
        with pytest.raises(InvalidArgumentError, match="Poincare descriptor overflows"):
            poincare_sd(np.tile([1.7e308, -1.7e308], 8))

    def test_too_short(self):
        with pytest.raises(InvalidArgumentError):
            poincare_sd(np.array([1.0, 2.0]))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 150])
@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda x: dfa_fluctuation(x, 100), id="dfa_fluctuation"),
        pytest.param(lambda x: dfa_fluctuation(x, 2), id="dfa_fluctuation_at_2"),
        pytest.param(lambda x: dfa_exponent(x, SCALES), id="dfa_exponent"),
        pytest.param(poincare_sd, id="poincare_sd"),
        pytest.param(lambda x: recurrence_plot(x[:300]), id="recurrence_plot"),
        pytest.param(lambda x: lyapunov_windows(x, DEFAULT_LYAPUNOV_WINDOWS), id="lyapunov_windows"),
        pytest.param(lambda x: local_lyapunov(x[:1024]), id="local_lyapunov"),
    ],
)
def test_non_finite_input_raises(call, index, value):
    x = np.random.default_rng(0).standard_normal(4096)
    x[index] = value
    with record_split(2) as calls, pytest.raises(InvalidArgumentError, match="x has a non-finite entry"):
        call(x)
    assert calls == []  # raised before any range of a Lyapunov search started
