"""End-to-end acceptance suite.

Each test covers one release criterion and prints a single pass/fail line
so the suite doubles as a checklist (run with pytest -s or read the
captured output).
"""

import time

import numpy as np
import pytest

from bwetools.demo import synthetic_speech
from bwetools.featmaps import (
    DEFAULT_LYAPUNOV_WINDOWS,
    mrld_features,
    msdfa_features,
)
from bwetools.metrics import SI_CAP_DB, lsd, si_sdr, stoi
from bwetools.netshape import (
    ConvSpec,
    GeneratorGraph,
    LatticeScalars,
    MPD_REFERENCE_PARAMS,
    build_mrld_cnn,
    build_msdfa_cnn,
    conv_params,
    generator_forward,
    param_count,
)
from bwetools.nld import (
    EmbeddingParams,
    dfa_exponent,
    dfa_fluctuation,
    lyapunov_windows,
    poincare_sd,
    recurrence_plot,
)
from bwetools.signal import Waveform, degrade
from bwetools.spectral import (
    EPS_MAG,
    MagPhase,
    StftConfig,
    istft,
    phase_from_ri,
    stft,
    synthesize,
    to_mag_phase,
)
from conftest import logistic_orbit, one_segment_lyapunov

DFA_SCALES = (100, 200, 300, 500, 600)


def report(number, label, checks):
    """Run named sub-checks, print one line for the criterion, fail loudly."""
    failures = []
    for name, ok in checks:
        if not ok:
            failures.append(name)
    status = "PASS" if not failures else "FAIL"
    print(f"[acceptance {number}] {label}: {status}"
          + (f" ({', '.join(failures)})" if failures else ""))
    assert not failures, f"criterion {number} failed: {failures}"


def test_criterion_1_lyapunov_oracles():
    start = time.perf_counter()
    logistic, _ = one_segment_lyapunov(
        logistic_orbit(4096), EmbeddingParams(d=1, tau=1, delta=1, theiler=1)
    )
    sine, _ = one_segment_lyapunov(
        np.sin(2 * np.pi * np.arange(2048) / 64), EmbeddingParams(d=3, tau=1)
    )
    constant, _ = one_segment_lyapunov(np.ones(256), EmbeddingParams(d=2, tau=1, delta=1))
    elapsed = time.perf_counter() - start
    report(1, "lyapunov oracles", [
        ("logistic within 10% of ln 2", abs(logistic - np.log(2)) < 0.1 * np.log(2)),
        ("sine |lambda| < 0.05", abs(sine) < 0.05),
        ("constant exactly zero", constant == 0.0),
        ("runtime < 5 s", elapsed < 5.0),
    ])


def test_criterion_2_dfa_oracles():
    start = time.perf_counter()
    white = np.mean([
        dfa_exponent(np.random.default_rng(s).standard_normal(16384), DFA_SCALES)
        for s in range(20)
    ])
    brown = np.mean([
        dfa_exponent(np.cumsum(np.random.default_rng(s).standard_normal(16384)), DFA_SCALES)
        for s in range(20)
    ])
    constant_f = dfa_fluctuation(np.full(2000, 1.3), [100])[0]
    # block signal whose cumulative profile is linear inside every box
    blocks = np.tile(np.concatenate([np.ones(100), -np.ones(100)]), 5)
    linear_f = dfa_fluctuation(blocks, [100])[0]
    elapsed = time.perf_counter() - start
    report(2, "dfa oracles", [
        ("white alpha 0.50 +- 0.05", abs(white - 0.5) < 0.05),
        ("brownian alpha 1.5 +- 0.1", abs(brown - 1.5) < 0.1),
        ("constant F == 0", constant_f == 0.0),
        ("linear profile F ~ 0", abs(linear_f) < 1e-9),
        ("runtime < 10 s", elapsed < 10.0),
    ])


def test_criterion_3_spectral_round_trip():
    cfg = StftConfig(n_fft=1024, win_length=1024, hop=256)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4096, 16384))
        x = rng.standard_normal(n)
        wf = Waveform(x, 48000)
        back = istft(stft(wf, cfg), rate=wf.rate)
        lo, hi = cfg.win_length, n - cfg.win_length
        err = np.sqrt(np.mean((back.samples[lo:hi] - x[lo:hi]) ** 2))
        scale = np.sqrt(np.mean(x[lo:hi] ** 2))
        worst = max(worst, err / scale)

    spec = stft(Waveform(rng.standard_normal(8192), 48000), cfg)
    resynth = synthesize(to_mag_phase(spec))
    magphase_ok = np.all(
        np.abs(resynth.data - spec.data) <= np.abs(spec.data) * 1e-6 + EPS_MAG
    )

    r = rng.standard_normal(1_000_000)
    i = rng.standard_normal(1_000_000)
    r[0] = i[0] = 0.0
    r[1], i[1] = -1.0, 0.0
    phase = phase_from_ri(r, i)
    report(3, "spectral round trip", [
        ("istft(stft) interior rel RMS < 1e-6", worst < 1e-6),
        ("synthesize after to_mag_phase within eps floor", magphase_ok),
        ("phase range (-pi, pi] on 1e6 pairs",
         bool(np.all(phase > -np.pi) and np.all(phase <= np.pi))),
    ])


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(11)
    ref = Waveform(rng.standard_normal(16000), 16000)
    err = rng.standard_normal(16000)
    r = ref.samples
    err -= (err @ r) / (r @ r) * r
    err *= np.sqrt(0.01 * (r @ r) / (err @ err))
    est = Waveform(r + err, 16000)
    scaled = Waveform(3.0 * est.samples, 16000)
    clip = synthetic_speech(duration=3.0, seed=0)
    report(4, "metric identities", [
        ("si_sdr scale invariance exact", si_sdr(ref, scaled) == si_sdr(ref, est)),
        ("orthogonal noise -> 20 dB within 1e-6", abs(si_sdr(ref, est) - 20.0) < 1e-6),
        ("lsd(ref, 10 ref) == 20 dB within 1e-9",
         abs(lsd(ref, Waveform(10.0 * r, 16000)) - 20.0) < 1e-9),
        ("stoi(ref, ref) >= 0.999", stoi(clip, clip) >= 0.999),
        ("si cap respected", si_sdr(ref, ref) == SI_CAP_DB),
    ])


def test_criterion_5_directional_degradation(speech_clip):
    lsds = [lsd(speech_clip, degrade(speech_clip, 2 * c)) for c in (4000, 8000, 16000)]
    stois = [stoi(speech_clip, degrade(speech_clip, 2 * c)) for c in (4000, 8000, 16000)]
    report(5, "directional degradation ordering", [
        ("LSD strictly decreasing with bandwidth", lsds[0] > lsds[1] > lsds[2]),
        ("STOI strictly increasing with bandwidth", stois[0] < stois[1] < stois[2]),
    ])


def test_criterion_6_parameter_accounting():
    mrld = param_count(build_mrld_cnn())
    msdfa = param_count(build_msdfa_cnn())
    dsc = conv_params(ConvSpec("depthwise_separable", 2, 5, 128, 128, bias=False))
    std = conv_params(ConvSpec("standard", 2, 5, 128, 128, bias=False))
    report(6, "parameter accounting", [
        ("mrld within 15% of 235500", abs(mrld - 235_500) <= 0.15 * 235_500),
        ("msdfa within 15% of 247700", abs(msdfa - 247_700) <= 0.15 * 247_700),
        ("combined >= 30x smaller than reference",
         MPD_REFERENCE_PARAMS / (mrld + msdfa) >= 30),
        ("dsc/standard ratio >= 20", std / dsc >= 20),
    ])


def test_criterion_7_generator_invariants():
    decoupled = GeneratorGraph(scalars=LatticeScalars(0.0, 0.0, 0.0, 0.0))
    rng = np.random.default_rng(3)
    mag = rng.standard_normal((decoupled.freq_bins, decoupled.frames))
    phase = rng.uniform(-np.pi, np.pi, mag.shape)
    mp = MagPhase(mag, phase, StftConfig())
    shifted = MagPhase(mag, phase + 0.3, StftConfig())
    start = time.perf_counter()
    out_a = generator_forward(decoupled, mp, seed=1)
    elapsed = time.perf_counter() - start
    out_b = generator_forward(decoupled, shifted, seed=1)

    g = GeneratorGraph()
    passthrough = generator_forward(g, mp, zero_weights=True)
    report(7, "generator invariants", [
        ("zero scalars decouple the streams", np.array_equal(out_a.mag, out_b.mag)),
        ("zero weights pass magnitude through", np.array_equal(passthrough.mag, mag)),
        ("zero weights give zero phase", bool(np.all(passthrough.phase == 0))),
        ("F=257 T=64 forward < 1 s", elapsed < 1.0),
    ])


def test_criterion_8_feature_map_contracts(speech_clip):
    mrld = mrld_features(speech_clip)
    zscore_ok = True
    for c, meta in enumerate(mrld.meta["channels"]):
        if meta["degenerate"]:
            continue
        values = mrld.data[c, 0, : meta["count"]]
        if abs(values.mean()) >= 1e-9 or abs(values.var() - 1.0) >= 1e-6:
            zscore_ok = False

    msdfa = msdfa_features(speech_clip)
    constant_ok = all(
        msdfa.data[c].max() == msdfa.data[c].min() for c in range(msdfa.channels)
    )

    n = 5120
    chaotic = Waveform(logistic_orbit(n) * 2 - 1, 48000)
    noisy = Waveform(np.random.default_rng(8).uniform(-1, 1, n), 48000)
    separated = True
    chaotic_levels = lyapunov_windows(chaotic.samples, DEFAULT_LYAPUNOV_WINDOWS)
    noisy_levels = lyapunov_windows(noisy.samples, DEFAULT_LYAPUNOV_WINDOWS)
    for w in DEFAULT_LYAPUNOV_WINDOWS:
        a, b = chaotic_levels[w], noisy_levels[w]
        pooled = np.sqrt((a.std() ** 2 + b.std() ** 2) / 2)
        if abs(a.mean() - b.mean()) <= 3 * pooled:
            separated = False
    report(8, "feature map contracts", [
        ("mrld has 5 z-scored channels", mrld.channels == 5 and zscore_ok),
        ("msdfa constant per channel, shape 5xSxS",
         msdfa.data.shape == (5, 64, 64) and constant_ok),
        ("chaos vs noise separated by > 3 pooled sd", separated),
    ])


def test_criterion_9_poincare_and_recurrence():
    identity_ok = True
    for seed in range(1000):
        x = np.random.default_rng(seed).standard_normal(120)
        d = poincare_sd(x)
        if d.clamped:
            continue
        target = 2.0 * np.var(x)
        if abs(d.sd1**2 + d.sd2**2 - target) > 1e-9 * target:
            identity_ok = False
    symmetric_ok = True
    for seed in range(100):
        rp = recurrence_plot(np.random.default_rng(seed).standard_normal(64))
        if not np.array_equal(rp.matrix, rp.matrix.T) or not np.all(np.diagonal(rp.matrix) == 1):
            symmetric_ok = False
    report(9, "poincare and recurrence", [
        ("sd1^2 + sd2^2 == 2 Var(x) within 1e-9 (1000 sequences)", identity_ok),
        ("recurrence symmetric with unit diagonal (100 sequences)", symmetric_ok),
    ])
