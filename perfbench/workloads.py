"""The three benchmark workloads.

Each workload builds its inputs from the workload seed with
`demo.synthetic_speech` (set-up work), runs one item at a time through the
public bwetools API, checks each output, and computes from the inputs alone
how much work an item asks for ("computed" counts: they repeat exactly).

A workload instance built at scale "canary" uses a fixed seed and 1 s clips;
its outputs are stored in reference.json and checked during warm-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from bwetools import cli, demo, featmaps, metrics, netshape, nld, signal, spectral

import checks

CANARY_SEED = 20250717
STOI_RATE = metrics.STOI_CONFIG["rate"]
CLI_TIMEOUT_S = 150
MSDFA_SIDE = 64  # msdfa_features' default tile side
CLI_LOW_RATE = 8000


@dataclass(frozen=True)
class Item:
    key: str  # identifies the input; equal keys must give equal outputs
    audio_s: float  # seconds of input audio the item processes
    payload: tuple


def clip_seed(seed: int, k: int) -> int:
    return int(np.random.SeedSequence([seed % 2**64, k]).generate_state(1)[0])


# ---------------------------------------------------------------------------
# computed work counts


def resample_taps(src: int, dst: int) -> int:
    """Filter length `signal.resample` designs for src -> dst Hz."""
    if src == dst:
        return 0
    cfg = signal.ResampleConfig()
    g = math.gcd(src, dst)
    up, down = dst // g, src // g
    cutoff = cfg.rolloff * min(1.0 / up, 1.0 / down)
    n_half = int(math.ceil(cfg.filter_half_width / cutoff))
    return 2 * n_half + 1 + (-n_half) % down


def resampled_len(n: int, src: int, dst: int) -> int:
    g = math.gcd(src, dst)
    return -(-n * (dst // g) // (src // g))


def stft_frames(n: int, n_fft: int, hop: int, center: bool = True) -> int:
    padded = n + 2 * (n_fft // 2) if center else n
    return 1 + (padded - n_fft) // hop


def evaluate_counts(n: int, rate: int) -> dict:
    """Work of `metrics.evaluate` on two aligned n-sample clips."""
    n10 = resampled_len(n, rate, STOI_RATE)
    c = metrics.STOI_CONFIG
    return {
        "taps": {f"{rate}->{STOI_RATE}": 2 * resample_taps(rate, STOI_RATE)},
        "stft_frames": 2 * stft_frames(n, metrics.LSD_CONFIG["n_fft"], metrics.LSD_CONFIG["hop"])
        + 2 * stft_frames(n10, c["n_fft"], c["hop"], center=False),
    }


def mrad_mrpd_shapes(n: int) -> list[tuple[int, int]]:
    """(bins, frames) of each grid pair `featmaps.mrad_mrpd_features` returns."""
    return [
        (res["freq_bins"], stft_frames(n, res["n_fft"], res["hop"]))
        for res in featmaps.resolution_params(featmaps.MultiResSpecConfig())
    ]


def lyapunov_work(n: int) -> dict:
    """Per window: segments and sum of n_valid**2 pairwise distances of
    `featmaps.mrld_features` on an n-sample clip."""
    p = nld.EmbeddingParams()
    out = {}
    for w in featmaps.DEFAULT_LYAPUNOV_WINDOWS:
        segments = n // w
        delta, _ = p.resolved(w)
        n_valid = w - (p.d - 1) * p.tau - delta
        out[w] = {"segments": segments, "pair_distances": segments * max(n_valid, 0) ** 2}
    return out


def conv_macs(net: netshape.NetDescriptor, in_shape: tuple) -> tuple[int, tuple]:
    """Multiply-accumulates of the conv layers and the final map shape for an
    input of shape (channels, *spatial)."""
    shape = tuple(in_shape)
    macs = 0
    for layer in net.conv_layers():
        pad = layer.kernel // 2
        spatial = tuple((s + 2 * pad - layer.kernel) // layer.stride + 1 for s in shape[1:])
        positions = math.prod(spatial)
        taps = layer.kernel**layer.dims
        if layer.kind == "standard":
            macs += layer.c_out * layer.c_in * taps * positions
        else:
            macs += layer.c_in * taps * positions + layer.c_out * layer.c_in * positions
        shape = (layer.c_out,) + spatial
    return macs, shape


def _merge(total: dict, part: dict) -> dict:
    for key, value in part.items():
        if isinstance(value, dict):
            _merge(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value
    return total


# ---------------------------------------------------------------------------
# workloads


class Workload:
    name = ""
    in_process = True

    def __init__(self, seed: int, scale: str, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self.cycle: list[Item] = []
        self._digest = hashlib.sha256()

    def _speech(self, k: int, duration: float, rate: int) -> signal.Waveform:
        wf = demo.synthetic_speech(duration, rate, clip_seed(self.seed, k))
        self._digest.update(struct.pack("<qd", wf.rate, wf.duration))
        self._digest.update(wf.samples.tobytes())
        return wf

    def input_digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def cycle_audio_s(self) -> float:
        return sum(item.audio_s for item in self.cycle)

    def run(self, item: Item) -> dict:
        raise NotImplementedError

    def warm(self, item: Item) -> dict:
        """The in-process call of an item, used for warm-up and tracing."""
        return self.run(item)

    def check(self, item: Item, result: dict, replay: bool = False) -> list[str]:
        """Invariant violations; `replay` marks a result of `warm`."""
        raise NotImplementedError

    def seed_independent(self, item: Item) -> bool:
        """True when the item's output is stored in reference.json under its key."""
        return False

    def counts(self, item: Item) -> dict:
        raise NotImplementedError

    def measured(self, item: Item, result: dict) -> dict:
        """Per-item figures read from the outputs rather than computed."""
        return {}

    def prepare(self, item: Item) -> None:
        """Untimed step before each item (e.g. clearing its output dir)."""


class CorpusScore(Workload):
    """degrade -> evaluate(clean, degraded) -> mrad_mrpd per clip."""

    name = "corpus_score"
    LOW_RATES = (8000, 11025, 16000)

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        short, long = {"full": (3.0, 30.0), "small": (1.0, 2.0), "canary": (1.0, 1.0)}[scale]
        specs = {"a48": (short, 48000), "b44": (short, 44100), "c44": (long, 44100)}
        self.clips = {key: self._speech(k, *spec) for k, (key, spec) in enumerate(specs.items())}
        self.cycle = [
            Item(f"{key}@{lr}", self.clips[key].duration, (key, lr))
            for lr in self.LOW_RATES
            for key in ("c44", "a48", "b44")
        ]

    def run(self, item):
        key, low_rate = item.payload
        clean = self.clips[key]
        degraded = signal.degrade(clean, low_rate)
        report = metrics.evaluate(clean, degraded)
        grids = featmaps.mrad_mrpd_features(clean)
        result = {
            "degraded": degraded.samples,
            "degraded_rate": degraded.rate,
            "lsd": report.lsd,
            "si_sdr": report.si_sdr,
            "si_snr": report.si_snr,
            "stoi": report.stoi,
        }
        for r, mp in enumerate(grids):
            result[f"mag{r}"] = mp.mag
            result[f"phase{r}"] = mp.phase
        return result

    def check(self, item, result, replay=False):
        clean = self.clips[item.payload[0]]
        bad = checks.all_finite(result)
        if result["degraded"].shape != clean.samples.shape:
            bad.append(f"degraded length {result['degraded'].size} != input {len(clean)}")
        if result["degraded_rate"] != clean.rate:
            bad.append(f"degraded rate {result['degraded_rate']} != {clean.rate}")
        if not 0.0 <= result["stoi"] <= 1.0:
            bad.append(f"stoi {result['stoi']} outside [0, 1]")
        if not result["lsd"] >= 0.0:
            bad.append(f"lsd {result['lsd']} negative")
        for r, shape in enumerate(mrad_mrpd_shapes(len(clean))):
            for tag in ("mag", "phase"):
                if result[f"{tag}{r}"].shape != shape:
                    bad.append(f"{tag}{r} shape {result[f'{tag}{r}'].shape} != {shape}")
        return bad

    def counts(self, item):
        key, low_rate = item.payload
        clean = self.clips[key]
        n, rate = len(clean), clean.rate
        ev = evaluate_counts(n, rate)
        return _merge(
            {
                "taps": {
                    f"{rate}->{low_rate}": resample_taps(rate, low_rate),
                    f"{low_rate}->{rate}": resample_taps(low_rate, rate),
                },
                "stft_frames": sum(t for _, t in mrad_mrpd_shapes(n)),
            },
            ev,
        )


class DiscriminatorFeatures(Workload):
    """mrld + msdfa stacks -> both CNNs, plus the generator on a 257x64 grid."""

    name = "discriminator_features"

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        duration = {"full": 3.0, "small": 1.0, "canary": 1.0}[scale]
        names = ("x",) if scale == "canary" else ("x", "y")
        self.clips = {}
        for k, name in enumerate(names):
            wf = self._speech(k, duration, 48000)
            path = workdir / f"{name}.pcm16.wav"
            signal.save_wav(path, wf, "pcm16")
            self.clips[name] = wf
            # PCM16 quantisation gives the Lyapunov neighbour search exact ties
            self.clips[f"{name}.pcm16"] = signal.load_wav(path)
        order = ("x", "x.pcm16") if scale == "canary" else ("x", "y.pcm16", "y", "x.pcm16")
        self.cycle = [Item(key, self.clips[key].duration, (key,)) for key in order]
        self.mrld_net = netshape.build_mrld_cnn()
        self.msdfa_net = netshape.build_msdfa_cnn()
        self.generator = netshape.GeneratorGraph()
        self.grid_cfg = spectral.StftConfig(n_fft=512, win_length=512, hop=256)

    def run(self, item):
        wf = self.clips[item.payload[0]]
        mrld = featmaps.mrld_features(wf)
        msdfa = featmaps.msdfa_features(wf)
        cnn_mrld = netshape.forward_cnn(self.mrld_net, mrld)
        cnn_msdfa = netshape.forward_cnn(self.msdfa_net, msdfa)
        mp = spectral.to_mag_phase(spectral.stft(wf, self.grid_cfg))
        g = self.generator
        grid = spectral.MagPhase(mp.mag[: g.freq_bins, : g.frames], mp.phase[: g.freq_bins, : g.frames], mp.config)
        out = netshape.generator_forward(g, grid)
        return {
            "mrld": mrld.data,
            "mrld_degenerate": sum(ch["degenerate"] for ch in mrld.meta["channels"]),
            "msdfa": msdfa.data,
            "cnn_mrld": cnn_mrld,
            "cnn_msdfa": cnn_msdfa,
            "gen_mag": out.mag,
            "gen_phase": out.phase,
        }

    def check(self, item, result, replay=False):
        g = self.generator
        mrld_shape, msdfa_shape = self.stack_shapes(item)
        expected = {
            "mrld": mrld_shape,
            "msdfa": msdfa_shape,
            "cnn_mrld": (math.prod(conv_macs(self.mrld_net, mrld_shape[::2])[1]),),
            "cnn_msdfa": (math.prod(conv_macs(self.msdfa_net, msdfa_shape)[1]),),
            "gen_mag": (g.freq_bins, g.frames),
            "gen_phase": (g.freq_bins, g.frames),
        }
        bad = checks.all_finite(result)
        for key, shape in expected.items():
            if result[key].shape != shape:
                bad.append(f"{key} shape {result[key].shape} != {shape}")
        if np.any(np.abs(result["gen_phase"]) > np.pi):
            bad.append("gen_phase outside [-pi, pi]")
        return bad

    def stack_shapes(self, item) -> tuple[tuple, tuple]:
        """Shapes of the mrld (C, 1, W) and msdfa (C, side, side) stacks."""
        n = len(self.clips[item.payload[0]])
        windows = featmaps.DEFAULT_LYAPUNOV_WINDOWS
        return (len(windows), 1, n // min(windows)), (len(featmaps.DEFAULT_DFA_SCALES), MSDFA_SIDE, MSDFA_SIDE)

    def counts(self, item):
        n = len(self.clips[item.payload[0]])
        mrld_shape, msdfa_shape = self.stack_shapes(item)
        return {
            "lyapunov": {f"w{w}": v for w, v in lyapunov_work(n).items()},
            "stft_frames": stft_frames(n, self.grid_cfg.n_fft, self.grid_cfg.hop),
            "conv_macs": {
                "mrld": conv_macs(self.mrld_net, mrld_shape[::2])[0],
                "msdfa": conv_macs(self.msdfa_net, msdfa_shape)[0],
            },
        }


# (key, argv template, input clip)
CLI_ITEMS = (
    ("netinfo.mrld", ("netinfo", "mrld"), None),
    ("features.mrad_mrpd", ("features", "{p}", "mrad_mrpd", "{out}"), "p"),
    ("degrade", ("degrade", "{q}", str(CLI_LOW_RATE), "{wav_out}"), "q"),
    ("netinfo.msdfa", ("netinfo", "msdfa"), None),
    ("compare", ("compare", "{p}", "{p_deg}"), "p"),
    ("features.poincare", ("features", "{q}", "poincare", "{out}"), "q"),
    ("netinfo.generator", ("netinfo", "generator"), None),
    ("features.rp", ("features", "{p}", "rp", "{out}"), "p"),
    ("features.msdfa", ("features", "{q}", "msdfa", "{out}"), "q"),
)


class CliBatch(Workload):
    """One `python -m bwetools.cli` subprocess per item, one at a time."""

    name = "cli_batch"
    in_process = False

    def __init__(self, seed, scale, workdir):
        super().__init__(seed, scale, workdir)
        duration = {"full": 3.0, "small": 1.0, "canary": 1.0}[scale]
        p = self._speech(0, duration, 48000)
        q = self._speech(1, duration, 48000)
        self.paths = {
            "p": workdir / "p.f32.wav",
            "q": workdir / "q.pcm16.wav",
            "p_deg": workdir / "p.deg16k.wav",
            "out": workdir / "out",
            "wav_out": workdir / "out.wav",
            "replay_out": workdir / "replay",
            "replay_wav_out": workdir / "replay.wav",
        }
        signal.save_wav(self.paths["p"], p, "float32")
        signal.save_wav(self.paths["q"], q, "pcm16")
        signal.save_wav(self.paths["p_deg"], signal.degrade(p, 16000), "float32")
        for name in ("p", "q", "p_deg"):
            self._digest.update(self.paths[name].read_bytes())
        self.clips = {"p": p, "q": q}
        self.cycle = [
            Item(key, 0.0 if clip is None else self.clips[clip].duration, (key, argv, clip))
            for key, argv, clip in CLI_ITEMS
        ]
        src = Path(sys.modules["bwetools"].__file__).resolve().parent.parent
        self.last_rss_mb = 0.0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        )

    def argv(self, item: Item, replay: bool = False) -> list[str]:
        paths = dict(self.paths)
        if replay:
            paths["out"], paths["wav_out"] = paths["replay_out"], paths["replay_wav_out"]
        return [a.format(**{k: str(v) for k, v in paths.items()}) for a in item.payload[1]]

    def prepare(self, item):
        for key in ("out", "replay_out"):
            shutil.rmtree(self.paths[key], ignore_errors=True)

    def run(self, item):
        cmd = [sys.executable, "-m", "bwetools.cli", *self.argv(item)]
        with open(self.workdir / "stderr.txt", "wb") as err:
            proc = subprocess.Popen(
                cmd, stdout=subprocess.PIPE, stderr=err, cwd=self.workdir, env=self.env
            )
            killer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                stdout = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.last_rss_mb = usage.ru_maxrss / 1024.0
        return {"returncode": proc.returncode, "stdout": stdout}

    def warm(self, item):
        """`cli.main` in this process on the same arguments."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(self.argv(item, replay=True))
        return {"returncode": code, "stdout": buf.getvalue().encode()}

    def seed_independent(self, item):
        return item.payload[2] is None

    def check(self, item, result, replay=False):
        key = item.payload[0]
        bad = []
        if result["returncode"] != 0:
            err = "" if replay else (self.workdir / "stderr.txt").read_text(errors="replace")[-300:]
            return [f"exit code {result['returncode']}: {err.strip()}"]
        out_dir = self.paths["replay_out" if replay else "out"]
        if key == "degrade":
            if result["stdout"]:
                bad.append("degrade wrote to stdout")
            rate, data = wavfile.read(self.paths["replay_wav_out" if replay else "wav_out"])
            n = len(self.clips[item.payload[2]])
            if rate != 48000 or data.shape != (n,):
                bad.append(f"degraded wav {rate} Hz x {data.shape} != 48000 Hz x ({n},)")
            elif not np.all(np.isfinite(data)):
                bad.append("degraded wav has non-finite samples")
            return bad
        try:
            doc = json.loads(result["stdout"])
        except ValueError as exc:
            return [f"stdout is not JSON: {exc}"]
        if key == "compare":
            for name in ("lsd", "si_sdr", "si_snr", "stoi"):
                if not math.isfinite(doc[name]):
                    bad.append(f"{name} not finite: {doc[name]}")
            if not 0.0 <= doc["stoi"] <= 1.0:
                bad.append(f"stoi {doc['stoi']} outside [0, 1]")
        elif key.startswith("features."):
            bad += self._check_files(item, doc, out_dir)
        return bad

    def _check_files(self, item, doc, out_dir: Path) -> list[str]:
        extractor = doc["extractor"]
        bad = []
        if not (out_dir / f"{extractor}_meta.json").is_file():
            bad.append("meta sidecar missing")
        n = len(self.clips[item.payload[2]])
        if extractor == "poincare":
            if not (doc["sd1"] >= 0 and doc["sd2"] >= 0):
                bad.append(f"poincare sd1/sd2 negative: {doc['sd1']}, {doc['sd2']}")
            return bad
        if extractor == "rp":
            expected = [[doc["shape"][0], doc["shape"][1]]]
            with_f32 = False
        elif extractor == "mrad_mrpd":
            expected = [list(s) for s in mrad_mrpd_shapes(n) for _ in ("mag", "phase")]
            with_f32 = True
        else:
            c, h, w = doc["shape"]
            expected = [[h, w]] * c
            with_f32 = True
        if len(doc["files"]) != len(expected):
            return bad + [f"{len(doc['files'])} files listed, expected {len(expected)}"]
        for name, shape in zip(doc["files"], expected):
            csv = out_dir / name
            if not csv.is_file():
                bad.append(f"{name} missing")
            if not with_f32:
                continue
            f32 = csv.with_suffix(".f32")
            with open(f32, "rb") as fh:
                header = list(struct.unpack("<II", fh.read(8)))
            if header != shape:
                bad.append(f"{f32.name} header {header} != grid shape {shape}")
            if f32.stat().st_size != 8 + 4 * shape[0] * shape[1]:
                bad.append(f"{f32.name} size {f32.stat().st_size} != header")
        return bad

    def measured(self, item, result):
        out_dir = self.paths["out"]
        written = sum(f.stat().st_size for f in out_dir.glob("*") if f.suffix in (".csv", ".f32"))
        return {"bytes_written": written, "stdout_bytes": len(result["stdout"])}

    def counts(self, item):
        key, _, clip = item.payload
        if clip is None:
            return {}
        n, rate = len(self.clips[clip]), 48000
        if key == "degrade":
            low = CLI_LOW_RATE
            return {"taps": {f"{rate}->{low}": resample_taps(rate, low), f"{low}->{rate}": resample_taps(low, rate)}}
        if key == "compare":
            return evaluate_counts(n, rate)
        if key == "features.mrad_mrpd":
            shapes = [s for s in mrad_mrpd_shapes(n) for _ in ("mag", "phase")]
            return {
                "stft_frames": sum(t for _, t in mrad_mrpd_shapes(n)),
                "f32_bytes": sum(8 + 4 * f * t for f, t in shapes),
            }
        if key == "features.msdfa":
            return {"f32_bytes": len(featmaps.DEFAULT_DFA_SCALES) * (8 + 4 * MSDFA_SIDE**2)}
        return {}


WORKLOADS = {w.name: w for w in (CorpusScore, DiscriminatorFeatures, CliBatch)}


def cycle_counts(workload: Workload) -> dict:
    """Computed work summed over one pass of the item cycle."""
    total = {}
    for item in workload.cycle:
        _merge(total, workload.counts(item))
    return total
