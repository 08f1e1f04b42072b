"""Import budget: each CLI subcommand loads only the bwetools modules it runs.
`netinfo`, `--help` and a usage error load `cli` and `errors` (plus
`netshape` for `netinfo`) and no numpy; `degrade` loads only `signal`;
`compare` loads `metrics`, `signal` and `spectral`; `features` loads `nld`
and `signal`, plus `featmaps` for the map extractors and `spectral` for
those that write grids, never `metrics` or `netshape`. Only `features mrld`
loads scipy, and of `scipy.spatial` only its distance extension, whose
Euclidean kernel MRLD calls: no command loads the `scipy.spatial` package
or its `distance` module. A later `cdist` import reuses that extension. The
STFT and every other extractor, on float32 and PCM16 input, load no scipy.
Importing the package and the CLI leaves `concurrent.futures`, which only
MRLD's split search needs, unloaded. Every name the benchmark's tracer
wraps exists. Each check runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bwetools
from bwetools import signal

SRC = str(Path(bwetools.__file__).resolve().parents[1])
SUBMODULES = ("cli", "demo", "featmaps", "metrics", "netshape", "nld", "signal", "spectral")
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def run_python(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def scipy_loaded_after(code):
    """The scipy modules in sys.modules after running `code` in a fresh interpreter."""
    probe = f"{code}\nimport sys\nprint('LOADED', *[m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


def test_package_and_cli_import_leave_concurrent_futures_unloaded():
    probe = "import sys, bwetools, bwetools.cli\nassert 'concurrent.futures' not in sys.modules"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr


def test_netinfo_and_stft_leave_scipy_signal_unloaded():
    loaded = scipy_loaded_after(
        "import numpy as np\n"
        "from bwetools import Waveform, cli, spectral\n"
        "assert cli.main(['netinfo', 'mrld']) == 0\n"
        "spectral.stft(Waveform(np.zeros(4096), 16000))"
    )
    assert loaded == []


@pytest.fixture(scope="module")
def wav_pair(tmp_path_factory, speech):
    """A float32 and a PCM16 WAV of one 0.5 s 16 kHz clip."""
    wf = speech(0.5, 16000, 3)
    paths = {enc: tmp_path_factory.mktemp("wav") / f"clip.{enc}.wav" for enc in ("float32", "pcm16")}
    for enc, path in paths.items():
        signal.save_wav(path, wf, enc)
    return paths


@pytest.mark.parametrize("extractor", ["poincare", "rp", "msdfa", "mrad_mrpd"])
@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_features_without_mrld_load_no_scipy(tmp_path, wav_pair, extractor, encoding):
    argv = ["features", str(wav_pair[encoding]), extractor, str(tmp_path)]
    assert scipy_loaded_after(f"from bwetools import cli\nassert cli.main({argv!r}) == 0") == []


MAPS = {"featmaps", "nld", "signal", "spectral"}
# id -> (argv, exit code, the bwetools modules loaded besides the package, cli
# and errors, numpy loaded, scipy loaded); no case loads scipy.spatial or
# scipy.spatial.distance
BUDGETS = {
    "netinfo-mrld": (["netinfo", "mrld"], 0, {"netshape"}, False, False),
    "netinfo-msdfa": (["netinfo", "msdfa"], 0, {"netshape"}, False, False),
    "netinfo-generator": (["netinfo", "generator"], 0, {"netshape"}, False, False),
    "help": (["--help"], 0, set(), False, False),
    "usage-error": (["netinfo", "nosuch"], 3, set(), False, False),
    "degrade": (["degrade", "{clip}", "8000", "{out}/o.wav"], 0, {"signal"}, True, False),
    "compare": (["compare", "{clip}", "{low}"], 0, {"metrics", "signal", "spectral"}, True, False),
    "features-mrld": (["features", "{clip}", "mrld", "{out}"], 0, MAPS, True, True),
    "features-msdfa": (["features", "{clip}", "msdfa", "{out}"], 0, MAPS, True, False),
    "features-mrad_mrpd": (["features", "{clip}", "mrad_mrpd", "{out}"], 0, MAPS, True, False),
    "features-rp": (["features", "{clip}", "rp", "{out}"], 0, {"nld", "signal", "spectral"}, True, False),
    "features-poincare": (["features", "{clip}", "poincare", "{out}"], 0, {"nld", "signal"}, True, False),
}


@pytest.fixture(scope="module")
def clip_and_low(tmp_path_factory, speech):
    """A 1 s 16 kHz float32 clip and its 8 kHz degradation."""
    wf = speech(1.0, 16000, 3)
    clip, low = (tmp_path_factory.mktemp("wav") / name for name in ("clip.wav", "low.wav"))
    signal.save_wav(clip, wf)
    signal.save_wav(low, signal.degrade(wf, 8000))
    return clip, low


@pytest.mark.parametrize("case", BUDGETS)
def test_cli_loads_only_what_the_command_runs(tmp_path, clip_and_low, case):
    template, code, modules, numpy, scipy = BUDGETS[case]
    clip, low = clip_and_low
    argv = [a.format(clip=clip, low=low, out=tmp_path) for a in template]
    probe = (
        "import json, sys\n"
        "from bwetools import cli\n"
        f"code = cli.main({argv!r})\n"
        "mods = sorted(m for m in sys.modules if m.split('.')[0] == 'bwetools')\n"
        "spatial = [m for m in ('scipy.spatial', 'scipy.spatial.distance') if m in sys.modules]\n"
        "print(json.dumps([code, mods, 'numpy' in sys.modules, 'scipy' in sys.modules, spatial]))"
    )
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    expected = sorted({"bwetools", "bwetools.cli", "bwetools.errors"} | {f"bwetools.{m}" for m in modules})
    assert json.loads(proc.stdout.splitlines()[-1]) == [code, expected, numpy, scipy, []]


def test_cdist_after_mrld_reuses_the_loaded_kernel():
    # MRLD loads scipy's distance extension alone; a later cdist import must
    # take that same module and agree with the kernel on strided views
    proc = run_python(
        "-c",
        "import sys\n"
        "import numpy as np\n"
        "from bwetools import demo, nld\n"
        "x = demo.synthetic_speech(duration=0.25, rate=16000, seed=1).samples\n"
        "nld.lyapunov_windows(x, (64, 128, 256))\n"
        "assert 'scipy.spatial' not in sys.modules\n"
        "extension = sys.modules['scipy.spatial._distance_pybind']\n"
        "kernel = nld._cdist()\n"
        "from scipy.spatial import distance\n"
        "from scipy.spatial.distance import cdist\n"
        "assert distance._distance_pybind is extension\n"
        "assert kernel is extension.cdist_euclidean\n"
        "for d, tau in ((3, 1), (13, 2)):\n"
        "    pts = nld.delay_embed(x, d, tau)\n"
        "    a, b = pts[::3], pts[1:500:2]\n"
        "    assert not a.flags.c_contiguous and not b.flags.c_contiguous\n"
        "    assert np.array_equal(kernel(a, b), cdist(a, b))\n"
        "    out = np.empty((a.shape[0], b.shape[0]))\n"
        "    kernel(a, b, out=out)\n"
        "    assert np.array_equal(out, cdist(a, b))",
    )
    assert proc.returncode == 0, proc.stderr


def test_module_run_writes_nothing_to_stderr(tmp_path):
    proc = run_python("-m", "bwetools.cli", "netinfo", "mrld", cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_submodules_resolve_on_attribute_access():
    proc = run_python(
        "-c",
        "import bwetools\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(bwetools, name).__name__ == 'bwetools.' + name, name\n"
        "assert not hasattr(bwetools, 'no_such_module')",
    )
    assert proc.returncode == 0, proc.stderr


def test_perfbench_tracer_finds_every_traced_function():
    # the tracer looks each function up by name, so a rename would otherwise
    # break only traced benchmark runs
    proc = run_python(
        "-c",
        "import importlib, sys\n"
        f"for name in {SUBMODULES!r}:\n"
        "    importlib.import_module('bwetools.' + name)\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "import tracing\n"
        "tracing.Tracer()",
    )
    assert proc.returncode == 0, proc.stderr
