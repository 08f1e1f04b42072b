"""Import budget: `import bwetools`, the CLI, `netinfo`, the STFT, `degrade`,
`compare` and every extractor but MRLD load no scipy module at all; MRLD
loads `scipy.spatial.distance` for `cdist`. Importing the package and the CLI
leaves `concurrent.futures`, which only MRLD's split search needs, unloaded.
Every name the benchmark's tracer wraps exists. Each check runs in a fresh
interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bwetools
from bwetools import demo, signal

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


def test_package_and_cli_import_load_no_heavy_scipy():
    assert scipy_loaded_after("import bwetools, bwetools.cli") == []


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
def wav_pair(tmp_path_factory):
    """A float32 and a PCM16 WAV of one 0.5 s 16 kHz clip."""
    wf = demo.synthetic_speech(duration=0.5, rate=16000, seed=3)
    paths = {enc: tmp_path_factory.mktemp("wav") / f"clip.{enc}.wav" for enc in ("float32", "pcm16")}
    for enc, path in paths.items():
        signal.save_wav(path, wf, enc)
    return paths


@pytest.mark.parametrize("extractor", ["poincare", "rp", "msdfa", "mrad_mrpd"])
@pytest.mark.parametrize("encoding", ["float32", "pcm16"])
def test_features_without_mrld_load_no_scipy(tmp_path, wav_pair, extractor, encoding):
    argv = ["features", str(wav_pair[encoding]), extractor, str(tmp_path)]
    assert scipy_loaded_after(f"from bwetools import cli\nassert cli.main({argv!r}) == 0") == []


def test_degrade_and_compare_load_no_scipy(tmp_path):
    clip = tmp_path / "clip.wav"
    signal.save_wav(clip, demo.synthetic_speech(duration=1.0, rate=16000, seed=3))
    runs = {
        "degrade": ["degrade", str(clip), "8000", str(tmp_path / "out.wav")],
        "compare": ["compare", str(clip), str(tmp_path / "out.wav")],
    }
    for command, argv in runs.items():
        loaded = scipy_loaded_after(f"from bwetools import cli\nassert cli.main({argv!r}) == 0")
        assert loaded == [], command


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
