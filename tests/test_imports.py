"""Import budget: `import bwetools` and the CLI load no heavy scipy
submodule until a call needs it. Each check runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import bwetools

SRC = str(Path(bwetools.__file__).resolve().parents[1])
HEAVY = ("scipy.signal", "scipy.spatial", "scipy.io")
SUBMODULES = ("cli", "demo", "featmaps", "metrics", "netshape", "nld", "signal", "spectral")


def run_python(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True, timeout=120
    )


def heavy_loaded_after(code):
    """The HEAVY modules in sys.modules after running `code` in a fresh interpreter."""
    probe = f"{code}\nimport sys\nprint('LOADED', *[m for m in {HEAVY!r} if m in sys.modules])"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split()[1:]


def test_package_and_cli_import_load_no_heavy_scipy():
    assert heavy_loaded_after("import bwetools, bwetools.cli") == []


def test_netinfo_and_stft_leave_scipy_signal_unloaded():
    loaded = heavy_loaded_after(
        "import numpy as np\n"
        "from bwetools import Waveform, cli, spectral\n"
        "assert cli.main(['netinfo', 'mrld']) == 0\n"
        "spectral.stft(Waveform(np.zeros(4096), 16000))"
    )
    assert "scipy.signal" not in loaded


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
