"""Bandwidth-extension analysis toolkit: degradation simulation, spectral
transforms, nonlinear-dynamics feature extractors, objective speech metrics,
and network shape verification.

Submodules and `Waveform` load on first attribute access (`bwetools.nld`,
...), so `import bwetools` loads no third-party module, and each CLI
subcommand loads only the modules it runs: `netinfo` just `netshape`, with
no numpy; `degrade` just `signal`; `compare` `metrics`, `signal` and
`spectral`; `features` `nld` and `signal`, plus `featmaps` for the map
extractors and `spectral` for those that write grids.
WAV I/O and resampling are numpy; scipy is loaded only by the Lyapunov
neighbor search (MRLD), which loads `scipy.spatial`'s distance extension
alone for its Euclidean kernel.
"""

import importlib

from .errors import InvalidArgumentError, UnreadableFileError, UnsupportedEncodingError

__version__ = "0.1.0"

_SUBMODULES = ("cli", "demo", "featmaps", "metrics", "netshape", "nld", "signal", "spectral")

__all__ = [
    *_SUBMODULES,
    "Waveform",
    "InvalidArgumentError",
    "UnreadableFileError",
    "UnsupportedEncodingError",
]


def __getattr__(name):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name == "Waveform":
        return __getattr__("signal").Waveform
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
