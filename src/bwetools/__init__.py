"""Bandwidth-extension analysis toolkit: degradation simulation, spectral
transforms, nonlinear-dynamics feature extractors, objective speech metrics,
and network shape verification.

Submodules load on first attribute access (`bwetools.nld`, ...), so
`import bwetools` costs only numpy. WAV I/O and resampling are numpy; scipy
is loaded only by the Lyapunov neighbor search (MRLD), for `cdist`.
"""

import importlib

from .errors import InvalidArgumentError, UnreadableFileError, UnsupportedEncodingError
from .signal import Waveform

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
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
