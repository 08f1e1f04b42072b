"""The one integer-setting rule: every size in the library is an integral
number that is not a bool and is at least its stated minimum, stored as an
int; anything else raises InvalidArgumentError naming the setting."""

import dataclasses
import importlib
import re
import typing

import numpy as np
import pytest

import bwetools
from bwetools.errors import InvalidArgumentError, _finite, _size
from bwetools.featmaps import MultiResSpecConfig, msdfa_features
from bwetools.netshape import BatchNormSpec, ConvSpec, GeneratorGraph, build_mrld_cnn, init_weights
from bwetools.nld import EmbeddingParams, delay_embed, dfa_fluctuation, recurrence_plot
from bwetools.signal import ResampleConfig, Waveform, degrade, frame, resample
from bwetools.spectral import ComplexSpectrogram, MagPhase, StftConfig

X = np.random.default_rng(0).uniform(-1, 1, 1200)
WF = Waveform(X, 16000)
STFT = StftConfig()

# setting -> (name in the error message, a valid int, the call with the setting set to v)
SETTINGS = {
    "Waveform.rate": ("rate", 8000, lambda v: Waveform(X, v)),
    "ResampleConfig.filter_half_width": ("filter_half_width", 16, lambda v: ResampleConfig(v)),
    "StftConfig.n_fft": ("n_fft", 2048, lambda v: StftConfig(n_fft=v)),
    "StftConfig.win_length": ("win_length", 512, lambda v: StftConfig(win_length=v, hop=128)),
    "StftConfig.hop": ("hop", 512, lambda v: StftConfig(hop=v)),
    "ComplexSpectrogram.n_samples": (
        "n_samples", 7, lambda v: ComplexSpectrogram(np.zeros((STFT.n_bins, 2)), STFT, v)
    ),
    "MagPhase.n_samples": ("n_samples", 7, lambda v: MagPhase(np.zeros((3, 2)), np.zeros((3, 2)), STFT, v)),
    "EmbeddingParams.d": ("d", 4, lambda v: EmbeddingParams(d=v)),
    "EmbeddingParams.tau": ("tau", 2, lambda v: EmbeddingParams(tau=v)),
    "EmbeddingParams.delta": ("delta", 5, lambda v: EmbeddingParams(delta=v)),
    "EmbeddingParams.theiler": ("theiler", 0, lambda v: EmbeddingParams(theiler=v)),
    "ConvSpec.dims": ("dims", 2, lambda v: ConvSpec("standard", v, 3, 2, 4)),
    "ConvSpec.kernel": ("kernel", 5, lambda v: ConvSpec("standard", 1, v, 2, 4)),
    "ConvSpec.c_in": ("c_in", 3, lambda v: ConvSpec("standard", 1, 3, v, 4)),
    "ConvSpec.c_out": ("c_out", 6, lambda v: ConvSpec("standard", 1, 3, 2, v)),
    "ConvSpec.stride": ("stride", 2, lambda v: ConvSpec("standard", 1, 3, 2, 4, stride=v)),
    "BatchNormSpec.channels": ("channels", 4, lambda v: BatchNormSpec(v)),
    "GeneratorGraph.freq_bins": ("freq_bins", 129, lambda v: GeneratorGraph(freq_bins=v)),
    "GeneratorGraph.frames": ("frames", 32, lambda v: GeneratorGraph(frames=v)),
    "GeneratorGraph.hidden": ("hidden", 32, lambda v: GeneratorGraph(hidden=v)),
    "GeneratorGraph.heads": ("heads", 4, lambda v: GeneratorGraph(heads=v)),
    "GeneratorGraph.mlp_ratio": ("mlp_ratio", 2, lambda v: GeneratorGraph(mlp_ratio=v)),
    "GeneratorGraph.conv_kernel": ("conv_kernel", 5, lambda v: GeneratorGraph(conv_kernel=v)),
    "MultiResSpecConfig.freq_bins": ("freq_bins", 64, lambda v: MultiResSpecConfig((v,), (32,), (128,))),
    "MultiResSpecConfig.hops": ("hops", 32, lambda v: MultiResSpecConfig((64,), (v,), (128,))),
    "MultiResSpecConfig.win_lengths": ("win_lengths", 128, lambda v: MultiResSpecConfig((64,), (32,), (v,))),
    "frame.size": ("size", 100, lambda v: frame(WF, v, 50)),
    "frame.hop": ("hop", 30, lambda v: frame(WF, 100, v)),
    "delay_embed.d": ("d", 3, lambda v: delay_embed(X, v, 2)),
    "delay_embed.tau": ("tau", 2, lambda v: delay_embed(X, 3, v)),
    "resample.target_rate": ("target_rate", 8000, lambda v: resample(WF, v)),
    "degrade.low_rate": ("low_rate", 8000, lambda v: degrade(WF, v)),
    "init_weights.seed": ("seed", 3, lambda v: init_weights(build_mrld_cnn(), seed=v)),
    "dfa_fluctuation.n": ("DFA scale", 100, lambda v: dfa_fluctuation(X, v)),
    "recurrence_plot.max_size": ("max_size", 64, lambda v: recurrence_plot(X, v)),
    "msdfa_features.side": ("tile side", 8, lambda v: msdfa_features(WF, (100, 200), side=v)),
}


def canonical(value):
    """value with the type of every number kept, so 3 and 3.0 differ."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, [canonical(getattr(value, f.name)) for f in dataclasses.fields(value)]
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, dict):
        return {k: canonical(v) for k, v in value.items()}
    return type(value).__name__, repr(value)


@pytest.mark.parametrize("setting", SETTINGS)
@pytest.mark.parametrize("bad", [2.5, True])
def test_non_integer_rejected_by_name(setting, bad):
    name, _, call = SETTINGS[setting]
    with pytest.raises(InvalidArgumentError, match=re.escape(name)):
        call(bad)


@pytest.mark.parametrize("setting", SETTINGS)
def test_integral_spellings_equal_the_int(setting):
    _, k, call = SETTINGS[setting]
    expected = canonical(call(k))
    assert canonical(call(float(k))) == expected
    assert canonical(call(np.int64(k))) == expected


def _int_fields():
    """(class, field) of every int or int | None field of the public frozen
    dataclasses of every bwetools submodule."""
    found = []
    for module_name in bwetools._SUBMODULES:
        module = importlib.import_module(f"bwetools.{module_name}")
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if not (isinstance(cls, type) and dataclasses.is_dataclass(cls)):
                continue
            assert cls.__dataclass_params__.frozen, f"{name} is not frozen"
            hints = typing.get_type_hints(cls)
            found += [(cls, f) for f in dataclasses.fields(cls) if hints[f.name] in (int, int | None)]
    return found


# constructor arguments of the dataclasses whose fields lack defaults
REQUIRED = {
    Waveform: {"samples": np.zeros(8), "rate": 8000},
    ComplexSpectrogram: {"data": np.zeros((STFT.n_bins, 2)), "config": STFT},
    MagPhase: {"mag": np.zeros((3, 2)), "phase": np.zeros((3, 2))},
    ConvSpec: {"kind": "standard", "dims": 1, "kernel": 3, "c_in": 2, "c_out": 2},
    BatchNormSpec: {"channels": 4},
}


@pytest.mark.parametrize(
    "cls, field", _int_fields(), ids=lambda v: getattr(v, "__name__", getattr(v, "name", None))
)
def test_every_int_field_is_checked(cls, field):
    kwargs = dict(REQUIRED.get(cls, {}))
    default = field.default if field.default is not dataclasses.MISSING else kwargs[field.name]
    base = 1 if default is None else default
    with pytest.raises(InvalidArgumentError, match=re.escape(field.name)):
        cls(**{**kwargs, field.name: 2.5})
    stored = getattr(cls(**{**kwargs, field.name: float(base)}), field.name)
    assert type(stored) is int and stored == base


def test_int_fields_found():
    names = {f"{cls.__name__}.{f.name}" for cls, f in _int_fields()}
    assert {"Waveform.rate", "EmbeddingParams.theiler", "GeneratorGraph.conv_kernel"} <= names


@pytest.mark.parametrize("value", [8.7, "8", None, True, np.bool_(True), float("nan"), float("inf"), 7])
def test_size_rejects(value):
    with pytest.raises(InvalidArgumentError, match="width must be an integer >= 8"):
        _size(value, "width", 8)


@pytest.mark.parametrize("value", [True, False, np.bool_(True), np.array(True), np.array(False)])
def test_size_rejects_bools_at_any_bound(value):
    # a bound of 8 rejects a bool as too small; at 0 only the bool test can
    with pytest.raises(InvalidArgumentError, match="flag must be an integer >= 0"):
        _size(value, "flag", 0)


def test_finite_names_what():
    x = np.array([1.0, np.inf])
    with pytest.raises(InvalidArgumentError, match="samples has a non-finite entry"):
        _finite(x, "samples")
    finite = x[:1]
    assert _finite(finite, "samples") is finite
