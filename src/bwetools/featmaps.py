"""Discriminator front-end feature tensors: multi-window Lyapunov maps,
tiled DFA fluctuation maps, and multi-resolution magnitude/phase stacks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidArgumentError, _finite, _size, _sizes
from .nld import dfa_fluctuation, lyapunov_windows
from .signal import Waveform
from .spectral import MagPhase, StftConfig, _mag_phase, _per_frame

__all__ = [
    "FeatureMapStack",
    "MultiResSpecConfig",
    "DEFAULT_LYAPUNOV_WINDOWS",
    "DEFAULT_DFA_SCALES",
    "mrld_features",
    "msdfa_features",
    "mrad_mrpd_features",
    "resolution_params",
]

DEFAULT_LYAPUNOV_WINDOWS = (64, 128, 256, 512, 1024)
DEFAULT_DFA_SCALES = (100, 200, 300, 500, 600)


@dataclass(frozen=True)
class FeatureMapStack:
    """C x H x W real tensor plus per-channel provenance metadata."""

    data: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        object.__setattr__(self, "data", data)
        if data.ndim != 3:
            raise InvalidArgumentError("stack must be C x H x W")
        _finite(data, "feature stack")

    @property
    def channels(self) -> int:
        return self.data.shape[0]

    @property
    def height(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultiResSpecConfig:
    freq_bins: tuple = (512, 128, 512)
    hops: tuple = (1024, 256, 1024)
    win_lengths: tuple = (2048, 512, 2048)

    def __post_init__(self):
        for name in ("freq_bins", "hops", "win_lengths"):
            values = getattr(self, name)
            try:
                sizes = tuple(_size(v, f"each of {name}", 1) for v in values)
            except TypeError:
                raise InvalidArgumentError(f"{name} must be a tuple of integers, got {values!r}") from None
            object.__setattr__(self, name, sizes)
        if not (len(self.freq_bins) == len(self.hops) == len(self.win_lengths)):
            raise InvalidArgumentError("resolution lists must have equal length")


def mrld_features(wf: Waveform, windows=DEFAULT_LYAPUNOV_WINDOWS) -> FeatureMapStack:
    """Local Lyapunov exponent map, one channel per window size.

    Channel w holds the per-segment exponents for non-overlapping windows of
    w samples, z-scored per channel and right-padded with zeros to the width
    of the finest channel (padding is applied after normalization so it does
    not perturb channel statistics). Channels whose window does not fit the
    signal, or whose exponents have zero variance, are left all-zero and
    flagged degenerate. Window sizes must be distinct integers >= 1.

    All windows come from one `nld.lyapunov_windows` call, which shares the
    neighbor search across dyadic window sizes. The default `EmbeddingParams`
    eps is an absolute floor on distances: a clip whose sample differences
    are far below it (say, speech scaled by 1e-200) gives rates of exactly 0,
    so every channel is all-zero and flagged degenerate.
    """
    levels = lyapunov_windows(wf.samples, windows)
    windows = list(levels)
    width = len(wf) // windows[0]
    data = np.zeros((len(windows), 1, width))
    channel_meta = []
    for c, (w, (values, _)) in enumerate(levels.items()):
        degenerate = values.size == 0
        if not degenerate:
            std = values.std()
            if std > 0:
                data[c, 0, : values.size] = (values - values.mean()) / std
            else:
                degenerate = True
        channel_meta.append(
            {"window": w, "count": int(values.size), "degenerate": bool(degenerate)}
        )
    meta = {
        "extractor": "mrld",
        "windows": windows,
        "normalization": "per-channel z-score",
        "channels": channel_meta,
    }
    return FeatureMapStack(data, meta)


def msdfa_features(
    wf: Waveform, scales=DEFAULT_DFA_SCALES, side: int = 64
) -> FeatureMapStack:
    """DFA fluctuations tiled into constant side x side maps, one per scale, in
    ascending scale order. Scales must be distinct integers >= 2, and the
    tile side an integer >= 1 whose maps fit one numpy array. A scale longer
    than half the clip, or one whose fluctuation is exactly 0 (a silent or
    constant clip, or scale 2), gives a zero map flagged degenerate, as a
    zero-variance MRLD channel is."""
    scales = [_size(n, "DFA scale", 2) for n in _sizes(scales, "DFA scales")]
    side = _size(side, "tile side", 1)
    if len(scales) * side * side * 8 > np.iinfo(np.intp).max:  # numpy's largest array, in bytes
        raise InvalidArgumentError(f"tile side {side} gives more float64 values than one array can hold")
    data = np.zeros((len(scales), side, side))
    channel_meta = []
    for c, n in enumerate(scales):
        fluctuation = dfa_fluctuation(wf.samples, n) if len(wf) >= 2 * n else 0.0
        data[c] = fluctuation
        channel_meta.append({"scale": n, "degenerate": fluctuation == 0.0})
    meta = {"extractor": "msdfa", "scales": scales, "side": side, "channels": channel_meta}
    return FeatureMapStack(data, meta)


def resolution_params(cfg: MultiResSpecConfig) -> list[dict]:
    """Effective STFT settings per resolution.

    n_fft is twice the requested bin count; window lengths larger than n_fft
    cannot be analyzed at that FFT size and are clamped (recorded here). Hops
    that would leave no overlap after the clamp are reduced to half the
    window so the COLA invariant of StftConfig still holds.
    """
    params = []
    for bins, hop, win in zip(cfg.freq_bins, cfg.hops, cfg.win_lengths):
        n_fft = 2 * bins
        clamped = win > n_fft
        eff_win = min(win, n_fft)
        eff_hop = min(hop, eff_win // 2)
        params.append(
            {
                "freq_bins": bins,
                "n_fft": n_fft,
                "hop": eff_hop,
                "win_length": eff_win,
                "win_clamped": clamped,
                "hop_clamped": hop != eff_hop,
            }
        )
    return params


def mrad_mrpd_features(wf: Waveform, cfg: MultiResSpecConfig | None = None) -> list[MagPhase]:
    """Log-magnitude and phase grids at each configured resolution.

    The magnitude grids feed the amplitude discriminator, the phase grids the
    phase discriminator. Grids are truncated to the requested bin count.
    Resolutions whose effective settings (`resolution_params`) are equal
    share one MagPhase, analysed once, a block of frames at a time.
    """
    cfg = cfg or MultiResSpecConfig()
    grids = {}  # n_fft is 2 * freq_bins, so the StftConfig fixes the bin count too
    out = []
    for res in resolution_params(cfg):
        stft_cfg = StftConfig(
            n_fft=res["n_fft"],
            win_length=res["win_length"],
            hop=res["hop"],
        )
        if stft_cfg not in grids:
            bins = res["freq_bins"]
            rows = _per_frame(lambda z: np.stack(_mag_phase(z[:, :bins]), 1), stft_cfg, wf.samples)
            grids[stft_cfg] = MagPhase(*rows.transpose(1, 2, 0), stft_cfg, len(wf))
        out.append(grids[stft_cfg])
    return out
