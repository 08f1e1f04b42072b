"""Nonlinear-dynamics estimators: delay embedding, local Lyapunov exponents
via nearest-neighbor divergence, DFA-1 fluctuations and scaling exponent,
recurrence plots, and first-order Poincare descriptors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError

__all__ = [
    "EmbeddingParams",
    "LyapunovEstimate",
    "DfaProfile",
    "PoincareDescriptors",
    "RecurrencePlot",
    "delay_embed",
    "lyapunov_exponents",
    "local_lyapunov",
    "dfa_fluctuation",
    "dfa_profile",
    "dfa_exponent",
    "recurrence_plot",
    "poincare_sd",
]


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay-embedding and divergence-tracking parameters.

    delta=None picks max(1, segment_length // 8) per segment; theiler=None
    defaults to d * tau.
    """

    d: int = 3
    tau: int = 1
    delta: int | None = None
    eps: float = 1e-8
    theiler: int | None = None

    def __post_init__(self):
        if self.d < 1 or self.tau < 1:
            raise InvalidArgumentError("d and tau must be >= 1")
        if self.delta is not None and self.delta < 1:
            raise InvalidArgumentError("delta must be >= 1")
        if self.eps <= 0:
            raise InvalidArgumentError("eps must be > 0")
        if self.theiler is not None and self.theiler < 0:
            raise InvalidArgumentError("theiler must be >= 0")

    def resolved(self, segment_length: int) -> tuple[int, int]:
        delta = self.delta if self.delta is not None else max(1, segment_length // 8)
        theiler = self.theiler if self.theiler is not None else self.d * self.tau
        return delta, theiler


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float  # mean log divergence rate, 1/sample
    degenerate: bool = False  # True when no valid neighbor pair existed

    def __float__(self) -> float:
        return self.value


@dataclass(frozen=True)
class DfaProfile:
    scales: np.ndarray
    fluctuations: np.ndarray

    def __post_init__(self):
        scales = np.asarray(self.scales, dtype=np.int64)
        fl = np.asarray(self.fluctuations, dtype=np.float64)
        object.__setattr__(self, "scales", scales)
        object.__setattr__(self, "fluctuations", fl)
        if scales.size != fl.size:
            raise InvalidArgumentError("scales and fluctuations must align")
        if np.any(fl < 0):
            raise InvalidArgumentError("fluctuations must be nonnegative")


@dataclass(frozen=True)
class PoincareDescriptors:
    sd1: float
    sd2: float
    clamped: bool = False  # True when the SD2 radicand was negative by rounding


@dataclass(frozen=True)
class RecurrencePlot:
    matrix: np.ndarray  # (N, N) binary
    threshold: float


def delay_embed(x, d: int, tau: int) -> np.ndarray:
    """Takens embedding: row j = (x[j], x[j+tau], ..., x[j+(d-1)tau])."""
    x = np.asarray(x, dtype=np.float64)
    if d < 1 or tau < 1:
        raise InvalidArgumentError("d and tau must be >= 1")
    span = (d - 1) * tau
    if x.size < span + 1:
        raise InvalidArgumentError(
            f"need at least {span + 1} samples for d={d}, tau={tau}, got {x.size}"
        )
    m = x.size - span
    idx = np.arange(m)[:, None] + tau * np.arange(d)[None, :]
    return x[idx]


def lyapunov_exponents(segments, p: EmbeddingParams | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Local Lyapunov exponents of equal-length segments, one per row.

    Per segment: for each embedded point j (with j+delta valid) the nearest
    neighbor j' outside the Theiler window |j - j'| <= theiler is found by
    exact search (ties go to the lowest index), and the estimate is the mean
    of (1/delta) * log((|y[j+delta]-y[j'+delta]| + eps) / (|y[j]-y[j']| + eps))
    over all such pairs (Euclidean norm). Returns (values, degenerate); a
    segment with no valid neighbor pair gets 0.0 and degenerate=True.
    Each segment is searched scaled by the power of two from its peak, so
    extreme amplitudes do not overflow; the exact scale is undone before eps
    is added, so in-range results are unchanged.
    """
    from scipy.spatial.distance import cdist

    p = p or EmbeddingParams()
    segments = np.asarray(segments, dtype=np.float64)
    if segments.ndim != 2:
        raise InvalidArgumentError("segments must be a (count, length) array")
    count, length = segments.shape
    delta, theiler = p.resolved(length)
    span = (p.d - 1) * p.tau
    if length < span + delta + 1:
        raise InvalidArgumentError(
            f"segment of {length} samples too short for embedding span "
            f"{span} plus divergence horizon {delta}"
        )
    n = length - span - delta  # points whose future at +delta exists
    if n < 2 or count == 0:
        return np.zeros(count), np.ones(count, dtype=bool)
    exponent = np.frexp(np.abs(segments).max(axis=1))[1][:, None]
    scaled = np.ldexp(segments, -exponent)
    y = np.ascontiguousarray(sliding_window_view(scaled, span + 1, axis=1)[:, :, :: p.tau])
    buf = np.empty((n, n))
    flat = buf.ravel()
    nn = np.empty((count, n), dtype=np.intp)
    for s in range(count):
        cdist(y[s, :n], y[s, :n], out=buf)
        for k in range(min(theiler, n - 1) + 1):  # Theiler window: diagonals +k and -k
            flat[k : (n - k) * n : n + 1] = flat[k * n :: n + 1] = np.inf
        buf.argmin(axis=1, out=nn[s])
    rows = np.arange(count)[:, None]
    d0 = np.ldexp(np.linalg.norm(y[:, :n] - y[rows, nn], axis=2), exponent)
    d1 = np.ldexp(np.linalg.norm(y[:, delta:] - y[rows, nn + delta], axis=2), exponent)
    rates = np.log((d1 + p.eps) / (d0 + p.eps)) / delta
    j = np.arange(n)
    # rows with some j' outside the Theiler window and a finite distance to it
    valid = ((j > theiler) | (j < n - 1 - theiler)) & np.isfinite(d0)
    values = np.zeros(count)
    full = valid.all(axis=1)
    values[full] = rates[full].mean(axis=1)
    # partly valid rows are compacted first, so their sums keep the 1-D order
    for s in np.flatnonzero(~full & valid.any(axis=1)):
        values[s] = rates[s, valid[s]].mean()
    return values, ~valid.any(axis=1)


def local_lyapunov(segment, p: EmbeddingParams | None = None) -> LyapunovEstimate:
    """`lyapunov_exponents` of one segment."""
    values, degenerate = lyapunov_exponents(np.asarray(segment, dtype=np.float64).reshape(1, -1), p)
    return LyapunovEstimate(float(values[0]), bool(degenerate[0]))


def dfa_fluctuation(x, n: int) -> float:
    """DFA-1 fluctuation at one box size.

    Cumulative profile of the centered series, split into floor(len/n)
    non-overlapping boxes, linear detrend per box, RMS of the per-box mean
    squared residuals.
    """
    x = np.asarray(x, dtype=np.float64)
    if n < 2:
        raise InvalidArgumentError("scale must be >= 2")
    if x.size < 2 * n:
        raise InvalidArgumentError(f"need at least {2 * n} samples for scale {n}")
    if np.ptp(x) == 0.0:
        # centering a constant series leaves rounding dust in the profile;
        # the fluctuation is zero by definition
        return 0.0
    profile = np.cumsum(x - x.mean())
    n_boxes = profile.size // n
    boxes = profile[: n_boxes * n].reshape(n_boxes, n)
    t = np.arange(n, dtype=np.float64)
    design = np.vstack([t, np.ones(n)]).T
    coef, *_ = np.linalg.lstsq(design, boxes.T, rcond=None)
    resid = boxes.T - design @ coef
    return float(np.sqrt(np.mean(resid**2)))


def dfa_profile(x, scales) -> DfaProfile:
    """Convenience wrapper computing F(n) over a scale set (ascending)."""
    scales = sorted(int(s) for s in scales)
    return DfaProfile(scales, [dfa_fluctuation(x, n) for n in scales])


def dfa_exponent(x, scales) -> float:
    """Least-squares slope of log F(n) vs log n; zero fluctuations excluded."""
    profile = dfa_profile(x, scales)
    keep = profile.fluctuations > 0
    if np.count_nonzero(keep) < 2:
        raise InvalidArgumentError("fewer than 2 usable scales for the DFA fit")
    logn = np.log(profile.scales[keep].astype(np.float64))
    logf = np.log(profile.fluctuations[keep])
    slope, _ = np.polyfit(logn, logf, 1)
    return float(slope)


def recurrence_plot(x, max_size: int = 512) -> RecurrencePlot:
    """Thresholded distance matrix: R[i,j] = 1 iff |x[i]-x[j]| < mean distance.

    Sequences longer than max_size are decimated by a uniform stride first.
    The threshold is the mean of the strict upper triangle; the diagonal is
    forced to 1.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 2:
        raise InvalidArgumentError("need at least 2 samples")
    if x.size > max_size:
        stride = math.ceil(x.size / max_size)
        x = x[::stride]
    dist = np.abs(x[:, None] - x[None, :])
    threshold = float(np.mean(dist[np.triu_indices(x.size, k=1)]))
    matrix = (dist < threshold).astype(np.uint8)
    np.fill_diagonal(matrix, 1)
    return RecurrencePlot(matrix, threshold)


def poincare_sd(x) -> PoincareDescriptors:
    """First-order Poincare descriptors of the lag-1 return map.

    SD1^2 = E[(dx)^2]/2 with dx the successive differences (raw second
    moment; the mean difference telescopes to ~0 for stationary segments),
    SD2^2 = 2*Var(x) - SD1^2 with population variance, so that
    SD1^2 + SD2^2 == 2*Var(x) holds identically.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise InvalidArgumentError("need at least 3 samples")
    dx = np.diff(x)
    var_dx = float(np.mean(dx**2))
    var_x = float(np.var(x))
    sd1_sq = var_dx / 2.0
    sd2_sq = 2.0 * var_x - sd1_sq
    clamped = sd2_sq < 0
    return PoincareDescriptors(
        sd1=math.sqrt(sd1_sq), sd2=math.sqrt(max(sd2_sq, 0.0)), clamped=clamped
    )
