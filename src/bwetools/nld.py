"""Nonlinear-dynamics estimators: delay embedding, local Lyapunov exponents
via nearest-neighbor divergence, DFA-1 fluctuations and scaling exponent,
recurrence plots, and first-order Poincare descriptors."""

from __future__ import annotations

import functools
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InvalidArgumentError, _finite, _size, _size_fields, _sizes
from .signal import _peak_exponent, unit_peak

__all__ = [
    "EmbeddingParams",
    "LyapunovEstimate",
    "PoincareDescriptors",
    "RecurrencePlot",
    "delay_embed",
    "lyapunov_windows",
    "local_lyapunov",
    "dfa_fluctuation",
    "dfa_exponent",
    "recurrence_plot",
    "poincare_sd",
]


@dataclass(frozen=True)
class EmbeddingParams:
    """Delay-embedding and divergence-tracking parameters.

    delta=None picks max(1, segment_length // 8) per segment; theiler=None
    defaults to d * tau. eps is an absolute floor added to every neighbor
    distance: a segment whose distances are far below it (a clip scaled by
    1e-200, say) gets rates of exactly log(eps/eps) = 0.
    """

    d: int = 3
    tau: int = 1
    delta: int | None = None
    eps: float = 1e-8
    theiler: int | None = None

    def __post_init__(self):
        _size_fields(self, 1, "d", "tau")
        _size_fields(self, 1, "delta", optional=True)
        _size_fields(self, 0, "theiler", optional=True)
        if not 0 < self.eps < math.inf:
            raise InvalidArgumentError(f"eps must be finite and > 0, got {self.eps!r}")

    def resolved(self, segment_length: int) -> tuple[int, int]:
        delta = self.delta if self.delta is not None else max(1, segment_length // 8)
        theiler = self.theiler if self.theiler is not None else self.d * self.tau
        return delta, theiler


@dataclass(frozen=True)
class LyapunovEstimate:
    value: float  # mean log divergence rate, 1/sample
    degenerate: bool = False  # True when no valid neighbor pair existed


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
    """Takens embedding over the last axis, as a fresh writable array: row j =
    (x[j], x[j+tau], ..., x[j+(d-1)tau]), so a series gives (L - span, d) and
    (count, L) segments give (count, L - span, d), span = (d-1)*tau."""
    x = np.asarray(x, dtype=np.float64)
    d, tau = _size(d, "d", 1), _size(tau, "tau", 1)
    span = (d - 1) * tau
    length = x.shape[-1] if x.ndim else 0
    if length < span + 1:
        raise InvalidArgumentError(f"need >= {span + 1} samples for d={d}, tau={tau}, got {length}")
    # copy, not ascontiguousarray: at d = 1 the read-only view counts as contiguous
    return sliding_window_view(x, span + 1, axis=-1)[..., ::tau].copy()


# A nonzero difference of two samples that are each 0 or at least 2**-459
# in magnitude is at least 2**-511, one unit in the last place of 2**-459,
# so its square is at least 2**-1022, the smallest normal number, and
# distances scale exactly by powers of two. Below it they may not.
_SHARED_SCALE_FLOOR = 2.0**-459


def _horizon(length: int, p: EmbeddingParams) -> tuple[int, int, int]:
    """(n, delta, theiler) for segments of `length` samples, n being the number
    of embedded points whose future at +delta exists."""
    delta, theiler = p.resolved(length)
    span = (p.d - 1) * p.tau
    if length < span + delta + 1:
        raise InvalidArgumentError(
            f"segment of {length} samples too short for embedding span "
            f"{span} plus divergence horizon {delta}"
        )
    return length - span - delta, delta, theiler


def _band(rows: int, cols: int, lo: int, hi: int) -> np.ndarray:
    """Flat indices of the entries (i, k) of a C-ordered rows x cols block
    with lo <= k - i <= hi."""
    i = np.arange(rows)
    diagonals = [
        i[max(0, -k) : min(rows, cols - k)] * (cols + 1) + k
        for k in range(max(lo, 1 - rows), min(hi, cols - 1) + 1)
    ]
    return np.concatenate(diagonals) if diagonals else np.empty(0, dtype=np.intp)


# samples per cache-sized piece of a clip, for both walks over `_over_segments`:
# `lyapunov_windows` runs groups of whole lcm blocks that hold this many, and
# `demo.synthetic_speech` fills blocks of this many, whose scratch, about
# seven float64 arrays (1.8 MB), fits a 2 MB per-core L2 cache
_BLOCK = 1 << 15


def _over_segments(count: int, part) -> None:
    """Run part(lo, hi) over contiguous ranges covering [0, count), one per
    CPU this process may use but at most count: the first on the calling
    thread, each other on its own. A call writes only its own part of the
    output, with its own scratch, and any call's exception reaches the caller."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    parts = min(count, cpus or 1)
    if parts < 2:
        part(0, count)
        return
    from concurrent.futures import ThreadPoolExecutor

    # sin, and the distance kernel on blocks of about 100 x 200 cells and up,
    # release the GIL, so the ranges run in parallel; the first range on a
    # pool thread too took one more malloc arena, and 8 MB more peak RSS
    bounds = [count * k // parts for k in range(parts + 1)]
    with ThreadPoolExecutor(parts - 1) as pool:
        rest = pool.map(part, bounds[1:-1], bounds[2:])
        part(0, bounds[1])
        list(rest)


_DISTANCE_EXTENSION = "scipy.spatial._distance_pybind"


@functools.cache
def _cdist():
    """The kernel `scipy.spatial.distance.cdist` calls, `cdist_euclidean(x, y,
    out=None)`, loaded from its extension file alone, without the kd-tree,
    qhull and array-API modules that importing `scipy.spatial` loads. The
    module is registered under its own name, so a later `scipy.spatial`
    import reuses it. `cdist` where the file or the function is missing."""
    import importlib.machinery
    import importlib.util

    import scipy

    module = sys.modules.get(_DISTANCE_EXTENSION)
    if module is None:
        folder = os.path.join(os.path.dirname(scipy.__file__), "spatial")
        spec = importlib.machinery.PathFinder.find_spec(_DISTANCE_EXTENSION, [folder])
        if spec is not None:
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            sys.modules[_DISTANCE_EXTENSION] = module
    kernel = getattr(module, "cdist_euclidean", None)
    if kernel is None:
        from scipy.spatial.distance import cdist as kernel
    return kernel


# distance cells per search tile: 2**17 doubles (1 MB) fit a 2 MB per-core L2
# cache, and bound `_nearest`'s scratch at any window size
_TILE = 1 << 17


def _nearest(pts, n: int, theiler: int, half=None):
    """Exact nearest neighbors of the points [0, n) of every segment of pts,
    (count, points, d), among those points outside the Theiler window
    |j - j'| <= theiler: (distance, index) arrays of shape (count, n), the
    lowest index on ties, and inf where no pair lies outside the window.

    half, the (distance, index) result at w/2 on the same scale and Theiler
    window, seeds the search: segment s begins with segment 2s at w/2, whose
    first nh points were searched among themselves, so their entries are
    copied and only rows [nh, n) are searched against all n points. The rows
    are searched in tiles of whole rows, each at most `_TILE` cells (one row
    if a row is longer) and all but the last of equal height, through one
    scratch tile on the calling thread. A tile's column minimum replaces a
    seeded entry only when strictly nearer, so ties keep the lowest index."""
    cdist = _cdist()
    count = pts.shape[0]
    dist, nn = np.empty((count, n)), np.empty((count, n), dtype=np.intp)
    first = 0 if half is None else half[0].shape[1]
    if first:
        dist[:, :first], nn[:, :first] = (h[: 2 * count : 2] for h in half)
    tiles = -(-(n - first) // max(1, _TILE // n))
    height = -(-(n - first) // tiles)  # rows per tile, evened so no tile is a sliver
    c, at = np.arange(first), np.empty(first, dtype=np.intp)
    scratch, keys, seed_d, seed_i = np.empty((height, n)), pts[:, :n], dist[:, :first], nn[:, :first]
    for top in range(first, n, height):
        rows = slice(top, min(top + height, n))
        tile = scratch[: rows.stop - top]
        r = np.arange(len(tile))
        band = _band(len(tile), n, top - theiler, top + theiler)
        flat, lead = tile.ravel(), tile[:, :first]
        queries, tile_i, tile_d = pts[:, rows], nn[:, rows], dist[:, rows]
        for s in range(count):
            cdist(queries[s], keys[s], out=tile)
            flat[band] = np.inf
            tile.argmin(axis=1, out=tile_i[s])
            tile_d[s] = tile[r, tile_i[s]]
            if first:
                lead.argmin(axis=0, out=at)
                d = tile[at, c]
                nearer = d < seed_d[s]
                seed_d[s, nearer] = d[nearer]
                seed_i[s, nearer] = at[nearer] + top
    return dist, nn


def _norms(a: np.ndarray, b: np.ndarray, exponent) -> np.ndarray:
    """np.ldexp(np.linalg.norm(a - b, axis=2), exponent) bit for bit, by norm's
    own reduction, with no temporary beyond b, which it overwrites and whose
    first coordinate holds the squared sums when d < 8. A norm that overflows
    raises InvalidArgumentError."""
    np.subtract(a, b, out=b)
    np.square(b, out=b)
    if b.shape[2] < 8:  # numpy's pairwise sum adds under 8 terms in order, more in 8 partial sums
        squares = b[:, :, 0]
        for j in range(1, b.shape[2]):
            squares += b[:, :, j]
    else:
        squares = b.sum(axis=2)
    with np.errstate(over="ignore"):  # an overflow raises below instead
        return _finite(np.ldexp(np.sqrt(squares), exponent), "the array of neighbor distances")


def _rates(y: np.ndarray, exponent, n: int, delta: int, theiler: int, nn: np.ndarray, eps: float):
    """The one-window kernel: the value of each embedded segment of y,
    (count, n + delta, d), scaled by 2**-exponent (a scalar, or a (count, 1)
    column), given nn, the nearest neighbor of each of their first n points.
    Needs theiler < n - 1, so that some rows have a point outside the window.
    A rate that is not finite (a distance ratio past the float range) raises
    InvalidArgumentError."""
    count = y.shape[0]
    flat_nn = nn + y.shape[1] * np.arange(count)[:, None]
    points = y.reshape(-1, y.shape[2])
    d0 = _norms(y[:, :n], points.take(flat_nn, axis=0), exponent)
    d1 = _norms(y[:, delta:], points.take(flat_nn + delta, axis=0), exponent)
    j = np.arange(n)
    # rows with some j' outside the Theiler window, the same in every segment;
    # compacted first, so each row's sum keeps the 1-D order
    valid = (j > theiler) | (j < n - 1 - theiler)
    with np.errstate(over="ignore", divide="ignore"):  # a non-finite rate raises below instead
        rates = np.log(np.compress(valid, (d1 + eps) / (d0 + eps), axis=1)) / delta
    return _finite(rates, "the array of divergence rates").mean(axis=1)


def lyapunov_windows(x, windows, p: EmbeddingParams | None = None) -> dict:
    """Local Lyapunov exponents of x cut into non-overlapping windows, per size.

    Returns {window: values} in ascending window order, one value per whole
    segment of w samples (one, x itself, at w = x.size); a window too short
    for the embedding, or longer than the clip, gets an empty array and is
    never searched. Windows must be distinct integers >= 1.

    Per segment: for each embedded point j (with j+delta valid) the nearest
    neighbor j' outside the Theiler window |j - j'| <= theiler is found by
    exact search (ties go to the lowest index), and the estimate is the mean
    of (1/delta) * log((|y[j+delta]-y[j'+delta]| + eps) / (|y[j]-y[j']| + eps))
    over all such pairs (Euclidean norm). When the window covers every pair
    (theiler >= n - 1, n the points with a future) each segment gets 0.0.

    Distances are measured on the clip scaled by the power of two from its
    peak, and the exact scale is undone before eps is added, so extreme
    amplitudes do not overflow and in-range results are unchanged. On that
    one scale, segment s at w begins with segment 2s at w/2, and w seeds its
    search from w/2's when w/2 is in the set, searching only its other
    points against all of them. This is exact while every nonzero sample
    of the scaled clip is at least 2**-459 in magnitude (every squared
    difference is then a normal number); below that each segment is scaled
    by its own peak and searched alone. A neighbor distance or a rate too
    large for a float raises InvalidArgumentError.

    The clip is cut into ranges of whole blocks of lcm(windows) samples, the
    last range taking the tail: one range per CPU in `os.sched_getaffinity`
    but at most one per block, the first on the calling thread. Each range
    runs every window over one group of its samples at a time, a group being
    the fewest whole blocks that hold `_BLOCK` (2**15) samples, and the last
    group of the last range taking the tail. A segment and the halves it is
    built from never straddle a cut, so the results depend on neither split.
    Each segment is searched in tiles of at most `_TILE` (2**17) distance
    cells, so memory beyond the outputs is one group's arrays plus one tile
    per CPU, at any clip length and any window: a group holds
    max(`_BLOCK`, lcm(windows)) samples, or less than one block more, and
    the last one also the tail. That is flat in the clip's length only once
    the clip spans a group: with windows (1021, 1031), lcm 1,052,651, a clip
    under two blocks is one group and its scratch grows with it. At the
    default windows (lcm 1024, 32-block groups) it is about 3 MB per CPU.
    A non-finite sample raises InvalidArgumentError before any range starts.
    """
    p = p or EmbeddingParams()
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise InvalidArgumentError("x must be one-dimensional")
    windows = _sizes(windows, "window sizes")
    exponent = _peak_exponent(x)

    def scaled(start, stop):
        """x[start:stop] at the clip's unit peak: unit_peak(x)[0][start:stop]
        bit for bit, as np.ldexp is exact."""
        return np.ldexp(x[start:stop], -exponent)

    # both tests on every piece of the scaled clip, _BLOCK samples at a time
    pieces = (_finite(scaled(s, s + _BLOCK), "x") for s in range(0, x.size, _BLOCK))
    shared = all([np.all((z == 0) | (np.abs(z) >= _SHARED_SCALE_FLOOR)) for z in pieces])
    out, searches = {w: np.zeros(x.size // w) for w in windows}, {}  # 0.0 where the window covers every pair
    for w in windows:
        try:
            n, delta, theiler = _horizon(w, p)
        except InvalidArgumentError:
            out[w] = np.empty(0)
            continue
        if theiler < n - 1 and w <= x.size:
            searches[w] = n, delta, theiler
    block = math.lcm(*windows)
    blocks = x.size // block
    group = -(-_BLOCK // block)  # blocks per group

    def run(start, stop):
        z = scaled(start, stop) if shared else x[start:stop]
        searched = None  # (window, (distances, neighbors)) on the clip scale
        for w, (n, delta, theiler) in searches.items():
            first, count = start // w, (stop - start) // w
            segments, scale = z[: count * w].reshape(count, w), exponent
            if not shared:  # each segment on its own scale, searched alone
                segments, scale = unit_peak(segments, axis=1)
            pts = delay_embed(segments, p.d, p.tau)
            # rebinding `searched` drops w/2's result before the rates run
            seeded = shared and searched is not None and 2 * searched[0] == w
            searched = w, _nearest(pts, n, theiler, searched[1] if seeded else None)
            out[w][first : first + count] = _rates(pts, scale, n, delta, theiler, searched[1][1], p.eps)
            del pts  # not held while the next window is embedded

    def chain(lo, hi):
        # blocks == 0 calls chain(0, 0): the whole clip is one group
        for g in range(lo, max(hi, lo + 1), group):
            end = min(g + group, hi)
            run(g * block, end * block if end < blocks else x.size)

    if searches:  # the kernel is loaded here, not by two ranges at once
        _cdist()
        _over_segments(blocks, chain)
    return out


def local_lyapunov(segment, p: EmbeddingParams | None = None) -> LyapunovEstimate:
    """One whole segment's `lyapunov_windows` value, degenerate when its Theiler
    window covers every pair; too short a segment raises InvalidArgumentError.
    Kept only while the benchmark's tracer wraps it by name (ROADMAP item 18)."""
    p = p or EmbeddingParams()
    x = np.asarray(segment, dtype=np.float64).ravel()
    n, _, theiler = _horizon(x.size, p)  # too short raises here, not as an empty window
    return LyapunovEstimate(float(lyapunov_windows(x, [x.size], p)[x.size][0]), theiler >= n - 1)


def _unscale(value: float, exponent: int, what: str) -> float:
    """math.ldexp(value, exponent): a result evaluated at unit peak taken back
    to the input's scale, InvalidArgumentError naming `what` if it overflows."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        raise InvalidArgumentError(f"{what} overflows at this amplitude") from None


def dfa_fluctuation(x, scales) -> np.ndarray:
    """DFA-1 fluctuations at the box sizes n of scales, distinct integers >= 2,
    in ascending order of n, all from one profile.

    Cumulative profile of the centered series, split into floor(len/n)
    non-overlapping boxes, linear detrend per box, RMS of the per-box mean
    squared residuals (0.0 at n = 2). x is evaluated scaled by the power of
    two from its peak, so F(2**k * x) == 2**k * F(x) exactly while both are
    finite; an F too large for a float, or a non-finite sample, raises
    InvalidArgumentError.
    """
    x = _finite(np.asarray(x, dtype=np.float64), "x")
    scales = [_size(n, "DFA scale", 2) for n in _sizes(scales, "DFA scales")]
    if x.size < 2 * scales[-1]:
        raise InvalidArgumentError(f"need at least {2 * scales[-1]} samples for scale {scales[-1]}")
    fluctuations = np.zeros(len(scales))
    if np.ptp(x) == 0.0:  # centering a constant series leaves rounding dust in the profile
        return fluctuations
    x, exponent = unit_peak(x)
    profile = np.cumsum(x - x.mean())
    for i, n in enumerate(scales):
        if n == 2:  # a line fits 2-sample boxes exactly
            continue
        boxes = profile[: profile.size // n * n].reshape(-1, n)
        # least-squares line per box in closed form, on the centred time axis
        t = np.arange(n) - (n - 1) / 2
        y = boxes - boxes.mean(axis=1, keepdims=True)
        slope = (y * t).sum(axis=1) / (t @ t)
        resid = y - slope[:, None] * t
        fluctuations[i] = _unscale(float(np.sqrt(np.mean(resid**2))), exponent, "the DFA fluctuation")
    return fluctuations


def dfa_exponent(x, scales) -> float:
    """Least-squares slope of log F(n) vs log n over the scales in ascending
    order; zero fluctuations excluded. Scales must be distinct integers."""
    scales = np.array(_sizes(scales, "DFA scales"), dtype=np.int64)
    fluctuations = dfa_fluctuation(x, scales)
    keep = fluctuations > 0
    if np.count_nonzero(keep) < 2:
        raise InvalidArgumentError("fewer than 2 usable scales for the DFA fit")
    logn = np.log(scales[keep].astype(np.float64))
    logf = np.log(fluctuations[keep])
    slope, _ = np.polyfit(logn, logf, 1)
    return float(slope)


def recurrence_plot(x, max_size: int = 512) -> RecurrencePlot:
    """Thresholded distance matrix: R[i,j] = 1 iff |x[i]-x[j]| is below the
    mean distance or is exactly 0, so a constant series recurs everywhere.

    Sequences longer than max_size (an integer >= 2) are decimated by a
    uniform stride first. The threshold is the mean of the strict upper
    triangle. Distances are evaluated scaled by the power of two from the
    peak, so the matrix does not depend on 2**k scaling and the threshold
    scales exactly; one too large for a float, or a non-finite sample,
    raises InvalidArgumentError.
    """
    x = _finite(np.asarray(x, dtype=np.float64), "x")
    if x.size < 2:
        raise InvalidArgumentError("need at least 2 samples")
    max_size = _size(max_size, "max_size", 2)
    if x.size > max_size:
        stride = math.ceil(x.size / max_size)
        x = x[::stride]
    x, exponent = unit_peak(x)
    dist = np.abs(x[:, None] - x[None, :])
    threshold = float(np.mean(dist[np.triu_indices(x.size, k=1)]))
    matrix = ((dist < threshold) | (dist == 0)).astype(np.uint8)
    return RecurrencePlot(matrix, _unscale(threshold, exponent, "the recurrence threshold"))


def poincare_sd(x) -> PoincareDescriptors:
    """First-order Poincare descriptors of the lag-1 return map.

    SD1^2 = E[(dx)^2]/2 with dx the successive differences (raw second
    moment; the mean difference telescopes to ~0 for stationary segments),
    SD2^2 = 2*Var(x) - SD1^2 with population variance, so that
    SD1^2 + SD2^2 == 2*Var(x) holds identically. x is evaluated scaled by
    the power of two from its peak, so both scale exactly with 2**k * x
    while finite; one too large for a float, or a non-finite sample,
    raises InvalidArgumentError.
    """
    x = _finite(np.asarray(x, dtype=np.float64), "x")
    if x.size < 3:
        raise InvalidArgumentError("need at least 3 samples")
    x, exponent = unit_peak(x)
    dx = np.diff(x)
    var_dx = float(np.mean(dx**2))
    var_x = float(np.var(x))
    sd1_sq = var_dx / 2.0
    sd2_sq = 2.0 * var_x - sd1_sq
    clamped = sd2_sq < 0
    sd1, sd2 = (_unscale(math.sqrt(v), exponent, "a Poincare descriptor") for v in (sd1_sq, max(sd2_sq, 0.0)))
    return PoincareDescriptors(sd1, sd2, clamped)
