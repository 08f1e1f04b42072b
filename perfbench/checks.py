"""Output checks shared by the workloads.

Results are compared after rounding to 6 significant digits, the precision
the bwetools CLI prints. Arrays are compared through a small fingerprint
(shape, absolute sum, sum of squares and eight evenly spaced samples) so that
reference files stay small. Two rounded numbers agree when they are equal or
differ by one unit in the sixth digit, which absorbs a rounding boundary
crossed by a last-bit difference.
"""

from __future__ import annotations

import math

import numpy as np

N_PROBES = 8


def r6(x: float) -> float:
    """Round to 6 significant digits exactly as the CLI's JSON output does."""
    x = float(x)
    if x == 0 or not math.isfinite(x):
        return x
    return float(f"{x:.6g}")


def fingerprint(a) -> dict:
    flat = np.asarray(a, dtype=np.float64).ravel()
    probes = np.linspace(0, flat.size - 1, N_PROBES).astype(int) if flat.size else []
    return {
        "shape": list(np.shape(a)),
        "abs_sum": r6(np.abs(flat).sum()),
        "sq_sum": r6(flat @ flat),
        "probes": [r6(flat[i]) for i in probes],
    }


def summarize(result: dict) -> dict:
    """JSON-ready form of an item result: arrays fingerprinted, floats
    rounded, CLI stdout kept verbatim as text."""
    out = {}
    for key, value in result.items():
        if isinstance(value, np.ndarray):
            out[key] = fingerprint(value)
        elif isinstance(value, float):
            out[key] = r6(value)
        elif isinstance(value, bytes):
            out[key] = value.decode("utf-8", errors="replace")
        else:
            out[key] = value
    return out


def _close6(a: float, b: float) -> bool:
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    unit = 10.0 ** (math.floor(math.log10(max(abs(a), abs(b)))) - 5)
    return abs(a - b) <= unit * (1 + 1e-9)


def disagreements(expected, got, path: str = "") -> list[str]:
    """Paths where two summaries differ; empty when they agree."""
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{path or 'result'}: keys {sorted(got)} != {sorted(expected)}"]
        out = []
        for key in expected:
            out += disagreements(expected[key], got[key], f"{path}.{key}" if path else key)
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{path}: length {len(got)} != {len(expected)}"]
        out = []
        for i, (e, g) in enumerate(zip(expected, got)):
            out += disagreements(e, g, f"{path}[{i}]")
        return out
    if isinstance(expected, float) or isinstance(got, float):
        if isinstance(expected, (int, float)) and isinstance(got, (int, float)):
            if _close6(float(expected), float(got)):
                return []
    elif expected == got:
        return []
    shown = repr(got) if len(repr(got)) < 80 else repr(got)[:77] + "..."
    return [f"{path}: got {shown}, expected {expected!r}"[:200]]


def all_finite(result: dict) -> list[str]:
    bad = []
    for key, value in result.items():
        if isinstance(value, np.ndarray) and not np.all(np.isfinite(value)):
            bad.append(f"{key}: non-finite values")
        elif isinstance(value, float) and not math.isfinite(value):
            bad.append(f"{key}: non-finite value {value}")
    return bad


def corrupt(result: dict) -> dict:
    """Copy of a result with one output perturbed, for the self-test: the
    first array, float or stdout in key order is changed slightly."""
    out = dict(result)
    for key in sorted(out):
        value = out[key]
        if isinstance(value, np.ndarray) and value.size:
            out[key] = value * 1.001
        elif isinstance(value, float):
            out[key] = value * 1.001 if value else 1e-3
        elif isinstance(value, bytes):
            out[key] = value + b" "
        else:
            continue
        return out
    raise ValueError("result has nothing to corrupt")
