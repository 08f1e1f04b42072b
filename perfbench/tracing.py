"""Spans around calls into bwetools, recorded from outside the package.

While a `Tracer` is active, the public functions listed in TRACED are
replaced, in every bwetools module that binds them, by wrappers that record
a span (name, start, end, parent span, item id, raised?). Spans stay in
memory; `dump` writes them as JSON lines when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

TRACED = {
    "signal": ("load_wav", "save_wav", "degrade", "resample"),
    "spectral": ("stft", "write_csv", "write_f32"),
    "nld": ("local_lyapunov", "dfa_fluctuation", "recurrence_plot", "poincare_sd"),
    "featmaps": ("mrld_features", "msdfa_features", "mrad_mrpd_features"),
    "metrics": ("evaluate", "lsd", "si_sdr", "si_snr", "stoi"),
    "netshape": ("forward_cnn", "init_weights", "generator_forward", "describe_net", "describe_generator"),
    "cli": ("main",),
    "demo": ("synthetic_speech",),
}
LAYERS = tuple(TRACED)


def _span_namer(layer: str, fn_name: str):
    if fn_name == "local_lyapunov":
        return lambda args, kwargs: f"nld.local_lyapunov.w{len(args[0])}"
    if fn_name == "forward_cnn":
        return lambda args, kwargs: f"netshape.forward_cnn.{args[0].name}"
    if fn_name == "main":

        def name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv") or []
            return "cli.main." + next((a for a in argv if not a.startswith("-")), "none")

        return name
    fixed = f"{layer}.{fn_name}"
    return lambda args, kwargs: fixed


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, item, error]
        self.counters: dict = defaultdict(float)  # (item, counter) -> value
        self.item = None
        self._stack: list[int] = []
        self._patches = []  # (module, attribute, original, wrapper)
        modules = [sys.modules[f"bwetools.{layer}"] for layer in LAYERS]
        for layer in LAYERS:
            owner = sys.modules[f"bwetools.{layer}"]
            for fn_name in TRACED[layer]:
                original = getattr(owner, fn_name)
                wrapper = self._wrap(original, _span_namer(layer, fn_name))
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, attr, original, wrapper))

    def _wrap(self, fn, namer):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [namer(args, kwargs), time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.item, False]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter_ns()
                self._stack.pop()
            if getattr(result, "degenerate", False):
                self.counters[(self.item, "nld.local_lyapunov.degenerate")] += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self, item):
        """Record spans for `item` while the block runs."""
        self.item = item
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        try:
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)
            self.item = None

    def summary(self, items) -> dict:
        """Seconds per span name and per layer (busy = outermost spans of the
        layer, self = span time not covered by child spans), plus call and
        error counts, summed over spans of the given items."""
        items = set(items)
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, item, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {key: defaultdict(float) for key in ("busy", "self", "layer_busy", "layer_self", "calls", "errors")}
        for idx, (name, start, end, parent, item, error) in enumerate(self.spans):
            if item not in items:
                continue
            dur = (end - start) / 1e9
            own = dur - child_ns[idx] / 1e9
            layer = name.split(".", 1)[0]
            out["busy"][name] += dur
            out["self"][name] += own
            if parent < 0 or self.spans[parent][0].split(".", 1)[0] != layer:
                out["layer_busy"][layer] += dur
            out["layer_self"][layer] += own
            out["calls"][layer] += 1
            out["errors"][layer] += int(error)
        out["counters"] = defaultdict(float)
        for (item, counter), value in self.counters.items():
            if item in items:
                out["counters"][counter] += value
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start_ns", "end_ns", "parent", "item", "error")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
