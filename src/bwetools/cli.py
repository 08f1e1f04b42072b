"""Command-line front end.

Subcommands: degrade, features, compare, netinfo. features, compare and
netinfo write a JSON result to standard output (floats fixed to 6
significant digits for reproducible byte-identical reruns); degrade writes
only the output WAV. Diagnostics go to standard error. Exit codes: 0 ok,
2 I/O failure, 3 invalid arguments.

Each library module is reached through the package at call time
(`bwetools.signal.load_wav`), so a subcommand loads only the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import bwetools
from .errors import InvalidArgumentError, UnreadableFileError, UnsupportedEncodingError

EXIT_OK = 0
EXIT_IO = 2
EXIT_USAGE = 3


def _round_floats(obj):
    if isinstance(obj, float):
        if obj == 0 or not math.isfinite(obj):
            return obj
        return float(f"{obj:.6g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _to_json(doc: dict) -> str:
    try:
        return json.dumps(_round_floats(doc), indent=1, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise InvalidArgumentError(f"result is not finite: {exc}") from exc


def _emit(doc: dict) -> None:
    sys.stdout.write(_to_json(doc) + "\n")


def _load_config(path: str | None, keys: tuple) -> dict:
    """The flat JSON object at path ({} without one); a key outside `keys`,
    the ones the chosen command accepts, is an error."""
    if not path:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UnreadableFileError(f"cannot read config {path!r}: {exc}") from exc
    except ValueError as exc:  # undecodable UTF-8 or malformed JSON
        raise InvalidArgumentError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidArgumentError("config must be a flat JSON object")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise InvalidArgumentError(
            f"config keys {unknown} are not used by this command (it accepts {list(keys)})"
        )
    return cfg


def cmd_degrade(args, cfg: dict) -> int:
    wf = bwetools.signal.load_wav(args.input)
    out = bwetools.signal.degrade(wf, args.low_rate)
    bwetools.signal.save_wav(args.output, out)
    print(
        f"degraded {args.input} ({wf.rate} Hz) through {args.low_rate} Hz -> {args.output} "
        f"({len(out)} samples)",
        file=sys.stderr,
    )
    return EXIT_OK


def _export(out_dir: Path, grids: dict, f32: bool = True) -> list[str]:
    """Write each grid to <name>.csv, then <name>.f32 when f32 is set, in
    order; returns the CSV file names."""
    for name, grid in grids.items():
        bwetools.spectral.write_csv(out_dir / f"{name}.csv", grid)
        if f32:
            bwetools.spectral.write_f32(out_dir / f"{name}.f32", grid)
    return [f"{name}.csv" for name in grids]


def _write_stack(name: str, stack: bwetools.featmaps.FeatureMapStack, out_dir: Path) -> dict:
    grids = {f"{name}_ch{c}": stack.data[c] for c in range(stack.channels)}
    return {
        "extractor": name,
        "shape": list(stack.data.shape),
        "meta": stack.meta,
        "files": _export(out_dir, grids),
    }


def _write_mrad_mrpd(name: str, mag_phases: list, out_dir: Path) -> dict:
    grids = {}
    for r, mp in enumerate(mag_phases):
        grids[f"{name}_res{r}_mag"] = mp.mag
        grids[f"{name}_res{r}_phase"] = mp.phase
    return {
        "extractor": name,
        "resolutions": bwetools.featmaps.resolution_params(bwetools.featmaps.MultiResSpecConfig()),
        "files": _export(out_dir, grids),
    }


def _write_rp(name: str, plot: bwetools.nld.RecurrencePlot, out_dir: Path) -> dict:
    return {
        "extractor": name,
        "shape": list(plot.matrix.shape),
        "threshold": plot.threshold,
        "files": _export(out_dir, {"recurrence": plot.matrix}, f32=False),
    }


def _write_poincare(name: str, desc: bwetools.nld.PoincareDescriptors, out_dir: Path) -> dict:
    return {"extractor": name, "sd1": desc.sd1, "sd2": desc.sd2, "clamped": desc.clamped}


# extractor name -> ((waveform, **config) -> features, (name, features, out_dir)
# -> result document, config keys: the library function's keyword names, which
# it defaults and checks). Each call looks the library function up anew.
EXTRACTORS = {
    "mrld": (lambda wf, **cfg: bwetools.featmaps.mrld_features(wf, **cfg), _write_stack, ("windows",)),
    "msdfa": (lambda wf, **cfg: bwetools.featmaps.msdfa_features(wf, **cfg), _write_stack, ("scales", "side")),
    "mrad_mrpd": (lambda wf, **cfg: bwetools.featmaps.mrad_mrpd_features(wf, **cfg), _write_mrad_mrpd, ()),
    "rp": (lambda wf, **cfg: bwetools.nld.recurrence_plot(wf.samples, **cfg), _write_rp, ("max_size",)),
    "poincare": (lambda wf, **cfg: bwetools.nld.poincare_sd(wf.samples, **cfg), _write_poincare, ()),
}


def cmd_features(args, cfg: dict) -> int:
    features, write, _ = EXTRACTORS[args.extractor]
    result = features(bwetools.signal.load_wav(args.input), **cfg)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = write(args.extractor, result, out_dir)
    (out_dir / f"{args.extractor}_meta.json").write_text(_to_json(doc))
    _emit(doc)
    return EXIT_OK


def cmd_compare(args, cfg: dict) -> int:
    ref = bwetools.signal.load_wav(args.reference)
    est = bwetools.signal.load_wav(args.estimate)
    report = bwetools.metrics.evaluate(ref, est)
    _emit(report.as_dict())
    return EXIT_OK


# network name -> netinfo document
NETWORKS = {
    "mrld": lambda: bwetools.netshape.describe_net(bwetools.netshape.build_mrld_cnn()),
    "msdfa": lambda: bwetools.netshape.describe_net(bwetools.netshape.build_msdfa_cnn()),
    "generator": lambda: bwetools.netshape.describe_generator(bwetools.netshape.GeneratorGraph()),
}


def cmd_netinfo(args, cfg: dict) -> int:
    _emit(NETWORKS[args.which]())
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bwetools",
        description="Bandwidth-extension analysis toolkit: degradation "
        "simulation, nonlinear-dynamics feature maps, objective metrics, "
        "and network shape inspection.",
    )
    parser.add_argument(
        "--config",
        help="flat JSON object of keyword arguments for the features extractor; "
        "sizes must be integral numbers, and an unset key takes the library default",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="bandlimit a WAV through a lower sample rate")
    p.add_argument("input")
    p.add_argument("low_rate", type=int)
    p.add_argument("output")
    p.set_defaults(func=cmd_degrade)

    p = sub.add_parser("features", help="extract feature maps to CSV/f32 dumps")
    p.add_argument("input")
    p.add_argument("extractor", choices=EXTRACTORS)
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("compare", help="objective metrics for a reference/estimate pair")
    p.add_argument("reference")
    p.add_argument("estimate")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("netinfo", help="network shape and parameter accounting")
    p.add_argument("which", choices=NETWORKS)
    p.set_defaults(func=cmd_netinfo)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        keys = EXTRACTORS[args.extractor][2] if args.command == "features" else ()
        cfg = _load_config(args.config, keys)
        return args.func(args, cfg)
    except (UnreadableFileError, UnsupportedEncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
