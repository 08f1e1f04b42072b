"""Command-line front end.

Subcommands: degrade, features, compare, netinfo. features, compare and
netinfo write a JSON result to standard output (floats fixed to 6
significant digits for reproducible byte-identical reruns); degrade writes
only the output WAV. Diagnostics go to standard error. Exit codes: 0 ok,
2 I/O failure, 3 invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import featmaps, metrics, netshape, nld, signal, spectral
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
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UnreadableFileError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise InvalidArgumentError("config must be a flat JSON object")
    unknown = sorted(set(cfg) - set(keys))
    if unknown:
        raise InvalidArgumentError(
            f"config keys {unknown} are not used by this command (it accepts {list(keys)})"
        )
    return cfg


def _int_option(cfg: dict, key: str, default: int) -> int:
    value = cfg.get(key, default)
    if type(value) is not int:
        raise InvalidArgumentError(f"config {key!r} must be an integer, got {value!r}")
    return value


def cmd_degrade(args, cfg: dict) -> int:
    wf = signal.load_wav(args.input)
    out = signal.degrade(wf, args.low_rate)
    signal.save_wav(args.output, out)
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
        spectral.write_csv(out_dir / f"{name}.csv", grid)
        if f32:
            spectral.write_f32(out_dir / f"{name}.f32", grid)
    return [f"{name}.csv" for name in grids]


def _write_stack(stack: featmaps.FeatureMapStack, out_dir: Path, name: str) -> dict:
    grids = {f"{name}_ch{c}": stack.data[c] for c in range(stack.channels)}
    return {
        "extractor": name,
        "shape": list(stack.data.shape),
        "meta": stack.meta,
        "files": _export(out_dir, grids),
    }


def _mrld(wf: signal.Waveform, cfg: dict, out_dir: Path) -> dict:
    windows = cfg.get("windows", featmaps.DEFAULT_LYAPUNOV_WINDOWS)
    return _write_stack(featmaps.mrld_features(wf, windows), out_dir, "mrld")


def _msdfa(wf: signal.Waveform, cfg: dict, out_dir: Path) -> dict:
    scales = cfg.get("scales", featmaps.DEFAULT_DFA_SCALES)
    side = _int_option(cfg, "side", 64)
    return _write_stack(featmaps.msdfa_features(wf, scales, side), out_dir, "msdfa")


def _mrad_mrpd(wf: signal.Waveform, cfg: dict, out_dir: Path) -> dict:
    mr_cfg = featmaps.MultiResSpecConfig()
    grids = {}
    for r, mp in enumerate(featmaps.mrad_mrpd_features(wf, mr_cfg)):
        grids[f"mrad_mrpd_res{r}_mag"] = mp.mag
        grids[f"mrad_mrpd_res{r}_phase"] = mp.phase
    return {
        "extractor": "mrad_mrpd",
        "resolutions": featmaps.resolution_params(mr_cfg),
        "files": _export(out_dir, grids),
    }


def _rp(wf: signal.Waveform, cfg: dict, out_dir: Path) -> dict:
    plot = nld.recurrence_plot(wf.samples, _int_option(cfg, "max_size", 512))
    return {
        "extractor": "rp",
        "shape": list(plot.matrix.shape),
        "threshold": plot.threshold,
        "files": _export(out_dir, {"recurrence": plot.matrix}, f32=False),
    }


def _poincare(wf: signal.Waveform, cfg: dict, out_dir: Path) -> dict:
    desc = nld.poincare_sd(wf.samples)
    return {"extractor": "poincare", "sd1": desc.sd1, "sd2": desc.sd2, "clamped": desc.clamped}


# extractor name -> ((waveform, config, output directory) -> result document,
# the config keys it reads)
EXTRACTORS = {
    "mrld": (_mrld, ("windows",)),
    "msdfa": (_msdfa, ("scales", "side")),
    "mrad_mrpd": (_mrad_mrpd, ()),
    "rp": (_rp, ("max_size",)),
    "poincare": (_poincare, ()),
}


def cmd_features(args, cfg: dict) -> int:
    wf = signal.load_wav(args.input)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc = EXTRACTORS[args.extractor][0](wf, cfg, out_dir)
    (out_dir / f"{args.extractor}_meta.json").write_text(_to_json(doc))
    _emit(doc)
    return EXIT_OK


def cmd_compare(args, cfg: dict) -> int:
    ref = signal.load_wav(args.reference)
    est = signal.load_wav(args.estimate)
    report = metrics.evaluate(ref, est)
    _emit(report.as_dict())
    return EXIT_OK


# network name -> netinfo document
NETWORKS = {
    "mrld": lambda: netshape.describe_net(netshape.build_mrld_cnn()),
    "msdfa": lambda: netshape.describe_net(netshape.build_msdfa_cnn()),
    "generator": lambda: netshape.describe_generator(netshape.GeneratorGraph()),
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
    parser.add_argument("--config", help="flat JSON config file; flags override its values")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("degrade", help="bandlimit a WAV through a lower sample rate")
    p.add_argument("input")
    p.add_argument("low_rate", type=int)
    p.add_argument("output")
    # low_rate is accepted and ignored: the positional rate is the one used
    p.set_defaults(func=cmd_degrade, keys=lambda args: ("low_rate",))

    p = sub.add_parser("features", help="extract feature maps to CSV/f32 dumps")
    p.add_argument("input")
    p.add_argument("extractor", choices=EXTRACTORS)
    p.add_argument("out_dir")
    p.set_defaults(func=cmd_features, keys=lambda args: EXTRACTORS[args.extractor][1])

    p = sub.add_parser("compare", help="objective metrics for a reference/estimate pair")
    p.add_argument("reference")
    p.add_argument("estimate")
    p.set_defaults(func=cmd_compare, keys=lambda args: ())

    p = sub.add_parser("netinfo", help="network shape and parameter accounting")
    p.add_argument("which", choices=NETWORKS)
    p.set_defaults(func=cmd_netinfo, keys=lambda args: ())
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        cfg = _load_config(args.config, args.keys(args))
        return args.func(args, cfg)
    except (UnreadableFileError, UnsupportedEncodingError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
