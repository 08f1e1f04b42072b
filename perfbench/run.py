"""bwetools benchmark: a closed loop with one client.

    python3 perfbench/run.py --workload corpus_score --seed 1 --seconds 20 --trace 0

The next item starts only when the previous one has finished. Items are timed
from outside the package through its public API (or, for cli_batch, as one
`python -m bwetools.cli` subprocess each), and every output is checked. The
last stdout line is the result JSON; the line before it holds the details
(environment, tail percentile and sample count, failures by item, computed
work counts). `--workload all` runs every workload, each in its own process.

--trace 0 reports the end-to-end metrics. --trace 1 runs each item's
in-process work a second time with spans recorded around every traced
bwetools call and reports the per-layer metrics instead; see README.md.
"""

import time

T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import LAYERS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
# extra fresh-process set-ups; setup_s is the median of 1 + SETUP_PROBES. Each
# costs a full set-up (about 8 s for corpus_score on a 2-core machine)
SETUP_PROBES = 1
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
WORKLOAD_NAMES = ("corpus_score", "discriminator_features", "cli_batch")

END_TO_END = {
    "setup_s": "s",
    "audio_s_per_s": "s/s",
    "item_s_p50": "s",
    "item_s_tail": "s",
    "peak_rss_mb": "MB",
}
LYAPUNOV_WINDOWS = (64, 128, 256, 512, 1024)
CLI_SUBCOMMANDS = ("degrade", "features", "compare", "netinfo")
PER_LAYER = {
    "signal.load_wav.busy_s": "s",
    "signal.save_wav.busy_s": "s",
    "signal.degrade.busy_s": "s",
    "signal.resample.busy_s": "s",
    "signal.resample.taps": "count",
    "spectral.stft.busy_s": "s",
    "spectral.stft.frames": "count",
    "spectral.write_csv.busy_s": "s",
    "spectral.write_f32.busy_s": "s",
    "spectral.bytes_written": "bytes",
    **{f"nld.local_lyapunov.w{w}.busy_s": "s" for w in LYAPUNOV_WINDOWS},
    "nld.local_lyapunov.segments": "count",
    "nld.local_lyapunov.pair_distances": "count",
    "nld.local_lyapunov.degenerate": "count",
    "nld.dfa_fluctuation.busy_s": "s",
    "featmaps.mrld_features.busy_s": "s",
    "featmaps.mrld_features.self_s": "s",
    "featmaps.msdfa_features.busy_s": "s",
    "featmaps.mrad_mrpd_features.busy_s": "s",
    "metrics.lsd.busy_s": "s",
    "metrics.si_sdr.busy_s": "s",
    "metrics.si_snr.busy_s": "s",
    "metrics.stoi.busy_s": "s",
    "netshape.forward_cnn.mrld.busy_s": "s",
    "netshape.forward_cnn.msdfa.busy_s": "s",
    "netshape.init_weights.busy_s": "s",
    "netshape.generator_forward.busy_s": "s",
    "netshape.conv_macs.mrld": "count",
    "netshape.conv_macs.msdfa": "count",
    "cli.startup_s": "s",
    **{f"cli.main.{sub}.busy_s": "s" for sub in CLI_SUBCOMMANDS},
    "cli.stdout_bytes": "bytes",
    "demo.synthetic_speech.busy_s": "s",
    **{f"{layer}.{m}": u for layer in LAYERS for m, u in (("busy_s", "s"), ("self_s", "s"), ("calls", "count"), ("errors", "count"))},
    "trace.overhead_s": "s",
}


def seconds_since_process_start() -> float:
    """Wall time since the kernel started this process (10 ms ticks), so
    interpreter start-up counts; falls back to time since this file loaded."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        elapsed = -1.0
    fallback = time.perf_counter() - T_IMPORT
    return elapsed if fallback <= elapsed < fallback + 60 else fallback


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="1-2 s clips, for the self-test")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--corrupt", help=argparse.SUPPRESS)  # item id (or c<k> for canary k) to perturb
    return parser.parse_args(argv)


def load_package():
    """Import bwetools from this checkout's src/ and nowhere else."""
    if not (SRC / "bwetools" / "__init__.py").is_file():
        sys.exit(f"error: bwetools sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import bwetools

    if Path(bwetools.__file__).resolve().parent != (SRC / "bwetools").resolve():
        sys.exit(f"error: imported bwetools from {bwetools.__file__}, not {SRC}")


def tail(times):
    """Value at the highest percentile with TAIL_BEYOND samples beyond it
    (the maximum when there are too few samples), and that percentile."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1 if len(ordered) > TAIL_BEYOND else len(ordered) - 1
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def canary_calls(cls, workdir: Path):
    """The fixed-seed canary items run as warm-up: (id, item, result, replay)."""
    from workloads import CANARY_SEED

    canary = cls(CANARY_SEED, "canary", workdir)
    calls = [(f"c{k}", item, canary.warm) for k, item in enumerate(canary.cycle)]
    if not canary.in_process:
        # one real subprocess compiles bytecode and fills the page cache
        calls.append((f"c{len(calls)}", canary.cycle[0], canary.run))
    for item_id, item, fn in calls:
        canary.prepare(item)
        yield canary, item_id, item, fn(item), fn == canary.warm


def load_reference(name: str) -> dict:
    with open(HERE / "reference.json") as fh:
        return json.load(fh)[name]


def warm_up(cls, workdir: Path, corrupt) -> list[dict]:
    """Run the canary items and check them against reference.json; returns
    the failures."""
    import checks

    reference = load_reference(cls.name)
    failures = []
    for canary, item_id, item, result, replay in canary_calls(cls, workdir):
        if corrupt == item_id:
            result = checks.corrupt(result)
        problems = canary.check(item, result, replay=replay)
        problems += checks.disagreements(reference[item.key], checks.summarize(result))
        failures += [{"item": f"canary {item_id} {item.key}", "problem": p} for p in problems]
    return failures


def run_item(workload, item, i, tracer, records, expected, corrupt):
    """Time one item; in a traced run also time its in-process work plain
    and traced. Appends a record; returns the problems found."""
    import checks

    workload.prepare(item)
    traced = None
    if tracer is None:
        result, t = time_call(workload.run, item)
    else:
        calls = ["plain"] + ([] if workload.in_process else ["replay"])
        calls.insert(len(calls) if i % 2 == 0 else 0, "traced")
        out = {}
        for mode in calls:
            fn = workload.run if mode == "plain" else workload.warm
            with tracer.active(i) if mode == "traced" else nullcontext():
                out[mode] = time_call(fn, item)
        result, t = out["plain"]
        traced = out
    if corrupt == str(i):
        result = checks.corrupt(result)
    problems = workload.check(item, result)
    summary = checks.summarize(result)
    problems += checks.disagreements(expected.setdefault(item.key, summary), summary)
    record = {"i": i, "key": item.key, "t": t, "audio_s": item.audio_s}
    if not workload.in_process:
        record["rss_mb"] = workload.last_rss_mb
    record.update(workload.measured(item, result))
    if traced is not None:
        base = traced["plain" if workload.in_process else "replay"][1]
        record["overhead_s"] = traced["traced"][1] - base
        if not workload.in_process:
            record["startup_s"] = t - base
        for mode in traced:
            if mode == "plain":
                continue
            other = traced[mode][0]
            problems += [f"{mode}: {p}" for p in workload.check(item, other, replay=True)]
            problems += [f"{mode}: {p}" for p in checks.disagreements(summary, checks.summarize(other))]
    record["failed"] = bool(problems)
    records.append(record)
    return problems


def time_call(fn, item):
    t0 = time.perf_counter()
    result = fn(item)
    return result, time.perf_counter() - t0


def setup_probe(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--setup-only"] + (["--small"] if args.small else [])
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({out.returncode}): {out.stderr[-500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def end_to_end(workload, records, setup_samples) -> dict:
    times = [r["t"] for r in records]
    by_key = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(r["t"])
    # throughput of one pass over the item cycle from each item's median time,
    # so that one stalled item does not move it
    cycle_s = sum(statistics.median(by_key[item.key]) for item in workload.cycle)
    if workload.in_process:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        rss = max(r["rss_mb"] for r in records)
    return {
        "setup_s": statistics.median(setup_samples),
        "audio_s_per_s": workload.cycle_audio_s / cycle_s,
        "item_s_p50": statistics.median(times),
        "item_s_tail": tail(times)[0],
        "peak_rss_mb": rss,
    }


def per_layer(workload, records, tracer, cycle_counts) -> dict:
    n = len(records)
    s = tracer.summary(range(n))
    setup = tracer.summary(["setup"])
    cycle_len = len(workload.cycle)

    def per_cycle_item(value):
        return value / cycle_len

    first = {}
    for r in records:
        first.setdefault(r["key"], r)
    lyap = cycle_counts.get("lyapunov", {})
    out = {
        "signal.resample.taps": per_cycle_item(sum(cycle_counts.get("taps", {}).values())),
        "spectral.stft.frames": per_cycle_item(cycle_counts.get("stft_frames", 0)),
        "spectral.bytes_written": per_cycle_item(sum(r.get("bytes_written", 0) for r in first.values())),
        "nld.local_lyapunov.segments": per_cycle_item(sum(v["segments"] for v in lyap.values())),
        "nld.local_lyapunov.pair_distances": per_cycle_item(sum(v["pair_distances"] for v in lyap.values())),
        "nld.local_lyapunov.degenerate": s["counters"]["nld.local_lyapunov.degenerate"] / n,
        "featmaps.mrld_features.self_s": s["self"]["featmaps.mrld_features"] / n,
        "netshape.conv_macs.mrld": per_cycle_item(cycle_counts.get("conv_macs", {}).get("mrld", 0)),
        "netshape.conv_macs.msdfa": per_cycle_item(cycle_counts.get("conv_macs", {}).get("msdfa", 0)),
        "cli.startup_s": statistics.fmean(r.get("startup_s", 0.0) for r in records),
        "cli.stdout_bytes": per_cycle_item(sum(r.get("stdout_bytes", 0) for r in first.values())),
        "demo.synthetic_speech.busy_s": setup["busy"]["demo.synthetic_speech"],
        "trace.overhead_s": statistics.median(r["overhead_s"] for r in records),
    }
    for layer in LAYERS:
        # demo runs only during set-up: its figures are per run, not per item
        src, div = (setup, 1) if layer == "demo" else (s, n)
        out[f"{layer}.busy_s"] = src["layer_busy"][layer] / div
        out[f"{layer}.self_s"] = src["layer_self"][layer] / div
        out[f"{layer}.calls"] = src["calls"][layer] / div
        out[f"{layer}.errors"] = src["errors"][layer] / div
    for name in PER_LAYER:
        if name not in out:
            # span names: "<layer>.<function>[.<variant>]"
            out[name] = s["busy"][name.removesuffix(".busy_s")] / n
    return out


def run_workload(args) -> tuple[dict, dict]:
    import envinfo
    import tracing
    from workloads import WORKLOADS, cycle_counts

    cls = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    tracer = tracing.Tracer() if args.trace else None
    try:
        with tracer.active("setup") if tracer else nullcontext():
            workload = cls(args.seed, "small" if args.small else "full", workdir / "inputs")
            canary_failures = warm_up(cls, workdir / "canary", args.corrupt)
        setup_s = seconds_since_process_start()
        if args.setup_only:
            return {"setup_s": setup_s, "input_digest": workload.input_digest()}, {}

        records, expected, failures, raised = [], {}, [], []
        cycle = workload.cycle
        reference = load_reference(cls.name)
        for item in cycle:
            if workload.seed_independent(item):
                expected[item.key] = reference[item.key]
        # whole cycles, so every run times the same mix of items, and untraced
        # at least TAIL_BEYOND + 1 items, so item_s_tail has samples beyond it
        min_items = len(cycle) if args.trace else TAIL_BEYOND + 1
        deadline = time.perf_counter() + args.seconds
        i = 0
        while i % len(cycle) or i < min_items or time.perf_counter() < deadline:
            item = cycle[i % len(cycle)]
            try:
                problems = run_item(workload, item, i, tracer, records, expected, args.corrupt)
            except Exception as exc:  # an item that raises is a failed item; the loop goes on
                problems = [f"raised {type(exc).__name__}: {exc}"]
                raised.append(i)
            failures += [{"item": f"{i} {item.key}", "problem": p} for p in problems]
            i += 1
        if not records:
            raise RuntimeError("no item completed: " + json.dumps(failures[:5]))

        setup_samples = [setup_s]
        if not args.trace:
            setup_samples += [setup_probe(args) for _ in range(SETUP_PROBES)]
        counts = cycle_counts(workload)
        if tracer is None:
            metrics = end_to_end(workload, records, setup_samples)
            units = END_TO_END
        else:
            metrics = per_layer(workload, records, tracer, counts)
            units = PER_LAYER
            tracer.dump(WORK / "spans" / f"{args.workload}-seed{args.seed}.jsonl")
        # items that raised have no time; they count as attempted and failed
        failed = sum(r["failed"] for r in records) + len(raised)
        attempted = len(records) + len(raised)
        times = [r["t"] for r in records]
        tail_value, tail_pct = tail(times)
        detail = {
            "workload": args.workload,
            "trace": args.trace,
            "closed_loop_clients": 1,
            "environment": envinfo.collect(args.seed, ROOT),
            "input_digest": workload.input_digest(),
            "cycle": [item.key for item in cycle],
            "items": attempted,
            "item_times_s": [[r["key"], r["t"]] for r in records],
            "item_s_tail": {"value": tail_value, "percentile": tail_pct, "samples": len(times)},
            "fail_ratio": failed / attempted,
            "failures": (canary_failures + failures)[:50],
            "setup_s_samples": setup_samples,
            "work_counts_per_cycle": {"label": "computed", **counts},
            "unit_basis": "per item (mean) unless the metric is demo.* (per run set-up)",
        }
        result = {
            "correct": failed == 0 and not canary_failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_table(result, detail):
    print(f"# {detail['workload']} ({'traced' if detail['trace'] else 'untraced'}), "
          f"{detail['items']} items, fail_ratio {detail['fail_ratio']:.4g} ratio")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    t = detail["item_s_tail"]
    print(f"  item_s_tail is p{t['percentile']:.4g} of {t['samples']} samples")
    for f in detail["failures"]:
        print(f"  FAILED {f['item']}: {f['problem']}")


def run_all(args) -> int:
    """Each workload in its own process; prints all tables, then one JSON."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--small"] if args.small else [])
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        if out.returncode != 0:
            sys.stderr.write(out.stderr)
            return out.returncode
        lines = out.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-2]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    load_package()
    if args.workload == "all":
        return run_all(args)
    result, detail = run_workload(args)
    if args.setup_only:
        print(json.dumps(result))
        return 0
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"result": result, "detail": detail}, fh, indent=1)
    print_table(result, detail)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
