"""Self-test of the benchmark at its smallest size (1-2 s clips, 1 s runs).

    python3 perfbench/selftest.py

Checks that
- every workload, untraced and traced, ends its stdout with a result whose
  metrics are exactly the BENCHMARK.json metrics, each with its unit, and
  that the seed code passes every output check;
- a deliberately corrupted output counts as a failed item (in-process
  result, CLI stdout, and a canary checked against reference.json);
- the same seed gives identical input digests and another seed changes them;
- without the bwetools sources the benchmark exits non-zero and prints no
  result.
Exits non-zero on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus_score", "discriminator_features", "cli_batch")


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--seconds", "1", *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(out) -> dict:
    if out.returncode != 0:
        raise AssertionError(f"benchmark exited {out.returncode}: {out.stderr[-1500:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics(spec: dict) -> None:
    for workload in WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = result_of(bench("--workload", workload, "--seed", "7", "--trace", str(trace), "--small"))
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == expected, f"{workload} trace {trace}: {set(got) ^ set(expected)} differ"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), (workload, name, m)
            assert result["correct"] and result["failed"] == 0, (workload, trace, result)
            print(f"ok  {workload} trace {trace}: {len(got)} metrics with units, all outputs correct")


def check_corruption() -> None:
    cases = (
        ("corpus_score", "0", "in-process result"),
        ("discriminator_features", "0", "in-process result"),
        ("cli_batch", "0", "CLI stdout against the stored netinfo reference"),
        ("discriminator_features", "c0", "canary against reference.json"),
    )
    for workload, item, what in cases:
        out = bench("--workload", workload, "--seed", "7", "--trace", "1", "--small", "--corrupt", item)
        result = result_of(out)
        detail = json.loads(out.stdout.strip().splitlines()[-2])
        listed = [f["item"] for f in detail["failures"]]
        assert not result["correct"], f"{workload}: corrupted {what} passed"
        if item.startswith("c"):
            assert any(name.startswith(f"canary {item} ") for name in listed), listed
        else:
            assert result["failed"] >= 1, result
            assert any(name.startswith(f"{item} ") for name in listed), listed
        print(f"ok  {workload}: corrupted {what} counted as a failure ({listed[0]})")


def digest(workload: str, seed: int) -> str:
    out = bench("--workload", workload, "--seed", str(seed), "--small", "--setup-only")
    if out.returncode != 0:
        raise AssertionError(f"set-up exited {out.returncode}: {out.stderr[-1500:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])["input_digest"]


def check_digests() -> None:
    for workload in WORKLOADS:
        first, again, other = digest(workload, 3), digest(workload, 3), digest(workload, 4)
        assert first == again, f"{workload}: seed 3 gave {first} then {again}"
        assert first != other, f"{workload}: seeds 3 and 4 gave the same inputs"
        print(f"ok  {workload}: inputs reproduce for one seed and change with another")


def check_without_sources() -> None:
    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        out = bench("--workload", "corpus_score", "--seed", "0", "--trace", "0", cwd=bare)
        assert out.returncode != 0, "benchmark succeeded without bwetools sources"
        assert '"correct"' not in out.stdout, "benchmark printed a result without sources"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without sources: non-zero exit, no result")


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    check_metrics(spec)
    check_corruption()
    check_digests()
    check_without_sources()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
