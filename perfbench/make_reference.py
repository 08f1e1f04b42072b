"""Regenerate reference.json: the checked outputs of every workload's canary
items (fixed seed, 1 s clips), summarized as the run-time checks see them.

    python3 perfbench/make_reference.py

Run it only when an output change is intended, and say why in the change.
"""

import json
import shutil
import sys

import run


def main() -> int:
    run.load_package()
    import checks
    from workloads import WORKLOADS

    reference = {}
    workdir = run.WORK / "reference"
    try:
        for name, cls in WORKLOADS.items():
            entries = reference[name] = {}
            for canary, item_id, item, result, replay in run.canary_calls(cls, workdir / name):
                problems = canary.check(item, result, replay=replay)
                if problems:
                    sys.exit(f"{name} {item_id} {item.key}: {problems}")
                entries.setdefault(item.key, checks.summarize(result))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
