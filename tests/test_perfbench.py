"""The benchmark's canary items, run through perfbench/workloads.py as it is.

Every workload is built at scale "canary" (fixed seed, 1 s clips), and each
item of its cycle is prepared, run, counted and checked, then compared with
its stored summary in perfbench/reference.json. A change to an API the
benchmark calls, or to an output it checks, fails here.
"""

import importlib
import json
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_canary_items_pass_their_checks(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads, checks = importlib.import_module("workloads"), importlib.import_module("checks")
    references = json.loads((PERFBENCH / "reference.json").read_text())
    for name, cls in workloads.WORKLOADS.items():
        workload = cls(workloads.CANARY_SEED, "canary", tmp_path / name)
        for item in workload.cycle:
            workload.prepare(item)
            result = workload.run(item)
            workload.counts(item)
            assert workload.check(item, result) == [], (name, item.key)
            summary = checks.summarize(result)
            assert checks.disagreements(references[name][item.key], summary) == [], (name, item.key)


def test_tracer_records_the_traced_layers(monkeypatch, tmp_path):
    """perfbench/tracing.py wraps bwetools functions by name: a traced function
    that is deleted or renamed fails here, not only in a traced benchmark run."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads, tracing = importlib.import_module("workloads"), importlib.import_module("tracing")
    tracer = tracing.Tracer()
    for name in ("corpus_score", "discriminator_features"):
        workload = workloads.WORKLOADS[name](workloads.CANARY_SEED, "canary", tmp_path / name)
        item = workload.cycle[0]
        workload.prepare(item)
        with tracer.active(item.key):
            workload.run(item)
    names = {span[0] for span in tracer.spans}
    assert {"featmaps.mrld_features", "nld.dfa_fluctuation", "metrics.stoi"} <= names


# input_digest() of each workload built at scale "small" from CANARY_SEED, as
# taken from the serial harmonic loop of demo.synthetic_speech. cli_batch is
# left out: its digest covers a degraded WAV whose last bits follow the BLAS
# thread count.
SMALL_INPUT_DIGESTS = {
    "corpus_score": "3fe8fb675cd1059c72dad9f6df750f9b352295fdf36f549eef51d9304333812d",
    "discriminator_features": "71aa77777749196f68d80f63d38fccbade9725ee659324db6ebc21d76968af65",
}


def test_small_inputs_are_pinned(monkeypatch, tmp_path):
    """The benchmark's inputs feed its reference figures, so set-up must
    rebuild them bit for bit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    for name, expected in SMALL_INPUT_DIGESTS.items():
        workload = workloads.WORKLOADS[name](workloads.CANARY_SEED, "small", tmp_path / name)
        assert workload.input_digest() == expected, name
