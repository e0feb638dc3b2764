"""E21 — Observation cost of the differential verdict: phase shares.

Claims:

* **Digests** (asserted on every run, quick or full): each
  ``verify_many(seed, 8, "large")`` batch reports PASS with the report
  digest pinned in ``perfbench/pins.json``, traced and untraced alike;
  so does one fuzz-small batch, ``fuzz(1000 * 1 + 0, 32, "small")``.
* **Event kinds** (asserted on every run): one more untimed pass over
  the verify batches counts the fired events by callback kind, and the
  counts add up to the traced ``sim.events``.
* **Trace share** (gated in full mode only): trace queries — every
  ``Trace.records`` call plus the CAN and FlexRay latency lookups,
  outermost call only — take less than ``TRACE_SHARE_CEIL`` of item
  time.  Before the trace kept a (category, subject) index they took
  more than the simulation itself.

Recorded, never gated (host times depend on the machine): the host
cost per simulated event (``sim.host_ns_per_event``, simulate self
time over fired events, traced run) for verify and fuzz, and the fuzz
batch's phase shares.

The layer wrappers are the repo benchmark's own
(:func:`perfbench.layers.install_layers`), imported rather than
copied, so the shares here and perfbench's traced per-layer figures
cannot disagree.  Batch ``k`` of seed ``s`` uses the program seed
``1000 * s + k``, as perfbench does.  Every run persists wall time,
per-layer self-time shares, perfbench's traced counts and the digests to
``BENCH_e21_observe.json`` at the repo root.

Run ``PYTHONPATH=src python benchmarks/bench_e21_observe.py [--quick]``.
"""

import argparse
import json
import os
import sys
import time
from collections import Counter, defaultdict
from importlib import import_module

from _tables import print_table

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path.insert(0, REPO_ROOT)

from perfbench.layers import Patches, Tracer, install_layers  # noqa: E402
from perfbench.metrics import self_times  # noqa: E402

import repro.verify.oracle as oracle  # noqa: E402
from repro.sim.kernel import Simulator  # noqa: E402

# import_module: the package rebinds ``repro.verify.fuzz`` to the
# ``fuzz`` function.
fuzz_module = import_module("repro.verify.fuzz")

WORKLOAD = "verify-large"
SEEDS = (1, 7)
BATCH_SYSTEMS = 8
TRACE_SHARE_CEIL = 0.10
PINS_PATH = os.path.join(REPO_ROOT, "perfbench", "pins.json")
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_e21_observe.json")
#: perfbench per-layer figures recorded alongside the shares.
TRACED = ("trace.queries", "trace.records_returned", "trace.us_per_query",
          "trace.records_logged", "sim.events", "sim.host_ns_per_event",
          "invariants.records_fed")
FUZZ_WORKLOAD = "fuzz-small"
#: (perfbench seed, batch index) of the fuzz batch, and its budget.
FUZZ_BATCH = (1, 0)
FUZZ_BUDGET = 32


def _batches(quick: bool) -> list[tuple[int, int]]:
    """(perfbench seed, batch index) pairs: the first batch of every
    seed when quick, the first four otherwise."""
    return [(seed, index) for seed in SEEDS
            for index in range(1 if quick else 4)]


def _run(batches) -> tuple[list[str], float]:
    """Digests of the batches in order, and their total wall time."""
    digests, wall = [], 0.0
    for seed, index in batches:
        started = time.perf_counter()
        report = oracle.verify_many(1000 * seed + index, BATCH_SYSTEMS,
                                    "large", jobs=1)
        wall += time.perf_counter() - started
        assert report.passed, f"seed {seed} batch {index}: verdict FAIL"
        digests.append(report.digest())
    return digests, wall


def _run_fuzz() -> tuple[str, float]:
    """Digest and wall time of the fuzz batch."""
    seed, index = FUZZ_BATCH
    started = time.perf_counter()
    report = fuzz_module.fuzz(1000 * seed + index, FUZZ_BUDGET, "small",
                              jobs=1)
    wall = time.perf_counter() - started
    assert not report.findings, f"fuzz batch {seed}:{index}: findings"
    return report.digest(), wall


def _kind(callback) -> str:
    """A fired event's kind: its callback's qualified name without the
    ``<locals>`` steps (``FlexRayBus._static_slot_end``,
    ``EcuKernel._schedule_periodic.fire``)."""
    function = getattr(callback, "func", callback)      # partial
    function = getattr(function, "__func__", function)  # bound method
    name = getattr(function, "__qualname__", type(function).__name__)
    return name.replace(".<locals>", "")


def _event_kinds(batches) -> Counter:
    """Fired events by kind over the batches: every scheduled callback
    is wrapped with a counter, so the order and number of events stay
    those of an unpatched run."""
    kinds: Counter = Counter()

    def counted(callback):
        kind = _kind(callback)

        def fire():
            kinds[kind] += 1
            return callback()
        return fire

    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
    patches = Patches()
    patches.patch(Simulator, "schedule",
                  lambda sim, delay, callback, priority=0: schedule(
                      sim, delay, counted(callback), priority))
    patches.patch(Simulator, "schedule_at",
                  lambda sim, at, callback, priority=0: schedule_at(
                      sim, at, counted(callback), priority))
    try:
        _run(batches)
    finally:
        patches.unpatch()
    return kinds


def _shares(tracer: Tracer) -> tuple[float, dict]:
    """Total item time and each layer's share of it (self times of the
    spans inside items; the item span's own layer is ``oracle``)."""
    by_layer: dict = defaultdict(float)
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        if span.item is not None:
            by_layer[span.layer] += own
    item_s = sum(by_layer.values())
    return item_s, {layer: round(own / item_s, 4)
                    for layer, own in sorted(by_layer.items())}


def run(quick: bool = False) -> list[dict]:
    batches = _batches(quick)
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)["workloads"]
    pinned = pins[WORKLOAD]["digests"]
    expected = [pinned[str(seed)][index] for seed, index in batches]

    digests, wall = _run(batches)
    assert digests == expected, "report digests differ from perfbench pins"

    tracer = Tracer()
    install_layers(tracer, oracle, "verify_system")
    try:
        traced_digests, traced_wall = _run(batches)
    finally:
        tracer.unpatch()
    assert traced_digests == digests, "traced digests differ from untraced"
    item_s, shares = _shares(tracer)
    layer = tracer.layer_metrics()

    kinds = _event_kinds(batches)
    assert sum(kinds.values()) == layer["sim.events"], (
        "events by kind do not add up to the traced sim.events")

    fuzz_seed, fuzz_index = FUZZ_BATCH
    fuzz_pinned = pins[FUZZ_WORKLOAD]["digests"][str(fuzz_seed)][fuzz_index]
    fuzz_digest, fuzz_wall = _run_fuzz()
    assert fuzz_digest == fuzz_pinned, \
        "fuzz digest differs from perfbench pins"
    fuzz_tracer = Tracer()
    install_layers(fuzz_tracer, fuzz_module, "verify_system")
    try:
        fuzz_traced_digest, fuzz_traced_wall = _run_fuzz()
    finally:
        fuzz_tracer.unpatch()
    assert fuzz_traced_digest == fuzz_digest, \
        "traced fuzz digest differs from untraced"
    fuzz_item_s, fuzz_shares = _shares(fuzz_tracer)
    fuzz_layer = fuzz_tracer.layer_metrics()

    systems = len(batches) * BATCH_SYSTEMS
    trace_share = shares.get("trace", 0.0)
    trajectory = {
        "bench": "e21_observe",
        "quick": quick,
        "workload": {"batches": [f"{s}:{i}" for s, i in batches],
                     "systems": systems, "size": "large"},
        "wall": {"untraced_s": round(wall, 4),
                 "systems_per_s": round(systems / wall, 3),
                 "traced_s": round(traced_wall, 4),
                 "traced_item_s": round(item_s, 4)},
        "shares": shares,
        "traced": {name: round(layer[name], 3) for name in TRACED},
        "events_by_kind": dict(kinds.most_common()),
        "digests": {f"{s}:{i}": d for (s, i), d in zip(batches, digests)},
        "fuzz": {
            "batch": f"{fuzz_seed}:{fuzz_index}",
            "budget": FUZZ_BUDGET,
            "size": "small",
            "digest": fuzz_digest,
            "wall": {"untraced_s": round(fuzz_wall, 4),
                     "traced_s": round(fuzz_traced_wall, 4),
                     "traced_item_s": round(fuzz_item_s, 4)},
            "shares": fuzz_shares,
            "traced": {name: round(fuzz_layer[name], 3)
                       for name in TRACED},
        },
        "gates": {
            "trace_share_ceil": TRACE_SHARE_CEIL,
            "enforced": not quick,
            "digests_ok": True,
            "event_kinds_ok": True,
            "trace_share_ok": trace_share < TRACE_SHARE_CEIL,
        },
    }
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = [{"row": "digests vs perfbench pins",
             "value": f"{len(batches)} verify batches and 1 fuzz batch "
                      f"identical, traced too"},
            {"row": "untraced wall",
             "value": f"{wall:.2f} s ({systems / wall:.2f} systems/s)"},
            {"row": "trace queries",
             "value": (f"{layer['trace.queries']:.0f} at "
                       f"{layer['trace.us_per_query']:.0f} us each")},
            {"row": "sim host ns/event (traced)",
             "value": f"{layer['sim.host_ns_per_event']:.0f} over "
                      f"{layer['sim.events']:.0f} events"}]
    rows += [{"row": f"share: {name}", "value": f"{share:.1%}"}
             for name, share in sorted(shares.items(),
                                       key=lambda kv: -kv[1])]
    rows += [{"row": f"events: {kind}", "value": str(count)}
             for kind, count in kinds.most_common(6)]
    rows += [{"row": "fuzz untraced wall",
              "value": f"{fuzz_wall:.2f} s ({FUZZ_BUDGET} executions)"},
             {"row": "fuzz sim host ns/event (traced)",
              "value": f"{fuzz_layer['sim.host_ns_per_event']:.0f} over "
                       f"{fuzz_layer['sim.events']:.0f} events"}]
    rows += [{"row": f"fuzz share: {name}", "value": f"{share:.1%}"}
             for name, share in sorted(fuzz_shares.items(),
                                       key=lambda kv: -kv[1])]
    rows += [{"row": "trajectory",
              "value": os.path.basename(TRAJECTORY_PATH)},
             {"row": "_quick", "value": str(quick)},
             {"row": "_trace_share", "value": str(trace_share)}]
    return rows


def check(rows: list[dict]) -> None:
    by_row = {row["row"]: row["value"] for row in rows}
    # Digests already asserted inside run().  The share gate applies to
    # full runs only.
    if by_row["_quick"] == "True":
        return
    trace_share = float(by_row["_trace_share"])
    assert trace_share < TRACE_SHARE_CEIL, (
        f"trace queries take {trace_share:.1%} of item time, at or "
        f"above the {TRACE_SHARE_CEIL:.0%} ceiling")


TITLE = (f"E21: observation cost of the differential verdict "
         f"({WORKLOAD}, seeds {SEEDS})")


def bench_e21_observe(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, [r for r in rows if not r["row"].startswith("_")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="one batch per seed, digest checks only "
                             "(shares measured and recorded, never gated)")
    options = parser.parse_args()
    table_rows = run(quick=options.quick)
    check(table_rows)
    print_table(TITLE, [r for r in table_rows
                        if not r["row"].startswith("_")])
