"""E21 — Observation cost of the differential verdict.

Claims:

* **Digests** (asserted on every run, quick or full): each
  ``verify_many(seed, 8, "large")`` batch reports PASS with the report
  digest pinned in ``perfbench/pins.json``, traced and untraced alike;
  so does one fuzz-small batch, ``fuzz(1000 * 1 + 0, 32, "small")``.
* **Event kinds** (asserted on every run): one more untimed pass over
  the verify batches counts the fired events by callback kind, and the
  counts add up to the traced ``sim.events``.
* **Streaming observation** (gated on every run; the counts are
  deterministic): the verdict reads no trace record back.  Per verified
  system, trace queries (every ``Trace.records`` call plus the CAN and
  FlexRay latency lookups, outermost call only) stay at or below
  ``QUERIES_PER_SYSTEM_CEIL`` and the records they return at or below
  ``RETURNED_PER_SYSTEM_CEIL``; both ceilings are 0, so a
  reintroduced trace read in the oracle fails the gate.  Before the
  oracle streamed, a large system cost about 63 queries returning
  about 3,100 records.  The same untimed pass counts the records fed
  to the invariants (the records logged to every trace an
  :class:`~repro.verify.invariants.InvariantChecker` was attached to),
  which must equal the traced ``trace.records_logged``: every logged
  record still streams past the invariants.

Recorded, never gated (host times depend on the machine): the host
cost per simulated event (``sim.host_ns_per_event``, simulate self
time over fired events, traced run) for verify and fuzz, the phase
shares of item time, the garbage-collection share of the untraced
verify run's wall time (``gc.callbacks``) and the records the oracle's
traces kept per system.  The trace share of item time is no longer a
gate: it is relative to item time, so it rose whenever simulation got
faster with unchanged trace code, and with streaming it reads about 0
by construction.

The layer wrappers are the repo benchmark's own
(:func:`perfbench.layers.install_layers`), imported rather than
copied, so the shares here and perfbench's traced per-layer figures
cannot disagree.  perfbench's own ``invariants.records_fed`` reads 0
now: it counts the trace handed to ``InvariantChecker.run``, which the
oracle no longer calls.  Batch ``k`` of seed ``s`` uses the program
seed ``1000 * s + k``, as perfbench does.  Every run persists wall
time, per-layer self-time shares, perfbench's traced counts, the
gated counts and the digests to ``BENCH_e21_observe.json`` at the repo
root.

Run ``PYTHONPATH=src python benchmarks/bench_e21_observe.py [--quick]``.
"""

import argparse
import gc
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
from repro.verify.invariants import InvariantChecker  # noqa: E402

# import_module: the package rebinds ``repro.verify.fuzz`` to the
# ``fuzz`` function.
fuzz_module = import_module("repro.verify.fuzz")

WORKLOAD = "verify-large"
SEEDS = (1, 7)
BATCH_SYSTEMS = 8
#: Trace queries and records they return, per verified system.
QUERIES_PER_SYSTEM_CEIL = 0
RETURNED_PER_SYSTEM_CEIL = 0
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


def _untimed_counts(batches) -> tuple[Counter, dict, int]:
    """One untimed pass over the batches: fired events by kind, the
    records logged to traces with an attached invariant checker (per
    perfbench seed), and the records the oracle's traces kept
    (retained or spilled).

    Every scheduled callback is wrapped with a counter, so the order
    and number of events stay those of an unpatched run."""
    kinds: Counter = Counter()
    checked, built = [], []

    def counted(callback):
        kind = _kind(callback)

        def fire():
            kinds[kind] += 1
            return callback()
        return fire

    schedule, schedule_at = Simulator.schedule, Simulator.schedule_at
    attach, build_system = InvariantChecker.attach, oracle.build_system

    def attached(checker, trace):
        checked.append(trace)
        return attach(checker, trace)

    def building(*args, **kwargs):
        system = build_system(*args, **kwargs)
        built.append(system.trace)
        return system

    patches = Patches()
    patches.patch(Simulator, "schedule",
                  lambda sim, delay, callback, priority=0: schedule(
                      sim, delay, counted(callback), priority))
    patches.patch(Simulator, "schedule_at",
                  lambda sim, at, callback, priority=0: schedule_at(
                      sim, at, counted(callback), priority))
    patches.patch(InvariantChecker, "attach", attached)
    patches.patch(oracle, "build_system", building)
    fed: Counter = Counter()
    try:
        for seed, index in batches:
            _run([(seed, index)])
            fed[seed] += sum(trace.logged for trace in checked)
            checked.clear()
    finally:
        patches.unpatch()
    kept = sum(len(trace) + trace.spilled for trace in built)
    return kinds, dict(fed), kept


def _gc_timed(run):
    """``run()``'s result plus the garbage collector's time, passes and
    collected objects during it (``gc.callbacks``)."""
    spent = {"collect_s": 0.0, "passes": 0, "gen2_passes": 0,
             "collected": 0}
    started = []

    def callback(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
            return
        spent["collect_s"] += time.perf_counter() - started.pop()
        spent["passes"] += 1
        spent["gen2_passes"] += info["generation"] == 2
        spent["collected"] += info["collected"]

    gc.callbacks.append(callback)
    try:
        result = run()
    finally:
        gc.callbacks.remove(callback)
    return result, spent


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

    (digests, wall), collection = _gc_timed(lambda: _run(batches))
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

    kinds, fed_by_seed, kept = _untimed_counts(batches)
    fed = sum(fed_by_seed.values())
    assert sum(kinds.values()) == layer["sim.events"], (
        "events by kind do not add up to the traced sim.events")
    assert fed == layer["trace.records_logged"], (
        f"{fed} records reached the invariants of "
        f"{layer['trace.records_logged']} logged")

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
    queries = layer["trace.queries"] / systems
    returned = layer["trace.records_returned"] / systems
    streaming_ok = (queries <= QUERIES_PER_SYSTEM_CEIL
                    and returned <= RETURNED_PER_SYSTEM_CEIL)
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
        "observation": {
            "queries_per_system": queries,
            "records_returned_per_system": returned,
            "invariants_records_fed": {str(seed): count for seed, count
                                       in sorted(fed_by_seed.items())},
            "records_kept_per_system": kept / systems,
        },
        "gc": {"collect_s": round(collection["collect_s"], 4),
               "share": round(collection["collect_s"] / wall, 4),
               "passes": collection["passes"],
               "gen2_passes": collection["gen2_passes"],
               "collected": collection["collected"]},
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
            "queries_per_system_ceil": QUERIES_PER_SYSTEM_CEIL,
            "records_returned_per_system_ceil": RETURNED_PER_SYSTEM_CEIL,
            "enforced": True,
            "digests_ok": True,
            "event_kinds_ok": True,
            "records_fed_ok": True,
            "streaming_ok": streaming_ok,
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
            {"row": "trace queries per system",
             "value": (f"{queries:g} (ceiling "
                       f"{QUERIES_PER_SYSTEM_CEIL}), returning "
                       f"{returned:g} records (ceiling "
                       f"{RETURNED_PER_SYSTEM_CEIL})")},
            {"row": "records fed to invariants",
             "value": f"{fed} (= traced trace.records_logged)"},
            {"row": "records kept per system",
             "value": f"{kept / systems:g}"},
            {"row": "gc share of untraced wall",
             "value": (f"{collection['collect_s'] / wall:.1%} "
                       f"({collection['passes']} passes, "
                       f"{collection['gen2_passes']} gen-2)")},
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
             {"row": "_queries", "value": str(queries)},
             {"row": "_returned", "value": str(returned)}]
    return rows


def check(rows: list[dict]) -> None:
    by_row = {row["row"]: row["value"] for row in rows}
    # Digests, event kinds and records fed are asserted inside run().
    queries = float(by_row["_queries"])
    returned = float(by_row["_returned"])
    assert queries <= QUERIES_PER_SYSTEM_CEIL, (
        f"the oracle made {queries:g} trace queries per system, above "
        f"the ceiling of {QUERIES_PER_SYSTEM_CEIL}")
    assert returned <= RETURNED_PER_SYSTEM_CEIL, (
        f"trace queries returned {returned:g} records per system, "
        f"above the ceiling of {RETURNED_PER_SYSTEM_CEIL}")


TITLE = (f"E21: observation cost of the differential verdict "
         f"({WORKLOAD}, seeds {SEEDS})")


def bench_e21_observe(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, [r for r in rows if not r["row"].startswith("_")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="one batch per seed (every gate still "
                             "applies; shares recorded, never gated)")
    options = parser.parse_args()
    table_rows = run(quick=options.quick)
    check(table_rows)
    print_table(TITLE, [r for r in table_rows
                        if not r["row"].startswith("_")])
