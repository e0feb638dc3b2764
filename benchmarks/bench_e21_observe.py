"""E21 — Observation cost of the differential verdict: phase shares.

Claims:

* **Digests** (asserted on every run, quick or full): each
  ``verify_many(seed, 8, "large")`` batch reports PASS with the report
  digest pinned in ``perfbench/pins.json``, traced and untraced alike.
* **Trace share** (gated in full mode only): trace queries — every
  ``Trace.records`` call plus the CAN and FlexRay latency lookups,
  outermost call only — take less than ``TRACE_SHARE_CEIL`` of item
  time.  Before the trace kept a (category, subject) index they took
  more than the simulation itself.

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
from collections import defaultdict

from _tables import print_table

REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
sys.path.insert(0, REPO_ROOT)

from perfbench.layers import Tracer, install_layers  # noqa: E402
from perfbench.metrics import self_times  # noqa: E402

import repro.verify.oracle as oracle  # noqa: E402

WORKLOAD = "verify-large"
SEEDS = (1, 7)
BATCH_SYSTEMS = 8
TRACE_SHARE_CEIL = 0.10
PINS_PATH = os.path.join(REPO_ROOT, "perfbench", "pins.json")
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_e21_observe.json")
#: perfbench per-layer figures recorded alongside the shares.
TRACED = ("trace.queries", "trace.records_returned", "trace.us_per_query",
          "trace.records_logged", "sim.events", "invariants.records_fed")


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
        pinned = json.load(handle)["workloads"][WORKLOAD]["digests"]
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
        "digests": {f"{s}:{i}": d for (s, i), d in zip(batches, digests)},
        "gates": {
            "trace_share_ceil": TRACE_SHARE_CEIL,
            "enforced": not quick,
            "digests_ok": True,
            "trace_share_ok": trace_share < TRACE_SHARE_CEIL,
        },
    }
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = [{"row": "digests vs perfbench pins",
             "value": f"{len(batches)} batches identical, traced too"},
            {"row": "untraced wall",
             "value": f"{wall:.2f} s ({systems / wall:.2f} systems/s)"},
            {"row": "trace queries",
             "value": (f"{layer['trace.queries']:.0f} at "
                       f"{layer['trace.us_per_query']:.0f} us each")}]
    rows += [{"row": f"share: {name}", "value": f"{share:.1%}"}
             for name, share in sorted(shares.items(),
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
