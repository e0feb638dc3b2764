"""E17 — Kernel fast path: parity-gated bucket-queue speedup.

Claim (performance, conditional on E12/E15 semantics): the bucket-queue
simulation kernel (:class:`repro.sim.kernel.BucketEventQueue`) is a
*pure* speedup over the reference heap queue
(:class:`repro.sim.kernel.HeapEventQueue`): the same dispatch order,
measurably higher event throughput.

Setup: identical same-timestamp burst workloads are dispatched through
both queues.  Parity is asserted on every run — a mixed-priority burst
workload must dispatch in exactly the same order through both queues —
while the timing gate (>= 1.5x kernel event throughput) is enforced
only in full mode.  ``--quick`` shrinks the workload and skips the
timing gate (CI machines make timing assertions flaky) but still fails
on any parity mismatch.

Every run persists a machine-readable trajectory to
``BENCH_e17_perf.json`` at the repo root: raw events/sec, the speedup
and the gate verdict.
"""

import argparse
import json
import os
import time

from _tables import print_table

from repro.sim.kernel import (BucketEventQueue, HeapEventQueue,
                              Simulator)

KERNEL_SPEEDUP_FLOOR = 1.5
REPO_ROOT = os.path.normpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
TRAJECTORY_PATH = os.path.join(REPO_ROOT, "BENCH_e17_perf.json")


# ----------------------------------------------------------------------
# Parity (asserted on every run, quick or full)
# ----------------------------------------------------------------------
def _dispatch_order(queue_cls, times: int, burst: int) -> list:
    """Dispatch order of a burst workload whose events at one
    timestamp carry mixed priorities."""
    sim = Simulator(queue=queue_cls())
    order = []
    for slot in range(times):
        for index in range(burst):
            sim.schedule_at(slot * 100,
                            lambda tag=(slot, index): order.append(tag),
                            priority=index % 3)
    sim.run_until(times * 100)
    return order


def _kernel_parity(times: int, burst: int) -> int:
    heap = _dispatch_order(HeapEventQueue, times, burst)
    bucket = _dispatch_order(BucketEventQueue, times, burst)
    assert len(heap) == times * burst, "heap queue lost events"
    assert bucket == heap, "bucket queue dispatch order broke parity"
    return len(heap)


# ----------------------------------------------------------------------
# Timing
# ----------------------------------------------------------------------
def _time_kernel(times: int, burst: int) -> dict:
    def throughput(queue_cls) -> float:
        sim = Simulator(queue=queue_cls())
        counter = [0]

        def tick():
            counter[0] += 1

        for slot in range(times):
            for _ in range(burst):
                sim.schedule_at(slot * 100, tick)
        start = time.perf_counter()
        sim.run_until(times * 100)
        elapsed = time.perf_counter() - start
        assert sim.executed == times * burst
        return sim.executed / elapsed

    heap = min(throughput(HeapEventQueue) for _ in range(3))
    bucket = min(throughput(BucketEventQueue) for _ in range(3))
    return {
        "events": times * burst,
        "heap_events_per_s": round(heap, 0),
        "bucket_events_per_s": round(bucket, 0),
        "speedup": round(bucket / heap, 2),
    }


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run(quick: bool = False) -> list[dict]:
    kernel_shape = (60, 60) if quick else (300, 300)

    parity_events = _kernel_parity(*kernel_shape)
    kernel = _time_kernel(*kernel_shape)

    trajectory = {
        "bench": "e17_perf",
        "quick": quick,
        "parity": {"dispatched_events": parity_events, "ok": True},
        "kernel": kernel,
        "gates": {
            "kernel_speedup_floor": KERNEL_SPEEDUP_FLOOR,
            "enforced": not quick,
            "kernel_ok": kernel["speedup"] >= KERNEL_SPEEDUP_FLOOR,
        },
    }
    with open(TRAJECTORY_PATH, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")

    rows = [
        {"row": "parity: dispatch order",
         "value": f"{parity_events} events identical heap/bucket"},
        {"row": "kernel heap queue",
         "value": f"{kernel['heap_events_per_s']:.0f} events/s"},
        {"row": "kernel bucket queue",
         "value": (f"{kernel['bucket_events_per_s']:.0f} events/s "
                   f"({kernel['speedup']:.2f}x)")},
        {"row": "trajectory", "value": os.path.basename(TRAJECTORY_PATH)},
        {"row": "_quick", "value": str(quick)},
        {"row": "_kernel_speedup", "value": str(kernel["speedup"])},
    ]
    return rows


def check(rows: list[dict]) -> None:
    by_row = {row["row"]: row["value"] for row in rows}
    # Parity already asserted inside run() — reaching here means the
    # dispatch orders matched.  The timing gate applies to full runs only.
    if by_row["_quick"] == "True":
        return
    kernel_speedup = float(by_row["_kernel_speedup"])
    assert kernel_speedup >= KERNEL_SPEEDUP_FLOOR, (
        f"bucket-queue speedup {kernel_speedup}x is below the "
        f"{KERNEL_SPEEDUP_FLOOR}x acceptance floor")


TITLE = "E17: kernel fast path (bucket vs heap event queue)"


def bench_e17_perf(benchmark):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    check(rows)
    print_table(TITLE, [r for r in rows if not r["row"].startswith("_")])


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller workload, parity asserts only "
                             "(timing measured and recorded, never gated)")
    options = parser.parse_args()
    table_rows = run(quick=options.quick)
    check(table_rows)
    print_table(TITLE, [r for r in table_rows
                        if not r["row"].startswith("_")])
