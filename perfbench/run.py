"""Differential-verdict benchmark: one command for every workload.

Usage (from the repository root)::

    python3 perfbench/run.py --workload verify-large --seed 1 \\
        --seconds 50 --trace 0

Each workload runs batches of a user-facing entry point
(``verify_many``, ``run_resilience``, ``fuzz``) exactly as the CLI
does by default: one process (``jobs=1``, so ``repro.exec`` runs
in-process) and the analysis memo cache off.  Batch ``k`` of seed ``s``
uses the program seed ``s * 1000 + k``, so the same seed always gives
the same inputs.

``--trace 0`` measures the end-to-end metrics: batches run until
``--seconds`` have passed, each item's host time is recorded, and
``setup_s`` is the median of several fresh-interpreter set-ups.
``--trace 1`` runs a fixed prefix of batches twice, untraced and then
with every layer boundary wrapped (:mod:`perfbench.layers`), and
reports per-layer counts and self times plus the tracing overhead.  The
prefix is fixed so that its counts repeat exactly for one seed.

Every batch's output is checked: the verdict must PASS, and the report
digest must equal the digest pinned in ``perfbench/pins.json`` and the
one an earlier run of the same seed recorded in ``perfbench/out``.
The last line of standard output is one JSON object; the exit code is
1 when an output check failed and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from importlib import import_module
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "perfbench"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"
LEDGER = OUT / "ledger.json"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics  # noqa: E402
from perfbench.layers import Clock, Tracer, install_layers  # noqa: E402
from perfbench.reference import reference_seconds  # noqa: E402

#: Fresh-interpreter set-ups timed per untraced run (median reported).
SETUP_REPEATS = 7


@dataclass
class Batch:
    items: int
    passed: bool
    digest: str


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``tail_pct`` is the percentile ``item_ms_tail`` reports, fixed per
    workload so that the metric means the same on every commit: at most
    the highest one with ten items beyond it at the item count a run
    reaches on the reference machine.  ``traced_batches`` is the fixed
    prefix a traced run measures.
    """

    name: str
    batch_items: int
    tail_pct: float
    traced_batches: int
    item_target: Callable[[], tuple[object, str]]
    run_batch: Callable[[int, int], Batch]
    make_inputs: Callable[[int, int], object]


def _verify_item():
    return import_module("repro.verify.oracle"), "verify_system"


def _resilience_item():
    return import_module("repro.verify.resilience"), "verify_resilience"


def _fuzz_item():
    return import_module("repro.verify.fuzz"), "verify_system"


def _verify_batch(seed: int, count: int) -> Batch:
    from repro.verify.oracle import verify_many
    report = verify_many(seed, count, "large", jobs=1)
    return Batch(count, report.passed, report.digest())


def _resilience_batch(seed: int, count: int) -> Batch:
    from repro.verify.resilience import run_resilience
    report = run_resilience(seed, count, "small", jobs=1)
    return Batch(count, report.passed, report.digest())


def _fuzz_batch(seed: int, budget: int) -> Batch:
    from repro.verify.fuzz import fuzz
    report = fuzz(seed, budget, "small", jobs=1)
    return Batch(report.executions, not report.findings, report.digest())


def _verify_inputs(seed: int, count: int):
    from repro.verify.generator import generate_many
    return generate_many(seed, count, "large")


def _resilience_inputs(seed: int, count: int):
    from repro.verify.generator import generate_many
    from repro.verify.resilience import standard_scenarios
    systems = generate_many(seed, count, "small")
    for system in systems:
        system.faults = standard_scenarios(system)
    return systems


def _fuzz_inputs(seed: int, budget: int):
    from repro.verify.fuzz import DEFAULT_SEED_BATCH
    from repro.verify.generator import generate_many
    return generate_many(seed, min(DEFAULT_SEED_BATCH, budget), "small")


# Why each workload (perfbench/README.md has the predictions):
# verify-large is query-heavy (about 66 full-scan bound queries over a
# ~6.7k-record trace per system); fuzz-small adds the mutate/corpus
# round loop and per-execution telemetry capture, with fault scenarios
# on some mutants, so it guards the exec/obs overhead and memo changes.
# fuzz-small reports its tail at p75: p90 falls on the edge of the
# fault-carrying mutants, whose share differs from campaign to campaign.
# resilience-small (simulation- and trace-write-heavy) is a diagnostic
# only: its item cost is bimodal in the chain period, so its end-to-end
# figures spread too far between seeds at this run length.
WORKLOADS = {w.name: w for w in (
    Workload("verify-large", 8, 75.0, 4, _verify_item, _verify_batch,
             _verify_inputs),
    Workload("fuzz-small", 32, 75.0, 3, _fuzz_item, _fuzz_batch,
             _fuzz_inputs),
    Workload("resilience-small", 4, 75.0, 3, _resilience_item,
             _resilience_batch, _resilience_inputs),
)}


def batch_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
class Checker:
    """Checks each batch against the pins and the run ledger."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        pins = json.loads(PINS.read_text())["workloads"].get(workload, {})
        self.pinned = pins.get("digests", {}).get(str(seed), [])
        self.ledger = (json.loads(LEDGER.read_text())
                       if LEDGER.exists() else {})
        self.problems: list[str] = []

    def check(self, index: int, batch: Batch) -> bool:
        key = f"{self.workload}:{self.seed}:{index}"
        pinned = (self.pinned[index] if index < len(self.pinned)
                  else None)
        found = metrics.check_batch(batch.passed, batch.digest, pinned,
                                    self.ledger.get(key))
        self.problems += [f"batch {index}: {p}" for p in found]
        if not found:
            self.ledger[key] = batch.digest
        return not found

    def save(self) -> None:
        OUT.mkdir(exist_ok=True)
        scratch = LEDGER.with_suffix(".tmp")
        scratch.write_text(json.dumps(self.ledger, sort_keys=True,
                                      indent=0))
        os.replace(scratch, LEDGER)


def run_batches(workload: Workload, seed: int, indices, checker: Checker,
                clock: Clock, log: list):
    """Run the given batches, each scaled by the reference speed
    sampled through it; returns (attempted, failed, digests, scaled
    seconds)."""
    attempted = failed = 0
    digests = []
    total = 0.0
    for index in indices:
        spent = clock.reference_spent
        clock.begin_batch()
        started = time.perf_counter()
        try:
            batch = workload.run_batch(batch_seed(seed, index),
                                       workload.batch_items)
        except Exception:  # a crashing batch is a failed output check
            traceback.print_exc()
            checker.problems.append(f"batch {index}: raised")
            batch = Batch(workload.batch_items, False, "")
        finally:
            reference = clock.end_batch()
        wall = (time.perf_counter() - started
                - (clock.reference_spent - spent))
        total += metrics.scaled(wall, reference)
        attempted += batch.items
        if not batch.digest or not checker.check(index, batch):
            failed += batch.items
        digests.append(batch.digest)
        log.append(f"batch {index} seed={batch_seed(seed, index)} "
                   f"items={batch.items} "
                   f"verdict={'PASS' if batch.passed else 'FAIL'} "
                   f"digest=sha256:{batch.digest} wall_s={wall:.3f}")
    return attempted, failed, digests, total


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def setup_seconds(workload: Workload, seed: int, log: list) -> list[float]:
    """Scaled wall times of fresh interpreters that import the program
    and generate the first batch's inputs: what a user waits for before
    the first item starts."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--setup-only", "--workload", workload.name,
               "--seed", str(seed)]
    raw, times = [], []
    for _ in range(SETUP_REPEATS):
        before = reference_seconds(3)
        started = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        raw.append(time.perf_counter() - started)
        after = reference_seconds(3)
        times.append(metrics.scaled(raw[-1], (before + after) / 2))
    log.append(f"setup wall (s): {' '.join(f'{s:.3f}' for s in raw)}")
    return times


def measure(workload: Workload, seed: int, seconds: float, log: list):
    """Untraced run: batches until ``seconds`` have passed (a batch
    starts only while at least half a mean batch time remains)."""
    setups = setup_seconds(workload, seed, log)
    checker = Checker(workload.name, seed)
    clock = Clock(*workload.item_target())
    attempted = failed = index = 0
    wall = 0.0
    started = time.perf_counter()
    try:
        while True:
            elapsed = time.perf_counter() - started
            if index and elapsed + elapsed / index / 2 > seconds:
                break
            a, f, _, w = run_batches(workload, seed, [index], checker,
                                     clock, log)
            attempted, failed, wall = attempted + a, failed + f, wall + w
            index += 1
        elapsed = time.perf_counter() - started
    finally:
        clock.unpatch()
    checker.save()
    items, raw = clock.scaled, clock.items
    log.append(f"items={len(items)} batches={index} wall_s={elapsed:.3f} "
               f"reference_ms={statistics.median(clock.references) * 1e3:.4f}"
               f" raw: items_per_s="
               f"{len(raw) / (elapsed - clock.reference_spent):.4f} "
               f"item_ms_p50={statistics.median(raw) * 1e3:.2f}")
    log.append(f"tail=p{workload.tail_pct:g} "
               f"beyond={metrics.beyond(len(items), workload.tail_pct)} "
               f"(rule at this count: "
               f"p{metrics.tail_percentile(len(items))})")
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (len(items) / wall, "1/s"),
        "item_ms_p50": (statistics.median(items) * 1e3, "ms"),
        "item_ms_tail": (metrics.percentile(items, workload.tail_pct)
                         * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                        .ru_maxrss / 1024, "MB"),
    }
    return values, attempted, failed, checker


def traced(workload: Workload, seed: int, log: list):
    """Traced run over the fixed prefix, after an untraced pass over the
    same batches; digests of the two passes must match."""
    checker = Checker(workload.name, seed)
    prefix = range(workload.traced_batches)
    a1, f1, untraced_digests, untraced_s = run_batches(
        workload, seed, prefix, checker, Clock(), log)

    tracer = Tracer()
    install_layers(tracer, *workload.item_target())
    clock = Clock()
    try:
        a2, f2, traced_digests, traced_s = run_batches(
            workload, seed, prefix, checker, clock, log)
    finally:
        tracer.unpatch()
    if traced_digests != untraced_digests:
        checker.problems.append("traced digests differ from untraced")
        f2 = a2
    checker.save()

    OUT.mkdir(exist_ok=True)
    spans_file = OUT / f"spans-{workload.name}-{seed}.json"
    spans_file.write_text(json.dumps(tracer.spans_json()))
    layer = tracer.layer_metrics(metrics.scaled(
        1.0, statistics.mean(clock.references)))
    layer["tracing.overhead"] = traced_s / untraced_s
    layer["items.traced"] = tracer.items
    log.append(f"traced prefix: {workload.traced_batches} batch(es), "
               f"scaled untraced {untraced_s:.3f} s, traced "
               f"{traced_s:.3f} s, {len(tracer.spans)} spans -> "
               f"{spans_file.relative_to(ROOT)}")
    values = {name: (value, unit_of(name)) for name, value in layer.items()}
    return values, a1 + a2, f1 + f2, checker


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_query"):
        return "us"
    if name.endswith("ns_per_event"):
        return "ns"
    if name == "tracing.overhead":
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    try:
        import repro.verify  # noqa: F401
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    if args.setup_only:
        workload.make_inputs(batch_seed(args.seed, 0), workload.batch_items)
        return 0

    log: list[str] = []
    if args.trace:
        values, attempted, failed, checker = traced(workload, args.seed,
                                                    log)
    else:
        values, attempted, failed, checker = measure(
            workload, args.seed, args.seconds, log)
    for line in log:
        print(line)
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    print(f"failed_frac: {failed / attempted if attempted else 1.0:.4f} "
          f"({failed}/{attempted} items)")
    for name, (value, unit) in values.items():
        print(f"{name}: {value:.6g} {unit}")
    correct = not checker.problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
