"""Performance smoke test: guard against pathological slowdowns.

Not a micro-benchmark (those live in ``benchmarks/``): this asserts a
generous wall-time ceiling so an accidental O(n^2) in the kernel or RTE
shows up as a failing test rather than as silent benchmark drift.
"""

import time

from repro.osek import EcuKernel, FixedPriorityScheduler, TaskSpec
from repro.sim import Simulator
from repro.units import ms, us


def test_kernel_simulates_thousands_of_events_quickly():
    sim = Simulator()
    kernel = EcuKernel(sim, FixedPriorityScheduler())
    for index in range(20):
        kernel.add_task(TaskSpec(f"t{index}", wcet=us(200 + index * 10),
                                 period=ms(5 + index), priority=index,
                                 deadline=ms(1000)))
    start = time.perf_counter()
    sim.run_until(ms(2000))
    elapsed = time.perf_counter() - start
    assert sim.executed > 5_000
    # Generous ceiling: normally well under a second.
    assert elapsed < 10.0, f"kernel too slow: {elapsed:.1f}s"


def test_trace_queries_scale():
    from repro.sim import Trace
    trace = Trace()
    for index in range(200_000):
        trace.log(index, "task.complete", f"t{index % 50}",
                  response=index)
    start = time.perf_counter()
    for name_index in range(50):
        trace.response_times(f"t{name_index}",
                             start_category="task.complete",
                             end_category="task.complete")
    elapsed = time.perf_counter() - start
    assert elapsed < 20.0, f"trace queries too slow: {elapsed:.1f}s"


def test_subject_queries_do_not_rescan_the_trace():
    """One query per subject over a large trace: with the
    (category, subject) index this is the records returned, not
    queries x records (a full scan per query takes tens of seconds)."""
    from repro.sim import Trace
    trace = Trace()
    for index in range(200_000):
        trace.log(index, ("task.activate", "task.complete")[index % 2],
                  f"t{index % 1000}", response=index)
    start = time.perf_counter()
    returned = sum(len(trace.records("task.complete", f"t{subject}"))
                   for subject in range(1000))
    elapsed = time.perf_counter() - start
    assert returned == 100_000
    assert elapsed < 3.0, f"subject queries too slow: {elapsed:.1f}s"
