"""Event-order contract of the simulation kernel.

:class:`~repro.sim.kernel.Simulator` dispatches from one heap ordered
by ``(time, priority, seq)``.  These tests pin that order (ties,
priorities, lazy cancellation, same-instant rescheduling, ``stop``)
against a brute-force reference simulator, pin the telemetry deltas
the fuzz signature hashes, and pin literal trace and verdict digests
of full generated-system simulations.  Any divergence here means a kernel
change altered simulation semantics, which would silently re-date
every pinned digest in the repo.
"""

import hashlib
import itertools
import json
import random

import pytest

from repro import obs
from repro.sim.kernel import EventHandle, Simulator
from repro.sim.trace import Trace
from repro.verify.generator import generate
from repro.verify.oracle import build_system, verify_system

HORIZON = 10_000


class ReferenceSimulator:
    """Brute-force model of :class:`Simulator`: pending events sit in a
    plain list and each step fires its minimum ``(time, priority, seq)``."""

    def __init__(self):
        self.now = self.executed = 0
        self._events, self._seq, self._stopped = [], itertools.count(), False

    def schedule_at(self, time, callback, priority=0):
        handle = EventHandle(time, priority, next(self._seq), callback)
        self._events.append(handle)
        return handle

    def schedule(self, delay, callback, priority=0):
        return self.schedule_at(self.now + delay, callback, priority)

    def stop(self):
        self._stopped = True

    @property
    def pending(self):
        return sum(not handle.cancelled for handle in self._events)

    def run_until(self, horizon):
        self._stopped = False
        while not self._stopped:
            live = [(h.time, h.priority, h.seq, h)
                    for h in self._events if not h.cancelled]
            if not live or min(live)[0] > horizon:
                break
            handle = min(live)[3]
            self._events.remove(handle)
            self.now = handle.time
            self.executed += 1
            handle.callback()
        if not self._stopped:
            self.now = horizon


#: The six behaviour cases run on the kernel and on the reference.  The
#: ids are the names these cases have carried since the kernel shipped
#: a heap queue and a bucket queue: ``HeapEventQueue`` now runs the
#: kernel's one heap, ``BucketEventQueue`` the brute-force reference.
SIMULATORS = pytest.mark.parametrize(
    "make_sim", [ReferenceSimulator, Simulator],
    ids=["BucketEventQueue", "HeapEventQueue"])


def run_workload(make_sim, script):
    """Run a schedule script on ``make_sim()`` and return the
    execution log.

    ``script`` is a list of directives applied before the run:
    ``("at", time, priority, tag)`` schedules a logging event,
    ``("cancel", tag)`` cancels a previously scheduled one,
    ``("respawn", time, priority, tag, delay, count)`` schedules an
    event that re-schedules ``count`` followers ``delay`` ns apart
    (``delay=0`` lands them in the *current* instant).
    """
    sim = make_sim()
    log = []
    handles = {}

    def make_logger(tag):
        return lambda: log.append((sim.now, tag))

    def make_respawner(tag, delay, count, priority):
        def fire():
            log.append((sim.now, tag))
            for child in range(count):
                sim.schedule(delay, make_logger(f"{tag}.c{child}"),
                             priority=priority)
        return fire

    for directive in script:
        if directive[0] == "at":
            _, time, priority, tag = directive
            handles[tag] = sim.schedule_at(time, make_logger(tag),
                                           priority=priority)
        elif directive[0] == "cancel":
            handles[directive[1]].cancel()
        elif directive[0] == "respawn":
            _, time, priority, tag, delay, count = directive
            sim.schedule_at(time, make_respawner(tag, delay, count,
                                                 priority),
                            priority=priority)
    sim.run_until(HORIZON)
    return log, sim.executed, sim.now


def random_script(rng):
    """A random mix of bursts, priorities, cancels and respawns."""
    script = []
    tags = []
    # Heavy same-timestamp bursts: few distinct times, many events.
    times = [rng.randrange(0, 5_000) for _ in range(rng.randint(2, 6))]
    for index in range(rng.randint(10, 60)):
        tag = f"e{index}"
        script.append(("at", rng.choice(times),
                       rng.choice([0, 0, 0, 1, 5, -3]), tag))
        tags.append(tag)
    for _ in range(rng.randint(0, len(tags) // 3)):
        script.append(("cancel", rng.choice(tags)))
    for index in range(rng.randint(0, 4)):
        script.append(("respawn", rng.choice(times),
                       rng.choice([0, 2]), f"r{index}",
                       rng.choice([0, 0, 7]), rng.randint(1, 3)))
    return script


@pytest.mark.parametrize("seed", range(50))
def test_random_workloads_execute_identically(seed):
    script = random_script(random.Random(seed))
    assert (run_workload(Simulator, script)
            == run_workload(ReferenceSimulator, script))


@SIMULATORS
def test_fifo_within_same_time_and_priority(make_sim):
    """Equal (time, priority) events fire in insertion order."""
    sim = make_sim()
    log = []
    for index in range(20):
        sim.schedule_at(100, lambda i=index: log.append(i))
    sim.run_until(200)
    assert log == list(range(20))


@SIMULATORS
def test_priority_orders_within_a_batch(make_sim):
    sim = make_sim()
    log = []
    sim.schedule_at(100, lambda: log.append("late"), priority=5)
    sim.schedule_at(100, lambda: log.append("early"), priority=-5)
    sim.schedule_at(100, lambda: log.append("mid-a"), priority=0)
    sim.schedule_at(100, lambda: log.append("mid-b"), priority=0)
    sim.run_until(200)
    assert log == ["early", "mid-a", "mid-b", "late"]


@SIMULATORS
def test_mixed_priority_push_after_partial_drain(make_sim):
    """A same-instant event scheduled *during* the instant with a better
    priority than the remaining events must jump ahead of them."""
    sim = make_sim()
    log = []

    def first():
        log.append("first")
        sim.schedule(0, lambda: log.append("urgent"), priority=-10)

    sim.schedule_at(100, first)
    sim.schedule_at(100, lambda: log.append("second"))
    sim.schedule_at(100, lambda: log.append("third"))
    sim.run_until(200)
    assert log == ["first", "urgent", "second", "third"]


@SIMULATORS
def test_cancelled_events_never_fire_and_pending_agrees(make_sim):
    sim = make_sim()
    log = []
    keep = sim.schedule_at(50, lambda: log.append("keep"))
    drop = sim.schedule_at(50, lambda: log.append("drop"))
    sim.schedule_at(60, lambda: log.append("later"))
    drop.cancel()
    assert sim.pending == 2
    sim.run_until(100)
    assert log == ["keep", "later"]
    assert keep.time == 50
    assert sim.executed == 2
    assert sim.pending == 0


@SIMULATORS
def test_reschedule_at_drained_timestamp(make_sim):
    """Scheduling back into the current instant after every event there
    has fired must still fire within the same run."""
    sim = make_sim()
    log = []

    def fire():
        log.append(("fire", sim.now))
        if len(log) < 4:
            sim.schedule(0, fire)

    sim.schedule_at(100, fire)
    sim.run_until(200)
    assert log == [("fire", 100)] * 4
    assert sim.now == 200


@SIMULATORS
def test_stop_inside_a_batch_halts_dispatch(make_sim):
    sim = make_sim()
    log = []
    sim.schedule_at(100, lambda: (log.append("a"), sim.stop()))
    sim.schedule_at(100, lambda: log.append("b"))
    sim.run_until(200)
    assert log == ["a"]
    assert sim.now == 100            # stopped: now stays at the batch
    sim.run_until(200)
    assert log == ["a", "b"]


# ----------------------------------------------------------------------
# Telemetry deltas: the fuzz signature hashes both counters
# ----------------------------------------------------------------------
def _respawn_in_one_instant(sim):
    def fire():
        for _ in range(3):
            sim.schedule(0, lambda: None)
    sim.schedule_at(100, fire)
    sim.schedule_at(100, lambda: None, priority=4)
    return [300]                     # 5 events, all at t=100


def _cancelled_instant(sim):
    for _ in range(2):
        sim.schedule_at(50, lambda: None).cancel()
    sim.schedule_at(60, lambda: None)
    sim.schedule_at(70, lambda: None).cancel()
    return [100]                     # t=50 and t=70 fire nothing


def _horizon_split(sim):
    sim.schedule_at(100, lambda: None)
    sim.schedule_at(100, lambda: None)
    sim.schedule_at(200, lambda: sim.schedule(0, lambda: None))
    sim.schedule_at(300, lambda: None)
    return [100, 400]                # t=100 is at the first horizon


def _drained_by_run(sim):
    _horizon_split(sim)
    return [None]                    # run(): t=100, 200 and 300


def _respawn_drained_by_run(sim):
    _respawn_in_one_instant(sim)
    return [None]


def _counters(sim, horizons):
    """Counter deltas per ``run_until(horizon)``; ``None`` means
    ``run()``."""
    deltas = []
    for horizon in horizons:
        with obs.capture() as scope:
            if horizon is None:
                sim.run()
            else:
                sim.run_until(horizon)
        counters = scope.snapshot()["metrics"]["counters"]
        deltas.append((counters.get("sim.events", 0),
                       counters.get("sim.dispatch_batches", 0)))
    return deltas


@pytest.mark.parametrize("scenario, expected", [
    (_respawn_in_one_instant, [(5, 1)]),
    (_cancelled_instant, [(1, 1)]),
    (_horizon_split, [(2, 1), (3, 2)]),
    (_drained_by_run, [(5, 3)]),
    (_respawn_drained_by_run, [(5, 1)]),
], ids=["same-instant-respawn", "cancelled-instant", "horizon-split",
        "run-drains", "run-same-instant-respawn"])
def test_event_and_dispatch_batch_deltas_are_pinned(scenario, expected):
    sim = Simulator()
    assert _counters(sim, scenario(sim)) == expected


# ----------------------------------------------------------------------
# Full-system pins: the oracle's simulations are byte-stable
# ----------------------------------------------------------------------
#: seed -> (trace digest, verdict-dict digest, trace records, checks)
SYSTEM_PINS = {
    0: ("74b5119199a089075864a4d736d7be2effbdaa88abb9a2eec51d6d89b3e80b45",
        "778daa266b2f5a04c9cce5bc2a175dd0e95a8b07a8f8d59cbe377384c3907325",
        3170, 26),
    3: ("0854972e3e7ca74ff79b8386f5dd5b10d6870fbe12e787cffc23ecf1899136e9",
        "1de2598b5ebb729e37d40cc4c364276ad94e32cd060d348e2ac2bee9ed9c4a23",
        3440, 26),
    11: ("19c2f93a28d6d81f347653f45d8a390fc25fc62d3a2c114e56d467d2395c0f5f",
         "6eef3dc0cf3069dfb7161f4c10f4b6cc66c49b17494b7c2889b89ef9a53e79d6",
         3719, 25),
    17: ("5c2d28b08397525c36689f620ba61ec1524aeb95c244db528ececcf42f0a375a",
         "348200ba4e366fb5d1a33528eb3faf5fddf2a472af18fc85369b05b7671f209f",
         3123, 27),
}


@pytest.mark.parametrize("seed", sorted(SYSTEM_PINS))
def test_generated_system_traces_and_verdicts_match(monkeypatch, seed):
    import repro.osek.task as osek_task

    # Job sequence numbers come from a process-global counter and land
    # in trace records; restart it so the pinned run sees id 0 first.
    monkeypatch.setattr(osek_task, "_job_seq", itertools.count())
    built = build_system(generate(seed, "small"))
    built.sim.run_until(built.horizon)
    verdict = verify_system(generate(seed, "small")).to_dict()
    body = json.dumps(verdict, sort_keys=True, separators=(",", ":"))
    assert (built.trace.digest(),
            hashlib.sha256(body.encode("utf-8")).hexdigest(),
            verdict["records"], len(verdict["checks"])) == SYSTEM_PINS[seed]
    assert all(check["sound"] for check in verdict["checks"])


#: seed -> (trace digest, sim.executed, sim.dispatch_batches delta,
#: trace records, counter tokens and SHA-256 of the full token list of
#: one fuzz-worker execution).  Large systems run FlexRay static and
#: dynamic segments, CAN, a TDMA ECU and the E2E chain together.
LARGE_SYSTEM_PINS = {
    1: ("20c0d63000151da28500fd70df343f58de1663ff3e370c685a80c60577ea3576",
        9390, 6210, 7429,
        ["ctr:can.arbitrations:9", "ctr:can.frames_delivered:9",
         "ctr:dlt.error:6", "ctr:flexray.dynamic_tx:8",
         "ctr:flexray.static_tx:11", "ctr:rta.fixpoint_iterations:7",
         "ctr:rta.tasks_analyzed:6", "ctr:sim.dispatch_batches:13",
         "ctr:sim.events:14", "ctr:span.verify.system:1",
         "ctr:verify.checks:7", "ctr:verify.declined:0",
         "ctr:verify.invariant_violations:0",
         "ctr:verify.soundness_violations:0", "ctr:verify.systems:1",
         "ctr:verify.trace_records:13"],
        "4a1dd3100594ffc373192e0c218a7b9c94b5da991ac76db8e0492dfa925d04b8"),
    2: ("9a3a123ad40ae3abffd7e8a2d98d48ee982fd654cef0bebef2763d47df674813",
        8360, 5913, 6150,
        ["ctr:can.arbitrations:8", "ctr:can.frames_delivered:8",
         "ctr:dlt.error:6", "ctr:flexray.dynamic_tx:8",
         "ctr:flexray.static_tx:11", "ctr:rta.fixpoint_iterations:6",
         "ctr:rta.tasks_analyzed:5", "ctr:sim.dispatch_batches:13",
         "ctr:sim.events:14", "ctr:span.verify.system:1",
         "ctr:verify.checks:6", "ctr:verify.declined:0",
         "ctr:verify.invariant_violations:0",
         "ctr:verify.soundness_violations:0", "ctr:verify.systems:1",
         "ctr:verify.trace_records:13"],
        "4f38e38611e3dba2dcf051abbabcfd0abfbb903419e5f1203165661a4d0156d1"),
}


@pytest.mark.parametrize("seed", sorted(LARGE_SYSTEM_PINS))
def test_large_system_event_sequences_are_pinned(monkeypatch, seed):
    import repro.osek.task as osek_task
    from repro.verify.fuzz import _fuzz_worker

    system = generate(seed, "large")
    assert None not in (system.flexray, system.can, system.tdma,
                        system.chain)
    assert system.flexray.dynamic_writers
    monkeypatch.setattr(osek_task, "_job_seq", itertools.count())
    built = build_system(system)
    with obs.capture() as scope:
        built.sim.run_until(built.horizon)
    counters = scope.snapshot()["metrics"]["counters"]
    assert counters["sim.events"] == built.sim.executed
    result = _fuzz_worker(None, (generate(seed, "large"), None, None), 0)
    tokens = result["tokens"]
    assert result["failures"] == []
    digest = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()
    assert (built.trace.digest(), built.sim.executed,
            counters["sim.dispatch_batches"], len(built.trace),
            [t for t in tokens if t.startswith("ctr:")],
            digest) == LARGE_SYSTEM_PINS[seed]


def test_trace_digest_is_order_and_content_sensitive():
    a, b = Trace(), Trace()
    a.log(1, "task.activate", "T1", core=0)
    a.log(2, "task.complete", "T1")
    b.log(1, "task.activate", "T1", core=0)
    b.log(2, "task.complete", "T1")
    assert a.digest() == b.digest()
    b.log(3, "task.activate", "T2")
    assert a.digest() != b.digest()
    c, d = Trace(), Trace()
    c.log(1, "x", "s"), c.log(1, "y", "s")
    d.log(1, "y", "s"), d.log(1, "x", "s")
    assert c.digest() != d.digest()
