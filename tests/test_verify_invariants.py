"""Unit tests for the trace invariants, driven by hand-built traces
that provably violate (or satisfy) each property."""

import hashlib
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.sim import Trace
from repro.units import ms, us
from repro.verify import (AliveCounterInvariant, E2eContainmentInvariant,
                          Invariant, InvariantChecker,
                          NoOverlappingExecution, PriorityCeilingInvariant,
                          TdmaWindowInvariant, build_system, generate,
                          make_invariants)
from repro.verify.serialize import system_from_dict

ECUS = {"A": "E0", "B": "E0", "C": "E1"}


def check(trace, *invariants):
    return InvariantChecker(list(invariants)).run(trace)


# ----------------------------------------------------------------------
# NoOverlappingExecution
# ----------------------------------------------------------------------
def test_preempt_resume_sequence_is_clean():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(5, "task.preempt", "A")
    tr.log(5, "task.start", "B")
    tr.log(9, "task.complete", "B")
    tr.log(9, "task.resume", "A")
    tr.log(12, "task.complete", "A")
    assert check(tr, NoOverlappingExecution(ECUS)) == []


def test_two_tasks_running_on_one_ecu_flagged():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(5, "task.start", "B")  # A never yielded the CPU
    violations = check(tr, NoOverlappingExecution(ECUS))
    assert len(violations) == 1
    assert violations[0].time == 5
    assert violations[0].subject == "B"
    assert "A" in violations[0].message


def test_parallel_ecus_do_not_interfere():
    tr = Trace()
    tr.log(0, "task.start", "A")  # E0
    tr.log(1, "task.start", "C")  # E1: fine, different CPU
    assert check(tr, NoOverlappingExecution(ECUS)) == []


def test_unknown_tasks_are_ignored():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(1, "task.start", "GHOST")
    assert check(tr, NoOverlappingExecution(ECUS)) == []


# ----------------------------------------------------------------------
# TdmaWindowInvariant
# ----------------------------------------------------------------------
WINDOWS = [(0, ms(2), "P0"), (ms(5), ms(2), "P1")]
PARTITION_OF = {"T0": "P0", "T1": "P1"}


def tdma():
    return TdmaWindowInvariant(WINDOWS, ms(10), PARTITION_OF)


def test_run_inside_own_window_is_clean():
    tr = Trace()
    tr.log(us(500), "task.start", "T0")
    tr.log(ms(1), "task.complete", "T0")
    # Next major frame occurrence of the same window.
    tr.log(ms(10), "task.start", "T0")
    tr.log(ms(11), "task.complete", "T0")
    assert check(tr, tdma()) == []


def test_run_outside_every_window_flagged():
    tr = Trace()
    tr.log(ms(3), "task.start", "T0")  # P0 owns [0, 2) only
    tr.log(ms(4), "task.complete", "T0")
    violations = check(tr, tdma())
    assert len(violations) == 1
    assert "outside every window" in violations[0].message


def test_run_in_foreign_window_flagged():
    tr = Trace()
    tr.log(ms(5) + us(100), "task.start", "T0")  # that's P1's window
    tr.log(ms(6), "task.complete", "T0")
    assert len(check(tr, tdma())) == 1


def test_run_past_window_end_flagged():
    tr = Trace()
    tr.log(ms(1), "task.start", "T0")
    tr.log(ms(3), "task.complete", "T0")  # window ended at 2 ms
    violations = check(tr, tdma())
    assert len(violations) == 1
    assert "past" in violations[0].message


# ----------------------------------------------------------------------
# PriorityCeilingInvariant
# ----------------------------------------------------------------------
PRIORITIES = {"low": 1, "mid": 5, "hi": 9}
SAME_ECU = {"low": "E0", "mid": "E0", "hi": "E0"}


def icpp():
    return PriorityCeilingInvariant(PRIORITIES, {"R": 5}, SAME_ECU)


def test_task_at_or_below_ceiling_running_during_hold_flagged():
    tr = Trace()
    tr.log(0, "task.start", "low")
    tr.log(1, "task.acquire", "low", resource="R")
    tr.log(2, "task.preempt", "low")
    tr.log(2, "task.start", "mid")  # priority 5 <= ceiling 5: forbidden
    violations = check(tr, icpp())
    assert len(violations) == 1
    assert violations[0].subject == "mid"
    assert "low" in violations[0].message


def test_task_above_ceiling_may_preempt_the_hold():
    tr = Trace()
    tr.log(0, "task.start", "low")
    tr.log(1, "task.acquire", "low", resource="R")
    tr.log(2, "task.preempt", "low")
    tr.log(2, "task.start", "hi")  # priority 9 > ceiling 5: fine
    tr.log(3, "task.complete", "hi")
    tr.log(3, "task.resume", "low")
    tr.log(4, "task.release", "low", resource="R")
    tr.log(5, "task.complete", "low")
    tr.log(6, "task.start", "mid")  # after release: fine
    assert check(tr, icpp()) == []


def test_acquire_record_without_resource_key_is_tolerated():
    tr = Trace()
    tr.log(0, "task.start", "low")
    tr.log(1, "task.acquire", "low")  # partially instrumented
    tr.log(2, "task.release", "low")
    assert check(tr, icpp()) == []


# ----------------------------------------------------------------------
# AliveCounterInvariant
# ----------------------------------------------------------------------
def alive():
    return AliveCounterInvariant("PDU", modulo=16, max_delta=1)


def test_wrapping_counter_stream_is_clean():
    tr = Trace()
    for t, counter in enumerate((14, 15, 0, 1)):
        tr.log(t, "e2e.ok", "PDU", counter=counter)
    assert check(tr, alive()) == []


def test_counter_jump_flagged():
    tr = Trace()
    tr.log(0, "e2e.ok", "PDU", counter=1)
    tr.log(1, "e2e.ok", "PDU", counter=5)
    violations = check(tr, alive())
    assert len(violations) == 1
    assert "delta 4" in violations[0].message


def test_stuck_counter_flagged():
    tr = Trace()
    tr.log(0, "e2e.ok", "PDU", counter=3)
    tr.log(1, "e2e.ok", "PDU", counter=3)
    assert len(check(tr, alive())) == 1


def test_records_without_counter_and_foreign_pdus_skipped():
    tr = Trace()
    tr.log(0, "e2e.ok", "PDU", counter=1)
    tr.log(1, "e2e.ok", "PDU")  # no counter data: skipped, no KeyError
    tr.log(2, "e2e.ok", "OTHER", counter=9)
    tr.log(3, "e2e.ok", "PDU", counter=2)
    assert check(tr, alive()) == []


# ----------------------------------------------------------------------
# E2eContainmentInvariant
# ----------------------------------------------------------------------
def test_rejected_reception_reaching_application_flagged():
    tr = Trace()
    tr.log(5, "e2e.crc_error", "PDU")
    tr.log(5, "com.rx", "PDU")  # containment failed
    violations = check(tr, E2eContainmentInvariant())
    assert len(violations) == 1
    assert violations[0].time == 5


def test_blocked_rejection_is_clean():
    tr = Trace()
    tr.log(5, "e2e.wrong_sequence", "PDU")
    tr.log(5, "com.rx_blocked", "PDU")
    tr.log(7, "com.rx", "PDU")  # a later, valid reception
    assert check(tr, E2eContainmentInvariant()) == []


# ----------------------------------------------------------------------
# InvariantChecker
# ----------------------------------------------------------------------
def test_checker_merges_and_sorts_violations():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(5, "task.start", "B")
    tr.log(9, "e2e.crc_error", "PDU")
    tr.log(9, "com.rx", "PDU")
    violations = check(tr, NoOverlappingExecution(ECUS),
                       E2eContainmentInvariant())
    assert [v.time for v in violations] == [5, 9]
    assert {v.invariant for v in violations} == \
        {"no-overlap", "e2e-containment"}


# ----------------------------------------------------------------------
# Per-category dispatch
# ----------------------------------------------------------------------
class _Recorder(Invariant):
    """A user invariant that declares no categories."""

    name = "recorder"

    def __init__(self):
        super().__init__()
        self.seen = []

    def observe(self, record):
        self.seen.append((record.time, record.category, record.subject))


def test_invariant_without_categories_sees_every_record():
    tr = Trace()
    tr.log(0, "task.start", "A")
    tr.log(1, "bus.tx", "F")
    tr.log(2, "e2e.ok", "PDU", counter=1)
    tr.log(2, "custom", "X")
    recorder = _Recorder()
    check(tr, NoOverlappingExecution(ECUS), recorder,
          AliveCounterInvariant("PDU", 16))
    assert recorder.seen == [(r.time, r.category, r.subject) for r in tr]


def test_declared_categories_filter_by_dotted_prefix():
    class Tasks(_Recorder):
        categories = ("task",)

    tr = Trace()
    for time, category in enumerate(("task.start", "taskx", "task",
                                     "com.rx", "task.a.b")):
        tr.log(time, category, "S")
    tasks = Tasks()
    check(tr, tasks)
    assert [c for _, c, _ in tasks.seen] == ["task.start", "task",
                                             "task.a.b"]


def _stressed_invariants(system):
    """Every built-in invariant, configured so generated systems break
    it: one shared CPU, ceilings above every priority, TDMA windows cut
    to their second half and an alive counter that tolerates no step."""
    one_cpu = {t.name: "ONE" for t in system.all_task_specs()}
    priorities = {t.name: t.priority for t in system.all_task_specs()}
    invariants = [
        NoOverlappingExecution(one_cpu),
        PriorityCeilingInvariant(priorities,
                                 {r: 10 ** 6 for r in system.resources},
                                 one_cpu),
        E2eContainmentInvariant(),
    ]
    if system.tdma is not None:
        windows = [(w.start + w.length // 2, w.length // 2, w.partition)
                   for w in system.tdma.scheduler().windows]
        invariants.append(TdmaWindowInvariant(
            windows, system.tdma.major_frame,
            {t.name: t.partition for t in system.tdma.tasks}))
    if system.chain is not None:
        invariants.append(AliveCounterInvariant(
            system.chain.pdu_name, 1 << system.chain.counter_bits, 0))
    return invariants


def _violation_digest(violations):
    body = json.dumps([v.to_dict() for v in violations], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


#: seed -> (violations of the oracle's invariant set, violations and
#: their digest under the stressed set), computed before invariants
#: declared categories.
DISPATCH_PINS = {
    0: (0, 141,
        "7863524e430b35944fc8da082b4cc3f35ab5e5b958928e642bed8be8161addd6"),
    3: (0, 297,
        "f78023421df8d007501b109328f1ce979c1d93d67d427c7ce2de7f31de26ee0a"),
    11: (0, 215,
         "3c4d6ed8566d78c07545393fc17daeac01c37a437d78d05ba141704f757fbbac"),
    17: (0, 90,
         "73419e268b84bcd0767ff1835d5ef03d8a02f69fcddcacffbc3c3188200153b3"),
}


@pytest.mark.parametrize("seed", sorted(DISPATCH_PINS))
def test_checker_violations_on_generated_systems_are_pinned(seed):
    system = generate(seed, "small")
    built = build_system(system)
    built.sim.run_until(built.horizon)
    nominal = InvariantChecker(make_invariants(system)).run(built.trace)
    stressed = InvariantChecker(_stressed_invariants(system)).run(
        built.trace)
    assert (len(nominal), len(stressed),
            _violation_digest(stressed)) == DISPATCH_PINS[seed]


# ----------------------------------------------------------------------
# Streaming (attach) equals batch (run)
# ----------------------------------------------------------------------
CORPUS_DIR = os.path.join(os.path.dirname(__file__), "corpus")


def _corpus_systems():
    """(system, horizon) of every corpus counterexample."""
    out = []
    for name in sorted(os.listdir(CORPUS_DIR)):
        if name.endswith(".json") and name != "known_issues.json":
            with open(os.path.join(CORPUS_DIR, name),
                      encoding="utf-8") as handle:
                doc = json.load(handle)
            out.append(pytest.param(system_from_dict(doc["system"]),
                                    doc["horizon"], id=name))
    return out


def _streamed_and_batch(system, horizon, invariant_set):
    """Violations of an attached checker on a trace that keeps nothing,
    and of :meth:`InvariantChecker.run` over a fully kept trace of the
    same system."""
    streamed = build_system(system, Trace(keep=()))
    checker = InvariantChecker(invariant_set(system))
    checker.attach(streamed.trace)
    streamed.sim.run_until(horizon)
    kept = build_system(system)
    kept.sim.run_until(horizon)
    batch = InvariantChecker(invariant_set(system)).run(kept.trace)
    assert len(streamed.trace) == 0
    assert streamed.trace.logged == kept.trace.logged == len(kept.trace)
    return checker.finish(), batch


STREAM_CASES = (
    [pytest.param(generate(seed, "small"), None, id=f"small-{seed}")
     for seed in (0, 3, 11, 17)]
    + [pytest.param(generate(seed, "large"), None, id=f"large-{seed}")
       for seed in (1000, 3001)]
    + _corpus_systems())


@pytest.mark.parametrize("invariant_set", [make_invariants,
                                           _stressed_invariants],
                         ids=["oracle", "stressed"])
@pytest.mark.parametrize("system,horizon", STREAM_CASES)
def test_attached_checker_equals_batch_run(system, horizon, invariant_set):
    horizon = horizon if horizon is not None else \
        build_system(system).horizon
    streamed, batch = _streamed_and_batch(system, horizon, invariant_set)
    assert streamed == batch
    if invariant_set is _stressed_invariants:
        assert batch, "the stressed set must produce violations to compare"


def test_run_refuses_a_trace_that_did_not_keep_its_categories():
    tr = Trace(keep=("task.start",))
    tr.log(0, "task.start", "A")
    with pytest.raises(ConfigurationError, match="no-overlap"):
        check(tr, NoOverlappingExecution(ECUS))
    with pytest.raises(ConfigurationError):
        check(tr, Invariant())  # reads every category
    assert check(Trace(keep=("e2e.ok",)),
                 AliveCounterInvariant("P", 16)) == []
