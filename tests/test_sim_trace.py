"""Unit tests for trace recording and derived metrics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError, SimulationError
from repro.network.can import CanBus, CanFrameSpec
from repro.sim import Simulator, Trace, summarize
from repro.sim.clock import DriftingClock, precision
from repro.sim.trace import Record


def test_log_and_filter_by_category_prefix():
    tr = Trace()
    tr.log(1, "task.activate", "T1")
    tr.log(2, "task.complete", "T1")
    tr.log(3, "bus.tx", "F1")
    assert len(tr.records("task")) == 2
    assert len(tr.records("task.activate")) == 1
    assert len(tr.records("bus.tx")) == 1
    assert tr.records("bus") and tr.records("bus")[0].subject == "F1"


def test_prefix_matching_is_token_based():
    tr = Trace()
    tr.log(1, "taskish.thing", "X")
    assert tr.records("task") == []


def test_filter_by_subject_and_predicate():
    tr = Trace()
    tr.log(1, "task.complete", "A", response=10)
    tr.log(2, "task.complete", "B", response=99)
    assert [r.subject for r in tr.records(subject="B")] == ["B"]
    heavy = tr.records(predicate=lambda r: r.data.get("response", 0) > 50)
    assert [r.subject for r in heavy] == ["B"]


def test_spans_pairs_starts_with_following_ends():
    tr = Trace()
    tr.log(0, "s", "x")
    tr.log(5, "e", "x")
    tr.log(10, "s", "x")
    tr.log(18, "e", "x")
    tr.log(20, "s", "x")  # unmatched trailing start
    assert tr.spans("s", "e", "x") == [(0, 5), (10, 18)]


def test_response_times_from_spans():
    tr = Trace()
    tr.log(0, "task.activate", "T")
    tr.log(7, "task.complete", "T")
    tr.log(10, "task.activate", "T")
    tr.log(13, "task.complete", "T")
    assert tr.response_times("T") == [7, 3]


def test_jitter_peak_to_peak():
    tr = Trace()
    for t in (0, 10, 25, 35):  # intervals 10, 15, 10
        tr.log(t, "task.start", "T")
    assert tr.jitter("task.start", "T") == 5


def test_jitter_needs_three_records():
    tr = Trace()
    tr.log(0, "x", "T")
    tr.log(10, "x", "T")
    assert tr.jitter("x", "T") == 0


def test_summarize_empty_and_nonempty():
    assert summarize([]) == {"count": 0, "min": None, "avg": None, "max": None}
    s = summarize([2, 4, 6])
    assert (s["count"], s["min"], s["avg"], s["max"]) == (3, 2, 4.0, 6)


def test_clear():
    tr = Trace()
    tr.log(0, "a", "b")
    tr.clear()
    assert len(tr) == 0


def test_log_rejects_a_record_earlier_than_the_previous_one():
    tr = Trace()
    tr.log(5, "a", "x")
    tr.log(5, "b", "x")              # equal times are in order
    with pytest.raises(SimulationError, match="t=4"):
        tr.log(4, "c", "x")
    assert [r.category for r in tr] == ["a", "b"]


def test_time_order_check_survives_eviction_and_resets_on_clear():
    tr = Trace(max_records=4)
    for i in range(10):
        tr.log(i, "a", "x")
    with pytest.raises(SimulationError):
        tr.log(3, "a", "x")          # the evicted past still counts
    tr.clear()
    tr.log(0, "a", "x")              # a cleared trace starts over
    assert len(tr) == 1


def test_drifting_clock_fast_and_slow():
    fast = DriftingClock(drift_ppm=100)
    slow = DriftingClock(drift_ppm=-100)
    t = 1_000_000_000  # 1 s
    assert fast.local_time(t) == t + 100_000
    assert slow.local_time(t) == t - 100_000
    assert fast.error_at(t) == 100_000


def test_clock_resynchronize_cancels_offset():
    clock = DriftingClock(drift_ppm=200, offset_ns=5_000)
    t = 500_000_000
    clock.resynchronize(t)
    assert clock.error_at(t) == 0
    # error grows again after resync
    assert clock.error_at(t + 1_000_000_000) > 0


def test_precision_bound_covers_pairwise_drift():
    clocks = [DriftingClock(drift_ppm=d) for d in (50, -80, 20)]
    interval = 10_000_000  # 10 ms resync
    p = precision(clocks, interval)
    worst_pair = (clocks[0].drift_ppm - clocks[1].drift_ppm) / 1e6 * interval
    assert p >= worst_pair


def test_precision_empty_is_zero():
    assert precision([], 1000) == 0


def test_record_get_tolerates_missing_data_keys():
    tr = Trace()
    tr.log(1, "task.complete", "T", response=7)
    tr.log(2, "task.complete", "T")  # partially instrumented record
    full, bare = tr.records("task.complete")
    assert full.get("response") == 7
    assert bare.get("response") is None
    assert bare.get("response", -1) == -1


RECORD_FIELDS = ("time", "category", "subject", "data")


@pytest.mark.parametrize("field", RECORD_FIELDS + ("extra",))
def test_record_fields_cannot_be_assigned(field):
    record = Record(5, "task.activate", "T1", {"job": 3})
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert record == Record(5, "task.activate", "T1", {"job": 3})


def test_record_equality_compares_all_four_fields():
    base = (5, "task.activate", "T1", {"job": 3})
    assert Record(*base) == Record(*base)
    for position, other in enumerate((6, "task.start", "T2", {"job": 4})):
        changed = list(base)
        changed[position] = other
        assert Record(*base) != Record(*changed), RECORD_FIELDS[position]
    tr = Trace()
    tr.log(5, "task.activate", "T1", job=3)
    assert list(tr) == [Record(*base)]


def test_record_get_tolerates_missing_keys_with_default_data():
    record = Record(1, "task.complete", "T")
    assert record.data == {}
    assert record.get("response") is None
    assert record.get("response", -1) == -1
    assert Record(1, "x", "s", {"k": 0}).get("k", -1) == 0


def test_record_repr_names_every_field():
    assert repr(Record(5, "task.activate", "T1", {"job": 3})) == (
        "Record(time=5, category='task.activate', subject='T1', "
        "data={'job': 3})")


def test_record_default_data_is_not_shared():
    first, second = Record(1, "a", "s"), Record(2, "a", "s")
    first.data["key"] = 1
    assert second.data == {}
    assert first.data is not second.data


def test_data_values_skips_records_without_the_key():
    tr = Trace()
    tr.log(1, "task.complete", "T", response=7)
    tr.log(2, "task.complete", "T")
    tr.log(3, "task.complete", "T", response=9)
    tr.log(4, "task.complete", "U", response=99)
    assert tr.data_values("task.complete", "response", "T") == [7, 9]
    assert tr.data_values("task.complete", "response") == [7, 9, 99]
    assert tr.data_values("task.complete", "missing") == []


# ----------------------------------------------------------------------
# Bounded / streaming mode
# ----------------------------------------------------------------------
def test_unbounded_trace_default_unchanged():
    tr = Trace()
    for i in range(1000):
        tr.log(i, "cat", "s")
    assert len(tr) == 1000 and tr.spilled == 0


def test_bounded_trace_evicts_oldest_quarter():
    tr = Trace(max_records=100)
    for i in range(101):
        tr.log(i, "cat", "s")
    # Exceeding the cap trims to 3/4 of it in one batch.
    assert len(tr) == 75
    assert tr.spilled == 26
    assert tr.records("cat")[0].time == 26  # oldest were evicted


def test_bounded_trace_spill_callback_receives_evicted():
    batches = []
    tr = Trace(max_records=8, spill=batches.append)
    for i in range(9):
        tr.log(i, "cat", "s")
    assert len(tr) == 6 and tr.spilled == 3
    assert [r.time for r in batches[0]] == [0, 1, 2]


def test_callable_spill_streams_every_eviction():
    spilled = []
    tr = Trace(max_records=8, spill=spilled.extend)
    for i in range(20):
        tr.log(i, "cat", "s", n=i)
    # Spilled plus retained-in-memory covers every record, in order.
    assert len(spilled) + len(tr) == 20
    assert spilled[0] == Record(0, "cat", "s", {"n": 0})
    assert [r.time for r in spilled] == list(range(len(spilled)))
    assert [r.time for r in tr] == list(range(len(spilled), 20))


def test_bounded_trace_validates_cap():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Trace(max_records=2)


# ----------------------------------------------------------------------
# Spill-sink protocol (writer objects) and close()
# ----------------------------------------------------------------------
class _BatchWriter:
    """Minimal writer-protocol sink: write_batch() + close()."""

    def __init__(self):
        self.batches = []
        self.closed = 0

    def write_batch(self, records):
        self.batches.append(list(records))

    def close(self):
        self.closed += 1


def test_spill_accepts_writer_object_with_write_batch():
    writer = _BatchWriter()
    tr = Trace(max_records=8, spill=writer)
    for i in range(9):
        tr.log(i, "cat", "s")
    assert tr.spilled == 3
    assert [r.time for r in writer.batches[0]] == [0, 1, 2]


def test_close_flushes_retained_tail_and_closes_writer():
    writer = _BatchWriter()
    tr = Trace(max_records=8, spill=writer)
    for i in range(9):
        tr.log(i, "cat", "s")
    tr.close()
    # Evicted batch + retained tail together cover every record.
    spilled = [r.time for batch in writer.batches for r in batch]
    assert spilled == list(range(9))
    assert tr.spilled == 9 and len(tr) == 0
    assert writer.closed == 1
    tr.close()  # idempotent: no double-flush, no double-close
    assert writer.closed == 1 and tr.spilled == 9


def test_close_without_spill_target_is_harmless():
    tr = Trace()
    tr.log(0, "a", "b")
    tr.close()
    tr.close()


def test_callable_spill_receives_every_record_via_close():
    spilled = []
    tr = Trace(max_records=8, spill=spilled.extend)
    for i in range(20):
        tr.log(i, "cat", "s", n=i)
    tr.close()
    # With close(), the sink alone covers the whole run, in order.
    assert [r.time for r in spilled] == list(range(20))
    assert [r.data["n"] for r in spilled] == list(range(20))
    assert len(tr) == 0 and tr.spilled == 20


def test_mistyped_spill_target_rejected():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        Trace(max_records=8, spill=object())


# ----------------------------------------------------------------------
# The (category, subject) index against a brute-force scan
# ----------------------------------------------------------------------
def reference_scan(records, category=None, subject=None, predicate=None):
    """What ``Trace.records`` must return: a plain filter in log order."""
    out = []
    for rec in records:
        if category is not None and rec.category != category \
                and not rec.category.startswith(category + "."):
            continue
        if subject is not None and rec.subject != subject:
            continue
        if predicate is None or predicate(rec):
            out.append(rec)
    return out


def assert_same_records(got, expected):
    assert got == expected
    assert all(a is b for a, b in zip(got, expected))


#: Logged categories stressing the dotted-prefix rule: a bare prefix,
#: nested children, a sibling sharing the letters, a trailing dot.
LOGGED = ("task", "task.a", "task.a.b", "taskx", "task.", "can.rx", "can")
QUERIED = LOGGED + ("ta", "task.a.b.c", "can.r", "")
SUBJECTS = ("A", "B", "C")


def _even(rec):
    return rec.data["n"] % 2 == 0


QUERY = st.tuples(st.just("query"), st.none() | st.sampled_from(QUERIED),
                  st.none() | st.sampled_from(SUBJECTS + ("Z",)),
                  st.sampled_from((None, _even)))
LOG = st.tuples(st.just("log"), st.sampled_from(LOGGED),
                st.sampled_from(SUBJECTS), st.integers(0, 3))
OPERATIONS = st.lists(st.one_of(LOG, LOG, LOG, QUERY,
                                st.tuples(st.just("clear")),
                                st.tuples(st.just("close"))),
                      max_size=80)


@settings(deadline=None)
@given(cap=st.none() | st.integers(4, 12), operations=OPERATIONS)
def test_index_matches_reference_scan(cap, operations):
    spilled = []
    tr = Trace(max_records=cap, spill=spilled.extend)
    retained, evicted = [], []
    closed = False
    now = n = 0
    for op in operations:
        if op[0] == "log" and closed:
            _, category, subject, step = op
            now += step
            with pytest.raises(SimulationError):
                tr.log(now, category, subject, n=n + 1)
        elif op[0] == "log":
            _, category, subject, step = op
            now += step
            n += 1
            tr.log(now, category, subject, n=n)
            retained.append(Record(now, category, subject, {"n": n}))
            if cap is not None and len(retained) > cap:
                cut = len(retained) - cap * 3 // 4
                evicted += retained[:cut]
                del retained[:cut]
        elif op[0] == "query":
            _, category, subject, predicate = op
            assert_same_records(tr.records(category, subject, predicate),
                                reference_scan(tr, category, subject,
                                               predicate))
        elif op[0] == "clear":
            tr.clear()
            retained, closed = [], False
        elif not closed:
            tr.close()
            evicted += retained
            retained, closed = [], True
        assert list(tr) == retained and spilled == evicted
    for category in (None,) + QUERIED:
        for subject in (None,) + SUBJECTS:
            assert_same_records(tr.records(category, subject),
                                reference_scan(tr, category, subject))


def test_derived_queries_read_through_the_index():
    tr = Trace()
    for t, (category, subject) in enumerate([
            ("task.activate", "T"), ("task.activate", "U"),
            ("task.complete", "T"), ("task.complete", "U"),
            ("task.activate", "T"), ("task.complete", "T")]):
        tr.log(t * 10, category, subject, response=t)
    assert tr.times("task", "T") == [0, 20, 40, 50]
    assert tr.data_values("task.complete", "response", "T") == [2, 5]
    assert tr.spans("task.activate", "task.complete", "T") == \
        [(0, 20), (40, 50)]
    tr.log(60, "task.activate", "T")
    tr.log(75, "task.complete", "T", response=6)
    assert tr.response_times("T") == [20, 10, 15]


# ----------------------------------------------------------------------
# Bounded traces: queries see exactly the retained tail
# ----------------------------------------------------------------------
def _log_mixed(tr, start, count):
    for i in range(start, start + count):
        tr.log(i, ("task.start", "task.complete", "bus.rx")[i % 3],
               "AB"[i % 2], n=i)


def _assert_queries_match_tail(tr):
    for category in (None, "task", "task.start", "bus.rx", "bus"):
        for subject in (None, "A", "B"):
            assert_same_records(tr.records(category, subject),
                                reference_scan(tr, category, subject))
            assert_same_records(tr.records(category, subject, _even),
                                reference_scan(tr, category, subject,
                                               _even))


def test_bounded_trace_queries_across_evictions_close_and_clear():
    spilled = []
    tr = Trace(max_records=8, spill=spilled.extend)
    _log_mixed(tr, 0, 6)
    _assert_queries_match_tail(tr)  # before any eviction
    for start in range(6, 61, 5):
        _log_mixed(tr, start, 5)  # one or two evictions per round
        _assert_queries_match_tail(tr)
    assert len(spilled) > 50 and tr.spilled == len(spilled)
    assert [r.data["n"] for r in spilled + list(tr)] == list(range(61))
    assert tr.records("task", "A")  # the tail is non-empty and indexed
    tr.close()
    assert len(tr) == 0 and tr.records("task") == []
    _assert_queries_match_tail(tr)
    assert [r.data["n"] for r in spilled] == list(range(61))

    tr.clear()
    _log_mixed(tr, 100, 7)
    _assert_queries_match_tail(tr)
    tr.clear()
    assert tr.records("task") == [] and tr.records("bus.rx", "A") == []
    _log_mixed(tr, 200, 3)
    _assert_queries_match_tail(tr)
    assert [r.data["n"] for r in tr.records("task")] == [201, 202]


def test_shared_trace_can_latencies_stay_per_bus():
    sim, trace = Simulator(), Trace()
    buses = {name: CanBus(sim, 500_000, trace=trace, name=name)
             for name in ("A", "B")}
    spec = CanFrameSpec("F", 0x100)
    for name, bus in buses.items():
        tx = bus.attach("tx")
        bus.attach("rx")
        for at in range(3 if name == "A" else 2):
            sim.schedule_at(at * 1_000_000,
                            lambda tx=tx: tx.send(spec))
    sim.run_until(10_000_000)
    for name, bus in buses.items():
        own = [r for r in trace.records("can.rx", "F")
               if r.data["bus"] == name]
        assert len(own) == (3 if name == "A" else 2)
        assert bus.latencies("F") == [r.data["latency"] for r in own]
        assert bus.records("can.rx", "F") == own


# ----------------------------------------------------------------------
# Close, keep and subscribe
# ----------------------------------------------------------------------
def test_log_after_close_raises_instead_of_losing_the_record():
    got = []
    tr = Trace(max_records=8, spill=got.extend)
    for t in range(10):
        tr.log(t, "cat", "s", n=t)
    tr.close()
    with pytest.raises(SimulationError, match="after close"):
        tr.log(10, "cat", "s", n=10)
    tr.close()
    assert [r.data["n"] for r in got] == list(range(10))
    assert len(tr) == 0 and tr.logged == 10
    # A second attempt raises too: the refusal is not cached away.
    with pytest.raises(SimulationError):
        tr.log(11, "other", "s")


def test_query_on_a_category_the_trace_does_not_keep_raises():
    tr = Trace(keep=("task.complete", "can"))
    tr.log(0, "task.activate", "T")
    tr.log(1, "task.complete", "T", response=1)
    tr.log(2, "can.rx", "F")
    assert [r.category for r in tr.records("task.complete")] == \
        ["task.complete"]
    assert [r.category for r in tr.records("can.rx")] == ["can.rx"]
    assert tr.keeps("can") and tr.keeps("task.complete")
    assert not tr.keeps("task") and not tr.keeps(None)
    for query in ("task", "task.activate", "flexray", None):
        with pytest.raises(ConfigurationError):
            tr.records(query)
    with pytest.raises(ConfigurationError):
        tr.times("task.activate", "T")
    with pytest.raises(ConfigurationError):
        Trace(keep=()).records("task.complete")
    assert Trace(keep="task").keep == ("task",)


def test_subscribers_see_matching_records_in_log_order():
    tr = Trace(keep=())
    seen = []
    tr.subscribe(("task",), lambda r: seen.append(("task", r.time)))
    tr.subscribe(("task.complete", "can.rx"),
                 lambda r: seen.append(("done", r.time)))
    tr.subscribe(None, lambda r: seen.append(("all", r.time)))
    tr.log(0, "task.activate", "T")
    tr.log(1, "taskx", "T")
    tr.log(2, "task.complete", "T")
    tr.log(3, "can.rx", "F")
    assert seen == [("task", 0), ("all", 0), ("all", 1),
                    ("task", 2), ("done", 2), ("all", 2),
                    ("done", 3), ("all", 3)]
    # A later subscription reaches records logged after it, even for a
    # category whose route was already resolved.
    late = []
    tr.subscribe(("task.activate",), late.append)
    tr.log(4, "task.activate", "U")
    assert [r.subject for r in late] == ["U"]
    assert len(tr) == 0


def test_subscribers_get_the_kept_record_itself():
    tr = Trace()
    seen = []
    tr.subscribe(("cat",), seen.append)
    tr.log(0, "cat", "s", n=1)
    assert seen[0] is tr.records("cat")[0]
    assert seen[0] == Record(0, "cat", "s", {"n": 1})


def test_logged_counts_records_kept_or_not():
    tr = Trace(keep=("task.complete",))
    for t in range(5):
        tr.log(t, "task.activate", "T")
        tr.log(t, "task.complete", "T")
    tr.log(9, "can.rx", "F")
    assert tr.logged == 11 and len(tr) == 5
    # keep=() keeps nothing and builds no record nobody reads.
    empty = Trace(keep=())
    empty.log(0, "task.activate", "T")
    with pytest.raises(SimulationError):
        empty.log(-1, "task.activate", "T")  # time order still checked
    assert empty.logged == 1 and len(empty) == 0 and list(empty) == []
    # clear() discards records but not the count of what was logged.
    tr.clear()
    assert tr.logged == 11 and len(tr) == 0


def test_max_records_bounds_only_the_kept_records():
    spilled = []
    tr = Trace(max_records=8, spill=spilled.extend, keep=("keep",))
    for t in range(40):
        tr.log(t, "keep" if t % 4 == 0 else "drop", "s", n=t)
    # 10 kept records: 8 fit, the ninth evicts down to 6.
    assert tr.logged == 40
    assert [r.data["n"] for r in spilled] == [0, 4, 8]
    assert [r.data["n"] for r in tr] == [12, 16, 20, 24, 28, 32, 36]
    assert tr.spilled == 3
    assert [r.data["n"] for r in tr.records("keep")] == \
        [12, 16, 20, 24, 28, 32, 36]
