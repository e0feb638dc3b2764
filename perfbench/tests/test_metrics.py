"""Self-tests of the benchmark's arithmetic.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT))

from perfbench import layers, metrics  # noqa: E402
from perfbench.layers import Clock, Tracer  # noqa: E402
from perfbench.metrics import Span  # noqa: E402


def span(layer, start, end, parent=None, item=None):
    return Span(layer, layer, start, end, parent, item)


# -- self time ---------------------------------------------------------
def test_self_time_of_nested_spans():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 6.0, parent=0),
             span("c", 2.0, 3.0, parent=1)]
    assert metrics.self_times(spans) == [5.0, 4.0, 1.0]


def test_self_time_of_siblings_sums_their_cover():
    spans = [span("a", 0.0, 10.0),
             span("b", 1.0, 3.0, parent=0),
             span("c", 5.0, 9.0, parent=0)]
    assert metrics.self_times(spans) == [4.0, 2.0, 4.0]


def test_overlapping_children_are_counted_once_and_clipped():
    assert metrics.covered([(1.0, 4.0), (3.0, 6.0), (9.0, 12.0)],
                           0.0, 10.0) == 6.0


def test_self_times_sum_to_root_duration():
    spans = [span("a", 0.0, 8.0),
             span("b", 0.5, 4.0, parent=0),
             span("c", 1.0, 2.0, parent=1),
             span("c", 2.5, 3.5, parent=1),
             span("d", 5.0, 7.5, parent=0)]
    assert sum(metrics.self_times(spans)) == pytest.approx(8.0)


def test_tracer_spans_carry_parent_and_item_id():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    outer = tracer.open("exec", "execute")
    first = tracer.open("oracle", "verify", item=True)
    inner = tracer.open("sim", "run_until")
    tracer.close(inner)
    tracer.close(first, item=True)
    second = tracer.open("oracle", "verify", item=True)
    tracer.close(second, item=True)
    tracer.close(outer)
    spans = tracer.spans
    assert [s.parent for s in spans] == [None, 0, 1, 0]
    assert [s.item for s in spans] == [None, 0, 0, 1]
    assert tracer.items == 2


def test_nested_queries_count_once():
    tracer = Tracer()
    tracer.spans = [span("sim", 0.0, 10.0),
                    span("trace", 1.0, 3.0, parent=0),
                    span("trace", 1.5, 2.5, parent=1),
                    span("trace", 4.0, 5.0, parent=0)]
    tracer.spans[1].size = 7
    tracer.spans[2].size = 9
    tracer.spans[3].size = 2
    out = tracer.layer_metrics()
    assert out["trace.queries"] == 2
    assert out["trace.records_returned"] == 9
    assert out["trace.query_self_s"] == pytest.approx(3.0)
    assert out["sim.self_s"] == pytest.approx(7.0)


# -- machine-speed scaling ---------------------------------------------
def test_clock_scales_a_batch_by_the_mean_of_its_samples(monkeypatch):
    # One sample opens the batch, one precedes each item, one closes it.
    samples = iter([0.010, 0.020, 0.040, 0.030])
    monkeypatch.setattr(layers, "reference_seconds", lambda: next(samples))

    class Owner:
        @staticmethod
        def item():
            return 7

    clock = Clock(Owner, "item")
    clock.begin_batch()
    assert Owner.item() == 7 and Owner.item() == 7
    assert clock.end_batch() == pytest.approx(0.025)
    clock.unpatch()
    assert clock.references == [0.010, 0.020, 0.040, 0.030]
    assert clock.scaled == pytest.approx(
        [metrics.scaled(seconds, 0.025) for seconds in clock.items])
    assert len(clock.scaled) == 2


# -- tail percentile ---------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (24, 50.0), (25, 60.0), (39, 60.0),
    (40, 75.0), (99, 75.0),
    (100, 90.0), (199, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_items_beyond(n, expected):
    assert metrics.tail_percentile(n) == expected
    if expected is not None:
        assert metrics.beyond(n, expected) >= metrics.MIN_BEYOND


def test_percentile_is_an_observed_value():
    values = list(range(1, 101))
    assert metrics.percentile(values, 90.0) == 90
    assert metrics.percentile(values, 50.0) == 50
    assert metrics.percentile([7.0], 99.9) == 7.0


# -- output check ------------------------------------------------------
PINNED = "a" * 64


def test_check_accepts_matching_digest():
    assert metrics.check_batch(True, PINNED, PINNED, PINNED) == []


def test_check_rejects_doctored_digest():
    doctored = "b" + PINNED[1:]
    problems = metrics.check_batch(True, doctored, PINNED, None)
    assert problems and "pinned" in problems[0]


def test_check_rejects_digest_differing_from_earlier_run():
    problems = metrics.check_batch(True, "c" * 64, None, PINNED)
    assert problems and "recorded" in problems[0]


def test_check_rejects_failing_verdict_even_with_good_digest():
    assert metrics.check_batch(False, PINNED, PINNED, None) == [
        "verdict FAIL"]


def test_pins_cover_default_and_heldout_seeds():
    pins = json.loads((ROOT / "perfbench" / "pins.json").read_text())
    for name, entry in pins["workloads"].items():
        seeds = {str(entry["default_seed"]), str(entry["heldout_seed"])}
        assert seeds <= set(entry["digests"]), name
        for digests in entry["digests"].values():
            assert all(len(d) == 64 for d in digests)
