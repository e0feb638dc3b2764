"""Discrete-event simulation kernel.

The kernel is deliberately small: one binary heap of timestamped
callbacks and a ``now`` cursor.  All time is integer nanoseconds
(:mod:`repro.units`), so event ordering is exact and runs are
reproducible.

Heap entries are ``(time, priority, seq, handle)`` tuples: events at the
same instant fire in ascending priority, then insertion order.  This
makes simultaneous hardware events (e.g. two CAN controllers requesting
the bus on the same bit edge) deterministic without hidden dependence on
heap internals; ``seq`` is unique, so the handle itself is never
compared.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Optional

from repro import obs
from repro.errors import SimulationError


class EventHandle:
    """Handle to a scheduled event, usable for cancellation.

    Cancellation is lazy: the heap entry stays in place but is skipped
    when popped.  This keeps ``cancel`` O(1).
    """

    __slots__ = ("time", "priority", "seq", "callback", "cancelled")

    def __init__(self, time: int, priority: int, seq: int,
                 callback: Callable[[], Any]):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Safe to call more than once."""
        self.cancelled = True

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time} prio={self.priority} {state}>"


class Simulator:
    """Event-driven simulator with integer-nanosecond virtual time.

    Typical use::

        sim = Simulator()
        sim.schedule(1000, lambda: print("fired at", sim.now))
        sim.run_until(10_000)
    """

    def __init__(self):
        self.now: int = 0
        #: total events executed (introspection / throughput metrics).
        self.executed: int = 0
        self._heap: list[tuple[int, int, int, EventHandle]] = []
        self._seq = itertools.count()
        self._stopped = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: int, callback: Callable[[], Any],
                 priority: int = 0) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` ns from now."""
        if delay < 0:
            raise SimulationError(
                f"cannot schedule into the past (delay={delay})")
        # The push of schedule_at, inlined: one call fewer per event.
        time = self.now + delay
        seq = next(self._seq)
        handle = EventHandle(time, priority, seq, callback)
        heappush(self._heap, (time, priority, seq, handle))
        return handle

    def schedule_at(self, time: int, callback: Callable[[], Any],
                    priority: int = 0) -> EventHandle:
        """Schedule ``callback`` to run at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}")
        seq = next(self._seq)
        handle = EventHandle(time, priority, seq, callback)
        heappush(self._heap, (time, priority, seq, handle))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Run the single next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        heap = self._heap
        while heap:
            time, _, _, handle = heappop(heap)
            if handle.cancelled:
                continue
            self.now = time
            self.executed += 1
            handle.callback()
            return True
        return False

    def run_until(self, horizon: int) -> None:
        """Run all events with time <= ``horizon``; leave ``now`` at the
        horizon even if the queue drains early."""
        if horizon < self.now:
            raise SimulationError(
                f"horizon {horizon} is before now={self.now}")
        self._stopped = False
        # Telemetry is deliberately coarse here: one counter update per
        # run_until call (executed-event and dispatch-batch deltas), not
        # per event — the kernel loop is the hottest path in the repo
        # and must not pay a per-event flag check.
        executed_before = self.executed
        batches = 0
        batch_time = None
        heap = self._heap
        pop = heappop
        while heap and not self._stopped:
            time, priority, seq, handle = pop(heap)
            if time > horizon:
                # Put the first event past the horizon back: cheaper
                # than peeking at the heap top before every pop.
                heappush(heap, (time, priority, seq, handle))
                break
            if handle.cancelled:
                continue
            # One dispatch batch per distinct instant.  Events a callback
            # schedules at the current instant go through the same heap,
            # so they interleave by (priority, seq) with those waiting.
            if time != batch_time:
                batch_time = time
                self.now = time
                batches += 1
            self.executed += 1
            handle.callback()
        if not self._stopped:
            self.now = horizon
        if self.executed != executed_before:
            obs.count("sim.events", self.executed - executed_before)
            obs.count("sim.dispatch_batches", batches)

    def run(self, max_events: Optional[int] = None) -> int:
        """Run until the queue drains (or ``max_events`` fire).

        Returns the number of events executed.  Guard long-running models
        with ``max_events`` to catch accidental infinite event chains.
        """
        self._stopped = False
        count = batches = 0
        batch_time = None
        while not self._stopped and self.step():
            count += 1
            # One dispatch batch per distinct instant, as in run_until.
            if self.now != batch_time:
                batch_time = self.now
                batches += 1
            if max_events is not None and count >= max_events:
                break
        if count:
            obs.count("sim.events", count)
            obs.count("sim.dispatch_batches", batches)
        return count

    def stop(self) -> None:
        """Stop ``run``/``run_until`` after the current event returns."""
        self._stopped = True

    @property
    def pending(self) -> int:
        """Number of scheduled, non-cancelled events."""
        return sum(1 for entry in self._heap if not entry[3].cancelled)

    def __repr__(self) -> str:
        return f"<Simulator now={self.now} pending={self.pending}>"
