"""Scheduler interface used by the ECU kernel.

The kernel owns job lifecycle (activation, execution accounting, events);
the scheduler only answers three questions:

* :meth:`Scheduler.select` — which runnable job should hold the CPU now?
* :meth:`Scheduler.max_segment` — for how long at most may it run before the
  decision must be re-evaluated (partition window end, budget exhaustion)?
* :meth:`Scheduler.next_dispatch_time` — when must the kernel re-dispatch
  even though no job event occurred (e.g. a TDMA window opens)?

:meth:`Scheduler.account` feeds consumed CPU time back for budget-based
policies.  This separation lets fixed-priority, table-driven TDMA and
reservation servers plug into the identical kernel, which is exactly the
comparison experiments E1/E2 need.
"""

from __future__ import annotations

from typing import Optional

from repro.osek.task import Job


class Scheduler:
    """Base scheduler; subclasses override the decision methods."""

    def attach(self, kernel) -> None:
        """Called once by the kernel; policies that need timed behaviour
        (server replenishment) can grab the simulator here."""
        self.kernel = kernel

    def select(self, runnable: list[Job], running: Optional[Job],
               now: int) -> Optional[Job]:
        """Job that should occupy the CPU at ``now`` (or None to idle).

        ``runnable`` is the kernel's own ready list with the running job
        (if any) appended for the call: read it, but neither change it
        nor keep it."""
        raise NotImplementedError

    def max_segment(self, job: Job, now: int) -> Optional[int]:
        """Upper bound (duration, ns) on the next uninterrupted execution
        segment of ``job``; None means unbounded."""
        return None

    def next_dispatch_time(self, now: int, has_runnable: bool
                           ) -> Optional[int]:
        """Absolute time of the next policy-driven dispatch point, if any."""
        return None

    def account(self, job: Job, consumed: int, now: int) -> None:
        """Notify that ``job`` consumed ``consumed`` ns ending at ``now``."""


def _fifo_key(job: Job) -> tuple:
    """Sort key: highest effective priority first, then FIFO by job seq."""
    return (-job.effective_priority, job.seq)


class FixedPriorityScheduler(Scheduler):
    """OSEK-style fixed-priority scheduling.

    ``preemptive=False`` models non-preemptive (cooperative) dispatching:
    a started job runs to completion of its current requirement chain.
    """

    def __init__(self, preemptive: bool = True):
        self.preemptive = preemptive

    def select(self, runnable, running, now):
        """Highest effective priority wins; FIFO among equals."""
        if not runnable:
            return None
        if len(runnable) == 1:
            return runnable[0]
        if not self.preemptive and running is not None and running in runnable:
            return running
        return min(runnable, key=_fifo_key)

    def __repr__(self) -> str:
        kind = "preemptive" if self.preemptive else "non-preemptive"
        return f"<FixedPriorityScheduler {kind}>"
