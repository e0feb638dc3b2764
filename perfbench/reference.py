"""Machine-speed reference: fixed pure-Python work timed next to the
program.

The host is shared, and how fast it runs the program changes from minute
to minute: the raw figures of ten runs of one workload spread by 0.1 to
0.4 of their median.  The benchmark therefore times this fixed work
before every item and at both ends of every batch, and reports the
program's times scaled to one speed of it
(:func:`perfbench.metrics.scaled`).

A reference cancels only a slowdown that hits it as hard as it hits the
program, so it does the kinds of work the program does: a discrete-event
loop over a heap of timestamped callbacks, each logging a frozen record
with a data dict to a trace, then full-scan trace queries with
dotted-prefix category matching; and a spread of standard-library code
(dataclasses, JSON, regular expressions, difflib, fractions, decimal,
deepcopy, formatting) for the breadth of code the program runs.

It is benchmark code and imports nothing from the program, so a change
to the program cannot move it.  It runs with the collector off and
leaves no cycles behind, so the program's heap cannot move it either.
"""

from __future__ import annotations

import collections
import copy
import dataclasses
import decimal
import difflib
import fractions
import gc
import heapq
import itertools
import json
import operator
import re
import time
from dataclasses import dataclass, field

#: Events per pass, and full-scan queries over the trace they leave:
#: about the program's ratio of queries to records.
EVENTS = 1500
QUERIES = 6

_KINDS = ("task.activate", "task.end", "can.tx_start", "can.rx",
          "com.send", "com.recv")


@dataclass(frozen=True)
class _Record:
    time: int
    category: str
    subject: str
    data: dict = field(default_factory=dict)


def _matches(category: str, prefix: str) -> bool:
    return category == prefix or category.startswith(prefix + ".")


class _Sim:
    def __init__(self):
        self.now = 0
        self.queue: list = []
        self.records: list[_Record] = []
        self._seq = itertools.count()

    def at(self, when: int, callback) -> None:
        heapq.heappush(self.queue, (when, next(self._seq), callback))

    def log(self, category: str, subject: str, **data) -> None:
        self.records.append(_Record(self.now, category, subject, data))

    def run(self, events: int) -> None:
        queue = self.queue
        for _ in range(events):
            self.now, _, callback = heapq.heappop(queue)
            callback()

    def query(self, category: str, subject: str) -> list[_Record]:
        out = []
        for record in self.records:
            if not _matches(record.category, category):
                continue
            if record.subject != subject:
                continue
            out.append(record)
        return out


class _Node:
    def __init__(self, sim: _Sim, index: int):
        self.sim = sim
        self.name = f"n{index}"
        self.kind = _KINDS[index % len(_KINDS)]
        self.period = 1000 + 37 * index
        self.count = 0
        sim.at((index * 53) % 1000, self.fire)

    def fire(self) -> None:
        sim = self.sim
        self.count += 1
        sim.log(self.kind, self.name, seq=self.count,
                latency=(sim.now * 7 + self.count) % 997)
        sim.at(sim.now + self.period, self.fire)


@dataclass
class _Item:
    name: str
    qty: int
    price: float
    tags: list


_TEXT = " ".join(f"word{i % 97} frame_{i % 13} task.{i % 7} {i * 31 % 1000}"
                 for i in range(400))
_LINES_A = [f"line {i} value {i * 7 % 50}" for i in range(120)]
_LINES_B = [f"line {i} value {i * 7 % 50 + (i % 9 == 0)}"
            for i in range(120)]


def _simulation() -> int:
    sim = _Sim()
    nodes = [_Node(sim, index) for index in range(40)]
    sim.run(EVENTS)
    total = 0
    for j in range(QUERIES):
        kind = _KINDS[j % len(_KINDS)]
        category = kind.split(".")[0] if j % 2 else kind
        total += sum(r.data["latency"]
                     for r in sim.query(category, nodes[j % 40].name))
    sim.queue.clear()  # the queue's bound methods close the only cycle
    return total


def _stdlib() -> int:
    items = [_Item(f"i{i}", i % 17, i * 0.25, [f"t{i % 5}", str(i % 3)])
             for i in range(300)]
    total = len(json.loads(json.dumps([dataclasses.asdict(x)
                                       for x in items])))
    total += len(copy.deepcopy(items[:100]))
    total += len(re.findall(r"frame_(\d+) task\.(\d)", _TEXT))
    matcher = difflib.SequenceMatcher(None, _LINES_A, _LINES_B)
    total += len(matcher.get_opcodes())
    total += sum((fractions.Fraction(i, i + 1) for i in range(1, 60)),
                 fractions.Fraction(0)).numerator % 1000
    total += int(sum((decimal.Decimal(i) / 7 for i in range(200)),
                     decimal.Decimal(0)))
    total += sum(n for _, n in
                 collections.Counter(_TEXT.split()).most_common(20))
    total += len(sorted(items, key=operator.attrgetter("qty", "name")))
    total += len("".join(f"{x.name} has {x.qty} at {x.price:.2f}"
                         for x in items))
    return total


def reference_pass() -> int:
    """One pass of the reference work; returns a checksum."""
    return _simulation() + _stdlib()


def reference_seconds(passes: int = 1) -> float:
    """Mean time of ``passes`` reference passes (seconds), collector
    off.  The mean, not the fastest: the program runs through the slow
    moments too."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        for _ in range(passes):
            reference_pass()
        return (time.perf_counter() - started) / passes
    finally:
        if enabled:
            gc.enable()
