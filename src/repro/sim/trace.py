"""Trace recording and querying.

Every simulated subsystem (OS kernel, buses, NoC, BSW services) reports what
happened through a :class:`Trace`: a flat, time-ordered list of records.
Analyses over traces (response times, jitter, end-to-end latencies) live in
:mod:`repro.sim.trace` so that simulation results and analytic bounds can be
compared with the same vocabulary.
"""

from __future__ import annotations

import hashlib
import json
from collections import namedtuple
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import ConfigurationError, SimulationError

_new_tuple = tuple.__new__


class Record(namedtuple("_RecordFields", ("time", "category", "subject",
                                          "data"))):
    """One traced occurrence.

    ``category`` is a dotted event kind such as ``"task.activate"`` or
    ``"bus.tx_done"``; ``subject`` names the entity (task name, frame id);
    ``data`` carries event-specific details.

    A record is an immutable tuple with four named, read-only fields:
    assigning one raises :class:`AttributeError`, and two records are
    equal when all four fields are.  ``data`` defaults to a fresh empty
    dict per record.

    Cost model: every simulated event that is traced builds one record,
    so construction is on the simulator's hot path.  A frozen dataclass
    sets each field through ``object.__setattr__``; this constructor
    builds one tuple, about 0.4 µs against 0.8 µs on a shared 2-core
    host with Python 3.11, and :meth:`Trace.log` skips even the
    Python-level ``__new__``.  Field reads are tuple item reads.
    """

    __slots__ = ()

    def __new__(cls, time: int, category: str, subject: str,
                data: Optional[dict] = None):
        return _new_tuple(cls, (time, category, subject,
                                {} if data is None else data))

    def get(self, key: str, default=None):
        """Tolerant access to an optional ``data`` key (never raises)."""
        return self[3].get(key, default)


class Subscribers:
    """Callbacks subscribed to record categories.

    Each subscription names its categories by the dotted-prefix rule of
    :meth:`Trace.records` (``None`` means every category).  The
    callbacks one exact category reaches are resolved once, in
    subscription order, and cached until the next :meth:`add`.  A
    :class:`Trace` dispatches its subscribers through this class at
    :meth:`Trace.log` time, and :meth:`feed` replays already-recorded
    records through the same dispatch.
    """

    def __init__(self):
        self._subscriptions: list[tuple[Optional[tuple[str, ...]],
                                        Callable[[Record], Any]]] = []
        self._dispatch: dict[str, tuple[Callable[[Record], Any], ...]] = {}

    def add(self, categories: Optional[Iterable[str]],
            callback: Callable[[Record], Any]) -> None:
        self._subscriptions.append((_categories(categories), callback))
        self._dispatch = {}

    def callbacks(self, category: str) -> tuple[Callable[[Record], Any], ...]:
        """The callbacks subscribed to ``category``, in subscription
        order."""
        found = self._dispatch.get(category)
        if found is None:
            found = self._dispatch[category] = tuple(
                callback for wanted, callback in self._subscriptions
                if wanted is None or covered(category, wanted))
        return found

    def feed(self, records: Iterable[Record]) -> None:
        """Hand each record, in order, to the callbacks of its category."""
        callbacks = self.callbacks
        for record in records:
            for callback in callbacks(record[1]):
                callback(record)


class Trace:
    """Append-only record store with simple query helpers.

    By default the trace grows without bound — every record of a run is
    queryable.  Long soak simulations can instead cap memory with
    ``max_records``: when the trace exceeds the cap, the oldest quarter
    (plus any excess) is evicted, optionally handed to a ``spill``
    target first.  The target is either a plain callable taking the
    evicted batch (a list of records) or a writer object with
    ``write_batch()`` — and optionally ``close()`` — such as
    :class:`repro.meas.mtf.MtfWriter`.  Queries then see only the
    retained tail; :attr:`spilled` counts what was evicted.
    :meth:`close` spills the retained tail too, so end-of-run records
    are never silently dropped, and any :meth:`log` after it raises.
    With every parameter at its default the behaviour is exactly the
    historical unbounded one.

    Streaming: a consumer that needs only maxima, counts or one pass in
    log order need not keep records at all.  :meth:`subscribe` hands
    each record of the subscribed categories to a callback inside
    :meth:`log`, in log order.  ``keep`` names the categories the trace
    retains (dotted-prefix rule; the default ``None`` keeps every
    category, ``()`` keeps none); ``max_records`` and ``spill`` apply to
    the kept records only.  Queries answer from kept records alone, so
    a query whose category is not wholly kept raises
    :class:`ConfigurationError` instead of returning a silently empty
    or partial list; :meth:`keeps` tells which queries are answerable.
    :attr:`logged` counts every record accepted by :meth:`log`, kept or
    not.

    Queries with a category answer from an index rather than a scan.
    The index maps each exact category to the positions of its records,
    and each (category, subject) pair to theirs.  :meth:`log` stays a
    plain append; :meth:`records` first extends the index over the
    records logged since the last query, so each record is indexed once
    whatever the number of queries.  A query then costs the number of
    distinct categories (to apply the dotted-prefix rule) plus the
    records it returns, instead of the length of the trace.  Eviction,
    :meth:`clear` and :meth:`close` shift or drop positions, so they
    drop the index and the next query rebuilds it over the retained
    tail.  Only a query without a category still scans every record.

    Cost model of :meth:`log`: every traced simulation event pays it,
    so it is the one write path and does the least it can.  Every call
    checks time order, counts itself in :attr:`logged` and looks its
    category up in a route cache, resolved once per exact category:
    retention is the route's first step when the category is kept, and
    the subscribers follow.  A record neither kept nor subscribed to has
    an empty route and returns there, before any :class:`Record` is
    built.  Otherwise one record is built straight from the call's
    keyword dict and handed to each step of its route.  A kept
    record and its ``data`` dict are the whole memory cost of a record,
    and a kept record is GC-tracked (it holds a dict) for as long as
    the trace lives; indexing is paid later, once, by the first query.
    A trace with ``keep=()`` therefore holds no records, whatever its
    run length, and its subscribers pay only for the categories they
    name.
    """

    def __init__(self, max_records: Optional[int] = None,
                 spill=None, keep: Optional[Iterable[str]] = None):
        if max_records is not None and max_records < 4:
            raise ConfigurationError(
                f"max_records must be >= 4, got {max_records}")
        self._records: list[Record] = []
        self._max_records = max_records
        self._spill_target = spill
        self._spill = as_spill_sink(spill)
        #: categories retained (None: every category).
        self.keep: Optional[tuple[str, ...]] = _categories(keep)
        #: number of records evicted by the bound (0 in unbounded mode).
        self.spilled = 0
        #: number of records accepted by :meth:`log`, kept or not
        #: (:meth:`clear` does not reset it, as it does not reset
        #: :attr:`spilled`).
        self.logged = 0
        self._closed = False
        self._last_time: Optional[int] = None
        self._subscribers = Subscribers()
        #: category -> the steps a record of it goes through in
        #: :meth:`log` (retention, then subscribers), resolved lazily.
        self._routes: dict[str, tuple] = {}
        #: category -> (positions, {subject: positions}), built lazily
        #: over ``self._records[:self._indexed]``.
        self._index: dict[str, tuple[list[int], dict[str, list[int]]]] = {}
        self._indexed = 0

    def subscribe(self, categories: Optional[Iterable[str]],
                  callback: Callable[[Record], Any]) -> None:
        """Call ``callback(record)`` inside :meth:`log` for every record
        whose category matches one of ``categories`` (dotted-prefix
        rule; ``None`` means every category).  Subscribers of one
        category are called in subscription order; a record logged
        before the subscription is not replayed."""
        self._subscribers.add(categories, callback)
        self._routes = {}

    def keeps(self, category: Optional[str]) -> bool:
        """True when a query for ``category`` (``None``: every record)
        can answer: every category it matches is kept."""
        if self.keep is None:
            return True
        return category is not None and covered(category, self.keep)

    def _route(self, category: str) -> tuple:
        """Resolve and cache what :meth:`log` hands a ``category`` record
        to: the retention step first when the category is kept, then
        the subscribers."""
        if self._closed:
            raise SimulationError(
                f"trace record {category} logged after close()")
        retain = ()
        if self.keeps(category):
            retain = ((self._records.append,) if self._max_records is None
                      else (self._retain,))
        route = self._routes[category] = (
            retain + self._subscribers.callbacks(category))
        return route

    def log(self, time: int, category: str, subject: str, **data: Any) -> None:
        """Record one occurrence.

        ``time`` must not be earlier than the time of the previous record
        logged since construction or the last :meth:`clear`; an
        out-of-order record raises :class:`SimulationError`, because
        every query and subscriber assumes time order.  So does a record
        logged after :meth:`close`, which could otherwise never reach
        the spill target."""
        last = self._last_time
        if last is not None and time < last:
            raise SimulationError(
                f"trace record {category} {subject!r} at t={time} is "
                f"earlier than the previous record at t={last}")
        try:
            route = self._routes[category]
        except KeyError:
            route = self._route(category)
        self._last_time = time
        self.logged += 1
        if route:
            # ``data`` is the fresh keyword dict of this call, so the
            # tuple is built as is, without Record.__new__'s default
            # handling.
            record = _new_tuple(Record, (time, category, subject, data))
            for step in route:
                step(record)

    def _retain(self, record: Record) -> None:
        """Keep one record under ``max_records``: past the cap, evict
        down to 3/4 of it in one batch, so the amortised per-log cost
        stays O(1) instead of shifting the whole list on every append
        at the boundary."""
        records = self._records
        records.append(record)
        if len(records) > self._max_records:
            evicted = records[:len(records) - (self._max_records * 3) // 4]
            if self._spill is not None:
                self._spill(evicted)
            self.spilled += len(evicted)
            del records[:len(evicted)]
            self._drop_index()

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[Record]:
        return iter(self._records)

    def records(self, category: Optional[str] = None,
                subject: Optional[str] = None,
                predicate: Optional[Callable[[Record], bool]] = None
                ) -> list[Record]:
        """Filtered view of the trace, in log order.

        ``category`` matches exactly or as a dotted prefix (``"task"``
        matches ``"task.activate"``).  Raises :class:`ConfigurationError`
        when the trace does not keep every record the query asks for
        (see :meth:`keeps`).
        """
        if not self.keeps(category):
            raise ConfigurationError(
                f"trace query for {category or 'every category'!r}: the "
                f"trace keeps only {list(self.keep)}")
        recs = self._records
        if category is None:
            out = [r for r in recs
                   if subject is None or r.subject == subject]
        else:
            self._catch_up()
            buckets = []
            for indexed, (positions, by_subject) in self._index.items():
                if not category_matches(indexed, category):
                    continue
                if subject is not None:
                    positions = by_subject.get(subject)
                    if positions is None:
                        continue
                buckets.append(positions)
            if len(buckets) > 1:
                positions = sorted(chain.from_iterable(buckets))
            else:
                positions = buckets[0] if buckets else ()
            out = [recs[i] for i in positions]
        if predicate is not None:
            out = [r for r in out if predicate(r)]
        return out

    def _catch_up(self) -> None:
        """Index the records logged since the last query."""
        recs = self._records
        index = self._index
        for pos in range(self._indexed, len(recs)):
            rec = recs[pos]
            entry = index.get(rec.category)
            if entry is None:
                entry = index[rec.category] = ([], {})
            entry[0].append(pos)
            by_subject = entry[1].get(rec.subject)
            if by_subject is None:
                entry[1][rec.subject] = [pos]
            else:
                by_subject.append(pos)
        self._indexed = len(recs)

    def _drop_index(self) -> None:
        self._index = {}
        self._indexed = 0

    def times(self, category: str, subject: Optional[str] = None) -> list[int]:
        """Timestamps of matching records."""
        return [r.time for r in self.records(category, subject)]

    def data_values(self, category: str, key: str,
                    subject: Optional[str] = None) -> list:
        """Values of a ``data`` key over matching records.

        Records lacking the key are skipped rather than raising — a
        partially-instrumented subsystem yields fewer measurements, not
        a crash.
        """
        return [r.data[key] for r in self.records(category, subject)
                if key in r.data]

    # ------------------------------------------------------------------
    # Derived timing metrics
    # ------------------------------------------------------------------
    def spans(self, start_category: str, end_category: str,
              subject: str) -> list[tuple[int, int]]:
        """Pair each start record with the next end record for ``subject``.

        Used for activation→completion (response time) and tx_request→rx
        (message latency) measurements.  Unmatched trailing starts are
        dropped (the job was still running at the end of the horizon).
        """
        starts = self.times(start_category, subject)
        ends = self.times(end_category, subject)
        pairs = []
        ei = 0
        for s in starts:
            while ei < len(ends) and ends[ei] < s:
                ei += 1
            if ei == len(ends):
                break
            pairs.append((s, ends[ei]))
            ei += 1
        return pairs

    def response_times(self, subject: str,
                       start_category: str = "task.activate",
                       end_category: str = "task.complete") -> list[int]:
        """Per-job response times (end - start) for ``subject``."""
        return [e - s for s, e in self.spans(start_category, end_category,
                                             subject)]

    def jitter(self, category: str, subject: str) -> int:
        """Peak-to-peak inter-arrival jitter of matching records.

        Defined as ``max(interval) - min(interval)`` over consecutive
        occurrences; 0 when fewer than three records exist.
        """
        ts = self.times(category, subject)
        if len(ts) < 3:
            return 0
        intervals = [b - a for a, b in zip(ts, ts[1:])]
        return max(intervals) - min(intervals)

    def clear(self) -> None:
        """Discard all records and the time-order check's history, and
        reopen a closed trace."""
        self._records.clear()
        self._last_time = None
        self._closed = False
        self._drop_index()

    def close(self) -> None:
        """Flush the retained tail to the spill target and close it.

        Without this, end-of-run records — everything logged since the
        last eviction — would never reach the spill file.  The tail is
        spilled in order after everything already evicted, the target's
        own ``close()`` is called when it has one (e.g. an MTF writer
        sealing its directory), and the trace is emptied.  Idempotent;
        a no-op spill-wise when no spill target is configured.  A
        :meth:`log` after it raises :class:`SimulationError`."""
        if self._closed:
            return
        self._closed = True
        self._routes = {}
        if self._spill is not None and self._records:
            self._spill(list(self._records))
            self.spilled += len(self._records)
            self._records.clear()
            self._drop_index()
        closer = getattr(self._spill_target, "close", None)
        if callable(closer):
            closer()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        """Flat dict rows (time/category/subject + data keys), for
        post-processing with external tooling."""
        rows = []
        for rec in self._records:
            row = {"time": rec.time, "category": rec.category,
                   "subject": rec.subject}
            row.update(rec.data)
            rows.append(row)
        return rows

    def digest(self) -> str:
        """SHA-256 over the canonical JSON of :meth:`to_dicts`.

        Two traces digest equal iff they recorded the same events in
        the same order with the same payloads — the equivalence notion
        the kernel tests pin (a kernel change must keep traces
        byte-identical, not merely statistically alike).
        """
        body = json.dumps(self.to_dicts(), sort_keys=True,
                          separators=(",", ":"), default=str)
        return hashlib.sha256(body.encode("utf-8")).hexdigest()

    def save_csv(self, path: str) -> int:
        """Write the trace as CSV (data dict serialized per-key into a
        ``key=value;...`` column); returns the record count."""
        import csv

        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["time", "category", "subject", "data"])
            for rec in self._records:
                data = ";".join(f"{k}={v}" for k, v in rec.data.items())
                writer.writerow([rec.time, rec.category, rec.subject,
                                 data])
        return len(self._records)

    def __repr__(self) -> str:
        return f"<Trace {len(self._records)} records>"


def category_matches(actual: str, wanted: str) -> bool:
    """The dotted-prefix rule: ``wanted`` is ``actual`` or one of its
    dotted prefixes (``"task"`` matches ``"task.activate"``, not
    ``"taskx"``)."""
    return actual == wanted or actual.startswith(wanted + ".")


def _categories(categories: Optional[Iterable[str]]
                ) -> Optional[tuple[str, ...]]:
    """A category tuple from any iterable of categories or one bare
    category string (``None`` passes through: every category)."""
    if categories is None:
        return None
    if isinstance(categories, str):
        return (categories,)
    return tuple(categories)


def covered(name: str, wanted: Iterable[str]) -> bool:
    """True when ``name`` (a category, or a subject named the same
    dotted way) matches one of ``wanted`` by the dotted-prefix rule."""
    return any(category_matches(name, prefix) for prefix in wanted)


def as_spill_sink(spill) -> Optional[Callable[[list], None]]:
    """Normalize a spill target to a batch callable.

    Accepts ``None``, a plain callable, or a writer object exposing
    ``write_batch()`` (the protocol of :class:`repro.meas.mtf.MtfWriter`
    and the DAQ sinks).  Anything else is a configuration error —
    silently ignoring a mistyped sink would drop records."""
    if spill is None:
        return None
    write_batch = getattr(spill, "write_batch", None)
    if callable(write_batch):
        return write_batch
    if callable(spill):
        return spill
    raise ConfigurationError(
        f"spill target {spill!r} is neither callable nor a writer "
        f"with write_batch()")


def summarize(values: list[int]) -> dict:
    """min/avg/max summary of a list of durations (empty-safe)."""
    if not values:
        return {"count": 0, "min": None, "avg": None, "max": None}
    return {
        "count": len(values),
        "min": min(values),
        "avg": sum(values) / len(values),
        "max": max(values),
    }
