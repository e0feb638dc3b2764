"""Outside-in timing of the program's layers.

The benchmark wraps public functions of each layer by replacing the
module or class attribute the caller looks up, so nothing under
``src/`` changes.  With tracing off only the item function is wrapped,
by a :class:`Clock`; with tracing on every wrapper records a
:class:`~perfbench.metrics.Span` into a :class:`Tracer`, and the spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import Counter
from typing import Callable, Optional

from perfbench.metrics import Span, is_outermost, scaled, self_times
from perfbench.reference import reference_seconds

#: Layers whose self time the traced run reports, in report order.
LAYERS = ("generator", "mutate", "analysis", "build", "sim", "trace",
          "invariants", "resilience", "exec", "obs")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class Clock(Patches):
    """Samples the machine-speed reference
    (:func:`~perfbench.reference.reference_seconds`) and, given an item
    function, times each call of it with a sample just before.

    The caller brackets every batch with :meth:`begin_batch` and
    :meth:`end_batch`, which sample too.  The batch's speed is the mean
    of all its samples, spread through it; its items are scaled to the
    reference speed with that mean into ``scaled``, and ``items`` keeps
    their raw times.  ``reference_spent`` is the wall time the samples
    themselves took.
    """

    def __init__(self, owner=None, attr: str = ""):
        super().__init__()
        self.items: list[float] = []
        self.scaled: list[float] = []
        self.references: list[float] = []
        self.reference_spent = 0.0
        self._first_reference = self._first_item = 0
        if owner is None:
            return
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.sample()
            started = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.items.append(time.perf_counter() - started)

        self.patch(owner, attr, wrapper)

    def sample(self) -> None:
        started = time.perf_counter()
        self.references.append(reference_seconds())
        self.reference_spent += time.perf_counter() - started

    def begin_batch(self) -> None:
        self._first_reference = len(self.references)
        self._first_item = len(self.items)
        self.sample()

    def end_batch(self) -> float:
        """Sample, scale the batch's items; returns the batch's mean
        reference time."""
        self.sample()
        reference = statistics.mean(
            self.references[self._first_reference:])
        self.scaled += [scaled(seconds, reference)
                        for seconds in self.items[self._first_item:]]
        return reference


class Tracer(Patches):
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        super().__init__()
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.items = 0
        self._stack: list[int] = []
        self._item: Optional[int] = None

    # -- spans -----------------------------------------------------------
    def open(self, layer: str, name: str, item: bool = False) -> int:
        if item:
            self._item = self.items
            self.items += 1
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(layer, name, self.clock(), 0.0, parent,
                               self._item))
        self._stack.append(index)
        return index

    def close(self, index: int, item: bool = False) -> None:
        span = self.spans[index]
        span.end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")
        if item:
            self._item = None

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, layer: str, item: bool = False,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> None:
        """Time every call of ``owner.attr`` as a ``layer`` span.

        ``before(args)`` runs ahead of the call and its value reaches
        ``after(args, result, state, span)``, which records counts."""
        original = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args) if before is not None else None
            index = tracer.open(layer, name, item)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index, item)
            if after is not None:
                after(args, result, state, tracer.spans[index])
            return result

        self.patch(owner, attr, wrapper)

    def count_calls(self, owner, attr: str, counter: str) -> None:
        """Count calls of ``owner.attr`` without a span (hot paths)."""
        original = getattr(owner, attr)
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        self.patch(owner, attr, wrapper)

    def wrap_context(self, owner, attr: str, layer: str) -> None:
        """Time a context-manager factory from entry to exit."""
        original = getattr(owner, attr)
        name = f"{owner.__name__}.{attr}"
        tracer = self

        @contextlib.contextmanager
        def wrapper(*args, **kwargs):
            index = tracer.open(layer, name)
            try:
                with original(*args, **kwargs) as value:
                    yield value
            finally:
                tracer.close(index)

        self.patch(owner, attr, wrapper)

    # -- report ----------------------------------------------------------
    def layer_metrics(self, scale: float = 1.0) -> dict[str, float]:
        """Per-layer counts and self times over every span recorded, the
        times multiplied by ``scale``."""
        selfs = [own * scale for own in self_times(self.spans)]
        out: dict[str, float] = {f"{layer}.self_s": 0.0
                                 for layer in LAYERS}
        queries = returned = 0
        for index, (span, own) in enumerate(zip(self.spans, selfs)):
            key = f"{span.layer}.self_s"
            if key in out:
                out[key] += own
            if span.layer == "trace" and is_outermost(self.spans, index):
                queries += 1
                returned += span.size
        out["trace.query_self_s"] = out.pop("trace.self_s")
        out["trace.queries"] = queries
        out["trace.records_returned"] = returned
        out["trace.us_per_query"] = (out["trace.query_self_s"] * 1e6
                                     / queries if queries else 0.0)
        for name in ("trace.records_logged", "sim.runs", "sim.events",
                     "analysis.calls", "analysis.bounds",
                     "analysis.declined", "invariants.records_fed",
                     "resilience.scenarios", "resilience.worlds",
                     "mutate.calls", "exec.calls"):
            out[name] = self.counts[name]
        events = self.counts["sim.events"]
        out["sim.host_ns_per_event"] = (out["sim.self_s"] * 1e9 / events
                                        if events else 0.0)
        return out

    def spans_json(self) -> list[list]:
        return [[s.layer, s.name, s.start, s.end, s.parent, s.item, s.size]
                for s in self.spans]


def install_layers(tracer: Tracer, item_owner, item_attr: str) -> None:
    """Wrap every layer boundary; ``item_owner.item_attr`` becomes the
    item span (in layer ``oracle`` unless it is a layer boundary itself).

    Each patch replaces the attribute its caller looks up at call time:
    a module global for functions imported at module level, the package
    or class attribute otherwise.
    """
    from importlib import import_module

    from repro.network.can import CanBus
    from repro.network.flexray import FlexRayBus
    from repro.sim.kernel import Simulator
    from repro.sim.trace import Trace
    from repro.verify.invariants import InvariantChecker

    # import_module, not attribute access: ``repro.verify.fuzz`` is
    # rebound to the ``fuzz`` function by the package's own imports.
    exec_, obs, fuzz, generator, oracle, resilience = (
        import_module(f"repro.{name}") for name in (
            "exec", "obs", "verify.fuzz", "verify.generator",
            "verify.oracle", "verify.resilience"))
    counts = tracer.counts

    def bump(name: str, value: Callable = lambda args, result: 1):
        def after(args, result, state, span):
            counts[name] += value(args, result)
        return after

    def analysed(args, result, state, span):
        bounds, declined = result
        counts["analysis.calls"] += 1
        counts["analysis.bounds"] += len(bounds)
        counts["analysis.declined"] += len(declined)

    def simulated(args, result, state, span):
        counts["sim.runs"] += 1
        counts["sim.events"] += args[0].executed - state

    def returned(args, result, state, span):
        span.size = len(result)

    def resilient(args, result, state, span):
        counts["resilience.scenarios"] += len(args[0].faults)

    targets = [
        (oracle, "generate_many", "generator", None),
        (fuzz, "generate_many", "generator", None),
        (generator, "generate_many", "generator", None),
        (fuzz, "mutate", "mutate", bump("mutate.calls")),
        (oracle, "analyze_bounds", "analysis", analysed),
        (oracle, "build_system", "build", None),
        (Simulator, "run_until", "sim", simulated),
        (Trace, "records", "trace", returned),
        (CanBus, "latencies", "trace", returned),
        (FlexRayBus, "latencies", "trace", returned),
        (InvariantChecker, "run", "invariants",
         bump("invariants.records_fed", lambda args, result: len(args[1]))),
        (resilience, "verify_resilience", "resilience", resilient),
        (exec_, "execute", "exec", bump("exec.calls")),
        (obs, "harvest_trace", "obs", None),
    ]
    befores = {"run_until": lambda args: args[0].executed}
    item_wrapped = False
    for owner, attr, layer, after in targets:
        is_item = owner is item_owner and attr == item_attr
        item_wrapped = item_wrapped or is_item
        tracer.wrap(owner, attr, layer, item=is_item,
                    before=befores.get(attr), after=after)
    if not item_wrapped:
        tracer.wrap(item_owner, item_attr, "oracle", item=True)
    tracer.wrap_context(obs, "capture", "obs")
    tracer.count_calls(Trace, "log", "trace.records_logged")
    tracer.count_calls(resilience.ResilienceWorld, "__init__",
                       "resilience.worlds")
