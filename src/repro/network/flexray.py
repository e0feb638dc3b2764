"""FlexRay bus simulation (protocol spec v2.1 structure).

A FlexRay communication cycle consists of

* a **static segment**: ``n_static_slots`` equal TDMA slots, each statically
  owned by one (node, frame) pair — this is the interference-free,
  composable part;
* a **dynamic segment**: ``n_minislots`` minislots arbitrated by frame ID
  (lower ID = earlier transmission opportunity); a dynamic frame consumes
  as many minislots as its transmission needs, and is postponed to the next
  cycle when the remaining minislots cannot hold it;
* (symbol window and NIT are folded into the cycle remainder).

Static frames support cycle multiplexing via ``base_cycle`` /
``repetition`` over the 64-cycle matrix, as in the real schedule tables.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Optional

from repro import obs
from repro.errors import ConfigurationError, ProtocolError
from repro.network.message import Message
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace
from repro.units import bit_time

CYCLE_COUNT_MAX = 64


class FlexRayConfig:
    """Timing parameters of one FlexRay cluster."""

    def __init__(self, slot_length: int, n_static_slots: int,
                 minislot_length: int = 0, n_minislots: int = 0,
                 nit_length: int = 0, bitrate_bps: int = 10_000_000):
        if slot_length <= 0 or n_static_slots <= 0:
            raise ConfigurationError("static segment must be non-empty")
        if minislot_length < 0 or n_minislots < 0:
            raise ConfigurationError("negative dynamic segment parameters")
        if n_minislots > 0 and minislot_length <= 0:
            raise ConfigurationError("minislots need a positive length")
        self.slot_length = slot_length
        self.n_static_slots = n_static_slots
        self.minislot_length = minislot_length
        self.n_minislots = n_minislots
        self.nit_length = nit_length
        self.bitrate_bps = bitrate_bps

    @property
    def static_segment_length(self) -> int:
        """Duration of the static TDMA segment."""
        return self.slot_length * self.n_static_slots

    @property
    def dynamic_segment_length(self) -> int:
        """Duration of the dynamic (minislot) segment."""
        return self.minislot_length * self.n_minislots

    @property
    def cycle_length(self) -> int:
        """Duration of one full communication cycle."""
        return (self.static_segment_length + self.dynamic_segment_length
                + self.nit_length)

    def payload_capacity_bytes(self) -> int:
        """Payload bytes that fit a static slot (frame overhead ~ 80 bits:
        header 40 + trailer 24 + TSS/FES margins)."""
        bits = self.slot_length // bit_time(self.bitrate_bps)
        return max(0, (bits - 80) // 8)

    def __repr__(self) -> str:
        return (f"<FlexRayConfig {self.n_static_slots}x{self.slot_length}ns"
                f" + {self.n_minislots} minislots>")


class StaticSlotAssignment:
    """Ownership of one static slot by a frame of a node."""

    def __init__(self, slot: int, node: str, frame_name: str,
                 base_cycle: int = 0, repetition: int = 1):
        if repetition not in (1, 2, 4, 8, 16, 32, 64):
            raise ConfigurationError(
                f"slot {slot}: repetition must be a power of two <= 64")
        if not 0 <= base_cycle < repetition:
            raise ConfigurationError(
                f"slot {slot}: base_cycle must be < repetition")
        self.slot = slot
        self.node = node
        self.frame_name = frame_name
        self.base_cycle = base_cycle
        self.repetition = repetition

    def active_in_cycle(self, cycle: int) -> bool:
        """Whether the cycle-multiplexing selects this cycle."""
        return cycle % self.repetition == self.base_cycle

    def __repr__(self) -> str:
        return (f"<StaticSlot {self.slot} {self.node}/{self.frame_name} "
                f"{self.base_cycle}/{self.repetition}>")


class DynamicFrameSpec:
    """A frame transmitted in the dynamic segment."""

    def __init__(self, name: str, frame_id: int, size_bytes: int = 8):
        if frame_id <= 0:
            raise ConfigurationError(f"frame {name}: frame_id must be > 0")
        if size_bytes < 0:
            raise ConfigurationError(f"frame {name}: negative size")
        self.name = name
        self.frame_id = frame_id
        self.size_bytes = size_bytes

    def __repr__(self) -> str:
        return f"<DynamicFrameSpec {self.name} id={self.frame_id}>"


class FlexRayController:
    """Node-local controller: transmit buffers + receive callbacks."""

    def __init__(self, bus: "FlexRayBus", node: str):
        self.bus = bus
        self.node = node
        self._static_buffers: dict[int, Message] = {}
        self._dynamic_queue: list[tuple[int, int, DynamicFrameSpec, Message]] = []
        self._rx_callbacks: list[Callable] = []
        self.tx_count = 0

    def send_static(self, slot: int, payload=None) -> Message:
        """Update the transmit buffer of an owned static slot.  The newest
        value is sent at the next slot occurrence (sender overwrites)."""
        assignment = self.bus._slot_table.get(slot)
        if assignment is None or assignment.node != self.node:
            raise ProtocolError(
                f"node {self.node} does not own static slot {slot}")
        msg = Message(assignment.frame_name, self.node, payload,
                      enqueue_time=self.bus.sim.now)
        self._static_buffers[slot] = msg
        return msg

    def queue_dynamic(self, spec: DynamicFrameSpec, payload=None) -> Message:
        """Queue a frame for the dynamic segment."""
        msg = Message(spec.name, self.node, payload, spec.size_bytes,
                      enqueue_time=self.bus.sim.now)
        self._dynamic_queue.append((spec.frame_id, msg.seq, spec, msg))
        self._dynamic_queue.sort()
        return msg

    def on_receive(self, callback: Callable) -> None:
        """Register a reception callback (frame name, message, slot)."""
        self._rx_callbacks.append(callback)
        self.bus._update_receivers()

    def _deliver(self, frame_name: str, msg: Message, slot) -> None:
        for callback in self._rx_callbacks:
            callback(frame_name, msg, slot)

    def __repr__(self) -> str:
        return f"<FlexRayController {self.node}>"


class FlexRayBus:
    """The cluster: slot table, cycle engine, delivery.

    ``fault_model`` optionally decides per static slot whether the owning
    node's transmission is lost (``(assignment, cycle) -> bool``); used by
    the fault-injection experiments.
    """

    def __init__(self, sim: Simulator, config: FlexRayConfig,
                 trace: Optional[Trace] = None, name: str = "FlexRay",
                 fault_model: Optional[Callable] = None):
        self.sim = sim
        self.config = config
        self.trace = trace if trace is not None else Trace()
        self.name = name
        self.fault_model = fault_model
        self.controllers: dict[str, FlexRayController] = {}
        #: the controllers with receive callbacks, in attach order: the
        #: only peers a transmission is delivered to.
        self._receivers: list[FlexRayController] = []
        self._slot_table: dict[int, StaticSlotAssignment] = {}
        #: cycle % _plan_period -> [(slot, slot-end callback)] of the
        #: assignments active in that cycle, in slot order; built on
        #: first use and dropped by assign_slot.  The plan period is the
        #: largest repetition in the table, a divisor of CYCLE_COUNT_MAX
        #: that every other repetition divides.
        self._slot_plans: dict[int, list[tuple[int, Callable]]] = {}
        self._plan_period = 1
        self.cycle = 0
        self._started = False

    def attach(self, node: str) -> FlexRayController:
        """Attach a node; returns its controller."""
        if node in self.controllers:
            raise ConfigurationError(
                f"{self.name}: node {node!r} already attached")
        controller = FlexRayController(self, node)
        self.controllers[node] = controller
        return controller

    def _update_receivers(self) -> None:
        self._receivers = [c for c in self.controllers.values()
                           if c._rx_callbacks]

    def assign_slot(self, assignment: StaticSlotAssignment) -> None:
        """Install a static-slot ownership; slots are exclusive per
        (slot, cycle-multiplex) — this simplified table is exclusive per
        slot outright."""
        if not 1 <= assignment.slot <= self.config.n_static_slots:
            raise ConfigurationError(
                f"slot {assignment.slot} outside 1.."
                f"{self.config.n_static_slots}")
        if assignment.slot in self._slot_table:
            raise ConfigurationError(
                f"slot {assignment.slot} already assigned")
        if assignment.node not in self.controllers:
            raise ConfigurationError(
                f"unknown node {assignment.node!r} for slot "
                f"{assignment.slot}")
        self._slot_table[assignment.slot] = assignment
        self._slot_plans = {}
        self._plan_period = max(self._plan_period, assignment.repetition)

    def start(self) -> None:
        """Begin cycle 0 at the current simulation time."""
        if self._started:
            raise ConfigurationError(f"{self.name} already started")
        self._started = True
        self._cycle_start(self.sim.now)

    # ------------------------------------------------------------------
    def _slot_plan(self, cycle: int) -> list[tuple[int, Callable]]:
        """The static slots that transmit in ``cycle``, in slot order,
        each with its slot-end callback."""
        phase = cycle % self._plan_period
        plan = self._slot_plans.get(phase)
        if plan is None:
            plan = self._slot_plans[phase] = [
                (slot, partial(self._static_slot_end, assignment))
                for slot, assignment in sorted(self._slot_table.items())
                if assignment.active_in_cycle(phase)]
        return plan

    def _cycle_start(self, t0: int) -> None:
        self.trace.log(t0, "flexray.cycle", self.name, cycle=self.cycle)
        config = self.config
        schedule_at = self.sim.schedule_at
        slot_length = config.slot_length
        for slot, slot_end in self._slot_plan(self.cycle):
            schedule_at(t0 + slot * slot_length, slot_end)
        if config.n_minislots > 0:
            schedule_at(t0 + config.static_segment_length,
                        self._run_dynamic_segment)
        schedule_at(t0 + config.cycle_length, self._advance_cycle)

    def _advance_cycle(self) -> None:
        self.cycle += 1
        self._cycle_start(self.sim.now)

    def _static_slot_end(self, assignment: StaticSlotAssignment) -> None:
        now = self.sim.now
        controller = self.controllers[assignment.node]
        msg = controller._static_buffers.pop(assignment.slot, None)
        if self.fault_model is not None and self.fault_model(assignment,
                                                             self.cycle):
            self.trace.log(now, "flexray.slot_lost", assignment.frame_name,
                           node=assignment.node, slot=assignment.slot)
            return
        if msg is None:
            # Null frame: the slot elapses, peers observe absence.
            self.trace.log(now, "flexray.null_frame", assignment.frame_name,
                           node=assignment.node, slot=assignment.slot)
            return
        msg.tx_start = now - self.config.slot_length
        msg.rx_time = now
        controller.tx_count += 1
        obs.count("flexray.static_tx")
        self.trace.log(now, "flexray.rx", assignment.frame_name,
                       node=assignment.node, slot=assignment.slot,
                       latency=msg.latency)
        for peer in self._receivers:
            if peer is not controller:
                peer._deliver(assignment.frame_name, msg, assignment.slot)

    def _run_dynamic_segment(self) -> None:
        """Arbitrate the whole dynamic segment at its start.

        Minislot counting is evaluated eagerly: queued frames are visited
        in ascending (frame ID, enqueue order); each consumes ``ceil(tx_time
        / minislot)`` minislots.  The first frame that does not fit in the
        minislots left ends the segment: it and every frame after it stay
        queued for the next cycle, and their minislots are *not* consumed.
        """
        t0 = self.sim.now
        tbit = bit_time(self.config.bitrate_bps)
        pending = []
        for controller in self.controllers.values():
            pending.extend(controller._dynamic_queue)
        pending.sort()
        used = 0
        sent = []
        for frame_id, seq, spec, msg in pending:
            frame_ns = (spec.size_bytes * 8 + 80) * tbit
            need = max(1, math.ceil(frame_ns / self.config.minislot_length))
            if used + need > self.config.n_minislots:
                # Stop at the first frame that does not fit: it and every
                # later frame in ID order wait for the next cycle, even a
                # smaller one that would fit.  The dynamic-segment bound
                # in repro.analysis.flexray_rta assumes the same
                # ID-ordered stop: all lower-ID frames go first.
                break
            start = t0 + used * self.config.minislot_length
            end = start + need * self.config.minislot_length
            used += need
            sent.append((spec, msg, start, end))
        for spec, msg, start, end in sent:
            controller = self.controllers[msg.sender]
            controller._dynamic_queue.remove(
                (spec.frame_id, msg.seq, spec, msg))
            self.sim.schedule_at(
                end, lambda s=spec, m=msg, st=start: self._dynamic_rx(s, m, st))

    def _dynamic_rx(self, spec: DynamicFrameSpec, msg: Message,
                    start: int) -> None:
        now = self.sim.now
        msg.tx_start = start
        msg.rx_time = now
        controller = self.controllers[msg.sender]
        controller.tx_count += 1
        obs.count("flexray.dynamic_tx")
        self.trace.log(now, "flexray.rx_dynamic", spec.name, node=msg.sender,
                       frame_id=spec.frame_id, latency=msg.latency)
        for peer in self._receivers:
            if peer is not controller:
                peer._deliver(spec.name, msg, None)

    # ------------------------------------------------------------------
    def latencies(self, frame_name: str) -> list[int]:
        """Observed latencies of a frame (static and dynamic).

        Records without a ``latency`` key are skipped."""
        recs = (self.trace.records("flexray.rx", frame_name)
                + self.trace.records("flexray.rx_dynamic", frame_name))
        return [r.data["latency"] for r in recs if "latency" in r.data]

    def __repr__(self) -> str:
        return f"<FlexRayBus {self.name} cycle={self.cycle}>"
