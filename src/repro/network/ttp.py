"""TTP/C-style time-triggered cluster (Kopetz & Grünsteidl [12]).

Structure: a TDMA **round** gives every node exactly one slot; the cluster
repeats rounds indefinitely (the cluster cycle is one round here — cycle
multiplexing of different messages is left to the layer above).  Modelled
protocol mechanisms:

* **state broadcast**: each node transmits its buffer in its slot, every
  round, whether or not new data arrived (time-triggered semantics);
* **membership**: every node maintains a membership vector; a node that is
  silent (crashed) or whose slot is destroyed by interference drops out of
  the vector at its slot end and reintegrates after its next good slot;
* **bus guardian**: an independent :class:`~repro.network.guardian.SlotGuardian`
  per node gates transmissions to the node's own slot.  With guardians
  enabled a babbling node is contained; with guardians disabled its
  out-of-slot traffic destroys the slots of well-behaved nodes — the
  failure the paper's integrated architecture must exclude.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import ConfigurationError
from repro.network.guardian import SlotGuardian
from repro.network.message import Message
from repro.sim.clock import DriftingClock
from repro.sim.kernel import Simulator
from repro.sim.trace import Trace


class TtpNode:
    """One cluster node: transmit buffer, fault flags, receive callbacks."""

    def __init__(self, cluster: "TtpCluster", name: str, slot_index: int):
        self.cluster = cluster
        self.name = name
        self.slot_index = slot_index
        self.guardian: Optional[SlotGuardian] = None
        self.clock = None  # DriftingClock, set by the cluster
        self.crashed = False
        self.babbling = False
        self._payload = None
        self._payload_time: Optional[int] = None
        self._rx_callbacks: list[Callable[[str, Message], None]] = []
        self.tx_count = 0

    def set_payload(self, payload) -> None:
        """Install the state this node broadcasts each round."""
        self._payload = payload
        self._payload_time = self.cluster.sim.now

    def on_receive(self, callback: Callable[[str, Message], None]) -> None:
        """Register a callback for other nodes' state broadcasts."""
        self._rx_callbacks.append(callback)

    def crash(self) -> None:
        """Fail-silent from now on."""
        self.crashed = True

    def recover(self) -> None:
        """End a fail-silent (crash) episode."""
        self.crashed = False

    def start_babbling(self) -> None:
        """Become a babbling idiot: transmit continuously, including in
        other nodes' slots (contained only by an enabled guardian)."""
        self.babbling = True

    def stop_babbling(self) -> None:
        """End a babbling-idiot episode."""
        self.babbling = False

    def _deliver(self, sender: str, msg: Message) -> None:
        for callback in self._rx_callbacks:
            callback(sender, msg)

    def __repr__(self) -> str:
        flags = []
        if self.crashed:
            flags.append("crashed")
        if self.babbling:
            flags.append("babbling")
        return f"<TtpNode {self.name} slot={self.slot_index} {flags}>"


class TtpCluster:
    """The TDMA round engine plus membership service."""

    def __init__(self, sim: Simulator, node_names: list[str],
                 slot_length: int, trace: Optional[Trace] = None,
                 name: str = "TTP", guardians_enabled: bool = True,
                 clock_drift_ppm: Optional[dict[str, float]] = None,
                 guard_time: Optional[int] = None,
                 resync_every_rounds: int = 1):
        if len(node_names) < 2:
            raise ConfigurationError("a TTP cluster needs >= 2 nodes")
        if len(set(node_names)) != len(node_names):
            raise ConfigurationError("duplicate node names")
        if slot_length <= 0:
            raise ConfigurationError("slot_length must be > 0")
        if resync_every_rounds <= 0:
            raise ConfigurationError("resync_every_rounds must be > 0")
        self.sim = sim
        self.trace = trace if trace is not None else Trace()
        self.name = name
        self.slot_length = slot_length
        #: idle margin at each end of a slot; a node whose local clock
        #: strays beyond it transmits into a neighbour's slot.
        self.guard_time = (guard_time if guard_time is not None
                           else slot_length // 20)
        if not 0 <= 2 * self.guard_time < slot_length:
            raise ConfigurationError(
                f"guard_time {self.guard_time} too large for slot "
                f"{slot_length}")
        self.resync_every_rounds = resync_every_rounds
        self.nodes: dict[str, TtpNode] = {}
        drifts = clock_drift_ppm or {}
        for index, node_name in enumerate(node_names):
            node = TtpNode(self, node_name, index)
            node.clock = DriftingClock(drifts.get(node_name, 0.0))
            node.guardian = SlotGuardian(
                node_name,
                [(index * slot_length, slot_length)],
                period=slot_length * len(node_names),
                enabled=guardians_enabled)
            self.nodes[node_name] = node
        self._order = list(node_names)
        self.membership: set[str] = set(node_names)
        self.round = 0
        self.sync_errors = 0
        self._started = False

    @property
    def round_length(self) -> int:
        """Duration of one TDMA round over all nodes."""
        return self.slot_length * len(self._order)

    def node(self, name: str) -> TtpNode:
        """Look up a cluster node by name."""
        return self.nodes[name]

    def set_guardians(self, enabled: bool) -> None:
        """Enable/disable every node's bus guardian."""
        for node in self.nodes.values():
            node.guardian.enabled = enabled

    def start(self) -> None:
        """Begin the TDMA rounds at the current time."""
        if self._started:
            raise ConfigurationError(f"{self.name} already started")
        self._started = True
        self._schedule_slot(0)

    # ------------------------------------------------------------------
    def _schedule_slot(self, slot_in_round: int) -> None:
        self.sim.schedule(self.slot_length,
                          lambda: self._slot_end(slot_in_round))

    def _slot_end(self, slot_in_round: int) -> None:
        now = self.sim.now
        owner = self.nodes[self._order[slot_in_round]]
        slot_start = now - self.slot_length
        interference = self._interference(owner, slot_start)
        if owner.crashed:
            self._observe_silence(owner, now, reason="crash")
        elif interference:
            self.trace.log(now, "ttp.collision", owner.name,
                           caused_by=interference)
            self._observe_silence(owner, now, reason="collision")
        elif not self._clock_ok(owner, slot_start):
            self.sync_errors += 1
            self.trace.log(now, "ttp.sync_error", owner.name,
                           error=owner.clock.error_at(slot_start))
            self._observe_silence(owner, now, reason="sync_error")
        else:
            self._deliver_slot(owner, slot_start, now)
        next_slot = (slot_in_round + 1) % len(self._order)
        if next_slot == 0:
            self.round += 1
            if self.round % self.resync_every_rounds == 0:
                self._resynchronize(now)
        self._schedule_slot(next_slot)

    def _clock_ok(self, owner: TtpNode, slot_start: int) -> bool:
        """A node's transmission stays in its slot iff its local clock
        error is within the guard margin."""
        if owner.clock is None:
            return True
        return owner.clock.error_at(slot_start) <= self.guard_time

    def _resynchronize(self, now: int) -> None:
        """Clock synchronization round: members cancel their accumulated
        offsets (the rate error remains — precision grows again until
        the next resync)."""
        for node in self.nodes.values():
            if node.clock is not None and not node.crashed:
                node.clock.resynchronize(now)

    def _interference(self, owner: TtpNode, slot_start: int) -> Optional[str]:
        """Name of a babbling node whose traffic destroys this slot, if
        any.  A babbler transmitting in its *own* slot is legal."""
        for node in self.nodes.values():
            if node is owner or not node.babbling or node.crashed:
                continue
            if node.guardian.permit(slot_start):
                return node.name
            # Logged when the slot is evaluated (its end), not back-dated
            # to its start: trace records must be time-ordered.
            self.trace.log(self.sim.now, "ttp.guardian_block", node.name,
                           slot_start=slot_start)
        return None

    def _deliver_slot(self, owner: TtpNode, slot_start: int,
                      now: int) -> None:
        msg = Message(f"{owner.name}.state", owner.name, owner._payload,
                      enqueue_time=owner._payload_time
                      if owner._payload_time is not None else slot_start)
        msg.tx_start = slot_start
        msg.rx_time = now
        owner.tx_count += 1
        self.trace.log(now, "ttp.rx", owner.name, round=self.round,
                       latency=msg.latency)
        if owner.name not in self.membership:
            self.membership.add(owner.name)
            self.trace.log(now, "ttp.membership_join", owner.name)
        for node in self.nodes.values():
            if node is not owner and not node.crashed:
                node._deliver(owner.name, msg)

    def _observe_silence(self, owner: TtpNode, now: int,
                         reason: str) -> None:
        if owner.name in self.membership:
            self.membership.remove(owner.name)
            self.trace.log(now, "ttp.membership_drop", owner.name,
                           reason=reason)

    # ------------------------------------------------------------------
    def reception_times(self, node_name: str) -> list[int]:
        """Timestamps at which a node's broadcasts were received."""
        return self.trace.times("ttp.rx", node_name)

    def __repr__(self) -> str:
        return (f"<TtpCluster {self.name} nodes={len(self.nodes)} "
                f"membership={sorted(self.membership)}>")
