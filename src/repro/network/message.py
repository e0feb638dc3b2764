"""Common message vocabulary for all bus models.

A :class:`Message` is one in-flight transmission instance; the protocol
modules add their own static frame descriptions (CAN ids, FlexRay slots,
TTP slots) around it.  Timestamps are filled in as the message moves through
queueing, transmission and reception, so latency components can be separated
in traces (queueing vs. wire time).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Optional

_msg_seq = itertools.count()


@dataclass(slots=True)
class Message:
    """One transmission: payload plus lifecycle timestamps (ns).

    ``enqueue_time`` — handed to the controller;
    ``tx_start`` — first bit on the wire;
    ``rx_time`` — received by peers (last bit).
    """

    name: str
    sender: str
    payload: Any = None
    size_bytes: int = 8
    enqueue_time: Optional[int] = None
    tx_start: Optional[int] = None
    rx_time: Optional[int] = None
    seq: int = field(default_factory=_msg_seq.__next__)

    @property
    def queueing_delay(self) -> Optional[int]:
        """Time from enqueue to first bit on the wire."""
        if self.enqueue_time is None or self.tx_start is None:
            return None
        return self.tx_start - self.enqueue_time

    @property
    def latency(self) -> Optional[int]:
        """End-to-end latency: enqueue to reception."""
        if self.enqueue_time is None or self.rx_time is None:
            return None
        return self.rx_time - self.enqueue_time

    def __repr__(self) -> str:
        return (f"<Message {self.name}#{self.seq} from {self.sender} "
                f"{self.size_bytes}B>")
