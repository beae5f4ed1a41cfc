"""Point-to-point channels between protocol parties.

With a correct server, client<->T communication is reliable FIFO (Sec. 2.1).
A malicious server "may intercept, modify, reorder, discard, or replay
messages" (Sec. 2.3).  :class:`Channel` provides the former;
:class:`AdversarialChannel` wraps one with programmable interference so the
attack tests exercise the latter without touching protocol code.

Channels are synchronous-delivery by default (deliver immediately on
``send``), or virtual-time if constructed with a simulator + latency model.
Both modes deliver into a callback, mirroring a message handler.
"""

from __future__ import annotations

import collections
from typing import Any, Callable

from repro.errors import SimulationError
from repro.net.latency import LatencyModel
from repro.net.simulation import Simulator

Handler = Callable[[bytes], Any]


class Channel:
    """Reliable FIFO unicast channel delivering bytes to a handler."""

    def __init__(
        self,
        name: str = "",
        *,
        sim: Simulator | None = None,
        latency: LatencyModel | None = None,
    ) -> None:
        self.name = name
        self._handler: Handler | None = None
        self._sim = sim
        self._latency = latency or LatencyModel()
        self.sent = 0
        self.delivered = 0
        self.bytes_sent = 0
        # FIFO ordering under virtual time: ensure a later send never
        # overtakes an earlier one even with size-dependent delays.
        self._last_delivery_time = 0.0
        # messages on the wire, oldest first.  Delivery times never
        # decrease and equal times fire in scheduling order, so every
        # delivery event takes the oldest one: the events share one bound
        # method and one label instead of a closure and an f-string each
        self._wire: collections.deque[bytes] = collections.deque()
        self._deliver = self._deliver_oldest
        self._label = f"{name}:deliver"

    def connect(self, handler: Handler) -> None:
        """Attach the receiving endpoint."""
        self._handler = handler

    @property
    def pending(self) -> int:
        """Messages sent but not yet delivered (in flight on the wire).
        The elastic control plane polls this to know when a shard's
        links have drained before a handoff or recovery."""
        return self.sent - self.delivered

    def send(self, message: bytes) -> None:
        if self._handler is None:
            raise SimulationError(f"channel {self.name!r} has no receiver")
        size = len(message)
        self.sent += 1
        self.bytes_sent += size
        sim = self._sim
        if sim is None:
            self.delivered += 1
            self._handler(message)
            return
        delay = self._latency.one_way(size)
        deliver_at = max(sim.now + delay, self._last_delivery_time)
        self._last_delivery_time = deliver_at
        self._wire.append(message)
        sim.schedule_at(deliver_at, self._deliver, self._label)

    def _deliver_oldest(self) -> None:
        self.delivered += 1
        self._handler(self._wire.popleft())


class AdversarialChannel:
    """A channel under the control of a malicious server.

    The interference hook inspects each message and returns an action:

    - ``"pass"``    — deliver normally;
    - ``"drop"``    — silently discard (DoS, out of scope for detection);
    - ``"hold"``    — buffer the message; release later via :meth:`release`;
    - ``"replay"``  — deliver now and also keep a copy for later replay;
    - ``bytes``     — substitute the returned bytes (tampering).
    """

    def __init__(self, inner: Channel) -> None:
        self._inner = inner
        self._interfere: Callable[[bytes], Any] | None = None
        self._held: collections.deque[bytes] = collections.deque()
        self._replay_buffer: list[bytes] = []
        self.dropped = 0
        self.tampered = 0

    def connect(self, handler: Handler) -> None:
        self._inner.connect(handler)

    def set_interference(self, hook: Callable[[bytes], Any] | None) -> None:
        self._interfere = hook

    def send(self, message: bytes) -> None:
        action: Any = "pass" if self._interfere is None else self._interfere(message)
        if action == "pass":
            self._inner.send(message)
        elif action == "drop":
            self.dropped += 1
        elif action == "hold":
            self._held.append(message)
        elif action == "replay":
            self._replay_buffer.append(message)
            self._inner.send(message)
        elif isinstance(action, (bytes, bytearray)):
            self.tampered += 1
            self._inner.send(bytes(action))
        else:
            raise SimulationError(f"unknown interference action: {action!r}")

    def release(self, count: int | None = None) -> int:
        """Deliver held messages (FIFO).  Returns how many were released."""
        released = 0
        while self._held and (count is None or released < count):
            self._inner.send(self._held.popleft())
            released += 1
        return released

    def replay_all(self) -> int:
        """Re-deliver every recorded message (message-replay attack)."""
        for message in self._replay_buffer:
            self._inner.send(message)
        return len(self._replay_buffer)

    @property
    def held_count(self) -> int:
        return len(self._held)
