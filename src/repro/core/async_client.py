"""Event-driven LCM client for asynchronous transports.

The paper's client library deliberately exposes "a simple network
interface including methods for sending and receiving protocol messages"
so it can reuse an existing application network stack (Sec. 5.2).
:class:`AsyncLcmClient` is that integration style: instead of a blocking
``send_invoke``, the application supplies a ``send`` function and feeds
incoming REPLY bytes to :meth:`on_reply`; completions are delivered
through callbacks.

Semantics match :class:`~repro.core.client.LcmClient` exactly (it is the
same Alg. 1 state machine): sequential invocation per client, ``(tc, hc)``
context tracking, previous-chain verification, monotone stability.
Operations invoked while one is outstanding are queued, preserving the
paper's sequential-client assumption.

Used by :mod:`repro.sharding.cluster` to run the real protocol
over the discrete-event network with batching at the server — the full
Fig. 3 architecture under virtual time.
"""

from __future__ import annotations

import collections
from typing import Any, Callable

from repro.crypto.aead import AeadKey
from repro.errors import InvalidReply
from repro.core.client import Alg1State, LcmResult

CompletionCallback = Callable[[LcmResult], Any]


class AsyncLcmClient(Alg1State):
    """Alg. 1 as an event-driven state machine.

    Parameters
    ----------
    client_id, communication_key:
        As for the blocking client.
    send:
        Called with sealed INVOKE bytes; the application routes them to the
        server however it likes (sockets, DES channels, queues).
    """

    def __init__(
        self,
        client_id: int,
        communication_key: AeadKey,
        send: Callable[[bytes], Any],
    ) -> None:
        super().__init__(client_id, communication_key)
        self._send = send
        self._outstanding: tuple[Any, CompletionCallback] | None = None
        self._queue: collections.deque[tuple[Any, CompletionCallback]] = (
            collections.deque()
        )
        self._stability_callbacks: list[tuple[int, Callable[[int], Any]]] = []
        self.completed = 0

    # ------------------------------------------------------------ invoking

    @property
    def busy(self) -> bool:
        return self._outstanding is not None

    @property
    def queued(self) -> int:
        """Operations invoked but not yet sent (waiting on the
        outstanding one).  ``busy is False and queued == 0`` means this
        machine is fully drained — the control plane's quiescence
        condition during elastic resharding."""
        return len(self._queue)

    def invoke(self, operation: Any, on_complete: CompletionCallback) -> None:
        """Queue an operation; ``on_complete`` fires when its REPLY lands."""
        self._queue.append((operation, on_complete))
        self._pump()

    def _pump(self) -> None:
        if self._outstanding is not None or not self._queue:
            return
        operation, on_complete = self._queue.popleft()
        self._outstanding = (operation, on_complete)
        self._send(self._seal_invoke(operation))

    def retransmit(self) -> bool:
        """Resend the outstanding INVOKE with the retry marker (timeout
        recovery, Sec. 4.6.1).  Returns False if nothing is outstanding."""
        if self._outstanding is None:
            return False
        operation, _ = self._outstanding
        self._send(self._seal_invoke(operation, retry=True))
        return True

    # ------------------------------------------------------------- replies

    def on_reply(self, reply_box: bytes) -> LcmResult:
        """Feed an incoming REPLY; verifies, completes, and pumps the queue."""
        if self._outstanding is None:
            raise InvalidReply("REPLY received with no outstanding INVOKE")
        result = self._accept_reply(reply_box)
        _, on_complete = self._outstanding
        self._outstanding = None
        self.completed += 1
        self._fire_stability_callbacks()
        on_complete(result)
        self._pump()
        return result

    # --------------------------------------------------- stability callbacks

    def when_stable(self, sequence: int, callback: Callable[[int], Any]) -> None:
        """Venus-style notification (Sec. 4.5): fire ``callback(stable_seq)``
        once ``sequence`` is known to be stable among a majority.  Fires
        immediately if it already is."""
        if sequence <= self._stable_sequence:
            callback(self._stable_sequence)
            return
        self._stability_callbacks.append((sequence, callback))

    def _fire_stability_callbacks(self) -> None:
        if not self._stability_callbacks:
            return
        ready = [
            (sequence, callback)
            for sequence, callback in self._stability_callbacks
            if sequence <= self._stable_sequence
        ]
        self._stability_callbacks = [
            entry
            for entry in self._stability_callbacks
            if entry[0] > self._stable_sequence
        ]
        for _, callback in ready:
            callback(self._stable_sequence)
