"""The per-group batch dispatch loop (Sec. 5.3).

:class:`GroupDispatcher` is the one place batch slicing, enclave-busy
gating and deliver scheduling on the virtual clock live.  The caller
supplies the transport (``send_batch`` into the server, ``deliver`` back
to a client), the batch price and optional hooks.  Two callers share it:
the cluster runtime (a shard's host and per-client channels, priced flat
per request) and the paper-figure model in :mod:`repro.perf.model`
(closed-loop clients, priced by the cost model), so Sec. 5.2/5.3
batching changes land here and reach both.  The batch ecall runs inline
at dispatch time; its replies are realized at the scheduled delivery
event.

Dispatch semantics (unchanged from the paper's prototype):

- requests queue in a bounded :class:`~repro.server.batching.BatchQueue`;
- a batch is cut whenever the enclave is idle and requests are pending —
  up to ``batch_limit`` of them ("once the queue reaches its limit *or no
  more client requests are available*", Sec. 5.3);
- the whole batch enters the enclave in one ecall; replies are delivered
  after ``service_time(len(batch))`` virtual seconds, after which the
  loop immediately tries to cut the next batch;
- a :class:`~repro.errors.SecurityViolation` raised by the enclave halts
  the dispatcher: pending requests stay queued, nothing further enters
  the enclave.  With an ``on_violation`` hook the violation is recorded
  and the simulation continues (the cluster's per-shard attribution);
  without one it propagates (fail-stop).

Batch-size statistics live in the queue's
:class:`~repro.server.batching.BatchSizeHistogram` — the one bounded
source the cluster stats read from.

The router's transaction group commit composes with this loop rather
than extending it: a group of prepares/decisions flushed against one
(client, shard) machine arrives here as *one* queued request (a single
``TXN_PREPARE_MANY``/``TXN_DECIDE_MANY`` operation), so it crosses the
boundary as one unit — one queue slot, one slice of the batch, one
sealed operation in the ecall — and it is priced as one request of the
batch.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import SecurityViolation
from repro.net.simulation import Simulator
from repro.server.batching import BatchQueue, BatchSizeHistogram


class GroupDispatcher:
    """One LCM group's request-batching loop over the virtual clock.

    Parameters
    ----------
    sim:
        The discrete-event simulator shared by the cluster.
    send_batch:
        ``(batch: list[(client_id, message)]) -> list[reply]`` — one ecall
        into the group's enclave (or the malicious server's per-client
        fallback).
    deliver:
        ``(client_id, reply) -> None`` — route one reply onto the
        client's downlink channel.
    batch_limit:
        Bounded batch queue size (Sec. 5.3).
    label:
        Event label for the simulator agenda (diagnostics).
    service_time:
        ``(batch_size) -> float`` — the virtual seconds the enclave is
        busy serving one batch of that size.
    on_violation:
        Optional hook for a :class:`SecurityViolation` raised by
        ``send_batch``.  When set, the dispatcher halts itself, calls the
        hook and returns (the cluster records the violation); when
        ``None`` the exception propagates.
    on_idle:
        Optional hook that runs each time the enclave goes idle after a
        delivery, *before* the next batch is cut — the sharded runtime
        runs deferred rebalances at exactly this batch boundary.
    on_batch_complete:
        Optional hook ``(batch_size) -> None`` fired after a batch's
        replies are delivered but *before* the ``on_idle`` boundary hook
        — the streaming verifier harvests audit evidence here, so it
        observes every batch's records before a deferred rebalance or
        reshard runs at the same boundary.
    boundary_gate:
        Optional predicate refining what counts as a *cuttable* batch
        boundary for ``on_idle``.  A cross-shard transaction's prepare
        locks keys whose decision is still in flight: the moment between
        the prepare's batch and the decision's batch is an enclave-idle
        point but **not** a safe boundary (a rebalance or arc handoff
        landing there would move keys a pending decision still
        addresses).  When the gate returns False the idle hook is
        skipped for this delivery and re-tried at the next one — which is
        guaranteed to come, because the pending decision itself arrives
        through this dispatcher (the idle hooks are level-triggered, so
        nothing is lost by skipping).  Ordinary dispatching is
        unaffected; only the boundary hook waits.
    """

    def __init__(
        self,
        *,
        sim: Simulator,
        send_batch: Callable[[list[tuple[int, bytes]]], list[bytes]],
        deliver: Callable[[int, bytes], None],
        service_time: Callable[[int], float],
        batch_limit: int = 16,
        label: str = "enclave-batch",
        on_violation: Callable[[SecurityViolation], None] | None = None,
        on_idle: Callable[[], None] | None = None,
        on_batch_complete: Callable[[int], None] | None = None,
        boundary_gate: Callable[[], bool] | None = None,
    ) -> None:
        self.queue: BatchQueue[tuple[int, bytes]] = BatchQueue(batch_limit)
        self.busy = False
        self.halted = False
        self._sim = sim
        self._send_batch = send_batch
        self._deliver = deliver
        self._label = label
        self._service_time = service_time
        self._on_violation = on_violation
        self._on_idle = on_idle
        self._on_batch_complete = on_batch_complete
        self._boundary_gate = boundary_gate
        #: deliveries whose boundary hook was withheld mid-transaction
        self.boundaries_deferred = 0
        #: size of the batch currently delivering replies (None outside
        #: the delivery loop) — lets the tracer stamp spans with the
        #: batch they travelled in without tagging each reply
        self.delivering_batch_size: int | None = None
        #: high-watermark of the request queue depth — the control-plane
        #: gauge source (one compare per enqueue; the registry is only
        #: consulted at snapshot time)
        self.queue_depth_peak = 0

    # ---------------------------------------------------------------- intake

    def enqueue(self, client_id: int, message: bytes) -> None:
        """Queue one INVOKE and cut a batch if the enclave is idle."""
        self.queue.add((client_id, message))
        depth = self.queue.pending_count
        if depth > self.queue_depth_peak:
            self.queue_depth_peak = depth
        self.maybe_dispatch()

    def halt(self) -> None:
        """Stop cutting batches (pending requests stay queued).

        Called by the cluster when a violation is detected outside the
        ecall itself — e.g. a client rejecting a forked reply."""
        self.halted = True

    @property
    def healthy(self) -> bool:
        """False once the dispatcher halted on a detected violation."""
        return not self.halted

    # -------------------------------------------------------------- dispatch

    def maybe_dispatch(self) -> None:
        """Cut and serve one batch if the enclave is idle (Sec. 5.3)."""
        if self.busy or self.halted or not self.queue.pending_count:
            return
        batch = self.queue.take()
        self.busy = True
        try:
            replies = self._send_batch(batch)
        except SecurityViolation as violation:
            self._handle_violation(violation)
            return

        def deliver() -> None:
            self.delivering_batch_size = len(batch)
            try:
                for (client_id, _), reply in zip(batch, replies):
                    self._deliver(client_id, reply)
            finally:
                self.delivering_batch_size = None
            self.busy = False
            if self._on_batch_complete is not None:
                # evidence harvest runs before the idle hook: the streaming
                # verifier must see this batch's audit suffix before a
                # deferred rebalance folds the live log into the prefix
                self._on_batch_complete(len(batch))
            self._fire_idle()
            self.maybe_dispatch()

        # the enclave stays busy for the batch's price, so more requests
        # can queue behind it
        self._sim.schedule(self._service_time(len(batch)), deliver, label=self._label)

    def _handle_violation(self, violation: SecurityViolation) -> None:
        """Server-side detection: the context halted mid-batch.  Stop
        dispatching (pending requests stay queued) and either let the
        cluster record it or fail the whole run."""
        self.busy = False
        self.halt()
        if self._on_violation is None:
            raise violation
        self._on_violation(violation)

    def _fire_idle(self) -> None:
        """Run the batch-boundary hook, withholding it while the boundary
        gate reports the enclave mid-transaction.  No poll is scheduled:
        the decision that re-opens the gate is itself a message through
        this dispatcher, so its delivery re-fires the (level-triggered)
        hook — and a run that ends with an unresolved transaction drains
        instead of spinning."""
        if self._on_idle is None:
            return
        if self._boundary_gate is None or self._boundary_gate():
            self._on_idle()
            return
        self.boundaries_deferred += 1

    # --------------------------------------------------------------- queries

    @property
    def batches(self) -> int:
        return self.queue.histogram.batches

    @property
    def items(self) -> int:
        return self.queue.histogram.items

    @property
    def histogram(self) -> BatchSizeHistogram:
        return self.queue.histogram

    @property
    def pending(self) -> int:
        return self.queue.pending_count
