"""Per-request spans across router -> dispatcher -> enclave -> reply.

A :class:`Span` follows one client operation through the sharded stack:

- ``submitted_at``  — the router handed the operation to the client
  machine (``ShardRouter._dispatch``);
- ``delivered_at``  — the shard's dispatcher put the reply on the
  client's downlink channel (end of the enclave batch's service
  interval);
- ``completed_at``  — the client machine verified the reply and ran the
  completion callback (the operation is now in the shard history);
- ``batch_size``    — size of the enclave batch the reply travelled in;
- ``stages``        — the enclave-depth stage record for that batch
  (wall-clock durations measured *inside* the ecall: MAC-scan/decrypt/
  verify, per-op execute, reply encode+seal, dynamic-layer state seal),
  joined to the span at the virtual-time delivery event;
- ``batch_index``   — the span's position inside its batch, derived by
  the tracer from consecutive deliveries sharing one stage record (so
  ``stages["per_op_execute"][batch_index]`` is this operation's own
  execute time).

Spans therefore carry both clocks: the protocol timeline in virtual
seconds (``submitted_at``/``delivered_at``/``completed_at``) and the
enclave's wall-clock cost in the attached stage record.

Correlation needs no per-message tags: a client machine keeps at most
one protocol message in flight per shard and replies come back in invoke
order, so the tracer matches deliveries to the oldest open span of that
``(shard, client)`` pair (FIFO).

Tracing is **off by default**: when ``enabled`` is False, ``start``
returns ``None`` and every hook is a single attribute test — the hot
path allocates nothing.  Finished spans live in a bounded deque.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable


class Span:
    """One operation's trip through the stack (all times virtual)."""

    __slots__ = (
        "kind",
        "client_id",
        "shard_id",
        "operation",
        "submitted_at",
        "delivered_at",
        "completed_at",
        "batch_size",
        "sequence",
        "stages",
        "batch_index",
        "extra",
    )

    def __init__(
        self,
        kind: str,
        *,
        client_id: int | None = None,
        shard_id: int | None = None,
        operation: str | None = None,
        submitted_at: float = 0.0,
        **extra: Any,
    ) -> None:
        self.kind = kind
        self.client_id = client_id
        self.shard_id = shard_id
        self.operation = operation
        self.submitted_at = submitted_at
        self.delivered_at: float | None = None
        self.completed_at: float | None = None
        self.batch_size: int | None = None
        self.sequence: int | None = None
        #: per-batch enclave stage record (shared by every span of the
        #: batch) and this span's position within it — None until the
        #: delivery event, and None throughout when no stage probe runs
        self.stages: dict[str, Any] | None = None
        self.batch_index: int | None = None
        self.extra = extra

    @property
    def latency(self) -> float | None:
        if self.completed_at is None:
            return None
        return self.completed_at - self.submitted_at

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "client_id": self.client_id,
            "shard_id": self.shard_id,
            "operation": self.operation,
            "submitted_at": self.submitted_at,
            "delivered_at": self.delivered_at,
            "completed_at": self.completed_at,
            "batch_size": self.batch_size,
            "sequence": self.sequence,
            "latency": self.latency,
            "stages": self.stages,
            "batch_index": self.batch_index,
            **self.extra,
        }


class SpanTracer:
    """Bounded collector of finished spans over the virtual clock."""

    SPAN_LIMIT = 4096

    def __init__(
        self, clock: Callable[[], float] | None = None, *, enabled: bool = False
    ) -> None:
        self.enabled = enabled
        self._clock = clock if clock is not None else (lambda: 0.0)
        self.spans: deque[Span] = deque(maxlen=self.SPAN_LIMIT)
        #: open spans per (shard_id, client_id), oldest first
        self._open: dict[tuple[int, int], deque[Span]] = {}
        #: batch-position cursor: consecutive deliveries handing in the
        #: *same* stage record object belong to the same batch
        self._last_stages: dict[str, Any] | None = None
        self._stage_cursor = 0

    # ------------------------------------------------------------- lifecycle

    def start(
        self,
        kind: str,
        *,
        client_id: int,
        shard_id: int,
        operation: str | None = None,
        **extra: Any,
    ) -> Span | None:
        if not self.enabled:
            return None
        span = Span(
            kind,
            client_id=client_id,
            shard_id=shard_id,
            operation=operation,
            submitted_at=self._clock(),
            **extra,
        )
        self._open.setdefault((shard_id, client_id), deque()).append(span)
        return span

    def delivered(
        self,
        shard_id: int,
        client_id: int,
        batch_size: int | None = None,
        stages: dict[str, Any] | None = None,
    ) -> None:
        """Stamp the oldest open span of this (shard, client) pair.

        ``stages`` is the per-batch enclave stage record captured inside
        the ecall.  The dispatcher delivers a batch's replies back to
        back in batch order, so the tracer derives each span's position
        (``batch_index``) by counting consecutive deliveries that share
        the same record object — even deliveries with no matching open
        span advance the cursor, keeping later indices aligned.
        """
        if not self.enabled:
            return
        index = None
        if stages is not None:
            if stages is self._last_stages:
                self._stage_cursor += 1
            else:
                self._last_stages = stages
                self._stage_cursor = 0
            index = self._stage_cursor
        open_spans = self._open.get((shard_id, client_id))
        if not open_spans:
            return
        for span in open_spans:
            if span.delivered_at is None:
                span.delivered_at = self._clock()
                span.batch_size = batch_size
                span.stages = stages
                span.batch_index = index
                return

    def finish(self, span: Span | None, *, sequence: int | None = None) -> None:
        if span is None or not self.enabled:
            return
        span.completed_at = self._clock()
        span.sequence = sequence
        open_spans = self._open.get((span.shard_id, span.client_id))
        if open_spans:
            try:
                open_spans.remove(span)
            except ValueError:
                pass
        self.spans.append(span)

    def discard(self, span: Span | None) -> None:
        """Drop a span that will never complete (parked/dropped ops)."""
        if span is None:
            return
        open_spans = self._open.get((span.shard_id, span.client_id))
        if open_spans:
            try:
                open_spans.remove(span)
            except ValueError:
                pass

    # --------------------------------------------------------------- queries

    def finished(self, kind: str | None = None) -> list[Span]:
        if kind is None:
            return list(self.spans)
        return [span for span in self.spans if span.kind == kind]


class StageProbe:
    """Landing pad for per-batch enclave stage records.

    The trusted context calls the probe from *inside* the ecall.  The
    cluster's ``send_batch`` wrapper runs immediately after the ecall
    returns, takes the record and parks it on the shard; the
    dispatcher's delivery event then hands it to the tracer.  Stage
    timings thus enter the virtual-time order at the batch boundary
    exactly like the replies they describe.
    """

    __slots__ = ("_record",)

    def __init__(self) -> None:
        self._record: dict[str, Any] | None = None

    def __call__(self, record: dict[str, Any]) -> None:
        self._record = record

    def take(self) -> dict[str, Any] | None:
        """Return and clear the parked record."""
        record, self._record = self._record, None
        return record
