"""Pluggable shard-execution backends for the group dispatch loop.

A :class:`~repro.server.dispatch.GroupDispatcher` hands each cut batch to
an execution backend and only *realizes* the replies at the scheduled
delivery event on the virtual clock.  Two backends exist:

- :class:`SerialBackend` (the default) runs the ecall immediately on the
  caller's thread — exactly the historical dispatch semantics, fully
  deterministic, violations surface at submit time;
- :class:`ThreadedBackend` runs it on a worker pool.  The enclave hot
  path is one C call per batch (``lcm_invoke_batch_open`` /
  ``lcm_invoke_batch_reply``) and cffi releases the GIL around it, so
  batches of *different* shards execute concurrently on a multi-core
  host.  Each dispatcher keeps at most one batch in flight (its ``busy``
  flag), so a single enclave is never entered concurrently.

Determinism contract: the simulator delivers replies at virtual-time
events whose order is independent of wall-clock completion, and the
enclave derives every reply nonce from its deterministic per-context
:class:`~repro.crypto.aead.NonceSequence` — so the bytes on the wire,
the hash chains, the audit logs and the checker verdicts are identical
under both backends (pinned by the cross-backend parity tests).  A
backend only changes *when* the work happens on the wall clock, never
what it produces or when it is delivered on the virtual clock (the
seal-stage cost model is a dispatcher parameter, ``seal_share``,
orthogonal to the backend).

Selection: pass ``execution="threaded"`` to a cluster runtime, or set
the ``REPRO_EXEC_BACKEND`` environment variable; the explicit argument
wins.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable

from repro.errors import ConfigurationError

#: Environment override for the default backend choice.
_ENV_VAR = "REPRO_EXEC_BACKEND"


class SerialBackend:
    """Execute each batch at submit time on the caller's thread.

    ``submit`` returns a zero-argument *completion*: calling it yields
    the already-computed replies.  Exceptions (including the protocol's
    :class:`~repro.errors.SecurityViolation` halts) raise at submit,
    preserving the historical fail-stop call stack.
    """

    name = "serial"
    parallel = False

    def __init__(self) -> None:
        #: batches handed to this backend (plain int — the cluster's
        #: snapshot-time collector mirrors it into a registry gauge)
        self.batches_submitted = 0

    def submit(self, work: Callable[[], list]) -> Callable[[], list]:
        self.batches_submitted += 1
        value = work()
        return lambda: value

    def shutdown(self) -> None:
        """Nothing to release."""


class ThreadedBackend:
    """Execute batches on a shared worker pool.

    ``submit`` returns the future's ``result`` bound method: the
    dispatcher calls it at the scheduled delivery event, joining the
    worker (and re-raising any ecall exception) at the batch boundary —
    the single point where results re-enter the deterministic event
    order.
    """

    name = "threaded"
    parallel = True

    def __init__(self, workers: int | None = None) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError("threaded backend needs >= 1 worker")
        self._pool = ThreadPoolExecutor(
            max_workers=workers or min(32, os.cpu_count() or 1),
            thread_name_prefix="repro-exec",
        )
        #: batches handed to the pool (plain int; the dispatcher keeps
        #: one batch in flight per shard, so this only races snapshot
        #: reads, never itself)
        self.batches_submitted = 0

    def submit(self, work: Callable[[], list]) -> Callable[[], list]:
        self.batches_submitted += 1
        return self._pool.submit(work).result

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)


_BACKENDS = {
    SerialBackend.name: SerialBackend,
    ThreadedBackend.name: ThreadedBackend,
}


def make_execution_backend(name: str | None = None):
    """Build an execution backend by name.

    ``None`` consults ``REPRO_EXEC_BACKEND`` and falls back to the
    serial default; an unknown name raises
    :class:`~repro.errors.ConfigurationError`.  An already-constructed
    backend object passes through unchanged (a caller that needs an
    explicit worker count builds its own :class:`ThreadedBackend`).
    """
    if name is not None and not isinstance(name, str):
        return name  # pre-built backend instance
    if name is None:
        name = os.environ.get(_ENV_VAR, "").strip() or SerialBackend.name
    backend_cls = _BACKENDS.get(name)
    if backend_cls is None:
        raise ConfigurationError(
            f"unknown execution backend {name!r} "
            f"(choose from {sorted(_BACKENDS)})"
        )
    return backend_cls()
