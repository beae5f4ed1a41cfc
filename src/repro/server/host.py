"""The correct untrusted server runtime.

``ServerHost`` wires together one TEE platform, one trusted execution
context and one stable storage (Fig. 1 / Fig. 3 of the paper).  It exposes:

- the **ocall surface** the enclave persists its sealed state through
  (:meth:`ocall_store` / :meth:`ocall_load`);
- the **transport surface** clients send INVOKE messages to
  (:meth:`send_invoke`), a batch of one on the batched entry
  (:meth:`send_invoke_batch`, Sec. 5.2/5.3);
- **lifecycle** operations (:meth:`start`, :meth:`reboot`) — a correct
  server restarts ``T`` after any crash, and ``T`` recovers from the sealed
  blob (Sec. 4.4).

A correct server forwards every message faithfully and always returns the
most recently stored blob.  The adversarial subclass lives in
:mod:`repro.server.faults`.
"""

from __future__ import annotations

from typing import Callable

from repro.server.storage import Delta, StableStorage
from repro.tee.enclave import Enclave, EnclaveProgram
from repro.tee.platform import TeePlatform


class ServerHost:
    """A correct server hosting one trusted execution context."""

    def __init__(
        self,
        platform: TeePlatform,
        program_factory: Callable[[], EnclaveProgram],
        *,
        storage: StableStorage | None = None,
    ) -> None:
        self.platform = platform
        self.storage = storage if storage is not None else StableStorage()
        self._program_factory = program_factory
        self.enclave: Enclave = platform.create_enclave(program_factory, host=self)
        self.requests_handled = 0

    # ------------------------------------------------------------- lifecycle

    def start(self) -> None:
        """Create/boot the trusted execution context (begin an epoch)."""
        self.enclave.start()

    def reboot(self) -> None:
        """Crash-and-restart cycle: volatile enclave memory is lost, the
        enclave re-enters ``init`` and recovers from the sealed state."""
        self.enclave.crash()
        self.enclave.start()

    def shutdown(self) -> None:
        """Orderly stop of the trusted execution context."""
        if self.enclave.running:
            self.enclave.stop()

    # ---------------------------------------------------------- ocall surface

    def ocall_store(self, blob: bytes | Delta) -> None:
        """Persist a sealed blob, or a delta against the last one, on
        behalf of the enclave (correct host)."""
        self.storage.store(blob)

    def ocall_load(self) -> bytes | None:
        """Return the most recently stored sealed blob (correct host)."""
        return self.storage.load()

    # ------------------------------------------------------- transport surface

    def send_invoke(self, client_id: int, message: bytes) -> bytes:
        """Forward one INVOKE message into the enclave, return the REPLY
        (a batch of one).

        The functional layer is synchronous call-return; the performance
        model in :mod:`repro.perf` adds queueing and timing around the same
        operations.
        """
        return self.send_invoke_batch([(client_id, message)])[0]

    def send_invoke_batch(self, messages: list[tuple[int, bytes]]) -> list[bytes]:
        """Forward a batch of (client_id, INVOKE) pairs in one ecall."""
        self.requests_handled += len(messages)
        payload = [message for _, message in messages]
        return self.enclave.ecall("invoke_batch", payload)

    # --------------------------------------------------------------- queries

    def ecall_count(self) -> int:
        """Number of enclave transitions so far (batching diagnostics)."""
        return self.enclave.ecalls

    def stored_versions(self) -> int:
        """Number of sealed blobs ever written to stable storage."""
        return self.storage.version_count()
