"""The malicious server: every Byzantine capability of Sec. 2.3.

A malicious server has full control over the OS, applications, memory and
stable storage — but cannot tamper with code and data *inside* the trusted
execution context.  Concretely it can:

- **rollback** — restart ``T`` and serve an *older* (but correctly sealed)
  state blob from stable storage;
- **fork** — run multiple instances of ``T`` concurrently (or multiplex
  them), feed each a valid state, and partition the clients among them;
- **replay / tamper / drop / reorder** messages between clients and ``T``.

``MaliciousServer`` keeps the honest :class:`~repro.server.host.ServerHost`
transport API so the same client code runs against it unchanged; attack
tests then trigger misbehaviour through the extra methods and assert that
LCM's checks fire (or, for the plain-SGX baseline, that they silently
don't — which is the paper's motivation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.errors import StorageError
from repro.server.storage import Delta, StableStorage
from repro.tee.enclave import Enclave, EnclaveProgram
from repro.tee.platform import TeePlatform


@dataclass
class _Instance:
    """One multiplexed copy of the trusted execution context.

    Each instance owns a private storage view, so the server can hand each
    fork "a different, but valid state" (Sec. 2.3).
    """

    enclave: Enclave
    storage: StableStorage
    name: str = ""
    recorded_invokes: list[tuple[int, bytes]] = field(default_factory=list)

    def ocall_store(self, blob: bytes | Delta) -> None:
        self.storage.store(blob)

    def ocall_load(self) -> bytes | None:
        return self.storage.load()


class MaliciousServer:
    """A Byzantine server multiplexing one or more enclave instances."""

    def __init__(
        self,
        platform: TeePlatform,
        program_factory: Callable[[], EnclaveProgram],
    ) -> None:
        self.platform = platform
        self._program_factory = program_factory
        primary_storage = StableStorage("instance-0")
        primary = _Instance(enclave=None, storage=primary_storage, name="instance-0")  # type: ignore[arg-type]
        primary.enclave = platform.create_enclave(program_factory, host=primary)
        self.instances: list[_Instance] = [primary]
        self._routing: dict[int, int] = {}
        self._tamper_hook: Callable[[bytes], bytes] | None = None

    # ----------------------------------------------------------- lifecycle

    def start(self) -> None:
        self.instances[0].enclave.start()

    def shutdown(self) -> None:
        for instance in self.instances:
            if instance.enclave.running:
                instance.enclave.stop()

    # --------------------------------------------------- honest-looking API

    def send_invoke(self, client_id: int, message: bytes) -> bytes:
        """Deliver an INVOKE to whichever instance this client is routed to."""
        instance = self._instance_for(client_id)
        if self._tamper_hook is not None:
            message = self._tamper_hook(message)
        instance.recorded_invokes.append((client_id, message))
        return self._deliver(instance, message)

    def send_invoke_batch(self, messages: list[tuple[int, bytes]]) -> list[bytes]:
        """Deliver a batch of INVOKEs, each to whichever instance its
        client is routed to.

        Part of the required host transport surface.  The Byzantine
        server multiplexes enclave instances, so a batch may fan out
        across forks; delivering per message through :meth:`send_invoke`
        keeps the attack semantics (routing, tampering, recording)
        identical to the unbatched path.
        """
        return [
            self.send_invoke(client_id, message)
            for client_id, message in messages
        ]

    @property
    def storage(self) -> StableStorage:
        return self.instances[0].storage

    @property
    def enclave(self) -> Enclave:
        return self.instances[0].enclave

    # -------------------------------------------------------------- attacks

    def rollback(self, version_index: int, instance_index: int = 0) -> None:
        """Mount a rollback attack: restart ``T`` from an older sealed blob.

        The blob is authentic (sealed by ``T`` itself), merely stale — the
        attack SGX alone cannot detect.
        """
        instance = self.instances[instance_index]
        instance.storage.rollback_to(version_index)
        instance.enclave.crash()
        instance.enclave.start()

    def fork(self, from_version: int | None = None) -> int:
        """Spawn a second (or nth) enclave instance from a chosen state.

        ``from_version`` selects which stored version seeds the new
        instance's storage view (default: the current one).  Returns the new
        instance index; use :meth:`route_client` to partition clients.
        """
        base = self.instances[0].storage
        if base.version_count() == 0:
            raise StorageError("nothing stored yet; nothing to fork from")
        upto = base.latest_index() if from_version is None else from_version
        view = StableStorage(f"instance-{len(self.instances)}")
        for index in range(upto + 1):
            view.store(base.load_version(index))
        instance = _Instance(enclave=None, storage=view, name=view.name)  # type: ignore[arg-type]
        instance.enclave = self.platform.create_enclave(self._program_factory, host=instance)
        instance.enclave.start()
        self.instances.append(instance)
        return len(self.instances) - 1

    def route_client(self, client_id: int, instance_index: int) -> None:
        """Partition: pin a client to a specific enclave instance."""
        if not 0 <= instance_index < len(self.instances):
            raise StorageError(f"no instance {instance_index}")
        self._routing[client_id] = instance_index

    def replay_last_invoke(self, client_id: int, instance_index: int = 0) -> bytes:
        """Re-deliver the client's last INVOKE (message replay attack)."""
        instance = self.instances[instance_index]
        for recorded_id, message in reversed(instance.recorded_invokes):
            if recorded_id == client_id:
                return self._deliver(instance, message)
        raise StorageError(f"no recorded INVOKE from client {client_id}")

    def set_tamper_hook(self, hook: Callable[[bytes], bytes] | None) -> None:
        """Install a bit-flipping (or arbitrary) message transformation."""
        self._tamper_hook = hook

    def crash_and_restart(self, instance_index: int = 0) -> None:
        """A plain crash/restart with the *current* state (not an attack)."""
        instance = self.instances[instance_index]
        instance.enclave.crash()
        instance.enclave.start()

    # -------------------------------------------------------------- helpers

    def _instance_for(self, client_id: int) -> _Instance:
        return self.instances[self._routing.get(client_id, 0)]

    @staticmethod
    def _deliver(instance: _Instance, message: bytes) -> bytes:
        """One INVOKE into ``instance`` (a batch of one), REPLY bytes out."""
        return instance.enclave.ecall("invoke_batch", [message])[0]
