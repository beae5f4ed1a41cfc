"""Trusted execution context lifecycle (the ``T`` of the system model).

An :class:`Enclave` hosts one :class:`EnclaveProgram` instance.  The host
(the untrusted server) may ``start``, ``stop`` and ``restart`` it at its
discretion (Sec. 2.2).  Every start opens a new *epoch*; the program's
in-memory state is constructed fresh, modelling the loss of the volatile
protected memory ``M``.  Restoration of state across epochs must therefore
go through the (untrusted) stable-storage ocalls — exactly the property a
rollback attack exploits and LCM defends.

Key contract points enforced here:

- once created with program ``P``, the enclave can never run a different
  program (``P`` is fixed at instantiation);
- ecalls are refused unless the enclave is running;
- the program only ever sees the world through :class:`EnclaveEnv`
  (key derivation, attestation, ocalls) — it has no direct storage access;
- the host chooses what the load ocall returns, which is where a malicious
  host mounts rollback/forking attacks.
"""

from __future__ import annotations

import enum
from typing import Any, Callable, Protocol

from repro.crypto.aead import AeadKey
from repro.crypto.attestation import Report
from repro.errors import EnclaveError, EnclaveStopped


class HostInterface(Protocol):
    """Ocall surface the untrusted host exposes to the enclave.

    :meth:`ocall_store` takes a whole blob or a delta against the blob
    last stored (:data:`repro.server.storage.Delta`).  The return value
    of :meth:`ocall_load` is entirely under host control: a correct host
    returns the most recently stored blob, a malicious host may return an
    older blob (rollback) or feed different blobs to different enclave
    instances (forking).
    """

    def ocall_store(self, blob: bytes | tuple) -> None: ...

    def ocall_load(self) -> bytes | None: ...


class EnclaveEnv:
    """Everything an enclave program may touch.

    Handed to the program at each epoch start.  Provides:

    - ``get_key(*context)`` — the platform's ``get-key(T, P)``: deterministic
      in (platform, measurement, context), unknowable outside the TEE;
    - ``create_report(user_data)`` — local attestation report;
    - ``ocall_store`` / ``ocall_load`` — untrusted persistence;
    - ``secure_random(n)`` — the TEE's random number generator.
    """

    def __init__(
        self,
        *,
        measurement: bytes,
        epoch: int,
        get_key: Callable[..., AeadKey],
        create_report: Callable[[bytes], Report],
        host: HostInterface,
        secure_random: Callable[[int], bytes],
    ) -> None:
        self.measurement = measurement
        self.epoch = epoch
        self.get_key = get_key
        self.create_report = create_report
        self.secure_random = secure_random
        self._host = host

    def ocall_store(self, blob: bytes | tuple) -> None:
        self._host.ocall_store(blob)

    def ocall_load(self) -> bytes | None:
        return self._host.ocall_load()


class EnclaveProgram(Protocol):
    """Contract for programs loadable into an enclave.

    ``PROGRAM_CODE`` identifies the code for measurement purposes;
    ``DEVELOPER`` models the enclave-signer identity used by
    developer-based sealing (Sec. 5.1.3).
    """

    PROGRAM_CODE: bytes
    DEVELOPER: str

    def on_start(self, env: EnclaveEnv) -> None:
        """Epoch entry point (the paper's ``init``)."""
        ...

    def ecall(self, name: str, payload: Any) -> Any:
        """Dispatch a named enclave call."""
        ...


class EnclaveState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    STOPPED = "stopped"
    DESTROYED = "destroyed"


class Enclave:
    """One trusted execution context instance.

    Constructed by :meth:`repro.tee.platform.TeePlatform.create_enclave`;
    not instantiated directly.  The ``program_factory`` is invoked at every
    epoch start so each epoch begins with pristine volatile memory.
    """

    def __init__(
        self,
        *,
        enclave_id: int,
        measurement: bytes,
        developer: str,
        program_factory: Callable[[], EnclaveProgram],
        env_factory: Callable[["Enclave"], EnclaveEnv],
        host: HostInterface,
    ) -> None:
        self.enclave_id = enclave_id
        self.measurement = measurement
        self.developer = developer
        self._program_factory = program_factory
        self._env_factory = env_factory
        self._host = host
        self._program: EnclaveProgram | None = None
        self._state = EnclaveState.CREATED
        self.epoch = 0
        self.ecalls = 0

    @property
    def state(self) -> EnclaveState:
        return self._state

    @property
    def running(self) -> bool:
        return self._state == EnclaveState.RUNNING

    def start(self) -> None:
        """Begin a new epoch: fresh program instance, fresh volatile memory."""
        if self._state == EnclaveState.DESTROYED:
            raise EnclaveError("cannot start a destroyed enclave")
        if self._state == EnclaveState.RUNNING:
            raise EnclaveError("enclave already running")
        self.epoch += 1
        self._program = self._program_factory()
        self._state = EnclaveState.RUNNING
        env = self._env_factory(self)
        self._program.on_start(env)

    def stop(self) -> None:
        """End the epoch.  All volatile enclave memory is lost."""
        if self._state != EnclaveState.RUNNING:
            raise EnclaveError("enclave is not running")
        self._program = None
        self._state = EnclaveState.STOPPED

    def crash(self) -> None:
        """Abrupt termination (power loss / kill): same memory-loss effect."""
        if self._state == EnclaveState.RUNNING:
            self._program = None
            self._state = EnclaveState.STOPPED

    def restart(self) -> None:
        """Stop (if needed) and start a new epoch."""
        if self._state == EnclaveState.RUNNING:
            self.stop()
        self.start()

    def destroy(self) -> None:
        self._program = None
        self._state = EnclaveState.DESTROYED

    def ecall(self, name: str, payload: Any = None) -> Any:
        """Enter the enclave.  Refused unless running."""
        if self._state != EnclaveState.RUNNING or self._program is None:
            raise EnclaveStopped(f"ecall {name!r} on non-running enclave")
        self.ecalls += 1
        return self._program.ecall(name, payload)
