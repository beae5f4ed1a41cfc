"""The "SGX" baseline: an enclave-protected KVS *without* LCM.

This is the paper's main comparison point: the service state lives in an
enclave, messages and the sealed state blob are encrypted and
authenticated, so the host cannot read or forge anything — but there is no
hash chain, no ``V`` map and no client-side context.  Consequently a
malicious host can restart the enclave from any *older* sealed blob and the
system continues silently: rollback and forking are undetectable.  The
attack tests demonstrate exactly that, and the performance model charges
this system the same enclave-crypto costs as LCM minus the protocol
overhead.

The program implements the same ecall surface subset as
:class:`~repro.core.context.LcmContext` (attest / provision /
invoke_batch / status), so it runs on the identical server and TEE
substrate.
"""

from __future__ import annotations

from typing import Any, Callable

from repro import serde
from repro.crypto.aead import AeadKey, auth_decrypt, auth_encrypt
from repro.crypto.dh import DhKeyPair, public_from_bytes
from repro.errors import AuthenticationFailure, ConfigurationError
from repro.kvstore.functionality import Functionality
from repro.tee.enclave import EnclaveEnv

_KEY_BLOB_AD = b"sgx-kvs/state-key"
_STATE_BLOB_AD = b"sgx-kvs/state"
_REQUEST_AD = b"sgx-kvs/request"
_REPLY_AD = b"sgx-kvs/reply"
_PROVISION_AD = b"sgx-kvs/provision"


class SgxKvsProgram:
    """Enclave program: encrypted KVS with sealing, no rollback defence."""

    PROGRAM_CODE = b"sgx-kvs-v1"
    DEVELOPER = "lcm-reproduction"

    def __init__(self, functionality: Functionality) -> None:
        self._functionality = functionality
        self._env: EnclaveEnv | None = None
        self._sealing_key: AeadKey | None = None
        self._state_key: AeadKey | None = None
        self._communication_key: AeadKey | None = None
        self._state: Any = None
        self._provisioned = False
        self._dh: DhKeyPair | None = None

    # ------------------------------------------------------------- lifecycle

    def on_start(self, env: EnclaveEnv) -> None:
        self._env = env
        self._sealing_key = env.get_key(b"sgx-kvs-sealing")
        blob = env.ocall_load()
        if blob is None:
            return
        # Accept whatever authenticates — this is the vulnerability: an old
        # blob authenticates just as well as the newest one.
        try:
            blob_key, blob_state = serde.decode(blob)
        except Exception as exc:
            raise AuthenticationFailure(f"stored blob malformed: {exc}") from exc
        key_material = auth_decrypt(
            blob_key, self._sealing_key, associated_data=_KEY_BLOB_AD
        )
        self._state_key = AeadKey(key_material, label="kP")
        plain = auth_decrypt(blob_state, self._state_key, associated_data=_STATE_BLOB_AD)
        self._state, kc_material = serde.decode(plain)
        self._communication_key = AeadKey(kc_material, label="kC")
        self._provisioned = True

    def _seal_and_store(self) -> None:
        plain = serde.encode([self._state, self._communication_key.material])
        blob_state = auth_encrypt(plain, self._state_key, associated_data=_STATE_BLOB_AD)
        blob_key = auth_encrypt(
            self._state_key.material, self._sealing_key, associated_data=_KEY_BLOB_AD
        )
        self._env.ocall_store(serde.encode([blob_key, blob_state]))

    # ----------------------------------------------------------------- ecalls

    def ecall(self, name: str, payload: Any) -> Any:
        if name == "attest":
            self._dh = DhKeyPair.generate(self._env.secure_random(32))
            return self._env.create_report(payload + self._dh.public_bytes())
        if name == "provision":
            return self._provision(payload)
        if name == "invoke_batch":
            replies = [self._process(message) for message in payload]
            self._seal_and_store()
            return replies
        if name == "status":
            return {"provisioned": self._provisioned}
        raise ConfigurationError(f"unknown ecall {name!r}")

    def _provision(self, payload: dict) -> bool:
        if self._provisioned:
            raise ConfigurationError("already provisioned")
        if self._dh is None:
            raise ConfigurationError("provision before attestation")
        channel = self._dh.shared_key(public_from_bytes(payload["admin_public"]))
        plain = auth_decrypt(payload["bundle"], channel, associated_data=_PROVISION_AD)
        kp_material, kc_material = serde.decode(plain)
        self._state_key = AeadKey(kp_material, label="kP")
        self._communication_key = AeadKey(kc_material, label="kC")
        self._state = self._functionality.initial_state()
        self._provisioned = True
        self._seal_and_store()
        return True

    def _process(self, message: bytes) -> bytes:
        if not self._provisioned:
            raise ConfigurationError("not provisioned")
        plain = auth_decrypt(
            message, self._communication_key, associated_data=_REQUEST_AD
        )
        operation = serde.decode(plain)
        result, self._state = self._functionality.apply(self._state, operation)
        return auth_encrypt(
            serde.encode(result), self._communication_key, associated_data=_REPLY_AD
        )


def make_sgx_kvs_factory(
    functionality_factory: Callable[[], Functionality],
) -> Callable[[], SgxKvsProgram]:
    def factory() -> SgxKvsProgram:
        return SgxKvsProgram(functionality_factory())

    return factory


class SgxKvsClient:
    """Client for the SGX baseline: encrypts requests, has *no* context.

    Note what is missing relative to :class:`~repro.core.client.LcmClient`:
    no ``tc``, no ``hc``, no stability — and therefore no way to notice
    that the service state jumped backwards.
    """

    def __init__(self, client_id: int, communication_key: AeadKey, transport) -> None:
        self.client_id = client_id
        self._key = communication_key
        self._transport = transport

    def invoke(self, operation: Any) -> Any:
        request = auth_encrypt(
            serde.encode(list(operation) if isinstance(operation, tuple) else operation),
            self._key,
            associated_data=_REQUEST_AD,
        )
        reply = self._transport.send_invoke(self.client_id, request)
        plain = auth_decrypt(reply, self._key, associated_data=_REPLY_AD)
        return serde.decode(plain)


def bootstrap_sgx_kvs(host, rng=None) -> AeadKey:
    """Minimal admin flow for the baseline: attest + provision kP/kC.

    Returns the communication key to hand to :class:`SgxKvsClient` objects.
    """
    import os

    rng = rng or os.urandom
    if not host.enclave.running:
        host.start()
    nonce = rng(16)
    report = host.enclave.ecall("attest", nonce)
    # The baseline admin skips quote verification in tests that don't care;
    # the full path is exercised by the LCM bootstrap tests.
    enclave_public = public_from_bytes(report.user_data[16 : 16 + 256])
    dh = DhKeyPair.generate(rng(32))
    channel = dh.shared_key(enclave_public)
    state_key_material = rng(16)
    communication_key = AeadKey(rng(16), label="kC")
    bundle = serde.encode([state_key_material, communication_key.material])
    host.enclave.ecall(
        "provision",
        {
            "admin_public": dh.public_bytes(),
            "bundle": auth_encrypt(bundle, channel, associated_data=_PROVISION_AD),
        },
    )
    return communication_key
