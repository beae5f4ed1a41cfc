"""The LCM trusted execution context — Alg. 2 plus all extensions.

:class:`LcmContext` is an :class:`~repro.tee.enclave.EnclaveProgram`.  Its
lifecycle follows the paper:

``init`` (on every epoch start, Sec. 4.3/4.4)
    Obtain the sealing key ``kS = get-key(T, LCM)``, try to load the sealed
    blob pair from (untrusted) stable storage.  If nothing is stored the
    context waits to be bootstrapped; otherwise it unseals ``kP`` with
    ``kS``, then the protocol/service state with ``kP``, and rederives
    ``(t, h)`` via ``argmax(V)``.

``invoke_batch`` (per batch of INVOKE messages, Sec. 4.2.2 / 5.2)
    For each message: decrypt with ``kC``; verify ``V[i] = (*, tc, hc)``;
    halt on mismatch (rollback / forking / replay detection — the
    verification that *is* the protocol); execute ``F``; extend the hash
    chain; update ``V``; compute ``majority-stable(V)``.  Then seal and
    store the state once and return the REPLYs.  A single INVOKE is a
    batch of one.

Extensions implemented:

- retry (Sec. 4.6.1): a retry-marked INVOKE whose operation was already
  executed gets its stored REPLY re-sent instead of triggering a halt;
- protocol-level no-op: clients may poll stability with dummy operations
  (the FAUST-style mechanism the paper cites in Sec. 4.5);
- migration export/import (Sec. 4.6.2) — driven by
  :mod:`repro.core.migration`;
- membership changes (Sec. 4.6.3) — driven by admin requests under ``kA``.

Once any verification fails the context **halts permanently** (the
pseudocode's ``assert``): every later ecall raises the recorded violation.
The sealed state ``T`` persists ``s`` and ``V`` in — its layout, the
incremental seal and the deltas a store hands the host — lives in
:mod:`repro.core.sealed_state`; the context reaches it only through
:class:`~repro.core.sealed_state.SealedState`.
"""

from __future__ import annotations

import collections
from bisect import bisect_left, insort
from time import perf_counter as _perf_counter
from dataclasses import dataclass
from typing import Any, Callable

from repro import serde
from repro.crypto import fastpath as _fastpath
from repro.crypto.aead import (
    OVERHEAD,
    AeadKey,
    NonceSequence,
    _mac_frame,
    auth_decrypt,
    auth_encrypt,
)
from repro.crypto.dh import DhKeyPair, PUBLIC_KEY_BYTES, public_from_bytes
from repro.crypto.hashing import (
    GENESIS_HASH,
    RING_SPAN,
    chain_extend,
    ring_point,
)
from repro.errors import (
    AuthenticationFailure,
    ConfigurationError,
    ForkDetected,
    MembershipError,
    ReplayDetected,
    RollbackDetected,
    SecurityViolation,
)
from repro.kvstore.functionality import (
    Functionality,
    HANDOFF_EXPORT_VERB,
    HANDOFF_IMPORT_VERB,
)
from repro.core.messages import (
    _INVOKE_AD,
    _INVOKE_PREFIX,
    _REPLY_AD,
    _REPLY_PREFIX,
    decode_invoke,
    encode_reply,
)
from repro.core.sealed_state import SealedState
from repro.core.stability import (
    ClientEntry,
    PackedRows,
    majority_quorum,
)
from repro.tee.enclave import EnclaveEnv

_PROVISION_AD = b"lcm/provision"
_ADMIN_AD = b"lcm/admin"
_MIGRATION_AD = b"lcm/migration"
_HANDOFF_AD = b"lcm/handoff"

#: Reserved client id under which key-range handoff operations are
#: sequenced into the hash chain and audit log.  Real group members get
#: ids >= 1 (the bootstrap convention throughout the repo), so handoff
#: records never collide with a client's own operations and the offline
#: checkers treat them as ordinary third-party history entries.
HANDOFF_CLIENT_ID = 0


#: Canonical encodings of recently produced scalar results.  The point is
#: interning, not speed: ``audit_log`` is append-only and keeps a full
#: encoded result per operation, and this memo makes a hot value's records
#: share one ``bytes`` object.  Without it (and the client's
#: ``_RESULT_DECODE_CACHE``) ``large_read``'s peak RSS rose from 69.8 to
#: 87.6 MB, past its bound.  Key types are restricted to those that are
#: unambiguous as dict keys — ``True`` and ``1`` compare equal but encode
#: differently, so ``bool`` stays out (its type check fails).
_RESULT_ENCODE_CACHE: collections.OrderedDict = collections.OrderedDict()
_RESULT_ENCODE_CACHE_MAX = 512
_SCALAR_RESULT_TYPES = (str, bytes, int)


#: Protocol-level dummy operation: sequenced and hash-chained like any other
#: operation, but not passed to ``F``.  Used for stability polling.
NOP_OPERATION = ("__LCM_NOP__",)

_NOP_VERB = NOP_OPERATION[0]

_NOP_BYTES = serde.encode(list(NOP_OPERATION))

#: The four Alg.-2 halts, numbered as the C pass A
#: (``BACKEND.invoke_batch_open``) reports them as a violation's kind.
_UNKNOWN_CLIENT, _REPLAY, _ROLLBACK, _FORK = -1, -2, -3, -4


@dataclass
class AuditRecord:
    """One executed operation, as seen by the trusted context.

    Only populated when the context is created with ``audit=True`` (test /
    verification mode).  The consistency checkers join these logs across
    all enclave instances to validate fork-linearizability globally.
    """

    sequence: int
    client_id: int
    operation: bytes
    result: bytes
    chain: bytes


class LcmContext:
    """Alg. 2, as an enclave program.

    Build instances through :func:`make_lcm_program_factory`, which closes
    over the functionality and configuration so the enclave can recreate a
    pristine program object at every epoch start.
    """

    PROGRAM_CODE = b"lcm-trusted-context-v1"
    DEVELOPER = "lcm-reproduction"

    def __init__(self, functionality: Functionality, *, audit: bool = False,
                 stage_probe: Callable[[dict], Any] | None = None) -> None:
        self._functionality = functionality
        self._audit = audit
        # enclave-depth tracing opt-in: when set, each invoke batch
        # reports its wall-clock stage durations (unseal / execute /
        # reply_seal / state_seal, plus per-op execute) through this
        # callable before the ecall returns.  None (the default) keeps
        # the batch path at a single attribute test.
        self._stage_probe = stage_probe
        # volatile protected memory M — lost at epoch end
        self._env: EnclaveEnv | None = None
        self._sealing_key: AeadKey | None = None     # kS
        self._sequence = 0                           # t
        self._chain = GENESIS_HASH                   # h
        # V as packed parallel columns (ids/ack/seq as int64 arrays, chains
        # as one bytearray of 32-byte cells) so the batched invoke fast
        # path hands the whole table to the C backend in a single call.
        # Includes the sorted acknowledged mirror (rows.acks) that keeps
        # per-invoke stability O(log n).
        self._rows = PackedRows()                    # V
        # quorum size memo; invalidated on any membership-size change
        self._quorum_cache: int | None = None
        # deterministic nonce chain for every box sealed on the invoke /
        # store path; seeded once per epoch in on_start.  Sealing never
        # touches the shared process nonce pool, so the bytes depend on
        # this context's history alone.
        self._nonces: NonceSequence
        self._state: Any = None                      # s
        # the sealed blob of s and V, which also holds kP, kC, kA and the
        # quorum (repro.core.sealed_state); None until provisioned or
        # restored
        self._sealed: SealedState | None = None
        self._provisioned = False
        self._halted: SecurityViolation | None = None
        self._dh: DhKeyPair | None = None
        self._migration_nonce: bytes | None = None
        self._handoff_nonce: bytes | None = None
        self._migrated_out = False
        self.audit_log: list[AuditRecord] = []
        self._handlers: dict[str, Callable[[Any], Any]] = {
            "invoke_batch": self._ecall_invoke_batch,
            "attest": self._ecall_attest,
            "provision": self._ecall_provision,
            "admin": self._ecall_admin,
            "status": self._ecall_status,
            "migration_challenge": self._ecall_migration_challenge,
            "migration_export": self._ecall_migration_export,
            "migration_import": self._ecall_migration_import,
            "handoff_challenge": self._ecall_handoff_challenge,
            "handoff_export": self._ecall_handoff_export,
            "handoff_import": self._ecall_handoff_import,
            "txn_status": self._ecall_txn_status,
            "export_audit_log": self._ecall_export_audit,
            "export_audit_since": self._ecall_export_audit_since,
        }

    # ------------------------------------------------------------- lifecycle

    def on_start(self, env: EnclaveEnv) -> None:
        """The paper's ``init``: runs at every epoch start."""
        self._env = env
        self._sealing_key = env.get_key(b"lcm-sealing")
        # drawn unconditionally, before any early return, so the platform
        # RNG stream stays in the same position on every start path
        self._nonces = NonceSequence(env.secure_random(32))
        blob = env.ocall_load()
        if blob is None:
            # First epoch ever: wait for the admin to bootstrap us.
            return
        self._restore(blob)

    def _restore(self, blob: bytes) -> None:
        """Unseal and adopt a stored state (possibly rolled back by S —
        LCM detects that later, through client verification)."""
        self._sealed, self._state, entries = SealedState.restore(
            blob, self._sealing_key, self._next_nonce, audit=self._audit
        )
        self._rows.replace(entries)
        if len(self._rows):
            _, self._sequence, self._chain = self._rows.argmax()
        self._provisioned = True

    def _install(
        self, kp: bytes, kc: bytes, ka: bytes, quorum: int, entries: dict
    ) -> None:
        """Adopt fresh keys, quorum and V (provision / migration import):
        every piece of the next store is sealed anew."""
        self._rows.replace(entries)
        self._quorum_cache = None
        self._sealed = SealedState(
            self._sealing_key, kp, kc, ka, quorum, self._next_nonce, audit=self._audit
        )
        self._sealed.dirty_rows.update(entries)

    def _seal_and_store(self) -> None:
        """Seal the state and persist it through the (untrusted) host: the
        delta against the blob stored last, or the whole blob."""
        sealed = self._sealed
        sealed.seal(self._state, self._rows)
        self._env.ocall_store(sealed.delta())

    # ----------------------------------------------------------------- ecalls

    def ecall(self, name: str, payload: Any) -> Any:
        """Dispatch one enclave call; refuses everything once halted."""
        if self._halted is not None:
            raise type(self._halted)(f"context halted: {self._halted}")
        handler = self._handlers.get(name)
        if handler is None:
            raise ConfigurationError(f"unknown ecall {name!r}")
        return handler(payload)

    # ------------------------------------------------------------ bootstrap

    def _ecall_attest(self, nonce: bytes) -> Any:
        """Produce an attestation report whose user data binds the
        challenge nonce and a fresh DH public key for the secure channel
        (Sec. 4.3 phase 2)."""
        self._dh = DhKeyPair.generate(self._env.secure_random(32))
        user_data = nonce + self._dh.public_bytes()
        return self._env.create_report(user_data)

    def _ecall_provision(self, payload: dict) -> bool:
        """Install keys sent by the admin over the attested DH channel."""
        if self._provisioned:
            raise ConfigurationError("context already provisioned")
        if self._dh is None:
            raise ConfigurationError("provision before attestation challenge")
        channel = self._dh.shared_key(public_from_bytes(payload["admin_public"]))
        plain = auth_decrypt(
            payload["bundle"], channel, associated_data=_PROVISION_AD
        )
        kp, kc, ka, client_ids, quorum = serde.decode(plain)
        self._state = self._functionality.initial_state()
        self._install(
            kp, kc, ka, quorum, {client_id: ClientEntry() for client_id in client_ids}
        )
        self._provisioned = True
        self._seal_and_store()
        return True

    # ---------------------------------------------------------------- invoke

    def _ecall_invoke_batch(self, messages: list[bytes]):
        """Alg. 2, entered once per batch (Sec. 5.2): one dynamic-layer
        seal and one state store for the whole batch.  A single INVOKE is
        a batch of one.

        All INVOKE boxes are authenticated before any is decoded or any
        operation executes, so a batch containing a forged message is
        rejected wholesale: the :class:`AuthenticationFailure` names the
        first box too short to be authentic, else the first whose MAC
        fails, no operation of the batch runs, V and the stored state
        stay as they were, and the context does not halt: an unauthentic
        message carries no evidence about T's own state (it may be
        network garbage or a removed client's stale key), and halting on
        it would let anyone deny service with one forged packet.
        Halting is reserved for *authenticated* context mismatches,
        which prove a rollback/forking attack; one mid-batch halts the
        context immediately, and the operations already executed in the
        batch are abandoned unsealed.  The per-client row-slot patches
        are coalesced so a client invoked twice in a batch is resealed
        once.

        With the compiled fastpath backend the batch is verified,
        decoded, Alg.-2-checked against the packed V columns, chained and
        resealed in two C calls, one per direction
        (:meth:`_invoke_batch_native`).  Without it — or when some
        authentic INVOKE is not encoded the way the C parser expects, in
        which case the native pass has touched nothing — the Python
        encoding of Alg. 2 runs box by box (:meth:`_invoke_batch_python`),
        drawing nonces from the same deterministic sequence, so the wire
        bytes are identical.  Both
        run operations through :meth:`_execute`, halt through
        :meth:`_violation` and finish in the epilogue below.
        """
        if not self._provisioned:
            raise ConfigurationError("context not provisioned")
        probe = self._stage_probe
        # stage boundaries (start, unseal, execute, reply_seal) and the
        # per-op execute durations, stamped only when a probe listens
        stamps: list[float] | None = [] if probe is not None else None
        per_op: list[float] = []
        backend = _fastpath.BACKEND
        path = "native-batch"
        boxes = None
        if messages and backend.native:
            boxes = self._invoke_batch_native(backend, messages, stamps, per_op)
        if boxes is None:
            path = "python-batch"
            boxes = self._invoke_batch_python(messages, stamps, per_op)
        self._seal_and_store()
        if stamps is not None:
            probe(self._stage_record(
                path, len(messages), per_op, *stamps, _perf_counter()
            ))
        return boxes

    @staticmethod
    def _stage_record(
        path: str,
        ops: int,
        per_op: list[float],
        wall_start: float,
        t_unseal: float,
        t_execute: float,
        t_reply: float,
        t_store: float,
    ) -> dict:
        """One batch's enclave stage timings, with identical fields on
        the native and python-batch paths (only ``path`` tells them
        apart) so spans look the same whichever backend sealed them:
        ``unseal`` covers MAC-scan/decrypt/decode (native pass A also
        folds the Alg.-2 check in here; the Python pass verifies inside
        ``execute``), ``execute`` the per-op middle loop (itemised per
        operation in ``per_op_execute``), ``reply_seal`` reply encoding
        + sealing and row-slot bookkeeping, ``state_seal`` the
        dynamic-layer seal and store.  All durations are wall-clock
        seconds measured inside the ecall."""
        return {
            "path": path,
            "ops": ops,
            "unseal": t_unseal - wall_start,
            "execute": t_execute - t_unseal,
            "reply_seal": t_reply - t_execute,
            "state_seal": t_store - t_reply,
            "per_op_execute": per_op,
            "wall_start": wall_start,
            "wall_total": t_store - wall_start,
        }

    def _invoke_batch_native(
        self,
        backend,
        messages: list[bytes],
        stamps: list[float] | None,
        per_op: list[float],
    ) -> list[bytes] | None:
        """One-C-call batch processing against the packed V columns.

        Pass A (``invoke_batch_open``) MAC-scans, decrypts, decodes and
        Alg.-2-verifies every INVOKE in order, mutating the live V
        columns and the sorted acknowledged mirror in place, and returns
        the committed operations and the new (sequence, chain) head,
        exactly as :meth:`_execute_invoke` would leave them.  The middle
        loop below then runs only :meth:`_execute` (and reads resend
        results at their in-order positions); pass B
        (``invoke_batch_reply``) encodes and seals all replies under
        deterministically derived nonces.  Returns the REPLY boxes, or
        ``None`` when some box is authentic but not canonically encoded —
        pass A guarantees it has not touched any state in that case, so
        the Python pass can re-run the batch (and stamp its own stages).
        """
        timed = stamps is not None
        if timed:
            stamps.append(_perf_counter())
        rows = self._rows
        kc = self._sealed.communication_key
        opened = backend.invoke_batch_open(
            kc._enc_key,
            kc._mac_key,
            _mac_frame(kc, _INVOKE_AD),
            _INVOKE_PREFIX,
            messages,
            rows.ids,
            rows.ack,
            rows.seq,
            rows.chains,
            rows.acks,
            self._quorum(),
            self._sequence,
            self._chain,
        )
        if type(opened) is int and opened <= -2000:
            # non-canonical payload: no state was touched
            if timed:
                stamps.clear()
            return None
        if timed:
            stamps.append(_perf_counter())
        if type(opened) is int:
            # unauthentic box: rejected wholesale without halting, with
            # the Python pass's exact diagnostics
            bad = -1000 - opened
            if len(messages[bad]) < OVERHEAD:
                raise AuthenticationFailure(
                    f"box {bad} of batch too short to be authentic"
                )
            raise AuthenticationFailure(
                f"MAC verification failed for box {bad} of batch"
            )
        ops, violation, batch, self._sequence, self._chain = opened
        # middle loop: the only per-op Python work left — run F over the
        # executed operations (pass A never calls back into Python) and
        # snapshot resend results at their in-order positions (a later
        # operation by the same client overwrites the row's result cell)
        results: list[bytes] = []
        execute = self._execute
        for status, slot, client_id, operation, sequence, chain in ops:
            if timed:
                op_start = _perf_counter()
            if status == 1:  # retry resend: stored result, no execution
                results.append(rows.results[slot])
            else:
                results.append(
                    execute(slot, client_id, operation, sequence, chain)
                )
            if timed:
                per_op.append(_perf_counter() - op_start)
        if timed:
            stamps.append(_perf_counter())
        if violation is not None:
            # authenticated verification failure after the committed ops
            # (their rows stay committed and unsealed)
            kind, slot, client_id, last_sequence = violation
            raise self._violation(
                kind,
                client_id,
                last_sequence,
                rows.seq[slot] if slot >= 0 else 0,
            )
        nonces = self._nonces
        boxes, row_blobs, row_manifests = backend.invoke_batch_reply(
            kc._enc_key,
            kc._mac_key,
            _mac_frame(kc, _REPLY_AD),
            _REPLY_PREFIX,
            batch,
            results,
            nonces.seed,
            nonces.counter,
        )
        nonces.counter += len(boxes)
        # pass B already built each executed row's sealed-blob pieces;
        # all that is left is slot bookkeeping (a later reply to the
        # same client overwrites, exactly like SealedState.put_rows)
        put_row = self._sealed.put_row
        for op, blob, manifest in zip(ops, row_blobs, row_manifests):
            if blob is not None:
                put_row(op[2], blob, manifest)
        if timed:
            stamps.append(_perf_counter())
        return boxes

    def _invoke_batch_python(
        self,
        messages: list[bytes],
        stamps: list[float] | None,
        per_op: list[float],
    ) -> list[bytes]:
        """Alg. 2 in Python: open every INVOKE box, then decode them,
        run :meth:`_execute_invoke` per message and seal the replies.
        Returns the REPLY boxes."""
        timed = stamps is not None
        if timed:
            stamps.append(_perf_counter())
        # all or nothing, with pass A's diagnostics: the length scan, then
        # every MAC, before the first decode
        for index, box in enumerate(messages):
            if len(box) < OVERHEAD:
                raise AuthenticationFailure(
                    f"box {index} of batch too short to be authentic"
                )
        kc = self._sealed.communication_key
        plains = []
        for index, box in enumerate(messages):
            try:
                plains.append(auth_decrypt(box, kc, associated_data=_INVOKE_AD))
            except AuthenticationFailure:
                raise AuthenticationFailure(
                    f"MAC verification failed for box {index} of batch"
                ) from None
        invokes = [decode_invoke(plain) for plain in plains]
        if timed:
            stamps.append(_perf_counter())
        outcomes = []
        for invoke in invokes:
            if timed:
                op_start = _perf_counter()
            outcomes.append(self._execute_invoke(invoke))
            if timed:
                per_op.append(_perf_counter() - op_start)
        if timed:
            stamps.append(_perf_counter())
        boxes = self._seal_reply_batch(outcomes)
        if timed:
            stamps.append(_perf_counter())
        return boxes

    def _seal_reply_batch(
        self, outcomes: list[tuple[bytes, tuple[int, int] | None]]
    ) -> list[bytes]:
        """Seal every encoded REPLY of a batch and reseal the V rows of
        the executed ones (``outcomes`` is what :meth:`_execute_invoke`
        returns, in batch order)."""
        kc = self._sealed.communication_key
        next_nonce = self._nonces.next
        boxes = [
            auth_encrypt(
                encoded, kc, associated_data=_REPLY_AD, nonce=next_nonce()
            )
            for encoded, _ in outcomes
        ]
        pending: dict[int, tuple[int, bytes]] = {}
        for (_, row), box in zip(outcomes, boxes):
            if row is not None:
                pending[row[0]] = (row[1], box)  # later reply supersedes
        self._sealed.put_rows(pending)
        return boxes

    def _execute_invoke(
        self, fields: tuple[int, int, bytes, bytes, bool]
    ) -> tuple[bytes, tuple[int, int] | None]:
        """Verify, execute and chain one decoded INVOKE (Alg. 2 body).

        ``fields`` is the ``(i, tc, hc, o, retry)`` tuple from
        :func:`~repro.core.messages.decode_invoke`.  Returns the
        canonically encoded plaintext reply and, for fresh executions,
        the ``(client_id, acknowledged)`` pair whose V row the caller
        must reseal with the sealed reply box (resends reuse the stored
        row).
        """
        client_id, last_sequence, last_chain, operation_bytes, retry = fields
        rows = self._rows
        slot = rows.slot.get(client_id)
        if slot is None:
            raise self._violation(_UNKNOWN_CLIENT, client_id, last_sequence, 0)
        row_sequence = rows.seq[slot]

        # Sec. 4.6.1 retry, case "crashed after store": the operation was
        # executed and recorded but the REPLY was lost.  Detect it by the
        # acknowledged marker and re-send the stored reply.
        if (
            retry
            and rows.ack[slot] == last_sequence
            and row_sequence > last_sequence
        ):
            return self._resend_reply(last_chain, rows.entry(client_id)), None

        # The verification at the heart of the protocol:
        # assert V[i] = (*, tc, hc)
        if row_sequence != last_sequence:
            raise self._violation(
                _REPLAY if last_sequence < row_sequence else _ROLLBACK,
                client_id,
                last_sequence,
                row_sequence,
            )
        if rows.chain_at(slot) != last_chain:
            raise self._violation(_FORK, client_id, last_sequence, row_sequence)

        # Sequence, execute and chain the operation.
        sequence = self._sequence + 1
        self._sequence = sequence
        chain = chain_extend(self._chain, operation_bytes, sequence, client_id)
        result_bytes = self._execute(
            slot, client_id, operation_bytes, sequence, chain
        )
        self._chain = chain
        # update V[i]'s packed cells in place
        acks = rows.acks
        del acks[bisect_left(acks, rows.ack[slot])]
        insort(acks, last_sequence)
        rows.ack[slot] = last_sequence
        rows.seq[slot] = sequence
        rows.chains[slot * 32 : slot * 32 + 32] = chain
        quorum = self._quorum_cache  # inlined _stable(); V is non-empty here
        if quorum is None:
            quorum = self._quorum()
        encoded = encode_reply(
            sequence, chain, result_bytes, acks[len(acks) - quorum], last_chain
        )
        # the sealed REPLY box doubles as the stored form of this client's
        # V row; the caller seals the batch and feeds the boxes back
        # through SealedState.put_rows
        return encoded, (client_id, last_sequence)

    def _execute(
        self,
        slot: int,
        client_id: int,
        operation_bytes: bytes,
        sequence: int,
        chain: bytes,
    ) -> bytes:
        """The per-operation kernel both passes share: decode ``o``, run
        ``F`` unless it is the protocol no-op, encode ``r``, record it in
        ``V[i]`` and append the audit record.  The caller has already
        verified the INVOKE and assigned ``sequence`` and ``chain``.
        Returns the encoded result.
        """
        operation = serde.decode(operation_bytes)
        result: Any
        if (
            type(operation) is list
            and len(operation) == 1
            and operation[0] == _NOP_VERB
        ):
            result = None
        else:
            result = self._apply(operation)
        if type(result) in _SCALAR_RESULT_TYPES:  # memoized scalar encode
            result_bytes = _RESULT_ENCODE_CACHE.get(result)
            if result_bytes is None:
                result_bytes = serde.encode(result)
                if len(_RESULT_ENCODE_CACHE) >= _RESULT_ENCODE_CACHE_MAX:
                    _RESULT_ENCODE_CACHE.popitem(last=False)
                _RESULT_ENCODE_CACHE[result] = result_bytes
            else:
                _RESULT_ENCODE_CACHE.move_to_end(result)
        else:
            result_bytes = serde.encode(result)
        # The dirty mark stays load-bearing: if a later operation in this
        # batch aborts the ecall before the row's REPLY box is sealed, the
        # next seal synthesizes a box for this row instead of persisting
        # a stale one.
        self._rows.results[slot] = result_bytes
        self._sealed.dirty_rows.add(client_id)
        if self._audit:
            self.audit_log.append(
                AuditRecord(
                    sequence=sequence,
                    client_id=client_id,
                    operation=operation_bytes,
                    result=result_bytes,
                    chain=chain,
                )
            )
        return result_bytes

    def _apply(self, operation: Any) -> Any:
        """Run ``F`` on the service state and adopt the state it returns
        (client operations and handoff verbs alike)."""
        result, self._state = self._functionality.apply(self._state, operation)
        return result

    def _violation(
        self, code: int, client_id: int, presented: int, recorded: int
    ) -> SecurityViolation:
        """Build one of the four Alg.-2 halts and record it: from here on
        the context refuses all further processing.  ``code`` is pass
        A's per-op status; ``presented`` is the INVOKE's ``tc`` and
        ``recorded`` the sequence number in ``V[i]``."""
        violation: SecurityViolation
        if code == _UNKNOWN_CLIENT:
            violation = SecurityViolation(f"unknown client {client_id}")
        elif code == _REPLAY:
            violation = ReplayDetected(
                f"client {client_id} presented stale sequence "
                f"{presented} < {recorded}"
            )
        elif code == _ROLLBACK:
            violation = RollbackDetected(
                f"client {client_id} is ahead of T "
                f"({presented} > {recorded}): "
                "T's state was rolled back"
            )
        else:
            violation = ForkDetected(
                f"client {client_id} hash-chain value diverges from V: "
                "histories have forked"
            )
        self._halted = violation
        return violation

    def _resend_reply(self, last_chain: bytes, entry: ClientEntry) -> bytes:
        """Reproduce the lost REPLY from the V[i] record (retry extension),
        as canonical encoded bytes."""
        return encode_reply(
            entry.last_sequence,
            entry.last_chain,
            entry.last_result,
            self._stable(),
            last_chain,
        )

    def _quorum(self) -> int:
        quorum = self._quorum_cache
        if quorum is None:
            override = self._sealed.quorum
            if override is not None:
                quorum = min(override, len(self._rows))
            else:
                quorum = majority_quorum(len(self._rows))
            self._quorum_cache = quorum
        return quorum

    def _stable(self) -> int:
        """``majority-stable(V)`` from the sorted acknowledged mirror —
        equal to ``stable_with_quorum(V, self._quorum())``
        (property-tested) at O(1) per call."""
        return self._rows.stable(self._quorum())

    def _next_nonce(self) -> bytes:
        """Next deterministic seal nonce (:meth:`on_start` seeds the
        sequence before any ecall can run)."""
        return self._nonces.next()

    # ----------------------------------------------------------- membership

    def _ecall_admin(self, box: bytes) -> Any:
        """Admin requests (join / leave / rotate kC), authenticated with kA."""
        if not self._provisioned:
            raise ConfigurationError("context not provisioned")
        plain = auth_decrypt(box, self._sealed.admin_key, associated_data=_ADMIN_AD)
        request = serde.decode(plain)
        verb = request[0]
        if verb == "ADD_CLIENT":
            (_, client_id) = request
            if client_id in self._rows:
                raise MembershipError(f"client {client_id} already in the group")
            self._rows.insert(client_id)
            self._quorum_cache = None
            # its stored record gets a synthesized REPLY box at the seal
            self._sealed.dirty_rows.add(client_id)
            self._seal_and_store()
            return True
        if verb == "REMOVE_CLIENT":
            (_, client_id, new_kc_material) = request
            if client_id not in self._rows:
                raise MembershipError(f"client {client_id} not in the group")
            self._rows.remove(client_id)
            self._quorum_cache = None
            self._sealed.discard_row(client_id)
            # kC rotated: the static config and every stored row (REPLY
            # boxes under the old kC) must be resealed
            self._sealed.rotate(new_kc_material)
            self._sealed.dirty_rows.update(self._rows.client_ids())
            self._seal_and_store()
            return True
        raise MembershipError(f"unknown admin request {verb!r}")

    # ------------------------------------------------------------ migration

    def _ecall_migration_challenge(self, _payload: Any) -> bytes:
        """Origin side, step 1: emit a nonce to challenge the target with."""
        if not self._provisioned:
            raise ConfigurationError("only a provisioned context can migrate out")
        self._migration_nonce = self._env.secure_random(16)
        return self._migration_nonce

    def _ecall_migration_export(self, payload: dict) -> dict:
        """Origin side, step 2: verify the target's quote, open a DH channel
        bound to it, and export (kP, kC, kA, s, V) through that channel.

        After a successful export the origin stops processing requests
        (Sec. 4.6.2: "T stops processing requests and provides its current
        state to T'")."""
        from repro.crypto.attestation import Quote, QuoteVerifier

        if not self._provisioned:
            raise ConfigurationError("only a provisioned context can migrate out")
        if self._migration_nonce is None:
            raise ConfigurationError("migration export before challenge")
        verifier: QuoteVerifier = payload["verifier"]
        quote: Quote = payload["quote"]
        verifier.verify(
            quote,
            expected_measurement=self._env.measurement,
            nonce=self._migration_nonce,
        )
        target_public = public_from_bytes(quote.user_data[16 : 16 + 256])
        dh = DhKeyPair.generate(self._env.secure_random(32))
        channel = dh.shared_key(target_public)
        wire_entries = {
            client_id: entry.to_wire()
            for client_id, entry in self._rows.to_entries().items()
        }
        keys = self._sealed
        bundle = serde.encode(
            [
                keys.state_key.material,
                keys.communication_key.material,
                keys.admin_key.material,
                self._state,
                wire_entries,
                keys.quorum or 0,
            ]
        )
        sealed = auth_encrypt(bundle, channel, associated_data=_MIGRATION_AD)
        self._migrated_out = True
        self._halted = SecurityViolation("context migrated out; no longer serving")
        return {"origin_public": dh.public_bytes(), "bundle": sealed}

    def _ecall_migration_import(self, payload: dict) -> bool:
        """Target side: receive the state over the DH channel and resume."""
        if self._provisioned:
            raise ConfigurationError("target context already provisioned")
        if self._dh is None:
            raise ConfigurationError("import before attestation challenge")
        channel = self._dh.shared_key(public_from_bytes(payload["origin_public"]))
        plain = auth_decrypt(
            payload["bundle"], channel, associated_data=_MIGRATION_AD
        )
        (kp, kc, ka, state, wire_entries, quorum) = serde.decode(plain)
        self._state = state
        entries = {
            client_id: ClientEntry.from_wire(entry)
            for client_id, entry in wire_entries.items()
        }
        self._install(kp, kc, ka, quorum, entries)
        if len(self._rows):
            _, self._sequence, self._chain = self._rows.argmax()
        self._provisioned = True
        self._seal_and_store()
        return True

    # ------------------------------------------------- key-range handoff

    def _handoff_channel(self, payload: dict) -> AeadKey:
        """Shared mutual-attestation step of the handoff ecalls: verify
        the peer's quote against our own challenge nonce and return the
        channel key derived from the DH public it binds and the key pair
        this side attested with.

        Both sides run it on every handoff — unlike whole-context
        migration (where only the origin verifies, because the target is
        unprovisioned and has nothing to lose), a handoff *into a live
        group* must never accept items from anything but a genuine LCM
        enclave, or an untrusted host could inject arbitrary keys into a
        serving state.  Both DH key pairs and both nonces are fresh per
        handoff and the export and import each consume their side's
        nonce, so no channel outlives its handoff and a replayed bundle
        is refused.
        """
        from repro.crypto.attestation import Quote, QuoteVerifier

        if not self._provisioned:
            raise ConfigurationError("only a provisioned context takes part in a handoff")
        if HANDOFF_CLIENT_ID in self._rows:
            raise ConfigurationError(
                f"client id {HANDOFF_CLIENT_ID} is reserved for handoff records"
            )
        if self._handoff_nonce is None:
            raise ConfigurationError("handoff before challenge")
        if self._dh is None:
            raise ConfigurationError("handoff before attestation")
        verifier: QuoteVerifier = payload["verifier"]
        quote: Quote = payload["quote"]
        verifier.verify(
            quote,
            expected_measurement=self._env.measurement,
            nonce=self._handoff_nonce,
        )
        return self._dh.shared_key(
            public_from_bytes(quote.user_data[16 : 16 + PUBLIC_KEY_BYTES])
        )

    def _sequence_handoff(self, operation: list, result: Any) -> None:
        """Fold a handoff operation into the chain exactly like a client
        operation (fresh sequence number, chain extension, audit record),
        so the offline checkers replay it and any tampering with the
        moved items diverges the chain."""
        operation_bytes = serde.encode(operation)
        sequence = self._sequence + 1
        self._sequence = sequence
        self._chain = chain_extend(
            self._chain, operation_bytes, sequence, HANDOFF_CLIENT_ID
        )
        if self._audit:
            self.audit_log.append(
                AuditRecord(
                    sequence=sequence,
                    client_id=HANDOFF_CLIENT_ID,
                    operation=operation_bytes,
                    result=serde.encode(result),
                    chain=self._chain,
                )
            )

    @staticmethod
    def _check_arcs(arcs: Any) -> list:
        """The host's ``[lo, hi)`` ring arcs, refused unless they are a
        list (or tuple) of integer pairs inside the ring."""
        checked = []
        for arc in arcs if isinstance(arcs, (list, tuple)) else [arcs]:
            if (
                not isinstance(arc, (list, tuple))
                or len(arc) != 2
                or type(arc[0]) is not int
                or type(arc[1]) is not int
                or not 0 <= arc[0] < arc[1] <= RING_SPAN
            ):
                raise ConfigurationError(f"malformed handoff arc {arc!r}")
            checked.append(list(arc))
        return checked

    def _ecall_handoff_challenge(self, _payload: Any) -> bytes:
        """Either side: emit a nonce for the peer to attest against."""
        if not self._provisioned:
            raise ConfigurationError("only a provisioned context takes part in a handoff")
        self._handoff_nonce = self._env.secure_random(16)
        return self._handoff_nonce

    def _guard_undecided_arcs(self, arcs: list) -> None:
        """Refuse to export arcs holding keys locked by a prepared-but-
        undecided transaction.  The decision for those keys is addressed
        to *this* group's hash chain; moving them mid-lifecycle would
        strand the prepare on one chain and its decision on another.
        The control plane's barrier waits for transactions to resolve
        before handing arcs over — this check is the enclave-side
        enforcement of the same rule.
        """
        locked = getattr(self._functionality, "locked_keys", None)
        if locked is None:
            return
        held = locked(self._state)
        if not held:
            return
        stranded = sorted(
            key
            for key in held
            if any(lo <= ring_point(key) < hi for lo, hi in arcs)
        )
        if stranded:
            raise ConfigurationError(
                f"arcs hold {len(stranded)} key(s) locked by prepared-but-"
                f"undecided transaction(s) {sorted(set(held[k] for k in stranded))}; "
                "refusing to hand them off before their decision lands"
            )

    def _ecall_handoff_export(self, payload: dict) -> dict:
        """Source side: verify the peer, cut the keys on the requested
        ring arcs out of the service state, and seal them to the peer.

        Unlike :meth:`_ecall_migration_export` the context keeps serving
        afterwards — only the reassigned arcs leave.  The export is
        chained as a sequenced operation *before* the bundle is released,
        so a source that is later rolled back past the handoff is caught
        by its own clients exactly as for any other lost operation.

        The bundle is sealed under the channel of this handoff's mutually
        attested handshake (:meth:`_handoff_channel`).
        """
        arcs = self._check_arcs(payload["arcs"])
        channel = self._handoff_channel(payload)
        self._guard_undecided_arcs(arcs)
        operation = [HANDOFF_EXPORT_VERB, arcs]
        items = self._apply(operation)
        self._sequence_handoff(operation, items)
        sealed = auth_encrypt(
            serde.encode([items]), channel, associated_data=_HANDOFF_AD
        )
        self._handoff_nonce = None
        self._seal_and_store()
        return {"bundle": sealed, "moved": len(items)}

    def _ecall_handoff_import(self, payload: dict) -> int:
        """Target side: verify the peer, open the bundle over the attested
        channel, and install the items as a sequenced operation."""
        plain = auth_decrypt(
            payload["bundle"],
            self._handoff_channel(payload),
            associated_data=_HANDOFF_AD,
        )
        (items,) = serde.decode(plain)
        operation = [HANDOFF_IMPORT_VERB, items]
        count = self._apply(operation)
        self._sequence_handoff(operation, count)
        self._handoff_nonce = None
        self._seal_and_store()
        return count

    # -------------------------------------------------------------- queries

    def _ecall_status(self, _payload: Any) -> dict:
        """Non-sensitive status snapshot (used by tests and the harness)."""
        return {
            "provisioned": self._provisioned,
            "sequence": self._sequence,
            "clients": self._rows.client_ids(),
            "halted": self._halted is not None,
            "migrated_out": self._migrated_out,
        }

    def _ecall_txn_status(self, _payload: Any) -> dict:
        """Transaction-lifecycle snapshot: prepared-but-undecided
        transactions and the number of keys they hold locked.  Read by
        the dispatcher's batch-boundary gate and the control plane's
        quiescence barrier (neither may treat a boundary as cuttable
        while a prepare awaits its decision).  Exposes only ids and
        counts — the same metadata class as :meth:`_ecall_status`.
        """
        helper = getattr(self._functionality, "pending_transactions", None)
        if not self._provisioned or helper is None:
            return {"pending": {}, "locked_keys": 0, "waiting": []}
        pending = helper(self._state)
        waiting_helper = getattr(
            self._functionality, "waiting_transactions", None
        )
        return {
            "pending": {txn_id: len(keys) for txn_id, keys in pending.items()},
            "locked_keys": sum(len(keys) for keys in pending.values()),
            # queued waiters hold no locks, but their prepare is still
            # addressed at this shard's keys — the quiescence barrier
            # must not move those keys out from under the queue
            "waiting": list(waiting_helper(self._state))
            if waiting_helper is not None
            else [],
        }

    def _ecall_export_audit(self, _payload: Any) -> list[AuditRecord]:
        if not self._audit:
            raise ConfigurationError("context was not created in audit mode")
        return list(self.audit_log)

    def _ecall_export_audit_since(self, offset: Any) -> list[AuditRecord]:
        """Incremental audit export: records from ``offset`` onwards.

        The streaming verifier harvests evidence at every batch boundary;
        re-exporting the whole log each time would make harvesting
        O(history) — this returns only the suffix past what the caller
        already holds.  Records are append-only and immutable once
        sequenced, so ``export_audit_since(k)`` concatenated over time is
        byte-identical to a final ``export_audit_log``.
        """
        if not self._audit:
            raise ConfigurationError("context was not created in audit mode")
        if not isinstance(offset, int) or offset < 0:
            raise ConfigurationError(f"audit export offset {offset!r} is invalid")
        return list(self.audit_log[offset:])


def make_lcm_program_factory(
    functionality_factory: Callable[[], Functionality],
    *,
    audit: bool = False,
    stage_probe: Callable[[dict], Any] | None = None,
) -> Callable[[], LcmContext]:
    """Build the program factory handed to the TEE platform.

    The factory is invoked at every epoch start, so each epoch begins with
    pristine volatile memory — persistent identity lives only in the sealed
    blob, exactly as the paper requires.  ``stage_probe`` rides the
    factory (not the instance) for the same reason: every program object
    a platform ever creates — initial bootstrap, rebalance target,
    recovered generation — reports its batch stage timings through the
    one cluster-owned probe.
    """

    def factory() -> LcmContext:
        return LcmContext(
            functionality_factory(),
            audit=audit,
            stage_probe=stage_probe,
        )

    return factory
