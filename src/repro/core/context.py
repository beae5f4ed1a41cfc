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

Sealed-blob layout (static/dynamic split, per-entry incremental sealing)
------------------------------------------------------------------------

The stored blob is ``serde([key_blob, static_blob, dynamic_blob])``:

``key_blob``
    ``kP`` sealed under the platform sealing key ``kS`` — recomputed only
    when ``kP`` or ``kS`` changes (provision, migration import, restore).
``static_blob``
    ``(kC, kA, quorum)`` sealed under ``kP`` — configuration that changes
    only on provision, membership change, key rotation or migration, so
    the per-operation seal reuses the cached box instead of re-encrypting
    and re-serializing it.
``dynamic_blob``
    ``serde([[section, ...], {client_id: row_record}, manifest_tag])`` —
    the mutable state, sealed *incrementally*: a piece is regenerated
    only when what it protects changed since the last seal.

    There is one ``section`` per top-level entry of the service state
    ``s``: ``nonce || E(enc(key) || enc(value))``, stream-encrypted under
    ``kP`` (:func:`~repro.crypto.aead.stream_encrypt` — confidentiality
    from the keystream, integrity from the manifest tag below), in
    canonical order (sorted by encoded key; the key itself stays inside
    the ciphertext).  A seal diffs the state against the last-sealed one
    by value identity and re-encrypts only the entries whose value object
    changed, so a PUT costs O(bytes it dirtied), not O(state).  A state
    that is not a ``dict`` is one section whose key slot holds
    ``enc({})`` — an encoding no real key has, dicts being unhashable.

    ``row_record`` is ``serde([acknowledged, reply_box])`` where
    ``reply_box`` is the *exact REPLY message* the context last sent that
    client, already sealed under ``kC``.  Every datum of a ``V`` row
    except the acknowledged marker — ``(t, h, r)`` — is carried by that
    REPLY, so storing its box verbatim makes the per-invoke row seal a
    concatenation plus one hash instead of a fresh encryption.  This
    leaks nothing new: all group clients share ``kC`` and can already
    read each other's REPLY boxes off the wire.  The plaintext
    acknowledged marker reveals only a sequence number, the same class of
    metadata :meth:`_ecall_status` exposes.  Rows for clients that never
    received a REPLY (fresh provision/join, migration import, kC
    rotation) hold a synthesized REPLY box with ``q = 0`` and an empty
    previous-chain echo, which no client accepts as a live reply because
    the previous-chain check fails.

``manifest_tag`` restores the atomicity a single box used to provide: it
is an HMAC under ``kP`` (domain-separated from box tags by its
associated-data string) over the SHA-256 hash of ``static_blob``, the
SHA-256 hash of the *ordered list* of section hashes, and the hash of
every ``row_record`` in canonical order.  A host that splices pieces from
different seals — one key's section from version 10 into version 12, two
sections swapped, one dropped or duplicated, ``s`` from one version with
``V`` from another, a pre-rotation static config with a post-rotation
dynamic layer — or tampers with a plaintext acknowledged marker produces
a manifest mismatch and the restore raises
:class:`~repro.errors.AuthenticationFailure`.  Clients hold ``kC`` and
could mint plausible REPLY boxes, but they cannot forge the ``kP``
manifest tag, so stored rows are exactly as unforgeable as before.
Replaying one *complete* old blob remains possible, exactly as with the
monolithic layout; that is the rollback attack LCM detects through
client verification, not through sealing.

What the host observes: the number of sections (top-level entries), each
section's length, and — by comparing consecutive versions — which slots
changed, hence the rank of a written key among the keys and how often a
slot is rewritten.  Key names and values stay confidential.  This is the
same class of metadata as the plaintext acknowledged marker; a
functionality that must hide its access pattern from the host keeps its
state under a single top-level entry.

Reusing a cached box verbatim across seals is safe: the identical
(key, nonce, plaintext) box carries no new information, and any change to
the protected content reseals that piece under a fresh nonce, so no
(key, nonce) pair ever covers two plaintexts.

A store hands the host only what the seal rewrote: the ``(offset,
bytes)`` runs of the changed pieces, against the blob the same context
stored last (:mod:`repro.server.storage`).  The first store after a
start, a restore, a provision or a migration import is the whole blob.
The runs tell the host nothing that comparing consecutive versions
would not.
"""

from __future__ import annotations

import collections
import itertools
import operator
from bisect import bisect_left, insort
from time import perf_counter as _perf_counter
from dataclasses import dataclass
from typing import Any, Callable

from hashlib import sha256 as _sha256

from repro import serde
from repro.crypto import fastpath as _fastpath
from repro.crypto.aead import (
    OVERHEAD,
    AeadKey,
    NonceSequence,
    _mac_frame,
    auth_decrypt,
    auth_decrypt_batch,
    auth_encrypt,
    auth_encrypt_batch,
    mac_tag,
    stream_decrypt,
    stream_encrypt,
    verify_mac_tag,
)
from repro.crypto.dh import DhKeyPair, PUBLIC_KEY_BYTES, public_from_bytes
from repro.crypto.hashing import (
    GENESIS_HASH,
    RING_SPAN,
    chain_extend,
    ring_point,
    secure_hash_many,
)
from repro.errors import (
    AuthenticationFailure,
    ConfigurationError,
    ForkDetected,
    MembershipError,
    ReplayDetected,
    RollbackDetected,
    SecurityViolation,
    StaleSequenceNumber,
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
    ReplyPayload,
    decode_invoke,
    encode_reply,
)
from repro.core.stability import (
    ClientEntry,
    PackedRows,
    majority_quorum,
)
from repro.tee.enclave import EnclaveEnv

_KEY_BLOB_AD = b"lcm/state-key"
_STATIC_BLOB_AD = b"lcm/state-static"
#: mac_tag domain for the dynamic-section manifest; must never be passed
#: to auth_encrypt/auth_decrypt (see repro.crypto.aead.mac_tag).
_MANIFEST_AD = b"lcm/state-manifest"
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


class _HandoffSession:
    """One cached handoff channel to an attested peer enclave.

    Established during a full mutually attested handshake and kept in
    volatile memory only (an epoch restart forgets it — the next handoff
    re-attests).  ``send``/``recv`` are per-direction sequence numbers
    folded into the bundle's associated data, so a host replaying an old
    sealed bundle over the cached channel fails authentication exactly
    as a forged bundle would.
    """

    __slots__ = ("channel", "send", "recv")

    def __init__(self, channel: AeadKey) -> None:
        self.channel = channel
        self.send = 0
        self.recv = 0


def _session_ad(counter: int) -> bytes:
    return _HANDOFF_AD + b"/session/" + counter.to_bytes(8, "big")


def _list_header(count: int) -> bytes:
    """Container framing sourced from serde so the knowledge stays there."""
    buf = bytearray()
    serde.encode_list_header(buf, count)
    return bytes(buf)


def _dict_header(count: int) -> bytes:
    buf = bytearray()
    serde.encode_dict_header(buf, count)
    return bytes(buf)


_TWO_LIST_HEADER = _list_header(2)
_THREE_LIST_HEADER = _list_header(3)


#: Canonical serde encoding of one bytes value (``B || len || value``) —
#: exactly serde.encode's bytes fast path; aliased so the wire knowledge
#: stays in serde.
_frame_bytes = serde.encode


def _bytes_header(length: int) -> bytes:
    """Framing prefix of a ``length``-byte bytes value (``B || len``)."""
    return b"B" + length.to_bytes(8, "big")


#: Framing prefix of a 32-byte hash value, precomputed for the per-invoke
#: manifest-piece path.
_HASH_FRAME = _bytes_header(32)


#: Key slot of the single section a non-``dict`` service state is sealed
#: as: the encoding of ``{}``, which no entry of a real ``dict`` state can
#: carry because dicts are unhashable.
_WHOLE_STATE_KEY = serde.encode({})
_WHOLE_STATE = object()  # that section's key in the entry views below
_ABSENT = object()
#: value types that cannot change behind an unchanged object identity
_IMMUTABLE_SCALARS = frozenset({str, bytes, int, float, bool, type(None)})


def _entries(state: Any) -> dict:
    """The service state as the ``{key: value}`` entries it is sealed by."""
    return state if isinstance(state, dict) else {_WHOLE_STATE: state}


def _encode_key(key: Any) -> bytes:
    return _WHOLE_STATE_KEY if key is _WHOLE_STATE else serde.encode(key)


class _PieceTable:
    """The sealed pieces of one container of the dynamic blob, in
    canonical (encoded-key) order: a ``blob`` piece and a ``manifest``
    piece per member, parallel to the sorted ``keys``.  Behind ``header``,
    the container's framing for the current member count, the blob
    pieces are the container's stored bytes and the manifest pieces its
    manifest input.  :meth:`put` patches a member's slot in place.

    This class keeps the pieces as separate strings — right for the V
    rows (a serde dict): few members, one patched per operation, so a put
    must cost next to nothing and joining them once per seal is cheap.
    """

    __slots__ = ("_frame", "header", "keys", "blob", "manifest")

    def __init__(self, frame: Callable[[int], bytes]) -> None:
        self._frame = frame
        self.clear()

    def clear(self) -> None:
        self.keys: list[bytes] = []
        self.blob: list[bytes] | bytearray = []
        self.manifest: list[bytes] | bytearray = []
        self.header = self._frame(0)

    def put(self, key: bytes, blob_piece: bytes, manifest_piece: bytes) -> None:
        keys = self.keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            self.blob[slot] = blob_piece
            self.manifest[slot] = manifest_piece
        else:
            keys.insert(slot, key)
            self.blob.insert(slot, blob_piece)
            self.manifest.insert(slot, manifest_piece)
            self.header = self._frame(len(keys))

    def discard(self, key: bytes) -> None:
        keys = self.keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            del keys[slot], self.blob[slot], self.manifest[slot]
            self.header = self._frame(len(keys))


class _PackedPieceTable(_PieceTable):
    """The same table with each side packed end to end in one buffer —
    right for the state sections (a serde list): many members, few
    patched per seal, so assembling a blob must copy two buffers, not
    visit every member (a read-only batch would otherwise pay per key).
    A put overwrites the member's bytes where they lie, found by a
    prefix sum over the piece lengths; equal-length replacement is a
    memcpy of the piece, anything else also moves what follows.
    Manifest pieces are all ``_HASH_FRAME``-framed hashes, one width.

    The table also records what changed in ``blob`` since the last
    :meth:`take_changes`: the pieces rewritten at equal length, by
    offset, and the lowest offset from which bytes moved (an insert, a
    removal or a resize), so the store after a seal can hand over just
    those bytes.
    """

    __slots__ = ("_lengths", "_rewritten", "_moved")

    _WIDTH = len(_HASH_FRAME) + 32

    def clear(self) -> None:
        self.keys = []
        self.blob = bytearray()
        self.manifest = bytearray()
        self._lengths: list[int] = []
        self.header = self._frame(0)
        self._rewritten: dict[int, bytes] = {}
        self._moved: int | None = 0  # every byte is new

    def take_changes(self) -> tuple[dict[int, bytes], int | None]:
        """The changes to ``blob`` since the last call: the pieces
        rewritten at equal length, by offset (the newest per offset), and
        the offset bytes moved from (None if none did)."""
        changes = self._rewritten, self._moved
        self._rewritten, self._moved = {}, None
        return changes

    def _span(self, slot: int, present: bool) -> tuple[int, int]:
        lengths = self._lengths
        start = sum(lengths[:slot]) if slot < len(lengths) else len(self.blob)
        return start, start + lengths[slot] if present else start

    def _moved_from(self, start: int) -> None:
        if self._moved is None or start < self._moved:
            self._moved = start

    def put(self, key: bytes, blob_piece: bytes, manifest_piece: bytes) -> None:
        keys = self.keys
        slot = bisect_left(keys, key)
        present = slot < len(keys) and keys[slot] == key
        start, end = self._span(slot, present)
        self.blob[start:end] = blob_piece
        if present and end - start == len(blob_piece):
            self._rewritten[start] = blob_piece
        else:
            self._moved_from(start)
        at = slot * self._WIDTH
        self.manifest[at : at + self._WIDTH if present else at] = manifest_piece
        if present:
            self._lengths[slot] = len(blob_piece)
        else:
            keys.insert(slot, key)
            self._lengths.insert(slot, len(blob_piece))
            self.header = self._frame(len(keys))

    def discard(self, key: bytes) -> None:
        keys = self.keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            start, end = self._span(slot, True)
            at = slot * self._WIDTH
            del self.blob[start:end], self.manifest[at : at + self._WIDTH]
            del keys[slot], self._lengths[slot]
            self.header = self._frame(len(keys))
            self._moved_from(start)


#: Where :meth:`LcmContext._blob_pieces` puts the state sections buffer:
#: behind the outer list header, the key and static boxes, the dynamic
#: layer's length header and list header, and the sections' list header.
_SECTIONS_SLOT = 6


def _store_runs(
    stored: list,
    starts: list[int],
    pieces: list,
    rewritten: dict[int, bytes],
    moved: int | None,
) -> tuple[list[tuple[int, bytes]], list[int]]:
    """The ascending ``(offset, bytes)`` runs that turn the blob a
    context stored last into the join of ``pieces``, and the new
    pieces' offsets.

    ``stored`` is that store's piece list, the sections buffer standing
    in by its length then, and ``starts`` its pieces' offsets and its
    length; ``rewritten`` and ``moved`` are the buffer's changes since
    (:meth:`_PackedPieceTable.take_changes`).  A piece that is the stored
    one, or equal to it, adds nothing, and one replaced at equal length
    is a run of its own.  The first length change moves every byte after
    it, so the last run goes from there to the end; until one does, the
    offsets stay ``starts``.  A run is an immutable piece itself, or a
    copy out of the buffer, never a view of it.
    """
    # most pieces are the very objects stored last: visit only the others
    # (the sections slot always, its stand-in being a length)
    changed = [
        *itertools.compress(itertools.count(), map(operator.is_not, pieces, stored)),
        *range(len(stored), len(pieces)),
    ]
    runs: list[tuple[int, bytes]] = []
    append = runs.append
    known = len(stored)
    for index in changed:
        piece = pieces[index]
        if index == _SECTIONS_SLOT:
            at = starts[index]
            cut = len(piece) if moved is None else moved
            runs.extend(
                (at + start, data)
                for start, data in sorted(rewritten.items())
                if start < cut
            )
            if moved is None:
                continue
            if stored[index] == len(piece):
                append((at + moved, bytes(memoryview(piece)[moved:])))
                continue
            at += moved
            rest = [memoryview(piece)[moved:], *pieces[index + 1 :]]
        elif index < known and len(stored[index]) == len(piece):
            if stored[index] != piece:
                append((starts[index], piece))
            continue
        else:
            at = starts[index]
            rest = pieces[index:]
        # a length changed here: every byte after it moved
        append((at, b"".join(rest)))
        break
    else:
        if len(pieces) == known:
            return runs, starts
    return runs, [0, *itertools.accumulate(map(len, pieces))]


#: Decoded forms of recently seen operation encodings (real workloads repeat
#: operations heavily).  Only flat lists of scalars are memoized so a
#: functionality that mutates nested operation structure cannot corrupt the
#: cache; stored and returned lists are distinct copies.  Keyed by canonical
#: bytes, which are unambiguous.  A proper LRU (ordered dict, move-to-end on
#: hit, least-recent eviction) so a zipfian key set larger than the capacity
#: keeps its hot head cached instead of thrashing wholesale.
_OP_DECODE_CACHE: collections.OrderedDict[bytes, list] = collections.OrderedDict()
_OP_DECODE_CACHE_MAX = 1024


#: Canonical encodings of recently produced scalar results (hot values
#: repeat under real workloads).  Key types are restricted to those that
#: are unambiguous as dict keys — ``True`` and ``1`` compare equal but
#: encode differently, so ``bool`` stays out (its type check fails).
_RESULT_ENCODE_CACHE: collections.OrderedDict = collections.OrderedDict()
_RESULT_ENCODE_CACHE_MAX = 512
_SCALAR_RESULT_TYPES = (str, bytes, int)


def _decode_operation(data: bytes) -> Any:
    cached = _OP_DECODE_CACHE.get(data)
    if cached is not None:
        _OP_DECODE_CACHE.move_to_end(data)
        return cached.copy()
    value = serde.decode(data)
    if type(value) is list and all(
        type(item) in (str, bytes, int, bool) or item is None for item in value
    ):
        if len(_OP_DECODE_CACHE) >= _OP_DECODE_CACHE_MAX:
            _OP_DECODE_CACHE.popitem(last=False)
        _OP_DECODE_CACHE[data] = value.copy()
    return value

#: Protocol-level dummy operation: sequenced and hash-chained like any other
#: operation, but not passed to ``F``.  Used for stability polling.
NOP_OPERATION = ("__LCM_NOP__",)

_NOP_VERB = NOP_OPERATION[0]

_NOP_BYTES = serde.encode(list(NOP_OPERATION))

#: The four Alg.-2 halts, numbered as ``lcm_invoke_batch_open`` reports them
#: in a violating operation's ``meta[0]``.
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
                 quorum_override: int | None = None,
                 piggyback_state: bool = False,
                 stage_probe: Callable[[dict], Any] | None = None) -> None:
        self._functionality = functionality
        self._audit = audit
        self._quorum_override = quorum_override
        # Sec. 5.2 optimisation: return the sealed state with the reply
        # instead of an ocall, eliminating one enclave transition.
        self._piggyback_state = piggyback_state
        # enclave-depth tracing opt-in: when set, each invoke batch
        # reports its wall-clock stage durations (unseal / execute /
        # reply_seal / state_seal, plus per-op execute) through this
        # callable before the ecall returns.  None (the default) keeps
        # the batch path at a single attribute test.
        self._stage_probe = stage_probe
        # volatile protected memory M — lost at epoch end
        self._env: EnclaveEnv | None = None
        self._sealing_key: AeadKey | None = None     # kS
        self._state_key: AeadKey | None = None       # kP
        self._communication_key: AeadKey | None = None  # kC
        self._admin_key: AeadKey | None = None       # kA (admin channel)
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
        self._nonces: NonceSequence | None = None
        self._state: Any = None                      # s
        # seal caches (see module docstring): the kP-under-kS and static
        # config boxes, and one piece table each for the state sections
        # and the V rows.
        self._key_blob: bytes | None = None
        self._static_blob: bytes | None = None
        self._static_blob_hash: bytes | None = None  # framed, manifest input
        # The sections are current for _sealed_state, the exact object they
        # were last diffed against ({} = nothing sealed yet).  Safe because
        # Functionality.apply must not mutate state in place: an entry
        # whose value is the same object still has the plaintext its
        # cached section was sealed from.
        self._sections = _PackedPieceTable(_list_header)
        self._sealed_state: Any = {}
        self._sections_hash: bytes | None = None  # framed, manifest input
        # audit mode only: key -> the encoded value its section holds,
        # and -> the value object itself where that is an immutable scalar
        self._sealed_values: dict[Any, bytes] = {}
        self._sealed_scalars: dict[Any, Any] = {}
        # rows in _dirty_rows need a synthesized REPLY box before the next
        # store; the invoke path feeds the table the real ones
        self._row_pieces = _PieceTable(_dict_header)
        self._dirty_rows: set[int] = set()
        # the pieces of the blob this context stored last (the sections
        # buffer standing in by its length) and their offsets: the base of
        # the next store's delta (None: the next store is a whole blob —
        # so is a restored context's first, as storage's newest version
        # may be another than the one it restored after a rollback)
        self._stored: tuple[list, list[int]] | None = None
        self._provisioned = False
        self._halted: SecurityViolation | None = None
        self._dh: DhKeyPair | None = None
        self._migration_nonce: bytes | None = None
        self._handoff_nonce: bytes | None = None
        self._handoff_sessions: dict[bytes, _HandoffSession] = {}
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
            "handoff_session_check": self._ecall_handoff_session_check,
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
        try:
            blob_key, blob_static, blob_dynamic = serde.decode(blob)
        except Exception as exc:  # malformed outer framing
            raise AuthenticationFailure(f"stored blob malformed: {exc}") from exc
        key_material = auth_decrypt(
            blob_key, self._sealing_key, associated_data=_KEY_BLOB_AD
        )
        self._state_key = AeadKey(key_material, label="kP")
        static_plain = auth_decrypt(
            blob_static, self._state_key, associated_data=_STATIC_BLOB_AD
        )
        kc_material, ka_material, quorum = serde.decode(static_plain)
        static_hash = _frame_bytes(_sha256(blob_static).digest())
        try:
            section_boxes, row_boxes, tag = serde.decode(blob_dynamic)
            if type(section_boxes) is not list or type(row_boxes) is not dict:
                raise TypeError("not a [sections, rows, tag] layout")
            section_hashes = [
                _HASH_FRAME + _sha256(box).digest() for box in section_boxes
            ]
            sections_hash = self._hash_sections(
                _list_header(len(section_hashes)), b"".join(section_hashes)
            )
            # rows in canonical order, NOT the stored dict order: the
            # decoder accepts any, and adopting the host's order would
            # make our own next seal disagree with its manifest
            rows = sorted(
                (serde.encode(client_id), client_id, record)
                for client_id, record in row_boxes.items()
            )
            row_hashes = [
                enc_id + _HASH_FRAME + _sha256(record).digest()
                for enc_id, _, record in rows
            ]
            manifest = self._build_manifest(
                static_hash,
                sections_hash,
                _dict_header(len(row_hashes)),
                row_hashes,
            )
        except Exception as exc:  # malformed (or pre-section) dynamic framing
            raise AuthenticationFailure(
                f"stored dynamic section malformed: {exc}"
            ) from exc
        if not isinstance(tag, bytes) or not verify_mac_tag(
            tag, manifest, self._state_key, associated_data=_MANIFEST_AD
        ):
            raise AuthenticationFailure(
                "sealed state manifest MAC mismatch "
                "(sections were spliced or tampered)"
            )
        self._communication_key = AeadKey(kc_material, label="kC")
        self._admin_key = AeadKey(ka_material, label="kA")
        self._quorum_override = quorum if quorum else None
        # manifest verified above: the stream-encrypted state sections and
        # the per-row REPLY boxes are authentic, so unseal and adopt them
        plains = [stream_decrypt(box, self._state_key) for box in section_boxes]
        if len(plains) == 1 and plains[0].startswith(_WHOLE_STATE_KEY):
            self._state = serde.decode(plains[0][len(_WHOLE_STATE_KEY) :])
        else:
            # ``enc(key) || enc(value)`` runs in canonical order are the
            # body of the state dict's own encoding
            self._state = serde.decode(
                b"".join([_dict_header(len(plains)), *plains])
            )
        keys = sorted(map(_encode_key, _entries(self._state)))
        if len(keys) != len(plains) or not all(
            map(bytes.startswith, plains, keys)
        ):
            raise AuthenticationFailure(
                "sealed state sections are not in canonical key order"
            )
        entries: dict[int, ClientEntry] = {}
        try:
            records = {
                client_id: serde.decode(record)
                for client_id, record in row_boxes.items()
            }
        except Exception as exc:
            raise AuthenticationFailure(
                f"stored row record malformed: {exc}"
            ) from exc
        for client_id, (acknowledged, reply_box) in records.items():
            reply = ReplyPayload.unseal(reply_box, self._communication_key)
            entries[client_id] = ClientEntry(
                acknowledged=acknowledged,
                last_sequence=reply.sequence,
                last_chain=reply.chain,
                last_result=reply.result,
            )
        self._reset_entries(entries)
        # The unsealed pieces are exactly what the next seal would produce
        # — adopt them so the first post-restore store reuses them verbatim.
        self._key_blob = _frame_bytes(blob_key)
        self._static_blob = _frame_bytes(blob_static)
        self._static_blob_hash = static_hash
        for key, box, piece in zip(keys, section_boxes, section_hashes):
            self._sections.put(key, _frame_bytes(box), piece)
        self._sealed_state = self._state
        self._sections_hash = sections_hash
        if self._audit:
            self._sealed_values = {
                key: serde.encode(value)
                for key, value in _entries(self._state).items()
            }
            self._sealed_scalars = {
                key: value
                for key, value in _entries(self._state).items()
                if type(value) in _IMMUTABLE_SCALARS
            }
        for (enc_id, _, record), piece in zip(rows, row_hashes):
            self._row_pieces.put(enc_id, enc_id + _frame_bytes(record), piece)
        self._dirty_rows.clear()
        if len(self._rows):
            _, self._sequence, self._chain = self._rows.argmax()
        self._provisioned = True

    # ------------------------------------------------------------ seal caches

    def _set_entry(self, client_id: int, entry: ClientEntry) -> None:
        """Update one row of V; its stored record is rebuilt at the next
        seal (with a synthesized REPLY box — the invoke path instead feeds
        :meth:`_store_row_seals` the real one)."""
        rows = self._rows
        slot = rows.slot.get(client_id)
        if slot is None:
            rows.insert(client_id, entry)
            self._quorum_cache = None
        else:
            acks = rows.acks
            del acks[bisect_left(acks, rows.ack[slot])]
            insort(acks, entry.acknowledged)
            rows.ack[slot] = entry.acknowledged
            rows.seq[slot] = entry.last_sequence
            rows.chains[slot * 32 : slot * 32 + 32] = entry.last_chain
            rows.results[slot] = entry.last_result
        self._dirty_rows.add(client_id)

    def _store_row_seals(self, pending: dict[int, tuple[int, bytes]]) -> None:
        """Cache the stored form of a batch of V rows from their
        ``(acknowledged, REPLY box)`` pairs, hashing every record in one
        pass and patching each row's slot of the piece table."""
        if not pending:
            return
        enc_ids = []
        blobs = []
        record_views = []
        for client_id, (acknowledged, reply_box) in pending.items():
            enc_id = serde.encode(client_id)
            try:
                encoded_ack = acknowledged.to_bytes(16, "big", signed=True)
            except OverflowError:
                raise serde.SerdeError(
                    "acknowledged marker exceeds the canonical 128-bit range"
                ) from None
            # canonical serde bytes of ``[acknowledged, reply_box]``,
            # assembled and framed in one pass (inlined ``B || len ||
            # value`` framing, pinned by the sealed-blob format tests;
            # record length = header 9 + I 17 + B 9 + box)
            blob_piece = (
                enc_id
                + _bytes_header(35 + len(reply_box))
                + _TWO_LIST_HEADER
                + b"I"
                + encoded_ack
                + _bytes_header(len(reply_box))
                + reply_box
            )
            enc_ids.append(enc_id)
            blobs.append(blob_piece)
            # hash the record bytes straight out of the assembled piece
            record_views.append(memoryview(blob_piece)[len(enc_id) + 9 :])
        put = self._row_pieces.put
        for enc_id, blob_piece, digest in zip(
            enc_ids, blobs, secure_hash_many(record_views)
        ):
            put(enc_id, blob_piece, enc_id + _HASH_FRAME + digest)
        self._dirty_rows.difference_update(pending)

    def _reset_entries(self, entries: dict[int, ClientEntry]) -> None:
        """Replace V wholesale (provision / restore / migration import)."""
        self._rows.replace(entries)
        self._quorum_cache = None
        self._row_pieces.clear()
        self._dirty_rows = set(entries)

    def _remove_entry(self, client_id: int) -> None:
        self._rows.remove(client_id)
        self._quorum_cache = None
        self._row_pieces.discard(serde.encode(client_id))
        self._dirty_rows.discard(client_id)

    def _invalidate_seal_caches(self) -> None:
        """Drop every cached box (the keys they were sealed under changed)."""
        self._key_blob = None
        self._static_blob = None
        self._static_blob_hash = None
        self._sections.clear()
        self._sealed_state = {}
        self._sections_hash = None
        self._sealed_values = {}
        self._sealed_scalars = {}
        self._row_pieces.clear()
        self._dirty_rows = set(self._rows.client_ids())
        self._stored = None

    # ----------------------------------------------------------------- sealing

    def _refresh_sections(self) -> None:
        """Bring the state sections up to date with ``self._state``:
        reseal exactly the top-level entries whose value object changed
        since the last seal and drop those that left.  Outside audit mode
        the caller skips the call when the state object did not change."""
        state = self._state
        audit = self._audit
        entries = _entries(state)
        sealed_values = self._sealed_values
        sealed_scalars = self._sealed_scalars
        if state is not self._sealed_state:
            sections = self._sections
            sealed = _entries(self._sealed_state)
            sealed_get = sealed.get
            dirty = [
                key
                for key, value in entries.items()
                if sealed_get(key, _ABSENT) is not value
            ]
            # len(sealed) + entered - left == len(entries), so the keys
            # that left are only looked for when the sizes say some did
            entered = len(dirty) - sum(map(sealed.__contains__, dirty))
            left = (
                sealed.keys() - entries.keys()
                if len(sealed) + entered != len(entries)
                else ()
            )
            for key in left:
                sections.discard(_encode_key(key))
                sealed_values.pop(key, None)
                sealed_scalars.pop(key, None)
            for twin in (False, True):
                if twin in entries and twin in sealed:
                    # False/0 and True/1 are one dict key but two
                    # encodings, and value identity cannot tell which of
                    # the two a state holds now: such an entry is
                    # resealed on every pass, its old section dropped
                    # under either encoding
                    sections.discard(serde.encode(twin))
                    sections.discard(serde.encode(int(twin)))
                    key = next(key for key in entries if key == twin)
                    if key not in dirty:
                        dirty.append(key)
            if dirty or left:
                self._sections_hash = None
            kp = self._state_key
            # fresh nonces are drawn in canonical section order, so the
            # sealed bytes do not depend on the state's dict order
            for enc_key, key in sorted((_encode_key(key), key) for key in dirty):
                value = entries[key]
                enc_value = serde.encode(value)
                box = stream_encrypt(
                    enc_key + enc_value, kp, nonce=self._next_nonce()
                )
                sections.put(
                    enc_key, _frame_bytes(box), _HASH_FRAME + _sha256(box).digest()
                )
                if audit:
                    sealed_values[key] = enc_value
                    if type(value) in _IMMUTABLE_SCALARS:
                        sealed_scalars[key] = value
                    else:
                        sealed_scalars.pop(key, None)
            self._sealed_state = state
        if audit and any(
            serde.encode(entries[key]) != sealed_values.get(key)
            for key in itertools.compress(
                entries,
                map(
                    operator.is_not,
                    entries.values(),
                    map(sealed_scalars.get, entries, itertools.repeat(_ABSENT)),
                ),
            )
        ):
            # The identity diff assumes Functionality.apply never mutates
            # a top-level value in place (its documented contract).  Audit
            # mode pays for re-encoding entries to catch violations loudly
            # instead of keeping a stale section that a restore would
            # silently resurrect: each value must still encode to the
            # bytes its section was sealed from.  Only an entry that still
            # holds the very immutable scalar it was sealed from is exempt
            # — it cannot have changed.
            raise ConfigurationError(
                "functionality mutated the service state in place; "
                "a sealed section would go stale (see Functionality.apply)"
            )

    def _refresh_dynamic_seals(self) -> None:
        """Reseal exactly the dynamic pieces that changed since last seal."""
        if self._state is not self._sealed_state or self._audit:
            self._refresh_sections()
        if self._dirty_rows:
            # rows dirtied outside the invoke path (provision, membership
            # change, kC rotation, migration import) get a synthesized
            # REPLY box; its empty previous-chain echo means no client
            # ever accepts it as a live reply
            rows = self._rows
            kc = self._communication_key
            pending = {}
            for client_id in sorted(self._dirty_rows):
                entry = rows.entry(client_id)
                box = ReplyPayload(
                    sequence=entry.last_sequence,
                    chain=entry.last_chain,
                    result=entry.last_result,
                    stable_sequence=0,
                    previous_chain=b"",
                ).seal(kc, nonce=self._next_nonce())
                pending[client_id] = (entry.acknowledged, box)
            self._store_row_seals(pending)  # clears their dirty marks

    @staticmethod
    def _hash_sections(header: bytes, framed_hashes: bytes) -> bytes:
        """Framed SHA-256 over the serde bytes of the ordered list of
        section hashes (its list ``header``, then one framed hash per
        section): the one manifest input that binds every section and
        their order, and that only a seal which changed a section
        recomputes."""
        digest = _sha256(header)
        digest.update(framed_hashes)
        return _frame_bytes(digest.digest())

    @staticmethod
    def _build_manifest(
        framed_static_hash: bytes,
        framed_sections_hash: bytes,
        rows_header: bytes,
        row_hashes: list[bytes],
    ) -> bytes:
        """Serde bytes of ``[static_blob_hash, sections_hash,
        {client_id: row_record_hash}]``.

        The static-config hash binds the dynamic layer to the exact static
        section it was sealed next to (a kC rotation changes both, and the
        manifest stops a host from pairing a retired static blob with a
        newer dynamic layer).  ``row_hashes`` holds the ``enc_id || framed
        hash`` chunks in encoded-id order behind ``rows_header``, the dict
        framing for their count; seal and restore must build identical
        bytes.
        """
        return b"".join(
            [
                _THREE_LIST_HEADER,
                framed_static_hash,
                framed_sections_hash,
                rows_header,
                *row_hashes,
            ]
        )

    def _dynamic_parts(self) -> list[bytes]:
        """The pieces of ``serde([[section, ...], {id: row_record},
        manifest_tag])``, resealing only what changed.

        Only called from :meth:`_blob_pieces`, which guarantees the static
        blob (and its hash) exist first.
        """
        self._refresh_dynamic_seals()
        sections = self._sections
        rows = self._row_pieces
        if self._sections_hash is None:
            self._sections_hash = self._hash_sections(
                sections.header, sections.manifest
            )
        # both tables are in canonical order already: the seal patched
        # only the changed slots, so nothing is re-sorted here and no
        # section is visited
        manifest = self._build_manifest(
            self._static_blob_hash,
            self._sections_hash,
            rows.header,
            rows.manifest,
        )
        tag = mac_tag(manifest, self._state_key, associated_data=_MANIFEST_AD)
        return [
            _THREE_LIST_HEADER,
            sections.header,
            sections.blob,
            rows.header,
            *rows.blob,
            _frame_bytes(tag),
        ]

    def _blob_pieces(self) -> list:
        """Seal the mutable pieces that changed; reuse the cached static
        config and kP-under-kS boxes unless they were invalidated.
        Returns the sealed blob as its pieces, in order, the sections
        buffer at :data:`_SECTIONS_SLOT`."""
        if self._key_blob is None:
            self._key_blob = _frame_bytes(
                auth_encrypt(
                    self._state_key.material,
                    self._sealing_key,
                    associated_data=_KEY_BLOB_AD,
                    nonce=self._next_nonce(),
                )
            )
        if self._static_blob is None:
            static_plain = serde.encode(
                [
                    self._communication_key.material,
                    self._admin_key.material,
                    self._quorum_override or 0,
                ]
            )
            box = auth_encrypt(
                static_plain,
                self._state_key,
                associated_data=_STATIC_BLOB_AD,
                nonce=self._next_nonce(),
            )
            self._static_blob = _frame_bytes(box)
            self._static_blob_hash = _frame_bytes(_sha256(box).digest())
        dynamic = self._dynamic_parts()
        return [
            _THREE_LIST_HEADER,
            self._key_blob,
            self._static_blob,
            _bytes_header(sum(map(len, dynamic))),
            *dynamic,
        ]

    def _sealed_blob(self) -> bytes:
        """The whole sealed blob, joined from its pieces.  Leaves the
        record of what changed since the last store alone, so the next
        store's delta still covers it."""
        return b"".join(self._blob_pieces())

    def _seal_for_store(self) -> bytes | tuple[int, int, list]:
        """Seal, and return what the host stores: the delta
        ``(base_length, length, runs)`` against the blob this context
        stored last (:mod:`repro.server.storage`), or the whole blob when
        this context has not stored since it started, restored or
        dropped its seal caches."""
        pieces = self._blob_pieces()
        rewritten, moved = self._sections.take_changes()
        layout = pieces.copy()
        layout[_SECTIONS_SLOT] = len(pieces[_SECTIONS_SLOT])
        if self._stored is None:
            self._stored = (layout, [0, *itertools.accumulate(map(len, pieces))])
            return b"".join(pieces)
        base, base_starts = self._stored
        runs, starts = _store_runs(base, base_starts, pieces, rewritten, moved)
        self._stored = (layout, starts)
        return base_starts[-1], starts[-1], runs

    def _seal_and_store(self) -> None:
        """Seal the state and persist it through the (untrusted) host."""
        self._env.ocall_store(self._seal_for_store())

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
        kp_material, kc_material, ka_material, client_ids, quorum = serde.decode(plain)
        self._state_key = AeadKey(kp_material, label="kP")
        self._communication_key = AeadKey(kc_material, label="kC")
        self._admin_key = AeadKey(ka_material, label="kA")
        self._quorum_override = quorum if quorum else None
        self._reset_entries({client_id: ClientEntry() for client_id in client_ids})
        self._state = self._functionality.initial_state()
        self._invalidate_seal_caches()
        self._provisioned = True
        self._seal_and_store()
        return True

    # ---------------------------------------------------------------- invoke

    def _ecall_invoke_batch(self, messages: list[bytes]):
        """Alg. 2, entered once per batch (Sec. 5.2): one crypto pass per
        direction, one dynamic-layer seal and one state store for the
        whole batch.  A single INVOKE is a batch of one.

        All INVOKE boxes are verified and decrypted before any operation
        executes, so a batch containing a forged message is rejected
        wholesale — no forged operation runs and the context does not
        halt: an unauthentic message carries no evidence about T's own
        state (it may be network garbage or a removed client's stale
        key), and halting on it would let anyone deny service with one
        forged packet.  Halting is reserved for *authenticated* context
        mismatches, which prove a rollback/forking attack; one mid-batch
        halts the context immediately, and the operations already
        executed in the batch are abandoned unsealed.  All REPLY boxes
        are sealed in one pass, and the per-client row-slot patches are
        coalesced so a client invoked twice in a batch is resealed once.

        With the compiled fastpath backend the batch is verified,
        decoded, Alg.-2-checked against the packed V columns, chained and
        resealed in two C calls (:meth:`_invoke_batch_native`).  Without
        it — or when some authentic INVOKE is not encoded the way the C
        parser expects, in which case the native pass has touched
        nothing — the Python encoding of Alg. 2 runs
        (:meth:`_invoke_batch_python`), drawing nonces from the same
        deterministic sequence, so the wire bytes are identical.  Both
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
        if messages and self._nonces is not None and backend.native:
            boxes = self._invoke_batch_native(backend, messages, stamps, per_op)
        if boxes is None:
            path = "python-batch"
            boxes = self._invoke_batch_python(messages, stamps, per_op)
        if self._piggyback_state:
            # Sec. 5.2: hand the sealed state back with the replies; the
            # untrusted server writes it to disk (it cannot read or forge
            # it — only delay or roll it back, which LCM detects anyway).
            outcome = {"replies": boxes, "state": self._seal_for_store()}
        else:
            self._seal_and_store()
            outcome = boxes
        if stamps is not None:
            probe(self._stage_record(
                path, len(messages), per_op, *stamps, _perf_counter()
            ))
        return outcome

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

        Pass A (``lcm_invoke_batch_open``) MAC-scans, decrypts, decodes
        and Alg.-2-verifies every INVOKE in order, mutating the live V
        columns, the sorted acknowledged mirror and the (sequence, chain)
        head exactly as :meth:`_execute_invoke` would.  The middle loop
        below then runs only :meth:`_execute` (and reads resend results
        at their in-order positions); pass B
        (``lcm_invoke_batch_reply``) encodes and seals all replies under
        deterministically derived nonces.  Returns the REPLY boxes, or
        ``None`` when some box is authentic but not canonically encoded —
        pass A guarantees it has not touched any state in that case, so
        the Python pass can re-run the batch (and stamp its own stages).
        """
        timed = stamps is not None
        if timed:
            stamps.append(_perf_counter())
        rows = self._rows
        kc = self._communication_key
        status, plain, meta, chains_out, sequence, chain_value = (
            backend.invoke_batch_open(
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
        )
        if status <= -2000:  # non-canonical payload: no state was touched
            if timed:
                stamps.clear()
            return None
        if timed:
            stamps.append(_perf_counter())
        if status <= -1000:
            # unauthentic box: rejected wholesale without halting, with
            # the batch unseal's exact diagnostics
            bad = -1000 - status
            if len(messages[bad]) < OVERHEAD:
                raise AuthenticationFailure(
                    f"box {bad} of batch too short to be authentic"
                )
            raise AuthenticationFailure(
                f"MAC verification failed for box {bad} of batch"
            )
        count = status
        total = len(messages)
        self._sequence = sequence
        self._chain = chain_value
        # middle loop: the only per-op Python work left — run F over the
        # executed operations (pass A never calls back into Python) and
        # snapshot resend results at their in-order positions (a later
        # operation by the same client overwrites the row's result cell)
        results: list[bytes] = []
        execute = self._execute
        for index in range(count):
            if timed:
                op_start = _perf_counter()
            base = 10 * index
            if meta[base] == 1:  # retry resend: stored result, no execution
                results.append(rows.results[meta[base + 1]])
            else:
                op_off = meta[base + 4]
                results.append(
                    execute(
                        meta[base + 1],
                        meta[base + 2],
                        plain[op_off : op_off + meta[base + 5]],
                        meta[base + 8],
                        chains_out[32 * index : 32 * index + 32],
                    )
                )
            if timed:
                per_op.append(_perf_counter() - op_start)
        if timed:
            stamps.append(_perf_counter())
        if count < total:
            # authenticated verification failure at position ``count``
            # (rows before it stay committed and unsealed)
            base = 10 * count
            slot = meta[base + 1]
            raise self._violation(
                meta[base],
                meta[base + 2],
                meta[base + 3],
                rows.seq[slot] if slot >= 0 else 0,
            )
        nonces = self._nonces
        sealed = backend.invoke_batch_reply(
            kc._enc_key,
            kc._mac_key,
            _mac_frame(kc, _REPLY_AD),
            _REPLY_PREFIX,
            meta,
            chains_out,
            plain,
            results,
            nonces.seed,
            nonces.counter,
        )
        if sealed is None:  # pragma: no cover - C-side allocation failure
            outcomes = []
            for index in range(total):
                base = 10 * index
                hc_off = meta[base + 6]
                outcomes.append(
                    (
                        encode_reply(
                            meta[base + 8],
                            chains_out[32 * index : 32 * index + 32],
                            results[index],
                            meta[base + 9],
                            plain[hc_off : hc_off + meta[base + 7]],
                        ),
                        (meta[base + 2], meta[base + 3])
                        if meta[base] == 0
                        else None,
                    )
                )
            boxes = self._seal_reply_batch(outcomes)
        else:
            boxes, row_blobs, row_manifests = sealed
            nonces.counter += total
            # pass B already built each executed row's sealed-blob pieces;
            # all that is left is slot bookkeeping (a later reply to the
            # same client overwrites, exactly like _store_row_seals)
            put = self._row_pieces.put
            discard = self._dirty_rows.discard
            for index in range(total):
                base = 10 * index
                if meta[base] != 0:
                    continue
                manifest_piece = row_manifests[index]
                # a manifest piece opens with the 17-byte encoded id
                put(manifest_piece[:17], row_blobs[index], manifest_piece)
                discard(meta[base + 2])
        if timed:
            stamps.append(_perf_counter())
        return boxes

    def _invoke_batch_python(
        self,
        messages: list[bytes],
        stamps: list[float] | None,
        per_op: list[float],
    ) -> list[bytes]:
        """Alg. 2 in Python: one AEAD pass to open the batch,
        :meth:`_execute_invoke` per message, one AEAD pass to seal the
        replies.  Returns the REPLY boxes."""
        timed = stamps is not None
        if timed:
            stamps.append(_perf_counter())
        # all-or-nothing MAC check, see aead.auth_decrypt_batch
        plains = auth_decrypt_batch(
            messages, self._communication_key, associated_data=_INVOKE_AD
        )
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
        """Seal every encoded REPLY of a batch in one AEAD pass and
        reseal the V rows of the executed ones (``outcomes`` is what
        :meth:`_execute_invoke` returns, in batch order)."""
        nonces = self._nonces
        boxes = auth_encrypt_batch(
            [encoded for encoded, _ in outcomes],
            self._communication_key,
            associated_data=_REPLY_AD,
            nonces=nonces.take(len(outcomes)) if nonces is not None else None,
        )
        pending: dict[int, tuple[int, bytes]] = {}
        for (_, row), box in zip(outcomes, boxes):
            if row is not None:
                pending[row[0]] = (row[1], box)  # later reply supersedes
        self._store_row_seals(pending)
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
        # through _store_row_seals
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
        cached_op = _OP_DECODE_CACHE.get(operation_bytes)  # inlined hit path
        if cached_op is not None:
            _OP_DECODE_CACHE.move_to_end(operation_bytes)
            operation = cached_op.copy()
        else:
            operation = _decode_operation(operation_bytes)
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
        self._dirty_rows.add(client_id)
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
            if self._quorum_override is not None:
                quorum = min(self._quorum_override, len(self._rows))
            else:
                quorum = majority_quorum(len(self._rows))
            self._quorum_cache = quorum
        return quorum

    def _stable(self) -> int:
        """``majority-stable(V)`` from the sorted acknowledged mirror —
        equal to ``stable_with_quorum(V, self._quorum())``
        (property-tested) at O(1) per call."""
        return self._rows.stable(self._quorum())

    def _next_nonce(self) -> bytes | None:
        """Next deterministic seal nonce (None → fall back to the shared
        pool, only before :meth:`on_start` has seeded the sequence)."""
        nonces = self._nonces
        return nonces.next() if nonces is not None else None

    # ----------------------------------------------------------- membership

    def _ecall_admin(self, box: bytes) -> Any:
        """Admin requests (join / leave / rotate kC), authenticated with kA."""
        if not self._provisioned:
            raise ConfigurationError("context not provisioned")
        plain = auth_decrypt(box, self._admin_key, associated_data=_ADMIN_AD)
        request = serde.decode(plain)
        verb = request[0]
        if verb == "ADD_CLIENT":
            (_, client_id) = request
            if client_id in self._rows:
                raise MembershipError(f"client {client_id} already in the group")
            self._set_entry(client_id, ClientEntry())
            self._seal_and_store()
            return True
        if verb == "REMOVE_CLIENT":
            (_, client_id, new_kc_material) = request
            if client_id not in self._rows:
                raise MembershipError(f"client {client_id} not in the group")
            self._remove_entry(client_id)
            self._communication_key = AeadKey(new_kc_material, label="kC")
            # kC rotated: the static config and every stored row (REPLY
            # boxes under the old kC) must be resealed
            self._static_blob = None
            self._static_blob_hash = None
            self._dirty_rows.update(self._rows.client_ids())
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
        bundle = serde.encode(
            [
                self._state_key.material,
                self._communication_key.material,
                self._admin_key.material,
                self._state,
                wire_entries,
                self._quorum_override or 0,
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
        self._state_key = AeadKey(kp, label="kP")
        self._communication_key = AeadKey(kc, label="kC")
        self._admin_key = AeadKey(ka, label="kA")
        self._state = state
        self._reset_entries(
            {
                client_id: ClientEntry.from_wire(entry)
                for client_id, entry in wire_entries.items()
            }
        )
        self._quorum_override = quorum if quorum else None
        self._invalidate_seal_caches()
        if len(self._rows):
            _, self._sequence, self._chain = self._rows.argmax()
        self._provisioned = True
        self._seal_and_store()
        return True

    # ------------------------------------------------- key-range handoff

    def _verify_handoff_peer(self, payload: dict):
        """Shared mutual-attestation step of the handoff ecalls: verify
        the peer's quote against our own challenge nonce and return the
        DH public key it binds.

        Both sides run it — unlike whole-context migration (where only
        the origin verifies, because the target is unprovisioned and has
        nothing to lose), a handoff *into a live group* must never accept
        items from anything but a genuine LCM enclave, or an untrusted
        host could inject arbitrary keys into a serving state.
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
        peer_bytes = quote.user_data[16 : 16 + PUBLIC_KEY_BYTES]
        return public_from_bytes(peer_bytes), peer_bytes

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
        checked = []
        for arc in arcs:
            lo, hi = arc
            if (
                type(lo) is not int
                or type(hi) is not int
                or not 0 <= lo < hi <= RING_SPAN
            ):
                raise ConfigurationError(f"malformed handoff arc {arc!r}")
            checked.append([lo, hi])
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

    def _cache_handoff_session(
        self, peer_bytes: bytes, channel: AeadKey
    ) -> _HandoffSession:
        """Remember the attested channel for session reuse; bounded so
        long-lived groups never accumulate stale per-handshake entries
        (each full handshake mints fresh peer DH keys)."""
        while len(self._handoff_sessions) >= 32:
            self._handoff_sessions.pop(next(iter(self._handoff_sessions)))
        session = self._handoff_sessions[peer_bytes] = _HandoffSession(channel)
        return session

    def _handoff_session(self, payload: dict) -> _HandoffSession:
        if not self._provisioned:
            raise ConfigurationError(
                "only a provisioned context takes part in a handoff"
            )
        if HANDOFF_CLIENT_ID in self._rows:
            # same precondition the full-handshake path enforces: handoff
            # records are sequenced under the reserved client id, which
            # must not collide with a real member enrolled since the
            # session was established
            raise ConfigurationError(
                f"client id {HANDOFF_CLIENT_ID} is reserved for handoff records"
            )
        session = self._handoff_sessions.get(payload["session_peer"])
        if session is None:
            raise ConfigurationError("unknown handoff session peer")
        return session

    def _ecall_handoff_session_check(self, peer: bytes) -> bool:
        """Whether this context still holds a cached handoff channel for
        ``peer`` (an epoch restart wipes them).  The session-reuse path
        probes both sides *before* the export removes any key."""
        return self._provisioned and peer in self._handoff_sessions

    def _ecall_handoff_export(self, payload: dict) -> dict:
        """Source side: verify the peer, cut the keys on the requested
        ring arcs out of the service state, and seal them to the peer.

        Unlike :meth:`_ecall_migration_export` the context keeps serving
        afterwards — only the reassigned arcs leave.  The export is
        chained as a sequenced operation *before* the bundle is released,
        so a source that is later rolled back past the handoff is caught
        by its own clients exactly as for any other lost operation.

        Two channel modes: a full mutually attested handshake (payload
        carries ``quote``/``verifier``), which also caches the derived
        channel per peer for later reuse; or a cached session (payload
        carries ``session_peer``), which skips the four DH operations and
        seals under the cached key with a per-direction sequence number
        in the associated data (replay-proof without fresh nonces from
        attestation).
        """
        arcs = self._check_arcs(payload["arcs"])
        if "session_peer" in payload:
            session = self._handoff_session(payload)
            channel = session.channel
            associated_data = _session_ad(session.send)
        else:
            peer_public, peer_bytes = self._verify_handoff_peer(payload)
            channel = self._dh.shared_key(peer_public)
            session = self._cache_handoff_session(peer_bytes, channel)
            associated_data = _HANDOFF_AD
        self._guard_undecided_arcs(arcs)
        operation = [HANDOFF_EXPORT_VERB, arcs]
        items = self._apply(operation)
        self._sequence_handoff(operation, items)
        sealed = auth_encrypt(
            serde.encode([items]), channel, associated_data=associated_data
        )
        if "session_peer" in payload:
            session.send += 1
        self._handoff_nonce = None
        self._seal_and_store()
        return {"bundle": sealed, "moved": len(items)}

    def _ecall_handoff_import(self, payload: dict) -> int:
        """Target side: verify the peer (or reuse the cached session),
        open the bundle over the channel, and install the items as a
        sequenced operation."""
        if "session_peer" in payload:
            session = self._handoff_session(payload)
            plain = auth_decrypt(
                payload["bundle"],
                session.channel,
                associated_data=_session_ad(session.recv),
            )
            session.recv += 1
        else:
            peer_public, peer_bytes = self._verify_handoff_peer(payload)
            channel = self._dh.shared_key(peer_public)
            self._cache_handoff_session(peer_bytes, channel)
            plain = auth_decrypt(
                payload["bundle"], channel, associated_data=_HANDOFF_AD
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
    quorum_override: int | None = None,
    piggyback_state: bool = False,
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
            quorum_override=quorum_override,
            piggyback_state=piggyback_state,
            stage_probe=stage_probe,
        )

    return factory
