"""The sealed state: the blob ``T`` persists ``s`` and ``V`` in.

:class:`SealedState` owns the layout below; the context
(:class:`~repro.core.context.LcmContext`) reaches it only through it.

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
    metadata the context's ``status`` ecall exposes.  Rows for clients
    that never received a REPLY (fresh provision/join, migration import,
    kC rotation) hold a synthesized REPLY box with ``q = 0`` and an empty
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
bytes)`` runs of the changed pieces, against the blob the same sealed
state stored last (:mod:`repro.server.storage`).  The sections and the
rows each live in one :class:`_PieceTable` that records its changes as
they are made, so the runs come from those records and a handful of
header, box and tag pieces, without visiting the members.  The first
store of a :class:`SealedState` — after a start, a restore, a provision
or a migration import — is the whole blob.  The runs tell the host
nothing that comparing consecutive versions would not.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect_left
from hashlib import sha256 as _sha256
from typing import Any, Callable

from repro import serde
from repro.core.messages import ReplyPayload
from repro.core.stability import ClientEntry, PackedRows
from repro.crypto.aead import (
    AeadKey,
    auth_decrypt,
    auth_encrypt,
    mac_tag,
    stream_decrypt,
    stream_encrypt,
    verify_mac_tag,
)
from repro.crypto.hashing import secure_hash_many
from repro.errors import AuthenticationFailure, ConfigurationError

_KEY_BLOB_AD = b"lcm/state-key"
_STATIC_BLOB_AD = b"lcm/state-static"
#: mac_tag domain for the dynamic-section manifest; must never be passed
#: to auth_encrypt/auth_decrypt (see repro.crypto.aead.mac_tag).
_MANIFEST_AD = b"lcm/state-manifest"


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
#: Manifest piece widths: a section's framed hash, and a row's encoded
#: client id (``I`` and 16 bytes) before its framed hash.
_SECTION_WIDTH = len(_HASH_FRAME) + 32
_ROW_WIDTH = 17 + _SECTION_WIDTH


#: Key slot of the single section a non-``dict`` service state is sealed
#: as: the encoding of ``{}``, which no entry of a real ``dict`` state can
#: carry because dicts are unhashable.
_WHOLE_STATE_KEY = serde.encode({})
_WHOLE_STATE = object()  # that section's key in the entry views below
_ABSENT = object()
#: value types that cannot change behind an unchanged object identity
_IMMUTABLE_SCALARS = frozenset({str, bytes, int, float, bool, type(None)})
#: value types whose equal objects of the same exact type encode alike, so
#: an entry replaced by an equal one keeps its section
_KEPT_WHEN_EQUAL = (str, bytes)


def _entries(state: Any) -> dict:
    """The service state as the ``{key: value}`` entries it is sealed by."""
    return state if isinstance(state, dict) else {_WHOLE_STATE: state}


def _encode_key(key: Any) -> bytes:
    return _WHOLE_STATE_KEY if key is _WHOLE_STATE else serde.encode(key)


class _PieceTable(bytearray):
    """The stored bytes of one container of the dynamic blob — the state
    sections (a serde list) or the V rows (a serde dict) — its members'
    pieces packed end to end in canonical (encoded-key) order, parallel
    to the sorted ``keys``.  ``header`` is the container's framing for
    the current member count and ``manifest`` the members' manifest
    input, one ``width``-byte piece each.

    A put overwrites the member's bytes where they lie, found through the
    cached ``starts`` (each member's offset, then the length); an
    equal-length replacement is a memcpy of the piece, anything else also
    moves what follows.  The table records what changed since the last
    :meth:`take_changes` — the pieces rewritten at equal length, by
    offset, and the lowest offset bytes moved from (an insert, a removal
    or a resize) — so a store hands over just those bytes without
    visiting the members.
    """

    __slots__ = (
        "_frame", "_width", "keys", "starts", "manifest", "header",
        "_rewritten", "_moved", "_base",
    )

    def __init__(self, frame: Callable[[int], bytes], width: int) -> None:
        self._frame = frame
        self._width = width
        self.keys: list[bytes] = []
        self.starts = [0]
        self.manifest = bytearray()
        self.header = frame(0)
        self._rewritten: dict[int, bytes] = {}
        self._moved: int | None = 0  # every byte is new
        self._base = 0

    def take_changes(self) -> tuple[dict[int, bytes], int | None, int]:
        """The changes since the last call: the pieces rewritten at equal
        length, by offset (the newest per offset), the offset bytes moved
        from (None if none did), and the length the table had then."""
        changes = self._rewritten, self._moved, self._base
        self._rewritten, self._moved, self._base = {}, None, len(self)
        return changes

    def _moved_from(self, slot: int, start: int, grown: int) -> None:
        """Members from ``slot`` on moved by ``grown`` bytes; the bytes
        changed from ``start`` on."""
        starts = self.starts
        if grown:
            starts[slot:] = [at + grown for at in starts[slot:]]
        if self._moved is None or start < self._moved:
            self._moved = start

    def put(self, key: bytes, blob_piece: bytes, manifest_piece: bytes) -> None:
        keys, starts, width = self.keys, self.starts, self._width
        slot = bisect_left(keys, key)
        start, at = starts[slot], slot * width
        present = slot < len(keys) and keys[slot] == key
        if present:
            end = starts[slot + 1]
            self.manifest[at : at + width] = manifest_piece
        else:
            end = start
            keys.insert(slot, key)
            starts.insert(slot, start)
            self.manifest[at:at] = manifest_piece
            self.header = self._frame(len(keys))
        self[start:end] = blob_piece
        if present and end - start == len(blob_piece):
            self._rewritten[start] = blob_piece
        else:
            self._moved_from(slot + 1, start, len(blob_piece) - (end - start))

    def discard(self, key: bytes) -> None:
        keys = self.keys
        slot = bisect_left(keys, key)
        if slot < len(keys) and keys[slot] == key:
            start, end = self.starts[slot], self.starts[slot + 1]
            at = slot * self._width
            del self[start:end], self.manifest[at : at + self._width]
            del keys[slot], self.starts[slot]
            self.header = self._frame(len(keys))
            self._moved_from(slot, start, start - end)


def _hash_sections(header: bytes, framed_hashes: bytes) -> bytes:
    """Framed SHA-256 over the serde bytes of the ordered list of section
    hashes (its list ``header``, then one framed hash per section): the
    one manifest input that binds every section and their order, and
    that only a seal which changed a section recomputes."""
    digest = _sha256(header)
    digest.update(framed_hashes)
    return _frame_bytes(digest.digest())


def _manifest(
    framed_static_hash: bytes,
    framed_sections_hash: bytes,
    rows_header: bytes,
    row_hashes: bytes,
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
            row_hashes,
        ]
    )


class SealedState:
    """The sealed blob of one context: the keys and quorum it holds,
    ``s`` and ``V``.

    The context reports what changed — :meth:`rotate` for kC,
    :attr:`dirty_rows` / :meth:`put_rows` / :meth:`put_row` /
    :meth:`discard_row` for V's rows — and at each store calls
    :meth:`seal` with the service state and V, then :meth:`delta` for
    what the host stores.  :meth:`blob` is the whole blob joined from the
    pieces, the reference a delta must reproduce.  A new ``kP`` (provision,
    migration import, restore) is a new instance, whose first store is
    the whole blob.
    """

    def __init__(
        self,
        sealing_key: AeadKey,
        kp: bytes,
        kc: bytes,
        ka: bytes,
        quorum: int | None,
        next_nonce: Callable[[], bytes | None],
        *,
        audit: bool = False,
    ) -> None:
        self.state_key = AeadKey(kp, label="kP")
        self.communication_key = AeadKey(kc, label="kC")
        self.admin_key = AeadKey(ka, label="kA")     # admin channel
        self.quorum = quorum if quorum else None     # None: majority
        self._sealing_key = sealing_key              # kS
        self._next_nonce = next_nonce
        self._audit = audit
        # the kP-under-kS and static config boxes, framed as stored
        self._key_blob: bytes | None = None
        self._static_blob: bytes | None = None
        self._static_blob_hash: bytes | None = None  # framed, manifest input
        # The sections are current for _sealed_state, the exact object they
        # were last diffed against ({} = nothing sealed yet).  An entry
        # keeps its section when its value is the same object — safe
        # because Functionality.apply must not mutate state in place — or
        # a str or bytes of the sealed value's exact type and equal to it:
        # either way it encodes to the plaintext the section was sealed
        # from.  Any other new value object is resealed.
        self._sections = _PieceTable(_list_header, _SECTION_WIDTH)
        self._sealed_state: Any = {}
        self._sections_hash: bytes | None = None  # framed, manifest input
        # audit mode only: key -> the encoded value its section holds,
        # and -> the value object itself where that is an immutable scalar
        self._sealed_values: dict[Any, bytes] = {}
        self._sealed_scalars: dict[Any, Any] = {}
        self._rows = _PieceTable(_dict_header, _ROW_WIDTH)
        #: rows that need a synthesized REPLY box before the next store;
        #: the invoke path feeds the table the real ones
        self.dirty_rows: set[int] = set()
        self._tag = b""
        # the pieces of the blob stored last (tables as themselves, which
        # track their own changes) and its length: the base of the next
        # store's delta (None: the next store is a whole blob)
        self._stored: list | None = None
        self._stored_length = 0

    # ---------------------------------------------------------- what changed

    def rotate(self, kc: bytes) -> None:
        """Adopt a new kC; the static box is resealed at the next seal,
        and so must every row be (:attr:`dirty_rows`)."""
        self.communication_key = AeadKey(kc, label="kC")
        self._static_blob = None

    def put_rows(self, pending: dict[int, tuple[int, bytes]]) -> None:
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
        put = self._rows.put
        for enc_id, blob_piece, digest in zip(
            enc_ids, blobs, secure_hash_many(record_views)
        ):
            put(enc_id, blob_piece, enc_id + _HASH_FRAME + digest)
        self.dirty_rows.difference_update(pending)

    def put_row(self, client_id: int, blob_piece: bytes, manifest_piece: bytes) -> None:
        """Adopt one row's pieces as the compiled reply pass built them
        (a manifest piece opens with the 17-byte encoded id)."""
        self._rows.put(manifest_piece[:17], blob_piece, manifest_piece)
        self.dirty_rows.discard(client_id)

    def discard_row(self, client_id: int) -> None:
        self._rows.discard(serde.encode(client_id))
        self.dirty_rows.discard(client_id)

    # --------------------------------------------------------------- sealing

    def _refresh_sections(self, state: Any) -> None:
        """Bring the state sections up to date with ``state``: reseal
        exactly the top-level entries whose value changed since the last
        seal (see ``_sections`` for what counts as unchanged) and drop
        those that left.  Outside audit mode the caller skips the call
        when the state object did not change."""
        audit = self._audit
        entries = _entries(state)
        sealed_values = self._sealed_values
        sealed_scalars = self._sealed_scalars
        if state is not self._sealed_state:
            sections = self._sections
            sealed = _entries(self._sealed_state)
            sealed_get = sealed.get
            dirty = []
            for key in [
                key
                for key, value in entries.items()
                if sealed_get(key, _ABSENT) is not value
            ]:
                value, old = entries[key], sealed_get(key)
                if (
                    type(value) in _KEPT_WHEN_EQUAL
                    and type(old) is type(value)
                    and old == value
                ):
                    if audit:  # exempt from the in-place check below
                        sealed_scalars[key] = value
                else:
                    dirty.append(key)
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
            kp = self.state_key
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

    def seal(self, state: Any, rows: PackedRows) -> None:
        """Reseal the pieces that changed since the last seal — the
        sections of ``state``'s changed entries and the rows in
        :attr:`dirty_rows` — and the manifest tag; reuse the cached
        static config and kP-under-kS boxes unless they were dropped."""
        if self._key_blob is None:
            self._key_blob = _frame_bytes(
                auth_encrypt(
                    self.state_key.material,
                    self._sealing_key,
                    associated_data=_KEY_BLOB_AD,
                    nonce=self._next_nonce(),
                )
            )
        if self._static_blob is None:
            static_plain = serde.encode(
                [
                    self.communication_key.material,
                    self.admin_key.material,
                    self.quorum or 0,
                ]
            )
            box = auth_encrypt(
                static_plain,
                self.state_key,
                associated_data=_STATIC_BLOB_AD,
                nonce=self._next_nonce(),
            )
            self._static_blob = _frame_bytes(box)
            self._static_blob_hash = _frame_bytes(_sha256(box).digest())
        if state is not self._sealed_state or self._audit:
            self._refresh_sections(state)
        if self.dirty_rows:
            # rows dirtied outside the invoke path (provision, membership
            # change, kC rotation, migration import) get a synthesized
            # REPLY box; its empty previous-chain echo means no client
            # ever accepts it as a live reply
            kc = self.communication_key
            pending = {}
            for client_id in sorted(self.dirty_rows):
                entry = rows.entry(client_id)
                box = ReplyPayload(
                    sequence=entry.last_sequence,
                    chain=entry.last_chain,
                    result=entry.last_result,
                    stable_sequence=0,
                    previous_chain=b"",
                ).seal(kc, nonce=self._next_nonce())
                pending[client_id] = (entry.acknowledged, box)
            self.put_rows(pending)  # clears their dirty marks
        sections, table = self._sections, self._rows
        if self._sections_hash is None:
            self._sections_hash = _hash_sections(sections.header, sections.manifest)
        # both tables are in canonical order already: the seal patched
        # only the changed slots, so nothing is re-sorted here and no
        # member is visited
        manifest = _manifest(
            self._static_blob_hash, self._sections_hash, table.header, table.manifest
        )
        self._tag = _frame_bytes(
            mac_tag(manifest, self.state_key, associated_data=_MANIFEST_AD)
        )

    def _pieces(self) -> list:
        """The sealed blob as its pieces, in order."""
        sections, rows = self._sections, self._rows
        dynamic = [
            _THREE_LIST_HEADER,
            sections.header,
            sections,
            rows.header,
            rows,
            self._tag,
        ]
        return [
            _THREE_LIST_HEADER,
            self._key_blob,
            self._static_blob,
            _bytes_header(sum(map(len, dynamic))),
            *dynamic,
        ]

    def blob(self) -> bytes:
        """The whole blob as last sealed or restored, joined from its
        pieces.  Leaves the record of what changed since the last store
        alone, so the next :meth:`delta` still covers it."""
        return b"".join(self._pieces())

    def delta(self) -> bytes | tuple[int, int, list[tuple[int, bytes]]]:
        """What the host stores for the blob as last sealed: the delta
        ``(base_length, length, runs)`` against the blob this sealed
        state stored last (:mod:`repro.server.storage`), or the whole
        blob if it has stored none.

        A table's runs are the pieces it rewrote at equal length and,
        from the first offset whose bytes moved, its tail; any other
        piece is a run if its bytes changed.  The first length change
        moves every byte after it, so the last run goes from there to the
        end.  A run is an immutable piece itself, or a copy out of a
        table's buffer, never a view of it.
        """
        pieces = self._pieces()
        changes = [
            piece.take_changes() if type(piece) is _PieceTable else None
            for piece in pieces
        ]
        stored, base_length = self._stored, self._stored_length
        self._stored, self._stored_length = pieces, sum(map(len, pieces))
        if stored is None:
            return b"".join(pieces)
        runs: list[tuple[int, bytes]] = []
        at = 0
        for index, (piece, old, change) in enumerate(zip(pieces, stored, changes)):
            if change is None:  # a piece: a run if its bytes changed
                if piece is not old and piece != old:
                    if len(piece) != len(old):
                        runs.append((at, b"".join(pieces[index:])))
                        break
                    runs.append((at, piece))
                at += len(piece)
                continue
            rewritten, moved, base = change
            if rewritten:
                runs.extend(
                    (at + start, data)
                    for start, data in sorted(rewritten.items())
                    if moved is None or start < moved
                )
            if moved is not None:
                tail = memoryview(piece)[moved:]
                if len(piece) != base:
                    # a length changed here: every byte after it moved
                    runs.append((at + moved, b"".join([tail, *pieces[index + 1 :]])))
                    break
                runs.append((at + moved, bytes(tail)))
            at += len(piece)
        return base_length, self._stored_length, runs

    # --------------------------------------------------------------- restore

    @classmethod
    def restore(
        cls,
        blob: bytes,
        sealing_key: AeadKey,
        next_nonce: Callable[[], bytes | None],
        *,
        audit: bool = False,
    ) -> tuple[SealedState, Any, dict[int, ClientEntry]]:
        """Unseal a stored blob (possibly rolled back by the host — LCM
        detects that later, through client verification).

        Returns the sealed state that adopted the blob's keys and pieces,
        the service state ``s`` and V's entries.  Anything the host made
        up, spliced or tampered with raises
        :class:`~repro.errors.AuthenticationFailure`.
        """
        try:
            parts = serde.decode(blob)
            if type(parts) is not list or len(parts) != 3 or not all(
                type(part) is bytes for part in parts
            ):
                raise TypeError("not a [key, static, dynamic] layout")
        except Exception as exc:  # malformed outer framing
            raise AuthenticationFailure(f"stored blob malformed: {exc}") from exc
        blob_key, blob_static, blob_dynamic = parts
        kp = auth_decrypt(blob_key, sealing_key, associated_data=_KEY_BLOB_AD)
        static_plain = auth_decrypt(
            blob_static, AeadKey(kp), associated_data=_STATIC_BLOB_AD
        )
        sealed = cls(
            sealing_key, kp, *serde.decode(static_plain), next_nonce, audit=audit
        )
        state_key = sealed.state_key
        static_hash = _frame_bytes(_sha256(blob_static).digest())
        try:
            section_boxes, row_boxes, tag = serde.decode(blob_dynamic)
            if type(section_boxes) is not list or type(row_boxes) is not dict:
                raise TypeError("not a [sections, rows, tag] layout")
            section_hashes = [
                _HASH_FRAME + _sha256(box).digest() for box in section_boxes
            ]
            sections_hash = _hash_sections(
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
            manifest = _manifest(
                static_hash,
                sections_hash,
                _dict_header(len(row_hashes)),
                b"".join(row_hashes),
            )
        except Exception as exc:  # malformed (or pre-section) dynamic framing
            raise AuthenticationFailure(
                f"stored dynamic section malformed: {exc}"
            ) from exc
        if not isinstance(tag, bytes) or not verify_mac_tag(
            tag, manifest, state_key, associated_data=_MANIFEST_AD
        ):
            raise AuthenticationFailure(
                "sealed state manifest MAC mismatch "
                "(sections were spliced or tampered)"
            )
        # manifest verified above: the stream-encrypted state sections and
        # the per-row REPLY boxes are authentic, so unseal and adopt them
        plains = [stream_decrypt(box, state_key) for box in section_boxes]
        if len(plains) == 1 and plains[0].startswith(_WHOLE_STATE_KEY):
            state = serde.decode(plains[0][len(_WHOLE_STATE_KEY) :])
        else:
            # ``enc(key) || enc(value)`` runs in canonical order are the
            # body of the state dict's own encoding
            state = serde.decode(b"".join([_dict_header(len(plains)), *plains]))
        keys = sorted(map(_encode_key, _entries(state)))
        if len(keys) != len(plains) or not all(map(bytes.startswith, plains, keys)):
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
            reply = ReplyPayload.unseal(reply_box, sealed.communication_key)
            entries[client_id] = ClientEntry(
                acknowledged=acknowledged,
                last_sequence=reply.sequence,
                last_chain=reply.chain,
                last_result=reply.result,
            )
        # The unsealed pieces are exactly what the next seal would produce
        # — adopt them so the first post-restore store reuses them verbatim.
        sealed._key_blob = _frame_bytes(blob_key)
        sealed._static_blob = _frame_bytes(blob_static)
        sealed._static_blob_hash = static_hash
        sealed._tag = _frame_bytes(tag)
        for key, box, piece in zip(keys, section_boxes, section_hashes):
            sealed._sections.put(key, _frame_bytes(box), piece)
        sealed._sealed_state = state
        sealed._sections_hash = sections_hash
        if audit:
            sealed._sealed_values = {
                key: serde.encode(value) for key, value in _entries(state).items()
            }
            sealed._sealed_scalars = {
                key: value
                for key, value in _entries(state).items()
                if type(value) in _IMMUTABLE_SCALARS
            }
        for (enc_id, _, record), piece in zip(rows, row_hashes):
            sealed._rows.put(enc_id, enc_id + _frame_bytes(record), piece)
        return sealed, state, entries
