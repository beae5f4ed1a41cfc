"""The split sealed-blob layout: restore, tamper evidence, splice evidence.

The stored blob is ``serde([key_blob, static_blob, dynamic_blob])`` with
the dynamic layer sealed incrementally — one stream-encrypted section per
top-level entry of the service state, one record per V row, bound by one
manifest tag (see the :mod:`repro.core.sealed_state` module docstring).
These tests prove the format keeps the paper's guarantees: a context restores
faithfully across epoch restarts, key rotation and migration, a write
reseals only what it dirtied, and any bit of tampering — including
splicing, reordering, dropping or duplicating *authentic* pieces from
different versions — is detected at restore time.
"""

import pytest

from repro import serde
from repro.crypto.aead import NONCE_SIZE, AeadKey, NonceSequence
from repro.crypto.attestation import EpidGroup
from repro.core import Admin, make_lcm_program_factory, migrate
from repro.core.sealed_state import SealedState
from repro.core.stability import PackedRows
from repro.errors import AuthenticationFailure
from repro.kvstore import CounterFunctionality, KvsFunctionality, delete, get, put
from repro.kvstore.functionality import txn_commit, txn_prepare
from repro.server import ServerHost
from repro.tee import TeePlatform

from tests.conftest import build_deployment


def _sections(blob: bytes):
    """Decode a stored blob into (key_blob, static_blob, dynamic_blob)."""
    return serde.decode(blob)


def _dynamic_sections(dynamic_blob: bytes):
    """Decode a dynamic layer into (state_sections, row_records,
    manifest_tag); the state sections are a list of boxes in canonical
    key order."""
    return serde.decode(dynamic_blob)


def _stored_dynamic(storage, index: int = -1):
    """The decoded dynamic layer of one stored version (default: latest)."""
    if index < 0:
        index += storage.version_count()
    return _dynamic_sections(_sections(storage.load_version(index))[2])


def _with_dynamic(blob: bytes, state_sections, rows, tag) -> bytes:
    """``blob`` with its dynamic layer replaced by the given pieces."""
    key_blob, static_blob, _ = _sections(blob)
    return serde.encode(
        [key_blob, static_blob, serde.encode([state_sections, rows, tag])]
    )


def _service_state(host):
    return host.enclave._program._state


class TestRestoreAcrossEpochs:
    def test_full_state_and_entries_survive_restart(self):
        host, _, (alice, bob, carol) = build_deployment()
        alice.invoke(put("a", "1"))
        bob.invoke(put("b", "2"))
        carol.invoke(delete("a"))
        host.reboot()
        assert alice.invoke(get("b")).result == "2"
        assert bob.invoke(get("a")).result is None
        assert carol.invoke(get("b")).sequence == 6

    def test_restart_after_restart(self):
        """The restore path adopts the unsealed sections verbatim; a second
        restart must restore from a blob built out of those adopted caches."""
        host, _, (alice, *_) = build_deployment()
        alice.invoke(put("k", "v1"))
        host.reboot()
        alice.invoke(put("k", "v2"))
        host.reboot()
        assert alice.invoke(get("k")).result == "v2"

    def test_static_sections_are_reused_between_versions(self):
        """Consecutive versions share the key and static-config boxes
        byte-for-byte — the point of the static/dynamic split — which the
        delta-compressed storage turns into physical savings."""
        host, _, (alice, *_) = build_deployment()
        for i in range(8):
            alice.invoke(put("k", f"v{i}"))
        storage = host.storage
        first = _sections(storage.load_version(storage.version_count() - 2))
        second = _sections(storage.load_version(storage.version_count() - 1))
        assert first[0] == second[0]  # key blob identical
        assert first[1] == second[1]  # static config box identical
        assert first[2] != second[2]  # dynamic layer resealed
        assert storage.physical_bytes() < storage.total_bytes()

    def test_unchanged_state_section_is_reused_for_reads(self):
        """A read-only operation reseals its V row but no state section."""
        host, _, (alice, *_) = build_deployment()
        for key in ("a", "b", "c"):
            alice.invoke(put(key, "v"))
        alice.invoke(get("b"))
        alice.invoke(get("missing"))
        prev = _stored_dynamic(host.storage, -2)
        last = _stored_dynamic(host.storage, -1)
        assert len(last[0]) == 3
        assert prev[0] == last[0]  # every section box reused byte-for-byte
        assert prev[1] != last[1]  # the reader's row changed
        assert prev[2] != last[2]  # manifest tag follows the row

    def test_one_put_reseals_exactly_one_section(self):
        """Between consecutive versions a PUT changes one state section,
        the writer's V row and the manifest tag — nothing else."""
        host, _, (alice, bob, _) = build_deployment()
        for key in ("a", "b", "c", "d"):
            alice.invoke(put(key, "v"))
        bob.invoke(put("c", "w"))
        prev_sections, prev_rows, prev_tag = _stored_dynamic(host.storage, -2)
        sections, rows, tag = _stored_dynamic(host.storage, -1)
        changed = [
            slot for slot in range(4) if prev_sections[slot] != sections[slot]
        ]
        assert changed == [2]  # "c": third in canonical key order
        assert [cid for cid in rows if rows[cid] != prev_rows[cid]] == [
            bob.client_id
        ]
        assert tag != prev_tag

    def test_resealed_sections_never_reuse_a_nonce(self):
        """Every distinct section box ever stored carries its own nonce:
        no (key, nonce) pair covers two plaintexts."""
        host, _, (alice, bob, _) = build_deployment()
        for round_ in range(6):
            alice.invoke(put("hot", f"v{round_}"))
            bob.invoke(put(f"k{round_ % 2}", f"w{round_}"))
            alice.invoke(delete("k0"))
        boxes = set()
        for index in range(host.storage.version_count()):
            boxes.update(_stored_dynamic(host.storage, index)[0])
        nonces = {box[:NONCE_SIZE] for box in boxes}
        assert len(nonces) == len(boxes) == 12  # one per PUT, none per DEL

    def test_restore_after_membership_change_and_kc_rotation(self):
        """kC rotation forces every stored row to reseal under the new key;
        a restart afterwards must still restore the whole V."""
        from repro.core.membership import remove_client

        host, deployment, (alice, bob, carol) = build_deployment()
        alice.invoke(put("k", "v"))
        remove_client(deployment, host, carol.client_id)
        bob.invoke(put("k2", "w"))
        host.reboot()
        assert alice.invoke(get("k2")).result == "w"
        assert bob.invoke(get("k")).result == "v"


class TestRestoreRoundTrips:
    """Restored state equals the live state for every shape the service
    state takes."""

    def _assert_round_trip(self, host):
        before = _service_state(host)
        host.reboot()
        after = _service_state(host)
        assert after == before
        assert serde.encode(after) == serde.encode(before)

    def test_empty_state(self):
        host, _, (alice, *_) = build_deployment()
        assert _stored_dynamic(host.storage)[0] == []  # no entries, no sections
        self._assert_round_trip(host)
        assert alice.invoke(get("k")).result is None

    def test_after_delete(self):
        host, _, (alice, *_) = build_deployment()
        for key in ("a", "b", "c"):
            alice.invoke(put(key, "v"))
        alice.invoke(delete("b"))
        assert len(_stored_dynamic(host.storage)[0]) == 2
        self._assert_round_trip(host)
        assert alice.invoke(get("b")).result is None
        assert alice.invoke(get("c")).result == "v"

    def test_with_transaction_bookkeeping_present(self):
        """The reserved ``__LCM_TXN_*`` entries (nested dicts and lists)
        are top-level entries like any other."""
        host, _, (alice, bob, _) = build_deployment()
        alice.invoke(put("a", "1"))
        alice.invoke(txn_prepare("t1", [put("a", "2"), get("b")]))
        state = _service_state(host)
        assert any(str(key).startswith("__LCM_TXN_") for key in state)
        self._assert_round_trip(host)
        # the restored lock table still guards the key, and the decision
        # still finds its prepare
        assert bob.invoke(get("a")).result[0] == "__LCM_TXN_LOCKED__"
        alice.invoke(txn_commit("t1"))
        self._assert_round_trip(host)
        assert bob.invoke(get("a")).result == "2"

    def test_after_handoff_export_and_import(self):
        from repro.core.migration import migrate_keys
        from repro.crypto.hashing import RING_SPAN

        group = EpidGroup()
        host_a, _, (alice, *_) = build_deployment(
            epid_group=group, platform=TeePlatform(group, seed=91)
        )
        host_b, _, (bella, *_) = build_deployment(
            epid_group=group, platform=TeePlatform(group, seed=92)
        )
        for i in range(24):
            alice.invoke(put(f"user{i:04d}", f"v{i}"))
        bella.invoke(put("resident", "r"))
        moved = migrate_keys(
            host_a, host_b, group.verifier(), [[0, RING_SPAN // 2]]
        )
        assert 0 < moved < 24
        assert len(_stored_dynamic(host_a.storage)[0]) == 24 - moved
        assert len(_stored_dynamic(host_b.storage)[0]) == 1 + moved
        self._assert_round_trip(host_a)
        self._assert_round_trip(host_b)

    def test_counter_state_is_one_section(self):
        """A state that is not a dict is sealed whole, as a single section
        through the same code path."""
        host, _, (alice, *_) = build_deployment(functionality=CounterFunctionality)
        assert len(_stored_dynamic(host.storage)[0]) == 1
        alice.invoke(("ADD", 41))
        alice.invoke(("INC",))
        before = _stored_dynamic(host.storage)
        alice.invoke(("READ",))
        after = _stored_dynamic(host.storage)
        assert len(after[0]) == 1 and before[0] == after[0]  # read: reused
        self._assert_round_trip(host)
        assert alice.invoke(("READ",)).result == 42

    def test_bool_and_int_keys_do_not_alias(self):
        """``1`` and ``True`` are one dict key but two encodings; value
        identity cannot tell them apart, so the seal must not keep the
        section of the one after the state switched to the other."""
        value = "same object throughout"
        states = [{}, {1: value, "k": "v"}, {True: value, "k": "v"}, {1: value}]

        class Scripted:
            def initial_state(self):
                return states[0]

            def apply(self, state, operation):
                return None, states[operation[1]]

        for steps in ((1, 2), (1, 2, 3), (1, 2, 3, 2)):
            host, _, (alice, *_) = build_deployment(
                functionality=Scripted, audit=True
            )
            for step in steps:  # no restart in between: identities persist
                alice.invoke(("STEP", step))
            assert len(_stored_dynamic(host.storage)[0]) == len(states[steps[-1]])
            live = serde.encode(_service_state(host))
            host.reboot()
            assert serde.encode(_service_state(host)) == live


class TestTamperEvidence:
    def test_any_flipped_byte_is_rejected_at_restore(self):
        """Sample byte positions across the whole blob (key blob, static
        blob, state sections and their framing, row records including the
        plaintext acknowledged markers, manifest tag): every flip must
        fail authentication."""
        host, _, (alice, *_) = build_deployment()
        alice.invoke(put("k", "v" * 50))
        alice.invoke(put("k2", "w" * 30))
        alice.invoke(get("k"))
        good = host.storage.load()
        for offset in range(0, len(good), 23):
            tampered = bytearray(good)
            tampered[offset] ^= 0x01
            host.storage.store(bytes(tampered))
            with pytest.raises(AuthenticationFailure):
                host.reboot()
            host.storage.store(good)  # make the good blob current again
            host.reboot()

    def test_truncated_dynamic_section_rejected(self):
        host, _, (alice, *_) = build_deployment()
        alice.invoke(put("k", "v"))
        key_blob, static_blob, dynamic_blob = _sections(host.storage.load())
        host.storage.store(
            serde.encode([key_blob, static_blob, dynamic_blob[:-20]])
        )
        with pytest.raises(AuthenticationFailure):
            host.reboot()

    def test_old_layout_and_malformed_dynamic_blobs_rejected(self):
        """A dynamic layer of any other shape — the former single state
        box included — is an authentication failure, never an unhandled
        decode error."""
        host, _, (alice, *_) = build_deployment()
        alice.invoke(put("k", "v"))
        good = host.storage.load()
        sections, rows, tag = _stored_dynamic(host.storage)
        key_blob, static_blob, _ = _sections(good)
        malformed = [
            serde.encode([b"".join(sections), rows, tag]),  # one state box
            serde.encode([sections, list(rows.values()), tag]),
            serde.encode([[1, 2], rows, tag]),
            serde.encode([[sections], rows, tag]),
            serde.encode([sections, {cid: 7 for cid in rows}, tag]),
            serde.encode([sections, rows, "tag"]),
            serde.encode([sections, rows]),
            serde.encode({"sections": sections}),
            b"not serde at all",
            b"",
        ]
        for dynamic_blob in malformed:
            host.storage.store(serde.encode([key_blob, static_blob, dynamic_blob]))
            with pytest.raises(AuthenticationFailure):
                host.reboot()
        host.storage.store(good)
        host.reboot()
        assert alice.invoke(get("k")).result == "v"


    def test_ill_typed_outer_layout_rejected(self):
        """A blob that decodes, but not to three byte strings, comes from
        the untrusted host like any other malformed layout: an
        authentication failure, never a raw type error."""
        host, _, (alice, *_) = build_deployment()
        alice.invoke(put("k", "v"))
        good = host.storage.load()
        key_blob, static_blob, dynamic_blob = _sections(good)
        for layout in (
            [1, 2, 3],
            [key_blob, 2, dynamic_blob],
            [key_blob, static_blob, 3],
            [key_blob, [static_blob], dynamic_blob],
            [key_blob, static_blob],
        ):
            host.storage.store(serde.encode(layout))
            with pytest.raises(AuthenticationFailure):
                host.reboot()
        host.storage.store(good)
        host.reboot()
        assert alice.invoke(get("k")).result == "v"


class TestSpliceEvidence:
    """Mix-and-match of *authentic* pieces from different versions —
    the attack the manifest tag exists to stop."""

    def _two_versions(self):
        host, _, (alice, *_) = build_deployment()
        for key in ("a", "b", "c"):
            alice.invoke(put(key, "old"))
        alice.invoke(get("b"))
        earlier = host.storage.load()
        alice.invoke(put("b", "new"))
        alice.invoke(get("b"))
        later = host.storage.load()
        return host, earlier, later

    def _assert_rejected(self, host, blob):
        host.storage.store(blob)
        with pytest.raises(AuthenticationFailure, match="manifest"):
            host.reboot()

    def test_spliced_state_section_rejected(self):
        """Service state from version N, V rows from version M: the
        classic stale-read rollback a monolithic seal would also stop."""
        host, earlier, later = self._two_versions()
        old_sections = _dynamic_sections(_sections(earlier)[2])[0]
        _, rows, tag = _dynamic_sections(_sections(later)[2])
        self._assert_rejected(host, _with_dynamic(later, old_sections, rows, tag))

    def test_one_stale_section_rejected(self):
        """One key's own older (authentic) section spliced into a newer
        version — per-key rollback must be as detectable as whole-blob
        rollback."""
        host, earlier, later = self._two_versions()
        old_sections = _dynamic_sections(_sections(earlier)[2])[0]
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        assert old_sections[1] != sections[1]  # "b" was rewritten
        spliced = [sections[0], old_sections[1], sections[2]]
        self._assert_rejected(host, _with_dynamic(later, spliced, rows, tag))

    def test_swapped_sections_rejected(self):
        host, _earlier, later = self._two_versions()
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        swapped = [sections[1], sections[0], sections[2]]
        self._assert_rejected(host, _with_dynamic(later, swapped, rows, tag))

    def test_dropped_section_rejected(self):
        host, _earlier, later = self._two_versions()
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        for victim in range(3):
            kept = sections[:victim] + sections[victim + 1 :]
            self._assert_rejected(host, _with_dynamic(later, kept, rows, tag))

    def test_duplicated_section_rejected(self):
        host, _earlier, later = self._two_versions()
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        self._assert_rejected(
            host, _with_dynamic(later, sections + sections[-1:], rows, tag)
        )
        self._assert_rejected(
            host,
            _with_dynamic(later, [sections[0], sections[0], sections[2]], rows, tag),
        )

    def test_truncated_section_list_rejected(self):
        host, _earlier, later = self._two_versions()
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        for length in range(3):
            self._assert_rejected(
                host, _with_dynamic(later, sections[:length], rows, tag)
            )

    def test_spliced_row_record_rejected(self):
        """One client's stored row replaced by its own older (authentic)
        record — per-row rollback must be as detectable as whole-blob
        rollback."""
        host, earlier, later = self._two_versions()
        old_rows = _dynamic_sections(_sections(earlier)[2])[1]
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        victim = next(cid for cid in rows if rows[cid] != old_rows[cid])
        spliced_rows = dict(rows)
        spliced_rows[victim] = old_rows[victim]
        self._assert_rejected(
            host, _with_dynamic(later, sections, spliced_rows, tag)
        )

    def test_spliced_static_section_rejected(self):
        """A retired static config (pre-kC-rotation) paired with a newer
        dynamic layer must fail the manifest, not just the row unsealing —
        even a rowless group would otherwise silently revive the old kC."""
        from repro.core.membership import remove_client

        host, deployment, (alice, _bob, carol) = build_deployment()
        alice.invoke(put("k", "v"))
        before_rotation = host.storage.load()
        remove_client(deployment, host, carol.client_id)
        alice.invoke(put("k", "w"))
        after_rotation = host.storage.load()
        key_blob, _old_static, _ = _sections(before_rotation)
        _, _new_static, dyn = _sections(after_rotation)
        self._assert_rejected(host, serde.encode([key_blob, _old_static, dyn]))

    def test_dropped_row_rejected(self):
        host, _earlier, later = self._two_versions()
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        shrunk = dict(rows)
        shrunk.pop(next(iter(shrunk)))
        self._assert_rejected(host, _with_dynamic(later, sections, shrunk, tag))

    def test_the_authentic_blob_still_restores(self):
        """The rejections above are the manifest's doing, not the
        harness's: the untouched pieces reassemble into a blob that
        restores."""
        host, _earlier, later = self._two_versions()
        sections, rows, tag = _dynamic_sections(_sections(later)[2])
        host.storage.store(_with_dynamic(later, sections, rows, tag))
        host.reboot()
        assert _service_state(host) == {"a": "old", "b": "new", "c": "old"}


class TestReorderedRows:
    def test_host_reordered_rows_do_not_poison_future_seals(self):
        """The manifest check is order-independent (both sides sort), so a
        host may present the authentic row records in any dict order.  The
        restore must re-canonicalize rather than adopt that order —
        otherwise its own next seal emits rows and manifest out of sync and
        the context can never restore its own blob again."""
        host, _, (alice, bob, _) = build_deployment()
        alice.invoke(put("k", "v"))
        bob.invoke(get("k"))
        key_blob, static_blob, dyn = _sections(host.storage.load())
        state_sections, rows, tag = _dynamic_sections(dyn)
        # hand-assemble the dynamic section with the row records in reverse
        # canonical order (serde.encode would re-sort a dict)
        buf = bytearray()
        serde.encode_list_header(buf, 3)
        buf += serde.encode(state_sections)
        serde.encode_dict_header(buf, len(rows))
        for enc_id, client_id in sorted(
            ((serde.encode(cid), cid) for cid in rows), reverse=True
        ):
            buf += enc_id
            buf += serde.encode(rows[client_id])
        buf += serde.encode(tag)
        host.storage.store(serde.encode([key_blob, static_blob, bytes(buf)]))
        host.reboot()  # authentic content: restore succeeds
        alice.invoke(put("k", "w"))  # reseal from the adopted sections
        host.reboot()  # the context's own blob must restore
        assert alice.invoke(get("k")).result == "w"


class TestStoreDeltas:
    def test_first_store_after_a_reboot_is_whole_then_deltas_of_bytes(self):
        """After a start a context does not know which version storage
        holds newest, so its first store is the whole blob; every later
        one is a delta whose runs are ``bytes``, never views of the
        context's buffers."""
        host, _, (alice, *_) = build_deployment()
        storage = host.storage
        stored = []
        store = storage.store

        def capture(blob):
            stored.append(blob)
            return store(blob)

        storage.store = capture
        alice.invoke(put("k", "v" * 50))
        alice.invoke(put("k", "w" * 80))
        host.reboot()
        alice.invoke(get("k"))
        alice.invoke(put("k2", "x"))
        assert [type(blob) for blob in stored] == [tuple, tuple, bytes, tuple]
        for _, _, runs in (stored[0], stored[1], stored[3]):
            assert runs and all(type(data) is bytes for _, data in runs)
        host.reboot()
        assert alice.invoke(get("k")).result == "w" * 80


def _resealed_runs(old, new, *, audit=False, later_seals=0):
    """The store delta's runs after an entry's value goes from ``old`` to
    ``new``, sealed straight through :class:`SealedState` with no V rows;
    ``later_seals`` more seals of the new state follow."""
    sealed = SealedState(
        AeadKey(bytes(16)), bytes(range(16)), bytes(16), bytes(16), None,
        NonceSequence(bytes(32)).next, audit=audit,
    )
    rows = PackedRows()
    sealed.seal({"k": old, "other": "x"}, rows)
    sealed.delta()  # the whole first blob
    state = {"k": new, "other": "x"}
    sealed.seal(state, rows)
    _, _, runs = sealed.delta()
    for _ in range(later_seals):
        sealed.seal(state, rows)
    return runs, sealed


class TestEqualValueReseal:
    """An entry replaced by a value of the same exact type (``str`` or
    ``bytes``) and equal to it keeps its section; anything else is
    resealed."""

    @pytest.mark.parametrize(
        "old, new",
        [
            ("value", "".join(["va", "lue"])),
            (b"value", bytes(bytearray(b"value"))),
        ],
        ids=["str", "bytes"],
    )
    def test_an_equal_distinct_object_adds_nothing_to_the_delta(self, old, new):
        assert new is not old and new == old
        runs, _ = _resealed_runs(old, new)
        assert runs == []

    @pytest.mark.parametrize(
        "old, new",
        [(1, True), ("v", b"v"), ("abcd", "abce"), (b"abcd", b"abce")],
        ids=["int-to-bool", "str-to-bytes", "unequal-str", "unequal-bytes"],
    )
    def test_another_type_or_value_reseals_the_entry(self, old, new):
        runs, _ = _resealed_runs(old, new)
        assert runs

    def test_a_kept_entry_passes_the_audit_checks_of_later_seals(self):
        old, new = "value", "".join(["va", "lue"])
        runs, sealed = _resealed_runs(old, new, audit=True, later_seals=3)
        assert runs == []
        # refreshed, so later seals do not re-encode the entry
        assert sealed._sealed_scalars["k"] is new


class TestRestoreAcrossMigration:
    def test_target_restores_from_its_own_sealed_blob(self):
        """After a migration the target seals in the new format under its
        own platform keys; a target restart must restore faithfully."""
        group = EpidGroup()
        factory = make_lcm_program_factory(KvsFunctionality)
        origin = ServerHost(TeePlatform(group), factory)
        target = ServerHost(TeePlatform(group), factory)
        admin = Admin(
            group.verifier(), TeePlatform.expected_measurement(factory)
        )
        deployment = admin.bootstrap(origin, client_ids=[1, 2])
        alice, bob = deployment.make_all_clients(origin)
        alice.invoke(put("k", "v"))
        bob.invoke(put("k2", "w"))
        migrate(origin, target, group.verifier())
        alice._transport = target
        bob._transport = target
        alice.invoke(put("k3", "x"))
        target.reboot()
        assert bob.invoke(get("k")).result == "v"
        assert alice.invoke(get("k3")).result == "x"
        assert alice.last_sequence == 5
