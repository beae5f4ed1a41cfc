"""Property-based tests on the per-entry sealed service state.

Random GET / PUT / DEL / transaction-prepare / decide sequences with epoch
restarts and storage rollbacks at random points: whatever path the
incremental seal took to the stored blob — sections patched, inserted,
dropped, adopted from a restore and patched again — the blob must restore
to exactly the state a model of ``F`` reached, and to the same state and
``V`` as a blob sealed from scratch.  Every store hands storage a delta
against the blob its context stored last (a whole blob after a start or
a restore), and the version it leaves must be byte for byte the whole
blob joined from the context's pieces.  Underneath, the one piece table
both the state sections and the V rows live in records its changes so
that applying them to its previous buffer gives the new one.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import serde
from repro.core.sealed_state import SealedState, _PieceTable, _list_header
from repro.kvstore import KvsFunctionality, delete, get, put
from repro.kvstore.functionality import txn_abort, txn_commit, txn_prepare

from tests.conftest import build_deployment

REBOOT = "reboot"
ROLLBACK = "rollback"

keys = st.sampled_from(["a", "b", "c", "d", "e"])
# fixed-width values make equal-length rewrites common, the others
# resize their sections
values = st.one_of(
    st.sampled_from(["x" * 8, "y" * 8, b"z" * 8]),
    st.none(),
    st.text(max_size=6),
    st.binary(max_size=40),
    st.integers(0, 3),
)
txn_ids = st.sampled_from(["t1", "t2", "t3"])
single_ops = st.one_of(
    st.builds(get, keys), st.builds(put, keys, values), st.builds(delete, keys)
)
operations = st.one_of(
    single_ops,
    st.builds(txn_prepare, txn_ids, st.lists(single_ops, min_size=1, max_size=3)),
    st.builds(txn_commit, txn_ids),
    st.builds(txn_abort, txn_ids),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.integers(0, 2), operations),
        st.just(REBOOT),
        st.tuples(st.just(ROLLBACK), st.integers(0, 2**16)),
    ),
    min_size=1,
    max_size=24,
)


def _restored(host):
    """What a restart recovers from the current stored blob."""
    host.reboot()
    program = host.enclave._program
    return (
        serde.encode(program._state),
        program._rows.to_entries(),
        program._sequence,
        program._chain,
    )


def _check_restores(host, model):
    incremental = host.storage.load()
    patched = _restored(host)
    assert patched[0] == serde.encode(model)
    assert host.enclave._program._state == model
    # the same protected content, every piece sealed anew
    program = host.enclave._program
    keys = program._sealed
    fresh = SealedState(
        program._sealing_key,
        keys.state_key.material,
        keys.communication_key.material,
        keys.admin_key.material,
        keys.quorum,
        program._next_nonce,
    )
    fresh.dirty_rows.update(program._rows.client_ids())
    fresh.seal(program._state, program._rows)
    host.storage.store(fresh.blob())
    assert _restored(host) == patched
    # carry on from the patched lineage, adopted sections and all
    host.storage.store(incremental)
    host.reboot()


def _assert_stored_is_the_sealed_blob(host):
    """The newest stored version is the context's whole blob."""
    assert host.storage.load() == host.enclave._program._sealed.blob()


def _client_points(clients):
    return [
        (c._last_sequence, c._stable_sequence, c._last_chain) for c in clients
    ]


def _rewind(clients, points):
    """Clients whose state is what it was at an older stored version, as
    if the operations after it never ran — a rollback they cannot see."""
    for client, (sequence, stable, chain) in zip(clients, points):
        client._last_sequence = sequence
        client._stable_sequence = stable
        client._last_chain = chain


class TestSealedStateProperties:
    @settings(max_examples=40, deadline=None)
    @given(steps)
    # one seal that rewrites "a" at equal length below a slot that moves
    # (the commit drops the transaction's bookkeeping entry)
    @example([
        (0, put("a", "x" * 8)),
        (0, txn_prepare("t1", [put("a", "y" * 8), put("e", "z")])),
        (0, txn_commit("t1")),
    ])
    def test_patched_blob_restores_like_the_model_and_a_fresh_seal(self, steps):
        host, _, clients = build_deployment(audit=True)
        storage = host.storage
        kvs = KvsFunctionality()
        model = kvs.initial_state()
        # version -> (model, client points) for the versions invokes left
        versions = {storage.latest_index(): (model, _client_points(clients))}
        for step in steps:
            if step == REBOOT:
                _check_restores(host, model)
            elif step[0] == ROLLBACK:
                # restart from an older version: the context's next store
                # must not patch storage's newest one
                index = sorted(versions)[step[1] % len(versions)]
                model, points = versions[index]
                storage.rollback_to(index)
                host.reboot()
                assert host.enclave._program._state == model
                _rewind(clients, points)
            else:
                client, operation = step
                reply = clients[client].invoke(operation)
                result, model = kvs.apply(
                    model, serde.decode(serde.encode(operation))
                )
                assert serde.encode(reply.result) == serde.encode(result)
                versions[storage.latest_index()] = (
                    model, _client_points(clients)
                )
            _assert_stored_is_the_sealed_blob(host)
        assert host.enclave._program._state == model
        _check_restores(host, model)
        # every retained version still restores, and the ones an invoke
        # left to the state the model had then
        for index in range(storage.version_count()):
            storage.rollback_to(index)
            host.reboot()
            if index in versions:
                assert host.enclave._program._state == versions[index][0]


table_steps = st.lists(
    st.one_of(
        st.tuples(
            st.booleans(),  # put / discard
            st.binary(min_size=1, max_size=2),  # member key
            st.binary(max_size=40),  # blob piece, any length
            st.binary(min_size=5, max_size=5),  # manifest piece, one width
        ),
        st.just("store"),  # hand the recorded changes over
    ),
    max_size=40,
)


class TestPieceTable:
    @given(table_steps)
    def test_recorded_changes_patch_the_previous_buffer_into_the_new(self, steps):
        """After any mix of inserts, equal- and other-length replacements
        and removals, the changes the table recorded since the last
        store, applied to the buffer it had then, give its buffer now;
        and the table holds its members' pieces in canonical order
        behind the framing for their count."""
        table = _PieceTable(_list_header, 5)
        members: dict[bytes, tuple[bytes, bytes]] = {}
        previous = b""
        table.take_changes()
        for step in [*steps, "store"]:
            if step == "store":
                rewritten, moved, base = table.take_changes()
                assert base == len(previous)
                patched = bytearray(previous)
                for start, data in rewritten.items():
                    if moved is None or start < moved:
                        assert start + len(data) <= len(previous)
                        patched[start : start + len(data)] = data
                if moved is not None:
                    patched[moved:] = table[moved:]
                else:
                    assert len(table) == len(previous)
                assert patched == table
                previous = bytes(table)
                continue
            is_put, key, blob_piece, manifest_piece = step
            if is_put:
                table.put(key, blob_piece, manifest_piece)
                members[key] = (blob_piece, manifest_piece)
            else:
                table.discard(key)
                members.pop(key, None)
            ordered = sorted(members)
            assert table.keys == ordered
            assert table.header == _list_header(len(ordered))
            assert table == b"".join(members[key][0] for key in ordered)
            assert table.manifest == b"".join(members[key][1] for key in ordered)
