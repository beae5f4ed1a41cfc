"""Property-based tests on the per-entry sealed service state.

Random GET / PUT / DEL / transaction-prepare / decide sequences with epoch
restarts at random points: whatever path the incremental seal took to the
stored blob — sections patched, inserted, dropped, adopted from a restore
and patched again — the blob must restore to exactly the state a model of
``F`` reached, and to the same state and ``V`` as a blob sealed from
scratch.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import serde
from repro.core.context import _PackedPieceTable, _PieceTable, _list_header
from repro.kvstore import KvsFunctionality, delete, get, put
from repro.kvstore.functionality import txn_abort, txn_commit, txn_prepare

from tests.conftest import build_deployment

REBOOT = "reboot"

keys = st.sampled_from(["a", "b", "c", "d", "e"])
values = st.one_of(
    st.none(), st.text(max_size=6), st.binary(max_size=6), st.integers(0, 3)
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
    program._invalidate_seal_caches()
    host.storage.store(program._sealed_blob())
    assert _restored(host) == patched
    # carry on from the patched lineage, adopted sections and all
    host.storage.store(incremental)
    host.reboot()


class TestSealedStateProperties:
    @settings(max_examples=40, deadline=None)
    @given(steps)
    def test_patched_blob_restores_like_the_model_and_a_fresh_seal(self, steps):
        host, _, clients = build_deployment(audit=True)
        kvs = KvsFunctionality()
        model = kvs.initial_state()
        for step in steps:
            if step == REBOOT:
                _check_restores(host, model)
                continue
            client, operation = step
            reply = clients[client].invoke(operation)
            result, model = kvs.apply(model, serde.decode(serde.encode(operation)))
            assert serde.encode(reply.result) == serde.encode(result)
        assert host.enclave._program._state == model
        _check_restores(host, model)


table_steps = st.lists(
    st.tuples(
        st.booleans(),  # put / discard
        st.binary(min_size=1, max_size=2),  # member key
        st.binary(max_size=40),  # blob piece, any length
        st.binary(min_size=41, max_size=41),  # manifest piece, one width
    ),
    max_size=40,
)


class TestPieceTables:
    @given(table_steps)
    def test_packed_table_holds_what_the_listed_table_holds(self, steps):
        """The packed table (state sections) is the listed table (V rows)
        with each side joined: same members, same order, same bytes after
        any mix of inserts, equal- and other-length replacements and
        removals."""
        listed, packed = _PieceTable(_list_header), _PackedPieceTable(_list_header)
        for is_put, key, blob_piece, manifest_piece in steps:
            for table in (listed, packed):
                if is_put:
                    table.put(key, blob_piece, manifest_piece)
                else:
                    table.discard(key)
            assert packed.keys == listed.keys == sorted(listed.keys)
            assert packed.header == listed.header
            assert bytes(packed.blob) == b"".join(listed.blob)
            assert bytes(packed.manifest) == b"".join(listed.manifest)
