"""History recording: real-time order, concurrency, views."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.history import ClientView, History, OperationRecord
from repro.kvstore import get, put


def record(op_id, client, invoked, responded, sequence=None):
    return OperationRecord(
        op_id=op_id,
        client_id=client,
        operation=("GET", "k"),
        result=None,
        invoked_at=invoked,
        responded_at=responded,
        sequence=sequence,
    )


class TestPrecedence:
    def test_sequential_operations_ordered(self):
        a = record(1, 1, invoked=1, responded=2)
        b = record(2, 2, invoked=3, responded=4)
        assert a.precedes(b)
        assert not b.precedes(a)
        assert not a.concurrent_with(b)

    def test_overlapping_operations_concurrent(self):
        a = record(1, 1, invoked=1, responded=3)
        b = record(2, 2, invoked=2, responded=4)
        assert not a.precedes(b)
        assert not b.precedes(a)
        assert a.concurrent_with(b)


@dataclasses.dataclass(frozen=True)
class FrozenRecord:
    """The frozen form ``OperationRecord`` had: the reference for its
    equality and hash."""

    op_id: int
    client_id: int
    operation: object
    result: object
    invoked_at: int
    responded_at: int
    sequence: int | None = None


FIELDS = ("op_id", "client_id", "operation", "result", "invoked_at",
          "responded_at", "sequence")

#: field values drawn from small pools, so equal records are common
RECORD_FIELDS = st.tuples(
    st.integers(1, 3), st.integers(1, 3),
    st.sampled_from([("GET", "k"), ("PUT", "k", "v")]),
    st.sampled_from([None, "v", b"v", 0]),
    st.integers(1, 3), st.integers(1, 3),
    st.sampled_from([None, 1, 2]),
)


class TestRecordIdentity:
    """``OperationRecord`` is slotted, not frozen; equality and hashing
    must be exactly the frozen dataclass's."""

    @given(RECORD_FIELDS, RECORD_FIELDS)
    @settings(max_examples=200, deadline=None)
    def test_equality_and_hash_match_frozen(self, left, right):
        a, b = OperationRecord(*left), OperationRecord(*right)
        assert (a == b) == (FrozenRecord(*left) == FrozenRecord(*right))
        assert hash(a) == hash(FrozenRecord(*left))
        assert hash(b) == hash(FrozenRecord(*right))
        if a == b:
            assert hash(a) == hash(b) and len({a, b}) == 1

    def test_equal_and_unequal_records(self):
        a = record(1, 1, invoked=1, responded=2, sequence=1)
        assert a == record(1, 1, invoked=1, responded=2, sequence=1)
        assert a != record(1, 1, invoked=1, responded=2, sequence=2)
        assert a != FrozenRecord(*(getattr(a, name) for name in FIELDS))
        assert dataclasses.astuple(a) == tuple(getattr(a, name) for name in FIELDS)

    def test_unhashable_result_raises_like_frozen(self):
        fields = (1, 1, ("GET", "k"), ["a", "list"], 1, 2, 1)
        with pytest.raises(TypeError):
            hash(FrozenRecord(*fields))
        with pytest.raises(TypeError):
            hash(OperationRecord(*fields))
        assert OperationRecord(*fields) == OperationRecord(*fields)

    def test_slotted(self):
        assert not hasattr(record(1, 1, invoked=1, responded=2), "__dict__")


class TestHistoryRecorder:
    def test_complete_operation_lifecycle(self):
        history = History()
        token = history.invoke(1, put("k", "v"))
        assert history.incomplete_count() == 1
        rec = history.respond(token, result=None, sequence=1)
        assert history.incomplete_count() == 0
        assert rec.invoked_at < rec.responded_at
        assert rec.sequence == 1

    def test_record_complete_convenience(self):
        history = History()
        rec = history.record_complete(2, get("k"), "v", sequence=5)
        assert rec.client_id == 2
        assert rec.result == "v"

    def test_by_client_filter(self):
        history = History()
        history.record_complete(1, get("a"), None)
        history.record_complete(2, get("b"), None)
        history.record_complete(1, get("c"), None)
        assert len(history.by_client(1)) == 2
        assert len(history.by_client(2)) == 1

    def test_interleaved_operations_are_concurrent(self):
        history = History()
        token_a = history.invoke(1, get("a"))
        token_b = history.invoke(2, get("b"))
        rec_a = history.respond(token_a, None)
        rec_b = history.respond(token_b, None)
        assert rec_a.concurrent_with(rec_b)

    def test_real_time_pairs(self):
        history = History()
        first = history.record_complete(1, get("a"), None)
        second = history.record_complete(2, get("b"), None)
        pairs = list(history.real_time_pairs())
        assert (first, second) in pairs
        assert (second, first) not in pairs


class TestClientView:
    def test_contains_all_own_operations(self):
        a = record(1, 1, 1, 2)
        b = record(2, 1, 3, 4)
        view = ClientView(client_id=1, records=[a, b])
        assert view.contains_all_own_operations([a, b])
        partial = ClientView(client_id=1, records=[a])
        assert not partial.contains_all_own_operations([a, b])

    def test_respects_real_time(self):
        a = record(1, 1, 1, 2)
        b = record(2, 2, 3, 4)
        assert ClientView(1, [a, b]).respects_real_time()
        assert not ClientView(1, [b, a]).respects_real_time()

    def test_concurrent_operations_any_order(self):
        a = record(1, 1, 1, 3)
        b = record(2, 2, 2, 4)
        assert ClientView(1, [a, b]).respects_real_time()
        assert ClientView(1, [b, a]).respects_real_time()

    @settings(max_examples=300, deadline=None)
    @given(
        spans=st.lists(
            st.tuples(st.integers(0, 12), st.integers(0, 6)), max_size=9
        )
    )
    def test_sweep_agrees_with_the_pairwise_definition(self, spans):
        """The one-pass sweep against the definition it replaced, written
        out as the literal double loop.  A small time range makes ties
        (``responded_at == invoked_at``, which is *not* precedence) and
        zero-length operations common."""
        view = [
            record(op_id, 1, invoked, invoked + length)
            for op_id, (invoked, length) in enumerate(spans)
        ]
        position = {rec.op_id: idx for idx, rec in enumerate(view)}
        pairwise = not any(
            a.precedes(b) and position[a.op_id] > position[b.op_id]
            for a in view
            for b in view
        )
        assert ClientView(1, view).respects_real_time() == pairwise
