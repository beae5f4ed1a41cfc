"""The C tier's entry points against inputs a host controls.

Every function of the compiled module is called straight from Python, so
each must turn a malformed argument into a Python exception, or into its
documented "unauthentic" value, and never read or write outside what it
was given: a box of 0-27 bytes, a non-bytes item in a batch, an empty
batch, a read-only buffer where a V column is mutated, a wrong argument
count and an out-of-range int.
"""

from array import array

import pytest

from repro.core import messages
from repro.crypto import fastpath
from repro.crypto.aead import AeadKey, _mac_frame
from repro.crypto.hashing import GENESIS_HASH, chain_extend

KEY = AeadKey(b"\x07" * 16)
ENC, MAC = KEY._enc_key, KEY._mac_key
NONCE = bytes(range(12))
INVOKE_FRAME = _mac_frame(KEY, messages._INVOKE_AD)
REPLY_FRAME = _mac_frame(KEY, messages._REPLY_AD)
INVOKE_PREFIX, REPLY_PREFIX = messages._INVOKE_PREFIX, messages._REPLY_PREFIX
SEED = b"\x09" * 32


@pytest.fixture
def c():
    backend = fastpath._get_backend("c")
    if backend is None:
        pytest.skip("compiled backend unavailable")
    return backend


def invoke_box(c, client_id=1, tc=0, hc=GENESIS_HASH, op=b"op", nonce=NONCE):
    return c.seal_invoke(
        ENC, MAC, nonce, INVOKE_FRAME, INVOKE_PREFIX, tc, hc, op, client_id, False
    )


def v_columns(clients=2):
    """Packed V for clients 1..n at their start: (ids, ack, seq, chains,
    acks) as ``PackedRows`` holds them."""
    return (
        array("q", range(1, clients + 1)),
        array("q", [0] * clients),
        array("q", [0] * clients),
        bytearray(GENESIS_HASH * clients),
        array("q", [0] * clients),
    )


def batch_open(c, boxes, columns=None, quorum=1, sequence=0, chain=GENESIS_HASH):
    columns = v_columns() if columns is None else columns
    return c.invoke_batch_open(
        ENC, MAC, INVOKE_FRAME, INVOKE_PREFIX, boxes, *columns,
        quorum, sequence, chain,
    )


def batch_reply(c, batch, results, counter=0):
    return c.invoke_batch_reply(
        ENC, MAC, REPLY_FRAME, REPLY_PREFIX, batch, results, SEED, counter
    )


class TestRoundTrip:
    def test_a_batch_opens_and_its_reply_decodes(self, c):
        columns = v_columns()
        ops, violation, batch, sequence, chain = batch_open(
            c, [invoke_box(c), invoke_box(c, client_id=2, op=b"op2")], columns
        )
        first = chain_extend(GENESIS_HASH, b"op", 1, 1)
        assert ops == [
            (0, 0, 1, b"op", 1, first),
            (0, 1, 2, b"op2", 2, chain_extend(first, b"op2", 2, 2)),
        ]
        assert violation is None
        assert (sequence, chain) == (2, ops[1][5])
        assert list(columns[2]) == [1, 2]
        boxes, rows, manifests = batch_reply(c, batch, [b"r1", b"r2"])
        assert [len(row) for row in rows] == [61 + len(box) for box in boxes]
        assert [len(manifest) for manifest in manifests] == [58, 58]
        t, h, r, _, prev = c.open_reply(ENC, MAC, REPLY_FRAME, REPLY_PREFIX, boxes[0])
        assert (t, h, r, prev) == (1, first, b"r1", GENESIS_HASH)

    def test_a_halted_batch_reports_its_violation_and_seals_nothing(self, c):
        ops, violation, batch, sequence, _ = batch_open(
            c, [invoke_box(c), invoke_box(c, client_id=9)]
        )
        assert len(ops) == 1 and sequence == 1
        assert violation == (-1, -1, 9, 0)  # unknown client
        with pytest.raises(ValueError, match="violation"):
            batch_reply(c, batch, [b"r"])


class TestShortBoxes:
    @pytest.mark.parametrize("size", range(28))
    def test_every_opener_calls_a_short_box_unauthentic(self, c, size):
        box = bytes(size)
        assert c.open_box(ENC, MAC, INVOKE_FRAME, box) is None
        assert c.open_reply(ENC, MAC, REPLY_FRAME, REPLY_PREFIX, box) is None
        columns = v_columns()
        before = [bytes(column) for column in columns]
        assert batch_open(c, [invoke_box(c), box], columns) == -1001
        assert [bytes(column) for column in columns] == before

    def test_a_forged_box_is_unauthentic_everywhere(self, c):
        box = bytearray(invoke_box(c))
        box[20] ^= 1
        forged = bytes(box)
        assert c.open_box(ENC, MAC, INVOKE_FRAME, forged) is None
        assert c.open_reply(ENC, MAC, INVOKE_FRAME, INVOKE_PREFIX, forged) is None
        assert batch_open(c, [forged]) == -1000
        assert batch_open(c, [invoke_box(c), forged]) == -1001


class TestBatchItems:
    @pytest.mark.parametrize("item", [None, 7, "text", [b"x"]])
    def test_a_non_bytes_item_raises(self, c, item):
        with pytest.raises(TypeError):
            c.sha256_many([b"a", item])
        columns = v_columns()
        before = [bytes(column) for column in columns]
        with pytest.raises(TypeError):
            batch_open(c, [invoke_box(c), item], columns)
        assert [bytes(column) for column in columns] == before
        batch = batch_open(c, [invoke_box(c)])[2]
        with pytest.raises(TypeError):
            batch_reply(c, batch, [item])

    def test_any_buffer_is_a_byte_string(self, c):
        box = invoke_box(c)
        assert c.sha256_many((bytearray(b"a"), memoryview(b"a"))) == (
            c.sha256_many([b"a", b"a"])
        )
        ops = batch_open(c, [box])[0]
        for twin in (bytearray(box), memoryview(box)):
            assert batch_open(c, (twin,))[0] == ops
        batch = batch_open(c, [box])[2]
        assert batch_reply(c, batch, [bytearray(b"r")])[0] == (
            batch_reply(c, batch_open(c, [box])[2], [b"r"])[0]
        )

    @pytest.mark.parametrize("batch", [b"abc", iter([b"abc"]), {b"abc": 1}])
    def test_a_batch_that_is_no_list_raises(self, c, batch):
        with pytest.raises(TypeError):
            c.sha256_many(batch)
        columns = v_columns()
        before = [bytes(column) for column in columns]
        with pytest.raises(TypeError):
            batch_open(c, batch, columns)
        assert [bytes(column) for column in columns] == before
        with pytest.raises(TypeError):
            batch_reply(c, batch_open(c, [invoke_box(c)])[2], batch)

    def test_results_must_match_the_batch(self, c):
        batch = batch_open(c, [invoke_box(c)])[2]
        for results in ([], [b"a", b"b"]):
            with pytest.raises(ValueError):
                batch_reply(c, batch, results)
        for not_a_batch in (b"batch", None, object()):
            with pytest.raises((TypeError, ValueError)):
                batch_reply(c, not_a_batch, [b"a"])


class TestEmptyBatches:
    def test_every_batch_entry_point_takes_an_empty_batch(self, c):
        assert c.sha256_many([]) == []
        columns = v_columns()
        ops, violation, batch, sequence, chain = batch_open(c, [], columns, sequence=5)
        assert (ops, violation, sequence, chain) == ([], None, 5, GENESIS_HASH)
        assert batch_reply(c, batch, []) == ([], [], [])
        # an empty V: every operation names an unknown client
        empty = (array("q"), array("q"), array("q"), bytearray(), array("q"))
        assert batch_open(c, [], empty, quorum=0)[:2] == ([], None)
        assert batch_open(c, [invoke_box(c)], empty, quorum=0)[1] == (-1, -1, 1, 0)


class TestVColumns:
    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_a_read_only_mutated_column_raises_and_nothing_moves(self, c, index):
        columns = list(v_columns())
        before = [bytes(column) for column in columns]
        for read_only in (bytes(columns[index]), memoryview(columns[index]).toreadonly()):
            attempt = list(columns)
            attempt[index] = read_only
            with pytest.raises((BufferError, TypeError)):
                batch_open(c, [invoke_box(c)], attempt)
        assert [bytes(column) for column in columns] == before

    @pytest.mark.parametrize(
        "index, column",
        [(0, array("i", [1, 2])), (1, array("d", [0, 0])), (3, array("q", [0] * 8)),
         (0, "12")],
    )
    def test_a_column_of_the_wrong_kind_raises(self, c, index, column):
        columns = list(v_columns())
        columns[index] = column
        with pytest.raises(TypeError):
            batch_open(c, [invoke_box(c)], columns)

    @pytest.mark.parametrize("index", [1, 2, 3, 4])
    def test_a_short_column_raises(self, c, index):
        columns = list(v_columns())
        del columns[index][-1:]
        with pytest.raises(ValueError):
            batch_open(c, [invoke_box(c)], columns)

    @pytest.mark.parametrize("quorum", [0, 3, -1])
    def test_a_quorum_outside_the_rows_raises(self, c, quorum):
        with pytest.raises(ValueError):
            batch_open(c, [invoke_box(c)], quorum=quorum)


def _call_sites(c, box):
    """Each entry point with valid arguments."""
    batch = batch_open(c, [box])[2]
    columns = v_columns()
    return {
        "keystream": (c.blocks, (b"p", 1)),
        "sha256_many": (c.sha256_many, ([b"a"],)),
        "chain_extend": (c.chain_extend, (b"h", b"o", 1, 2)),
        "seal_box": (c.seal_box, (ENC, MAC, NONCE, INVOKE_FRAME, b"pt")),
        "open_box": (c.open_box, (ENC, MAC, INVOKE_FRAME, box)),
        "stream_box": (c.stream_box, (ENC, NONCE, b"pt")),
        "seal_invoke": (c.seal_invoke, (
            ENC, MAC, NONCE, INVOKE_FRAME, INVOKE_PREFIX, 0, GENESIS_HASH, b"o", 1, False,
        )),
        "open_reply": (c.open_reply, (ENC, MAC, REPLY_FRAME, REPLY_PREFIX, box)),
        "invoke_batch_open": (c.invoke_batch_open, (
            ENC, MAC, INVOKE_FRAME, INVOKE_PREFIX, [box], *columns, 1, 0, GENESIS_HASH,
        )),
        "invoke_batch_reply": (c.invoke_batch_reply, (
            ENC, MAC, REPLY_FRAME, REPLY_PREFIX, batch, [b"r"], SEED, 0,
        )),
        "modexp": (c._modexp, (bytes(255) + b"\x07", bytes(256), 1, bytes(256), b"\x02")),
    }


class TestArguments:
    def test_a_wrong_argument_count_raises(self, c):
        for name, (function, args) in _call_sites(c, invoke_box(c)).items():
            function(*args)  # the valid call
            for wrong in (args[:-1], (*args, args[-1]), ()):
                if name == "keystream" and len(wrong) == 3:
                    continue  # the optional first counter
                with pytest.raises(TypeError):
                    function(*wrong)

    @pytest.mark.parametrize("size", [0, 16, 31, 33])
    def test_a_key_of_the_wrong_size_raises(self, c, size):
        key = bytes(size)
        with pytest.raises(ValueError):
            c.seal_box(key, MAC, NONCE, INVOKE_FRAME, b"pt")
        with pytest.raises(ValueError):
            c.open_box(ENC, key, INVOKE_FRAME, invoke_box(c))
        with pytest.raises(ValueError):
            batch_open(c, [invoke_box(c)], chain=key)
        with pytest.raises(ValueError):
            c.stream_box(ENC, key[:11] if size else key, b"pt")

    @pytest.mark.parametrize("value", [-1, 2**64])
    def test_chain_extend_keeps_raising_overflow(self, c, value):
        with pytest.raises(OverflowError):
            c.chain_extend(b"h", b"o", value, 1)
        with pytest.raises(OverflowError):
            c.chain_extend(b"h", b"o", 1, value)

    def test_out_of_range_ints_raise(self, c):
        with pytest.raises(OverflowError):
            invoke_box(c, tc=2**63)
        with pytest.raises(OverflowError):
            invoke_box(c, client_id=-(2**63) - 1)
        with pytest.raises(OverflowError):
            c.blocks(b"p", -1)
        with pytest.raises(OverflowError):
            c.blocks(b"p", 2**62)
        with pytest.raises(OverflowError):
            batch_open(c, [invoke_box(c)], sequence=2**63)
        with pytest.raises(OverflowError):
            batch_reply(c, batch_open(c, [invoke_box(c)])[2], [b"r"], counter=-1)
        with pytest.raises(TypeError):
            c.chain_extend(b"h", b"o", 1.0, 1)
