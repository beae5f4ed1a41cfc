"""Cost model: arithmetic, geometry, sanity relations."""

import pytest

from repro.perf.costs import CostModel, MessageGeometry


@pytest.fixture
def costs():
    return CostModel()


class TestMessageGeometry:
    def test_request_scales_with_half_object(self):
        geometry = MessageGeometry()
        small = geometry.request_bytes(100, lcm=False)
        large = geometry.request_bytes(2100, lcm=False)
        assert large - small == 1000

    def test_lcm_adds_constant_metadata(self):
        geometry = MessageGeometry()
        for size in (100, 2500):
            delta_req = geometry.request_bytes(size, lcm=True) - geometry.request_bytes(
                size, lcm=False
            )
            delta_rep = geometry.reply_bytes(size, lcm=True) - geometry.reply_bytes(
                size, lcm=False
            )
            assert delta_req == geometry.lcm_metadata_bytes
            assert delta_rep == geometry.lcm_metadata_bytes

    def test_request_carries_key(self):
        geometry = MessageGeometry()
        assert geometry.request_bytes(0, lcm=False) - geometry.reply_bytes(
            0, lcm=False
        ) == geometry.key_bytes


class TestCostRelations:
    def test_crypto_time_scales_with_size(self, costs):
        assert costs.enclave_crypto_time(2500) > costs.enclave_crypto_time(100)

    def test_host_crypto_cheaper_than_enclave(self, costs):
        # native OpenSSL in Stunnel vs enclave AES with transition cost
        assert costs.host_crypto_time(100) < costs.enclave_crypto_time(100)

    def test_fsync_orders_of_magnitude_over_async(self, costs):
        sync = costs.disk.write_time(356, fsync=True)
        async_write = costs.disk.write_time(356, fsync=False)
        assert sync / async_write > 100

    def test_tmc_dominates_everything(self, costs):
        per_op_enclave = (
            costs.ecall_overhead
            + 2 * costs.enclave_crypto_time(200)
            + costs.kvs_op_time
        )
        assert costs.tmc_increment_latency / per_op_enclave > 100

    def test_state_seal_time_positive(self, costs):
        assert costs.state_seal_time(100) > 0
        assert costs.state_seal_time(2500) > costs.state_seal_time(100)

    def test_lcm_sync_factor_above_one(self, costs):
        assert costs.lcm_sync_write_factor > 1.0

    def test_model_is_frozen(self, costs):
        with pytest.raises(Exception):
            costs.ecall_overhead = 1.0


class TestSealedStoreGeometry:
    def test_delta_store_smaller_than_full_blob(self, costs):
        for size in (100, 2500):
            assert costs.sealed_store_bytes(size, delta=True) < (
                costs.sealed_store_bytes(size, delta=False)
            )

    def test_both_charges_carry_the_object(self, costs):
        for delta in (True, False):
            grown = costs.sealed_store_bytes(2500, delta=delta)
            small = costs.sealed_store_bytes(100, delta=delta)
            assert grown - small == 2400

    def test_functional_layer_matches_the_delta_model(self, costs):
        """The quantity the disk is charged for is what StableStorage
        physically appends: the suffix from the first stored piece that
        changed.  The blob is the key box, the static box, the state
        sections in canonical key order, the V rows and the manifest tag,
        so a read persists its row onward and a write its section onward
        — never the boxes and sections in front of them, let alone the
        full blob the model used to charge for."""
        from tests.conftest import build_deployment
        from repro import serde
        from repro.kvstore import get, put

        host, _, (alice, _bob, carol) = build_deployment()
        storage = host.storage

        def shared_prefix():
            return len(storage.load()) - storage.last_delta_bytes()

        def dynamic_pieces():
            return serde.decode(serde.decode(storage.load())[2])

        def moved_from(before, offset):
            """The first offset at or after ``offset`` where the stored
            blob differs from ``before``.  Re-sealed bytes are fresh
            ciphertext, so a few of them can match the old ones by
            chance (each with probability 1/256) and extend the shared
            prefix past the piece that changed."""
            after = storage.load()
            end = min(len(before), len(after))
            while offset < end and before[offset] == after[offset]:
                offset += 1
            return offset

        for key in ("key-a", "key-b", "key-z"):
            alice.invoke(put(key, "v" * 100))
        for index in range(3):
            before = storage.load()
            alice.invoke(put("key-z", f"{'v' * 100}{index}"))
        # a write to the key that sorts last (canonical order is by
        # encoded key) persists from its own section box on: the shared
        # prefix ends on that box's 9 bytes of framing, with the two
        # sections in front of it inside
        sections, _rows, _tag = dynamic_pieces()
        box_at = storage.load().index(sections[-1])
        assert shared_prefix() == moved_from(before, box_at) <= box_at + 4
        assert box_at > len(sections[0]) + len(sections[1])
        write_delta = storage.last_delta_bytes()
        carol.invoke(get("key-z"))
        before = storage.load()
        carol.invoke(get("key-z"))  # row lengths now steady
        # a read by the client whose row sorts last persists from the
        # first byte of that row's record that moved (its acknowledged
        # marker, 35 bytes of framing in) to the end of the blob
        _sections, rows, _tag = dynamic_pieces()
        record_at = storage.load().index(rows[carol.client_id])
        assert record_at < shared_prefix() == moved_from(before, record_at)
        assert shared_prefix() < record_at + 35
        delta = storage.last_delta_bytes()
        full = len(storage.load())
        assert delta < write_delta
        assert delta < full / 2
        # the model's charge sits at the delta's magnitude: between the raw
        # changed-section estimate and the measured suffix, far from full
        charged = costs.sealed_store_bytes(100, delta=True)
        assert charged < full / 2
        assert delta / 2 < charged < 2 * delta
