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
        physically retains: the runs the store handed it.  The blob is
        the key box, the static box, the state sections in canonical key
        order, the V rows and the manifest tag, so a write's runs are
        exactly its own section, the writer's row and the tag — never the
        sections around it — and a read's exactly the reader's row and
        the tag, no section at all, at any object size."""
        for size in (100, 1000):
            self._check_store_geometry(costs, size)

    @staticmethod
    def _check_store_geometry(costs, size):
        from tests.conftest import build_deployment
        from repro import serde
        from repro.kvstore import get, put

        host, _, (alice, _bob, carol) = build_deployment()
        storage = host.storage
        stored = []
        store = storage.store

        def capture(blob):
            stored.append(blob)
            return store(blob)

        storage.store = capture

        def pieces():
            """``[start, end)`` of each section, each V row and the tag,
            framed as the blob holds them."""
            blob = storage.load()
            sections, rows, tag = serde.decode(serde.decode(blob)[2])

            def span(piece):
                at = blob.rindex(piece)
                return at, at + len(piece)

            return [span(serde.encode(s)) for s in sections], {
                client: span(serde.encode(client) + serde.encode(row))
                for client, row in rows.items()
            }, span(serde.encode(tag))

        def merged(spans):
            out = []
            for lo, hi in sorted(spans):
                if out and lo == out[-1][1]:
                    out[-1] = (out[-1][0], hi)
                else:
                    out.append((lo, hi))
            return out

        def handed_over():
            """The byte ranges the last store handed storage (the
            storage's own count of them must agree)."""
            base_length, length, runs = stored[-1]
            assert base_length == length  # piece lengths are steady
            assert storage.last_delta_bytes() == sum(len(d) for _, d in runs)
            return merged((at, at + len(data)) for at, data in runs)

        for key in ("key-a", "key-b", "key-z"):
            alice.invoke(put(key, "v" * size))
        for index in range(3):  # section and row lengths steady after one
            alice.invoke(put("key-b", f"{'v' * size}{index}"))
        # a write to the middle key (canonical order is by encoded key)
        # hands over its own section, the writer's row and the tag
        sections, rows, tag = pieces()
        assert handed_over() == merged([sections[1], rows[alice.client_id], tag])
        write_delta = storage.last_delta_bytes()
        carol.invoke(get("key-z"))
        carol.invoke(get("key-z"))  # row lengths now steady
        sections, rows, tag = pieces()
        assert handed_over() == merged([rows[carol.client_id], tag])
        delta = storage.last_delta_bytes()
        full = len(storage.load())
        assert delta < write_delta
        assert delta < full / 2
        # the model's charge (the changed row plus the manifest tag) sits
        # at the retained bytes' magnitude, far from the full blob; the
        # framing around the pieces is what it leaves out (at 100-byte
        # objects a read retains 371 B against 196 B charged)
        charged = costs.sealed_store_bytes(size, delta=True)
        assert charged < full / 2
        assert delta / 2 < charged < delta
