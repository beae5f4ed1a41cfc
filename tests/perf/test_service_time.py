"""Batch service-time arithmetic: hand-computed values against the
price function the figure model hands its dispatcher."""

import pytest

from repro.perf.costs import CostModel
from repro.perf.model import SYSTEMS, service_time


def price_for(name: str, *, object_size=100, fsync=False):
    costs = CostModel()
    return service_time(SYSTEMS[name], costs, object_size, fsync=fsync), costs


def expected_sgx_per_op(costs: CostModel, object_size: int, *, lcm=False) -> float:
    request = costs.geometry.request_bytes(object_size, lcm=lcm)
    reply = costs.geometry.reply_bytes(object_size, lcm=lcm)
    per_op = (
        costs.frontend_per_request
        + costs.kvs_op_time
        + costs.enclave_crypto_time(request)
        + costs.enclave_crypto_time(reply)
    )
    if lcm:
        per_op += costs.lcm_hash_chain_time + costs.lcm_v_update_time
    return per_op


class TestEnclaveServiceTimes:
    def test_sgx_single_request(self):
        price, costs = price_for("sgx")
        per_batch = (
            costs.ecall_overhead
            + costs.state_seal_time(100)
            + costs.disk.write_time(costs.sealed_store_bytes(100), fsync=False)
        )
        expected = expected_sgx_per_op(costs, 100) + per_batch
        assert price(1) == pytest.approx(expected)

    def test_lcm_adds_protocol_work(self):
        sgx_price, costs = price_for("sgx")
        lcm_price, _ = price_for("lcm")
        delta = lcm_price(1) - sgx_price(1)
        # hash chain + V update + extra seal + metadata crypto
        metadata_crypto = 2 * costs.enclave_crypto_per_byte * costs.geometry.lcm_metadata_bytes
        expected_delta = (
            costs.lcm_hash_chain_time
            + costs.lcm_v_update_time
            + costs.lcm_state_seal_extra
            + metadata_crypto
        )
        assert delta == pytest.approx(expected_delta)

    def test_batching_amortises_per_batch_costs(self):
        price, costs = price_for("sgx_batch")
        k = 16
        single = price(1)
        batch = price(k)
        per_batch = (
            costs.ecall_overhead
            + costs.state_seal_time(100)
            + costs.disk.write_time(costs.sealed_store_bytes(100), fsync=False)
        )
        # k requests pay the per-op work k times but the batch cost once
        assert batch == pytest.approx(single * k - per_batch * (k - 1))

    def test_fsync_adds_full_flush(self):
        sync_price, costs = price_for("sgx", fsync=True)
        async_price, _ = price_for("sgx", fsync=False)
        delta = sync_price(1) - async_price(1)
        expected = costs.disk.write_time(
            costs.sealed_store_bytes(100), fsync=True
        ) - costs.disk.write_time(costs.sealed_store_bytes(100), fsync=False)
        assert delta == pytest.approx(expected)

    def test_lcm_sync_write_factor_applied(self):
        lcm_price, costs = price_for("lcm", fsync=True)
        sgx_price, _ = price_for("sgx", fsync=True)
        lcm_write = costs.disk.write_time(costs.sealed_store_bytes(100), fsync=True) * costs.lcm_sync_write_factor
        sgx_write = costs.disk.write_time(costs.sealed_store_bytes(100), fsync=True)
        delta = lcm_price(1) - sgx_price(1)
        metadata_crypto = 2 * costs.enclave_crypto_per_byte * costs.geometry.lcm_metadata_bytes
        expected_delta = (
            costs.lcm_hash_chain_time
            + costs.lcm_v_update_time
            + costs.lcm_state_seal_extra
            + metadata_crypto
            + (lcm_write - sgx_write)
        )
        assert delta == pytest.approx(expected_delta)

    def test_tmc_increment_per_batch(self):
        tmc_price, costs = price_for("sgx_tmc")
        sgx_price, _ = price_for("sgx")
        delta = tmc_price(1) - sgx_price(1)
        assert delta == pytest.approx(costs.tmc_increment_latency)


class TestHostServiceTimes:
    def test_native_per_request(self):
        price, costs = price_for("native")
        expected = (
            costs.frontend_per_request
            + costs.kvs_op_time
            + costs.disk.write_time(228, fsync=False)
        )
        assert price(1) == pytest.approx(expected)

    def test_redis_group_commit_shares_one_flush(self):
        price, costs = price_for("redis", fsync=True)
        k = 11
        flush = costs.disk.write_time(164, fsync=True)
        # per-op work k times, 1 µs of log bookkeeping per write (half the
        # batch), and one flush shared by the whole drained queue
        assert price(k) == pytest.approx(
            k * (costs.frontend_per_request + costs.kvs_op_time)
            + (k // 2) * 1e-6
            + flush
        )
