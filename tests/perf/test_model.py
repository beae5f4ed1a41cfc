"""Closed-loop throughput model: ordering and shape invariants.

These assert the *qualitative* relations the paper's figures rest on, with
short simulation windows to keep the suite fast; ``repro run`` regenerates
the full figures.
"""

import pytest

from repro.errors import ConfigurationError
from repro.perf.model import SYSTEMS, SystemSpec, measure_throughput

FAST = dict(duration=0.3, warmup=0.05)


def tput(system, clients, **kwargs):
    params = dict(FAST)
    params.update(kwargs)
    return measure_throughput(system, clients=clients, **params).ops_per_second


class TestBasics:
    def test_result_fields(self):
        result = measure_throughput("native", clients=2, **FAST)
        assert result.system == "native"
        assert result.clients == 2
        assert result.operations > 0
        assert result.ops_per_second > 0

    def test_zero_clients_rejected(self):
        with pytest.raises(ConfigurationError):
            measure_throughput("native", clients=0)

    @pytest.mark.parametrize(
        "window", [dict(duration=0.0), dict(duration=-1.0), dict(warmup=-0.1)]
    )
    def test_empty_or_negative_window_rejected(self, window):
        with pytest.raises(ConfigurationError):
            measure_throughput("native", clients=1, **window)

    def test_all_registered_systems_run(self):
        for name in SYSTEMS:
            duration = 5.0 if name == "sgx_tmc" else 0.3
            assert tput(name, clients=2, duration=duration) > 0

    def test_deterministic(self):
        assert tput("lcm", 4) == tput("lcm", 4)


class TestOrderingInvariants:
    def test_native_fastest_at_saturation(self):
        native = tput("native", 32)
        for other in ("sgx", "lcm"):
            assert native > tput(other, 32)

    def test_lcm_slower_than_sgx(self):
        assert tput("lcm", 16) < tput("sgx", 16)

    def test_batching_helps_at_high_client_counts(self):
        assert tput("sgx_batch", 32) > tput("sgx", 32)
        # Sec. 5.2: one ecall and store per batch, not per op (1.84x)
        assert tput("lcm_batch", 32) > tput("lcm", 32) * 1.2

    def test_tmc_is_orders_of_magnitude_slower(self):
        tmc = tput("sgx_tmc", 8, duration=5.0)
        assert tmc < 20
        assert tput("lcm_batch", 8) / tmc > 50

    def test_redis_comparable_to_native(self):
        redis = tput("redis", 8)
        native = tput("native", 8)
        assert redis == pytest.approx(native, rel=0.15)


class TestShapeInvariants:
    def test_enclave_systems_saturate_early(self):
        sgx_8 = tput("sgx", 8)
        sgx_32 = tput("sgx", 32)
        assert sgx_32 < sgx_8 * 1.25  # nearly flat past 8 clients

    def test_native_keeps_scaling_past_8(self):
        assert tput("native", 32) > tput("native", 8) * 2

    def test_throughput_decreases_with_object_size(self):
        small = tput("sgx", 8, object_size=100)
        large = tput("sgx", 8, object_size=2500)
        assert large < small

    def test_lcm_overhead_shrinks_with_object_size(self):
        def overhead(size):
            return 1 - tput("lcm", 8, object_size=size) / tput(
                "sgx", 8, object_size=size
            )

        assert overhead(2500) < overhead(100)

    def test_fsync_collapses_non_batching_throughput(self):
        """Plain SGX loses ~55x of its async throughput to one fsync per
        request."""
        assert tput("sgx", 8) / tput("sgx", 8, fsync=True, duration=2.0) > 20

    def test_fsync_flattens_non_batching_systems(self):
        sgx_sync_8 = tput("sgx", 8, fsync=True, duration=2.0)
        sgx_sync_32 = tput("sgx", 32, fsync=True, duration=2.0)
        assert sgx_sync_8 < 400
        assert sgx_sync_32 == pytest.approx(sgx_sync_8, rel=0.2)

    def test_fsync_batching_still_scales(self):
        batch_4 = tput("lcm_batch", 4, fsync=True, duration=2.0)
        batch_32 = tput("lcm_batch", 32, fsync=True, duration=2.0)
        assert batch_32 > batch_4 * 3

    def test_group_commit_keeps_redis_scaling_under_fsync(self):
        redis_4 = tput("redis", 4, fsync=True, duration=2.0)
        redis_32 = tput("redis", 32, fsync=True, duration=2.0)
        assert redis_32 > redis_4 * 3


class TestCustomSpec:
    def test_batch_depth_amortises_fsync_then_flattens(self):
        """Under fsync with 32 clients, depth 16 (the paper's) is 14x
        depth 1, and depth 64 gains nothing more."""
        def depth(limit):
            spec = SystemSpec(f"lcm_b{limit}", enclave=True, lcm=True, batch_limit=limit)
            return measure_throughput(
                spec, clients=32, fsync=True, duration=2.0
            ).ops_per_second

        assert depth(16) > depth(1) * 5
        assert depth(64) > depth(16) * 0.9

    def test_custom_batch_limit(self):
        deep = SystemSpec("deep", enclave=True, lcm=True, batch_limit=64)
        shallow = SystemSpec("shallow", enclave=True, lcm=True, batch_limit=2)
        assert (
            measure_throughput(deep, clients=32, fsync=True, duration=2.0).ops_per_second
            > measure_throughput(
                shallow, clients=32, fsync=True, duration=2.0
            ).ops_per_second
        )
