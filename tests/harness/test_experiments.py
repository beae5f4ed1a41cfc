"""Experiment harness: each figure's runner produces paper-shaped output.

Short simulation windows keep this fast; ``repro run`` prints the
full-length figures.  The paper's ratio bands are checked at windows
whose ratios match the full-length run's to within 1 %.
"""

import pytest

from repro.harness.experiments import (
    run_cross_shard,
    run_elastic_scaling,
    run_fig4_object_size,
    run_fig5_clients_async,
    run_fig6_clients_sync,
    run_group_commit,
    run_sec62_enclave_memory,
    run_sec63_message_overhead,
    run_sec65_tmc_comparison,
    run_shard_scaling,
)

FAST = dict(duration=0.3)
SMALL_CLIENTS = [1, 8, 32]
PINNED = dict(duration=0.2)
#: every Fig. 5 system but the TMC, which needs its own 20 s window
FIG5_UNTIMED = ["sgx", "sgx_batch", "native", "lcm", "lcm_batch", "redis"]


class TestPinnedSeries:
    """The throughput figures are deterministic: short windows pin every
    measured point exactly."""

    def test_fig4(self):
        assert run_fig4_object_size(**PINNED).series == {
            "object_size": [100, 500, 1000, 1500, 2000, 2500],
            "sgx": [13565.0, 12115.0, 10455.0, 9195.0, 8205.0, 7405.0],
            "lcm": [11125.0, 9965.0, 8810.0, 7895.0, 7160.0, 6540.0],
        }

    def test_fig5(self):
        result = run_fig5_clients_async(client_counts=[1, 8], **PINNED)
        assert result.series == {
            "clients": [1, 8],
            "sgx": [1775.0, 13565.0],
            "sgx_batch": [1775.0, 13540.0],
            "native": [2070.0, 16405.0],
            "lcm": [1715.0, 11125.0],
            "lcm_batch": [1715.0, 12345.0],
            "redis": [2065.0, 16370.0],
            "sgx_tmc": [15.0, 15.0],
        }

    def test_fig6(self):
        result = run_fig6_clients_sync(client_counts=[1, 8], **PINNED)
        assert result.series == {
            "clients": [1, 8],
            "sgx": [220.0, 245.0],
            "sgx_batch": [220.0, 960.0],
            "native": [220.0, 250.0],
            "lcm": [160.0, 170.0],
            "lcm_batch": [160.0, 645.0],
            "redis": [220.0, 965.0],
            "sgx_tmc": [10.0, 10.0],
        }

    def test_sec65(self):
        result = run_sec65_tmc_comparison(client_counts=[1, 8], **PINNED)
        assert result.series == {
            "clients": [1, 8],
            "sgx_tmc": [15.0, 15.0],
            "lcm_batch": [1715.0, 12345.0],
        }


class TestFig4:
    def test_series_shape(self):
        result = run_fig4_object_size(object_sizes=[100, 1000, 2500], **FAST)
        assert len(result.series["sgx"]) == 3
        assert len(result.series["lcm"]) == 3
        assert all(v > 0 for v in result.series["lcm"])

    def test_lcm_below_sgx_everywhere(self):
        result = run_fig4_object_size(object_sizes=[100, 2500], **FAST)
        for sgx, lcm in zip(result.series["sgx"], result.series["lcm"]):
            assert lcm < sgx

    def test_overhead_ratio_reported(self):
        result = run_fig4_object_size(object_sizes=[100, 2500], **FAST)
        assert 0 < result.ratios["overhead_smallest"] < 0.5
        assert 0 < result.ratios["overhead_largest"] < 0.5

    def test_overhead_falls_from_about_20_to_about_11_percent(self):
        """Paper: 20.12 % at 100 B, 10.96 % at 2500 B (0.180 and 0.117
        here), and LCM's throughput falls with every size step."""
        result = run_fig4_object_size(**PINNED)
        for sgx, lcm in zip(result.series["sgx"], result.series["lcm"]):
            assert 0 < lcm < sgx
        assert 0.10 <= result.ratios["overhead_smallest"] <= 0.30
        assert 0.05 <= result.ratios["overhead_largest"] <= 0.20
        assert result.ratios["overhead_largest"] < result.ratios["overhead_smallest"]
        assert result.ratios["overhead_decreases"] is True
        lcm = result.series["lcm"]
        assert all(a > b for a, b in zip(lcm, lcm[1:]))


class TestFig5:
    def test_all_seven_series_present(self):
        result = run_fig5_clients_async(client_counts=SMALL_CLIENTS, **FAST)
        for name in ("sgx", "sgx_batch", "native", "lcm", "lcm_batch", "redis", "sgx_tmc"):
            assert len(result.series[name]) == 3

    def test_ratio_bands_computed(self):
        result = run_fig5_clients_async(client_counts=SMALL_CLIENTS, **FAST)
        low, high = result.ratios["sgx_vs_native"]
        assert 0 < low <= high < 1.1
        low, high = result.ratios["lcm_vs_sgx"]
        assert 0 < low <= high <= 1.0

    def test_full_sweep_order_and_paper_bands(self):
        """Every client count: at 32 clients native and Redis lead the
        batching variants, which lead their plain versions; the ratio
        bands hold with reproduction slack (SGX 0.28-0.86x of native,
        LCM 0.80-0.97x of SGX, batched 0.85-0.97x)."""
        result = run_fig5_clients_async(systems=FIG5_UNTIMED, **PINNED)
        at32 = {name: values[-1] for name, values in result.series.items()}
        assert at32["native"] > at32["sgx_batch"] > at32["sgx"]
        assert at32["redis"] > at32["lcm_batch"] > at32["lcm"]
        low, high = result.ratios["sgx_vs_native"]
        assert 0.25 <= low <= 0.55 and 0.70 <= high <= 1.0
        low, high = result.ratios["lcm_vs_sgx"]
        assert 0.65 <= low and high <= 1.0
        low, high = result.ratios["lcm_batch_vs_sgx_batch"]
        assert 0.70 <= low and high <= 1.0

    def test_tmc_flat_near_twelve_ops_per_second(self):
        """The TMC at its default 20 s window: pinned at ~12 ops/s
        whatever the client count (paper: ~12)."""
        result = run_fig5_clients_async(systems=["sgx_tmc"], client_counts=SMALL_CLIENTS)
        series = result.series["sgx_tmc"]
        assert max(series) <= 1.5 * min(series)
        assert 8 <= sum(series) / len(series) <= 20
        assert series[-1] < 20


class TestFig6:
    def test_flatness_flags(self):
        result = run_fig6_clients_sync(client_counts=SMALL_CLIENTS, duration=1.5)
        flags = result.ratios["flat_systems"]
        assert flags["native"] and flags["sgx"] and flags["lcm"] and flags["sgx_tmc"]

    def test_batching_scales_under_fsync(self):
        result = run_fig6_clients_sync(client_counts=SMALL_CLIENTS, duration=1.5)
        series = result.series["lcm_batch"]
        assert series[-1] > series[0] * 3

    def test_full_sweep_paper_bands(self):
        """Every client count: the batching systems scale more than 4x
        from 1 to 32 clients, and the ratios sit at the paper's (SGX
        0.98x native, LCM 0.69x SGX, LCM+batching 0.72x-9.87x SGX and
        0.71x-0.75x SGX+batching)."""
        result = run_fig6_clients_sync(duration=1.5)
        for name in ("lcm_batch", "sgx_batch", "redis"):
            series = result.series[name]
            assert series[-1] > series[0] * 4
        low, high = result.ratios["sgx_vs_native"]
        assert 0.9 <= low <= high <= 1.0
        low, high = result.ratios["lcm_vs_sgx"]
        assert 0.6 <= low <= high <= 0.8
        low, high = result.ratios["lcm_batch_vs_sgx"]
        assert low >= 0.6 and 7.0 <= high <= 13.0
        low, high = result.ratios["lcm_batch_vs_sgx_batch"]
        assert 0.6 <= low <= high <= 0.85


class TestSec62:
    def test_memory_numbers_near_paper(self):
        result = run_sec62_enclave_memory()
        assert result.ratios["map_overhead_fraction"] == pytest.approx(1.34, abs=0.3)
        assert result.ratios["heap_mb_at_300k"] == pytest.approx(93, rel=0.15)
        assert result.ratios["knee_after_300k"] is True

    def test_latency_knee_shape(self):
        result = run_sec62_enclave_memory()
        multipliers = result.series["latency_multiplier"]
        objects = result.series["objects"]
        at_300k = multipliers[objects.index(300_000)]
        at_1m = multipliers[objects.index(1_000_000)]
        assert at_300k == 1.0
        assert at_1m > 2.0

    def test_no_penalty_up_to_300k_then_monotone(self):
        result = run_sec62_enclave_memory()
        knee = result.series["objects"].index(300_000)
        multipliers = result.series["latency_multiplier"]
        assert all(m == 1.0 for m in multipliers[: knee + 1])
        assert all(a <= b for a, b in zip(multipliers[knee:], multipliers[knee + 1:]))

    def test_heap_grows_linearly(self):
        result = run_sec62_enclave_memory(object_counts=[100_000, 200_000, 400_000])
        heap = result.series["heap_mb"]
        assert heap[1] == pytest.approx(2 * heap[0], rel=0.01)
        assert heap[2] == pytest.approx(4 * heap[0], rel=0.01)


class TestSec63:
    def test_overheads_constant(self):
        result = run_sec63_message_overhead()
        assert result.ratios["invoke_constant"] is True
        assert result.ratios["reply_constant"] is True

    def test_overheads_positive_and_bounded(self):
        result = run_sec63_message_overhead()
        assert 0 < result.ratios["invoke_overhead_bytes"] < 300
        assert 0 < result.ratios["reply_overhead_bytes"] < 300


class TestSec65:
    def test_tmc_flat_and_slow(self):
        result = run_sec65_tmc_comparison(client_counts=[1, 8], duration=5.0)
        assert result.ratios["tmc_flat"] is True
        assert result.ratios["tmc_mean_ops"] < 20

    def test_speedup_band_large(self):
        result = run_sec65_tmc_comparison(client_counts=[1, 8], duration=5.0)
        low, high = result.ratios["speedup_band"]
        assert low > 20
        assert high > 200

    def test_default_window_near_paper(self):
        """Paper: ~12 ops/s for the TMC, LCM with batching 96x-2063x
        faster (12.5 and 138x-1640x here)."""
        result = run_sec65_tmc_comparison()
        assert 8 <= result.ratios["tmc_mean_ops"] <= 20
        low, high = result.ratios["speedup_band"]
        assert 50 <= low <= 300
        assert 1000 <= high <= 3000


class TestShardScaling:
    def test_four_shards_beat_acceptance_bar(self):
        """ISSUE criterion: >=2.5x aggregate simulated throughput at four
        shards under a uniform YCSB mix, with a rebalance mid-run and zero
        consistency-check violations."""
        result = run_shard_scaling(
            shard_counts=[1, 4], clients=24, requests_per_client=16
        )
        assert result.ratios["speedup_at_max"] >= 2.5
        assert result.ratios["zero_violations"] is True
        assert result.series["rebalances"] == [1, 1]

    def test_throughput_monotone_in_shards(self):
        result = run_shard_scaling(
            shard_counts=[1, 2], clients=16, requests_per_client=10,
            rebalance=False,
        )
        rates = result.series["ops_per_second"]
        assert rates[1] > rates[0]
        assert result.series["rebalances"] == [0, 0]

    def test_zipfian_mix_reports_load_skew(self):
        """ROADMAP item: zipfian mixes skew shard load; the sweep must
        surface the partitioner's balance limits instead of hiding them
        behind a uniform mix."""
        result = run_shard_scaling(
            shard_counts=[1, 4], clients=12, requests_per_client=12,
            distribution="zipfian", rebalance=False,
        )
        assert result.parameters["distribution"] == "zipfian"
        skews = result.series["load_skew"]
        assert skews[0] == pytest.approx(1.0)       # one shard: no skew
        assert skews[1] > 1.0                        # hot keys concentrate
        shares = result.series["per_shard_share"][1]
        assert len(shares) == 4
        assert sum(shares) == pytest.approx(1.0, abs=0.01)
        assert result.ratios["max_load_skew"] == max(skews)
        assert result.ratios["zero_violations"] is True

    @pytest.mark.slow
    def test_full_default_run(self):
        result = run_shard_scaling()
        speedups = result.ratios["speedup_by_shards"]
        assert speedups[2] > 1.5
        assert speedups[4] >= 2.5
        assert result.ratios["zero_violations"] is True


class TestElasticScaling:
    def test_split_merge_crash_recover_with_zero_violations(self):
        """ISSUE acceptance criterion: the elastic run (split -> merge ->
        crash+recover under YCSB-A) finishes every request with zero
        fork-linearizability violations across every generation."""
        result = run_elastic_scaling(clients=8, requests_per_client=20)
        assert result.ratios["zero_violations"] is True
        assert result.ratios["all_requests_completed"] is True
        assert result.ratios["requests_completed"] == 8 * 20
        assert result.ratios["reshards_completed"] == 2
        assert result.ratios["recoveries_completed"] == 1
        assert result.series["event"] == ["add", "remove", "recover"]
        assert all(at is not None for at in result.series["event_completed_at"])
        assert sum(result.series["violations_by_shard"]) == 0

    def test_outage_parks_and_replays_through_the_router(self):
        result = run_elastic_scaling(clients=8, requests_per_client=20)
        assert result.ratios["operations_parked"] > 0
        assert (
            result.ratios["operations_replayed"]
            >= result.ratios["operations_parked"]
        )
        assert result.ratios["keys_migrated"] > 0

    def test_single_shard_refused(self):
        with pytest.raises(ValueError, match="two initial shards"):
            run_elastic_scaling(shards=1)


class TestCrossShard:
    def test_txn_mix_with_fault_injection_has_zero_violations(self):
        """ISSUE acceptance criterion: the cross-shard harness completes
        a multi-key workload spanning >=2 shards with zero consistency
        violations, including under crash-at-prepare and
        crash-after-decision fault injection."""
        result = run_cross_shard(clients=8, requests_per_client=20)
        assert result.ratios["zero_violations"] is True
        assert result.ratios["all_requests_completed"] is True
        assert result.ratios["requests_completed"] == 8 * 20
        assert result.ratios["spans_multiple_shards"] is True
        assert result.ratios["max_participants"] >= 2
        assert result.ratios["faults_injected"] == 2
        assert result.ratios["recoveries_completed"] == 2
        assert sorted(result.series["fault"]) == [
            "crash-after-decision", "crash-at-prepare",
        ]
        assert result.ratios["txn_violations"] == 0

    def test_conflicts_really_happen_and_resolve(self):
        """Zipfian key choice makes transactions collide: the run must
        show real conflict aborts that all eventually commit on retry."""
        result = run_cross_shard(
            clients=10, requests_per_client=15, txn_fraction=0.5, faults=False
        )
        assert result.ratios["transactions_aborted"] > 0
        assert result.ratios["conflict_retries"] > 0
        assert result.ratios["all_requests_completed"] is True
        assert result.ratios["zero_violations"] is True

    def test_single_shard_refused(self):
        with pytest.raises(ValueError, match="two shards"):
            run_cross_shard(shards=1)


@pytest.mark.parametrize(
    "runner, kwargs",
    [
        (run_shard_scaling, dict(requests_per_client=0)),
        (run_elastic_scaling, dict(requests_per_client=0)),
        (run_cross_shard, dict(requests_per_client=0)),
        (run_group_commit, dict(txns_per_client=0)),
    ],
)
def test_clients_without_requests_refused(runner, kwargs):
    with pytest.raises(ValueError, match="at least one request"):
        runner(**kwargs)


def test_group_commit_refuses_a_single_shard():
    with pytest.raises(ValueError, match="two shards"):
        run_group_commit(shard_counts=(1, 4))


class TestGroupCommit:
    def test_throughput_scales_with_merged_flushes_and_clean_verdicts(self):
        """Pipelined transactions over 2 then 4 shards at a third of the
        default length: committed throughput rises with the shard count,
        the router merges lifecycle operations at every point, and both
        verdict pipelines stay clean and agree."""
        result = run_group_commit(clients=8, txns_per_client=10)
        assert result.series["shards"] == [2, 4]
        assert result.ratios["throughput_scales_with_shards"] is True
        assert result.ratios["group_flushes_everywhere"] is True
        assert result.ratios["zero_violations"] is True
        assert result.ratios["streaming_parity"] is True
        # every submitted transaction reached a decision
        assert [
            committed + aborted
            for committed, aborted in zip(
                result.series["committed"], result.series["aborted"]
            )
        ] == [8 * 10, 8 * 10]
