"""SGX resource models: std::map heap overhead and EPC paging knee."""

import pytest

from repro.tee.sgx import EPC_USABLE_BYTES, MIB, EpcModel, MapMemoryModel


class TestMapMemoryModel:
    def test_paper_pair_size(self):
        # paper: a 40 B key + 100 B value pair consumes ~280 bytes of
        # strings plus 48 bytes of map node -> 328 bytes
        model = MapMemoryModel()
        assert model.object_bytes(40, 100) == pytest.approx(328, rel=0.05)

    def test_overhead_fraction_matches_paper(self):
        # paper: ~134% overhead over the raw payload
        model = MapMemoryModel()
        assert model.overhead_fraction(40, 100) == pytest.approx(1.34, abs=0.1)

    def test_heap_at_300k_objects(self):
        # paper: 93 MB measured for 300k objects
        model = MapMemoryModel()
        heap_mb = model.heap_bytes(300_000, 40, 100) / MIB
        assert heap_mb == pytest.approx(93, rel=0.2)

    def test_heap_scales_linearly(self):
        model = MapMemoryModel()
        assert model.heap_bytes(200, 40, 100) == 2 * model.heap_bytes(100, 40, 100)

    def test_larger_values_cost_more(self):
        model = MapMemoryModel()
        assert model.object_bytes(40, 1000) > model.object_bytes(40, 100)


class TestEpcModel:
    def test_no_penalty_inside_epc(self):
        epc = EpcModel()
        assert epc.latency_multiplier(EPC_USABLE_BYTES // 2) == 1.0
        assert epc.miss_fraction(EPC_USABLE_BYTES) == 0.0

    def test_penalty_grows_beyond_epc(self):
        epc = EpcModel()
        small = epc.latency_multiplier(EPC_USABLE_BYTES + 10 * MIB)
        large = epc.latency_multiplier(EPC_USABLE_BYTES + 100 * MIB)
        assert 1.0 < small < large

    def test_penalty_saturates_at_max(self):
        epc = EpcModel()
        assert epc.latency_multiplier(100 * EPC_USABLE_BYTES) == pytest.approx(
            1.0 + epc.max_penalty
        )

    def test_paper_knee_at_300k_objects(self):
        # paper: latency increases once the KVS holds >300k objects
        memory = MapMemoryModel()
        epc = EpcModel()
        assert epc.fits(memory.heap_bytes(300_000, 40, 100))
        assert not epc.fits(memory.heap_bytes(400_000, 40, 100))

    def test_larger_epc_moves_the_knee_past_1m_objects(self):
        working_set = MapMemoryModel().heap_bytes(1_000_000, 40, 100)
        multipliers = [
            EpcModel(usable_bytes=mb * MIB).latency_multiplier(working_set)
            for mb in (64, 93, 128, 256, 512)
        ]
        assert multipliers == sorted(multipliers, reverse=True)
        assert multipliers[-1] == 1.0  # 512 MB holds the whole working set

    def test_max_latency_increase_near_paper_240_percent(self):
        memory = MapMemoryModel()
        epc = EpcModel()
        multiplier = epc.latency_multiplier(memory.heap_bytes(1_000_000, 40, 100))
        assert multiplier - 1.0 == pytest.approx(2.4, abs=0.5)
