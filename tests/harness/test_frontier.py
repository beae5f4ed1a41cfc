"""Open-loop frontier harness: arrivals, saturation, and the cell matrix."""

import json
import pathlib

import pytest

from repro.harness.frontier import (
    FrontierCell,
    default_rates,
    run_cell,
    run_frontier,
    saturation_throughput,
    shard_capacity,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestRunCell:
    def test_subsaturation_cell_completes_the_offered_load(self):
        rate = shard_capacity(1) * 0.5
        cell = run_cell(1, rate, duration=0.02)
        assert cell.offered_ops > 0
        assert cell.completed_ops == cell.offered_ops
        assert not cell.saturated
        assert cell.violations == 0
        assert cell.achieved_tps > 0

    def test_latency_percentiles_ordered(self):
        cell = run_cell(1, shard_capacity(1) * 0.5, duration=0.02)
        assert 0 < cell.p50 <= cell.p95 <= cell.p99
        assert cell.mean_latency > 0

    def test_cell_is_deterministic(self):
        kwargs = dict(seed=3, duration=0.02)
        first = run_cell(2, 15_000.0, **kwargs)
        second = run_cell(2, 15_000.0, **kwargs)
        assert first.as_dict() == second.as_dict()

    def test_overload_is_flagged_saturated(self):
        rate = shard_capacity(1) * 2.0
        cell = run_cell(1, rate, duration=0.04)
        assert cell.saturated
        assert cell.achieved_tps < rate

    def test_gauges_populated(self):
        cell = run_cell(2, shard_capacity(2) * 0.75, duration=0.02)
        assert cell.queue_depth_peak >= 1
        assert cell.load_skew >= 1.0
        assert cell.extra["batches"] > 0


class TestSweep:
    def test_matrix_has_every_configuration(self):
        result = run_frontier(
            shard_counts=(1,), rates=(5_000.0, 10_000.0), seeds=(0, 1),
            duration=0.01,
        )
        assert len(result.cells) == 4
        keys = {(c.shards, c.offered_rate, c.seed) for c in result.cells}
        assert len(keys) == 4
        assert result.saturation[1] == saturation_throughput(result.cells)

    def test_dump_round_trips(self, tmp_path):
        result = run_frontier(
            shard_counts=(1,), rates=(5_000.0,), duration=0.01,
        )
        path = tmp_path / "frontier.json"
        result.dump(str(path))
        loaded = json.loads(path.read_text())
        assert len(loaded["cells"]) == 1
        assert loaded["saturation"]["1"] == pytest.approx(
            result.cells[0].achieved_tps
        )

    def test_committed_record_describes_this_tree(self):
        """Re-run the cheapest cell of ``FRONTIER.json`` (1 shard, 5,000
        ops/s, seed 0): every field must equal the committed one."""
        record = json.loads((REPO / "FRONTIER.json").read_text())
        (committed,) = [
            cell for cell in record["cells"]
            if (cell["shards"], cell["offered_rate"], cell["seed"])
            == (1, 5_000.0, 0)
        ]
        cell = run_cell(1, 5_000.0, seed=0, duration=committed["duration"])
        assert cell.as_dict() == committed

    def test_default_rates_bracket_nominal_capacity(self):
        for shards in (1, 2, 4):
            ladder = default_rates(shards)
            capacity = shard_capacity(shards)
            assert ladder == sorted(ladder)
            assert ladder[0] < capacity < ladder[-1]

    def test_saturation_throughput_is_the_plateau(self):
        cells = [
            FrontierCell(
                shards=1, offered_rate=r, seed=0,
                duration=0.1, offered_ops=0, completed_ops=0, elapsed=0.1,
                achieved_tps=a, saturated=False, p50=0, p95=0, p99=0,
                mean_latency=0, queue_depth_peak=0, load_skew=1.0,
                violations=0,
            )
            for r, a in ((10.0, 10.0), (20.0, 19.0), (40.0, 19.5))
        ]
        assert saturation_throughput(cells) == 19.5
        assert saturation_throughput([]) == 0.0
