"""Open-loop frontier experiment: arrivals, saturation, and the cell matrix."""

import dataclasses
import inspect
import json
import pathlib

from repro.cli import main
from repro.harness.experiments import run_frontier
from repro.sharding import ShardedCluster

REPO = pathlib.Path(__file__).resolve().parents[2]


def capacity(shards: int) -> float:
    """Nominal capacity: one op per service interval per shard."""
    return shards / ShardedCluster.SERVICE_INTERVAL


def cell(shards: int, fraction: float, **kwargs) -> dict:
    """The one row of a single-cell sweep, as a column -> value dict."""
    result = run_frontier(
        shard_counts=[shards], load_fractions=[fraction], **kwargs
    )
    return {column: values[0] for column, values in result.series.items()}


class TestRunCell:
    def test_subsaturation_cell_completes_the_offered_load(self):
        row = cell(1, 0.5, duration=0.02)
        assert row["offered_ops"] > 0
        assert row["completed_ops"] == row["offered_ops"]
        assert not row["saturated"]
        assert row["violations"] == 0
        assert row["streaming_parity"]
        assert row["achieved_tps"] > 0

    def test_latency_percentiles_ordered(self):
        row = cell(1, 0.5, duration=0.02)
        assert 0 < row["p50_us"] <= row["p95_us"] <= row["p99_us"]
        assert row["mean_latency_us"] > 0

    def test_cell_is_deterministic(self):
        # 0.375 of two shards' capacity is 15,000 ops/s
        kwargs = dict(seeds=[3], duration=0.02)
        first = run_frontier(shard_counts=[2], load_fractions=[0.375], **kwargs)
        second = run_frontier(shard_counts=[2], load_fractions=[0.375], **kwargs)
        assert first.series["offered_rate"] == [15_000.0]
        assert dataclasses.asdict(first) == dataclasses.asdict(second)

    def test_overload_is_flagged_saturated(self):
        row = cell(1, 2.0, duration=0.04)
        assert row["saturated"]
        assert row["achieved_tps"] < row["offered_rate"]
        assert row["violations"] == 0

    def test_gauges_populated(self):
        row = cell(2, 0.75, duration=0.02)
        assert row["queue_depth_peak"] >= 1
        assert row["load_skew"] >= 1.0
        assert row["batches"] > 0


class TestSweep:
    def test_matrix_has_every_configuration(self):
        result = run_frontier(
            shard_counts=[1], load_fractions=[0.25, 0.5], seeds=[0, 1],
            duration=0.01,
        )
        series = result.series
        keys = set(zip(series["shards"], series["offered_rate"], series["seed"]))
        assert keys == {
            (1, rate, seed) for rate in (5_000.0, 10_000.0) for seed in (0, 1)
        }
        assert len(series["achieved_tps"]) == 4
        assert result.ratios["saturation_by_shards"] == {
            1: max(series["achieved_tps"])
        }

    def test_dump_round_trips(self, tmp_path, capsys):
        path = tmp_path / "frontier.json"
        assert main([
            "run", "frontier", "--set", "shard_counts=[1]",
            "load_fractions=[0.25]", "duration=0.01", "--output", str(path),
        ]) == 0
        capsys.readouterr()
        loaded = json.loads(path.read_text())
        assert list(loaded) == ["frontier"]
        result = run_frontier(
            shard_counts=[1], load_fractions=[0.25], duration=0.01
        )
        assert loaded["frontier"]["series"] == result.series
        assert loaded["frontier"]["ratios"]["saturation_by_shards"] == {
            "1": result.series["achieved_tps"][0]
        }

    def test_committed_record_describes_this_tree(self):
        """Re-run the cheapest cell of ``FRONTIER.json`` (1 shard, 5,000
        ops/s, seed 0): every field must equal the committed one."""
        record = json.loads((REPO / "FRONTIER.json").read_text())["frontier"]
        series = record["series"]
        (index,) = [
            index
            for index, key in enumerate(
                zip(series["shards"], series["offered_rate"], series["seed"])
            )
            if key == (1, 5_000.0, 0)
        ]
        parameters = record["parameters"]
        result = run_frontier(
            shard_counts=[1], load_fractions=[0.25], seeds=[0],
            duration=parameters["duration"],
        )
        assert {
            column: values[0] for column, values in result.series.items()
        } == {column: values[index] for column, values in series.items()}
        for name in ("duration", "clients_per_shard", "batch_limit", "key_space"):
            assert result.parameters[name] == parameters[name]

    def test_default_rates_bracket_nominal_capacity(self):
        fractions = inspect.signature(run_frontier).parameters[
            "load_fractions"
        ].default
        assert list(fractions) == sorted(fractions)
        assert fractions[0] < 1.0 < fractions[-1]

    def test_saturation_throughput_is_the_plateau(self):
        result = run_frontier(
            shard_counts=[1], load_fractions=[0.5, 1.5, 2.0], duration=0.04
        )
        achieved = result.series["achieved_tps"]
        plateau = result.ratios["saturation_by_shards"][1]
        assert plateau == max(achieved)
        # past the knee extra offered load only grows queues
        assert result.series["saturated"] == [False, True, True]
        assert plateau < capacity(1) < result.series["offered_rate"][1]
        assert min(achieved[1:]) >= 0.95 * plateau
