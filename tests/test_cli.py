"""CLI: argument parsing and end-to-end subcommand runs."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_only_validated(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment 'fig99'" in capsys.readouterr().err

    def test_attack_kind_default(self):
        args = build_parser().parse_args(["attack"])
        assert args.kind == "rollback"

    @pytest.mark.parametrize(
        "command",
        [
            "figures", "shard", "elastic", "txn", "groupcommit", "frontier",
            "cluster", "metrics",
        ],
    )
    def test_experiments_run_only_by_name(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])

    def test_set_values_are_literals_else_strings(self):
        args = build_parser().parse_args([
            "run", "group_commit", "--set", "shard_counts=(4,2)",
            "distribution=zipfian", "--set", "faults=False",
        ])
        assert args.names == ["group_commit"]
        assert args.settings == [
            ("shard_counts", (4, 2)),
            ("distribution", "zipfian"),
            ("faults", False),
        ]

    def test_set_needs_key_and_value(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig4", "--set", "duration"])


class TestSubcommands:
    @pytest.mark.parametrize("kind", ["rollback", "fork", "replay"])
    def test_attack_detects(self, kind, capsys):
        assert main(["attack", "--kind", kind]) == 0
        assert "DETECTED" in capsys.readouterr().out

    def test_cluster_verifies(self, capsys):
        assert main([
            "run", "shard_scaling", "--set", "shard_counts=[1]", "clients=3",
            "requests_per_client=4",
        ]) == 0
        rows = capsys.readouterr().out.splitlines()
        gates = [row for row in rows if "paper=True" in row]
        assert len(gates) == 2 and all(row.endswith("[OK]") for row in gates)

    def test_tracing_puts_spans_in_the_snapshot(self, capsys, tmp_path):
        """``--set tracing=True`` adds one span per completed operation
        to the metrics snapshot and leaves the virtual schedule alone."""
        runs = {}
        for tracing in (True, False):
            output = tmp_path / f"tracing-{tracing}.json"
            assert main([
                "run", "shard_scaling", "--set", "shard_counts=[2]",
                "clients=4", "requests_per_client=5", f"tracing={tracing}",
                "--output", str(output),
            ]) == 0
            runs[tracing] = json.loads(output.read_text())["shard_scaling"]
        capsys.readouterr()
        traced, untraced = runs[True], runs[False]
        metrics = traced["metrics"]
        assert metrics["counters"]["router.operations_submitted"] == 20
        assert metrics["quantiles"]
        spans = metrics["spans"]
        assert len(spans) == 20
        assert all(span["completed_at"] is not None for span in spans)
        assert "spans" not in untraced["metrics"]
        assert traced["series"] == untraced["series"]
        assert traced["ratios"] == untraced["ratios"]

    def test_tracing_refused_without_a_snapshot(self, capsys):
        assert main(["run", "group_commit", "--set", "tracing=True"]) == 2
        assert "group_commit takes no tracing" in capsys.readouterr().err

    def test_demo_recovers_and_stabilises(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "carol GET greeting -> hello" in out
        assert "majority-stable: True" in out

    def test_shard_scales_and_verifies(self, capsys):
        assert main([
            "run", "shard_scaling", "--set", "shard_counts=[1,2]",
            "clients=8", "requests_per_client=6",
        ]) == 0
        out = capsys.readouterr().out
        assert "# shard_scaling: paper vs. measured" in out
        assert "zero_violations" in out and "DIVERGES:" not in out

    def test_shard_rejects_nonsense_counts(self, capsys):
        assert main(["run", "shard_scaling", "--set", "clients=0"]) == 2
        assert "need at least one client" in capsys.readouterr().err

    def test_shard_zipfian_reports_load_skew(self, capsys):
        assert main([
            "run", "shard_scaling", "--set", "shard_counts=[1,2]",
            "clients=6", "requests_per_client=5", "distribution=zipfian",
            "rebalance=False",
        ]) == 0
        out = capsys.readouterr().out
        assert "(zipfian YCSB-A)" in out
        assert "max_load_skew" in out

    def test_elastic_reshapes_and_verifies(self, capsys):
        assert main([
            "run", "elastic_scaling", "--set", "clients=6",
            "requests_per_client=12",
        ]) == 0
        out = capsys.readouterr().out
        first_cells = {line.split()[0] for line in out.splitlines() if line}
        assert {"add", "remove", "recover"} <= first_cells
        assert "[DIVERGES]" not in out

    def test_elastic_rejects_nonsense_counts(self, capsys):
        assert main(["run", "elastic_scaling", "--set", "shards=1"]) == 2
        assert "two initial shards" in capsys.readouterr().err

    def test_txn_commits_across_shards_and_verifies(self, capsys):
        assert main([
            "run", "cross_shard", "--set", "clients=8",
            "requests_per_client=12",
        ]) == 0
        out = capsys.readouterr().out
        assert "crash-at-prepare" in out
        assert "crash-after-decision" in out
        assert "transactions_committed" in out
        assert "[DIVERGES]" not in out

    def test_txn_rejects_nonsense_counts(self, capsys):
        assert main(["run", "cross_shard", "--set", "shards=1"]) == 2
        assert "at least two shards" in capsys.readouterr().err

    def test_groupcommit_scales_and_verifies(self, capsys):
        assert main([
            "run", "group_commit", "--set", "clients=8", "txns_per_client=10",
        ]) == 0
        out = capsys.readouterr().out
        assert "group_flushes_everywhere" in out
        assert "[DIVERGES]" not in out

    def test_groupcommit_rejects_nonsense_counts(self, capsys):
        assert main(
            ["run", "group_commit", "--set", "shard_counts=(1,4)"]
        ) == 2
        assert "at least two shards" in capsys.readouterr().err

    def test_failing_gate_exits_one(self, capsys):
        """Four shards first: the sweep's throughput falls (7,475 then
        5,425 txn/s), so the scaling expectation diverges."""
        assert main([
            "run", "group_commit", "--set", "shard_counts=(4,2)",
            "clients=8", "txns_per_client=10",
        ]) == 1
        out = capsys.readouterr().out
        assert "DIVERGES: group_commit.throughput_scales_with_shards" in out

    def test_key_a_runner_does_not_take_exits_two(self, capsys):
        assert main(["run", "sec63", "--set", "duration=0.2"]) == 2
        assert "sec63 takes no duration" in capsys.readouterr().err

    def test_nonsense_request_count_exits_two(self, capsys):
        assert main([
            "run", "elastic_scaling", "--set", "requests_per_client=0",
        ]) == 2
        assert "at least one request" in capsys.readouterr().err

    def test_window_without_operations_exits_two(self, capsys):
        assert main(["run", "sec65", "--set", "duration=0.01"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "sgx_tmc completed no operation at clients=1" in err

    def test_negative_duration_exits_two(self, capsys):
        assert main(["run", "fig4", "--set", "duration=-1"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "need duration > 0" in err

    def test_figures_single(self, capsys):
        assert main(["run", "sec63"]) == 0
        out = capsys.readouterr().out
        assert "sec63" in out and "paper" in out

    def test_figures_fast_fig4(self, capsys):
        assert main(["run", "fig4", "--set", "duration=0.2"]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_throughput_figures_at_short_windows(self, capsys):
        assert main([
            "run", "fig5", "fig6", "sec65", "--set", "duration=0.2",
            "client_counts=[1,8]",
        ]) == 0
        out = capsys.readouterr().out
        for name in ("fig5", "fig6", "sec65"):
            assert f"# {name}: paper vs. measured" in out

    def test_no_name_runs_the_paper_experiments(self, capsys, monkeypatch):
        from repro.harness import experiments

        monkeypatch.setattr(experiments, "PAPER_EXPERIMENTS", ("sec62", "sec63"))
        assert main(["run"]) == 0
        out = capsys.readouterr().out
        assert "# sec62: paper vs. measured" in out
        assert "# sec63: paper vs. measured" in out

    @pytest.mark.parametrize("name, setting", [
        ("shard_scaling", "shard_counts=2"),
        ("fig5", "client_counts=4"),
        ("sec63", "object_sizes=[]"),
    ])
    def test_malformed_sequence_exits_two(self, name, setting, capsys):
        assert main(["run", name, "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"run: {name}: {setting.partition('=')[0]} needs a " in err

    def test_frontier_quick_smoke(self, capsys, tmp_path):
        output = tmp_path / "frontier.json"
        assert main([
            "run", "frontier", "--set", "shard_counts=[2]",
            "load_fractions=[0.5,0.9,1.3]", "duration=0.04",
            "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "saturation_by_shards" in out
        assert "DIVERGES" not in out
        assert output.exists()

    @pytest.mark.parametrize("setting, message", [
        ("duration=0", "need duration > 0"),
        ("load_fractions=[0.5,-1]", "need load_fractions > 0"),
    ])
    def test_frontier_rejects_nonsense_settings(self, setting, message, capsys):
        assert main(["run", "frontier", "--set", setting]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert message in err

    def test_failing_frontier_gate_exits_one(self, capsys, monkeypatch):
        from repro.harness import experiments

        measure = experiments._frontier_cell

        def violated(*args):
            return {**measure(*args), "violations": 1}

        monkeypatch.setattr(experiments, "_frontier_cell", violated)
        assert main([
            "run", "frontier", "--set", "shard_counts=[1]",
            "load_fractions=[0.5]", "duration=0.01",
        ]) == 1
        assert "DIVERGES: frontier.zero_violations" in capsys.readouterr().out
