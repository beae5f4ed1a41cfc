"""CLI: argument parsing and end-to-end subcommand runs."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_only_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--only", "fig99"])

    def test_attack_kind_default(self):
        args = build_parser().parse_args(["attack"])
        assert args.kind == "rollback"


class TestSubcommands:
    @pytest.mark.parametrize("kind", ["rollback", "fork", "replay"])
    def test_attack_detects(self, kind, capsys):
        assert main(["attack", "--kind", kind]) == 0
        assert "DETECTED" in capsys.readouterr().out

    def test_cluster_verifies(self, capsys):
        assert main(["cluster", "--clients", "3", "--ops", "4"]) == 0
        out = capsys.readouterr().out
        assert "fork-linearizable" in out

    def test_shard_scales_and_verifies(self, capsys):
        assert main(["shard", "--shards", "2", "--clients", "8", "--ops", "6"]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s):" in out and "2 shard(s):" in out
        assert "rebalance" in out
        assert "all shards verified fork-linearizable" in out

    def test_shard_rejects_nonsense_counts(self, capsys):
        assert main(["shard", "--shards", "0"]) == 2
        assert "must all be >= 1" in capsys.readouterr().out

    def test_shard_zipfian_reports_load_skew(self, capsys):
        assert main(
            ["shard", "--shards", "2", "--clients", "6", "--ops", "5",
             "--distribution", "zipfian", "--no-rebalance"]
        ) == 0
        out = capsys.readouterr().out
        assert "load skew" in out
        assert "all shards verified fork-linearizable" in out

    def test_elastic_reshapes_and_verifies(self, capsys):
        assert main(["elastic", "--clients", "6", "--ops", "12"]) == 0
        out = capsys.readouterr().out
        assert "split shard" in out
        assert "merge shard" in out
        assert "recover shard" in out
        assert "all generations verified fork-linearizable" in out

    def test_elastic_rejects_nonsense_counts(self, capsys):
        assert main(["elastic", "--clients", "0"]) == 2
        assert "must be >= 1" in capsys.readouterr().out

    def test_txn_commits_across_shards_and_verifies(self, capsys):
        assert main(["txn", "--clients", "8", "--ops", "12"]) == 0
        out = capsys.readouterr().out
        assert "crash-at-prepare" in out
        assert "crash-after-decision" in out
        assert "transactions committed" in out
        assert "atomic across shard histories" in out

    def test_txn_rejects_nonsense_counts(self, capsys):
        assert main(["txn", "--shards", "1"]) == 2
        assert "--shards must be >= 2" in capsys.readouterr().out

    def test_groupcommit_scales_and_verifies(self, capsys):
        assert main(["groupcommit", "--clients", "8", "--txns", "10"]) == 0
        out = capsys.readouterr().out
        assert "2 shards:" in out and "4 shards:" in out
        assert "merged flushes" in out
        assert "all verdicts clean, streaming parity holds" in out

    def test_groupcommit_rejects_nonsense_counts(self, capsys):
        assert main(["groupcommit", "--shards", "1", "4"]) == 2
        assert "--shards must all be >= 2" in capsys.readouterr().out

    def test_figures_single(self, capsys):
        assert main(["figures", "--only", "sec63"]) == 0
        out = capsys.readouterr().out
        assert "sec63" in out and "paper" in out

    def test_figures_fast_fig4(self, capsys):
        assert main(["figures", "--only", "fig4", "--duration", "0.2"]) == 0
        assert "fig4" in capsys.readouterr().out

    def test_frontier_is_one_sweep_without_arms(self):
        with pytest.raises(SystemExit):
            main(["frontier", "--quick", "--backends", "serial"])

    def test_frontier_quick_smoke(self, capsys, tmp_path):
        output = tmp_path / "frontier.json"
        assert main(["frontier", "--quick", "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert out.count("saturation @ ") == 1
        assert "saturation @ 2 shard(s)" in out
        assert "FRONTIER FAILED" not in out
        assert output.exists()
