"""Examples stay runnable: each script executes cleanly end to end."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


class TestExamples:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "stable among a majority: True" in proc.stdout

    def test_attack_detection(self):
        proc = run_example("attack_detection.py")
        assert proc.returncode == 0, proc.stderr
        assert "STALE, silently accepted" in proc.stdout   # SGX misses it
        assert "DETECTED: RollbackDetected" in proc.stdout  # LCM catches it
        assert "DETECTED on join" in proc.stdout            # fork join caught

    def test_migration_demo(self):
        proc = run_example("migration_demo.py")
        assert proc.returncode == 0, proc.stderr
        assert "rollback protection survived the migration" in proc.stdout
        assert "refused" in proc.stdout                     # rogue TEE rejected

    def test_group_collaboration(self):
        proc = run_example("group_collaboration.py")
        assert proc.returncode == 0, proc.stderr
        assert "safe to announce" in proc.stdout
        assert "dave locked out" in proc.stdout

    def test_offline_audit(self):
        proc = run_example("offline_audit.py")
        assert proc.returncode == 0, proc.stderr
        assert "execution is fork-linearizable" in proc.stdout
        assert "rejects tampered trace" in proc.stdout

    def test_sharded_cluster(self):
        proc = run_example("sharded_cluster.py")
        assert proc.returncode == 0, proc.stderr
        assert "rebalance completed mid-workload" in proc.stdout
        assert "shards verified fork-linearizable" in proc.stdout
        assert "DETECTED" in proc.stdout                    # forked shard caught
        assert "honest shards still verify" in proc.stdout

    def test_cross_shard_txn(self):
        proc = run_example("cross_shard_txn.py")
        assert proc.returncode == 0, proc.stderr
        assert "committed=True" in proc.stdout
        assert "all-or-nothing held" in proc.stdout
        assert "transactions atomic across" in proc.stdout

    def test_elastic_scaling(self):
        proc = run_example("elastic_scaling.py")
        assert proc.returncode == 0, proc.stderr
        assert "split: shard 2 joined the ring" in proc.stdout
        assert "after the split every read hits: True" in proc.stdout
        assert "merge: shard 1 left the ring" in proc.stdout
        assert "re-bootstrapped as generation 1" in proc.stdout
        assert "verified fork-linearizable" in proc.stdout
