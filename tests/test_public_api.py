"""Public API surface: the imports README and docstrings promise."""

import importlib

import pytest


PUBLIC_MODULES = [
    "repro",
    "repro.cli",
    "repro.serde",
    "repro.errors",
    "repro.crypto",
    "repro.crypto.aead",
    "repro.crypto.hashing",
    "repro.crypto.keys",
    "repro.crypto.attestation",
    "repro.crypto.dh",
    "repro.net",
    "repro.net.simulation",
    "repro.net.channel",
    "repro.net.latency",
    "repro.tee",
    "repro.tee.platform",
    "repro.tee.enclave",
    "repro.tee.sgx",
    "repro.server",
    "repro.server.host",
    "repro.server.storage",
    "repro.server.batching",
    "repro.server.faults",
    "repro.kvstore",
    "repro.kvstore.functionality",
    "repro.kvstore.kvs",
    "repro.kvstore.counter",
    "repro.core",
    "repro.core.messages",
    "repro.core.stability",
    "repro.core.context",
    "repro.core.sealed_state",
    "repro.core.client",
    "repro.core.async_client",
    "repro.core.bootstrap",
    "repro.core.migration",
    "repro.core.membership",
    "repro.core.gossip",
    "repro.core.hashchain",
    "repro.consistency",
    "repro.consistency.history",
    "repro.consistency.linearizability",
    "repro.consistency.fork_linearizability",
    "repro.baselines",
    "repro.workload",
    "repro.perf",
    "repro.harness",
    "repro.harness.experiments",
    "repro.harness.report",
    "repro.harness.trace",
]


class TestModuleSurface:
    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_imports(self, name):
        importlib.import_module(name)

    @pytest.mark.parametrize("name", PUBLIC_MODULES)
    def test_module_documented(self, name):
        module = importlib.import_module(name)
        assert module.__doc__ and len(module.__doc__.strip()) > 20

    def test_package_version(self):
        import repro

        assert repro.__version__


class TestOneWayToRunAShard:
    """The batch ecall runs inline on ``ShardedCluster`` and nothing names
    an alternative."""

    def test_cluster_takes_no_execution_backend(self):
        from repro.sharding import ShardedCluster

        with pytest.raises(TypeError, match="execution"):
            ShardedCluster(shards=1, clients=1, execution="threaded")

    def test_single_group_runtime_is_gone(self):
        with pytest.raises(ImportError):
            importlib.import_module("repro.harness.simulated_cluster")

    def test_execution_seam_keeps_its_hook_point(self):
        # benchmarks/e2e/spans.py patches type(cluster.execution).submit
        # to time the batch ecall; a cleanup must not remove it silently
        from repro.sharding import ShardedCluster

        cluster = ShardedCluster(shards=1, clients=1)
        assert callable(type(cluster.execution).__dict__["submit"])


class TestExportedNames:
    def test_core_all_resolves(self):
        import repro.core as core

        for name in core.__all__:
            assert getattr(core, name) is not None

    def test_crypto_all_resolves(self):
        import repro.crypto as crypto

        for name in crypto.__all__:
            assert getattr(crypto, name) is not None

    def test_readme_quickstart_names_exist(self):
        # the exact imports shown in README.md
        from repro.crypto.attestation import EpidGroup
        from repro.core import Admin, make_lcm_program_factory
        from repro.kvstore import KvsFunctionality, get, put
        from repro.server import MaliciousServer, ServerHost
        from repro.tee import TeePlatform

        assert all(
            obj is not None
            for obj in (
                EpidGroup, Admin, make_lcm_program_factory, KvsFunctionality,
                get, put, ServerHost, MaliciousServer, TeePlatform,
            )
        )

    def test_public_classes_documented(self):
        from repro.core.client import LcmClient
        from repro.core.context import LcmContext
        from repro.core.bootstrap import Admin
        from repro.server.host import ServerHost
        from repro.tee.platform import TeePlatform

        for cls in (LcmClient, LcmContext, Admin, ServerHost, TeePlatform):
            assert cls.__doc__
            public_methods = [
                value
                for name, value in vars(cls).items()
                if callable(value) and not name.startswith("_")
            ]
            for method in public_methods:
                assert method.__doc__, f"{cls.__name__}.{method.__name__} undocumented"
