"""Shared fixtures: a fully bootstrapped LCM deployment in one line.

The fixtures build the whole stack — EPID group, TEE platform, server host,
admin bootstrap — so individual tests read like protocol narratives.
"""

from __future__ import annotations

import pytest

from repro.crypto.attestation import EpidGroup
from repro.core import Admin, make_lcm_program_factory
from repro.core.bootstrap import Deployment
from repro.kvstore import CounterFunctionality, KvsFunctionality
from repro.server import MaliciousServer, ServerHost
from repro.tee import TeePlatform


@pytest.fixture
def epid_group() -> EpidGroup:
    return EpidGroup(seed=b"test-epid-group")


@pytest.fixture
def platform(epid_group) -> TeePlatform:
    return TeePlatform(epid_group, seed=1)


def build_deployment(
    *,
    epid_group: EpidGroup | None = None,
    platform: TeePlatform | None = None,
    clients: int = 3,
    functionality=KvsFunctionality,
    malicious: bool = False,
    audit: bool = False,
    quorum_override: int | None = None,
):
    """Assemble (host, deployment, clients) for a fresh LCM service."""
    group = epid_group or EpidGroup()
    tee = platform or TeePlatform(group)
    factory = make_lcm_program_factory(functionality, audit=audit,
                                       quorum_override=quorum_override)
    if malicious:
        host = MaliciousServer(tee, factory)
    else:
        host = ServerHost(tee, factory)
    admin = Admin(group.verifier(), TeePlatform.expected_measurement(factory))
    deployment = admin.bootstrap(host, client_ids=list(range(1, clients + 1)),
                                 quorum_override=quorum_override)
    client_objects = deployment.make_all_clients(host)
    return host, deployment, client_objects


@pytest.fixture
def kvs_deployment(epid_group, platform):
    """A 3-client honest KVS deployment: (host, deployment, [c1, c2, c3])."""
    return build_deployment(epid_group=epid_group, platform=platform)


@pytest.fixture
def counter_deployment(epid_group, platform):
    """A 3-client counter deployment for protocol-level tests."""
    return build_deployment(
        epid_group=epid_group, platform=platform, functionality=CounterFunctionality
    )


@pytest.fixture
def malicious_deployment(epid_group, platform):
    """A 3-client deployment on a malicious server, audit mode on."""
    return build_deployment(
        epid_group=epid_group, platform=platform, malicious=True, audit=True
    )


class CompletionCounts:
    """Exactly-once oracle for completion callbacks.

    ``once(callback)`` wraps one submission's ``on_complete`` and counts
    how often the router fires it; ``assert_exactly_once()`` fails on a
    submission that never completed or completed twice.
    """

    def __init__(self) -> None:
        self.fires: dict[int, int] = {}

    def once(self, callback):
        submission = len(self.fires)
        self.fires[submission] = 0

        def fired(result):
            self.fires[submission] += 1
            callback(result)

        return fired

    def assert_exactly_once(self) -> None:
        assert self.fires, "no submission was counted"
        assert set(self.fires.values()) == {1}, {
            submission: count
            for submission, count in self.fires.items()
            if count != 1
        }
