"""Fastpath parity: which crypto backend ran must never change the bytes.

The determinism contract: the same trace through the ``c`` and
``python`` crypto fastpaths must produce identical wire bytes, hash
chains, audit logs, sealed storage, completion times and merged
verdicts — a fork attack included, which must be detected identically
(same shard, same violation, same evidence) under both fastpaths, and
the combined reshard/crash/transaction scenario included.
The batch ecall runs inline at dispatch time, so there is no other axis:
one trace, one schedule.
"""

import hashlib
import os
import subprocess
import sys

import pytest

from repro.crypto import fastpath
from repro.errors import SecurityViolation
from repro.kvstore import delete, get, put
from repro.sharding import ShardRouter, ShardedCluster
from repro.sharding.cluster import SerialBackend


def _under_each_fastpath(trace):
    """``{fastpath name: trace fingerprint}`` over every fastpath that
    can be instantiated here, each run under pinned entropy."""
    previous = fastpath.active_backend()
    try:
        fingerprints = {}
        for name in fastpath.available_backends():
            fastpath.select_backend(name)
            with _pinned_entropy():
                fingerprints[name] = trace()
        return fingerprints
    finally:
        fastpath.BACKEND = previous


def _assert_all_equal(fingerprints):
    """Every fastpath's fingerprint equals the first one's; returns it."""
    (reference_name, reference), *others = fingerprints.items()
    assert others, "need at least two fastpaths to compare"
    for name, fingerprint in others:
        assert fingerprint == reference, (reference_name, name)
    return reference


class _pinned_entropy:
    """Make one trace's randomness reproducible so its wire bytes can be
    compared byte-for-byte across fastpaths.

    Two sources are pinned: the fresh-nonce entry points (random by
    design — replaced with a counter, still unique per box) and
    ``os.urandom`` (the bootstrap key material — replaced with a keyed
    deterministic stream, so every run derives the *same* communication
    keys and the same plaintext encrypts to the same box).  Both nonce
    entry points share one counter: with the C fastpath the client
    invoke seal draws via ``messages._fresh_nonce`` before the C call;
    without it the fallback ``auth_encrypt`` draws from the aead pool
    instead — same logical draw site, different module.  Sharing the
    counter makes the nth draw get the nth nonce on every fastpath (and
    bypasses the aead pool, whose leftover state from earlier tests
    would otherwise shift this run's draw sequence)."""

    def __enter__(self):
        import repro.core.messages as messages
        import repro.crypto.aead as aead

        self._messages = messages
        self._aead = aead
        self._original_fresh = messages._fresh_nonce
        self._original_aead_fresh = aead._fresh_nonce
        self._original_urandom = os.urandom
        nonce_state = {"next": 0}

        def fresh() -> bytes:
            nonce_state["next"] += 1
            return nonce_state["next"].to_bytes(12, "big")

        draw_state = {"next": 0}

        def deterministic_urandom(size: int) -> bytes:
            draw_state["next"] += 1
            serial = draw_state["next"]
            out = b""
            block = 0
            while len(out) < size:
                out += hashlib.sha256(
                    b"parity-entropy"
                    + serial.to_bytes(8, "big")
                    + block.to_bytes(4, "big")
                ).digest()
                block += 1
            return out[:size]

        messages._fresh_nonce = fresh
        aead._fresh_nonce = fresh
        os.urandom = deterministic_urandom
        # Admin's rng keyword default bound the real os.urandom at import
        from repro.core.bootstrap import Admin

        self._admin_init = Admin.__init__
        self._admin_default = Admin.__init__.__kwdefaults__["rng"]
        Admin.__init__.__kwdefaults__["rng"] = deterministic_urandom
        return self

    def __exit__(self, *exc):
        self._messages._fresh_nonce = self._original_fresh
        self._aead._fresh_nonce = self._original_aead_fresh
        os.urandom = self._original_urandom
        self._admin_init.__kwdefaults__["rng"] = self._admin_default
        return False


def _record_wire(cluster):
    """Wrap every shard host's batch entrypoint so the exact request and
    reply bytes are captured per shard."""
    wire = {shard_id: [] for shard_id in cluster.shard_ids}
    for shard_id in cluster.shard_ids:
        host = cluster.shard_host(shard_id)
        original = host.send_invoke_batch

        def recording(batch, _original=original, _log=wire[shard_id]):
            replies = _original(batch)
            _log.append(
                (
                    tuple(message for _, message in batch),
                    tuple(replies),
                )
            )
            return replies

        host.send_invoke_batch = recording
    return wire


def _stored_digests(cluster, shard_ids=None):
    """Digest of every sealed blob ever written, per shard — stable
    storage must be byte-identical, version by version."""
    digests = {}
    if shard_ids is None:
        shard_ids = cluster.shard_ids
    for shard_id in sorted(shard_ids):
        storage = cluster.shard_host(shard_id).storage
        digest = hashlib.sha256()
        for index in range(storage.version_count()):
            blob = storage.load_version(index)
            digest.update(len(blob).to_bytes(8, "big"))
            digest.update(blob)
        digests[shard_id] = digest.hexdigest()
    return digests


def _audit_digests(cluster, shard_ids=None):
    digests = {}
    if shard_ids is None:
        shard_ids = cluster.shard_ids
    for shard_id in sorted(shard_ids):
        digest = hashlib.sha256()
        for log in cluster.audit_logs(shard_id):
            for record in log:
                digest.update(record.sequence.to_bytes(8, "big"))
                digest.update(record.client_id.to_bytes(8, "big"))
                digest.update(record.operation)
                digest.update(record.result)
                digest.update(record.chain)
        digests[shard_id] = digest.hexdigest()
    return digests


def _client_chains(cluster):
    return {
        (shard_id, client_id): (machine.last_sequence, machine.last_chain)
        for shard_id in cluster.shard_ids
        for client_id, machine in cluster.shard_clients(shard_id).items()
    }


def _honest_trace():
    """One deterministic mixed trace over 3 shards; returns everything
    that must be fastpath-independent."""
    cluster = ShardedCluster(shards=3, clients=3, seed=23)
    wire = _record_wire(cluster)
    router = ShardRouter(cluster)
    completed_at = []

    def done(_result):
        completed_at.append(cluster.sim.now)

    for client_id in cluster.client_ids:
        for i in range(8):
            if i % 2 == 0:
                operation = put(f"key-{client_id}-{i}", f"v{i}")
            else:
                operation = get(f"key-{client_id}-{i - 1}")
            router.submit(client_id, operation, done)
    cluster.run()
    verdict = router.verdict()
    fingerprint = {
        "wire": wire,
        "audit": _audit_digests(cluster),
        "stored": _stored_digests(cluster),
        "chains": _client_chains(cluster),
        "operations": cluster.stats.operations_completed,
        "completed_at": completed_at,
        "verdict_ok": verdict.ok,
        "forked": verdict.forked_shards,
    }
    return fingerprint


def _large_value_trace():
    """4 KiB values written, overwritten, deleted and read back: every
    state section is larger than the C keystream cache's 1024-byte slot,
    so the compiled tier streams it block by block — a different branch
    from the small-value traces — and the stored blobs must still match
    the hashlib tier byte for byte."""
    cluster = ShardedCluster(shards=2, clients=2, seed=47)
    router = ShardRouter(cluster)
    keys = [f"big-{i}" for i in range(6)]
    for round_ in range(3):
        for index, key in enumerate(keys):
            client_id = cluster.client_ids[(index + round_) % 2]
            if round_ == 2 and index % 3 == 0:
                router.submit(client_id, delete(key))
            else:
                value = f"{round_}{index}" * 2048 + "x" * index
                router.submit(client_id, put(key, value))
        cluster.run()
    for index, key in enumerate(keys):
        router.submit(cluster.client_ids[index % 2], get(key))
    cluster.run()
    verdict = router.verdict()
    return {
        "audit": _audit_digests(cluster),
        "stored": _stored_digests(cluster),
        "chains": _client_chains(cluster),
        "operations": cluster.stats.operations_completed,
        "verdict_ok": verdict.ok,
    }


def _forked_trace():
    """The fork attack from the sharded attack tests: shard 1 forks, the
    server joins the forks back, and the victim client must detect it."""
    cluster = ShardedCluster(shards=3, clients=3, seed=29, malicious_shards=(1,))
    router = ShardRouter(cluster)
    victim_keys = []
    index = 0
    while len(victim_keys) < 3:
        key = f"vk-{index}"
        if cluster.ring.owner(key) == 1:
            victim_keys.append(key)
        index += 1
    for client_id in cluster.client_ids:
        router.submit(client_id, put(victim_keys[0], f"base-{client_id}"))
    cluster.run()
    fork = cluster.fork_shard(1)
    cluster.route_client(1, 3, fork)
    router.submit(1, put(victim_keys[1], "main-side"))
    router.submit(3, put(victim_keys[2], "fork-side"))
    cluster.run()
    cluster.route_client(1, 3, 0)  # join the forks back: detection point
    router.submit(3, get(victim_keys[0]))
    cluster.run()
    violation = cluster.shard_violation(1)
    verdict = router.verdict()
    fingerprint = {
        "violation_type": type(violation).__name__,
        "violation_text": str(violation),
        "forked": verdict.forked_shards,
        "honest_ok": (verdict.shards[0].ok, verdict.shards[2].ok),
        "victim_ok": verdict.shards[1].ok,
        # the halted enclave refuses audit exports (the violation *is*
        # the evidence), so only the honest shards' logs are digestible
        "audit": _audit_digests(cluster, shard_ids=(0, 2)),
    }
    return fingerprint


def _scenario_trace():
    """The combined control-plane scenario: cross-shard transactions, an
    elastic reshard while traffic is in flight, and a crash/recover
    cycle."""
    cluster = ShardedCluster(shards=3, clients=3, seed=41)
    initial_shards = tuple(cluster.shard_ids)
    wire = _record_wire(cluster)
    router = ShardRouter(cluster, failover=True)
    keys = [f"sc-{i}" for i in range(24)]
    for index, key in enumerate(keys):
        router.submit(1 + index % 3, put(key, f"v{index}"))
    cluster.run()
    # one cross-shard transaction over two distinct owners
    grouped = {}
    for key in keys:
        grouped.setdefault(cluster.ring.owner(key), []).append(key)
    owners = sorted(grouped)[:2]
    txn_done = {}
    router.submit_txn(
        2,
        [put(grouped[owners[0]][0], "T0"), put(grouped[owners[1]][0], "T1")],
        lambda r: txn_done.setdefault("result", r),
    )
    cluster.run()
    # elastic reshard while a stream of writes is in flight
    streams = {
        client_id: [put(f"el-{client_id}-{i}", "v") for i in range(10)]
        for client_id in cluster.client_ids
    }

    def start(client_id):
        def pump(_result=None):
            if streams[client_id]:
                router.submit(client_id, streams[client_id].pop(0), pump)

        pump()

    for client_id in cluster.client_ids:
        start(client_id)
    cluster.add_shard(at=5e-4)
    cluster.run()
    # crash/recover: parked work replays exactly once on the new generation
    cluster.crash_shard(0)
    parked_key = next(k for k in keys if cluster.ring.owner(k) == 0)
    router.submit(1, put(parked_key, "parked"))
    cluster.recover_shard(0)
    cluster.run()
    for index, key in enumerate(keys):
        router.submit(1 + index % 3, get(key))
    cluster.run()
    verdict = router.verdict()
    fingerprint = {
        # wire recording only covers the initial shards (the elastic one
        # is provisioned mid-run); its traffic is pinned via audit/storage
        "wire": wire,
        "audit": _audit_digests(cluster),
        "stored": _stored_digests(cluster),
        "chains": _client_chains(cluster),
        "operations": cluster.stats.operations_completed,
        "committed": txn_done["result"].committed,
        "verdict_ok": verdict.ok,
        "forked": verdict.forked_shards,
        "shards": sorted(cluster.shard_ids),
        "initial": initial_shards,
    }
    return fingerprint


class TestCrossBackendParity:
    def test_honest_trace_byte_identical(self):
        reference = _assert_all_equal(_under_each_fastpath(_honest_trace))
        assert reference["verdict_ok"] and reference["forked"] == []

    def test_large_value_sections_byte_identical(self):
        reference = _assert_all_equal(_under_each_fastpath(_large_value_trace))
        assert reference["verdict_ok"] and reference["operations"] == 24

    def test_fork_detected_identically_under_every_backend(self):
        reference = _assert_all_equal(_under_each_fastpath(_forked_trace))
        assert reference["violation_type"]  # a violation was in fact recorded
        # a *joined-back* fork surfaces as a shard violation, not a
        # maintained-fork entry (those only list diverged, unjoined forks)
        assert reference["forked"] == []
        assert reference["honest_ok"] == (True, True)
        assert not reference["victim_ok"]

    def test_reshard_crash_txn_scenario_byte_identical(self):
        reference = _assert_all_equal(_under_each_fastpath(_scenario_trace))
        assert reference["committed"] and reference["verdict_ok"]
        assert len(reference["shards"]) == len(reference["initial"]) + 1


class TestFastpathMatrixParity:
    #: one digest per fastpath, computed in a fresh interpreter so the
    #: fastpath selection is genuinely what the env variable says (it is
    #: pinned at import time)
    _DRIVER = r"""
import hashlib, os, sys
# pin entropy BEFORE any repro import so import-time default-arg bindings
# (Admin's rng) capture the deterministic stream too
_draws = {"next": 0}
def _det_urandom(size: int) -> bytes:
    _draws["next"] += 1
    out = b""
    block = 0
    while len(out) < size:
        out += hashlib.sha256(
            b"parity-entropy"
            + _draws["next"].to_bytes(8, "big")
            + block.to_bytes(4, "big")
        ).digest()
        block += 1
    return out[:size]
os.urandom = _det_urandom
from repro.crypto import fastpath
assert fastpath.active_backend().name == os.environ["REPRO_FASTPATH"]
import repro.core.messages as messages
import repro.crypto.aead as aead
# one shared counter for BOTH fresh-nonce entry points: with the C
# fastpath the client invoke seal draws via messages._fresh_nonce before
# the C call; without it the fallback auth_encrypt draws from the aead
# pool instead — same logical draw site, different module.  Sharing the
# counter makes the nth invoke get the nth nonce on every fastpath.
_state = {"next": 0}
def _pinned() -> bytes:
    _state["next"] += 1
    return _state["next"].to_bytes(12, "big")
messages._fresh_nonce = _pinned
aead._fresh_nonce = _pinned
from repro.kvstore import get, put
from repro.sharding import ShardRouter, ShardedCluster
cluster = ShardedCluster(shards=2, clients=2, seed=37)
# one accumulator per shard, folded in shard order below
shard_wire = {}
for shard_id in cluster.shard_ids:
    host = cluster.shard_host(shard_id)
    original = host.send_invoke_batch
    shard_wire[shard_id] = hashlib.sha256()
    def recording(batch, _original=original, _wire=shard_wire[shard_id]):
        replies = _original(batch)
        for (_cid, message), reply in zip(batch, replies):
            _wire.update(message)
            _wire.update(reply)
        return replies
    host.send_invoke_batch = recording
router = ShardRouter(cluster)
for client_id in cluster.client_ids:
    for i in range(6):
        if i % 2 == 0:
            router.submit(client_id, put(f"m-{client_id}-{i}", f"v{i}"))
        else:
            router.submit(client_id, get(f"m-{client_id}-{i - 1}"))
cluster.run()
assert router.verdict().ok
wire = hashlib.sha256()
for shard_id in sorted(cluster.shard_ids):
    wire.update(shard_id.to_bytes(4, "big"))
    wire.update(shard_wire[shard_id].digest())
    for log in cluster.audit_logs(shard_id):
        for record in log:
            wire.update(record.operation + record.result + record.chain)
    for client_id, machine in sorted(cluster.shard_clients(shard_id).items()):
        wire.update(machine.last_sequence.to_bytes(8, "big"))
        wire.update(machine.last_chain)
    storage = cluster.shard_host(shard_id).storage
    for index in range(storage.version_count()):
        wire.update(storage.load_version(index))
print(wire.hexdigest())
"""

    def _cell(self, fastpath_name):
        env = dict(os.environ, REPRO_FASTPATH=fastpath_name)
        env["PYTHONPATH"] = os.pathsep.join(sys.path)
        proc = subprocess.run(
            [sys.executable, "-c", self._DRIVER],
            env=env,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    def test_wire_identical_across_fastpath_and_interpreter(self):
        digests = {
            name: self._cell(name) for name in fastpath.available_backends()
        }
        assert len(set(digests.values())) == 1, digests


class TestExecutionBackendUnit:
    @pytest.mark.parametrize("name", ["pipelined", "process"])
    def test_removed_backend_names_rejected(self, name):
        """Nothing takes a backend name any more — not even to refuse it."""
        with pytest.raises(TypeError, match="execution"):
            ShardedCluster(shards=1, clients=1, execution=name)

    def test_serial_submit_time_semantics(self):
        backend = SerialBackend()
        order = []
        replies = backend.submit(lambda: order.append("ran") or [1])
        assert order == ["ran"] and replies == [1]  # ran inline, at submit
        assert backend.batches_submitted == 1
        with pytest.raises(SecurityViolation):
            backend.submit(self._boom)

    @staticmethod
    def _boom():
        raise SecurityViolation("boom")

    def test_every_batch_ecall_passes_through_the_seam_once(self):
        cluster = ShardedCluster(shards=2, clients=2, seed=5)
        router = ShardRouter(cluster)
        for client_id in cluster.client_ids:
            for i in range(4):
                router.submit(client_id, put(f"s-{client_id}-{i}", "v"))
        cluster.run()
        assert cluster.execution.batches_submitted == sum(
            cluster.stats.per_shard_batches.values()
        )
