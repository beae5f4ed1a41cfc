"""StreamingChecker unit tests: parity with the post-mortem checker,
online detection, and stable-frontier garbage collection.

Every parity test runs the same evidence through both pipelines — the
incremental :class:`StreamingChecker` and ``views_from_audit_logs`` +
``check_fork_linearizable`` — and asserts the verdicts match down to the
exception type and message.
"""

import pytest

from repro import serde
from repro.consistency.fork_linearizability import (
    check_fork_linearizable,
    views_from_audit_logs,
)
from repro.consistency.stable_subsequence import stable_bound_frontier
from repro.consistency.history import OperationRecord
from repro.consistency.streaming import StreamingChecker
from repro.core.context import AuditRecord
from repro.core.hashchain import ChainPoint
from repro.crypto.hashing import GENESIS_HASH, chain_extend
from repro.errors import SecurityViolation
from repro.kvstore import KvsFunctionality


def build_log(spec, start_chain=GENESIS_HASH, start_sequence=0):
    """(client_id, operation, result) triples -> a valid audit log."""
    log = []
    value = start_chain
    for offset, (client_id, operation, result) in enumerate(spec):
        sequence = start_sequence + offset + 1
        op_bytes = serde.encode(list(operation))
        value = chain_extend(value, op_bytes, sequence, client_id)
        log.append(
            AuditRecord(
                sequence=sequence,
                client_id=client_id,
                operation=op_bytes,
                result=serde.encode(result),
                chain=value,
            )
        )
    return log


def make_checker(client_ids=(1, 2), events=None):
    return StreamingChecker(
        functionality=KvsFunctionality(),
        client_ids=list(client_ids),
        on_event=(
            (lambda name, fields: events.append((name, fields)))
            if events is not None
            else None
        ),
    )


def point_at(log, sequence):
    return (sequence, log[sequence - 1].chain) if sequence else (0, GENESIS_HASH)


def completion(client_id, sequence, operation, result, invoked_at, responded_at):
    """One completed operation as the recorded history would hold it."""
    return OperationRecord(
        op_id=sequence,
        client_id=client_id,
        operation=operation,
        result=result,
        invoked_at=invoked_at,
        responded_at=responded_at,
        sequence=sequence,
    )


def post_mortem_sig(logs, points, records=()):
    """(violation signature, fork points) from the post-mortem pipeline."""
    chain_points = {
        client_id: ChainPoint(sequence, chain)
        for client_id, (sequence, chain) in points.items()
    }
    lookup = {(record.client_id, record.sequence): record for record in records}
    try:
        views = views_from_audit_logs(logs, chain_points, lookup)
        tree = check_fork_linearizable(views, KvsFunctionality())
        return None, tree.fork_points()
    except SecurityViolation as violation:
        return (type(violation).__name__, str(violation)), None


def streaming_sig(checker):
    verdict = checker.result()
    if verdict.violation is not None:
        return (
            (type(verdict.violation).__name__, str(verdict.violation)),
            None,
        )
    return None, verdict.fork_points


BASE = [
    (1, ("PUT", "k", "v1"), None),
    (2, ("GET", "k"), "v1"),
]


class TestParity:
    def assert_parity(self, logs, points, client_ids=(1, 2), records=()):
        """Both pipelines over the same evidence; ``records`` are the
        history's completed operations (streamed in after the audit
        records, and the post-mortem's lookup).  Returns the shared
        signature and the streaming checker's events."""
        events = []
        checker = make_checker(client_ids, events)
        for log in logs:
            log_id = checker.register_log()
            checker.feed_records(log_id, log)
        for record in records:
            checker.observe_completion(record)
        for client_id, (sequence, chain) in points.items():
            checker.observe_point(client_id, sequence, chain)
        checker.advance()
        signature = streaming_sig(checker)
        assert signature == post_mortem_sig(logs, points, records)
        return signature, events

    def test_honest_shared_log(self):
        log = build_log(BASE)
        self.assert_parity(
            [log], {1: point_at(log, 2), 2: point_at(log, 2)}
        )

    def test_prefix_views(self):
        log = build_log(BASE + [(1, ("PUT", "k", "v2"), "v1")])
        self.assert_parity(
            [log], {1: point_at(log, 3), 2: point_at(log, 2)}
        )

    def test_clean_fork(self):
        base = build_log(BASE)
        branch_a = base + build_log(
            [(1, ("PUT", "k", "a"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        branch_b = base + build_log(
            [(2, ("PUT", "k", "b"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        points = {1: point_at(branch_a, 3), 2: point_at(branch_b, 3)}
        self.assert_parity([branch_a, branch_b], points)
        # and the fork point itself is the post-mortem's
        _, fork_points = post_mortem_sig([branch_a, branch_b], points)
        assert fork_points == [2]

    def test_join_attack(self):
        base = build_log(BASE)
        branch_a = base + build_log(
            [(1, ("PUT", "k", "a"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        branch_b = base + build_log(
            [(2, ("PUT", "k", "b"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        tail = build_log(
            [(2, ("GET", "k"), "a")],
            start_chain=branch_a[-1].chain, start_sequence=3,
        )
        joined_a = branch_a + tail
        fake_joined_b = branch_b + tail
        points = {1: point_at(joined_a, 4), 2: point_at(fake_joined_b, 4)}
        sig, _ = post_mortem_sig([joined_a, fake_joined_b], points)
        assert sig is not None  # the attack IS caught post-mortem...
        _, events = self.assert_parity([joined_a, fake_joined_b], points)
        # the spliced tail does not extend branch b's chain
        assert events == [
            ("fork-divergence", {"log_a": 0, "log_b": 1, "position": 3}),
            (
                "chain-violation",
                {"log": 1, "message": "audit log chain mismatch at sequence 4"},
            ),
            (
                "stable-frontier-fork",
                {"log_a": 0, "log_b": 1, "divergence": 3, "frontier": 4},
            ),
        ]

    def test_rechained_join(self):
        """The same join with the shared operation re-chained onto branch
        b: both logs verify, and the operation two diverged views share at
        position 4 is the join."""
        base = build_log(BASE)
        branch_a = base + build_log(
            [(1, ("PUT", "k", "a"), "v1"), (2, ("GET", "k"), "a")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        branch_b = base + build_log(
            [(2, ("PUT", "k", "b"), "v1"), (2, ("GET", "k"), "b")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        signature, events = self.assert_parity(
            [branch_a, branch_b],
            {1: point_at(branch_a, 4), 2: point_at(branch_b, 4)},
        )
        assert signature == (
            (
                "ForkDetected",
                "views of clients 1 and 2 diverge at position 2 but later "
                "share 1 operation(s): forks were joined",
            ),
            None,
        )
        assert events == [
            ("fork-divergence", {"log_a": 0, "log_b": 1, "position": 3}),
            (
                "fork-join",
                {"log_a": 0, "log_b": 1, "position": 4, "divergence": 2},
            ),
            (
                "stable-frontier-fork",
                {"log_a": 0, "log_b": 1, "divergence": 3, "frontier": 4},
            ),
        ]

    def test_chain_mismatch(self):
        log = build_log(BASE)
        bad = log[:1] + [
            AuditRecord(
                sequence=2, client_id=2,
                operation=log[1].operation, result=log[1].result,
                chain=b"\x00" * 32,
            )
        ]
        self.assert_parity([bad], {1: point_at(bad, 1), 2: (0, GENESIS_HASH)})

    def test_sequence_gap(self):
        log = build_log(BASE + [(1, ("PUT", "k", "v2"), "v1")])
        gapped = [log[0], log[2]]
        self.assert_parity(
            [gapped], {1: point_at(log, 1), 2: (0, GENESIS_HASH)}
        )

    def test_replay_mismatch(self):
        log = build_log([(1, ("PUT", "k", "v"), None), (2, ("GET", "k"), "WRONG")])
        self.assert_parity([log], {1: point_at(log, 2), 2: point_at(log, 2)})

    def test_unlocated_point(self):
        log = build_log(BASE)
        signature, events = self.assert_parity(
            [log], {1: point_at(log, 2), 2: (2, b"\xff" * 32)}
        )
        assert signature == (
            (
                "SecurityViolation",
                "client 2 observed a chain value on no enclave log",
            ),
            None,
        )
        # the checker itself stays silent: the observer reports an
        # unlocated point per boundary (see the sharding parity suite)
        assert events == []

    @pytest.mark.parametrize("arrival", ["in-order", "reversed"])
    def test_real_time_contradiction(self, arrival):
        """Record 2 responded before record 1 was invoked, yet the log
        serializes it second — whichever completion streams in last finds
        the contradiction (as the later or as the earlier element)."""
        log = build_log(BASE)
        records = [
            completion(1, 1, ("PUT", "k", "v1"), None, 10, 11),
            completion(2, 2, ("GET", "k"), "v1", 1, 2),
        ]
        if arrival == "reversed":
            records.reverse()
        signature, events = self.assert_parity(
            [log], {1: point_at(log, 2), 2: point_at(log, 2)}, records=records
        )
        assert signature == (
            (
                "SecurityViolation",
                "view of client 1 contradicts real-time order",
            ),
            None,
        )
        assert [fields for name, fields in events if name == "rt-violation"] == [
            {"log": 0, "position": 2}
        ]

    def test_late_invocation_names_the_leftmost_contradicted_record(self):
        """Records 2 and 3 both responded before record 1 was invoked and
        record 1's completion streams in last: the view stops respecting
        real time at position 2, the first of the two."""
        log = build_log(BASE + [(2, ("GET", "k"), "v1")])
        records = [
            completion(2, 3, ("GET", "k"), "v1", 3, 4),
            completion(2, 2, ("GET", "k"), "v1", 1, 2),
            completion(1, 1, ("PUT", "k", "v1"), None, 10, 11),
        ]
        _, events = self.assert_parity(
            [log], {1: point_at(log, 1), 2: point_at(log, 3)}, records=records
        )
        assert events == [("rt-violation", {"log": 0, "position": 2})]

    def test_substituted_operation_replays_downstream(self):
        """The history shows client 1 writing a different value than the
        audited bytes at sequence 1: the view holds the history's
        operation, so the read behind it no longer replays."""
        log = build_log(BASE)
        records = [completion(1, 1, ("PUT", "k", "other"), None, 1, 2)]
        signature, events = self.assert_parity(
            [log], {1: point_at(log, 2), 2: point_at(log, 2)}, records=records
        )
        assert signature == (
            (
                "SecurityViolation",
                "view of client 1 is not a correct execution: operation "
                "['GET', 'k'] returned 'v1', expected 'other'",
            ),
            None,
        )
        assert ("replay-mismatch", {"log": 0, "sequence": 2}) in events
        assert events == [("replay-mismatch", {"log": 0, "sequence": 2})]

    def test_differing_completion_rekeys(self, monkeypatch):
        """The substitution above is found by key: the completion and the
        audited operation are both encoded, and the record holds the
        history's key from then on."""
        from repro.consistency import streaming

        encoded = []
        canonical_key = streaming._canonical_key
        monkeypatch.setattr(
            streaming, "_canonical_key",
            lambda *fields: encoded.append(fields) or canonical_key(*fields),
        )
        checker = make_checker()
        log = build_log(BASE)
        checker.feed_records(checker.register_log(), log)
        assert encoded == []
        checker.observe_completion(
            completion(1, 1, ("PUT", "k", "other"), None, 1, 2)
        )
        assert sorted(encoded, key=repr) == [
            (1, ("PUT", "k", "other"), 1),
            (1, ["PUT", "k", "v1"], 1),
        ]
        assert checker._logs[0].records[1].key == canonical_key(
            1, ["PUT", "k", "other"], 1
        )

    def test_single_log_run_never_encodes_a_key(self, monkeypatch):
        """One log, and every completion carries the audited operation as
        the tuple ``ShardRouter`` records: the decoded list the view holds
        is the same operation, so no record is ever keyed."""
        from repro.consistency import streaming

        encodes = []
        monkeypatch.setattr(
            streaming, "_canonical_key",
            lambda *fields: encodes.append(fields) or b"",
        )
        spec = [
            (1, ("PUT", "k", "v1"), None),
            (2, ("GET", "k"), "v1"),
            (1, ("__LCM_TXN_PREPARE__", "t", [["PUT", "k", "v2"]]),
             ["__LCM_TXN_PREPARED__", ["v1"]]),
            (2, ("DEL", "other"), None),
        ]
        log = build_log(spec)
        checker = make_checker()
        log_id = checker.register_log()
        for sequence, (client_id, operation, result) in enumerate(spec, start=1):
            checker.feed_records(log_id, [log[sequence - 1]])
            checker.observe_completion(
                completion(
                    client_id, sequence, operation, result,
                    2 * sequence, 2 * sequence + 1,
                )
            )
            checker.observe_point(client_id, *point_at(log, sequence))
            checker.advance()
        assert checker.result().ok
        assert checker.floor == 3 and checker.retained_records == 1
        assert encodes == []

    def test_substitution_at_a_position_two_forks_share(self):
        """The same substitution below a fork: both logs' record 2 takes
        the history's operation (a read of another key, so every replay
        still holds), the pair is re-derived after each, and the views
        still share exactly the two-record prefix."""
        base = build_log(BASE)
        branch_a = base + build_log(
            [(1, ("PUT", "k", "a"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        branch_b = base + build_log(
            [(2, ("PUT", "k", "b"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        records = [completion(2, 2, ("GET", "elsewhere"), None, 3, 4)]
        signature, events = self.assert_parity(
            [branch_a, branch_b],
            {1: point_at(branch_a, 3), 2: point_at(branch_b, 3)},
            records=records,
        )
        assert signature == (None, [2])
        # announced at feed time; after both repairs the pair still
        # diverges at position 3, not at the substituted position
        assert events == [
            ("fork-divergence", {"log_a": 0, "log_b": 1, "position": 3}),
            (
                "stable-frontier-fork",
                {"log_a": 0, "log_b": 1, "divergence": 3, "frontier": 3},
            ),
        ]


class TestOnlineEvents:
    def test_fork_divergence_emitted_at_feed_time(self):
        events = []
        checker = make_checker(events=events)
        base = build_log(BASE)
        branch_a = base + build_log(
            [(1, ("PUT", "k", "a"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        branch_b = base + build_log(
            [(2, ("PUT", "k", "b"), "v1")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        checker.feed_records(checker.register_log(), branch_a)
        assert events == []
        checker.feed_records(checker.register_log(), branch_b)
        # detected the moment the diverging position streamed in — no
        # verdict call needed
        assert ("fork-divergence", {"log_a": 0, "log_b": 1, "position": 3}) in events
        assert events == [
            ("fork-divergence", {"log_a": 0, "log_b": 1, "position": 3})
        ]

    def test_chain_violation_emitted_at_feed_time(self):
        events = []
        checker = make_checker(events=events)
        log = build_log(BASE)
        checker.feed_records(
            checker.register_log(),
            [log[0], log[0]],  # repeated sequence = gap
        )
        assert events and events[0][0] == "chain-violation"

    def test_replay_mismatch_emitted_at_feed_time(self):
        events = []
        checker = make_checker(events=events)
        log = build_log([(1, ("PUT", "k", "v"), None), (2, ("GET", "k"), "BAD")])
        checker.feed_records(checker.register_log(), log)
        assert ("replay-mismatch", {"log": 0, "sequence": 2}) in events


class TestStableFrontierGC:
    def _long_log(self, rounds, per_round=4):
        spec = []
        for round_number in range(rounds):
            for client_id in (1, 2):
                for slot in range(per_round // 2):
                    key = f"k-{round_number}-{slot}"
                    spec.append((client_id, ("PUT", key, str(client_id)), None))
        return build_log(spec)

    def test_retained_evidence_tracks_unstable_suffix(self):
        checker = make_checker()
        log = self._long_log(rounds=10)
        log_id = checker.register_log()
        chunk = 4
        max_retained = 0
        for start in range(0, len(log), chunk):
            batch = log[start:start + chunk]
            checker.feed_records(log_id, batch)
            upto = start + len(batch)
            checker.observe_point(1, *point_at(log, upto))
            checker.observe_point(2, *point_at(log, upto))
            checker.advance()
            max_retained = max(max_retained, checker.retained_records)
        assert checker.log_length(log_id) == len(log)
        # both clients acked everything: the whole log fell below the
        # floor and was discarded
        assert checker.floor == len(log)
        assert checker.retained_records == 0
        assert max_retained <= chunk

    def test_floor_lags_the_slowest_client(self):
        checker = make_checker(client_ids=(1, 2, 3))
        log = self._long_log(rounds=5)
        log_id = checker.register_log()
        checker.feed_records(log_id, log)
        checker.observe_point(1, *point_at(log, len(log)))
        checker.observe_point(2, *point_at(log, 12))
        checker.observe_point(3, *point_at(log, 4))
        checker.advance()
        # majority (2-of-3) frontier vs all-clients GC floor
        assert checker.frontier == 12
        assert checker.floor == 4
        assert checker.retained_records == len(log) - 4

    def test_verdict_parity_survives_collection(self):
        checker = make_checker()
        log = self._long_log(rounds=8)
        log_id = checker.register_log()
        for start in range(0, len(log), 4):
            checker.feed_records(log_id, log[start:start + 4])
            upto = min(start + 4, len(log))
            checker.observe_point(1, *point_at(log, upto))
            checker.observe_point(2, *point_at(log, upto))
            checker.advance()
        assert checker.retained_records == 0  # everything GC'd
        points = {1: point_at(log, len(log)), 2: point_at(log, len(log))}
        assert streaming_sig(checker) == post_mortem_sig([log], points)

    def test_fork_pins_the_floor(self):
        """A diverged pair stops the floor at the matched prefix even when
        every client acked far beyond it — the divergence region must stay
        comparable."""
        checker = make_checker()
        base = build_log(BASE)
        branch_a = base + build_log(
            [(1, ("PUT", "k", "a"), "v1"), (1, ("PUT", "k", "a2"), "a")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        branch_b = base + build_log(
            [(2, ("PUT", "k", "b"), "v1"), (2, ("PUT", "k", "b2"), "b")],
            start_chain=base[-1].chain, start_sequence=2,
        )
        checker.feed_records(checker.register_log(), branch_a)
        checker.feed_records(checker.register_log(), branch_b)
        checker.observe_point(1, *point_at(branch_a, 4))
        checker.observe_point(2, *point_at(branch_b, 4))
        checker.advance()
        assert checker.floor == 2  # the common prefix, not the acks
        assert checker.retained_records > 0


class TestForkRegistration:
    def test_fork_inherits_gc_checkpoint(self):
        """A fork whose prefix chain-matches the source's checkpoint
        re-feeds only the retained suffix — registering a fork after GC
        does not resurrect the discarded prefix."""
        checker = make_checker()
        spec = [(1, ("PUT", f"k-{i}", "v"), None) for i in range(20)]
        log = build_log(spec)
        log_id = checker.register_log()
        checker.feed_records(log_id, log)
        checker.observe_point(1, *point_at(log, 20))
        checker.observe_point(2, *point_at(log, 16))
        checker.advance()
        assert checker.floor == 16
        fork_id = checker.register_fork(0, list(log))
        assert checker.log_length(fork_id) == 20
        # retained: 4 per log (positions 17..20), not 20 + 24
        assert checker.retained_records == 8
        assert streaming_sig(checker)[0] is None

    def test_fork_contradicting_checkpoint_is_a_divergence(self):
        events = []
        checker = make_checker(events=events)
        spec = [(1, ("PUT", f"k-{i}", "v"), None) for i in range(10)]
        log = build_log(spec)
        other_spec = [(1, ("PUT", f"x-{i}", "v"), None) for i in range(10)]
        other = build_log(other_spec)
        log_id = checker.register_log()
        checker.feed_records(log_id, log)
        checker.observe_point(1, *point_at(log, 10))
        checker.observe_point(2, *point_at(log, 10))
        checker.advance()
        assert checker.floor == 10
        checker.register_fork(0, list(other))
        assert any(name == "fork-divergence" for name, _ in events)


class TestStableBoundFrontier:
    def test_majority_and_full_quorum(self):
        bounds = {1: 5, 2: 3, 3: 1}
        assert stable_bound_frontier(bounds, 2) == 3
        assert stable_bound_frontier(bounds, 3) == 1
        assert stable_bound_frontier(bounds, 1) == 5

    def test_empty_bounds(self):
        assert stable_bound_frontier({}, 1) == 0
