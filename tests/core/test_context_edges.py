"""Trusted-context edge cases: persistence of configuration, batch paths."""

import pytest

from repro import serde
from repro.core.context import NOP_OPERATION
from repro.core.membership import add_client, remove_client
from repro.core.messages import InvokePayload, ReplyPayload
from repro.errors import ConfigurationError
from repro.kvstore import get, put

from tests.conftest import build_deployment


class TestQuorumPersistence:
    def test_quorum_override_survives_restart(self):
        """A full-quorum deployment must still require all clients after a
        reboot — the override is part of the sealed protocol state."""
        host, _, (alice, bob, carol) = build_deployment(quorum_override=3)
        sequence = alice.invoke(put("k", "v")).sequence
        host.reboot()
        # alice + bob acknowledge; carol never does -> must NOT stabilise
        for _ in range(3):
            alice.poll_stability()
            bob.poll_stability()
        assert not alice.is_stable(sequence)
        # once carol participates, stability catches up
        carol.poll_stability()
        alice.poll_stability()
        carol.poll_stability()
        alice.poll_stability()
        assert alice.is_stable(sequence)

    def test_quorum_capped_at_group_size_after_removal(self):
        host, deployment, (alice, bob, carol) = build_deployment(quorum_override=3)
        remove_client(deployment, host, 3)
        sequence = alice.invoke(put("k", "v")).sequence
        for _ in range(2):
            alice.poll_stability()
            bob.poll_stability()
        alice.poll_stability()
        assert alice.is_stable(sequence)  # quorum clamped to remaining 2


class TestBatchPaths:
    def _sealed(self, deployment, client, operation, retry=False):
        return InvokePayload(
            client_id=client.client_id,
            last_sequence=client.last_sequence,
            last_chain=client.last_chain,
            operation=serde.encode(list(operation)),
            retry=retry,
        ).seal(deployment.communication_key)

    def test_empty_batch_is_harmless(self):
        host, _, _ = build_deployment()
        before = host.stored_versions()
        assert host.send_invoke_batch([]) == []
        # an empty batch still stores (degenerate but safe) or not — what
        # matters is that it does not corrupt the protocol state:
        host_after = host.enclave.ecall("status", None)
        assert host_after["sequence"] == 0
        assert host.stored_versions() >= before

    def test_single_invoke_ecall_is_gone(self):
        """One INVOKE is a batch of one; programs expose no second entry."""
        from repro.baselines.sgx_kvs import make_sgx_kvs_factory
        from repro.errors import ConfigurationError
        from repro.kvstore import KvsFunctionality

        host, _, _ = build_deployment()
        baseline = make_sgx_kvs_factory(KvsFunctionality)()
        for program in (host.enclave, baseline):
            with pytest.raises(ConfigurationError, match="unknown ecall 'invoke'"):
                program.ecall("invoke", b"")

    def test_nop_inside_batch(self):
        host, deployment, (alice, bob, _) = build_deployment()
        messages = [
            (1, self._sealed(deployment, alice, put("k", "v"))),
            (2, self._sealed(deployment, bob, NOP_OPERATION)),
        ]
        replies = host.send_invoke_batch(messages)
        decoded = [
            ReplyPayload.unseal(reply, deployment.communication_key)
            for reply in replies
        ]
        assert decoded[0].sequence == 1
        assert decoded[1].sequence == 2
        assert serde.decode(decoded[1].result) is None

    def test_violation_mid_batch_halts_whole_context(self):
        from repro.errors import SecurityViolation

        host, deployment, (alice, bob, _) = build_deployment()
        bad = InvokePayload(
            client_id=2,
            last_sequence=5,  # bob never executed anything: stale/ahead
            last_chain=b"\x00" * 32,
            operation=serde.encode(["GET", "k"]),
        ).seal(deployment.communication_key)
        messages = [
            (1, self._sealed(deployment, alice, put("k", "v"))),
            (2, bad),
        ]
        with pytest.raises(SecurityViolation):
            host.send_invoke_batch(messages)
        with pytest.raises(SecurityViolation):
            alice.invoke(get("k"))  # halted for everyone

    def test_audit_mode_with_batches(self):
        host, deployment, (alice, bob, _) = build_deployment(audit=True)
        messages = [
            (1, self._sealed(deployment, alice, put("a", "1"))),
            (2, self._sealed(deployment, bob, put("b", "2"))),
        ]
        host.send_invoke_batch(messages)
        log = host.enclave.ecall("export_audit_log", None)
        assert [record.sequence for record in log] == [1, 2]


class TestBatchPathParity:
    """The native passes (``c`` fastpath) and the Python encoding of
    Alg. 2 (``python`` fastpath) must agree on every observable outcome of
    a batch: replies, diagnostics, committed prefix, halted state."""

    @pytest.fixture
    def select_fastpath(self):
        from repro.crypto import fastpath

        if "c" not in fastpath.available_backends():
            pytest.skip("compiled fastpath backend unavailable")
        previous = fastpath.active_backend()
        yield fastpath.select_backend
        fastpath.BACKEND = previous

    @staticmethod
    def _sealed(deployment, client_id, tc, hc, operation, retry=False):
        operation = serde.encode(list(operation))
        if retry is None:  # outside the C codec: seal the generic encoding
            from repro.crypto.aead import auth_encrypt

            return auth_encrypt(
                serde.encode(["INVOKE", tc, hc, operation, client_id, None]),
                deployment.communication_key,
                associated_data=b"lcm/invoke",
            )
        return InvokePayload(
            client_id=client_id,
            last_sequence=tc,
            last_chain=hc,
            operation=operation,
            retry=retry,
        ).seal(deployment.communication_key)

    def _outcome(self, odd_one):
        """Run ``[alice, bob, odd_one(carol), dave]`` as one batch on a
        fresh 4-client deployment (carol has one earlier operation) and
        project everything observable."""
        host, deployment, (alice, bob, carol, dave) = build_deployment(
            clients=4, audit=True
        )
        carol.invoke(put("c", "0"))
        odd = odd_one(carol)
        messages = [
            (1, self._sealed(deployment, 1, 0, alice.last_chain, put("a", "1"))),
            (2, self._sealed(deployment, 2, 0, bob.last_chain, put("b", "2"))),
            (odd[0], self._sealed(deployment, *odd)),
            (4, self._sealed(deployment, 4, 0, dave.last_chain, get("a"))),
        ]
        try:
            replies = host.send_invoke_batch(messages)
        except Exception as exc:
            served = (type(exc), str(exc))
        else:
            served = [
                ReplyPayload.unseal(reply, deployment.communication_key)
                for reply in replies
            ]
        try:
            after = host.enclave.ecall("status", None)
        except Exception as exc:
            after = (type(exc), str(exc))
        program = host.enclave._program
        log = [
            (r.sequence, r.client_id, r.operation, r.result, r.chain)
            for r in program.audit_log
        ]
        return served, after, log, program._sequence, program._chain

    VIOLATIONS = {
        "unknown-client": (
            lambda carol: (99, 0, carol.last_chain, get("c")),
            "SecurityViolation", "unknown client 99",
        ),
        "replay": (
            lambda carol: (3, 0, carol.last_chain, get("c")),
            "ReplayDetected", "client 3 presented stale sequence 0 < 1",
        ),
        "rollback": (
            lambda carol: (3, 6, carol.last_chain, get("c")),
            "RollbackDetected",
            "client 3 is ahead of T (6 > 1): T's state was rolled back",
        ),
        "fork": (
            lambda carol: (3, 1, b"\x00" * 32, get("c")),
            "ForkDetected",
            "client 3 hash-chain value diverges from V: histories have forked",
        ),
    }

    @pytest.mark.parametrize("name", list(VIOLATIONS))
    def test_mid_batch_halt_is_identical_on_both_paths(
        self, name, select_fastpath
    ):
        odd_one, kind, message = self.VIOLATIONS[name]
        outcomes = {}
        for backend in ("c", "python"):
            select_fastpath(backend)
            outcomes[backend] = self._outcome(odd_one)
        assert outcomes["c"] == outcomes["python"]
        served, after, log, sequence, _ = outcomes["c"]
        assert (served[0].__name__, served[1]) == (kind, message)
        assert (after[0].__name__, after[1]) == (
            kind, f"context halted: {message}"
        )
        # carol's earlier operation plus the two ahead of the violation
        assert [record[:2] for record in log] == [(1, 3), (2, 1), (3, 2)]
        assert sequence == 3

    NON_CANONICAL = {
        # never produced by the protocol, whose counters start at zero
        "tc-beyond-int64": lambda carol: (
            3, 2**63, carol.last_chain, get("c")
        ),
        # a retry marker the C parser rejects; Python reads it as False
        "retry-none": lambda carol: (3, 1, carol.last_chain, get("c"), None),
    }

    @pytest.mark.parametrize("name", list(NON_CANONICAL))
    def test_native_bail_out_touches_nothing_then_python_decides(
        self, name, select_fastpath, monkeypatch
    ):
        odd_one = self.NON_CANONICAL[name]
        select_fastpath("python")
        expected = self._outcome(odd_one)

        backend = select_fastpath("c")
        native_open = backend.invoke_batch_open
        calls = []

        def spying_open(*args):
            # args[5:10] are V's columns (ids, ack, seq, chains, acks);
            # a bail-out returns a bare status, with no (t, h) head
            before = [bytes(column) for column in args[5:10]]
            result = native_open(*args)
            after = [bytes(column) for column in args[5:10]]
            calls.append((len(args[4]), result, after == before))
            return result

        monkeypatch.setattr(backend, "invoke_batch_open", spying_open)
        assert self._outcome(odd_one) == expected
        # the 4-message batch bailed out at position 2 with V exactly as
        # pass A found it (t and h stay the context's own)
        assert calls[-1] == (4, -2002, True)
        served = expected[0]
        if name == "retry-none":
            assert [reply.sequence for reply in served] == [2, 3, 4, 5]
        else:
            assert served[0].__name__ == "RollbackDetected"


class TestMembershipEdges:
    def test_rejoining_id_starts_fresh(self):
        host, deployment, (alice, *_) = build_deployment()
        dave = add_client(deployment, host, 4, host)
        dave.invoke(put("d", "1"))
        dave.invoke(put("d", "2"))
        remove_client(deployment, host, 4)
        dave2 = add_client(deployment, host, 4, host)
        # the new incarnation starts with a zero context and is accepted
        result = dave2.invoke(get("d"))
        assert result.result == "2"

    def test_admin_request_with_wrong_key_rejected(self):
        from repro.crypto.aead import AeadKey, auth_encrypt
        from repro.errors import AuthenticationFailure

        host, deployment, _ = build_deployment()
        forged = auth_encrypt(
            serde.encode(["ADD_CLIENT", 99]),
            AeadKey(b"\x0c" * 16),
            associated_data=b"lcm/admin",
        )
        with pytest.raises(AuthenticationFailure):
            host.enclave.ecall("admin", forged)

    def test_communication_key_cannot_drive_admin_channel(self):
        """kC holders (ordinary clients) must not be able to mutate the
        group — the admin channel uses an independent key kA."""
        from repro.crypto.aead import auth_encrypt
        from repro.errors import AuthenticationFailure

        host, deployment, _ = build_deployment()
        forged = auth_encrypt(
            serde.encode(["REMOVE_CLIENT", 2, b"\x0d" * 16]),
            deployment.communication_key,
            associated_data=b"lcm/admin",
        )
        with pytest.raises(AuthenticationFailure):
            host.enclave.ecall("admin", forged)


class TestHandoffArcs:
    @pytest.mark.parametrize("arcs", [[[1, 2, 3]], [[1]], [5], 5])
    def test_malformed_arcs_from_the_host_are_refused(self, arcs):
        """The arcs come from the untrusted host: any shape other than a
        list of ``[lo, hi)`` pairs is the documented configuration error,
        never a raw unpacking error."""
        host, _, (alice, *_) = build_deployment()
        with pytest.raises(ConfigurationError, match="malformed handoff arc"):
            host.enclave.ecall("handoff_export", {"arcs": arcs})
        assert alice.invoke(put("k", "v")).sequence == 1


class TestSequencePersistence:
    def test_long_history_across_many_restarts(self):
        host, _, (alice, bob, carol) = build_deployment()
        clients = [alice, bob, carol]
        for step in range(30):
            clients[step % 3].invoke(put(f"k{step % 5}", str(step)))
            if step % 7 == 0:
                host.reboot()
        status = host.enclave.ecall("status", None)
        assert status["sequence"] == 30

    def test_chain_recovered_from_v_argmax(self):
        """After restart, (t, h) must come from the client with the highest
        sequence number in V — later ops extend exactly that chain."""
        host, _, (alice, bob, _) = build_deployment()
        alice.invoke(put("k", "1"))
        bob.invoke(put("k", "2"))
        chain_before = bob.last_chain
        host.reboot()
        result = alice.invoke(get("k"))
        assert result.result == "2"
        # alice's new chain extends bob's last value, not some reset chain
        from repro.crypto.hashing import chain_extend

        expected = chain_extend(
            chain_before, serde.encode(["GET", "k"]), 3, 1
        )
        assert alice.last_chain == expected


class _InPlaceKvs:
    """Misbehaving ``F``: PUT mutates the state in place and hands the
    same object back, against the :meth:`Functionality.apply` contract."""

    def initial_state(self):
        return {}

    def apply(self, state, operation):
        verb, key, *rest = operation
        if verb == "PUT":
            state[key] = rest[0]
        return state.get(key), state


class _NestedInPlaceKvs:
    """Misbehaving ``F``: APPEND copies the top level — so the state
    object *is* new — but grows the list under ``key`` in place.  A
    whole-state reseal never noticed; a per-entry identity diff sees the
    same value object and keeps its stale section."""

    def initial_state(self):
        return {}

    def apply(self, state, operation):
        verb, key, *rest = operation
        if verb == "PUT":
            next_state = dict(state)
            next_state[key] = [rest[0]]
            return None, next_state
        if verb == "APPEND":
            next_state = dict(state)
            next_state[key].append(rest[0])
            return len(next_state[key]), next_state
        return state.get(key), state


class TestInPlaceMutationGuard:
    """The audit-mode guard of the per-entry seal: every section the
    identity diff leaves alone must still hold what it was sealed from."""

    def test_same_object_mutation_raises_in_audit_mode(self):
        _, _, (alice, *_) = build_deployment(functionality=_InPlaceKvs, audit=True)
        with pytest.raises(ConfigurationError, match="mutated the service state"):
            alice.invoke(("PUT", "k", "v"))

    def test_nested_mutation_behind_a_shallow_copy_raises_in_audit_mode(self):
        _, _, (alice, *_) = build_deployment(
            functionality=_NestedInPlaceKvs, audit=True
        )
        alice.invoke(("PUT", "k", "a"))
        alice.invoke(("PUT", "other", "b"))
        assert alice.invoke(("GET", "k")).result == ["a"]
        with pytest.raises(ConfigurationError, match="mutated the service state"):
            alice.invoke(("APPEND", "k", "b"))

    def test_guard_also_covers_a_restored_state(self):
        """Restore adopts the stored sections; what they were sealed from
        is known from the first seal of the new epoch on."""
        host, _, (alice, *_) = build_deployment(
            functionality=_NestedInPlaceKvs, audit=True
        )
        alice.invoke(("PUT", "k", "a"))
        host.reboot()
        with pytest.raises(ConfigurationError, match="mutated the service state"):
            alice.invoke(("APPEND", "k", "b"))

    def test_unchanged_immutable_entries_are_not_re_encoded(self, monkeypatch):
        """An entry that still holds the very ``str`` it was sealed from
        cannot have changed: a PUT into a 64-entry store encodes the
        value it writes (its section, its reply), not the other 63."""
        _, _, (alice, *_) = build_deployment(audit=True)
        for index in range(64):
            alice.invoke(put(f"k-{index}", f"stored-{index}"))
        encoded = []
        encode = serde.encode

        def counting(value):
            if type(value) is str and value.startswith("stored-"):
                encoded.append(value)
            return encode(value)

        monkeypatch.setattr(serde, "encode", counting)
        for index in range(8):
            alice.invoke(put(f"k-{index}", f"stored-again-{index}"))
        assert 8 <= len(encoded) <= 2 * 8
        assert alice.invoke(get("k-63")).result == "stored-63"

    def test_production_mode_trusts_the_contract(self):
        """Without audit the violation goes unnoticed and the stale
        section is what a restart resurrects — the documented hazard."""
        host, _, (alice, *_) = build_deployment(functionality=_NestedInPlaceKvs)
        alice.invoke(("PUT", "k", "a"))
        assert alice.invoke(("APPEND", "k", "b")).result == 2
        host.reboot()
        assert alice.invoke(("GET", "k")).result == ["a"]
