"""Server migration (Sec. 4.6.2): move ``T`` to a different physical TEE.

The origin context takes over the admin's role and bootstraps the target:

1. target server starts ``T'``; it finds either no state or a blob sealed
   under a *foreign* sealing key, so it stays unprovisioned;
2. origin emits a challenge nonce; target attests against it (the quote
   binds a fresh DH public key);
3. origin verifies the quote — it has prior knowledge of the LCM
   measurement because it *is* an LCM context, so it checks the target runs
   the same program on a genuine TEE — and exports
   ``(kP, kC, kA, s, V)`` through the DH channel;
4. target installs the state, seals it under *its own* platform's sealing
   key, and resumes; origin permanently stops serving.

No trusted party participates; the untrusted hosts merely ferry messages —
they cannot read or forge the bundle, and feeding the export to a
non-genuine "enclave" fails at quote verification.

Completely transparent to clients: their ``(tc, hc)`` still verify against
the migrated ``V``.
"""

from __future__ import annotations

from repro.crypto.attestation import QuoteVerifier
from repro.errors import MigrationError


def migrate(origin_host, target_host, quote_verifier: QuoteVerifier) -> None:
    """Run the migration handshake between two server hosts.

    ``origin_host`` must run a provisioned LCM context; ``target_host``
    must run a fresh (unprovisioned) one on a *different* platform.  The
    ``quote_verifier`` is the attestation-group verification material the
    origin uses to check the target's quote.

    Raises :class:`~repro.errors.MigrationError` on a broken handshake and
    propagates :class:`~repro.errors.AttestationFailure` if the target is
    not a genuine LCM enclave.
    """
    if not origin_host.enclave.running:
        raise MigrationError("origin enclave is not running")
    if not target_host.enclave.running:
        target_host.start()

    status = target_host.enclave.ecall("status", None)
    if status["provisioned"]:
        raise MigrationError("target context is already provisioned")

    # Step 2: challenge/attest.  The untrusted hosts relay these values.
    nonce = origin_host.enclave.ecall("migration_challenge", None)
    report = target_host.enclave.ecall("attest", nonce)
    quote = target_host.platform.quote(report)

    # Step 3: origin verifies and exports over the bound DH channel.
    export = origin_host.enclave.ecall(
        "migration_export", {"quote": quote, "verifier": quote_verifier}
    )

    # Step 4: target imports and reseals under its own platform key.
    imported = target_host.enclave.ecall("migration_import", export)
    if imported is not True:
        raise MigrationError("target refused the migration bundle")


def migrate_keys(
    source_host,
    target_host,
    quote_verifier: QuoteVerifier,
    arcs,
) -> int:
    """Hand the keys on ``arcs`` from one *live* group to another.

    The elastic-resharding counterpart of :func:`migrate`: both contexts
    are provisioned and keep serving afterwards; only the service-state
    entries whose ring position falls on one of the ``[lo, hi)`` arc
    intervals move.  The handshake is mutually attested — each side
    challenges the other and verifies its quote before trusting anything
    — because unlike whole-context migration the receiver is a live group
    whose state an untrusted host must not be able to inject into:

    1. source emits a challenge; target attests against it (the quote
       binds a fresh DH public key), and emits its own challenge;
    2. source attests against the target's challenge the same way;
    3. source verifies the target's quote, removes the arc keys from its
       state as a sequenced, chained handoff operation, and seals them to
       the attested DH channel;
    4. target verifies the source's quote, opens the bundle over the same
       channel, and installs the items as its own sequenced operation.

    Both sides chain their half of the handoff into their audit history,
    so the moved items are bound into *two* hash chains and any
    tampering, replay, or post-handoff rollback is detected by the usual
    client verification.  Returns the number of keys moved.

    Every call runs the whole handshake, and nothing of a channel outlives
    it: each ``attest`` mints a fresh DH key pair and each import consumes
    the target's challenge nonce, so a replayed import finds no challenge
    to answer, or a fresh one its stale quote does not bind.  The whole
    handshake, four 2048-bit DH operations included, costs about 6.5 ms
    on the C tier's Montgomery kernel (2-vCPU x86-64 VM), too little for
    a reshard plan to gain from caching a channel.

    Raises :class:`~repro.errors.MigrationError` on a broken handshake
    and propagates attestation/authentication failures from the contexts.
    """
    for host, role in ((source_host, "source"), (target_host, "target")):
        if not host.enclave.running:
            raise MigrationError(f"{role} enclave is not running")
    source_nonce = source_host.enclave.ecall("handoff_challenge", None)
    target_report = target_host.enclave.ecall("attest", source_nonce)
    target_quote = target_host.platform.quote(target_report)
    target_nonce = target_host.enclave.ecall("handoff_challenge", None)
    source_report = source_host.enclave.ecall("attest", target_nonce)
    source_quote = source_host.platform.quote(source_report)
    export = source_host.enclave.ecall(
        "handoff_export",
        {"quote": target_quote, "verifier": quote_verifier, "arcs": arcs},
    )
    installed = target_host.enclave.ecall(
        "handoff_import",
        {
            "quote": source_quote,
            "verifier": quote_verifier,
            "bundle": export["bundle"],
        },
    )
    if installed != export["moved"]:
        raise MigrationError(
            f"target installed {installed} of {export['moved']} handed-off keys"
        )
    return installed
