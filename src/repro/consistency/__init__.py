"""Consistency machinery: histories, linearizability, fork-linearizability.

LCM's headline guarantee is fork-linearizability (Sec. 3.2.1): every client
observes a linearizable history, and once the server has shown two clients
diverging histories it can never join them again without detection.  This
package provides the machinery that *verifies* that guarantee on
executions produced by the protocol (including executions under attack):

- :mod:`repro.consistency.history` — invocation/response events, real-time
  precedence, per-client views;
- :mod:`repro.consistency.linearizability` — a Wing & Gong style
  exhaustive checker for small histories against a sequential
  functionality;
- :mod:`repro.consistency.streaming` — the checker every cluster verdict
  runs: consumes audit evidence record by record, emits violations the
  moment they are detectable and garbage-collects evidence below the
  stable frontier when driven online, and judges a generation's retained
  evidence in one pass when ``ShardRouter.verdict()`` replays it;
- :mod:`repro.consistency.fork_linearizability` — the view-level
  reference checker: builds each client's view from enclave audit logs +
  client observations and checks per-view correctness, own-operation
  inclusion, real-time order and the no-join property across forks; the
  test suites compare the streaming checker against it;
- :mod:`repro.consistency.transactions` — the cross-shard transaction
  rules over the per-log traces the checker folds: all-or-nothing
  decisions, coordinator consistency, and detection of a forked shard
  withholding a completed decision from some clients.
"""

from repro.consistency.fork_linearizability import (
    ForkTree,
    check_fork_linearizable,
    views_from_audit_logs,
)
from repro.consistency.history import ClientView, History, OperationRecord
from repro.consistency.linearizability import is_linearizable
from repro.consistency.stable_subsequence import (
    check_stable_subsequence_linearizable,
    stable_bound_frontier,
    stable_subsequence,
)
from repro.consistency.streaming import GenerationVerdict, StreamingChecker
from repro.consistency.transactions import (
    CoordinatorDecision,
    TxnTrace,
    check_txn_traces,
    trace_txn_operation,
    withheld_decision,
)

__all__ = [
    "CoordinatorDecision",
    "TxnTrace",
    "check_txn_traces",
    "trace_txn_operation",
    "withheld_decision",
    "StreamingChecker",
    "GenerationVerdict",
    "stable_bound_frontier",
    "History",
    "OperationRecord",
    "ClientView",
    "is_linearizable",
    "check_fork_linearizable",
    "views_from_audit_logs",
    "ForkTree",
    "stable_subsequence",
    "check_stable_subsequence_linearizable",
]
