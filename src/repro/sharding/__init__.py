"""Sharded group runtime: many LCM groups over one partitioned keyspace.

The paper protects a *single* enclave-hosted functionality; its client
scaling results (Figs. 5/6) saturate at the one-group ceiling because the
whole keyspace funnels through one single-threaded trusted context.  This
package runs **many LCM groups side by side**:

- :mod:`~repro.sharding.partitioner` — a consistent-hash keyspace
  partitioner with virtual nodes (:class:`HashRing`), including the
  :meth:`~HashRing.arc_diff` movement contract for membership changes;
- :mod:`~repro.sharding.cluster` — :class:`ShardedCluster`, provisioning N
  independent groups (own platform, host, sealed storage, batch queue)
  over the discrete-event simulator, with migration-driven rebalancing,
  runtime ``add_shard``/``remove_shard``/``recover_shard`` and
  crash-fault injection;
- :mod:`~repro.sharding.controlplane` — :class:`ControlPlane`, the
  sequencer that fences + drains the shards a reconfiguration touches
  and hands over exactly the ring-reassigned keys between live groups;
- :mod:`~repro.sharding.router` — :class:`ShardRouter`, the client facade
  that routes single-key operations, fans multi-key/scan requests out
  across shards concurrently, parks + replays operations across outages
  (``failover=True``), and merges per-shard fork-linearizability
  evidence — every generation of every shard id — into one
  :class:`ShardedVerdict`;
- :mod:`~repro.sharding.observer` — :class:`ClusterObserver`, the online
  streaming verifier, and the one verdict walk both the online and the
  replayed verdict run.

Every shard individually keeps LCM's rollback/forking guarantees; the
compound system adds horizontal scale and elasticity without weakening
any of them (see README "Consistency contract" for exactly what the
merged verdict does and does not promise).
"""

from repro.sharding.cluster import (
    GenerationEvidence,
    ShardedCluster,
    ShardedStats,
)
from repro.sharding.controlplane import ControlPlane, ReshardReport
from repro.sharding.observer import (
    GenerationVerdict,
    ShardVerdict,
    ShardedVerdict,
)
from repro.sharding.partitioner import ArcMove, HashRing
from repro.sharding.router import (
    ShardRouter,
    TxnRecord,
    TxnResult,
    routing_key,
)

__all__ = [
    "TxnRecord",
    "TxnResult",
    "ArcMove",
    "ControlPlane",
    "GenerationEvidence",
    "GenerationVerdict",
    "HashRing",
    "ReshardReport",
    "ShardedCluster",
    "ShardedStats",
    "ShardRouter",
    "ShardVerdict",
    "ShardedVerdict",
    "routing_key",
]
