"""The untrusted server substrate.

The server ``S`` hosts the trusted execution context, owns stable storage,
and forwards messages between clients and ``T`` (Sec. 2.1).  A *correct*
server does all of this faithfully (FIFO, returns the freshest stored
blob); a *malicious* server controls every interaction of ``T`` with its
environment (Sec. 2.3).

- :mod:`repro.server.storage` — versioned stable storage + disk timing model;
- :mod:`repro.server.host` — the correct server runtime;
- :mod:`repro.server.batching` — the bounded request batch queue of Sec. 5.3
  and the bounded batch-size histogram;
- :mod:`repro.server.dispatch` — the per-group batch dispatch loop every
  shard runs;
- :mod:`repro.server.faults` — the malicious server: rollback, forking,
  replay, tampering and partitioning primitives used by attack tests.
"""

from repro.server.batching import BatchQueue, BatchSizeHistogram
from repro.server.dispatch import GroupDispatcher
from repro.server.faults import MaliciousServer
from repro.server.host import ServerHost
from repro.server.storage import DiskModel, StableStorage

__all__ = [
    "StableStorage",
    "DiskModel",
    "ServerHost",
    "BatchQueue",
    "BatchSizeHistogram",
    "GroupDispatcher",
    "MaliciousServer",
]
