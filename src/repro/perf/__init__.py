"""Performance modelling for the paper's evaluation (Sec. 6).

- :mod:`repro.perf.costs` — the calibrated cost model: service-time
  constants for every pipeline stage (network, untrusted server thread,
  ecall, enclave crypto, LCM protocol work, disk, TMC);
- :mod:`repro.perf.model` — the per-system batch price over those
  constants, and a closed-loop measurement that drives the cluster's
  batch loop (:class:`~repro.server.dispatch.GroupDispatcher`) with
  YCSB-style clients and counts simulated operations per second.

The constants are calibrated so the *relative* results reproduce the
paper's bands (who wins, by what factor, where curves saturate); absolute
throughput is in the same order of magnitude as the paper's testbed but is
not the reproduction target.  EXPERIMENTS.md records paper-vs-measured for
every figure.
"""

from repro.perf.costs import CostModel, MessageGeometry
from repro.perf.model import SYSTEMS, SystemSpec, measure_throughput

__all__ = [
    "CostModel",
    "MessageGeometry",
    "SystemSpec",
    "SYSTEMS",
    "measure_throughput",
]
