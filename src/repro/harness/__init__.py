"""Experiment harness: one entry point per paper table/figure.

- :mod:`repro.harness.experiments` — runs each experiment and returns
  structured series; ``EXPERIMENTS`` names every runner by the
  ``experiment`` id its result carries (``repro run NAME`` runs them);
- :mod:`repro.harness.report` — renders the series as the paper-style
  tables, compares the measured ratios against the published bands and
  lists the boolean expectations a result misses (``repro run``'s exit
  status).

The open-loop latency–throughput frontier (offered rate × shard count,
saturation detection) is one of those experiments: ``repro run
frontier``.
"""

from repro.harness.experiments import (
    run_fig4_object_size,
    run_fig5_clients_async,
    run_fig6_clients_sync,
    run_sec62_enclave_memory,
    run_sec63_message_overhead,
    run_sec65_tmc_comparison,
    run_shard_scaling,
)
from repro.harness.report import render_series_table, summarize_bands

__all__ = [
    "run_fig4_object_size",
    "run_fig5_clients_async",
    "run_fig6_clients_sync",
    "run_sec62_enclave_memory",
    "run_sec63_message_overhead",
    "run_sec65_tmc_comparison",
    "run_shard_scaling",
    "render_series_table",
    "summarize_bands",
]
