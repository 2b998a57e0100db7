"""Experiment harness reproducing the paper's evaluation (Section 6).

* :mod:`repro.experiments.params` — the Table 2 parameter grid with the
  scale reductions this pure-Python reproduction applies (documented in
  EXPERIMENTS.md).
* :mod:`repro.experiments.harness` — run NNC searches over workloads and
  collect candidate sizes, response times and filter counters.
* :mod:`repro.experiments.figures` — one entry point per paper figure.
* :mod:`repro.experiments.registry` — the one path that builds a figure:
  paper figures plus live-snapshot views, as CSV + Vega-Lite + dashboard.
* :mod:`repro.experiments.report` — plain-text tables and the Markdown
  report.
"""

from repro.experiments.harness import (
    WorkloadStats,
    candidate_quality,
    evaluate_workload,
    progressive_profile,
)
from repro.experiments.params import SCALES, ExperimentParams, Scale
from repro.experiments.report import format_table, kernel_summary
from repro.experiments.summary import Observation, format_summary, summarize

__all__ = [
    "ExperimentParams",
    "Observation",
    "format_summary",
    "summarize",
    "SCALES",
    "Scale",
    "WorkloadStats",
    "candidate_quality",
    "evaluate_workload",
    "format_table",
    "kernel_summary",
    "progressive_profile",
]
