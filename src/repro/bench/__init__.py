"""Benchmark harness: regenerates every table and figure of the paper's evaluation.

* :mod:`repro.bench.harness` — runs the algorithms over the 28-instance
  suite and collects modelled / wall-clock times and matching cardinalities.
* :mod:`repro.bench.profiles` — speedup profiles (Figure 2) and performance
  profiles (Figure 3).
* :mod:`repro.bench.reports` — builders for Figure 1 (strategy comparison),
  Figure 4 (per-instance speedups) and Table I, each returning plain data
  structures plus a formatted text rendering.
* :mod:`repro.bench.perfbaseline` — the perf-regression harness: capture
  CPU-baseline timings into ``BENCH_*.json`` files and compare fresh runs
  against the committed baseline (the ``repro perf`` subcommand and the CI
  ``perf-smoke`` job are thin wrappers over it).
"""

from repro.bench.perfbaseline import (
    PERF_ALGORITHMS,
    PerfComparison,
    PerfDelta,
    capture,
    compare,
    load_baseline,
    save_baseline,
)
from repro.bench.harness import (
    AlgorithmRun,
    InstanceResult,
    SuiteRunner,
    geometric_mean,
)
from repro.bench.profiles import performance_profile, speedup_profile
from repro.bench.reports import (
    build_figure1,
    build_figure2,
    build_figure3,
    build_figure4,
    build_table1,
    render_table,
)

__all__ = [
    "PERF_ALGORITHMS",
    "PerfComparison",
    "PerfDelta",
    "capture",
    "compare",
    "load_baseline",
    "save_baseline",
    "SuiteRunner",
    "AlgorithmRun",
    "InstanceResult",
    "geometric_mean",
    "speedup_profile",
    "performance_profile",
    "build_figure1",
    "build_figure2",
    "build_figure3",
    "build_figure4",
    "build_table1",
    "render_table",
]
