"""Wall-clock micro-benchmarks of the library's hot paths.

These are conventional pytest-benchmark measurements (multiple rounds) of
this Python implementation itself — useful for tracking performance
regressions of the reproduction code, independent of the paper's modelled
times.
"""

from __future__ import annotations

import pytest

from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching
from repro.core.kernels import push_kernel_all_columns
from repro.core.relabel import gpu_global_relabel
from repro.generators import chung_lu_bipartite
from repro.gpusim import VirtualGPU
from repro.matching import Matching
from repro.seq.greedy import cheap_matching
from repro.seq.push_relabel import push_relabel_matching


@pytest.fixture(scope="module")
def workload():
    graph = chung_lu_bipartite(4000, 4000, avg_degree=8.0, exponent=2.2, seed=7)
    initial = cheap_matching(graph).matching
    return graph, initial


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_gpr_shrink(benchmark, workload):
    graph, initial = workload
    result = benchmark(
        lambda: gpr_matching(
            graph, initial=initial.copy(), config=GPRConfig(variant=GPRVariant.SHRINK)
        )
    )
    assert result.cardinality > 0


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_sequential_pr(benchmark, workload):
    graph, initial = workload
    result = benchmark(lambda: push_relabel_matching(graph, initial=initial.copy()))
    assert result.cardinality > 0


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_global_relabel(benchmark, workload):
    graph, initial = workload

    def run():
        import numpy as np

        mu_row = initial.row_match.copy()
        mu_col = initial.col_match.copy()
        psi_row = np.zeros(graph.n_rows, dtype=np.int64)
        psi_col = np.ones(graph.n_cols, dtype=np.int64)
        return gpu_global_relabel(graph, mu_row, mu_col, psi_row, psi_col, VirtualGPU())

    assert benchmark(run) >= 2


@pytest.mark.benchmark(group="wallclock")
def test_wallclock_push_kernel(benchmark, workload):
    graph, _ = workload

    def run():
        import numpy as np

        matching = Matching.empty(graph)
        psi_row = np.zeros(graph.n_rows, dtype=np.int64)
        psi_col = np.ones(graph.n_cols, dtype=np.int64)
        return push_kernel_all_columns(
            graph, matching.row_match, matching.col_match, psi_row, psi_col
        )

    act, _, _ = benchmark(run)
    assert act
