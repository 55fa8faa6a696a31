"""Ablation (§IV): global-relabel frequency of the sequential PR baseline.

The paper tunes the sequential PR's global-relabel threshold ``k × (m + n)``
pushes and reports ``k = 0.5`` as slightly better than the alternatives for
its data set; that value is then used in all comparisons.  This benchmark
sweeps ``k`` on a subset of the suite and records the modelled runtimes.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_PROFILE, BENCH_SEED
from repro.bench.harness import geometric_mean
from repro.generators.suite import generate_instance
from repro.seq.greedy import cheap_matching
from repro.seq.push_relabel import PushRelabelConfig, push_relabel_matching

_SUBSET = ("amazon0505", "flickr", "roadNet-PA", "kron_g500-logn20", "patents")
_K_VALUES = (0.25, 0.5, 1.0, 2.0)


@pytest.mark.benchmark(group="seq-pr")
def test_sequential_pr_global_relabel_frequency(benchmark):
    prepared = []
    for name in _SUBSET:
        graph = generate_instance(name, profile=BENCH_PROFILE, seed=BENCH_SEED)
        prepared.append((graph, cheap_matching(graph).matching))

    def sweep():
        geomeans = {}
        for k in _K_VALUES:
            times = []
            for graph, initial in prepared:
                result = push_relabel_matching(
                    graph, initial=initial.copy(), config=PushRelabelConfig(global_relabel_k=k)
                )
                times.append(result.modeled_time)
            geomeans[k] = geometric_mean(times)
        return geomeans

    geomeans = benchmark.pedantic(sweep, rounds=1, iterations=1)
    benchmark.extra_info["geomean_seconds_by_k"] = {str(k): round(v, 6) for k, v in geomeans.items()}
    # The tuned value must be competitive: within 25% of the best k in the sweep.
    assert geomeans[0.5] <= min(geomeans.values()) * 1.25
