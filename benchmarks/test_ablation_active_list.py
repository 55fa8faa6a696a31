"""Ablation (§III-C): effect of the active-column list and of shrinking.

The paper attributes a 14–84% improvement to keeping the explicit active
list (fewer, less divergent threads) and another 2–8% to compacting that
list after every global relabel.  This benchmark isolates the two
mechanisms on a representative subset of the suite.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import BENCH_PROFILE, BENCH_SEED
from repro.bench.harness import geometric_mean, reference_device
from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching
from repro.generators.suite import generate_instance
from repro.seq.greedy import cheap_matching

_SUBSET = ("amazon0505", "flickr", "kron_g500-logn20", "soc-LiveJournal1", "delaunay_n21", "wb-edu")


@pytest.mark.benchmark(group="ablation")
def test_ablation_active_list_and_shrink(benchmark):
    prepared = []
    for name in _SUBSET:
        graph = generate_instance(name, profile=BENCH_PROFILE, seed=BENCH_SEED)
        prepared.append((graph, cheap_matching(graph).matching))

    def run_variant(variant, shrink_threshold=64):
        times = []
        for graph, initial in prepared:
            result = gpr_matching(
                graph,
                initial=initial.copy(),
                config=GPRConfig(variant=variant, shrink_threshold=shrink_threshold),
                device=reference_device(),
            )
            times.append(result.modeled_time)
        return geometric_mean(times)

    def ablation():
        return {
            "first": run_variant(GPRVariant.FIRST),
            "noshrink": run_variant(GPRVariant.NO_SHRINK),
            "shrink": run_variant(GPRVariant.SHRINK),
        }

    geomeans = benchmark.pedantic(ablation, rounds=1, iterations=1)
    benchmark.extra_info["geomean_seconds"] = {k: round(v, 6) for k, v in geomeans.items()}
    # The paper measures the active-list gain on graphs with millions of
    # columns, where skipping the (n − |Ac|) idle threads saves a lot; on the
    # scaled-down suite the idle-thread work is only a few thousand operations
    # per launch, so the gain shrinks towards parity (see EXPERIMENTS.md).
    # The shape check is therefore a bounded-regression check rather than a
    # strict improvement: the active-list variants must stay within 25% of the
    # all-columns variant, and shrinking must not hurt the active-list variant.
    assert geomeans["noshrink"] <= geomeans["first"] * 1.25
    assert geomeans["shrink"] <= geomeans["noshrink"] * 1.10
