"""Reproduce the paper's headline comparison on a subset of the suite.

Runs G-PR, G-HKDW, P-DBFS and the sequential PR on a handful of suite
instances (one per structural family), prints a miniature Table I and the
per-instance G-PR speedups (Figure 4 style), and shows how the adaptive
global-relabeling strategy compares with a fixed one (Figure 1 style).

Run with::

    python examples/gpu_vs_cpu_study.py
"""

from __future__ import annotations

from repro.bench.harness import SuiteRunner, geometric_mean, reference_device
from repro.bench.reports import build_figure4, build_table1, render_table
from repro.core.gpr import GPRConfig, gpr_matching
from repro.generators.suite import generate_instance
from repro.seq.greedy import cheap_matching

INSTANCES = ("amazon0505", "kron_g500-logn20", "roadNet-PA", "delaunay_n21",
             "soc-LiveJournal1", "hugetrace-00000")


def main() -> None:
    runner = SuiteRunner(profile="small", instances=INSTANCES)
    results = runner.run()

    print("Miniature Table I (modelled milliseconds):")
    print(render_table(build_table1(results)))
    print()

    rows, average = build_figure4(results)
    print("G-PR speedup over sequential PR (Figure 4 style):")
    for instance_id, name, speedup in rows:
        bar = "#" * max(1, int(round(speedup * 4)))
        print(f"  {instance_id:>2} {name:<20} {speedup:5.2f}x  {bar}")
    print(f"  average: {average:.2f}x")
    print()

    print("Global-relabeling strategy comparison on this subset (Figure 1 style):")
    for strategy in ("adaptive:0.7", "fix:10"):
        times = []
        for name in INSTANCES:
            graph = generate_instance(name, profile="small")
            initial = cheap_matching(graph).matching
            result = gpr_matching(
                graph, initial=initial, config=GPRConfig(strategy=strategy),
                device=reference_device(),
            )
            times.append(result.modeled_time)
        print(f"  {strategy:<14} geometric-mean modelled time: {geometric_mean(times) * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
