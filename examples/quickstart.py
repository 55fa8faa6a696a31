"""Quickstart: compute a maximum cardinality bipartite matching with G-PR.

Generates a random bipartite graph, runs the paper's GPU push-relabel
algorithm on the virtual device, cross-checks the result against the
sequential push-relabel baseline, and prints the modelled runtimes.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import max_bipartite_matching
from repro.generators import uniform_random_bipartite
from repro.seq import is_maximum_matching


def main() -> None:
    graph = uniform_random_bipartite(2000, 2000, avg_degree=5.0, seed=42, name="quickstart")
    print(f"graph: {graph.n_rows} rows, {graph.n_cols} columns, {graph.n_edges} edges")

    gpu = max_bipartite_matching(graph, algorithm="g-pr")
    cpu = max_bipartite_matching(graph, algorithm="pr")

    print(f"G-PR matching cardinality : {gpu.cardinality}")
    print(f"PR   matching cardinality : {cpu.cardinality}")
    assert gpu.cardinality == cpu.cardinality
    assert is_maximum_matching(graph, gpu.matching)

    print(f"G-PR modelled time        : {gpu.modeled_time * 1e3:.3f} ms "
          f"({gpu.counters['kernel_launches']} kernel launches, "
          f"{gpu.counters['global_relabels']} global relabels)")
    print(f"PR   modelled time        : {cpu.modeled_time * 1e3:.3f} ms")
    print(f"matched pairs (first 5)   : {gpu.matching.pairs()[:5]}")


if __name__ == "__main__":
    main()
