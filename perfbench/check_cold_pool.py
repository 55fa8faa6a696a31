"""Check every graph of the serve-mix cold pool with the four cold solvers.

    python3 perfbench/check_cold_pool.py

Generates each (instance, seed) of ``serve_mix.COLD_SEEDS`` at the ``tiny``
profile, solves it with every solver of ``serve_mix.COLD_ALGORITHMS`` and
compares the cardinality with Hopcroft-Karp.  Prints the entries where a
solver disagrees that ``serve_mix.COLD_EXCLUDED`` does not already leave
out, and exits 1 if there are any.  Takes a few minutes.
"""

from __future__ import annotations

from common import use_source_tree


def main() -> int:
    use_source_tree()
    import serve_mix
    from repro.core.api import resolve_algorithm
    from repro.generators.suite import generate_instance, instance_names

    hk = resolve_algorithm("hk")
    plans = {algo: resolve_algorithm(algo) for algo in serve_mix.COLD_ALGORITHMS}
    new = []
    for name in instance_names():
        for seed in serve_mix.COLD_SEEDS:
            graph = generate_instance(name, profile=serve_mix.COLD_PROFILE, seed=seed)
            expected = hk.run(graph).cardinality
            wrong = [algo for algo, plan in plans.items() if plan.run(graph).cardinality != expected]
            if wrong:
                known = (name, seed) in serve_mix.COLD_EXCLUDED
                print(f"{name} seed {seed}: {', '.join(wrong)} not maximum"
                      + (" (excluded)" if known else ""))
                if not known:
                    new.append((name, seed))
    return 1 if new else 0


if __name__ == "__main__":
    raise SystemExit(main())
