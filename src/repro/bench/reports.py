"""Builders for the paper's Figure 1, Figure 4 and Table I (plus text rendering).

Each ``build_*`` function consumes :class:`~repro.bench.harness.InstanceResult`
lists (or runs the sweep itself, for Figure 1) and returns a plain data
structure that mirrors the corresponding artefact of the paper, so the
benchmarks, the CLI and EXPERIMENTS.md all derive from the same code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.bench.harness import (
    InstanceResult,
    SuiteRunner,
    geometric_mean,
    reference_device,
)
from repro.bench.profiles import performance_profile, speedup_profile
from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching
from repro.generators.suite import generate_instance
from repro.seq.greedy import cheap_matching

__all__ = [
    "build_figure1",
    "build_figure2",
    "build_figure3",
    "build_figure4",
    "build_table1",
    "render_table",
    "FIGURE1_STRATEGIES",
    "FIGURE1_VARIANTS",
]

#: The seven global-relabel strategies of Figure 1.
FIGURE1_STRATEGIES: tuple[str, ...] = (
    "adaptive:0.3",
    "adaptive:0.7",
    "adaptive:1",
    "adaptive:1.5",
    "adaptive:2",
    "fix:10",
    "fix:50",
)

#: The three G-PR implementations of Figure 1 (paper name → variant).
FIGURE1_VARIANTS: dict[str, GPRVariant] = {
    "G-PR-First": GPRVariant.FIRST,
    "G-PR-NoShr": GPRVariant.NO_SHRINK,
    "G-PR-Shr": GPRVariant.SHRINK,
}


@dataclass(frozen=True)
class Figure1Cell:
    """One (variant, strategy) cell of Figure 1: the geometric-mean runtime."""

    variant: str
    strategy: str
    geomean_seconds: float


def build_figure1(
    profile: str = "small",
    seed: int = 20130421,
    instances: Sequence[str] | None = None,
    strategies: Sequence[str] = FIGURE1_STRATEGIES,
    variants: dict[str, GPRVariant] | None = None,
    shrink_threshold: int = 64,
) -> list[Figure1Cell]:
    """Figure 1: geometric-mean G-PR runtime per (variant, strategy).

    ``shrink_threshold`` defaults to 64 rather than the paper's 512 because
    the scaled-down instances have proportionally smaller active lists; the
    paper's value would disable shrinking entirely at this scale.
    """
    variants = variants or dict(FIGURE1_VARIANTS)
    runner = SuiteRunner(profile=profile, seed=seed, instances=instances, algorithms={})
    cells: list[Figure1Cell] = []
    prepared = []
    for spec in runner.specs():
        graph = generate_instance(spec.instance_id, profile=profile, seed=seed)
        prepared.append((graph, cheap_matching(graph).matching))
    for variant_name, variant in variants.items():
        for strategy in strategies:
            times = []
            for graph, initial in prepared:
                config = GPRConfig(
                    variant=variant, strategy=strategy, shrink_threshold=shrink_threshold
                )
                result = gpr_matching(graph, initial=initial.copy(), config=config,
                                      device=reference_device())
                times.append(result.modeled_time)
            cells.append(
                Figure1Cell(
                    variant=variant_name,
                    strategy=strategy.replace(":", ","),
                    geomean_seconds=geometric_mean(times),
                )
            )
    return cells


def build_figure2(results: list[InstanceResult], baseline: str = "PR"):
    """Figure 2: speedup profiles of the parallel algorithms w.r.t. sequential PR."""
    parallel = [name for name in results[0].runs if name != baseline]
    speedups = {
        name: [res.speedup(name, baseline) for res in results] for name in parallel
    }
    return speedup_profile(speedups)


def build_figure3(results: list[InstanceResult], baseline: str = "PR"):
    """Figure 3: performance profiles of the parallel algorithms."""
    parallel = [name for name in results[0].runs if name != baseline]
    times = {
        name: [res.runs[name].modeled_seconds for res in results] for name in parallel
    }
    return performance_profile(times)


def build_figure4(results: list[InstanceResult], baseline: str = "PR", algorithm: str = "G-PR"):
    """Figure 4: the individual speedup of G-PR on every instance, in Table-I order.

    Returns a list of ``(instance_id, name, speedup)`` and the overall
    arithmetic-average speedup (the paper reports 3.05).
    """
    rows = [
        (res.spec.instance_id, res.spec.name, res.speedup(algorithm, baseline))
        for res in results
    ]
    average = sum(r[2] for r in rows) / len(rows)
    return rows, average


def build_table1(results: list[InstanceResult]) -> dict:
    """Table I: per-instance sizes, IM, MM and runtimes, plus geometric means."""
    algorithms = list(results[0].runs)
    rows = []
    for res in results:
        row = {
            "id": res.spec.instance_id,
            "graph": res.spec.name,
            "rows": res.n_rows,
            "cols": res.n_cols,
            "edges": res.n_edges,
            "IM": res.initial_matching,
            "MM": res.maximum_matching,
        }
        for name in algorithms:
            row[name] = res.runs[name].modeled_seconds
        rows.append(row)
    geomeans = {
        name: geometric_mean([res.runs[name].modeled_seconds for res in results])
        for name in algorithms
    }
    return {"rows": rows, "geomeans": geomeans, "algorithms": algorithms}


def render_table(table: dict, time_unit: str = "ms") -> str:
    """Render a :func:`build_table1` result as fixed-width text (Table I layout)."""
    scale = {"s": 1.0, "ms": 1e3, "us": 1e6}[time_unit]
    algorithms = table["algorithms"]
    header = (
        f"{'ID':>3} {'Graph':<22} {'#Rows':>8} {'#Cols':>8} {'#Edges':>9} "
        f"{'IM':>8} {'MM':>8} " + " ".join(f"{name:>10}" for name in algorithms)
    )
    lines = [header, "-" * len(header)]
    for row in table["rows"]:
        lines.append(
            f"{row['id']:>3} {row['graph']:<22} {row['rows']:>8} {row['cols']:>8} "
            f"{row['edges']:>9} {row['IM']:>8} {row['MM']:>8} "
            + " ".join(f"{row[name] * scale:>10.3f}" for name in algorithms)
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'':>3} {'GEOMEAN (' + time_unit + ')':<22} {'':>8} {'':>8} {'':>9} {'':>8} {'':>8} "
        + " ".join(f"{table['geomeans'][name] * scale:>10.3f}" for name in algorithms)
    )
    return "\n".join(lines)
