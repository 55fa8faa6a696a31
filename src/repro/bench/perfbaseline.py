"""Perf-regression harness: capture, persist and compare CPU-baseline timings.

The paper's argument is *relative* runtimes, so a silent slowdown of a CPU
baseline quietly skews every figure this repository reproduces.  This module
gives the repo a measured perf trajectory:

* :func:`capture` runs the five rewritten CPU baselines (``hk``, ``hkdw``,
  ``pfp``, ``pr``, ``p-dbfs``) over the evaluation suite through
  :class:`~repro.bench.harness.SuiteRunner` and records, per (instance,
  algorithm): wall-clock seconds (best of ``repeats``), modeled seconds
  (deterministic: each solver prices its own work counters) and
  cardinality.
* ``BENCH_<profile>.json`` files (schema below) persist a capture;
  ``BENCH_small.json`` at the repo root is the committed baseline — the
  first point of the perf trajectory, refreshed via
  ``repro perf --update BENCH_small.json``.
* :func:`compare` diffs a fresh capture against a baseline and flags
  regressions beyond a noise tolerance.  Wall-clock is noisy (machines,
  load), so its default tolerance is generous; modeled seconds are exact
  counter arithmetic, so their tolerance is tight — an algorithmic work
  blow-up is caught even on a slow machine, while a pure interpreter-tax
  regression is caught by the wall check.

Cross-profile comparisons (e.g. CI's quick ``--profile tiny`` run against
the committed ``BENCH_small.json``) normalise every time by the instance's
edge count and widen both tolerances by :data:`CROSS_PROFILE_SLACK` —
seconds-per-edge transfers across instance sizes only approximately
(phase counts grow with size).  Cardinalities are only checked when
profile *and* seed match (different profiles solve different graphs).

Schema (``schema: 1``)::

    {
      "schema": 1,
      "profile": "small",
      "seed": 20130421,
      "repeats": 3,
      "algorithms": ["HK", "HKDW", "PFP", "PR", "P-DBFS"],
      "aggregate": {"HK": {"geomean_wall_seconds": ..,
                            "geomean_modeled_seconds": ..,
                            "total_wall_seconds": ..}, ...},
      "instances": {
        "amazon0505": {
          "n_rows": .., "n_cols": .., "n_edges": ..,
          "algorithms": {"HK": {"wall_seconds": ..,
                                 "modeled_seconds": ..,
                                 "cardinality": ..}, ...}
        }, ...
      }
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.bench.harness import SuiteRunner, geometric_mean
from repro.core.api import resolve_algorithm

__all__ = [
    "CROSS_PROFILE_SLACK",
    "DEFAULT_MODELED_TOLERANCE",
    "DEFAULT_WALL_TOLERANCE",
    "PERF_ALGORITHMS",
    "PerfComparison",
    "PerfDelta",
    "SCHEMA_VERSION",
    "capture",
    "compare",
    "load_baseline",
    "save_baseline",
]

SCHEMA_VERSION = 1

#: Display name → registry name of the tracked CPU baselines.
PERF_ALGORITHMS: dict[str, str] = {
    "HK": "hk",
    "HKDW": "hkdw",
    "PFP": "pfp",
    "PR": "pr",
    "P-DBFS": "p-dbfs",
}

#: Wall-clock noise tolerance (ratio current/baseline) for same-profile runs.
DEFAULT_WALL_TOLERANCE = 2.5
#: Modeled-seconds tolerance; modeled times are deterministic counter
#: arithmetic, so anything beyond float formatting is a real work change.
DEFAULT_MODELED_TOLERANCE = 1.05
#: Extra multiplier applied to both tolerances when the compared runs used
#: different profiles (per-edge normalisation transfers only approximately).
CROSS_PROFILE_SLACK = 3.0


def _perf_plans():
    return {name: resolve_algorithm(registry) for name, registry in PERF_ALGORITHMS.items()}


def _warmup() -> None:
    """Run every tracked plan once on a throwaway graph before timing.

    The first solve of a process pays one-time costs (lazy imports, NumPy
    dispatch caches, code-object warm-up) that would otherwise land on the
    first (instance, algorithm) pair and read as a 2-3x wall regression.
    With the compiled tier installed the dominant one-time cost is numba
    JIT compilation, so every registered twin is compiled first
    (:func:`repro.compiled.dispatch.warm_up`) — the throwaway solves then
    only exercise the remaining interpreter-level caches.
    """
    from repro.compiled import dispatch
    from repro.generators.random_bipartite import uniform_random_bipartite

    dispatch.warm_up()
    graph = uniform_random_bipartite(64, 64, avg_degree=4.0, seed=0)
    for plan in _perf_plans().values():
        plan.run(graph)


def capture(
    profile: str = "small",
    seed: int = 20130421,
    instances: list[str] | None = None,
    repeats: int = 1,
) -> dict:
    """Measure the tracked CPU baselines over the suite; returns a schema doc.

    Parameters
    ----------
    profile:
        Suite size profile (``tiny`` / ``small`` / ``medium`` / ``large``).
    seed:
        Suite generation seed.
    instances:
        Restrict to these instance names (default: all 28).
    repeats:
        Wall-clock seconds keep the *minimum* over this many suite runs
        (modeled seconds and cardinalities are deterministic and asserted
        stable across repeats).

    Raises
    ------
    ValueError
        On a non-positive ``repeats``.
    KeyError
        On unknown instance names (from the runner).
    """
    if repeats < 1:
        raise ValueError("repeats must be at least 1")
    _warmup()
    best: dict[str, dict] = {}
    for _ in range(repeats):
        runner = SuiteRunner(
            profile=profile,
            seed=seed,
            algorithms=_perf_plans(),
            instances=instances,
        )
        try:
            results = runner.run()
        finally:
            runner.close()
        for res in results:
            entry = best.setdefault(
                res.spec.name,
                {
                    "n_rows": res.n_rows,
                    "n_cols": res.n_cols,
                    "n_edges": res.n_edges,
                    "algorithms": {},
                },
            )
            for name, run in res.runs.items():
                rec = entry["algorithms"].get(name)
                if rec is None:
                    entry["algorithms"][name] = {
                        "wall_seconds": run.wall_seconds,
                        "modeled_seconds": run.modeled_seconds,
                        "cardinality": run.cardinality,
                    }
                else:
                    if rec["cardinality"] != run.cardinality or rec[
                        "modeled_seconds"
                    ] != run.modeled_seconds:
                        raise AssertionError(
                            f"non-deterministic result for {name} on {res.spec.name}"
                        )
                    rec["wall_seconds"] = min(rec["wall_seconds"], run.wall_seconds)
    aggregate = {}
    for name in PERF_ALGORITHMS:
        walls = [e["algorithms"][name]["wall_seconds"] for e in best.values()]
        modeled = [e["algorithms"][name]["modeled_seconds"] for e in best.values()]
        aggregate[name] = {
            "geomean_wall_seconds": geometric_mean(walls),
            "geomean_modeled_seconds": geometric_mean(modeled),
            "total_wall_seconds": float(sum(walls)),
        }
    return {
        "schema": SCHEMA_VERSION,
        "profile": profile,
        "seed": seed,
        "repeats": repeats,
        "algorithms": list(PERF_ALGORITHMS),
        "aggregate": aggregate,
        "instances": best,
    }


def save_baseline(path: str | Path, doc: dict) -> None:
    """Write a capture document as a committed-friendly JSON file."""
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def load_baseline(path: str | Path) -> dict:
    """Read and validate a baseline file.

    Raises
    ------
    ValueError
        On unreadable JSON or an unsupported schema version.
    OSError
        On a missing / unreadable file.
    """
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported perf-baseline schema "
            f"{doc.get('schema') if isinstance(doc, dict) else doc!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    if "instances" not in doc or "profile" not in doc:
        raise ValueError(f"{path}: malformed perf baseline (missing instances/profile)")
    return doc


@dataclass(frozen=True)
class PerfDelta:
    """One flagged (instance, algorithm, metric) deviation."""

    instance: str
    algorithm: str
    metric: str  # "wall" | "modeled" | "cardinality"
    baseline: float
    current: float
    ratio: float
    limit: float

    def describe(self) -> str:
        if self.metric == "cardinality":
            return (
                f"{self.instance}/{self.algorithm}: cardinality changed "
                f"{int(self.baseline)} -> {int(self.current)}"
            )
        return (
            f"{self.instance}/{self.algorithm}: {self.metric} "
            f"{self.current:.3e} vs baseline {self.baseline:.3e} "
            f"({self.ratio:.2f}x > {self.limit:.2f}x allowed)"
        )


@dataclass(frozen=True)
class PerfComparison:
    """Outcome of :func:`compare`."""

    regressions: list[PerfDelta] = field(default_factory=list)
    improvements: list[PerfDelta] = field(default_factory=list)
    checked: int = 0
    cross_profile: bool = False
    wall_tolerance: float = DEFAULT_WALL_TOLERANCE
    modeled_tolerance: float = DEFAULT_MODELED_TOLERANCE

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare(
    current: dict,
    baseline: dict,
    wall_tolerance: float | None = None,
    modeled_tolerance: float | None = None,
) -> PerfComparison:
    """Diff a fresh capture against a baseline document.

    Same profile: every (instance, algorithm) pair present in both documents
    is checked — ``wall_seconds`` and ``modeled_seconds`` must not exceed
    the baseline by more than the respective tolerance ratio, and with an
    identical seed cardinalities must match exactly (the algorithms are
    deterministic).

    Different profiles (e.g. CI's quick ``tiny`` run against the committed
    ``small`` baseline): per-instance timings of different sizes are too
    noisy to diff pairwise, so times are normalised per edge and the
    *geometric mean* of the per-pair ratios is checked per (algorithm,
    metric), with both tolerances widened by :data:`CROSS_PROFILE_SLACK`
    (measured tiny-vs-small aggregates sit between 0.5x and 1.2x, so the
    widened bounds still catch an interpreter-tax reintroduction at a
    comfortable margin — see docs/benchmarks.md).

    Improvements (more than ``1/tolerance`` below baseline) are reported
    informationally — a much-faster run is a hint the committed baseline is
    stale and worth ``--update``-ing.

    Raises
    ------
    ValueError
        When the two documents share no (instance, algorithm) pair — a
        comparison that checks nothing must not read as a pass (it would
        turn the CI gate into a silent no-op).
    """
    cross = current.get("profile") != baseline.get("profile")
    same_graphs = not cross and current.get("seed") == baseline.get("seed")
    slack = CROSS_PROFILE_SLACK if cross else 1.0
    wall_tol = (wall_tolerance if wall_tolerance is not None else DEFAULT_WALL_TOLERANCE) * slack
    modeled_tol = (
        modeled_tolerance if modeled_tolerance is not None else DEFAULT_MODELED_TOLERANCE
    ) * slack

    regressions: list[PerfDelta] = []
    improvements: list[PerfDelta] = []
    ratios: dict[tuple[str, str], list[float]] = {}
    checked = 0
    for name, cur_inst in current.get("instances", {}).items():
        base_inst = baseline["instances"].get(name)
        if base_inst is None:
            continue
        cur_scale = cur_inst["n_edges"] if cross else 1
        base_scale = base_inst["n_edges"] if cross else 1
        for algo, cur_rec in cur_inst["algorithms"].items():
            base_rec = base_inst["algorithms"].get(algo)
            if base_rec is None:
                continue
            checked += 1
            if same_graphs and cur_rec["cardinality"] != base_rec["cardinality"]:
                regressions.append(
                    PerfDelta(name, algo, "cardinality",
                              float(base_rec["cardinality"]),
                              float(cur_rec["cardinality"]), float("inf"), 1.0)
                )
            for metric, tol in (("wall", wall_tol), ("modeled", modeled_tol)):
                cur_val = cur_rec[f"{metric}_seconds"] / cur_scale
                base_val = base_rec[f"{metric}_seconds"] / base_scale
                if base_val <= 0.0 or cur_val <= 0.0:
                    continue  # degenerate timing; nothing to compare against
                ratio = cur_val / base_val
                if cross:
                    ratios.setdefault((algo, metric), []).append(ratio)
                    continue
                delta = PerfDelta(name, algo, metric, base_val, cur_val, ratio, tol)
                if ratio > tol:
                    regressions.append(delta)
                elif ratio < 1.0 / tol:
                    improvements.append(delta)
    if cross:
        for (algo, metric), values in sorted(ratios.items()):
            tol = wall_tol if metric == "wall" else modeled_tol
            agg = geometric_mean(values)
            delta = PerfDelta("<aggregate>", algo, metric, 1.0, agg, agg, tol)
            if agg > tol:
                regressions.append(delta)
            elif agg < 1.0 / tol:
                improvements.append(delta)
    if checked == 0:
        raise ValueError(
            "perf comparison checked 0 (instance, algorithm) pairs — the "
            "capture and the baseline share none (renamed instances or a "
            "foreign baseline file?)"
        )
    return PerfComparison(
        regressions=regressions,
        improvements=improvements,
        checked=checked,
        cross_profile=cross,
        wall_tolerance=wall_tol,
        modeled_tolerance=modeled_tol,
    )
