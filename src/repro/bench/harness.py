"""Suite runner: executes matching algorithms over the evaluation suite.

The paper's methodology (§IV): every algorithm starts from the common cheap
matching, only the time after that initialisation is measured, and aggregate
numbers are geometric means over the 28 instances.  The runner reproduces
that protocol with modelled seconds, which every solver prices itself (see
:attr:`repro.matching.MatchingResult.modeled_time`): the GPU algorithms
report their virtual device's cost-model time, P-DBFS its multicore
cost-model time, and the sequential baselines
:class:`~repro.gpusim.costmodel.CpuCostModel` over their work counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from repro.core.api import ExecutionPlan, resolve_algorithm
from repro.engine import Engine, ExecutionBackend, MatchingJob
from repro.generators.suite import SUITE_SPECS, SuiteInstance, generate_instance
from repro.gpusim.device import VirtualGPU, reference_device
from repro.matching import MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = [
    "AlgorithmRun",
    "InstanceResult",
    "SuiteRunner",
    "geometric_mean",
    "modeled_seconds_for",
    "reference_device",
]

def modeled_seconds_for(result: MatchingResult) -> float:
    """``result.modeled_time`` as a float; ``perfbench/table1.py`` imports it."""
    return float(result.modeled_time)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean (the aggregation used throughout the paper's §IV)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric mean of an empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires positive values")
    return float(np.exp(np.log(arr).mean()))


@dataclass(frozen=True)
class AlgorithmRun:
    """Outcome of one algorithm on one instance."""

    algorithm: str
    cardinality: int
    modeled_seconds: float
    wall_seconds: float
    counters: dict


@dataclass(frozen=True)
class InstanceResult:
    """All algorithm runs on one suite instance, plus instance metadata."""

    spec: SuiteInstance
    n_rows: int
    n_cols: int
    n_edges: int
    initial_matching: int
    maximum_matching: int
    runs: dict[str, AlgorithmRun]

    def speedup(self, algorithm: str, baseline: str = "PR") -> float:
        """Modelled-time speedup of ``algorithm`` over ``baseline`` on this instance."""
        return self.runs[baseline].modeled_seconds / self.runs[algorithm].modeled_seconds


def _default_algorithms(device_factory: Callable[[], VirtualGPU]) -> dict[str, ExecutionPlan]:
    """The four algorithms of Table I as plans on the shared dispatch pipeline."""
    return {
        "G-PR": resolve_algorithm("g-pr", strategy="adaptive:0.7", device_factory=device_factory),
        "G-HKDW": resolve_algorithm("g-hkdw", device_factory=device_factory),
        "P-DBFS": resolve_algorithm("p-dbfs", n_threads=8),
        "PR": resolve_algorithm("pr", global_relabel_k=0.5),
    }


#: Extra sequential baselines available to ablation benchmarks.
EXTRA_SEQUENTIAL = {
    "HK": resolve_algorithm("hk"),
    "HKDW": resolve_algorithm("hkdw"),
    "PFP": resolve_algorithm("pfp"),
}


@dataclass
class SuiteRunner:
    """Runs a set of algorithms over the evaluation suite.

    Parameters
    ----------
    profile:
        Instance-size profile (``tiny`` / ``small`` / ``medium`` / ``large``).
    seed:
        Suite generation seed.
    algorithms:
        Mapping name → :class:`~repro.core.api.ExecutionPlan`; defaults to
        the four algorithms of Table I.
    instances:
        Restrict to these instance names (default: all 28).
    device_factory:
        Factory for the virtual GPU handed to each GPU-algorithm run.
    backend:
        Execution backend the runner's :class:`~repro.engine.Engine` uses:
        a name (``"inline"`` default, ``"thread"``, ``"process"``) or a
        ready :class:`~repro.engine.backends.ExecutionBackend`.
    """

    profile: str = "small"
    seed: int = 20130421
    algorithms: dict[str, ExecutionPlan] | None = None
    instances: Sequence[str] | None = None
    device_factory: Callable[[], VirtualGPU] = field(default=reference_device)
    backend: "str | ExecutionBackend" = "inline"

    def __post_init__(self) -> None:
        if self.algorithms is None:
            self.algorithms = _default_algorithms(self.device_factory)
        # The runner owns (and close() tears down) a backend built from a
        # name; a caller-supplied ExecutionBackend instance is left running.
        self._engine = Engine(backend=self.backend)

    def close(self) -> None:
        """Shut down the runner's engine (pooled backends hold workers)."""
        self._engine.shutdown()

    def specs(self) -> list[SuiteInstance]:
        """The suite instances this runner covers, in Table-I order."""
        if self.instances is None:
            return list(SUITE_SPECS)
        wanted = set(self.instances)
        unknown = wanted - {spec.name for spec in SUITE_SPECS}
        if unknown:
            raise KeyError(f"unknown suite instances: {sorted(unknown)}")
        return [spec for spec in SUITE_SPECS if spec.name in wanted]

    def run_instance(self, spec: SuiteInstance) -> InstanceResult:
        """Run every configured algorithm on one instance.

        Every plan is submitted to the runner's engine (each starts from one
        common cheap matching, per the paper's protocol) and awaited
        together; a failing run raises
        :class:`~repro.engine.handles.JobFailedError` carrying the captured
        failure (original type, message and traceback on ``.failure``) — the
        harness wants hard failures loud, not isolated.
        """
        graph = generate_instance(spec.instance_id, profile=self.profile, seed=self.seed)
        initial = cheap_matching(graph).matching
        handles = {
            name: self._engine.submit(
                MatchingJob(graph=graph, algorithm=plan.algorithm, job_id=name),
                plan=plan,
                initial_matching=initial.copy(),
            )
            for name, plan in self.algorithms.items()
        }
        runs: dict[str, AlgorithmRun] = {}
        maximum = 0
        for name, handle in handles.items():
            result = handle.result()
            runs[name] = AlgorithmRun(
                algorithm=name,
                cardinality=result.cardinality,
                modeled_seconds=result.modeled_time,
                wall_seconds=result.wall_time,
                counters=result.counters,
            )
            maximum = max(maximum, result.cardinality)
        return InstanceResult(
            spec=spec,
            n_rows=graph.n_rows,
            n_cols=graph.n_cols,
            n_edges=graph.n_edges,
            initial_matching=initial.cardinality,
            maximum_matching=maximum,
            runs=runs,
        )

    def run(self) -> list[InstanceResult]:
        """Run the whole suite; results come back in Table-I order."""
        return [self.run_instance(spec) for spec in self.specs()]
