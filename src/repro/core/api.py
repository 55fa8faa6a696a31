"""Unified public API and dispatch pipeline over every matching algorithm.

Every caller — :func:`max_bipartite_matching`, the CLI, the benchmark
harness and the batched :mod:`repro.service` — goes through the same two
steps:

1. :func:`resolve_algorithm` turns an algorithm name plus keyword arguments
   into an :class:`ExecutionPlan`: the registry entry, a config object built
   from the config-field keywords and the checked extra arguments.  Field
   keywords are the only way to configure a run: unknown keywords raise
   ``TypeError`` uniformly across the registry, and a bad value raises
   ``ValueError`` or ``TypeError`` here, before any graph is touched.
2. :meth:`ExecutionPlan.run` executes the plan on a graph (optionally from a
   warm-start matching).  Plans are immutable and graph-independent, so one
   plan can be reused across a whole batch of graphs.
"""

from __future__ import annotations

import dataclasses
import difflib
from dataclasses import dataclass, field
from collections.abc import Callable, Mapping
from typing import Any

from repro.capacity.augment import capacitated_augment_matching
from repro.capacity.auction import capacitated_auction_matching
from repro.capacity.expand import _inner_plan, capacitated_expand_matching
from repro.core.ghkdw import ghkdw_matching
from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching
from repro.graph.bipartite import BipartiteGraph
from repro.graph.validate import check_int
from repro.gpusim.device import VirtualGPU
from repro.matching import Matching, MatchingResult
from repro.multicore.pdbfs import PDBFSConfig, pdbfs_matching
from repro.seq.greedy import cheap_matching, karp_sipser_matching
from repro.seq.hopcroft_karp import hkdw_matching, hopcroft_karp_matching
from repro.seq.pothen_fan import pothen_fan_matching
from repro.seq.push_relabel import PushRelabelConfig, push_relabel_matching
from repro.weighted.auction import AuctionConfig, weighted_auction_matching
from repro.weighted.sap import SAPConfig, weighted_sap_matching

__all__ = [
    "MAXIMUM_ALGORITHMS",
    "SPECS",
    "AlgorithmSpec",
    "ExecutionPlan",
    "max_bipartite_matching",
    "resolve_algorithm",
]


# --------------------------------------------------------------------- specs
@dataclass(frozen=True)
class AlgorithmSpec:
    """Registry entry describing one algorithm and what it accepts.

    Attributes
    ----------
    name:
        Canonical (lower-case) registry key.
    runner:
        ``runner(graph, initial, config, device, **extra) -> MatchingResult``.
        Runners for algorithms without a config or device simply ignore those
        positions; argument validation happens in :func:`resolve_algorithm`,
        never here.
    maximum:
        Whether the algorithm guarantees a *maximum* cardinality matching.
    config_cls:
        Dataclass of tuning knobs (``GPRConfig``, ``PushRelabelConfig``,
        ``PDBFSConfig``) or ``None`` for knob-free algorithms.
    config_overrides:
        Config fields pinned by the registry entry (e.g. the G-PR variant);
        they cannot be overridden by keyword arguments.
    extra_params:
        Non-config keyword arguments the runner accepts (e.g. ``max_phases``
        for G-HKDW, ``seed`` for the greedy heuristics), each mapped to the
        module-level check :func:`resolve_algorithm` runs on its value
        (module-level, so plans still pickle to process workers).
    accepts_device:
        Whether the algorithm runs on the virtual GPU.
    accepts_initial:
        Whether the algorithm consumes a warm-start matching (the greedy
        initialisation heuristics do not — they *produce* one).
    entropy_seeded:
        Whether the runner draws from an entropy-seeded RNG when no ``seed``
        is given, making unseeded runs non-deterministic (Karp–Sipser);
        consumers like the service's result cache must not memoize such runs.
    weighted:
        Whether the algorithm optimises edge weights (the
        :mod:`repro.weighted` solvers).  Weighted algorithms still return a
        maximum-cardinality matching on weightless graphs (unit weights).
    capacitated:
        Whether the algorithm honours per-vertex b-matching capacities (the
        :mod:`repro.capacity` solvers).  Capacitated algorithms return a
        :class:`repro.capacity.CapacitatedMatching` on capacitated graphs
        and delegate to their uncapacitated counterpart (bit-identical
        plain :class:`~repro.matching.Matching`) on capacity-free graphs.
    """

    name: str
    runner: Callable[..., MatchingResult]
    maximum: bool = True
    config_cls: type | None = None
    config_overrides: Mapping[str, Any] = field(default_factory=dict)
    extra_params: Mapping[str, Callable[[Any], Any]] = field(default_factory=dict)
    accepts_device: bool = False
    accepts_initial: bool = True
    entropy_seeded: bool = False
    weighted: bool = False
    capacitated: bool = False

    def config_fields(self) -> frozenset[str]:
        """Config-dataclass fields settable through keyword arguments."""
        if self.config_cls is None:
            return frozenset()
        names = {f.name for f in dataclasses.fields(self.config_cls)}
        return frozenset(names - set(self.config_overrides))

    def accepted_kwargs(self) -> tuple[str, ...]:
        """Every keyword :func:`resolve_algorithm` accepts for this entry."""
        return tuple(sorted(self.config_fields() | set(self.extra_params)))


@dataclass(frozen=True)
class ExecutionPlan:
    """A resolved, reusable recipe for running one algorithm.

    A plan is graph-independent: build it once with
    :func:`resolve_algorithm`, then :meth:`run` it on any number of graphs.
    ``device_factory`` (rather than a device instance) is stored so every run
    of a GPU algorithm gets a fresh virtual device and therefore a clean
    cost-model ledger.
    """

    algorithm: str
    spec: AlgorithmSpec
    config: Any | None = None
    device_factory: Callable[[], VirtualGPU] | None = None
    extra: tuple[tuple[str, Any], ...] = ()
    #: When set, :meth:`run` partitions the graph into this many column-block
    #: shards and solves through :class:`repro.sharded.ShardedMatcher`
    #: (per-shard jobs + boundary reconciliation) instead of one kernel call.
    shards: int | None = None
    partition_method: str | None = None

    @property
    def deterministic(self) -> bool:
        """Whether repeated runs of this plan return identical results.

        ``False`` only for entropy-seeded heuristics run without a ``seed``
        (each run draws a fresh random sample); such plans must not be
        memoized or deduplicated.
        """
        return not (self.spec.entropy_seeded and dict(self.extra).get("seed") is None)

    def run(self, graph: BipartiteGraph, initial: Matching | None = None) -> MatchingResult:
        """Execute the plan on ``graph``, optionally from a warm-start matching."""
        if self.shards is not None:
            return self._run_sharded(graph, initial)
        if initial is not None and not self.spec.accepts_initial:
            raise TypeError(
                f"algorithm {self.algorithm!r} produces an initial matching; "
                "it does not accept a warm-start"
            )
        if initial is not None:
            initial.check_compatible(graph, context="warm-start matching")
        device = None
        if self.spec.accepts_device and self.device_factory is not None:
            device = self.device_factory()
        return self.spec.runner(graph, initial, self.config, device, **dict(self.extra))

    def _run_sharded(self, graph, initial):
        # Imported lazily: repro.sharded pulls in the engine, which resolves
        # plans through this module.
        from repro.sharded.matcher import ShardedMatcher
        from repro.sharded.partition import ShardedBipartiteGraph, partition_graph

        if initial is not None:
            raise TypeError(
                f"sharded execution of {self.algorithm!r} does not accept a warm-start"
            )
        if isinstance(graph, ShardedBipartiteGraph):
            sharded = graph
        else:
            sharded = partition_graph(graph, self.shards, self.partition_method)
        inner = dataclasses.replace(self, shards=None, partition_method=None)
        return ShardedMatcher(sharded, inner).run()


# ------------------------------------------------------------------- runners
def _run_gpr(graph, initial, config, device, **_):
    return gpr_matching(graph, initial=initial, config=config, device=device)


def _run_ghkdw(graph, initial, config, device, *, max_phases=None):
    return ghkdw_matching(graph, initial=initial, device=device, max_phases=max_phases)


def _run_pdbfs(graph, initial, config, device, **_):
    return pdbfs_matching(graph, initial=initial, config=config)


def _run_pr(graph, initial, config, device, **_):
    return push_relabel_matching(graph, initial=initial, config=config)


def _run_hk(graph, initial, config, device, **_):
    return hopcroft_karp_matching(graph, initial=initial)


def _run_hkdw(graph, initial, config, device, **_):
    return hkdw_matching(graph, initial=initial)


def _run_pfp(graph, initial, config, device, **_):
    return pothen_fan_matching(graph, initial=initial)


def _run_cheap(graph, initial, config, device, *, seed=None):
    return cheap_matching(graph, seed=seed)


def _run_karp_sipser(graph, initial, config, device, *, seed=None):
    return karp_sipser_matching(graph, seed=seed)


def _run_weighted_sap(graph, initial, config, device, **_):
    return weighted_sap_matching(graph, config=config)


def _run_weighted_auction(graph, initial, config, device, **_):
    return weighted_auction_matching(graph, config=config, device=device)


def _run_b_expand(graph, initial, config, device, *, inner="hk"):
    return capacitated_expand_matching(graph, inner=inner)


def _run_b_aug(graph, initial, config, device, **_):
    return capacitated_augment_matching(graph, initial=initial)


def _run_b_auction(graph, initial, config, device, **_):
    return capacitated_auction_matching(graph, config=config, device=device)


def _check_max_phases(value) -> None:
    check_int("max_phases", value, 1, optional=True)


def _check_seed(value) -> None:
    check_int("seed", value, 0, optional=True)


def _gpr_spec(name: str, variant: GPRVariant) -> AlgorithmSpec:
    return AlgorithmSpec(
        name=name,
        runner=_run_gpr,
        config_cls=GPRConfig,
        config_overrides={"variant": variant},
        accepts_device=True,
    )


#: Registry of canonical algorithm name → :class:`AlgorithmSpec`.
SPECS: dict[str, AlgorithmSpec] = {
    spec.name: spec
    for spec in (
        # the paper's contribution (three variants; "g-pr" is the final configuration)
        _gpr_spec("g-pr", GPRVariant.SHRINK),
        _gpr_spec("g-pr-first", GPRVariant.FIRST),
        _gpr_spec("g-pr-noshrink", GPRVariant.NO_SHRINK),
        _gpr_spec("g-pr-shrink", GPRVariant.SHRINK),
        # GPU comparator
        AlgorithmSpec(
            name="g-hkdw",
            runner=_run_ghkdw,
            extra_params={"max_phases": _check_max_phases},
            accepts_device=True,
        ),
        # multicore comparator
        AlgorithmSpec(name="p-dbfs", runner=_run_pdbfs, config_cls=PDBFSConfig),
        # sequential baselines
        AlgorithmSpec(name="pr", runner=_run_pr, config_cls=PushRelabelConfig),
        AlgorithmSpec(name="hk", runner=_run_hk),
        AlgorithmSpec(name="hkdw", runner=_run_hkdw),
        AlgorithmSpec(name="pfp", runner=_run_pfp),
        # weighted assignment (optimal weight among maximum-cardinality
        # matchings; unit weights on structural graphs).  Neither consumes a
        # warm start — their dual certificates must be built from scratch.
        AlgorithmSpec(
            name="weighted-sap",
            runner=_run_weighted_sap,
            config_cls=SAPConfig,
            accepts_initial=False,
            weighted=True,
        ),
        AlgorithmSpec(
            name="weighted-auction",
            runner=_run_weighted_auction,
            config_cls=AuctionConfig,
            accepts_device=True,
            accepts_initial=False,
            weighted=True,
        ),
        # capacitated b-matching (per-vertex b_row / b_col capacities on the
        # graph; each delegates to its uncapacitated counterpart when every
        # capacity is 1, so capacity-free runs are bit-identical to it)
        AlgorithmSpec(
            name="b-expand",
            runner=_run_b_expand,
            extra_params={"inner": _inner_plan},
            accepts_initial=False,
            capacitated=True,
        ),
        AlgorithmSpec(
            name="b-aug",
            runner=_run_b_aug,
            capacitated=True,
        ),
        AlgorithmSpec(
            name="b-auction",
            runner=_run_b_auction,
            config_cls=AuctionConfig,
            accepts_device=True,
            accepts_initial=False,
            weighted=True,
            capacitated=True,
        ),
        # greedy heuristics (not maximum; exposed for initialisation studies)
        AlgorithmSpec(
            name="cheap",
            runner=_run_cheap,
            maximum=False,
            extra_params={"seed": _check_seed},
            accepts_initial=False,
        ),
        AlgorithmSpec(
            name="karp-sipser",
            runner=_run_karp_sipser,
            maximum=False,
            extra_params={"seed": _check_seed},
            accepts_initial=False,
            entropy_seeded=True,
        ),
    )
}

#: Algorithms guaranteed to return a *maximum* matching.
MAXIMUM_ALGORITHMS = tuple(name for name, spec in SPECS.items() if spec.maximum)


# ------------------------------------------------------------------ pipeline
def resolve_algorithm(
    name: str,
    *,
    device_factory: Callable[[], VirtualGPU] | None = None,
    shards: int | None = None,
    partition: str | None = None,
    **kwargs,
) -> ExecutionPlan:
    """Resolve an algorithm name and keyword arguments into an :class:`ExecutionPlan`.

    Parameters
    ----------
    name:
        Registry key (case-insensitive), e.g. ``"g-pr"`` or ``"pr"``.
    device_factory:
        For GPU algorithms: a factory invoked once per
        :meth:`ExecutionPlan.run`, so every run gets a fresh cost-model
        ledger.
    shards / partition:
        When ``shards`` is given, :meth:`ExecutionPlan.run` executes through
        the :mod:`repro.sharded` subsystem: the graph is column-block
        partitioned into ``shards`` shards (``partition`` is one of
        :data:`repro.sharded.PARTITION_METHODS`; default ``"contiguous"``),
        each shard is solved with this algorithm, and boundary
        reconciliation restores global maximality.  Requires a
        maximum-cardinality, non-weighted, uncapacitated algorithm.
    **kwargs:
        Config fields (e.g. ``strategy="fix:10"``, ``global_relabel_k=0.7``,
        ``n_threads=4``) or the algorithm's extra parameters (e.g.
        ``max_phases``, ``seed``).  Anything else raises ``TypeError`` —
        uniformly, for every algorithm in the registry.

    Raises
    ------
    ValueError
        Unknown algorithm name, ``shards < 1``, an unknown partition
        method, or a keyword value its config or check refuses.
    TypeError
        Unknown keyword arguments, a ``device_factory`` for an algorithm
        that does not run on a device, ``partition=`` without ``shards=``,
        or ``shards=`` with an algorithm that cannot run sharded.
    """
    key = str(name).strip().lower()
    if key not in SPECS:
        close = difflib.get_close_matches(key, SPECS, n=1, cutoff=0.6)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ValueError(
            f"unknown algorithm {name!r}{hint}; available: {', '.join(sorted(SPECS))}"
        )
    spec = SPECS[key]

    partition_method: str | None = None
    if shards is not None:
        shards = int(shards)
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not spec.maximum or spec.weighted or spec.capacitated:
            raise TypeError(
                f"algorithm {key!r} cannot run sharded: sharded matching "
                "needs a maximum-cardinality, cardinality-only, "
                "uncapacitated algorithm"
            )
        from repro.sharded.partition import PARTITION_METHODS

        partition_method = "contiguous" if partition is None else str(partition).lower()
        if partition_method not in PARTITION_METHODS:
            raise ValueError(
                f"unknown partition method {partition!r}; "
                f"available: {', '.join(PARTITION_METHODS)}"
            )
    elif partition is not None:
        raise TypeError("partition= requires shards=")

    if device_factory is not None and not spec.accepts_device:
        raise TypeError(f"algorithm {key!r} does not run on a device")

    config_fields = spec.config_fields()
    config_kwargs = {k: v for k, v in kwargs.items() if k in config_fields}
    extra_kwargs = {k: v for k, v in kwargs.items() if k in spec.extra_params}
    unknown = sorted(set(kwargs) - set(config_kwargs) - set(extra_kwargs))
    if unknown:
        accepted = spec.accepted_kwargs()
        raise TypeError(
            f"algorithm {key!r} got unexpected keyword argument(s) {unknown}; "
            f"accepted: {list(accepted) if accepted else 'none'}"
        )

    for extra_name, value in extra_kwargs.items():
        spec.extra_params[extra_name](value)
    config = None
    if spec.config_cls is not None:
        config = spec.config_cls(**{**dict(spec.config_overrides), **config_kwargs})

    return ExecutionPlan(
        algorithm=key,
        spec=spec,
        config=config,
        device_factory=device_factory,
        extra=tuple(sorted(extra_kwargs.items())),
        shards=shards,
        partition_method=partition_method,
    )


def max_bipartite_matching(
    graph: BipartiteGraph,
    algorithm: str = "g-pr",
    initial: Matching | None = None,
    **kwargs,
) -> MatchingResult:
    """Compute a matching of ``graph`` with the selected algorithm.

    Parameters
    ----------
    graph:
        The bipartite graph.
    algorithm:
        One of :data:`SPECS` (case-insensitive).  ``"g-pr"`` — the
        paper's final configuration (active list + shrinking, adaptive 0.7
        global relabeling) — is the default.  All entries except ``"cheap"``
        and ``"karp-sipser"`` return a maximum cardinality matching; the
        weighted solvers (``"weighted-sap"``, ``"weighted-auction"``)
        additionally optimise the graph's edge weights among the
        maximum-cardinality matchings (``objective="max"`` / ``"min"``) and
        attach a dual optimality certificate to ``result.duals``.
    initial:
        Optional starting matching; by default every algorithm starts from
        the cheap greedy matching, as in the paper's experiments.
    **kwargs:
        Forwarded to :func:`resolve_algorithm`: config fields such as
        ``strategy="fix:10"`` or ``global_relabel_k=0.7``, extra parameters
        such as ``seed``, or ``device_factory``, ``shards`` and
        ``partition``.  Unknown keywords raise ``TypeError``.

    Returns
    -------
    MatchingResult

    Raises
    ------
    ValueError
        For an unknown algorithm name or a keyword value the algorithm
        refuses.
    TypeError
        For keyword arguments the algorithm does not accept.

    Examples
    --------
    >>> from repro.generators import uniform_random_bipartite
    >>> g = uniform_random_bipartite(500, 500, avg_degree=4, seed=0)
    >>> gpu = max_bipartite_matching(g, "g-pr")
    >>> cpu = max_bipartite_matching(g, "pr")
    >>> gpu.cardinality == cpu.cardinality
    True
    """
    return resolve_algorithm(algorithm, **kwargs).run(graph, initial)
