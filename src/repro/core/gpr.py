"""G-PR: the GPU push-relabel maximum cardinality bipartite matching algorithm.

This module implements the three variants the paper evaluates in Figure 1:

``G-PR-First`` (Algorithm 3 + Algorithm 6)
    One thread per column of the graph in every push kernel.

``G-PR-NoShr`` (Algorithm 7 with Algorithms 8 and 9, shrinking disabled)
    The push kernels run over an explicit active-column list kept in the two
    arrays ``Ac`` / ``Ap`` (with rollback of conflicting pushes), so the
    thread count equals the number of unmatched columns after the greedy
    initialisation instead of ``n``.

``G-PR-Shr`` (Algorithm 7 with the shrink kernel of §III-C2)
    Additionally compacts the active list with a prefix-sum pass after every
    global relabel, as long as it still holds at least
    ``shrink_threshold`` (= 512 in the paper) entries.

All variants share the GPU global relabeling of Algorithms 4–5 and the
global-relabel scheduling strategies of :mod:`repro.core.strategies`; the
matching inconsistencies left behind by the lock-free pushes are resolved by
a final ``FIXMATCHING`` kernel.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.kernels import (
    active_columns_mask,
    fix_matching_kernel,
    init_active_kernel,
    push_kernel_active_list,
    push_kernel_all_columns,
    push_kernel_all_columns_serialized,
    shrink_kernel,
)
from repro.core.relabel import gpu_global_relabel
from repro.core.strategies import GlobalRelabelStrategy, parse_strategy
from repro.graph.bipartite import BipartiteGraph
from repro.graph.validate import check_int
from repro.gpusim.device import VirtualGPU
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.seq.greedy import cheap_matching

__all__ = ["GPRVariant", "GPRConfig", "gpr_matching"]


class GPRVariant(str, enum.Enum):
    """The three G-PR implementations compared in Figure 1 of the paper."""

    FIRST = "first"
    NO_SHRINK = "noshrink"
    SHRINK = "shrink"


#: Hardware waves kept in flight per launch: the lockstep engine makes writes
#: of earlier waves visible to later waves of the same launch, as a launch
#: with more threads than cores sees them on a real device.
#: ``wave_size = WAVES_IN_FLIGHT × total_cores``.
WAVES_IN_FLIGHT = 4


@dataclass(frozen=True)
class GPRConfig:
    """Configuration of a G-PR run.

    Attributes
    ----------
    variant:
        Which of the three implementations to run; the paper's final
        configuration is :attr:`GPRVariant.SHRINK`.
    strategy:
        Global-relabel scheduling policy, either a
        :class:`~repro.core.strategies.GlobalRelabelStrategy` or a string
        such as ``"adaptive:0.7"`` (the paper's best) or ``"fix:10"``,
        parsed into a strategy when the config is made.
    shrink_threshold:
        Minimum active-list length for which the shrink kernel is worth its
        overhead (512 in the paper, §III-C2); an integer >= 1.
    engine:
        ``"lockstep"`` (vectorised, default) or ``"serialized"`` (per-thread
        reference interpreter; only supported for the ``first`` variant and
        meant for the race-tolerance tests).
    max_iterations:
        Budget of main-loop iterations, an integer >= 1; ``None`` derives
        ``50 × (n + m) + 1000`` from the graph.
    seed:
        Seed (>= 0) for the serialized engine's thread-order permutation.
    """

    variant: GPRVariant | str = GPRVariant.SHRINK
    strategy: GlobalRelabelStrategy | str = "adaptive:0.7"
    shrink_threshold: int = 512
    engine: str = "lockstep"
    max_iterations: int | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        # Every field is parsed or checked here, where the config is made:
        # for a job request, before any graph is built.
        object.__setattr__(self, "variant", GPRVariant(self.variant))
        object.__setattr__(self, "strategy", parse_strategy(self.strategy))
        check_int("shrink_threshold", self.shrink_threshold, 1)
        check_int("max_iterations", self.max_iterations, 1, optional=True)
        check_int("seed", self.seed, 0, optional=True)
        if self.engine not in ("lockstep", "serialized"):
            raise ValueError(f"unknown engine {self.engine!r}; use 'lockstep' or 'serialized'")
        if self.engine == "serialized" and self.variant is not GPRVariant.FIRST:
            raise ValueError("the serialized reference engine only supports the 'first' variant")


@dataclass
class _RunState:
    """Mutable device-side state of one G-PR run."""

    mu_row: np.ndarray
    mu_col: np.ndarray
    psi_row: np.ndarray
    psi_col: np.ndarray
    counters: dict = field(default_factory=dict)


def _initial_state(graph: BipartiteGraph, initial: Matching | None) -> tuple[_RunState, int]:
    """Build µ and ψ arrays from the initial matching (cheap matching by default)."""
    if initial is None:
        initial = cheap_matching(graph).matching
    else:
        initial = initial.copy().canonical()
    mu_row = initial.row_match.copy()
    mu_col = initial.col_match.copy()
    psi_row = np.zeros(graph.n_rows, dtype=np.int64)
    psi_col = np.ones(graph.n_cols, dtype=np.int64)
    state = _RunState(mu_row=mu_row, mu_col=mu_col, psi_row=psi_row, psi_col=psi_col)
    return state, int(np.count_nonzero(mu_row >= 0))


def gpr_matching(
    graph: BipartiteGraph,
    initial: Matching | None = None,
    config: GPRConfig | None = None,
    device: VirtualGPU | None = None,
) -> MatchingResult:
    """Run G-PR on ``graph`` and return the maximum cardinality matching.

    Parameters
    ----------
    graph:
        The bipartite graph (kept read-only).
    initial:
        Starting matching; the paper's cheap greedy matching when omitted.
        Its construction is *not* charged to the GPU ledger — the paper
        compares all algorithms after this common initialisation.
    config:
        Variant / strategy / engine selection, see :class:`GPRConfig`.
    device:
        A :class:`~repro.gpusim.device.VirtualGPU`; a fresh reference device
        is created when omitted.

    Returns
    -------
    MatchingResult
        ``modeled_time`` holds the GPU cost-model seconds; ``counters``
        includes per-kernel breakdowns, loop and global-relabel counts and
        the initial-matching cardinality.
    """
    config = config or GPRConfig()
    variant = config.variant
    strategy = config.strategy
    gpu = device or VirtualGPU()
    rng = np.random.default_rng(config.seed) if config.seed is not None else None

    t0 = time.perf_counter()
    state, initial_cardinality = _initial_state(graph, initial)
    # Under shadow-access mode the µ/ψ arrays become recording views (shared
    # buffers); without it shadow_wrap is the identity on these arrays.
    state.mu_row = gpu.shadow_wrap(state.mu_row, "mu_row")
    state.mu_col = gpu.shadow_wrap(state.mu_col, "mu_col")
    state.psi_row = gpu.shadow_wrap(state.psi_row, "psi_row")
    state.psi_col = gpu.shadow_wrap(state.psi_col, "psi_col")
    max_iterations = (
        config.max_iterations
        if config.max_iterations is not None
        else 50 * (graph.n_rows + graph.n_cols) + 1000
    )

    if variant is GPRVariant.FIRST:
        loops, relabels = _run_first(graph, state, strategy, gpu, config, rng, max_iterations)
    else:
        loops, relabels = _run_active_list(graph, state, strategy, gpu, config, variant, max_iterations)

    work = fix_matching_kernel(state.mu_row, state.mu_col)
    gpu.charge_kernel("fixmatching", work)
    wall = time.perf_counter() - t0

    counters = {
        "variant": variant.value,
        "strategy": strategy.label,
        "loops": loops,
        "global_relabels": relabels,
        "initial_matching": initial_cardinality,
        **gpu.ledger.counters(),
    }
    return MatchingResult.create(
        f"G-PR-{variant.value}",
        Matching(np.asarray(state.mu_row), np.asarray(state.mu_col)),
        counters=counters,
        modeled_time=gpu.ledger.kernel_seconds,
        wall_time=wall,
    )


# --------------------------------------------------------------------------
# variant drivers
# --------------------------------------------------------------------------
def _run_first(
    graph: BipartiteGraph,
    state: _RunState,
    strategy: GlobalRelabelStrategy,
    gpu: VirtualGPU,
    config: GPRConfig,
    rng: np.random.Generator | None,
    max_iterations: int,
) -> tuple[int, int]:
    """Algorithm 3: the all-columns variant."""
    loop = 0
    iter_gr = 0
    relabels = 0
    act_exists = True
    # Columns that may be active; the first launch tests every column.
    candidates = None
    while act_exists:
        if loop >= max_iterations:
            raise RuntimeError(
                f"G-PR-first exceeded {max_iterations} iterations on {graph.name!r}; "
                "this indicates a livelock — please report it"
            )
        if loop == iter_gr:
            max_level = gpu_global_relabel(
                graph, state.mu_row, state.mu_col, state.psi_row, state.psi_col, gpu
            )
            relabels += 1
            iter_gr = strategy.next_iteration(loop, max_level)
        if config.engine == "serialized":
            act_exists, work = push_kernel_all_columns_serialized(
                graph, state.mu_row, state.mu_col, state.psi_row, state.psi_col, rng=rng
            )
        else:
            act_exists, work, candidates = push_kernel_all_columns(
                graph,
                state.mu_row,
                state.mu_col,
                state.psi_row,
                state.psi_col,
                wave_size=WAVES_IN_FLIGHT * gpu.spec.total_cores,
                candidates=candidates,
            )
        gpu.charge_kernel("g-pr-krnl", work)
        loop += 1
    return loop, relabels


def _run_active_list(
    graph: BipartiteGraph,
    state: _RunState,
    strategy: GlobalRelabelStrategy,
    gpu: VirtualGPU,
    config: GPRConfig,
    variant: GPRVariant,
    max_iterations: int,
) -> tuple[int, int]:
    """Algorithm 7: the active-list variants (with and without shrinking)."""
    unmatched = np.flatnonzero(state.mu_col == UNMATCHED).astype(np.int64)
    ac = gpu.shadow_wrap(unmatched.copy(), "ac")
    ap = gpu.shadow_wrap(unmatched.copy(), "ap")
    ia = gpu.shadow_wrap(np.full(graph.n_cols, -1, dtype=np.int64), "ia")

    loop = 0
    iter_gr = 0
    relabels = 0
    shrink_pending = False
    act_exists = True
    while act_exists:
        if loop >= max_iterations:
            raise RuntimeError(
                f"G-PR-{variant.value} exceeded {max_iterations} iterations on {graph.name!r}; "
                "this indicates a livelock — please report it"
            )
        if loop == iter_gr:
            max_level = gpu_global_relabel(
                graph, state.mu_row, state.mu_col, state.psi_row, state.psi_col, gpu
            )
            relabels += 1
            iter_gr = strategy.next_iteration(loop, max_level)
            shrink_pending = True

        use_shrink = (
            variant is GPRVariant.SHRINK
            and shrink_pending
            and len(ac) >= config.shrink_threshold
        )
        if use_shrink:
            act_exists, ac, ap, work = shrink_kernel(
                state.mu_row, state.mu_col, ac, ap, ia, loop
            )
            gpu.charge_kernel("g-pr-shrkrnl", work)
            # The shrink kernel compacts into freshly allocated lists; rewrap
            # them so shadow mode keeps recording accesses to the new buffers.
            ac = gpu.shadow_wrap(ac, "ac")
            ap = gpu.shadow_wrap(ap, "ap")
            shrink_pending = False
        else:
            act_exists, work = init_active_kernel(state.mu_row, state.mu_col, ac, ap, ia, loop)
            gpu.charge_kernel("g-pr-initkrnl", work)

        if act_exists:
            work = push_kernel_active_list(
                graph,
                state.mu_row,
                state.mu_col,
                state.psi_row,
                state.psi_col,
                ac,
                ap,
                ia,
                loop,
                wave_size=WAVES_IN_FLIGHT * gpu.spec.total_cores,
            )
            gpu.charge_kernel("g-pr-pushkrnl", work)
            ac, ap = ap, ac
        loop += 1

    # The worklist must cover every active column: when it drains, no column
    # may remain active (sanity check, costs one vectorised pass on the host).
    if active_columns_mask(state.mu_row, state.mu_col).any():  # pragma: no cover - defensive
        raise RuntimeError("active-list invariant violated: worklist drained with active columns left")
    return loop, relabels
