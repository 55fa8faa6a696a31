"""Conflict-policy registry and the sanitized sweep of the shipped kernels.

Every lockstep kernel the repo ships is listed in :data:`KERNEL_POLICIES`
with the races its correctness argument declares (the per-kernel rationale
is spelled out in ``docs/static-analysis.md``).  :func:`sanitized_sweep`
re-runs all gpusim algorithms — the three G-PR variants, G-HKDW and the
auction solver — under shadow-access mode on two generator families and
asserts via :class:`~repro.analysis.hazards.HazardReport` that no kernel
exhibits a hazard its policy does not cover.  The CI ``lint-deep`` job runs
this as ``python -m repro.analysis``.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.analysis.hazards import AccessLog, ConflictPolicy, HazardReport, evaluate

__all__ = ["KERNEL_POLICIES", "sanitized_run", "sanitized_sweep"]


_LWW_PUSH = ConflictPolicy(
    last_writer_wins=frozenset({"mu_row", "psi_row"}),
    note="concurrent pushes may select the same row; the last writer wins and "
    "the losing columns re-activate next launch (§III-B)",
)

KERNEL_POLICIES: dict[str, ConflictPolicy] = {
    # G-PR push kernels: the paper's speculative pushes.
    "g-pr-krnl": _LWW_PUSH,
    "g-pr-pushkrnl": _LWW_PUSH,
    # Active-list repair: every thread owns its own list slot, so the
    # vectorised rollback / drop / dedup passes re-read and re-write slots.
    "g-pr-initkrnl": ConflictPolicy(
        slot_local=frozenset({"ac", "ap"}),
        note="each thread repairs its private active-list slot (Algorithm 8)",
    ),
    "g-pr-shrkrnl": ConflictPolicy(
        slot_local=frozenset({"ac", "ap"}),
        note="repair plus compaction into per-thread output regions (§III-C2)",
    ),
    # FIXMATCHING: one thread per column clears its own stale entry.
    "fixmatching": ConflictPolicy(
        slot_local=frozenset({"mu_col"}),
        note="each thread confirms/clears only its own column entry",
    ),
    # Global relabeling: INITRELABEL writes each vertex's own label (the
    # vectorised fill-then-overwrite is slot-local per thread); the BFS
    # levels write deduplicated frontiers only.
    "init-relabel": ConflictPolicy(
        slot_local=frozenset({"psi_row", "psi_col"}),
        note="one thread per vertex writes its own label (Algorithm 4)",
    ),
    "g-gr-krnl": ConflictPolicy(
        note="same-value label races are benign and deduplicated before writing"
    ),
    # G-HKDW: level-synchronous BFS writes disjoint frontiers; the
    # augmentation kernels model a serialised claim-based interleaving.
    "ghkdw-bfs": ConflictPolicy(note="frontier writes are deduplicated and disjoint per level"),
    "ghkdw-augment": ConflictPolicy(
        serialized=True, note="claim-based DFS; claims serialise the walks within the launch"
    ),
    "ghkdw-dw-augment": ConflictPolicy(
        serialized=True, note="Duff–Wassel round, same claim serialisation"
    ),
    # Auction: bids are pure reads; the assign kernel writes one winner per
    # object (deduplicated by the lexsort-lead pass).
    "auction_bid": ConflictPolicy(note="bid scan is read-only over prices"),
    "auction_assign": ConflictPolicy(
        note="one write per object after highest-bid dedup; unseated persons are disjoint "
        "from winners"
    ),
}

def _families() -> tuple[tuple[str, Callable], ...]:
    """Two generator families: uniform random, plus the skewed-degree R-MAT
    family, which drives the active-list/shrink machinery much harder."""
    from repro.generators import rmat_bipartite, uniform_random_bipartite

    return (
        ("uniform", lambda seed: uniform_random_bipartite(220, 200, avg_degree=4, seed=seed)),
        ("rmat", lambda seed: rmat_bipartite(8, edge_factor=6.0, seed=seed)),
    )


def _targets() -> list[tuple[str, Callable]]:
    """(label, runner(graph, gpu)) for every shipped gpusim algorithm."""
    from repro.core.ghkdw import ghkdw_matching
    from repro.core.gpr import GPRConfig, gpr_matching
    from repro.weighted.auction import AuctionConfig, weighted_auction_matching

    def gpr(variant, **kwargs):
        def run(graph, gpu):
            return gpr_matching(graph, config=GPRConfig(variant=variant, **kwargs), device=gpu)

        return run

    return [
        ("g-pr-first", gpr("first")),
        ("g-pr-noshrink", gpr("noshrink")),
        ("g-pr", gpr("shrink")),
        # Low threshold so the shrink kernel actually fires on the scaled
        # sweep instances (the paper's 512 exceeds their active lists).
        ("g-pr-shrink-eager", gpr("shrink", shrink_threshold=1)),
        ("g-hkdw", lambda graph, gpu: ghkdw_matching(graph, device=gpu)),
        (
            "weighted-auction",
            lambda graph, gpu: weighted_auction_matching(
                graph, config=AuctionConfig(), device=gpu
            ),
        ),
    ]


def sanitized_run(runner: Callable, graph, label: str = "run") -> HazardReport:
    """Run one gpusim algorithm under shadow-access mode and evaluate it."""
    from repro.gpusim.device import VirtualGPU

    log = AccessLog()
    # The scaled device keeps wave_size small relative to the instances, so
    # the push kernels genuinely split their launches into several waves.
    gpu = VirtualGPU(shadow=log)
    runner(graph, gpu)
    return evaluate(log, KERNEL_POLICIES, label=label)


def sanitized_sweep(
    seed: int = 20130421, families: Iterable[tuple[str, Callable]] | None = None
) -> list[HazardReport]:
    """Shadow-run every gpusim algorithm on every family; one report each."""
    reports = []
    for family_name, make_graph in families if families is not None else _families():
        graph = make_graph(seed)
        for algo_name, runner in _targets():
            reports.append(sanitized_run(runner, graph, label=f"{algo_name}/{family_name}"))
    return reports
