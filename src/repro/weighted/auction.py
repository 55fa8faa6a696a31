"""ε-scaling auction solver for weighted bipartite matching.

Bertsekas' auction algorithm shares the structure of the paper's speculative
push-relabel kernels: every unassigned *person* concurrently scans its
adjacency for the best and second-best object at current prices, submits a
bid, and every object accepts its highest bid — a pair of data-parallel
kernels with per-thread work equal to the adjacency scanned, exactly the
execution shape the :mod:`repro.gpusim` cost model charges.  Passing a
:class:`~repro.gpusim.device.VirtualGPU` runs the same Jacobi bidding rounds
as modelled kernel launches (``auction_bid`` / ``auction_assign``) and
reports the device's modelled seconds; without a device the bids' adjacency
scans are priced with the single-core CPU model.

Deficient (non-square / infeasible) instances are handled with the classic
**square augmentation**: persons are the real rows plus one artificial
person per column, objects are the real columns plus one artificial object
per row.  Every real edge ``(i, j)`` contributes the person→object edge
``i → j`` (shifted weight) and the mirror ``a_j → o_i`` (weight 0); the
diagonal edges ``i → o_i`` and ``a_j → j`` carry a penalty ``−P`` chosen so
that one extra real matched pair always beats any redistribution of weight
(``2P > K·spread``).  A perfect augmented assignment therefore always
exists, and the optimal one restricts to a maximum-weight
maximum-cardinality matching of the real graph.

ε-scaling runs the bidding to completion for a geometrically decreasing ε,
keeping prices between rounds.  The final ε is small enough that integer
effective weights make the result *exactly* optimal (``N·ε < 1``); the
returned :class:`~repro.weighted.duals.AuctionCertificate` carries the ε-CS
duals, from which :func:`repro.weighted.verify.certify_optimal` computes an
explicit a-posteriori optimality gap bound.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.gpusim.costmodel import CpuCostModel, SparseWork
from repro.matching import UNMATCHED, Matching, MatchingResult
from repro.weighted.duals import (
    AuctionCertificate,
    _check_objective,
    effective_weights,
    matching_total_weight,
)

__all__ = [
    "AuctionConfig",
    "assigned_edge_indices",
    "build_augmented_problem",
    "weighted_auction_matching",
]


#: Geometric ε divisor between scaling rounds.  The last round's ε is
#: ``0.45 / N`` (``N`` = augmented problem size), which makes integer
#: effective weights exactly optimal.
SCALING_FACTOR = 5.0
#: Safety valve on total Jacobi bidding rounds across all ε levels; a genuine
#: instance never comes close.
MAX_BID_ROUNDS = 1_000_000


@dataclass(frozen=True)
class AuctionConfig:
    """Tuning knobs of the ε-scaling auction solver.

    Attributes
    ----------
    objective:
        ``"max"`` (default) maximises total weight, ``"min"`` minimises it —
        both among *maximum-cardinality* matchings.
    """

    objective: str = "max"

    def __post_init__(self) -> None:
        _check_objective(self.objective)


def build_augmented_problem(
    graph: BipartiteGraph, objective: str = "max"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Person-CSR of the square augmented assignment problem.

    Returns ``(ptr, objs, w_aug)``: for augmented person ``p`` (real rows
    ``0..n_rows-1``, then artificial persons ``a_j``), its candidate objects
    are ``objs[ptr[p]:ptr[p+1]]`` (real columns ``0..n_cols-1``, then
    artificial objects ``o_i = n_cols + i``) with weights
    ``w_aug[ptr[p]:ptr[p+1]]``.  Real edges carry ``ŵ − min(ŵ)``, mirror
    edges ``0``, diagonal (penalty) edges ``−P`` with
    ``P = K·spread/2 + 1``.  Deterministic, so the verifier reconstructs the
    identical problem from the graph alone.
    """
    n_rows, n_cols = graph.n_rows, graph.n_cols
    what_row = effective_weights(graph, objective, row_aligned=True)
    w_min = float(what_row.min()) if len(what_row) else 0.0
    spread = (float(what_row.max()) - w_min) if len(what_row) else 0.0
    penalty = min(n_rows, n_cols) * spread / 2.0 + 1.0

    # Real persons: their real edges (row-CSR order) then the diagonal o_i.
    real_objs = np.insert(
        graph.row_ind, graph.row_ptr[1:], n_cols + np.arange(n_rows, dtype=np.int64)
    )
    real_w = np.insert(what_row - w_min, graph.row_ptr[1:], -penalty)
    # Artificial persons a_j: mirrors of j's real edges, then the diagonal j.
    art_objs = np.insert(
        n_cols + graph.col_ind, graph.col_ptr[1:], np.arange(n_cols, dtype=np.int64)
    )
    art_w = np.insert(np.zeros(graph.n_edges), graph.col_ptr[1:], -penalty)

    degrees = np.concatenate([np.diff(graph.row_ptr) + 1, np.diff(graph.col_ptr) + 1])
    ptr = np.zeros(n_rows + n_cols + 1, dtype=np.int64)
    np.cumsum(degrees, out=ptr[1:])
    return ptr, np.concatenate([real_objs, art_objs]), np.concatenate([real_w, art_w])


def _segment_max2(values: np.ndarray, offsets: np.ndarray):
    """Per-segment (max, argmax-position, second-max) for concatenated segments.

    ``offsets`` delimits the segments (length ``S + 1``); every segment is
    non-empty.  The argmax is the first position attaining the maximum; the
    second max is over the remaining entries (``-inf`` for singletons).
    """
    starts = offsets[:-1]
    best = np.maximum.reduceat(values, starts)
    seg_id = np.repeat(np.arange(len(starts)), np.diff(offsets))
    is_best = values == best[seg_id]
    total = len(values)
    candidates = np.where(is_best, np.arange(total), total)
    first = np.minimum.reduceat(candidates, starts)
    masked = values.copy()
    masked[first] = -np.inf
    second = np.maximum.reduceat(masked, starts)
    return best, first, second


def _modeled_seconds(device, counters: dict) -> float:
    """The device's modelled seconds, or the CPU model over the scans."""
    if device is not None:
        return device.elapsed_seconds
    return CpuCostModel().seconds(counters["edges_scanned"])


def weighted_auction_matching(
    graph: BipartiteGraph,
    config: AuctionConfig | None = None,
    device=None,
) -> MatchingResult:
    """Optimal-weight maximum-cardinality matching via ε-scaling auction.

    Parameters
    ----------
    graph:
        The bipartite graph.  Weightless graphs are solved with unit weights
        (plain maximum-cardinality matching).
    config:
        An :class:`AuctionConfig`; defaults to weight maximisation.
    device:
        Optional :class:`~repro.gpusim.device.VirtualGPU`.  When given, each
        Jacobi bidding round is charged to the device's cost ledger as an
        ``auction_bid`` kernel (per-thread work = adjacency scanned per
        bidding person) plus an ``auction_assign`` kernel (one thread per
        bid), and the result carries the device's modelled time; without
        one it carries the CPU cost model over ``edges_scanned``.

    Returns
    -------
    MatchingResult
        ``counters["total_weight"]`` holds the matching's total weight under
        the original weights; ``result.duals`` carries the
        :class:`~repro.weighted.duals.AuctionCertificate`.
    """
    t0 = time.perf_counter()
    cfg = config or AuctionConfig()
    n_rows, n_cols = graph.n_rows, graph.n_cols
    n = n_rows + n_cols
    counters: dict = {"bid_rounds": 0, "bids": 0, "edges_scanned": 0, "scaling_rounds": 0}

    if n == 0 or min(n_rows, n_cols) == 0:
        # One side is empty: the all-diagonal augmented assignment is optimal.
        ptr, objs, w_aug = build_augmented_problem(graph, cfg.objective)
        diag = ptr[1:] - 1
        matching = Matching.empty(graph)
        duals = AuctionCertificate(
            objective=cfg.objective,
            epsilon=0.0,
            person_profits=w_aug[diag] if n else np.empty(0),
            object_prices=np.zeros(n),
            person_match=objs[diag] if n else np.empty(0, np.int64),
        )
        counters.update(total_weight=0.0, objective=cfg.objective)
        return MatchingResult.create(
            "W-AUC", matching, counters=counters,
            modeled_time=_modeled_seconds(device, counters),
            wall_time=time.perf_counter() - t0, duals=duals,
        )

    ptr, objs, w_aug = build_augmented_problem(graph, cfg.objective)
    degrees = np.diff(ptr)
    spread = float(w_aug.max() - w_aug.min())
    final_eps = 0.45 / n
    epsilon = max(final_eps, spread / 8.0)

    prices = np.zeros(n, dtype=np.float64)
    person_match = np.full(n, -1, dtype=np.int64)
    object_match = np.full(n, -1, dtype=np.int64)

    # Pre-pair isolated persons/objects (zero real degree: the diagonal is
    # their only edge, on both sides) once; they never rebid.
    isolated_rows = np.flatnonzero(np.diff(graph.row_ptr) == 0)
    person_match[isolated_rows] = n_cols + isolated_rows
    object_match[n_cols + isolated_rows] = isolated_rows
    isolated_cols = np.flatnonzero(np.diff(graph.col_ptr) == 0)
    person_match[n_rows + isolated_cols] = isolated_cols
    object_match[isolated_cols] = n_rows + isolated_cols
    pinned = person_match >= 0
    if device is not None:
        # Under shadow-access mode these become recording views (same buffer).
        prices = device.shadow_wrap(prices, "prices")
        person_match = device.shadow_wrap(person_match, "person_match")
        object_match = device.shadow_wrap(object_match, "object_match")

    while True:
        counters["scaling_rounds"] += 1
        # Reset the assignment (keep prices) for this ε level.
        person_match[~pinned] = -1
        object_match.fill(-1)
        if device is not None:
            # The ε-reset is sequential host code between two launches; the
            # sync separates the fill from the re-seeding write below so the
            # sanitizer does not mistake them for one conflicting wave.
            device.shadow_sync()
        object_match[person_match[pinned]] = np.flatnonzero(pinned)
        while True:
            free = np.flatnonzero(person_match < 0)
            if len(free) == 0:
                break
            counters["bid_rounds"] += 1
            if counters["bid_rounds"] > MAX_BID_ROUNDS:
                raise RuntimeError(
                    f"auction exceeded {MAX_BID_ROUNDS} bid rounds; "
                    "the instance is pathological"
                )
            # Bid kernel: every free person scans its candidates for the two
            # best values at current prices.
            seg_lens = degrees[free]
            offsets = np.zeros(len(free) + 1, dtype=np.int64)
            np.cumsum(seg_lens, out=offsets[1:])
            flat = (
                np.arange(int(offsets[-1]), dtype=np.int64)
                - np.repeat(offsets[:-1], seg_lens)
                + np.repeat(ptr[free], seg_lens)
            )
            values = w_aug[flat] - prices[objs[flat]]
            best, first_pos, second = _segment_max2(values, offsets)
            best_obj = objs[flat[first_pos]]
            bids = prices[best_obj] + best - second + epsilon
            counters["bids"] += len(free)
            counters["edges_scanned"] += int(offsets[-1])
            if device is not None:
                bidders = len(free)
                device.charge_kernel(
                    "auction_bid", SparseWork(bidders, 0, np.arange(bidders), seg_lens)
                )
            # Assign kernel: each bid-receiving object takes its highest bid
            # (ties broken towards the lowest person id).
            order = np.lexsort((free, -bids, best_obj))
            obj_sorted = best_obj[order]
            lead = np.empty(len(order), dtype=bool)
            lead[0] = True
            lead[1:] = obj_sorted[1:] != obj_sorted[:-1]
            winners_idx = order[lead]
            win_obj = best_obj[winners_idx]
            win_person = free[winners_idx]
            # Unseat previous holders, then record the new assignments.
            prev = object_match[win_obj]
            person_match[prev[prev >= 0]] = -1
            prices[win_obj] = bids[winners_idx]
            object_match[win_obj] = win_person
            person_match[win_person] = win_obj
            # Charge-after-access: the assign launch covers the writes above
            # (same charge value and order as before — only the call site
            # moved past the accesses it accounts for).
            if device is not None:
                device.charge_kernel("auction_assign", SparseWork(len(free), 1))
        if epsilon <= final_eps:
            break
        epsilon = max(final_eps, epsilon / SCALING_FACTOR)

    duals = AuctionCertificate(
        objective=cfg.objective,
        epsilon=float(final_eps),
        person_profits=w_aug[assigned_edge_indices(ptr, objs, person_match)]
        - prices[np.asarray(person_match)],
        object_prices=np.asarray(prices),
        person_match=np.asarray(person_match),
    )
    row_match = np.where(person_match[:n_rows] < n_cols, person_match[:n_rows], UNMATCHED)
    col_match = np.full(n_cols, UNMATCHED, dtype=np.int64)
    matched = np.flatnonzero(row_match >= 0)
    col_match[row_match[matched]] = matched
    matching = Matching(row_match, col_match)
    counters["total_weight"] = matching_total_weight(graph, matching)
    counters["objective"] = cfg.objective
    return MatchingResult.create(
        "W-AUC",
        matching,
        counters=counters,
        modeled_time=_modeled_seconds(device, counters),
        wall_time=time.perf_counter() - t0,
        duals=duals,
    )


def assigned_edge_indices(
    ptr: np.ndarray, objs: np.ndarray, person_match: np.ndarray
) -> np.ndarray:
    """Flat index into the augmented edge arrays of each person's assigned edge.

    One vectorised first-hit-per-segment scan (every augmented person has at
    least its diagonal edge, so segments are never empty).  Raises
    ``ValueError`` if some person is assigned to a non-adjacent object —
    :func:`repro.weighted.verify.certify_optimal` turns that into an
    unusable-certificate report.
    """
    n = len(person_match)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    seg_person = np.repeat(np.arange(n, dtype=np.int64), np.diff(ptr))
    total = len(objs)
    candidates = np.where(
        objs == person_match[seg_person], np.arange(total, dtype=np.int64), total
    )
    first = np.minimum.reduceat(candidates, ptr[:-1])
    misses = np.flatnonzero(first >= total)
    if len(misses):
        p = int(misses[0])
        raise ValueError(
            f"augmented person {p} assigned to non-adjacent object {int(person_match[p])}"
        )
    return first
