"""Incremental maximum-matching repair under streaming graph updates.

Every algorithm in the registry is run from a warm start (the paper's cheap
matching); :class:`IncrementalMatcher` pushes that idea to its limit for
*dynamic* graphs.  Instead of recomputing from scratch after each update, it
repairs the previous maximum matching:

* **Edge insertion** increases the maximum cardinality by at most one, and
  only via an augmenting path through the new edge — so at most one
  augmenting-path search runs, rooted at the newly coverable side.  When
  both endpoints are already matched, any augmenting path must still
  traverse the new edge, and one shared-visited Kuhn sweep from the free
  columns decides it (the visited marks stay valid across sources because
  no augmentation happens in between).
* **Deleting a matched edge** frees its two endpoints; any augmenting path
  for the weakened matching must start at one of them (a path between two
  previously-free vertices would have existed before the deletion, contra
  maximality), so at most two targeted searches re-augment.
* **Deleting an unmatched edge** (and adding an isolated vertex) cannot
  change the maximum cardinality — those updates are free.
* **Vertex departure** (``retire_row`` / ``retire_col``) is a bounded
  sequence of edge deletions, at most one of them matched.

Past a configurable batch size, per-update repair loses to batch recompute,
so :meth:`apply` compacts the overlay and delegates to any registered
:class:`~repro.core.api.ExecutionPlan` with the surviving matching as warm
start — the whole algorithm registry (``g-pr``, ``pr``, ``hk``, ``p-dbfs``,
...) becomes a repair backend for free.

Weighted and capacitated plans (``weighted-sap``, ``b-aug``, ...) run in a
*delegated-only* mode: the cardinality repairs above cannot preserve their
stronger invariants, so every batch recomputes through the plan — with the
surviving matching as warm start when the plan accepts one, and with pure
vertex arrivals short-circuited (an isolated vertex never changes the
optimum).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

import numpy as np

from repro.capacity.matching import CapacitatedMatching
from repro.core.api import ExecutionPlan, resolve_algorithm
from repro.dynamic.overlay import DynamicBipartiteGraph
from repro.dynamic.updates import GraphUpdate
from repro.graph.bipartite import BipartiteGraph
from repro.matching import UNMATCHED, Matching, MatchingResult

__all__ = ["IncrementalMatcher"]

#: ``recompute(graph, initial) -> MatchingResult`` — how batched repairs run.
RecomputeFn = Callable[[BipartiteGraph, Matching | None], MatchingResult]


class IncrementalMatcher:
    """Maintains a maximum-cardinality matching of a changing bipartite graph.

    Parameters
    ----------
    graph:
        The starting graph — a frozen :class:`BipartiteGraph` (wrapped in a
        fresh overlay) or an existing :class:`DynamicBipartiteGraph`.
    initial:
        Optional warm-start matching for the initial solve; shapes are
        validated with :meth:`Matching.check_compatible`.
    plan:
        The batch-repair backend: an algorithm name or a resolved
        :class:`ExecutionPlan`.  Must be a maximum algorithm; cardinality
        plans must also accept a warm start, while weighted / capacitated
        plans (which run delegated-only) need not.  Weighted graphs require
        a weighted plan and capacitated graphs a capacitated plan.  Default
        ``"hk"``.
    batch_threshold:
        :meth:`apply` batches of at least this many updates compact the
        overlay and delegate to ``plan`` instead of repairing per update.
    recompute:
        Override for how delegated recomputes execute — the CLI ``stream``
        subcommand routes them through an :class:`~repro.engine.Engine`
        here.  Defaults to ``plan.run``.

    Invariant: after construction and after every applied update, the held
    matching is a *maximum* matching of the current graph.
    """

    def __init__(
        self,
        graph: BipartiteGraph | DynamicBipartiteGraph,
        *,
        initial: Matching | None = None,
        plan: str | ExecutionPlan = "hk",
        batch_threshold: int = 64,
        recompute: RecomputeFn | None = None,
    ) -> None:
        if isinstance(graph, BipartiteGraph):
            graph = DynamicBipartiteGraph(graph)
        self.graph = graph
        if isinstance(plan, str):
            plan = resolve_algorithm(plan)
        if not plan.spec.maximum:
            raise ValueError(
                f"plan algorithm {plan.algorithm!r} is a heuristic; incremental repair "
                "needs a maximum algorithm as its batch backend"
            )
        snapshot = self.graph.snapshot()
        if snapshot.has_weights and not plan.spec.weighted:
            raise ValueError(
                f"graph {snapshot.name!r} carries edge weights that plan "
                f"algorithm {plan.algorithm!r} would silently ignore; pick a "
                "weighted plan (e.g. 'weighted-sap', 'weighted-auction', "
                "'b-auction') or strip the weights with "
                "graph.with_weights(None)"
            )
        if snapshot.has_capacities and not plan.spec.capacitated:
            raise ValueError(
                f"graph {snapshot.name!r} carries vertex capacities that plan "
                f"algorithm {plan.algorithm!r} would silently ignore; pick a "
                "capacitated plan (e.g. 'b-aug', 'b-expand', 'b-auction') or "
                "strip them with graph.with_capacities(None, None)"
            )
        # Weighted and capacitated plans maintain their invariant (optimal
        # weight / b-matching) that the per-update cardinality repairs
        # cannot preserve, so every batch recomputes through the delegate.
        self._delegated_only = plan.spec.weighted or plan.spec.capacitated
        if not plan.spec.accepts_initial:
            if not self._delegated_only:
                raise ValueError(
                    f"plan algorithm {plan.algorithm!r} does not accept a warm start"
                )
            if initial is not None:
                raise ValueError(
                    f"plan algorithm {plan.algorithm!r} does not accept a "
                    "warm start; drop the initial matching"
                )
        if batch_threshold < 1:
            raise ValueError("batch_threshold must be at least 1")
        self.plan = plan
        self.batch_threshold = int(batch_threshold)
        self._recompute_fn = recompute
        self.counters: dict[str, int] = {
            "updates_applied": 0,
            "edges_scanned": 0,
            "searches": 0,
            "augmentations": 0,
            "recomputes": 0,
            "delegate_edges_scanned": 0,
            "initial_edges_scanned": 0,
        }

        if initial is not None:
            initial.check_compatible(snapshot, context="initial matching")
            initial = initial.canonical()
        result = self._run_delegate(snapshot, initial)
        if self._delegated_only:
            self._matching_obj = result.matching.copy()
            self._row_match = self._col_match = None
        else:
            self._matching_obj = None
            self._row_match = result.matching.row_match.copy()
            self._col_match = result.matching.col_match.copy()
        self.counters["initial_edges_scanned"] = int(
            result.counters.get("edges_scanned", 0)
        )

    # ------------------------------------------------------------ properties
    @property
    def matching(self) -> Matching | CapacitatedMatching:
        """A copy of the current matching.

        A :class:`Matching` for cardinality plans; weighted / capacitated
        plans return whatever container their delegate produced (a
        :class:`CapacitatedMatching` for the b-matching solvers).
        """
        if self._delegated_only:
            return self._matching_obj.copy()
        return Matching(self._row_match.copy(), self._col_match.copy())

    @property
    def cardinality(self) -> int:
        if self._delegated_only:
            return int(self._matching_obj.cardinality)
        return int(np.count_nonzero(self._row_match >= 0))

    # --------------------------------------------------------------- updates
    def apply(self, updates: Iterable[GraphUpdate]) -> dict:
        """Apply a batch of updates, repairing the matching.

        Batches of at least ``batch_threshold`` updates compact the overlay
        and delegate to the registered plan with the surviving matching as
        warm start; smaller batches repair per update.

        Weighted and capacitated plans are *delegated-only*: their invariant
        (optimal weight / maximum b-matching) cannot be preserved by the
        per-update cardinality repairs, so every batch — regardless of size
        — compacts and recomputes through the plan (pure vertex arrivals
        skip the recompute; an isolated vertex cannot change the optimum).

        Parameters
        ----------
        updates:
            :class:`~repro.dynamic.updates.GraphUpdate` objects (any op in
            :data:`~repro.dynamic.updates.UPDATE_OPS`), applied in order.

        Returns
        -------
        dict
            Summary with ``"applied"`` (update count), ``"mode"``
            (``"incremental"`` or ``"delegated"``) and ``"cardinality"``
            (the matching cardinality after the batch).

        Raises
        ------
        IndexError
            An update referencing a vertex outside the current shape.
        repro.engine.handles.JobError
            A delegated recompute failing on the engine backend (only when
            ``recompute`` routes through an :class:`~repro.engine.Engine`).
        """
        updates = list(updates)
        if self._delegated_only:
            if not updates:
                return {
                    "applied": 0,
                    "mode": "delegated",
                    "cardinality": self.cardinality,
                    "changed": 0,
                }
            return self._apply_recompute(updates)
        if len(updates) >= self.batch_threshold:
            return self._apply_delegated(updates)
        for update in updates:
            self.apply_update(update)
        return {
            "applied": len(updates),
            "mode": "incremental",
            "cardinality": self.cardinality,
        }

    def apply_update(self, update: GraphUpdate) -> bool:
        """Apply one update incrementally; returns whether the graph changed."""
        if self._delegated_only:
            return bool(self._apply_recompute([update])["changed"])
        self.counters["updates_applied"] += 1
        if update.op == "insert":
            return self.insert_edge(update.u, update.v, weight=update.weight)
        if update.op == "delete":
            return self.delete_edge(update.u, update.v)
        if update.op == "retire_row":
            return self.retire_row(update.u)
        if update.op == "retire_col":
            return self.retire_col(update.v)
        if update.op == "add_row":
            self.add_row(b=update.b)
        else:
            self.add_col(b=update.b)
        return True

    def insert_edge(self, u: int, v: int, weight: float | None = None) -> bool:
        """Insert edge ``(u, v)`` and repair; at most one augmenting search."""
        if self._delegated_only:
            update = GraphUpdate.insert(u, v, weight=weight)
            return bool(self._apply_recompute([update])["changed"])
        if not self.graph.insert_edge(u, v, weight):
            return False
        row_free = self._row_match[u] < 0
        col_free = self._col_match[v] < 0
        if row_free and col_free:
            self._row_match[u] = v
            self._col_match[v] = u
            self.counters["augmentations"] += 1
        elif col_free:
            # Any augmenting path using (u, v) must start at the free column v.
            self._augment_from_col(int(v))
        elif row_free:
            # Symmetrically, it must end at the free row u — search from u.
            self._augment_from_row(int(u))
        else:
            # Both matched: an augmenting path, if any, still runs through the
            # new edge, entered from some free column.  One shared-visited
            # sweep over the free columns decides it.
            if np.any(self._row_match < 0) and np.any(self._col_match < 0):
                self._augment_any()
        return True

    def delete_edge(self, u: int, v: int) -> bool:
        """Delete edge ``(u, v)``; targeted re-augmentation if it was matched."""
        if self._delegated_only:
            update = GraphUpdate.delete(u, v)
            return bool(self._apply_recompute([update])["changed"])
        if not self.graph.delete_edge(u, v):
            return False
        if self._row_match[u] == v:
            self._row_match[u] = UNMATCHED
            self._col_match[v] = UNMATCHED
            # Any augmenting path for the weakened matching starts at one of
            # the two freed endpoints (see module docstring).
            if not self._augment_from_col(int(v)):
                self._augment_from_row(int(u))
        return True

    def retire_row(self, u: int) -> bool:
        """Vertex departure: drop every edge of row ``u``, repairing each.

        At most one of the dropped edges was matched, so this costs the same
        bounded repair as the individual deletions (the index stays valid
        and isolated — see :mod:`repro.dynamic.updates`).
        """
        if self._delegated_only:
            update = GraphUpdate.retire_row(u)
            return bool(self._apply_recompute([update])["changed"])
        changed = False
        for v in self.graph.row_neighbors(u).tolist():
            changed = self.delete_edge(u, int(v)) or changed
        return changed

    def retire_col(self, v: int) -> bool:
        """Mirror of :meth:`retire_row` for a column vertex."""
        if self._delegated_only:
            update = GraphUpdate.retire_col(v)
            return bool(self._apply_recompute([update])["changed"])
        changed = False
        for u in self.graph.column_neighbors(v).tolist():
            changed = self.delete_edge(int(u), v) or changed
        return changed

    def add_row(self, b: int | None = None) -> int:
        """Append a row vertex; the matching is untouched (it starts isolated).

        ``b`` is the arriving vertex's capacity on a capacitated graph
        (default 1; rejected by the overlay otherwise).
        """
        index = self.graph.add_row(b)
        if self._delegated_only:
            self._grow_matching()
        else:
            self._row_match = np.append(self._row_match, UNMATCHED)
        return index

    def add_col(self, b: int | None = None) -> int:
        """Append a column vertex; the matching is untouched."""
        index = self.graph.add_col(b)
        if self._delegated_only:
            self._grow_matching()
        else:
            self._col_match = np.append(self._col_match, UNMATCHED)
        return index

    # ---------------------------------------------------------- batch repair
    def _apply_delegated(self, updates: list[GraphUpdate]) -> dict:
        for update in updates:
            self.counters["updates_applied"] += 1
            if not self.graph.apply(update):
                continue
            # Matching bookkeeping only; the one augmenting run happens below.
            if update.op == "delete" and self._row_match[update.u] == update.v:
                self._row_match[update.u] = UNMATCHED
                self._col_match[update.v] = UNMATCHED
            elif update.op == "retire_row" and self._row_match[update.u] >= 0:
                self._col_match[self._row_match[update.u]] = UNMATCHED
                self._row_match[update.u] = UNMATCHED
            elif update.op == "retire_col" and self._col_match[update.v] >= 0:
                self._row_match[self._col_match[update.v]] = UNMATCHED
                self._col_match[update.v] = UNMATCHED
            elif update.op == "add_row":
                self._row_match = np.append(self._row_match, UNMATCHED)
            elif update.op == "add_col":
                self._col_match = np.append(self._col_match, UNMATCHED)
        snapshot = self.graph.compact()
        survivor = Matching(self._row_match.copy(), self._col_match.copy()).canonical()
        survivor.check_compatible(snapshot, context="surviving warm-start matching")
        result = self._run_delegate(snapshot, survivor)
        self._row_match = result.matching.row_match.copy()
        self._col_match = result.matching.col_match.copy()
        self.counters["recomputes"] += 1
        self.counters["delegate_edges_scanned"] += int(
            result.counters.get("edges_scanned", 0)
        )
        return {
            "applied": len(updates),
            "mode": "delegated",
            "cardinality": self.cardinality,
        }

    def _apply_recompute(self, updates: list[GraphUpdate]) -> dict:
        """Delegated-only batch: apply everything, recompute once if needed.

        Pure vertex arrivals (and updates the graph rejects as no-ops) keep
        the stored matching optimal, so the delegate only reruns when an
        edge actually appeared or disappeared.  The summary's ``"changed"``
        counts updates that structurally changed the graph.
        """
        changed = 0
        edges_changed = False
        for update in updates:
            self.counters["updates_applied"] += 1
            if not self.graph.apply(update):
                continue
            changed += 1
            if update.op not in ("add_row", "add_col"):
                edges_changed = True
        if edges_changed:
            snapshot = self.graph.compact()
            initial = None
            if self.plan.spec.accepts_initial:
                initial = self._surviving_initial(snapshot)
            result = self._run_delegate(snapshot, initial)
            self._matching_obj = result.matching.copy()
            self.counters["recomputes"] += 1
            self.counters["delegate_edges_scanned"] += int(
                result.counters.get("edges_scanned", 0)
            )
        elif changed:
            self._grow_matching()
        return {
            "applied": len(updates),
            "mode": "delegated",
            "cardinality": self.cardinality,
            "changed": changed,
        }

    def _grow_matching(self) -> None:
        """Extend the stored matching to the current (grown) vertex counts."""
        matching = self._matching_obj
        n_rows, n_cols = self.graph.n_rows, self.graph.n_cols
        if isinstance(matching, CapacitatedMatching):
            self._matching_obj = CapacitatedMatching(
                matching.edge_rows.copy(), matching.edge_cols.copy(), n_rows, n_cols
            )
            return
        row_pad = np.full(n_rows - len(matching.row_match), UNMATCHED, dtype=np.int64)
        col_pad = np.full(n_cols - len(matching.col_match), UNMATCHED, dtype=np.int64)
        self._matching_obj = Matching(
            np.concatenate([matching.row_match, row_pad]),
            np.concatenate([matching.col_match, col_pad]),
        )

    def _surviving_initial(
        self, snapshot: BipartiteGraph
    ) -> Matching | CapacitatedMatching:
        """The stored matching pruned to edges that still exist in ``snapshot``.

        Only vertex counts grow and capacities never shrink, so the pruned
        pair set is always a valid warm start for the delegate.
        """
        matching = self._matching_obj
        pairs = [(u, v) for u, v in matching.pairs() if self.graph.has_edge(u, v)]
        if isinstance(matching, CapacitatedMatching):
            return CapacitatedMatching.from_pairs(snapshot, pairs)
        row_match = np.full(snapshot.n_rows, UNMATCHED, dtype=np.int64)
        col_match = np.full(snapshot.n_cols, UNMATCHED, dtype=np.int64)
        for u, v in pairs:
            row_match[u] = v
            col_match[v] = u
        return Matching(row_match, col_match)

    def _run_delegate(
        self,
        snapshot: BipartiteGraph,
        initial: Matching | CapacitatedMatching | None,
    ) -> MatchingResult:
        if self._recompute_fn is not None:
            return self._recompute_fn(snapshot, initial)
        return self.plan.run(snapshot, initial)

    # ------------------------------------------------------------- searching
    def _augment_any(self) -> bool:
        """One Kuhn sweep over the free columns with a shared visited set.

        Correct for finding a *single* augmentation: a failed source proves
        no free row is alternating-reachable from its visited cone, and the
        cone is source-independent while the matching is unchanged — so the
        marks may persist across sources until the first success.
        """
        self.counters["searches"] += 1  # one sweep counts as one search
        row_seen = bytearray(self.graph.n_rows)
        for v in np.flatnonzero(self._col_match < 0):
            if self._augment(int(v), self.graph.column_neighbors,
                             self._col_match, self._row_match, row_seen):
                return True
        return False

    def _augment_from_col(self, start: int) -> bool:
        """Augment from the free column ``start``, if a path exists."""
        self.counters["searches"] += 1
        return self._augment(start, self.graph.column_neighbors,
                             self._col_match, self._row_match, bytearray(self.graph.n_rows))

    def _augment_from_row(self, start: int) -> bool:
        """Augment from the free row ``start``, if a path exists."""
        self.counters["searches"] += 1
        return self._augment(start, self.graph.row_neighbors,
                             self._row_match, self._col_match, bytearray(self.graph.n_cols))

    def _augment(
        self,
        start: int,
        neighbors: Callable[[int], np.ndarray],
        near_match: np.ndarray,
        far_match: np.ndarray,
        far_seen: bytearray,
    ) -> bool:
        """DFS for an augmenting path from the free vertex ``start``; flips it.

        Side-agnostic: ``start`` lies on the *near* side, ``neighbors(x)``
        lists a near vertex's far-side neighbours, and the two match arrays
        and the far-side visited marks are passed in.  The walk is scalar
        (one small overlay adjacency list per frame — see the frontier-layer
        split in :mod:`repro.graph.frontier`), so each frame holds its
        neighbours as a plain Python list; ``edges_scanned`` is accumulated
        locally and flushed in bulk, with end-values matching the historical
        per-edge loop exactly.
        """
        counters = self.counters
        # Explicit stack of [near vertex, neighbours, next offset]; path[i] is
        # the far vertex taken out of stack[i] (same shape as the seq HK DFS).
        stack: list[list] = [[start, neighbors(start).tolist(), 0]]
        path: list[int] = []
        edges = 0
        try:
            while stack:
                frame = stack[-1]
                x, adjacent, idx = frame[0], frame[1], frame[2]
                advanced = False
                while idx < len(adjacent):
                    y = adjacent[idx]
                    idx += 1
                    edges += 1
                    if far_seen[y]:
                        continue
                    far_seen[y] = True
                    w = int(far_match[y])
                    if w < 0:
                        far_match[y] = x
                        near_match[x] = y
                        for depth in range(len(stack) - 2, -1, -1):
                            prev_near = stack[depth][0]
                            prev_far = path[depth]
                            far_match[prev_far] = prev_near
                            near_match[prev_near] = prev_far
                        counters["augmentations"] += 1
                        return True
                    frame[2] = idx
                    path.append(y)
                    stack.append([w, neighbors(w).tolist(), 0])
                    advanced = True
                    break
                if advanced:
                    continue
                frame[2] = idx
                stack.pop()
                if path:
                    path.pop()
            return False
        finally:
            counters["edges_scanned"] += edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"IncrementalMatcher(graph={self.graph!r}, cardinality={self.cardinality}, "
            f"plan={self.plan.algorithm!r})"
        )
