"""Matching containers shared by every algorithm in the library.

A matching over a bipartite graph ``G = (VR ∪ VC, E)`` is stored as two
arrays, mirroring the ``µ`` array of the paper:

* ``row_match[u]`` — the column matched to row ``u``, or ``-1``;
* ``col_match[v]`` — the row matched to column ``v``, or ``-1``.

The GPU algorithm additionally uses ``-2`` on the column side to mark columns
proven unmatchable; :meth:`Matching.canonical` normalises those back to
``-1`` for comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Mapping

import numpy as np

from repro.graph.bipartite import BipartiteGraph

__all__ = ["Matching", "MatchingResult", "UNMATCHED", "UNMATCHABLE"]

#: Sentinel for an unmatched vertex (the paper's ``µ(u) = −1``).
UNMATCHED: int = -1
#: Sentinel for a column proven unmatchable (the paper's ``µ(v) = −2``).
UNMATCHABLE: int = -2


@dataclass
class Matching:
    """A (not necessarily maximum) matching of a bipartite graph."""

    row_match: np.ndarray
    col_match: np.ndarray

    def __post_init__(self) -> None:
        self.row_match = np.asarray(self.row_match, dtype=np.int64)
        self.col_match = np.asarray(self.col_match, dtype=np.int64)

    # ------------------------------------------------------------ constructors
    @classmethod
    def empty(cls, graph: BipartiteGraph) -> "Matching":
        """The empty matching of ``graph``."""
        return cls(
            row_match=np.full(graph.n_rows, UNMATCHED, dtype=np.int64),
            col_match=np.full(graph.n_cols, UNMATCHED, dtype=np.int64),
        )

    @classmethod
    def from_pairs(
        cls,
        graph: BipartiteGraph,
        pairs: Mapping[int, int] | list[tuple[int, int]],
        *,
        enforce_edges: bool = False,
    ) -> "Matching":
        """Build a matching from ``(row, col)`` pairs; raises on conflicts.

        Every pair is bounds-checked against ``graph`` — a negative or
        out-of-range index raises ``ValueError`` instead of silently wrapping
        through numpy indexing onto another vertex.  With ``enforce_edges``,
        each pair must also be an edge of ``graph``.
        """
        matching = cls.empty(graph)
        items = pairs.items() if isinstance(pairs, Mapping) else pairs
        for u, v in items:
            u, v = int(u), int(v)
            if not 0 <= u < graph.n_rows:
                raise ValueError(
                    f"pair ({u}, {v}): row index {u} out of range [0, {graph.n_rows})"
                )
            if not 0 <= v < graph.n_cols:
                raise ValueError(
                    f"pair ({u}, {v}): column index {v} out of range [0, {graph.n_cols})"
                )
            if enforce_edges and not graph.has_edge(u, v):
                raise ValueError(f"pair ({u}, {v}) is not an edge of graph {graph.name!r}")
            if matching.row_match[u] != UNMATCHED or matching.col_match[v] != UNMATCHED:
                raise ValueError(f"pair ({u}, {v}) conflicts with an earlier pair")
            matching.row_match[u] = v
            matching.col_match[v] = u
        return matching

    # -------------------------------------------------------------- properties
    @property
    def cardinality(self) -> int:
        """Number of matched row vertices (== matched columns for a consistent matching)."""
        return int(np.count_nonzero(self.row_match >= 0))

    def matched_rows(self) -> np.ndarray:
        """Indices of matched rows."""
        return np.flatnonzero(self.row_match >= 0)

    def unmatched_rows(self) -> np.ndarray:
        """Indices of unmatched rows."""
        return np.flatnonzero(self.row_match == UNMATCHED)

    def matched_columns(self) -> np.ndarray:
        """Indices of columns matched consistently (``col_match[v] = u`` and ``row_match[u] = v``)."""
        v = np.flatnonzero(self.col_match >= 0)
        consistent = self.row_match[self.col_match[v]] == v
        return v[consistent]

    def unmatched_columns(self) -> np.ndarray:
        """Indices of columns that are not consistently matched."""
        all_cols = np.arange(len(self.col_match))
        return np.setdiff1d(all_cols, self.matched_columns(), assume_unique=True)

    def deficiency(self, maximum_cardinality: int) -> int:
        """Difference between a maximum matching's cardinality and this one's."""
        return maximum_cardinality - self.cardinality

    def check_compatible(self, graph: BipartiteGraph, *, context: str = "matching") -> None:
        """Raise ``ValueError`` unless this matching fits ``graph``'s shape.

        Checks the array lengths against ``(n_rows, n_cols)`` and the matched
        entries against the opposite side's vertex range, so a matching built
        for a *different* graph fails here with a clear message instead of
        producing silent nonsense (or a cryptic ``IndexError``) deep inside a
        kernel.
        """
        if len(self.row_match) != graph.n_rows or len(self.col_match) != graph.n_cols:
            raise ValueError(
                f"{context} has shape ({len(self.row_match)}, {len(self.col_match)}) "
                f"but graph {graph.name!r} has shape ({graph.n_rows}, {graph.n_cols}); "
                "was it built for a different graph?"
            )
        if len(self.row_match) and int(self.row_match.max(initial=UNMATCHED)) >= graph.n_cols:
            raise ValueError(
                f"{context} matches a row to column {int(self.row_match.max())}, outside "
                f"graph {graph.name!r}'s column range [0, {graph.n_cols})"
            )
        if len(self.col_match) and int(self.col_match.max(initial=UNMATCHED)) >= graph.n_rows:
            raise ValueError(
                f"{context} matches a column to row {int(self.col_match.max())}, outside "
                f"graph {graph.name!r}'s row range [0, {graph.n_rows})"
            )

    # ------------------------------------------------------------------- utils
    def copy(self) -> "Matching":
        """Deep copy."""
        return Matching(self.row_match.copy(), self.col_match.copy())

    def canonical(self) -> "Matching":
        """Resolve inconsistencies: keep only pairs with ``row_match[u] = v`` and ``col_match[v] = u``.

        This is the sequential equivalent of the paper's ``FIXMATCHING``
        kernel.  The row side is taken as ground truth (the paper proves the
        row entries are always correct at termination).
        """
        fixed = Matching(
            row_match=self.row_match.copy(),
            col_match=np.full(len(self.col_match), UNMATCHED, dtype=np.int64),
        )
        matched = np.flatnonzero(self.row_match >= 0)
        fixed.col_match[self.row_match[matched]] = matched
        return fixed

    def pairs(self) -> list[tuple[int, int]]:
        """All matched ``(row, col)`` pairs, sorted by row."""
        rows = self.matched_rows()
        return [(int(u), int(self.row_match[u])) for u in rows]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return np.array_equal(self.row_match, other.row_match) and np.array_equal(
            self.col_match, other.col_match
        )


@dataclass
class MatchingResult:
    """Outcome of running one matching algorithm on one graph.

    Attributes
    ----------
    algorithm:
        Algorithm identifier (e.g. ``"PR"``, ``"G-PR-Shr"``).
    matching:
        The final matching (already canonicalised).
    cardinality:
        Cached ``matching.cardinality``.
    modeled_time:
        Modelled execution time in seconds on the reference machine for this
        algorithm's class, set by the solver that built the result: the
        virtual device's ledger for the GPU solvers (and the auctions given a
        device), the multicore model for P-DBFS, and
        :class:`~repro.gpusim.costmodel.CpuCostModel` over the work counters
        for the sequential ones.  Wrappers (``b-expand``, ``b-auction``,
        sharded runs) pass on the seconds of the solves they wrap.
    counters:
        Raw work counters (edges scanned, pushes, kernel launches, ...);
        algorithm-specific keys, consumed by :mod:`repro.bench`.
    wall_time:
        Wall-clock seconds spent by this Python implementation.
    duals:
        Optional optimality certificate attached by the weighted solvers (a
        :class:`repro.weighted.DualCertificate`); ``None`` for cardinality
        algorithms.  Its arrays are immutable, so copies may share them.
    """

    algorithm: str
    matching: Matching
    cardinality: int
    modeled_time: float
    counters: dict = field(default_factory=dict)
    wall_time: float = 0.0
    duals: object | None = None

    def copy(self) -> "MatchingResult":
        """A deep-enough copy: private matching arrays and counters dict.

        Used by the result caches so a caller mutating a served result can
        never corrupt the cached entry (or a sibling job's result).
        """
        return MatchingResult(
            algorithm=self.algorithm,
            matching=self.matching.copy(),
            cardinality=self.cardinality,
            counters=dict(self.counters),
            modeled_time=self.modeled_time,
            wall_time=self.wall_time,
            duals=self.duals,
        )

    @classmethod
    def create(
        cls,
        algorithm: str,
        matching: Matching,
        counters: dict | None = None,
        *,
        modeled_time: float,
        wall_time: float = 0.0,
        duals: object | None = None,
    ) -> "MatchingResult":
        """Build a result, canonicalising the matching and caching its cardinality.

        ``modeled_time`` is required: every solver prices its own work.
        """
        canonical = matching.canonical()
        return cls(
            algorithm=algorithm,
            matching=canonical,
            cardinality=canonical.cardinality,
            counters=dict(counters or {}),
            modeled_time=float(modeled_time),
            wall_time=wall_time,
            duals=duals,
        )
