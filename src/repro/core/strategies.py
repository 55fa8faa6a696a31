"""Global-relabeling frequency strategies (the paper's ``GETITERGR``).

Sequential push-relabel codes trigger a global relabel every
``k × (n + m)`` *pushes*; the GPU cannot count pushes cheaply across a
kernel launch, so the paper schedules the next global relabel in units of
*kernel iterations* instead and proposes two policies:

``fixed k``
    Relabel every ``k`` push-kernel iterations (the baseline policy,
    ``(fix, 10)`` and ``(fix, 50)`` in Figure 1).

``adaptive k``
    Relabel after ``k × maxLevel`` iterations, where ``maxLevel`` is the
    deepest BFS level reached by the previous global relabel.  The rationale
    (Theorem 2) is that a deficiency-``d`` matching admits ``d`` vertex
    disjoint augmenting paths whose average length is bounded by a fraction
    of ``maxLevel``, so ``k × maxLevel`` kernel iterations give the active
    columns enough time to traverse their paths before labels go stale.
    Figure 1 finds ``(adaptive, 0.3)`` and ``(adaptive, 0.7)`` best, and the
    final configuration of the paper is ``(adaptive, 0.7)``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

__all__ = ["GlobalRelabelStrategy", "AdaptiveStrategy", "FixedStrategy", "parse_strategy"]


class GlobalRelabelStrategy(ABC):
    """Decides, right after a global relabel, when the next one happens."""

    @abstractmethod
    def next_iteration(self, loop: int, max_level: int) -> int:
        """Iteration index of the next global relabel.

        Parameters
        ----------
        loop:
            The current main-loop iteration (the one the relabel just ran in).
        max_level:
            The ``maxLevel`` returned by that global relabel.
        """

    @property
    @abstractmethod
    def label(self) -> str:
        """Short identifier used in reports, e.g. ``"adaptive-0.7"``."""


@dataclass(frozen=True)
class AdaptiveStrategy(GlobalRelabelStrategy):
    """Next relabel after ``k × maxLevel`` further push-kernel iterations."""

    k: float = 0.7

    def __post_init__(self) -> None:
        if self.k <= 0:
            raise ValueError("adaptive strategy needs k > 0")

    def next_iteration(self, loop: int, max_level: int) -> int:
        return loop + max(1, int(round(self.k * max(1, max_level))))

    @property
    def label(self) -> str:
        return f"adaptive-{self.k:g}"


@dataclass(frozen=True)
class FixedStrategy(GlobalRelabelStrategy):
    """Next relabel after a fixed number of push-kernel iterations."""

    k: int = 10

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("fixed strategy needs k >= 1")

    def next_iteration(self, loop: int, max_level: int) -> int:
        return loop + self.k

    @property
    def label(self) -> str:
        return f"fix-{self.k}"


def parse_strategy(spec: str | GlobalRelabelStrategy) -> GlobalRelabelStrategy:
    """Parse ``"adaptive:0.7"`` / ``"fix:10"`` style strings (or pass a strategy through)."""
    if isinstance(spec, GlobalRelabelStrategy):
        return spec
    if not isinstance(spec, str):
        raise TypeError(f"strategy must be a string such as 'adaptive:0.7', got {spec!r}")
    try:
        kind, _, value = spec.partition(":")
        kind = kind.strip().lower()
        if kind in ("adaptive", "adapt"):
            return AdaptiveStrategy(float(value) if value else 0.7)
        if kind in ("fix", "fixed"):
            return FixedStrategy(int(value) if value else 10)
    except ValueError as exc:
        raise ValueError(f"malformed strategy spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown strategy kind in {spec!r}; use 'adaptive:<k>' or 'fix:<k>'")
