"""The paper's contribution: GPU push-relabel bipartite matching (G-PR).

Public entry points
-------------------
:func:`~repro.core.api.max_bipartite_matching`
    Unified API over every algorithm in the library (GPU, multicore and
    sequential).
:func:`~repro.core.gpr.gpr_matching` / :class:`~repro.core.gpr.GPRConfig`
    The G-PR algorithm itself with its three variants (``first``,
    ``noshrink``, ``shrink``) and global-relabel strategies.
:func:`~repro.core.ghkdw.ghkdw_matching`
    The GPU augmenting-path comparator G-HKDW.
"""

from repro.core.api import (
    MAXIMUM_ALGORITHMS,
    SPECS,
    AlgorithmSpec,
    ExecutionPlan,
    max_bipartite_matching,
    resolve_algorithm,
)
from repro.core.ghkdw import ghkdw_matching
from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching
from repro.core.strategies import (
    AdaptiveStrategy,
    FixedStrategy,
    GlobalRelabelStrategy,
    parse_strategy,
)

__all__ = [
    "max_bipartite_matching",
    "resolve_algorithm",
    "ExecutionPlan",
    "AlgorithmSpec",
    "SPECS",
    "MAXIMUM_ALGORITHMS",
    "gpr_matching",
    "GPRConfig",
    "GPRVariant",
    "ghkdw_matching",
    "GlobalRelabelStrategy",
    "AdaptiveStrategy",
    "FixedStrategy",
    "parse_strategy",
]
