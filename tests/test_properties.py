"""Property-based tests (hypothesis) on the core invariants of the library."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import GPRConfig, GPRVariant, ghkdw_matching, gpr_matching
from repro.core.kernels import push_kernel_all_columns
from repro.core.relabel import gpu_global_relabel
from repro.generators import uniform_random_bipartite
from repro.graph import from_edges
from repro.gpusim import VirtualGPU
from repro.matching import Matching
from repro.multicore import pdbfs_matching
from repro.seq import (
    cheap_matching,
    hkdw_matching,
    hopcroft_karp_matching,
    is_maximum_matching,
    is_valid_matching,
    karp_sipser_matching,
    maximum_matching_cardinality,
    pothen_fan_matching,
    push_relabel_matching,
)

_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def bipartite_graphs(draw, max_rows=60, max_cols=60, max_edges=240):
    """Arbitrary small bipartite graphs (possibly empty, rectangular, with isolated vertices)."""
    n_rows = draw(st.integers(min_value=1, max_value=max_rows))
    n_cols = draw(st.integers(min_value=1, max_value=max_cols))
    n_edges = draw(st.integers(min_value=0, max_value=max_edges))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_rows - 1),
                st.integers(min_value=0, max_value=n_cols - 1),
            ),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    return from_edges(edges, n_rows=n_rows, n_cols=n_cols, name="hypothesis")


# --------------------------------------------------------------- CSR invariants
@_SETTINGS
@given(bipartite_graphs())
def test_property_csr_roundtrip_and_validity(graph):
    from repro.graph.validate import validate_graph

    validate_graph(graph)
    edges = {(int(u), int(v)) for u, v in graph.edges()}
    rebuilt = from_edges(list(edges), n_rows=graph.n_rows, n_cols=graph.n_cols)
    assert np.array_equal(rebuilt.col_ptr, graph.col_ptr)
    assert np.array_equal(rebuilt.col_ind, graph.col_ind)
    assert np.array_equal(rebuilt.row_ptr, graph.row_ptr)
    # transpose twice is identity on the edge set
    assert {(int(u), int(v)) for u, v in graph.transpose().transpose().edges()} == edges


# -------------------------------------------------- all algorithms are maximum
_ALL_MAXIMUM = {
    "PR": lambda g: push_relabel_matching(g),
    "HK": lambda g: hopcroft_karp_matching(g),
    "HKDW": lambda g: hkdw_matching(g),
    "PFP": lambda g: pothen_fan_matching(g),
    "G-PR-first": lambda g: gpr_matching(g, config=GPRConfig(variant=GPRVariant.FIRST)),
    "G-PR-shrink": lambda g: gpr_matching(
        g, config=GPRConfig(variant=GPRVariant.SHRINK, shrink_threshold=4)
    ),
    "G-HKDW": lambda g: ghkdw_matching(g),
    "P-DBFS": lambda g: pdbfs_matching(g),
}


@_SETTINGS
@given(bipartite_graphs())
@pytest.mark.parametrize("name", sorted(_ALL_MAXIMUM))
def test_property_every_algorithm_is_maximum(name, graph):
    expected = maximum_matching_cardinality(graph)
    result = _ALL_MAXIMUM[name](graph)
    assert result.cardinality == expected
    assert is_valid_matching(graph, result.matching)
    assert is_maximum_matching(graph, result.matching)


# ------------------------------------------------------- greedy heuristics
@_SETTINGS
@given(bipartite_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_greedy_heuristics_valid_and_maximal(graph, seed):
    from repro.seq import is_maximal_matching

    for result in (cheap_matching(graph, seed=seed), karp_sipser_matching(graph, seed=seed)):
        assert is_valid_matching(graph, result.matching)
        assert is_maximal_matching(graph, result.matching)
        # A maximal matching is at least half of a maximum one.
        assert 2 * result.cardinality >= maximum_matching_cardinality(graph)


# -------------------------------------------------- race tolerance (lockstep vs serialized)
@_SETTINGS
@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_property_engine_interleavings_agree(seed):
    rng = np.random.default_rng(seed)
    graph = uniform_random_bipartite(
        int(rng.integers(5, 80)), int(rng.integers(5, 80)), avg_degree=float(rng.uniform(1, 6)),
        seed=int(rng.integers(0, 2**31)),
    )
    expected = maximum_matching_cardinality(graph)
    lockstep = gpr_matching(graph, config=GPRConfig(variant=GPRVariant.FIRST))
    serialized = gpr_matching(
        graph, config=GPRConfig(variant=GPRVariant.FIRST, engine="serialized", seed=seed)
    )
    assert lockstep.cardinality == expected
    assert serialized.cardinality == expected


# -------------------------------------------------- label invariants after GR
@_SETTINGS
@given(bipartite_graphs())
def test_property_global_relabel_labels_are_exact_distances(graph):
    initial = cheap_matching(graph).matching
    mu_row = initial.row_match.copy()
    mu_col = initial.col_match.copy()
    psi_row = np.zeros(graph.n_rows, dtype=np.int64)
    psi_col = np.ones(graph.n_cols, dtype=np.int64)
    gpu_global_relabel(graph, mu_row, mu_col, psi_row, psi_col, VirtualGPU())
    infinity = graph.infinity_label
    # Unmatched rows have label 0; every finite column label is 1 + min over
    # neighbours (the neighbourhood invariant holds with equality after GR).
    assert np.all(psi_row[mu_row < 0] == 0)
    for v in range(graph.n_cols):
        if psi_col[v] >= infinity:
            continue
        nbrs = graph.column_neighbors(v)
        assert psi_col[v] == psi_row[nbrs].min() + 1


# -------------------------------------------------- push kernel invariants
@_SETTINGS
@given(bipartite_graphs())
def test_property_push_kernel_preserves_row_matches(graph):
    """Once a row is matched it never becomes unmatched (only re-matched)."""
    initial = cheap_matching(graph).matching
    mu_row = initial.row_match.copy()
    mu_col = initial.col_match.copy()
    psi_row = np.zeros(graph.n_rows, dtype=np.int64)
    psi_col = np.ones(graph.n_cols, dtype=np.int64)
    gpu_global_relabel(graph, mu_row, mu_col, psi_row, psi_col, VirtualGPU())
    for _ in range(5):
        before = mu_row.copy()
        act, _, _ = push_kernel_all_columns(graph, mu_row, mu_col, psi_row, psi_col)
        matched_before = before >= 0
        assert np.all(mu_row[matched_before] >= 0)
        if not act:
            break


# -------------------------------------------------- FIXMATCHING / canonical
@_SETTINGS
@given(bipartite_graphs(), st.integers(min_value=0, max_value=2**31 - 1))
def test_property_canonical_is_idempotent_and_consistent(graph, seed):
    rng = np.random.default_rng(seed)
    matching = Matching.empty(graph)
    # Random (possibly inconsistent) µ arrays, as the lock-free kernels leave them.
    if graph.n_rows and graph.n_cols:
        rows = rng.integers(-1, graph.n_cols, size=graph.n_rows)
        cols = rng.integers(-2, graph.n_rows, size=graph.n_cols)
        matching.row_match[:] = rows
        matching.col_match[:] = cols
    fixed = matching.canonical()
    again = fixed.canonical()
    assert fixed == again
    matched_cols = np.flatnonzero(fixed.col_match >= 0)
    assert np.all(fixed.row_match[fixed.col_match[matched_cols]] == matched_cols)
