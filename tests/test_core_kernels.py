"""Unit tests for the individual GPU kernels (lockstep implementations)."""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.gpr as gpr_module
import repro.core.relabel as relabel_module
from repro.compiled import dispatch
from repro.core import ghkdw, kernels
from repro.core.ghkdw import ghkdw_matching
from repro.core.gpr import GPRConfig, gpr_matching
from repro.core.kernels import (
    active_columns_mask,
    fix_matching_kernel,
    global_relabel_kernel,
    init_active_kernel,
    init_relabel_kernel,
    push_kernel_active_list,
    push_kernel_all_columns,
    push_kernel_all_columns_serialized,
    shrink_kernel,
)
from repro.core.relabel import gpu_global_relabel
from repro.graph import frontier, from_edges
from repro.gpusim import SparseWork, VirtualGPU
from repro.matching import UNMATCHABLE, UNMATCHED, Matching


def _state(graph, initial=None):
    if initial is None:
        matching = Matching.empty(graph)
    else:
        matching = initial.copy()
    psi_row = np.zeros(graph.n_rows, dtype=np.int64)
    psi_col = np.ones(graph.n_cols, dtype=np.int64)
    return matching.row_match, matching.col_match, psi_row, psi_col


# -------------------------------------------------------------- active mask
def test_active_mask_unmatched_and_inconsistent(tiny_graph):
    mu_row, mu_col, _, _ = _state(tiny_graph)
    mu_row[0] = 1
    mu_col[1] = 0  # consistent pair (0, 1)
    mu_col[2] = 0  # stale pointer: row 0 does not point back
    mu_col[3] = UNMATCHABLE  # retired
    mask = active_columns_mask(mu_row, mu_col)
    assert list(mask) == [True, False, True, False]


# ------------------------------------------------------------ global relabel
def test_init_relabel_kernel(tiny_graph):
    mu_row, mu_col, psi_row, psi_col = _state(tiny_graph)
    mu_row[0] = 0
    mu_col[0] = 0
    frontier, work = init_relabel_kernel(tiny_graph, mu_row, psi_row, psi_col)
    inf = tiny_graph.infinity_label
    assert psi_row[0] == inf  # matched rows start at infinity
    assert set(psi_row[1:]) == {0}  # unmatched rows at 0
    assert np.all(psi_col == inf)
    assert len(work.dense()) == tiny_graph.n_vertices
    assert frontier.tolist() == [1, 2, 3]  # the rows labelled 0


def test_global_relabel_sets_exact_distances():
    # Path graph: c0 - r0 - c1 - r1, with (r0,c1),(r1,c1) matched as r1-c1.
    g = from_edges([(0, 0), (0, 1), (1, 1)], n_rows=2, n_cols=2)
    mu_row = np.array([UNMATCHED, 1], dtype=np.int64)
    mu_col = np.array([UNMATCHED, 1], dtype=np.int64)
    psi_row = np.zeros(2, dtype=np.int64)
    psi_col = np.zeros(2, dtype=np.int64)
    gpu = VirtualGPU()
    max_level = gpu_global_relabel(g, mu_row, mu_col, psi_row, psi_col, gpu)
    # r0 is the only unmatched row: distance 0; c0 and c1 at distance 1; r1 at 2.
    assert psi_row[0] == 0
    assert psi_col[0] == 1
    assert psi_col[1] == 1
    assert psi_row[1] == 2
    assert max_level >= 2
    assert gpu.ledger.n_launches >= 2


def test_global_relabel_marks_unreachable_vertices():
    # Column 1 has no neighbours; rows all matched except none reachable from it.
    g = from_edges([(0, 0)], n_rows=2, n_cols=2)
    mu_row = np.array([0, UNMATCHED], dtype=np.int64)
    mu_col = np.array([0, UNMATCHED], dtype=np.int64)
    psi_row = np.zeros(2, dtype=np.int64)
    psi_col = np.zeros(2, dtype=np.int64)
    gpu = VirtualGPU()
    gpu_global_relabel(g, mu_row, mu_col, psi_row, psi_col, gpu)
    inf = g.infinity_label
    assert psi_col[1] == inf  # isolated column: unreachable
    assert psi_row[1] == 0  # unmatched row is a BFS source


def test_global_relabel_kernel_empty_frontier(tiny_graph):
    mu_row, mu_col, psi_row, psi_col = _state(tiny_graph)
    psi_row.fill(tiny_graph.infinity_label)
    frontier, work = global_relabel_kernel(tiny_graph, mu_row, mu_col, psi_row, psi_col, 0, [])
    assert not len(frontier)
    assert len(work.dense()) == tiny_graph.n_rows


# ------------------------------------------------------------- push kernels
def test_push_kernel_single_push(tiny_graph):
    mu_row, mu_col, psi_row, psi_col = _state(tiny_graph)
    gpu = VirtualGPU()
    gpu_global_relabel(tiny_graph, mu_row, mu_col, psi_row, psi_col, gpu)
    act, work, _ = push_kernel_all_columns(tiny_graph, mu_row, mu_col, psi_row, psi_col)
    assert act
    # Every column with at least one neighbour got matched to some row (all
    # rows were unmatched, so every push is a single push and ψ(row) becomes 2).
    for v in range(3):
        assert mu_col[v] >= 0
        assert mu_row[mu_col[v]] in (0, 1, 2, 3)
    # Column 3 has no neighbours: it is retired.
    assert mu_col[3] == UNMATCHABLE
    assert len(work.dense()) == tiny_graph.n_cols


def test_push_kernel_no_active_columns(tiny_graph):
    mu_row, mu_col, psi_row, psi_col = _state(tiny_graph)
    mu_col.fill(UNMATCHABLE)
    act, _, _ = push_kernel_all_columns(tiny_graph, mu_row, mu_col, psi_row, psi_col)
    assert not act


def test_push_kernel_conflict_resolution():
    # Two columns share their only row; exactly one can win the push.
    g = from_edges([(0, 0), (0, 1)], n_rows=1, n_cols=2)
    mu_row, mu_col, psi_row, psi_col = _state(g)
    act, _, _ = push_kernel_all_columns(g, mu_row, mu_col, psi_row, psi_col)
    assert act
    winner = mu_row[0]
    assert winner in (0, 1)
    # Both columns believe they are matched to row 0 (the paper's tolerated
    # inconsistency); only the winner is consistent.
    assert mu_col[0] == 0 and mu_col[1] == 0
    loser = 1 - winner
    mask = active_columns_mask(mu_row, mu_col)
    assert mask[loser] and not mask[winner]


def test_push_kernel_serialized_matches_semantics(tiny_graph):
    mu_row, mu_col, psi_row, psi_col = _state(tiny_graph)
    gpu = VirtualGPU()
    gpu_global_relabel(tiny_graph, mu_row, mu_col, psi_row, psi_col, gpu)
    act, work = push_kernel_all_columns_serialized(
        tiny_graph, mu_row, mu_col, psi_row, psi_col, rng=np.random.default_rng(0)
    )
    assert act
    assert len(work.dense()) == tiny_graph.n_cols
    assert np.count_nonzero(mu_row >= 0) >= 1


def test_fix_matching_kernel(tiny_graph):
    mu_row, mu_col, _, _ = _state(tiny_graph)
    mu_row[0] = 1
    mu_col[1] = 0  # consistent
    mu_col[0] = 0  # stale
    mu_col[2] = UNMATCHABLE
    fix_matching_kernel(mu_row, mu_col)
    assert mu_col[1] == 0
    assert mu_col[0] == UNMATCHED
    assert mu_col[2] == UNMATCHED


# ---------------------------------------------------------- active-list path
def test_init_active_kernel_rolls_back_losers():
    g = from_edges([(0, 0), (0, 1)], n_rows=1, n_cols=2)
    mu_row, mu_col, psi_row, psi_col = _state(g)
    # Simulate the aftermath of a conflicting push round: both columns pushed
    # onto row 0, column 1 won.
    mu_row[0] = 1
    mu_col[0] = 0
    mu_col[1] = 0
    ap = np.array([0, 1], dtype=np.int64)  # both columns were processed
    ac = np.array([-1, -1], dtype=np.int64)  # neither push produced a new active column
    ia = np.full(2, -1, dtype=np.int64)
    act, work = init_active_kernel(mu_row, mu_col, ac, ap, ia, loop=5)
    assert act
    # Column 0 lost, so it must be rolled back into the active list; column 1
    # is consistently matched and must not reappear.
    assert 0 in ac
    assert 1 not in ac
    assert ia[0] == 5
    assert len(work.dense()) == 2


def test_init_active_kernel_deduplicates():
    mu_row = np.array([UNMATCHED], dtype=np.int64)
    mu_col = np.array([UNMATCHED, UNMATCHED], dtype=np.int64)
    ac = np.array([0, 0, 1], dtype=np.int64)  # column 0 appears twice
    ap = np.full(3, -1, dtype=np.int64)
    ia = np.full(2, -1, dtype=np.int64)
    act, _ = init_active_kernel(mu_row, mu_col, ac, ap, ia, loop=1)
    assert act
    assert np.count_nonzero(ac == 0) == 1
    assert np.count_nonzero(ac == 1) == 1


def test_init_active_kernel_empty():
    act, work = init_active_kernel(
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        np.array([], dtype=np.int64),
        loop=0,
    )
    assert not act
    assert len(work.dense()) == 0


def test_push_kernel_active_list_basic(tiny_graph):
    mu_row, mu_col, psi_row, psi_col = _state(tiny_graph)
    gpu = VirtualGPU()
    gpu_global_relabel(tiny_graph, mu_row, mu_col, psi_row, psi_col, gpu)
    ac = np.array([0, 1, 2, 3], dtype=np.int64)
    ap = np.full(4, -1, dtype=np.int64)
    ia = np.full(4, -1, dtype=np.int64)
    ia[ac] = 0
    work = push_kernel_active_list(
        tiny_graph, mu_row, mu_col, psi_row, psi_col, ac, ap, ia, loop=0
    )
    assert len(work.dense()) == 4
    # Column 3 is isolated: retired and its slots cleared.
    assert mu_col[3] == UNMATCHABLE
    assert ac[3] == -1 and ap[3] == -1
    # The other columns performed single pushes, so no new active columns.
    assert set(ap[:3]) == {-1}


def test_push_kernel_active_list_double_push_records_victim():
    # Row 0 matched to column 1; column 0 (unmatched) will displace it.
    g = from_edges([(0, 0), (0, 1)], n_rows=1, n_cols=2)
    mu_row = np.array([1], dtype=np.int64)
    mu_col = np.array([UNMATCHED, 0], dtype=np.int64)
    psi_row = np.array([0], dtype=np.int64)
    psi_col = np.array([1, 1], dtype=np.int64)
    ac = np.array([0], dtype=np.int64)
    ap = np.array([-1], dtype=np.int64)
    ia = np.full(2, -1, dtype=np.int64)
    ia[0] = 3
    push_kernel_active_list(g, mu_row, mu_col, psi_row, psi_col, ac, ap, ia, loop=3)
    assert mu_row[0] == 0
    assert mu_col[0] == 0
    assert ap[0] == 1  # the displaced column is recorded as the new active column


def test_shrink_kernel_compacts():
    mu_row = np.array([UNMATCHED, UNMATCHED], dtype=np.int64)
    mu_col = np.array([UNMATCHED, 5, UNMATCHED], dtype=np.int64)  # column 1 stale-pointer active
    mu_col[1] = UNMATCHED
    ac = np.array([0, -1, -1, 2, -1, -1, -1, -1], dtype=np.int64)
    ap = np.full(8, -1, dtype=np.int64)
    ia = np.full(3, -1, dtype=np.int64)
    act, new_ac, new_ap, work = shrink_kernel(mu_row, mu_col, ac, ap, ia, loop=2)
    assert act
    assert sorted(new_ac.tolist()) == [0, 2]
    assert len(new_ap) == 2
    assert np.all(new_ap == -1)
    assert len(work.dense()) == 8


# --------------------------------------------------- lockstep race semantics
def test_lockstep_wave_reads_launch_state_without_snapshots():
    """Pins the lockstep visibility contract after the snapshot-copy removal.

    Within one wave every thread must observe launch-time memory (the
    vectorized kernels get this structurally: all reads happen before the
    first write), and conflicting writes resolve last-writer-wins.  Two
    columns sharing their minimum-label row must therefore BOTH select it
    from the launch-time labels — the later column wins the row — and the
    psi updates must reflect the shared pre-push minimum.
    """
    # col 0 -> {row 0};  col 1 -> {row 0, row 1}.
    g = from_edges([(0, 0), (0, 1), (1, 1)], n_rows=2, n_cols=2)
    mu_row, mu_col, psi_row, psi_col = _state(g)
    psi_row[:] = (0, 5)  # row 0 is the strict minimum for both columns
    psi_col[:] = (1, 1)
    act, work, _ = push_kernel_all_columns(g, mu_row, mu_col, psi_row, psi_col)
    assert act
    # Both pushed to row 0 against the launch-time labels; column 1 wrote last.
    assert mu_col.tolist() == [0, 0]
    assert mu_row[0] == 1
    assert psi_col.tolist() == [1, 1]  # psi_min + 1 with psi_min = 0
    assert psi_row[0] == 2  # psi_min + 2 (both writers agreed on the value)
    assert mu_row[1] == UNMATCHED and psi_row[1] == 5  # untouched
    assert len(work.dense()) == 2


def test_later_waves_observe_earlier_waves_writes():
    """With wave_size=1 the second wave must see the first wave's updates:
    wave 0's push raises row 0's label from 0 to 2, past row 1's label 1,
    so wave 1 picks row 1 and no conflict occurs — whereas a single
    lockstep wave (previous test's shape) would have both columns fight
    over row 0.  This is the exact multi-wave visibility the engine models."""
    g = from_edges([(0, 0), (0, 1), (1, 1)], n_rows=2, n_cols=2)
    mu_row, mu_col, psi_row, psi_col = _state(g)
    psi_row[:] = (0, 1)  # row 0 is the launch-time minimum for both columns
    psi_col[:] = (1, 1)
    act, _, _ = push_kernel_all_columns(g, mu_row, mu_col, psi_row, psi_col, wave_size=1)
    assert act
    assert mu_col.tolist() == [0, 1]
    assert mu_row.tolist() == [0, 1]  # both consistent: no lost push
    assert psi_row.tolist() == [2, 3]  # wave 1 saw psi_row[0] == 2, took row 1 at 1


def test_active_list_push_reads_prepush_match_state():
    """Algorithm 9's double-push bookkeeping reads mu_row *before* any wave
    write: the displaced column recorded in ap must be the pre-push match
    even though the same launch overwrites mu_row in place."""
    g = from_edges([(0, 0), (0, 1)], n_rows=1, n_cols=2)
    mu_row = np.array([1], dtype=np.int64)  # row 0 currently matched to col 1
    mu_col = np.array([UNMATCHED, 0], dtype=np.int64)
    psi_row = np.zeros(1, dtype=np.int64)
    psi_col = np.ones(2, dtype=np.int64)
    ac = np.array([0], dtype=np.int64)
    ap = np.full(1, -1, dtype=np.int64)
    ia = np.full(2, -1, dtype=np.int64)
    ia[0] = 7
    push_kernel_active_list(g, mu_row, mu_col, psi_row, psi_col, ac, ap, ia, loop=7)
    assert mu_row[0] == 0 and mu_col[0] == 0
    assert ap[0] == 1  # the pre-push owner, read from live (not yet written) memory


def test_lockstep_and_serialized_agree_on_cardinality_after_races():
    """The paper's §III-B argument: any interleaving yields a maximum
    matching.  Run the conflict-heavy all-columns kernel to a fixpoint under
    both engines (snapshot-free lockstep vs fully serialized) and compare."""
    from repro.core.kernels import fix_matching_kernel as fix
    from repro.generators import uniform_random_bipartite
    from repro.seq.verify import maximum_matching_cardinality

    g = uniform_random_bipartite(40, 40, avg_degree=3.0, seed=21)
    outcomes = {}
    for engine in ("lockstep", "serialized"):
        mu_row, mu_col, psi_row, psi_col = _state(g)
        gpu_global_relabel(g, mu_row, mu_col, psi_row, psi_col, VirtualGPU())
        for _ in range(10_000):
            if engine == "lockstep":
                act, _, _ = push_kernel_all_columns(g, mu_row, mu_col, psi_row, psi_col)
            else:
                act, _ = push_kernel_all_columns_serialized(
                    g, mu_row, mu_col, psi_row, psi_col, rng=np.random.default_rng(3)
                )
            if not act:
                break
            gpu_global_relabel(g, mu_row, mu_col, psi_row, psi_col, VirtualGPU())
        fix(mu_row, mu_col)
        outcomes[engine] = int(np.count_nonzero(mu_row >= 0))
    expected = maximum_matching_cardinality(g)
    assert outcomes["lockstep"] == outcomes["serialized"] == expected


# ------------------------------------------------ narrow and wide launches
# Every kernel with a scalar path for narrow launches must agree with its
# vectorized path: run once with every launch wide (frontier.NARROW_WIDTH = 0,
# the one constant the kernels and the BFS level steps read) and once with
# every launch narrow, the two must leave the same device arrays, return the
# same frontiers or candidates and charge identical KernelStats.
ALL_NARROW = 10**9
NARROW_ANALOGS = ["roadNet-PA", "hugetrace-00000", "delaunay_n20", "amazon0505", "kron_g500-logn20"]
NARROW_SEEDS = [1, 2, 3]


@pytest.fixture(params=NARROW_ANALOGS)
def analog(request):
    return request.param


@pytest.fixture(params=NARROW_SEEDS, ids=lambda s: f"seed{s}")
def tiny_analog(analog, request):
    from repro.generators.suite import generate_instance

    return generate_instance(analog, profile="tiny", seed=request.param)


def _charged(work):
    gpu = VirtualGPU()
    gpu.charge_kernel("k", work)
    return gpu.ledger.launches


def _assert_same(wide, narrow):
    """Kernel outputs agree: work by dense expansion and charge, sequences by value."""
    if isinstance(wide, SparseWork):
        np.testing.assert_array_equal(wide.dense(), narrow.dense())
        assert _charged(wide) == _charged(narrow)
    elif isinstance(wide, tuple):
        assert len(wide) == len(narrow)
        for a, b in zip(wide, narrow):
            _assert_same(a, b)
    elif isinstance(wide, (list, np.ndarray)):
        np.testing.assert_array_equal(
            np.asarray(wide, dtype=np.int64), np.asarray(narrow, dtype=np.int64)
        )
    else:
        assert wide == narrow


def _checked(monkeypatch, kernel):
    """``kernel`` run wide on copies of its arrays, then narrow on the real ones."""

    def run(*args, **kwargs):
        copies = [a.copy() if isinstance(a, np.ndarray) else a for a in args]
        monkeypatch.setattr(frontier, "NARROW_WIDTH", 0)
        wide = kernel(*copies, **kwargs)
        monkeypatch.setattr(frontier, "NARROW_WIDTH", ALL_NARROW)
        narrow = kernel(*args, **kwargs)
        for copy, array in zip(copies, args):
            if isinstance(array, np.ndarray):
                np.testing.assert_array_equal(copy, array)  # µ, ψ, ac, ap, ia
        _assert_same(wide, narrow)
        return narrow

    return run


def _checked_bfs(monkeypatch):
    """G-HKDW's BFS phase run wide on a spare device, then narrow on the real one."""
    bfs = ghkdw._bfs_phase

    def run(graph, mu_row, mu_col, gpu):
        spare = VirtualGPU(gpu.spec)
        monkeypatch.setattr(frontier, "NARROW_WIDTH", 0)
        wide = bfs(graph, mu_row, mu_col, spare)
        monkeypatch.setattr(frontier, "NARROW_WIDTH", ALL_NARROW)
        before = gpu.ledger.n_launches
        narrow = bfs(graph, mu_row, mu_col, gpu)
        _assert_same(wide, narrow)
        assert gpu.ledger.launches[before:] == spare.ledger.launches
        return narrow

    return run


SOLVERS = {
    "g-pr": lambda g: gpr_matching(g, config=GPRConfig(shrink_threshold=8)),
    "g-pr-noshrink": lambda g: gpr_matching(g, config=GPRConfig(variant="noshrink")),
    "g-pr-first": lambda g: gpr_matching(g, config=GPRConfig(variant="first")),
    "g-hkdw": lambda g: ghkdw_matching(g),
}


@pytest.mark.parametrize("solver", list(SOLVERS))
def test_narrow_and_wide_launches_agree(solver, tiny_analog, monkeypatch):
    solve = SOLVERS[solver]
    if solver == "g-pr-first":
        # Small waves, so launches split into several waves.
        monkeypatch.setattr(gpr_module, "WAVES_IN_FLIGHT", 1)
    with dispatch.override(False):
        monkeypatch.setattr(frontier, "NARROW_WIDTH", 0)
        wide = solve(tiny_analog)
        monkeypatch.setattr(frontier, "NARROW_WIDTH", ALL_NARROW)
        narrow = solve(tiny_analog)
        # Then every launch of a solve, one kernel call at a time.
        for module in (gpr_module, relabel_module):
            for name in ("global_relabel_kernel", "push_kernel_all_columns",
                         "init_active_kernel", "push_kernel_active_list", "shrink_kernel"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, _checked(monkeypatch, getattr(kernels, name)))
        monkeypatch.setattr(ghkdw, "_bfs_phase", _checked_bfs(monkeypatch))
        checked = solve(tiny_analog)
    for result in (narrow, checked):
        np.testing.assert_array_equal(wide.matching.row_match, result.matching.row_match)
        np.testing.assert_array_equal(wide.matching.col_match, result.matching.col_match)
        assert wide.counters == result.counters
        assert wide.modeled_time == result.modeled_time
