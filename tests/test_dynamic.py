"""Tests for the dynamic-graph subsystem (overlay, incremental repair, traces)."""

from __future__ import annotations

import io
import json

import numpy as np
import pytest

from oracle import max_b_matching_cardinality
from repro.capacity import CapacitatedMatching, is_valid_b_matching
from repro.cli import main
from repro.core.api import max_bipartite_matching, resolve_algorithm
from repro.dynamic import (
    DynamicBipartiteGraph,
    GraphUpdate,
    IncrementalMatcher,
    parse_update,
    read_update_trace,
    write_update_trace,
)
from repro.generators import (
    apply_capacity_spec,
    generate_instance,
    random_update_trace,
    rmat_bipartite,
    road_network_graph,
    suite_update_workload,
    trace_graph,
    uniform_random_bipartite,
    uniform_weights,
)
from repro.graph.builders import from_edges
from repro.matching import Matching
from repro.seq.verify import is_valid_matching, is_maximum_matching


def _chunks(items, size):
    for start in range(0, len(items), size):
        yield items[start : start + size]


@pytest.fixture
def tiny():
    return from_edges([(0, 0), (0, 1), (1, 0), (2, 2)], n_rows=3, n_cols=3, name="tiny")


# ------------------------------------------------------------------- overlay
class TestDynamicBipartiteGraph:
    def test_starts_identical_to_base(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        assert dyn.shape == tiny.shape
        assert dyn.n_edges == tiny.n_edges
        assert dyn.snapshot() is tiny  # quiescent snapshot is the base itself

    def test_insert_and_delete_edge(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        assert dyn.insert_edge(1, 2)
        assert dyn.has_edge(1, 2)
        assert not dyn.insert_edge(1, 2)  # already present
        assert dyn.n_edges == tiny.n_edges + 1
        assert dyn.delete_edge(0, 1)
        assert not dyn.has_edge(0, 1)
        assert not dyn.delete_edge(0, 1)  # already gone
        assert dyn.n_edges == tiny.n_edges

    def test_delete_then_reinsert_base_edge(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        assert dyn.delete_edge(0, 0)
        assert dyn.insert_edge(0, 0)  # resurrect the tombstoned base edge
        assert dyn.has_edge(0, 0)
        assert dyn.overlay_size == 0
        assert dyn.n_edges == tiny.n_edges

    def test_neighbors_merge_overlay(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        dyn.insert_edge(0, 2)
        dyn.delete_edge(0, 0)
        assert dyn.row_neighbors(0).tolist() == [1, 2]
        assert dyn.column_neighbors(2).tolist() == [0, 2]
        assert dyn.column_neighbors(0).tolist() == [1]

    def test_vertex_growth(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        u = dyn.add_row()
        v = dyn.add_col()
        assert (u, v) == (3, 3)
        assert dyn.shape == (4, 4)
        assert dyn.row_neighbors(u).size == 0
        dyn.insert_edge(u, v)
        assert dyn.has_edge(u, v)
        snap = dyn.snapshot()
        assert snap.shape == (4, 4)
        assert snap.has_edge(3, 3)

    def test_out_of_range_indices_raise(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        with pytest.raises(IndexError):
            dyn.insert_edge(3, 0)
        with pytest.raises(IndexError):
            dyn.delete_edge(0, -1)
        with pytest.raises(IndexError):
            dyn.has_edge(0, 3)
        with pytest.raises(IndexError):
            dyn.row_neighbors(-1)

    def test_snapshot_matches_direct_construction(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        dyn.delete_edge(0, 0)
        dyn.insert_edge(2, 0)
        dyn.insert_edge(1, 1)
        expected = from_edges(
            [(0, 1), (1, 0), (2, 2), (2, 0), (1, 1)], n_rows=3, n_cols=3, name="tiny"
        )
        assert dyn.snapshot().content_hash() == expected.content_hash()

    def test_snapshot_cached_until_mutation(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        dyn.insert_edge(1, 1)
        first = dyn.snapshot()
        assert dyn.snapshot() is first
        dyn.delete_edge(1, 1)
        assert dyn.snapshot() is not first

    def test_compact_folds_overlay(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        dyn.insert_edge(1, 1)
        dyn.delete_edge(0, 0)
        dyn.add_row()
        assert dyn.overlay_size == 3
        base = dyn.compact()
        assert dyn.overlay_size == 0
        assert dyn.base is base
        assert base.shape == (4, 3)
        assert base.has_edge(1, 1) and not base.has_edge(0, 0)
        # The algorithms run on compacted snapshots unchanged.
        result = max_bipartite_matching(base, "hk")
        assert result.cardinality == 3

    def test_apply_update_dispatch(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        assert dyn.apply(GraphUpdate.insert(1, 2))
        assert dyn.apply(GraphUpdate.delete(1, 2))
        assert dyn.apply(GraphUpdate.add_row())
        assert dyn.apply(GraphUpdate.add_col())
        assert dyn.shape == (4, 4)


# ------------------------------------------------------------ update traces
class TestUpdateTraces:
    def test_graph_update_validation(self):
        with pytest.raises(ValueError, match="unknown update op"):
            GraphUpdate("swap", 0, 0)
        with pytest.raises(ValueError, match="needs both"):
            GraphUpdate("insert", 1, None)
        assert GraphUpdate.add_row().u is None

    def test_parse_update_errors_name_location(self):
        with pytest.raises(ValueError, match="trace.jsonl:3"):
            parse_update({"op": "nope"}, where="trace.jsonl:3")
        with pytest.raises(ValueError, match="integer 'v'"):
            parse_update({"op": "insert", "u": 1, "v": "x"})
        with pytest.raises(ValueError, match="expected an object"):
            parse_update([1, 2])

    def test_trace_round_trip(self, tmp_path):
        trace = [
            GraphUpdate.insert(0, 1),
            GraphUpdate.delete(2, 3),
            GraphUpdate.add_row(),
            GraphUpdate.add_col(),
        ]
        path = tmp_path / "trace.jsonl"
        assert write_update_trace(trace, path) == 4
        assert list(read_update_trace(path)) == trace

    def test_read_trace_skips_comments_and_reports_bad_lines(self):
        good = io.StringIO('# comment\n\n{"op": "add_row"}\n')
        assert list(read_update_trace(good)) == [GraphUpdate.add_row()]
        bad = io.StringIO('{"op": "add_row"}\nnot json\n')
        with pytest.raises(ValueError, match=":2: invalid JSON"):
            list(read_update_trace(bad))

    def test_random_update_trace_is_seeded_and_consistent(self):
        graph = uniform_random_bipartite(40, 40, avg_degree=3, seed=5)
        a = random_update_trace(graph, 80, insert_fraction=0.6, seed=9)
        b = random_update_trace(graph, 80, insert_fraction=0.6, seed=9)
        assert a == b
        assert len(a) == 80
        # Replaying against the live edge set: every update changes the graph.
        dyn = DynamicBipartiteGraph(graph)
        for update in a:
            assert dyn.apply(update)

    def test_random_update_trace_validation(self):
        graph = uniform_random_bipartite(10, 10, avg_degree=2, seed=0)
        with pytest.raises(ValueError):
            random_update_trace(graph, -1)
        with pytest.raises(ValueError):
            random_update_trace(graph, 1, insert_fraction=1.5)

    def test_suite_update_workload(self):
        graph, trace = suite_update_workload("roadNet-PA", 20, profile="tiny", seed=3)
        assert graph.name == "roadNet-PA"
        assert len(trace) == 20


# ------------------------------------------------------- incremental repair
_FAMILIES = {
    "uniform": lambda seed: uniform_random_bipartite(90, 100, avg_degree=3, seed=seed),
    "rmat": lambda seed: rmat_bipartite(7, edge_factor=4.0, seed=seed),
    "road": lambda seed: road_network_graph(120, removal_fraction=0.3, seed=seed),
    "trace": lambda seed: trace_graph(100, strip_height=3, defect_fraction=0.05, seed=seed),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
@pytest.mark.parametrize("algorithm", ["hk", "pr"])
def test_incremental_equals_scratch_after_every_batch(family, algorithm):
    """Property: incremental cardinality == from-scratch recompute, per batch."""
    for seed in (0, 1):
        graph = _FAMILIES[family](seed + 11)
        updates = random_update_trace(
            graph, 60, insert_fraction=0.55, growth_fraction=0.05, seed=seed
        )
        matcher = IncrementalMatcher(graph, plan=algorithm, batch_threshold=10**9)
        for batch in _chunks(updates, 12):
            matcher.apply(batch)
            snapshot = matcher.graph.snapshot()
            scratch = max_bipartite_matching(snapshot, algorithm)
            assert is_valid_matching(snapshot, matcher.matching)
            assert matcher.cardinality == scratch.cardinality


def test_delegated_batches_agree_with_incremental():
    graph = uniform_random_bipartite(80, 80, avg_degree=3, seed=2)
    updates = random_update_trace(graph, 90, insert_fraction=0.5, seed=4)
    incremental = IncrementalMatcher(graph, plan="hk", batch_threshold=10**9)
    delegated = IncrementalMatcher(graph, plan="hk", batch_threshold=1)
    for batch in _chunks(updates, 30):
        a = incremental.apply(batch)
        b = delegated.apply(batch)
        assert a["mode"] == "incremental" and b["mode"] == "delegated"
        assert a["cardinality"] == b["cardinality"]
    assert delegated.counters["recomputes"] == 3
    assert incremental.counters["recomputes"] == 0
    snapshot = delegated.graph.snapshot()
    assert is_maximum_matching(snapshot, delegated.matching)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("roadNet-PA", (327, 305, 69, 96_569)),
        ("amazon0505", (215, 220, 33, 96_889)),
        ("delaunay_n20", (320, 25, 25, 9_571)),
    ],
)
def test_incremental_repair_counters_are_pinned(name, expected):
    # (cardinality, searches, augmentations, edges scanned) after replaying a
    # trace one update at a time; the repair's column and row searches share
    # one walk, so a change to either side shows here.
    graph = generate_instance(name, profile="tiny", seed=20130421)
    matcher = IncrementalMatcher(graph, plan="hk", batch_threshold=10**9)
    for update in random_update_trace(graph, 400, seed=7):
        matcher.apply([update])
    counters = matcher.counters
    assert (
        matcher.cardinality,
        counters["searches"],
        counters["augmentations"],
        counters["edges_scanned"],
    ) == expected
    assert is_maximum_matching(matcher.graph.snapshot(), matcher.matching)


def test_insert_both_endpoints_matched_can_still_augment():
    # r -(free)- v', u -(matched)- v', u' -(matched)- v, u' - c_free: adding
    # (u, v) opens a length-5 augmenting path although u and v are matched.
    graph = from_edges(
        [(0, 0), (1, 1), (2, 0), (1, 2)], n_rows=3, n_cols=3, name="aug"
    )
    initial = Matching.from_pairs(graph, [(0, 0), (1, 1)])
    matcher = IncrementalMatcher(graph, initial=initial, plan="hk")
    assert matcher.cardinality == 2
    matcher.insert_edge(0, 1)
    assert matcher.cardinality == 3
    assert is_maximum_matching(matcher.graph.snapshot(), matcher.matching)


def test_delete_matched_edge_reaugments():
    graph = from_edges([(0, 0), (0, 1), (1, 0), (1, 1)], n_rows=2, n_cols=2, name="del")
    matcher = IncrementalMatcher(graph, plan="hk")
    assert matcher.cardinality == 2
    matcher.delete_edge(0, int(matcher.matching.row_match[0]))
    # One matched edge removed; the repair re-augments back to 2.
    assert matcher.cardinality == 2
    matcher.delete_edge(0, int(matcher.matching.row_match[0]))
    assert matcher.cardinality == 1
    assert is_maximum_matching(matcher.graph.snapshot(), matcher.matching)


def test_delete_unmatched_edge_is_free(tiny):
    matcher = IncrementalMatcher(tiny, plan="hk")
    searches = matcher.counters["searches"]
    unmatched = [
        (u, v)
        for u, v in tiny.edges().tolist()
        if matcher.matching.row_match[u] != v
    ]
    assert unmatched, "fixture needs an unmatched edge"
    u, v = unmatched[0]
    matcher.delete_edge(u, v)
    assert matcher.counters["searches"] == searches  # no search ran


def test_matcher_vertex_growth_and_matching_extension(tiny):
    matcher = IncrementalMatcher(tiny, plan="hk")
    before = matcher.cardinality
    u = matcher.add_row()
    v = matcher.add_col()
    assert matcher.cardinality == before
    matcher.insert_edge(u, v)
    assert matcher.cardinality == before + 1
    assert is_maximum_matching(matcher.graph.snapshot(), matcher.matching)


def test_initial_matching_shape_is_validated(tiny):
    other = uniform_random_bipartite(10, 10, avg_degree=2, seed=0)
    with pytest.raises(ValueError, match="initial matching"):
        IncrementalMatcher(tiny, initial=Matching.empty(other), plan="hk")


def test_heuristic_plans_are_rejected(tiny):
    with pytest.raises(ValueError, match="heuristic"):
        IncrementalMatcher(tiny, plan="cheap")
    with pytest.raises(ValueError, match="batch_threshold"):
        IncrementalMatcher(tiny, plan="hk", batch_threshold=0)


def test_custom_recompute_is_used_for_batches(tiny):
    calls = []
    plan = resolve_algorithm("hk")

    def recompute(snapshot, initial):
        calls.append((snapshot.n_edges, initial))
        return plan.run(snapshot, initial)

    matcher = IncrementalMatcher(tiny, plan=plan, batch_threshold=2, recompute=recompute)
    assert len(calls) == 1 and calls[0][1] is None  # the initial solve
    matcher.apply([GraphUpdate.insert(1, 2), GraphUpdate.insert(2, 0)])
    assert len(calls) == 2
    assert isinstance(calls[1][1], Matching)  # warm-started from the survivor
    assert matcher.counters["recomputes"] == 1


def test_snapshot_content_hash_keys_caches():
    # The service memoizes on content_hash; equal dynamic states must agree.
    graph = uniform_random_bipartite(30, 30, avg_degree=2, seed=1)
    a = DynamicBipartiteGraph(graph)
    b = DynamicBipartiteGraph(graph)
    for dyn in (a, b):
        dyn.insert_edge(0, 5)
        dyn.delete_edge(*map(int, graph.edges()[0]))
    assert a.snapshot().content_hash() == b.snapshot().content_hash()
    assert a.snapshot().content_hash() != graph.content_hash()


# ----------------------------------- weighted / capacitated dynamic layer
class TestWeightedCapacitatedOverlay:
    def test_weighted_base_round_trips_through_snapshot(self):
        graph = from_edges([(0, 0), (1, 1)], 2, 2, name="wtiny", weights=[2.0, 3.0])
        dyn = DynamicBipartiteGraph(graph)
        dyn.insert_edge(0, 1, 5.0)
        snap = dyn.snapshot()
        assert snap.has_weights
        assert snap.edge_weight(0, 1) == 5.0
        assert snap.edge_weight(1, 1) == 3.0

    def test_insert_without_weight_names_the_operation(self):
        # Regression: the old message ("weighted graphs are not supported")
        # named neither the op nor the fix; it now points at the exact call.
        graph = from_edges([(0, 0)], 2, 2, name="wtiny", weights=[2.0])
        dyn = DynamicBipartiteGraph(graph)
        with pytest.raises(ValueError, match=r"insert_edge\(1, 1\) on weighted graph"):
            dyn.insert_edge(1, 1)

    def test_weight_on_unweighted_graph_is_rejected(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        with pytest.raises(ValueError, match="weight"):
            dyn.insert_edge(1, 2, 4.0)

    def test_capacity_on_uncapacitated_graph_names_the_operation(self, tiny):
        dyn = DynamicBipartiteGraph(tiny)
        with pytest.raises(ValueError, match=r"add_row\(b=2\)"):
            dyn.add_row(b=2)
        with pytest.raises(ValueError, match=r"add_col\(b=3\)"):
            dyn.add_col(b=3)

    def test_capacitated_arrivals_and_retirement(self):
        graph = apply_capacity_spec(
            uniform_random_bipartite(6, 6, avg_degree=2.0, seed=1), "fixed:2", seed=0
        )
        dyn = DynamicBipartiteGraph(graph)
        v = dyn.add_col(b=3)
        dyn.insert_edge(0, v)
        snap = dyn.snapshot()
        assert snap.has_capacities
        assert int(snap.b_col[v]) == 3
        assert int(snap.b_row[0]) == 2
        # Retirement deletes every incident edge; the vertex index remains.
        degree = dyn.row_neighbors(0).size
        assert degree > 0
        assert dyn.apply(GraphUpdate.retire_row(0))
        assert dyn.row_neighbors(0).size == 0
        assert dyn.shape == snap.shape


class TestCapacitatedIncremental:
    def test_weighted_graph_needs_a_weighted_plan(self):
        graph = uniform_weights(
            uniform_random_bipartite(12, 12, avg_degree=2.0, seed=3), seed=4
        )
        with pytest.raises(ValueError, match=r"'hk' would silently ignore"):
            IncrementalMatcher(graph, plan="hk")

    def test_capacitated_graph_needs_a_capacitated_plan(self):
        graph = apply_capacity_spec(
            uniform_random_bipartite(12, 12, avg_degree=2.0, seed=3), "fixed:2", seed=0
        )
        with pytest.raises(ValueError, match=r"'hk' would silently ignore"):
            IncrementalMatcher(graph, plan="hk")

    def test_delegated_only_plan_rejects_explicit_initial(self):
        graph = apply_capacity_spec(
            uniform_random_bipartite(12, 12, avg_degree=2.0, seed=3), "fixed:2", seed=0
        )
        initial = max_bipartite_matching(graph, "b-aug").matching
        with pytest.raises(ValueError, match="drop the initial matching"):
            IncrementalMatcher(graph, plan="b-expand", initial=initial)

    def test_weighted_plan_tracks_scratch_weight(self):
        graph = uniform_weights(
            uniform_random_bipartite(30, 30, avg_degree=3.0, seed=7), seed=8
        )
        matcher = IncrementalMatcher(graph, plan="weighted-sap")
        rng = np.random.default_rng(5)
        updates = []
        for _ in range(20):
            u, v = int(rng.integers(30)), int(rng.integers(30))
            if matcher.graph.has_edge(u, v):
                updates.append(GraphUpdate.delete(u, v))
            else:
                updates.append(GraphUpdate.insert(u, v, weight=float(rng.integers(1, 50))))
        summary = matcher.apply(updates)
        assert summary["mode"] == "delegated"
        snapshot = matcher.graph.snapshot()
        scratch = max_bipartite_matching(snapshot, "weighted-sap")
        assert matcher.cardinality == scratch.cardinality
        assert is_valid_matching(snapshot, matcher.matching)

    def test_capacitated_churn_stays_maximum(self):
        # Vertex arrivals (with capacities), retirements and edge churn: the
        # repaired b-matching must equal the flow oracle after every batch.
        graph = apply_capacity_spec(
            uniform_random_bipartite(14, 10, avg_degree=2.5, seed=9), "cols:2", seed=1
        )
        matcher = IncrementalMatcher(graph, plan="b-aug", batch_threshold=1)
        rng = np.random.default_rng(11)
        n_rows, n_cols = graph.shape
        updates = []
        for _ in range(40):
            roll = rng.random()
            if roll < 0.3:
                updates.append(GraphUpdate.add_row())
                u, n_rows = n_rows, n_rows + 1
                updates.append(GraphUpdate.insert(u, int(rng.integers(n_cols))))
            elif roll < 0.4:
                updates.append(GraphUpdate.add_col(b=int(rng.integers(1, 4))))
                v, n_cols = n_cols, n_cols + 1
                updates.append(GraphUpdate.insert(int(rng.integers(n_rows)), v))
            elif roll < 0.6:
                updates.append(GraphUpdate.retire_row(int(rng.integers(n_rows))))
            else:
                updates.append(GraphUpdate.insert(
                    int(rng.integers(n_rows)), int(rng.integers(n_cols))
                ))
        for batch in _chunks(updates, 8):
            summary = matcher.apply(batch)
            assert summary["mode"] == "delegated"
            snapshot = matcher.graph.snapshot()
            assert isinstance(matcher.matching, CapacitatedMatching)
            assert is_valid_b_matching(snapshot, matcher.matching)
            assert matcher.cardinality == max_b_matching_cardinality(snapshot)

    def test_retire_row_in_normal_mode_repairs(self):
        graph = uniform_random_bipartite(20, 20, avg_degree=3.0, seed=13)
        matcher = IncrementalMatcher(graph, plan="hk", batch_threshold=10**9)
        matcher.retire_row(0)
        snapshot = matcher.graph.snapshot()
        assert snapshot.row_degrees[0] == 0
        assert is_maximum_matching(snapshot, matcher.matching)
        matcher.retire_col(3)
        snapshot = matcher.graph.snapshot()
        assert is_maximum_matching(snapshot, matcher.matching)


# --------------------------------------------- scenario replay determinism
class TestScenarioReplayDeterminism:
    def _replay(self, capsys, backend: str) -> str:
        argv = [
            "stream",
            "--scenario", "task-routing",
            "--seed", "5",
            "--batch-size", "40",
        ]
        if backend:
            argv += ["--backend", backend]
        assert main(argv) == 0
        return capsys.readouterr().out

    def test_same_seed_replays_are_byte_identical(self, capsys):
        assert self._replay(capsys, "") == self._replay(capsys, "")

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_serialise_byte_identically(self, capsys, backend):
        # The whole point of dropping wall-clock and worker identity from
        # the stream rows: replays are comparable across engine backends.
        assert self._replay(capsys, "inline") == self._replay(capsys, backend)

    def test_summary_reports_scenario_and_slo(self, capsys):
        out = self._replay(capsys, "inline")
        lines = [line for line in out.splitlines() if line]
        events = [json.loads(line) for line in lines]
        assert events[0]["type"] == "initial"
        assert events[0]["scenario"] == "task-routing"
        summary = events[-1]
        assert summary["type"] == "summary"
        assert "backend" not in summary
        assert 0.0 <= summary["assignment_rate"] <= 1.0
        assert summary["slo"] == pytest.approx(0.9)
        assert summary["slo_met"] is True
        batches = [e for e in events if e["type"] == "batch"]
        assert batches and all("slo_met" in b for b in batches)
