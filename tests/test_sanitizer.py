"""Tests of the lockstep-kernel race sanitizer (shadow-access mode)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.hazards import (
    HOST_SEGMENT,
    AccessLog,
    ConflictPolicy,
    evaluate,
    shadow_wrap,
)
from repro.analysis.registry import KERNEL_POLICIES, sanitized_run, sanitized_sweep
from repro.core.ghkdw import ghkdw_matching
from repro.core.gpr import GPRConfig, gpr_matching
from repro.generators import uniform_random_bipartite
from repro.generators.suite import generate_instance
from repro.graph import frontier
from repro.gpusim.costmodel import SparseWork
from repro.gpusim.device import DeviceSpec, VirtualGPU
from repro.gpusim.kernel import wave_barrier
from repro.seq.greedy import cheap_matching


# --------------------------------------------------------------------------
# recording primitives
# --------------------------------------------------------------------------
def test_shadow_array_records_subscript_reads_and_writes():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "a", log)
    _ = arr[2]
    arr[3] = 7
    log.close_segment("k")
    (segment,) = log.segments
    assert segment.kernel == "k"
    assert segment.reads == 1 and segment.writes == 1
    assert segment.hazards == []


def test_shadow_array_shares_the_buffer():
    base = np.zeros(4, dtype=np.int64)
    arr = shadow_wrap(base, "a", AccessLog())
    arr[1] = 5
    arr.fill(2)
    assert base.tolist() == [2, 2, 2, 2]


def test_ufunc_results_are_plain_and_recorded_as_reads():
    log = AccessLog()
    arr = shadow_wrap(np.arange(4), "a", log)
    mask = arr >= 2
    assert type(mask) is np.ndarray
    total = arr + arr
    assert type(total) is np.ndarray
    log.close_segment("k")
    assert log.segments[0].reads >= 2


# --------------------------------------------------------------------------
# hazard detection
# --------------------------------------------------------------------------
def _ww_fixture_kernel(log):
    """Deliberate intra-wave WW: two writes hit slot 2 within one wave."""
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "mu", log)
    arr[np.array([1, 2])] = 10
    arr[np.array([2, 3])] = 20
    log.close_segment("fixture")
    return log


def test_ww_fixture_is_flagged():
    log = _ww_fixture_kernel(AccessLog())
    report = evaluate(log, {}, label="fixture")
    assert not report.ok()
    (hazard,) = report.undeclared
    assert hazard.kind == "ww" and hazard.array == "mu" and 2 in hazard.sample
    assert "WW" in hazard.render()


def test_ww_fixture_clean_under_declared_lww_policy():
    log = _ww_fixture_kernel(AccessLog())
    policies = {"fixture": ConflictPolicy(last_writer_wins=frozenset({"mu"}))}
    report = evaluate(log, policies, label="fixture")
    assert report.ok()
    assert [h.kind for h in report.declared] == ["ww"]


def test_duplicate_indices_in_one_assignment_are_ww():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "mu", log)
    arr[np.array([4, 4, 5])] = 1  # numpy resolves last-occurrence-wins
    log.close_segment("k")
    report = evaluate(log, {}, label="dup")
    (hazard,) = report.undeclared
    assert hazard.kind == "ww" and hazard.sample == (4,)


def test_raw_is_flagged_and_not_covered_by_lww():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "mu", log)
    arr[np.array([1, 2])] = 1
    _ = arr[np.array([2, 5])]  # reads a location written this wave
    log.close_segment("k")
    report = evaluate(log, {"k": ConflictPolicy(last_writer_wins=frozenset({"mu"}))}, "raw")
    (hazard,) = report.undeclared
    assert hazard.kind == "raw" and 2 in hazard.sample


def test_slot_local_policy_covers_raw_and_ww():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "ac", log)
    arr[np.array([1])] = 1
    _ = arr[np.array([1])]
    arr[np.array([1])] = 2
    log.close_segment("k")
    report = evaluate(log, {"k": ConflictPolicy(slot_local=frozenset({"ac"}))}, "slot")
    assert report.ok() and len(report.declared) == 2


def test_disjoint_reads_and_writes_are_clean():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "a", log)
    arr[np.array([0, 1])] = 1
    _ = arr[np.array([4, 5])]
    arr[np.array([2, 3])] = 2
    log.close_segment("k")
    assert evaluate(log, {}, "clean").ok()


def test_wave_barrier_clears_the_written_set():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "mu", log)
    arr[np.array([2])] = 1
    wave_barrier(arr)
    arr[np.array([2])] = 2  # a later wave may overwrite an earlier wave
    _ = arr[np.array([2])]  # ... but re-reading its own write is still RAW
    log.close_segment("k")
    report = evaluate(log, {}, "waves")
    assert [h.kind for h in report.undeclared] == ["raw"]


def test_fill_then_write_is_ww_without_a_barrier():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "a", log)
    arr.fill(0)
    arr[np.array([3])] = 1
    log.close_segment("k")
    assert [h.kind for h in evaluate(log, {}, "fill").undeclared] == ["ww"]


def test_trailing_accesses_fold_into_serial_host_segment():
    log = AccessLog()
    arr = shadow_wrap(np.zeros(8, dtype=np.int64), "a", log)
    arr[np.array([1])] = 1
    arr[np.array([1])] = 2  # would be WW inside a kernel; host code is serial
    report = evaluate(log, {}, "host")
    assert report.kernels_seen == (HOST_SEGMENT,)
    assert report.ok() and len(report.declared) == 1


def test_unknown_kernel_gets_the_empty_policy():
    log = _ww_fixture_kernel(AccessLog())
    report = evaluate(log, KERNEL_POLICIES, label="unknown")
    assert not report.ok()


# --------------------------------------------------------------------------
# device integration
# --------------------------------------------------------------------------
def test_device_arrays_record_under_shadow_mode():
    log = AccessLog()
    gpu = VirtualGPU(DeviceSpec().scaled(), shadow=log)
    arr = gpu.shadow_wrap(np.zeros(8, dtype=np.int64), "buf")
    arr[np.array([1, 2])] = 5
    _ = arr[3]
    gpu.charge_kernel("k", SparseWork(1, 1))
    (segment,) = log.segments
    assert segment.kernel == "k" and segment.writes == 1 and segment.reads == 1


def test_charge_kernel_is_a_segment_boundary_and_barrier():
    log = AccessLog()
    gpu = VirtualGPU(DeviceSpec().scaled(), shadow=log)
    arr = gpu.shadow_wrap(np.zeros(8, dtype=np.int64), "buf")
    arr[np.array([2])] = 1
    gpu.charge_kernel("first", SparseWork(1, 1))
    arr[np.array([2])] = 2  # same location, next launch: not a WW
    gpu.charge_kernel("second", SparseWork(1, 1))
    report = evaluate(log, {}, "launches")
    assert report.kernels_seen == ("first", "second")
    assert report.ok()


def test_shadow_wrap_is_identity_without_shadow_mode():
    gpu = VirtualGPU(DeviceSpec().scaled())
    base = np.zeros(4, dtype=np.int64)
    assert gpu.shadow_wrap(base, "x") is base
    gpu.shadow_sync()  # no-op


def test_shadow_mode_does_not_change_results_or_counters():
    graph = uniform_random_bipartite(120, 110, avg_degree=4, seed=11)
    solvers = {
        "g-pr": lambda gpu: gpr_matching(graph, config=GPRConfig(), device=gpu),
        # G-HKDW walks its augment DFS over memoryviews, but over the
        # recording arrays themselves when shadow-wrapped.
        "g-hkdw": lambda gpu: ghkdw_matching(graph, device=gpu),
    }
    logs = {label: AccessLog() for label in solvers}
    for label, solve in solvers.items():
        plain = solve(VirtualGPU(DeviceSpec().scaled()))
        shadow = solve(VirtualGPU(DeviceSpec().scaled(), shadow=logs[label]))
        assert np.array_equal(plain.matching.row_match, shadow.matching.row_match), label
        assert np.array_equal(plain.matching.col_match, shadow.matching.col_match), label
        assert plain.counters == shadow.counters, label
        assert plain.modeled_time == shadow.modeled_time, label
        # Unwrapped at the boundary.
        assert type(shadow.matching.row_match) is np.ndarray, label
        assert type(shadow.matching.col_match) is np.ndarray, label
    augment = [
        s for s in logs["g-hkdw"].segments if s.kernel in ("ghkdw-augment", "ghkdw-dw-augment")
    ]
    assert sum(s.reads for s in augment) > 0
    assert sum(s.writes for s in augment) > 0


# --------------------------------------------------------------------------
# the shipped kernels
# --------------------------------------------------------------------------
def test_sanitized_run_reports_expected_gpr_kernels():
    graph = uniform_random_bipartite(120, 110, avg_degree=4, seed=3)
    report = sanitized_run(
        lambda g, gpu: gpr_matching(g, config=GPRConfig(), device=gpu), graph, label="g-pr"
    )
    assert report.ok(), report.render()
    assert "g-pr-pushkrnl" in report.kernels_seen
    assert "fixmatching" in report.kernels_seen
    # The paper's declared push race shows up and is classified as declared.
    assert any(h.array == "mu_row" and h.kind == "ww" for h in report.declared)


def test_sanitized_ghkdw_is_clean_above_the_sweep_crossover():
    # The sweep's own families stay below the restricted round's crossover,
    # so the sweeps by level are only reached on a larger instance.
    graph = generate_instance("amazon0505", profile="medium", seed=20130421)
    start = cheap_matching(graph).matching
    _, _, entries = frontier.alternating_level_bfs(
        graph.col_ptr, graph.col_ind, start.row_match, start.col_match
    )
    assert entries >= frontier.SWEEP_ENTRIES
    report = sanitized_run(
        lambda g, gpu: ghkdw_matching(g, device=gpu), graph, label="g-hkdw/amazon0505"
    )
    assert report.ok(), report.render()
    assert {"ghkdw-augment", "ghkdw-dw-augment"} <= set(report.kernels_seen)


@pytest.mark.slow
def test_full_sanitized_sweep_two_families():
    reports = sanitized_sweep()
    assert len(reports) >= 10  # >= 5 algorithms x 2 generator families
    failures = [r.render() for r in reports if not r.ok()]
    assert not failures, "\n".join(failures)
    kernels = {k for r in reports for k in r.kernels_seen if k != HOST_SEGMENT}
    # Every shipped lockstep kernel family is exercised by the sweep.
    for name in (
        "g-pr-krnl",
        "g-pr-pushkrnl",
        "g-pr-initkrnl",
        "g-pr-shrkrnl",
        "fixmatching",
        "init-relabel",
        "g-gr-krnl",
        "ghkdw-bfs",
        "ghkdw-augment",
        "auction_bid",
        "auction_assign",
    ):
        assert name in kernels, name
    assert kernels <= set(KERNEL_POLICIES), kernels - set(KERNEL_POLICIES)


@pytest.mark.parametrize("width", [0, 10**9], ids=["all-wide", "all-narrow"])
def test_sanitized_sweep_is_clean_on_both_launch_paths(width, monkeypatch):
    # The default sweep graphs make almost only narrow launches, so force
    # every G-GR level, push wave, list repair and BFS level onto one path.
    monkeypatch.setattr(frontier, "NARROW_WIDTH", width)
    reports = sanitized_sweep()
    failures = [r.render() for r in reports if not r.ok()]
    assert not failures, "\n".join(failures)
    kernels_seen = {k for r in reports for k in r.kernels_seen if k != HOST_SEGMENT}
    assert kernels_seen <= set(KERNEL_POLICIES), kernels_seen - set(KERNEL_POLICIES)
    # The scalar loops walk the recording arrays, so their accesses are logged.
    log = AccessLog()
    graph = uniform_random_bipartite(120, 110, avg_degree=4, seed=3)
    gpr_matching(graph, config=GPRConfig(variant="noshrink"), device=VirtualGPU(shadow=log))
    ghkdw_matching(graph, device=VirtualGPU(shadow=log))
    for kernel in ("g-gr-krnl", "g-pr-initkrnl", "g-pr-pushkrnl", "ghkdw-bfs"):
        segments = [s for s in log.segments if s.kernel == kernel]
        assert sum(s.reads for s in segments) > 0, kernel
        assert sum(s.writes for s in segments) > 0, kernel
