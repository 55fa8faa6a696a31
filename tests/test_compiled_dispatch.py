"""The compiled tier: dispatch mechanics and tier parity.

The parity tests run on every install: without numba the twins execute as
plain Python (the identity ``jit`` fallback keeps them callable), so the
scalar ports are proven bit-identical to the vectorized NumPy paths even in
the numpy-only environment.
"""

from __future__ import annotations

import json
from functools import partial

import numpy as np
import pytest

from repro.compiled import dispatch
from repro.compiled.calibrate import CALIBRATION_SCHEMA, calibrate, default_instances
from repro.core.ghkdw import ghkdw_matching
from repro.core.gpr import GPRConfig, GPRVariant, gpr_matching
from repro.engine import BACKEND_NAMES, Engine, MatchingJob, create_backend
from repro.generators import (
    chung_lu_bipartite,
    grid_graph,
    rmat_bipartite,
    uniform_random_bipartite,
)
from repro.graph.frontier import alternating_level_bfs, distance_label_bfs, expand_frontier
from repro.seq.greedy import cheap_matching

# Four generator families x seeds: distinct degree structure so the twins
# are exercised over uniform, scale-free, power-law and mesh regimes.
FAMILIES = [
    ("uniform", lambda seed: uniform_random_bipartite(90, 110, avg_degree=5.0, seed=seed)),
    ("rmat", lambda seed: rmat_bipartite(6, edge_factor=5.0, seed=seed)),
    ("chung-lu", lambda seed: chung_lu_bipartite(100, 90, avg_degree=5.0, seed=seed)),
    ("grid", lambda seed: grid_graph(8 + seed % 3, 9)),
]
SEEDS = [3, 17]


@pytest.fixture(params=FAMILIES, ids=lambda p: p[0])
def family(request):
    return request.param[1]


@pytest.fixture(params=SEEDS, ids=lambda s: f"seed{s}")
def graph(family, request):
    return family(request.param)


def _both_tiers(fn):
    """Run ``fn`` once per tier and return (numpy_result, twin_result)."""
    with dispatch.override(False):
        base = fn()
    with dispatch.override(True):
        twin = fn()
    return base, twin


# ---------------------------------------------------------------- primitives
def test_expand_frontier_parity(graph):
    frontier = np.flatnonzero(np.arange(graph.n_cols) % 3 == 0)
    base, twin = _both_tiers(
        lambda: expand_frontier(graph.col_ptr, graph.col_ind, frontier)
    )
    np.testing.assert_array_equal(base, twin)
    assert twin.dtype == np.int64


def test_alternating_level_bfs_parity(graph):
    matching = cheap_matching(graph).matching
    base, twin = _both_tiers(
        lambda: alternating_level_bfs(
            graph.col_ptr, graph.col_ind, matching.row_match, matching.col_match
        )
    )
    np.testing.assert_array_equal(base[0], twin[0])
    assert base[1:] == twin[1:]


def test_distance_label_bfs_parity(graph):
    matching = cheap_matching(graph).matching
    infinity = graph.infinity_label
    # Also with column entries their rows do not confirm (what G-PR's
    # lock-free pushes leave): both tiers follow consistent mates only.
    shifted = np.roll(matching.col_match, 1)

    def run(col_match):
        psi_row = np.full(graph.n_rows, infinity, dtype=np.int64)
        psi_col = np.full(graph.n_cols, infinity, dtype=np.int64)
        out = distance_label_bfs(
            graph.row_ptr,
            graph.row_ind,
            matching.row_match,
            col_match,
            psi_row,
            psi_col,
            infinity,
        )
        return out, psi_row, psi_col

    for col_match in (matching.col_match, shifted):
        (base, b_row, b_col), (twin, t_row, t_col) = _both_tiers(partial(run, col_match))
        assert base == twin
        np.testing.assert_array_equal(b_row, t_row)
        np.testing.assert_array_equal(b_col, t_col)


# ----------------------------------------------------------------- full runs
def _assert_results_identical(base, twin):
    np.testing.assert_array_equal(base.matching.row_match, twin.matching.row_match)
    np.testing.assert_array_equal(base.matching.col_match, twin.matching.col_match)
    assert base.counters == twin.counters
    assert base.modeled_time == twin.modeled_time


@pytest.mark.parametrize("variant", list(GPRVariant))
@pytest.mark.parametrize("waves", [1, 2])
def test_gpr_counter_golden_parity(graph, variant, waves):
    config = GPRConfig(variant=variant, waves_in_flight=waves, seed=5)
    base, twin = _both_tiers(lambda: gpr_matching(graph, config=config))
    _assert_results_identical(base, twin)


def test_ghkdw_counter_golden_parity(graph):
    base, twin = _both_tiers(lambda: ghkdw_matching(graph))
    _assert_results_identical(base, twin)


# ----------------------------------------------------------------- dispatch
def test_implementation_for_none_when_disabled():
    with dispatch.override(False):
        assert dispatch.implementation_for("alternating_level_bfs") is None
        assert dispatch.warm_up() == 0
    with dispatch.override(True):
        assert callable(dispatch.implementation_for("alternating_level_bfs"))
        assert dispatch.implementation_for("no-such-function") is None


def test_override_restores_previous_state():
    before = dispatch.enabled()
    with dispatch.override(not before):
        assert dispatch.enabled() is not before
        with dispatch.override(before):
            assert dispatch.enabled() is before
        assert dispatch.enabled() is not before
    assert dispatch.enabled() is before


def test_override_restores_on_error():
    before = dispatch.enabled()
    with pytest.raises(RuntimeError):
        with dispatch.override(not before):
            raise RuntimeError("boom")
    assert dispatch.enabled() is before


def test_registered_names_cover_all_shims():
    assert dispatch.registered() == (
        "alternating_level_bfs",
        "distance_label_bfs",
        "expand_frontier",
        "ghkdw_augment",
        "global_relabel",
        "push_active_wave",
        "push_wave",
    )


def test_warm_up_calls_every_entry():
    called = []
    registry = {
        name: dispatch.Entry(name, lambda: None, lambda name=name: called.append(name))
        for name in dispatch.registered()
    }
    with dispatch.override(True):
        count = dispatch.warm_up(registry)
    assert count == len(registry)
    assert sorted(called) == sorted(registry)


def test_recording_detects_shadow_arrays():
    from repro.analysis.hazards import AccessLog, shadow_wrap

    plain = np.zeros(4, dtype=np.int64)
    assert not dispatch.recording(plain, np.ones(2))
    wrapped = shadow_wrap(np.zeros(4, dtype=np.int64), "x", AccessLog())
    assert dispatch.recording(plain, wrapped)


def test_shadow_arrays_keep_the_numpy_path(graph, monkeypatch):
    """An instrumented run must never reach a twin (it cannot record accesses)."""
    from repro.analysis.hazards import AccessLog
    from repro.gpusim.device import DeviceSpec, VirtualGPU

    def explode(*args, **kwargs):
        raise AssertionError("compiled twin reached under shadow instrumentation")

    registry = {
        name: dispatch.Entry(name, explode, lambda: None) for name in dispatch.registered()
    }
    monkeypatch.setattr(dispatch, "_REGISTRY", registry)
    gpu = VirtualGPU(DeviceSpec(), shadow=AccessLog())
    with dispatch.override(True):
        result = gpr_matching(graph, device=gpu)
    assert result.cardinality > 0


def test_capability_report_schema():
    report = dispatch.capability_report()
    assert report["schema"] == "repro-backends/1"
    assert report["numpy"]["available"] is True
    assert report["numba"]["available"] is dispatch.NUMBA_AVAILABLE
    assert report["functions"] == list(dispatch.registered())
    assert report["compiled_dispatch_enabled"] is dispatch.enabled()


# ------------------------------------------------------------------ backend
def test_backend_registry_includes_compiled(monkeypatch):
    """Every registered backend runs the compiled tier; none is named for it.

    The shims ask :mod:`repro.compiled.dispatch` for a twin inside the job,
    so the tier follows the process that runs the job.  The in-process
    backends share this process's dispatch state; process-pool workers
    import the same module and follow numba availability.
    """
    assert BACKEND_NAMES == ("inline", "thread", "process")
    calls = []

    def counting(entry):
        def impl(*args, **kwargs):
            calls.append(entry.name)
            return entry.impl(*args, **kwargs)

        return impl

    registry = {e.name: dispatch.Entry(e.name, counting(e), e.warm) for e in dispatch.entries()}
    monkeypatch.setattr(dispatch, "_REGISTRY", registry)
    graph = uniform_random_bipartite(90, 110, avg_degree=5.0, seed=3)
    with dispatch.override(True):
        expected = gpr_matching(graph)
        for name in ("inline", "thread"):
            calls.clear()
            with Engine(backend=name) as engine:
                result = engine.run(MatchingJob(graph=graph, algorithm="g-pr"))
            assert calls, f"backend {name!r} never reached a compiled twin"
            _assert_results_identical(expected, result)


def test_compiled_backend_requires_numba():
    """The compiled tier is on exactly when numba is installed.

    No backend name can ask for it: ``create_backend("compiled")`` fails as
    an unknown name, and without numba every shim keeps its NumPy path.
    """
    with dispatch.override(None):
        assert dispatch.enabled() is dispatch.NUMBA_AVAILABLE
        assert dispatch.capability_report()["compiled_dispatch_enabled"] is (
            dispatch.NUMBA_AVAILABLE
        )
        for name in dispatch.registered():
            assert (dispatch.implementation_for(name) is not None) is dispatch.NUMBA_AVAILABLE
    with pytest.raises(ValueError, match="unknown backend 'compiled'"):
        create_backend("compiled")


# -------------------------------------------------------------- calibration
def test_calibrate_schema_and_fits():
    doc = calibrate(profile="tiny", repeats=1)
    assert doc["schema"] == CALIBRATION_SCHEMA
    assert doc["tier"] == ("compiled" if dispatch.enabled() else "numpy")
    assert doc["numba"]["available"] is dispatch.NUMBA_AVAILABLE
    assert len(doc["instances"]) == 4
    assert doc["kernels"], "no kernels measured"
    for name, kernel in doc["kernels"].items():
        assert kernel["family"] in ("device", "frontier")
        assert kernel["points"] >= 1
        assert kernel["modeled_seconds"] > 0.0
        assert kernel["measured_seconds"] > 0.0
        assert kernel["constant"] > 0.0
        assert kernel["rms_log10_residual"] >= 0.0
    # The tracked hot functions all appear in the fit.
    for expected in ("alternating_level_bfs", "distance_label_bfs", "g-pr-krnl", "g-gr-krnl"):
        assert expected in doc["kernels"]
    assert 0 < len(doc["most_divergent"]) <= 5
    assert set(doc["most_divergent"]) <= set(doc["kernels"])
    json.dumps(doc)  # the CLI emits it verbatim


def test_calibrate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        calibrate(profile="tiny", repeats=0)
    with pytest.raises(ValueError):
        default_instances(profile="no-such-profile")


def test_calibrate_accepts_explicit_instances():
    graphs = [uniform_random_bipartite(40, 40, avg_degree=4.0, seed=1, name="only")]
    doc = calibrate(instances=graphs, repeats=1)
    assert doc["instances"] == ["only"]
    assert doc["profile"] is None


def test_cli_perf_calibrate_json(capsys):
    from repro.cli import main

    code = main(["perf", "--calibrate", "--profile", "tiny", "--repeats", "1",
                 "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == CALIBRATION_SCHEMA
    assert doc["kernels"]


def test_cli_perf_calibrate_rejects_compare_and_update(tmp_path, capsys):
    from repro.cli import main

    assert main(["perf", "--calibrate", "--compare", str(tmp_path / "b.json")]) == 2
    assert "--calibrate" in capsys.readouterr().err
    assert main(["perf", "--calibrate", "--update", str(tmp_path / "b.json")]) == 2
    assert main(["perf", "--calibrate", "--shards", "2"]) == 2


def test_cli_perf_reports_backend_capabilities(capsys):
    from repro.cli import main

    code = main(["perf", "--profile", "tiny", "--instances", "amazon0505",
                 "--format", "json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    report = payload["backends"]
    assert report["schema"] == "repro-backends/1"
    assert report["numba"]["available"] is dispatch.NUMBA_AVAILABLE
