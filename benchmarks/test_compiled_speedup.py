"""Wall-clock speedup of the compiled (numba) tier over the NumPy tier.

Requires the ``[compiled]`` extra: every test here is skipped on a
numpy-only install (the dispatch-parity suite in
``tests/test_compiled_dispatch.py`` still proves the twins bit-identical
there, running them as plain Python).  With numba present these benchmarks
guard the compiled tier's reason to exist — the asserted floors back the
``compiled-smoke`` CI job:

* ``alternating_level_bfs`` (a frontier primitive): the JIT scalar walk
  beats the vectorized NumPy expansion by at least 3x on the suite
  instance measured;
* ``ghkdw_augment`` (a lockstep kernel): the JIT DFS beats the NumPy
  tier's rounds (:func:`repro.graph.frontier.restricted_round`, which
  prices the searches into dead columns instead of walking them, and
  :func:`repro.graph.frontier.duff_wassel_round`) by at least 3x.  Only the
  augment launches are timed, replayed phase by phase on copies of the same
  state; the whole G-HKDW run is still compared bit for bit.

Both comparisons assert bit-identical outputs before comparing clocks.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.compiled import dispatch
from repro.core import ghkdw
from repro.core.ghkdw import ghkdw_matching
from repro.core.gpr import gpr_matching
from repro.generators.suite import generate_instance
from repro.gpusim.device import DeviceSpec, VirtualGPU
from repro.graph.frontier import alternating_level_bfs
from repro.seq.greedy import cheap_matching

pytestmark = pytest.mark.skipif(
    not dispatch.NUMBA_AVAILABLE, reason="numba not installed (the [compiled] extra)"
)

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20130421"))
BENCH_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "small")

#: Floors deliberately below the typically measured gaps to keep CI unflaky.
_MIN_SPEEDUP = 3.0


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_compiled_alternating_level_bfs_beats_numpy(benchmark):
    graph = generate_instance("soc-LiveJournal1", profile=BENCH_PROFILE, seed=BENCH_SEED)
    matching = cheap_matching(graph).matching
    row_match, col_match = matching.row_match, matching.col_match

    def run():
        return alternating_level_bfs(graph.col_ptr, graph.col_ind, row_match, col_match)

    dispatch.warm_up()
    with dispatch.override(False):
        run()  # NumPy-path caches
        numpy_seconds, base = _best_of(run)
    with dispatch.override(True):
        compiled_seconds, twin = _best_of(run)

    np.testing.assert_array_equal(base[0], twin[0])
    assert base[1:] == twin[1:]

    speedup = numpy_seconds / compiled_seconds
    assert speedup >= _MIN_SPEEDUP, (
        f"compiled alternating_level_bfs only {speedup:.2f}x faster than NumPy "
        f"({compiled_seconds * 1e3:.3f}ms vs {numpy_seconds * 1e3:.3f}ms)"
    )

    benchmark.extra_info["compiled_bfs_speedup_vs_numpy"] = round(speedup, 2)
    benchmark.extra_info["edges_scanned"] = base[2]
    with dispatch.override(True):
        benchmark(run)


def _ghkdw_phase_states(graph):
    """``(mu_row, mu_col, level, entries)`` at the start of every augmenting
    phase of a G-HKDW solve from the cheap matching, ``entries`` being what
    the phase's BFS scanned."""
    matching = cheap_matching(graph).matching
    mu_row, mu_col = matching.row_match.copy(), matching.col_match.copy()
    gpu = VirtualGPU(DeviceSpec())
    states = []
    while True:
        level, has_path, entries = ghkdw._bfs_phase(graph, mu_row, mu_col, gpu)
        if not has_path:
            return states
        states.append((mu_row.copy(), mu_col.copy(), level, entries))
        ghkdw._augment_phase(graph, mu_row, mu_col, level, gpu, True, "ghkdw-augment", entries)
        ghkdw._augment_phase(
            graph, mu_row, mu_col, level, gpu, False, "ghkdw-dw-augment", entries
        )


def test_compiled_ghkdw_augment_beats_python(benchmark):
    """Times the augment launches alone: every phase's two augmentation
    kernels are replayed on copies of that phase's state, so the BFS, the
    cheap matching and the rest of the uncompiled run stay out of the
    ratio."""
    graph = generate_instance("amazon0505", profile=BENCH_PROFILE, seed=BENCH_SEED)

    dispatch.warm_up()
    with dispatch.override(False):
        base = ghkdw_matching(graph)
        states = _ghkdw_phase_states(graph)
    with dispatch.override(True):
        twin = ghkdw_matching(graph)

    np.testing.assert_array_equal(base.matching.row_match, twin.matching.row_match)
    np.testing.assert_array_equal(base.matching.col_match, twin.matching.col_match)
    assert base.counters == twin.counters
    assert base.modeled_time == twin.modeled_time
    assert len(states) == base.counters["phases"] - 1

    def replay():
        gpu = VirtualGPU(DeviceSpec())
        out = []
        for mu_row, mu_col, level, entries in states:
            mu_row, mu_col = mu_row.copy(), mu_col.copy()
            got = ghkdw._augment_phase(
                graph, mu_row, mu_col, level, gpu, True, "ghkdw-augment", entries
            )
            got += ghkdw._augment_phase(
                graph, mu_row, mu_col, level, gpu, False, "ghkdw-dw-augment", entries
            )
            out.append((got, mu_row, mu_col))
        return out, gpu.ledger.kernel_seconds

    with dispatch.override(False):
        replay()
        python_seconds, (python_out, python_modeled) = _best_of(replay)
    with dispatch.override(True):
        compiled_seconds, (compiled_out, compiled_modeled) = _best_of(replay)

    assert python_modeled == compiled_modeled
    pairs = zip(python_out, compiled_out, strict=True)
    for (got_a, row_a, col_a), (got_b, row_b, col_b) in pairs:
        assert got_a == got_b
        np.testing.assert_array_equal(row_a, row_b)
        np.testing.assert_array_equal(col_a, col_b)

    speedup = python_seconds / compiled_seconds
    assert speedup >= _MIN_SPEEDUP, (
        f"compiled G-HKDW augment only {speedup:.2f}x faster than the Python DFS "
        f"({compiled_seconds * 1e3:.2f}ms vs {python_seconds * 1e3:.2f}ms "
        f"over {len(states)} phases)"
    )

    benchmark.extra_info["compiled_ghkdw_speedup_vs_numpy_tier"] = round(speedup, 2)
    benchmark.extra_info["augmentations"] = base.counters["augmentations"]
    with dispatch.override(True):
        benchmark(replay)


def test_compiled_gpr_parity_on_suite_instance(benchmark):
    """The full G-PR run stays bit-identical across tiers on a suite instance."""
    graph = generate_instance("roadNet-PA", profile=BENCH_PROFILE, seed=BENCH_SEED)

    dispatch.warm_up()
    with dispatch.override(False):
        base = gpr_matching(graph)
        numpy_seconds, _ = _best_of(lambda: gpr_matching(graph))
    with dispatch.override(True):
        twin = gpr_matching(graph)
        compiled_seconds, _ = _best_of(lambda: gpr_matching(graph))

    np.testing.assert_array_equal(base.matching.row_match, twin.matching.row_match)
    assert base.counters == twin.counters
    assert base.modeled_time == twin.modeled_time
    assert base.cardinality == twin.cardinality

    benchmark.extra_info["compiled_gpr_speedup_vs_numpy"] = round(
        numpy_seconds / compiled_seconds, 2
    )
    with dispatch.override(True):
        benchmark(lambda: gpr_matching(graph))
