"""Shared plumbing of the repository benchmark: paths, statistics, result line.

The benchmark lives beside the package it measures and imports it from the
checkout's ``src/`` directory, so it always measures the tree it sits in.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import random
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Seed of the Table-I analogs: the repository harness's default suite seed.
#: The golden record is taken at it.
SUITE_SEED = 20130421


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (e.g. the package is missing)."""


def use_source_tree() -> None:
    """Make ``import repro`` load the checkout's package, or fail loudly."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package at {SRC / 'repro'}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_spec() -> dict:
    """``BENCHMARK.json``: the metric names and units every result must carry."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------------ statistics
def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no values")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values) -> tuple[float, float]:
    """``(value, percentile)`` of the latency tail.

    p99 when there are at least 1000 samples; with fewer, the highest
    percentile that still has at least ten samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"a tail needs at least 11 samples, got {n}")
    index = math.ceil(0.99 * n) - 1 if n >= 1000 else n - 11
    return float(ordered[index]), 100.0 * (index + 1) / n


def gmean(values) -> float:
    values = list(values)
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


def latency_metrics(latencies) -> dict:
    """The four per-operation end-to-end metrics shared by every workload."""
    tail_value, _ = tail(latencies)
    return {
        "ops_per_s": len(latencies) / math.fsum(latencies),
        "p50_s": median(latencies),
        "tail_s": tail_value,
        "gmean_s": gmean(latencies),
    }


def peak_rss_mb(who: int) -> float:
    """Peak resident set of this process (``RUSAGE_SELF``) or its reaped children."""
    import resource

    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# ------------------------------------------------------------------ host speed
class SpeedProbe:
    """Times a fixed slice of interpreter and NumPy work: the host's speed now.

    On a shared host the speed of a core swings by a third or more, within
    seconds as well as over minutes (load on the neighbouring hyperthread,
    turbo frequency), so the best of a few passes is still a draw of the
    host's state.  The ``table1-*`` workloads therefore sample this probe
    right before and right after every solve and every set-up and multiply
    what they timed by :meth:`scale`, which expresses it at the host speed
    on which the probe takes :data:`NOMINAL_S`.  The probe is shaped like
    the solvers' work (a BFS over Python lists, a NumPy gather), runs with
    the garbage collector off and calls nothing in the package, so no
    change to the package can move it.
    """

    #: Probe seconds on a quiet 2-vCPU Intel Xeon (Sapphire Rapids, 2.1 GHz)
    #: under CPython 3.11: the host speed every scaled time is expressed at.
    NOMINAL_S = 0.8e-3

    def __init__(self) -> None:
        import numpy as np

        vertices, degree = 4000, 4
        rng = random.Random(0)
        self._adjacency = [[rng.randrange(vertices) for _ in range(degree)]
                           for _ in range(vertices)]
        generator = np.random.default_rng(0)
        self._values = generator.random(8 * vertices)
        self._index = generator.integers(0, 8 * vertices, 8 * vertices)

    def _work(self) -> None:
        seen = [False] * len(self._adjacency)
        seen[0] = True
        frontier = [0]
        while frontier:
            reached = []
            for u in frontier:
                for v in self._adjacency[u]:
                    if not seen[v]:
                        seen[v] = True
                        reached.append(v)
            frontier = reached
        self._values[self._index].cumsum()

    def sample(self) -> float:
        """Seconds of one probe run.

        An untimed first run brings the probe's data back into the caches,
        so what ran before (a solve that touched more or less memory) does
        not change the timed one.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            self._work()
            start = time.perf_counter()
            self._work()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()

    def scale(self, before: float, after: float) -> float:
        """Factor for a time taken between probe samples ``before`` and ``after``.

        Below 1 when the host ran slower than nominal.
        """
        return self.NOMINAL_S / math.sqrt(before * after)


# ----------------------------------------------------------------- environment
def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=False,
            # A checkout that is not a repository must not report an enclosing one.
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """SHA-1 over ``src/**/*.py``: identifies the measured tree without git."""
    digest = hashlib.sha1()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    """Machine, interpreter, dispatch tier and device of a result."""
    import numpy as np

    from repro.bench.harness import reference_device
    from repro.compiled.dispatch import capability_report

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "source_sha1": _source_digest(),
        "dispatch": capability_report(),
        "device_spec": dataclasses.asdict(reference_device().spec),
    }
