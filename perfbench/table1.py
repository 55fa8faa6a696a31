"""``table1-gpu`` and ``table1-cpu``: the paper's Table-I suite, one solve at a time.

Both workloads solve the 28 Table-I analogs at the ``medium`` profile, each
solve starting from the common cheap matching, as in the paper's protocol.
``table1-gpu`` runs the paper's own algorithms on the scaled reference
device; ``table1-cpu`` runs the five CPU baselines, which launch no
virtual-GPU kernel.  ``--seed`` shuffles the order of the solves in every
pass; the graphs themselves are always the analogs at :data:`SUITE_SEED`, so
every solve has one golden output (``golden.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import time

from common import HERE, SUITE_SEED, SpeedProbe, gmean, latency_metrics, median, peak_rss_mb
from tracing import CallTimer, installed, timing_gpu_class

PROFILE = "medium"
GOLDEN_PATH = HERE / "golden.json"
#: Set-up repeats per run; ``setup_s`` is their median.
SETUPS = 5

#: Registry name -> metric stem, per workload.
GPU_SOLVERS = {"g-pr": "gpr", "g-pr-first": "gpr_first", "g-hkdw": "ghkdw"}
CPU_SOLVERS = {"pr": "pr", "hk": "hk", "hkdw": "hkdw", "pfp": "pfp", "p-dbfs": "pdbfs"}
WORKLOADS = {"table1-gpu": GPU_SOLVERS, "table1-cpu": CPU_SOLVERS}


# ---------------------------------------------------------------------- inputs
def instance_names(limit: int | None = None) -> list[str]:
    from repro.generators.suite import instance_names as names

    return names()[:limit]


def build_plans(solvers, device_factory=None) -> dict:
    """One plan per solver; GPU plans are pinned to the scaled reference device."""
    from repro.bench.harness import reference_device
    from repro.core.api import SPECS, resolve_algorithm

    return {
        algo: resolve_algorithm(algo, device_factory=device_factory or reference_device)
        if SPECS[algo].accepts_device
        else resolve_algorithm(algo)
        for algo in solvers
    }


def setup(names, plans) -> tuple[dict, dict]:
    """Generate the graphs and cheap matchings, then warm every plan up once.

    Returns ``(suite, seconds)``: ``suite`` maps instance name to
    ``(graph, initial matching)``; ``seconds`` splits the set-up time.
    """
    from repro.generators.suite import generate_instance
    from repro.seq.greedy import cheap_matching

    start = time.perf_counter()
    graphs = {name: generate_instance(name, profile=PROFILE, seed=SUITE_SEED) for name in names}
    generated = time.perf_counter()
    suite = {name: (graph, cheap_matching(graph).matching) for name, graph in graphs.items()}
    cheap = time.perf_counter()
    graph, initial = suite[names[0]]
    for plan in plans.values():
        plan.run(graph, initial.copy())
    done = time.perf_counter()
    return suite, {
        "setup_s": done - start,
        "generate_s": generated - start,
        "cheap_s": cheap - generated,
    }


# ---------------------------------------------------------------------- golden
def fingerprint(result) -> dict:
    """Everything a solve must reproduce bit for bit."""
    import numpy as np

    from repro.bench.harness import modeled_seconds_for

    row_match = np.ascontiguousarray(result.matching.row_match, dtype=np.int64)
    return {
        "cardinality": int(result.cardinality),
        "matching_sha1": hashlib.sha1(row_match.tobytes()).hexdigest(),
        "modeled_s": modeled_seconds_for(result),
        # A JSON round trip gives the form the golden file stores.
        "counters": json.loads(json.dumps(result.counters)),
    }


def load_golden(path=GOLDEN_PATH) -> dict:
    doc = json.loads(path.read_text())
    if doc["profile"] != PROFILE or doc["seed"] != SUITE_SEED:
        raise ValueError(f"{path} was taken at another profile or seed")
    return doc["entries"]


def disagreements(golden: dict) -> list[str]:
    """Instances on which the golden solvers do not all find the same cardinality."""
    return sorted(
        name for name, runs in golden.items()
        if len({entry["cardinality"] for entry in runs.values()}) != 1
    )


# ---------------------------------------------------------------------- passes
class Passes:
    """Timed passes over every (instance, solver) pair, checked against the golden."""

    def __init__(self, suite, solvers, golden, rng: random.Random, probe: SpeedProbe) -> None:
        self.suite = suite
        self.golden = golden
        self.rng = rng
        self.probe = probe
        self.jobs = [(name, algo) for name in suite for algo in solvers]
        self.speeds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def one_pass(self, plans, walls: dict, observe=None) -> None:
        """Solve every pair once, in a seeded order, appending to ``walls``.

        The wall of a solve is timed around ``ExecutionPlan.run`` alone and
        stored scaled by the host speed the probe saw right before and right
        after it; ``observe(instance, solver, result, wall)`` gets the
        unscaled wall and runs after each solve, outside the timed region.
        """
        order = list(self.jobs)
        self.rng.shuffle(order)
        scales = []
        before = self.probe.sample()
        for name, algo in order:
            graph, initial = self.suite[name]
            warm = initial.copy()
            began = time.perf_counter()
            result = plans[algo].run(graph, warm)
            wall = time.perf_counter() - began
            after = self.probe.sample()
            scales.append(self.probe.scale(before, after))
            before = after
            self.check(name, algo, result)
            walls.setdefault((name, algo), []).append(wall * scales[-1])
            if observe is not None:
                observe(name, algo, result, wall)
        self.speeds.append(median(scales))

    def check(self, name: str, algo: str, result) -> None:
        self.attempted += 1
        if fingerprint(result) != self.golden.get(name, {}).get(algo):
            self.failed += 1
            self.mismatches.append(f"{name}/{algo}")


def per_solve(walls: dict) -> dict:
    """Geometric mean of each (instance, solver) pair's scaled walls over the passes.

    The scaling has taken out the host's speed, so no pass needs to be
    dropped; unlike the fastest pass, the mean does not drift with the
    number of passes that fit in a run.
    """
    return {job: gmean(values) for job, values in walls.items()}


def solver_totals(walls: dict, solvers: dict) -> dict:
    """``<stem>_s``: one pass of each solver over the instances (sum of per-pair means)."""
    best = per_solve(walls)
    return {
        f"{stem}_s": math.fsum(v for (_, algo), v in best.items() if algo == registry)
        for registry, stem in solvers.items()
    }


# --------------------------------------------------------------------- tracing
class LayerSplit:
    """Per-pass layer accounts of traced solves (see ``README.md``)."""

    #: Charge intervals -> layer metric.
    KERNEL_LAYERS = {
        "g-pr-krnl": "core.kernels.push_s",
        "g-pr-pushkrnl": "core.kernels.push_s",
        "g-pr-initkrnl": "core.kernels.worklist_s",
        "g-pr-shrkrnl": "core.kernels.worklist_s",
        "init-relabel": "core.relabel.s",
        "g-gr-krnl": "core.relabel.s",
        "ghkdw-bfs": "core.ghkdw.bfs_s",
        "ghkdw-augment": "core.ghkdw.augment_s",
        "ghkdw-dw-augment": "core.ghkdw.augment_s",
        "ghkdw-correction": "core.ghkdw.augment_s",
    }
    #: CPU solver -> its self time: solve wall minus the frontier primitives'.
    SELF_TIME = {
        "hk": "seq.hopcroft_karp.self_s",
        "hkdw": "seq.hopcroft_karp.self_s",
        "pr": "seq.push_relabel.self_s",
        "pfp": "seq.pothen_fan.self_s",
        "p-dbfs": "multicore.pdbfs.self_s",
    }

    def __init__(self, solvers: dict) -> None:
        import repro.multicore.pdbfs as pdbfs
        import repro.seq.hopcroft_karp as hopcroft_karp
        import repro.seq.push_relabel as push_relabel
        from repro.bench.harness import reference_device
        from repro.gpusim.device import VirtualGPU

        self.frontier = {
            "alternating_level_bfs": (hopcroft_karp, CallTimer()),
            "distance_label_bfs": (push_relabel, CallTimer()),
            "claiming_bfs": (pdbfs, CallTimer()),
        }
        # On a CPU-only workload every VirtualGPU charge is counted, so "no
        # gpusim time" is measured rather than assumed.
        self.any_charge = CallTimer()
        self.patches = [(owner, name, timer) for name, (owner, timer) in self.frontier.items()]
        if not set(solvers) & set(GPU_SOLVERS):
            self.patches.append((VirtualGPU, "charge_kernel", self.any_charge))
        spec = reference_device().spec
        timing_gpu = timing_gpu_class()
        self.devices: list = []

        def device_factory():
            self.devices.append(timing_gpu(spec))
            return self.devices[-1]

        self.device_factory = device_factory
        self.passes: list[dict] = []
        self._marks: dict = {}
        self._charges = (0, 0.0)

    def begin_pass(self) -> None:
        self.passes.append({})
        self.before()

    def _add(self, key: str, value: float) -> None:
        # Summed with fsum at the end: exact, so the order of solves (which
        # the seed shuffles) cannot change a float total's last digit.
        self.passes[-1].setdefault(key, []).append(value)

    def before(self) -> None:
        self._marks = {name: timer.snapshot() for name, (_, timer) in self.frontier.items()}
        self._charges = self.any_charge.snapshot()

    def observe(self, name, algo, result, wall) -> None:
        from repro.bench.harness import modeled_seconds_for

        frontier_s = 0.0
        for prim, (_, timer) in self.frontier.items():
            calls, seconds = timer.snapshot()
            calls0, seconds0 = self._marks[prim]
            self._add(f"graph.frontier.{prim}_s", seconds - seconds0)
            self._add(f"graph.frontier.{prim}_calls", calls - calls0)
            frontier_s += seconds - seconds0
        counters = result.counters
        if algo in GPU_SOLVERS:
            gpu = self.devices.pop()
            stem = GPU_SOLVERS[algo]
            # Intervals of kernels outside the table (fixmatching) stay host time.
            kernel_s = 0.0
            self._add(f"gpusim.charge_s.{stem}", gpu.charge_seconds)
            self._add("gpusim.charge_total_s", gpu.charge_seconds)
            self._add("gpusim.launches", gpu.ledger.n_launches)
            self._add("gpusim.kernel_work", counters["kernel_total_work"])
            self._add("gpusim.modeled_s", result.modeled_time)
            for kernel, seconds in gpu.intervals.items():
                if kernel in self.KERNEL_LAYERS:
                    self._add(self.KERNEL_LAYERS[kernel], seconds)
                    kernel_s += seconds
            self._add("core.relabel.levels", sum(k.name == "g-gr-krnl" for k in gpu.ledger.launches))
            if algo == "g-hkdw":
                self._add("core.ghkdw.phases", counters["phases"])
            else:
                self._add("core.gpr.host_s", wall - kernel_s - gpu.charge_seconds)
                self._add("core.gpr.loops", counters["loops"])
                self._add("core.gpr.global_relabels", counters["global_relabels"])
        else:
            calls, seconds = self.any_charge.snapshot()
            self._add("gpusim.launches", calls - self._charges[0])
            self._add("gpusim.charge_total_s", seconds - self._charges[1])
            self._add(self.SELF_TIME[algo], wall - frontier_s)
            self._add("seq.edges_scanned", counters.get("edges_scanned", 0))
            self._add("seq.modeled_s", modeled_seconds_for(result))
        self.before()

    def metrics(self) -> dict:
        """Least-disturbed traced pass of each account (exact counts are equal in every pass)."""
        totals = [{key: math.fsum(values) for key, values in account.items()}
                  for account in self.passes]
        keys = {key for account in totals for key in account}
        out = {key: min(account.get(key, 0.0) for account in totals) for key in keys}
        launches = out.get("gpusim.launches", 0.0)
        charge_total = out.pop("gpusim.charge_total_s", 0.0)
        out["gpusim.charge_us"] = 1e6 * charge_total / launches if launches else 0.0
        return out


# --------------------------------------------------------------------- workload
def run(workload: str, seed: int, seconds: float, trace: bool, *,
        instances: int | None = None, golden: dict | None = None) -> dict:
    """One benchmark run; returns the result fields ``run.py`` prints.

    ``instances`` limits the suite to its first N analogs (the self-test's
    fast mode); ``golden`` replaces the committed golden record.
    """
    solvers = WORKLOADS[workload]
    names = instance_names(instances)
    golden = load_golden() if golden is None else golden
    plans = build_plans(solvers)

    probe = SpeedProbe()
    setups = []
    for _ in range(SETUPS):
        before = probe.sample()
        suite, seconds_split = setup(names, plans)
        scale = probe.scale(before, probe.sample())
        setups.append({key: value * scale for key, value in seconds_split.items()})

    passes = Passes(suite, solvers, golden, random.Random(seed), probe)
    failed_golden = [name for name in disagreements(golden) if name in suite]
    details = {
        "profile": PROFILE,
        "suite_seed": SUITE_SEED,
        "instances": len(names),
        "solvers": list(solvers),
        "setups": SETUPS,
        "golden_disagreements": failed_golden,
    }

    untraced: dict = {}
    start = time.perf_counter()
    if not trace:
        while not untraced or time.perf_counter() - start < seconds:
            passes.one_pass(plans, untraced)
        metrics = {
            "setup_s": median(s["setup_s"] for s in setups),
            "peak_rss_mb": peak_rss_mb(resource.RUSAGE_SELF),
            **latency_metrics(list(per_solve(untraced).values())),
        }
    else:
        # Untraced and traced passes alternate, so drift during the run
        # cannot masquerade as tracing overhead.
        split = LayerSplit(solvers)
        traced_plans = build_plans(solvers, device_factory=split.device_factory)
        traced: dict = {}
        while not traced or time.perf_counter() - start < seconds:
            passes.one_pass(plans, untraced)
            with installed(split.patches):
                split.begin_pass()
                passes.one_pass(traced_plans, traced, observe=split.observe)
        untraced_total = math.fsum(per_solve(untraced).values())
        traced_total = math.fsum(per_solve(traced).values())
        metrics = {
            **solver_totals(untraced, solvers),
            **split.metrics(),
            "generators.generate_s": median(s["generate_s"] for s in setups),
            "generators.generate_calls": len(names) * SETUPS,
            "seq.greedy.cheap_s": median(s["cheap_s"] for s in setups),
            "trace.overhead_share": (traced_total - untraced_total) / untraced_total,
        }
    passes_run = len(next(iter(untraced.values())))
    details["passes"] = passes_run
    details["pass_walls"] = [math.fsum(v[i] for v in untraced.values()) for i in range(passes_run)]
    details["host_speed"] = passes.speeds

    if passes.mismatches:
        details["mismatches"] = sorted(set(passes.mismatches))[:20]
    return {
        "correct": passes.failed == 0 and not failed_golden,
        "attempted": passes.attempted,
        "failed": passes.failed + len(failed_golden),
        "metrics": metrics,
        "details": details,
    }
