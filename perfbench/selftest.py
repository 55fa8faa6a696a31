"""Self-tests of the benchmark itself, in a fast mode.

    python3 perfbench/selftest.py

Runs each workload small — the first four Table-I analogs for one pass, a
one-second serve-mix stream — and checks that:

* every metric ``BENCHMARK.json`` declares is printed with its unit, every
  end-to-end metric by every workload and every per-layer metric by at least
  one traced workload;
* a tampered golden entry is reported as a failed operation;
* no timer wrapper is left on a module once a traced run ends;
* without the package's ``src/`` tree the benchmark exits non-zero and
  prints no result.

Exits 0 when all hold, 1 otherwise.  Takes about a minute.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from common import HERE, ROOT, load_spec, use_source_tree

FAST_INSTANCES = 4
FAST_SECONDS = 1.0


def check_metrics(name, outcome, declared, trace, problems) -> set:
    """The printed line carries every declared metric with its unit; returns those measured."""
    from run import result_line

    line = result_line(outcome, declared, fill_missing=trace)
    units = {entry["name"]: entry["unit"] for entry in declared}
    if set(line["metrics"]) != set(units):
        problems.append(f"{name}: printed metrics differ from BENCHMARK.json")
    for metric, value in line["metrics"].items():
        if value.get("unit") != units.get(metric) or not isinstance(value.get("value"), (int, float)):
            problems.append(f"{name}: {metric} printed as {value}")
    if not outcome["correct"] or outcome["failed"]:
        problems.append(f"{name}: {outcome['failed']} failed operations on the unmodified tree")
    return set(outcome["metrics"]) & set(units)


def main() -> int:
    use_source_tree()
    import serve_mix
    import table1
    from tracing import leftover_wrappers

    import repro.multicore.pdbfs as pdbfs
    import repro.seq.hopcroft_karp as hopcroft_karp
    import repro.seq.push_relabel as push_relabel
    from repro.gpusim.device import VirtualGPU

    spec = load_spec()
    problems: list[str] = []
    per_layer_seen: set = set()

    runs = {
        "table1-gpu": lambda **kw: table1.run("table1-gpu", instances=FAST_INSTANCES, **kw),
        "table1-cpu": lambda **kw: table1.run("table1-cpu", instances=FAST_INSTANCES, **kw),
        "serve-mix": serve_mix.run,
    }
    for name, runner in runs.items():
        for trace in (False, True):
            outcome = runner(seed=1, seconds=FAST_SECONDS, trace=trace)
            declared = spec["per_layer"] if trace else spec["end_to_end"]
            measured = check_metrics(f"{name} trace={int(trace)}", outcome, declared, trace, problems)
            if trace:
                per_layer_seen |= measured
            elif measured != {entry["name"] for entry in declared}:
                problems.append(f"{name}: end-to-end metrics not measured: "
                                f"{sorted({e['name'] for e in declared} - measured)}")
            left = leftover_wrappers([hopcroft_karp, push_relabel, pdbfs, VirtualGPU])
            if left:
                problems.append(f"{name}: wrappers left installed: {left}")

    unmeasured = {entry["name"] for entry in spec["per_layer"]} - per_layer_seen
    if unmeasured:
        problems.append(f"per-layer metrics no workload measures: {sorted(unmeasured)}")

    # The smallest possible change to one entry: the last bit of its modelled
    # seconds.  The solvers still agree on every cardinality, so only the
    # per-solve bit-identity check can catch it.
    tampered = copy.deepcopy(table1.load_golden())
    entry = tampered[table1.instance_names(1)[0]]["g-pr"]
    entry["modeled_s"] = math.nextafter(entry["modeled_s"], math.inf)
    outcome = table1.run("table1-gpu", seed=1, seconds=0.0, trace=False,
                         instances=FAST_INSTANCES, golden=tampered)
    if outcome["correct"] or outcome["failed"] != 1:
        problems.append("a tampered golden entry was not reported as one failed operation")

    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=ROOT) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, Path(bare) / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "table1-gpu",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
        printed_result = any(
            line.startswith("{") and "correct" in json.loads(line)
            for line in done.stdout.splitlines()
        )
        if done.returncode == 0 or printed_result:
            problems.append("a checkout without src/ did not fail cleanly")

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
