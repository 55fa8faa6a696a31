"""Repository benchmark: one seeded run of one workload.

    python3 perfbench/run.py --workload table1-gpu --seed 1 --seconds 10 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json`` and described in
``perfbench/README.md``.  Prints one JSON line with the run's environment and
details, then, as the last line, the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`` —
the end-to-end metrics with ``--trace 0``, the per-layer split with
``--trace 1``.  Exits non-zero, printing no result, when the run cannot be
made (for instance without the package's ``src/`` tree).
"""

from __future__ import annotations

import argparse
import json
import sys

from common import SetupError, environment, load_spec, use_source_tree


def workload_runner(name: str):
    if name in ("table1-gpu", "table1-cpu"):
        import table1

        return lambda **kw: table1.run(name, **kw)
    if name == "serve-mix":
        import serve_mix

        return serve_mix.run
    raise SetupError(f"unknown workload {name!r}")


def result_line(outcome: dict, declared: list[dict], fill_missing: bool) -> dict:
    """The contract's last line: every declared metric, by name, with its unit.

    Per-layer metrics a workload does not exercise read 0 (``fill_missing``);
    a missing end-to-end metric is a bug and raises.
    """
    metrics = {}
    for entry in declared:
        name = entry["name"]
        if name not in outcome["metrics"] and not fill_missing:
            raise KeyError(f"workload did not measure end-to-end metric {name!r}")
        metrics[name] = {"value": outcome["metrics"].get(name, 0.0), "unit": entry["unit"]}
    return {
        "correct": bool(outcome["correct"]),
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        use_source_tree()
        spec = load_spec()
        runner = workload_runner(args.workload)
    except (SetupError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    outcome = runner(seed=args.seed, seconds=args.seconds, trace=trace)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    line = result_line(outcome, declared, fill_missing=trace)
    measured = {entry["name"] for entry in declared} & set(outcome["metrics"])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "not_measured": sorted({e["name"] for e in declared} - measured),
        "details": outcome.get("details", {}),
        "environment": environment(),
    }))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
