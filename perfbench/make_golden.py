"""Regenerate ``golden.json``: the expected output of every Table-I solve.

    python3 perfbench/make_golden.py

Solves the 28 ``medium`` Table-I analogs at the suite seed with all eight
benchmarked solvers (GPU solvers on the scaled reference device) and records,
per (instance, solver), the cardinality, a SHA-1 of the row matching, the
modelled seconds and the full counter dictionary.  Refuses to write a record
in which the solvers disagree on an instance's cardinality.  Only rerun it
when a change is meant to alter solver outputs.
"""

from __future__ import annotations

import json
import sys

from common import SUITE_SEED, use_source_tree


def main() -> int:
    use_source_tree()
    import table1

    solvers = {**table1.GPU_SOLVERS, **table1.CPU_SOLVERS}
    plans = table1.build_plans(solvers)
    names = table1.instance_names()
    suite, _ = table1.setup(names, plans)
    entries = {
        name: {algo: table1.fingerprint(plan.run(graph, initial.copy()))
               for algo, plan in plans.items()}
        for name, (graph, initial) in suite.items()
    }
    bad = table1.disagreements(entries)
    if bad:
        print(f"solvers disagree on cardinality: {bad}", file=sys.stderr)
        return 1
    doc = {"profile": table1.PROFILE, "seed": SUITE_SEED, "entries": entries}
    table1.GOLDEN_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {table1.GOLDEN_PATH.name}: {len(entries)} instances x {len(plans)} solvers")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
