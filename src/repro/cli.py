"""Command-line interface.

Examples
--------
Run one algorithm on one suite instance::

    python -m repro.cli run --graph roadNet-PA --algorithm g-pr --profile small

Regenerate Table I (modelled milliseconds) over the whole suite::

    python -m repro.cli table1 --profile small

Regenerate the figures (printed as data series)::

    python -m repro.cli figures --figure 2

Match an external Matrix-Market file::

    python -m repro.cli run --mtx /path/to/matrix.mtx --algorithm g-pr

Execute a batch of jobs from a JSONL manifest (one job per line, e.g.
``{"graph": "roadNet-PA", "algorithm": "g-pr", "profile": "tiny"}``) on a
chosen execution backend::

    python -m repro.cli batch --manifest jobs.jsonl --backend process --workers 4

Replay a streaming update trace (one ``{"op": "insert", "u": 3, "v": 7}``
per line), repairing the matching incrementally and delegating large
batches to an algorithm through the engine::

    python -m repro.cli stream --graph roadNet-PA --trace updates.jsonl \
        --batch-size 32 --algorithm hk --backend thread

Solve a weighted assignment (maximum weight over maximum-cardinality
matchings; ``--objective min`` minimises instead)::

    python -m repro.cli run --graph roadNet-PA --algorithm weighted-sap \
        --weights uniform:1:100 --objective max

Solve a capacitated b-matching (per-vertex capacities via a capacity
spec), or replay a packaged dispatch scenario end to end with its SLO::

    python -m repro.cli run --graph roadNet-PA --algorithm b-aug \
        --capacities rows:3
    python -m repro.cli stream --scenario ride-hailing --seed 7

See ``docs/cli.md`` for the full flag reference and ``docs/formats.md``
for the manifest / trace / Matrix-Market formats.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.bench import perfbaseline
from repro.bench.harness import SuiteRunner
from repro.bench.reports import build_figure1, build_figure2, build_figure3, build_figure4, build_table1, render_table
from repro.capacity import assignment_demand
from repro.core.api import SPECS, resolve_algorithm
from repro.dynamic import IncrementalMatcher, read_update_trace
from repro.engine import BACKEND_NAMES, Engine, FaultSchedule, JobError
from repro.generators.scenarios import generate_scenario, scenario_names
from repro.generators.suite import instance_names
from repro.generators.updates import random_update_trace
from repro.service import DiskCache, MatchingJob, MatchingService

__all__ = ["main"]


def _request_fields(args: argparse.Namespace, names: tuple[str, ...]) -> dict:
    """The job-request fields set by flags; ``--mtx`` overrides ``--graph``."""
    fields = {"mtx": args.mtx} if args.mtx else {"graph": args.graph}
    fields.update({name: getattr(args, name) for name in names
                   if getattr(args, name) is not None})
    return fields


def _cmd_run(args: argparse.Namespace) -> int:
    # Imported here, as in every command using it: `list`/`lint` skip its cost.
    from repro.server.protocol import GraphCache, parse_request

    fields = _request_fields(args, (
        "profile", "seed", "algorithm", "weights", "objective", "capacities",
        "shards", "partition",
    ))
    # Only input handling lives in the guard: a solver bug must surface as a
    # traceback, not masquerade as the exit-2 bad-input contract.
    try:
        request = parse_request(fields)
        plan = request.plan
        if args.mtx and args.shards is not None:
            # Out-of-core path: the file streams straight into disk-backed
            # shards, so peak memory follows the largest shard, not the file.
            from repro.sharded import ingest_matrix_market_sharded

            graph = ingest_matrix_market_sharded(
                args.mtx, args.shards, plan.partition_method
            )
        else:
            graph = GraphCache().resolve(request.source)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = plan.run(graph)
    payload = {
        "graph": graph.name,
        "n_rows": graph.n_rows,
        "n_cols": graph.n_cols,
        "n_edges": graph.n_edges,
        "algorithm": result.algorithm,
        "cardinality": result.cardinality,
        "modeled_seconds": result.modeled_time,
        "wall_seconds": result.wall_time,
    }
    if "total_weight" in result.counters:
        payload["total_weight"] = result.counters["total_weight"]
        payload["objective"] = result.counters["objective"]
    if request.source.capacities is not None:
        demand = assignment_demand(graph)
        payload["demand"] = demand
        payload["assignment_rate"] = round(
            result.cardinality / demand if demand else 1.0, 4
        )
    if args.shards is not None:
        payload["shards"] = result.counters["shards"]
        payload["partition"] = plan.partition_method
        payload["shard_counters"] = {
            key: result.counters[key]
            for key in (
                "shard_jobs",
                "shard_edges_max",
                "boundary_rows",
                "merge_conflicts",
                "reconcile_phases",
                "reconcile_augmentations",
            )
        }
    print(json.dumps(payload, indent=2))
    return 0


def _load_manifest(path: str, defaults: dict) -> list[tuple]:
    """Parse a JSONL job manifest into ``(JobRequest, MatchingJob)`` pairs.

    Each line is one job request for :func:`repro.server.protocol.
    parse_request`, with ``defaults`` (the CLI flags) filling absent fields;
    the server-only fields are rejected by name.  Every line is validated,
    with errors naming ``path:line``, before any graph is built, so a bad
    last line costs milliseconds, not the generation work of the lines
    above it.  One graph cache that never evicts then builds each graph,
    and each structure under several weight specs, once.
    """
    from repro.server.protocol import (
        SERVER_ONLY_FIELDS, GraphCache, ProtocolError, build_job, parse_request,
    )

    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    requests = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            entry = json.loads(line)
            for name in SERVER_ONLY_FIELDS:
                if isinstance(entry, dict) and name in entry:
                    raise ProtocolError(f"{name!r} only applies to server requests")
            requests.append((lineno, parse_request(entry, defaults, f"job-{lineno}")))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from exc
        except ProtocolError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    # A request adds at most two entries: its layered and structural graphs.
    graphs = GraphCache(max_entries=2 * len(requests) or 1)
    pairs = []
    for lineno, request in requests:
        try:
            pairs.append((request, build_job(request, graphs)))
        except (ValueError, OSError) as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from exc
    return pairs


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.server.protocol import result_row, summary_row

    names = ("profile", "seed", "weights", "objective", "capacities", "shards", "partition")
    try:
        pairs = _load_manifest(args.manifest, {name: getattr(args, name) for name in names})
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not pairs:
        print("error: empty manifest", file=sys.stderr)
        return 2
    try:
        cache = None if args.no_cache else DiskCache(args.cache_dir)
    except OSError as exc:
        print(f"error: cannot use cache dir {args.cache_dir!r}: {exc}", file=sys.stderr)
        return 2
    try:
        with MatchingService(workers=args.workers, cache=cache, backend=args.backend) as service:
            # Runtime failures never raise: they come back per job with
            # status="failed", and the manifest loader validated every job.
            report = service.submit_batch([job for _, job in pairs])
            backend = service.engine.backend.name
    except ValueError as exc:  # unknown backend name
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Every row is answered when the batch completes.
    rows = [
        result_row(
            request, status=item.status, result=item.result, error=item.error,
            cached=item.cached, worker=item.worker, seconds=item.seconds,
            server_seconds=report.wall_seconds,
        )
        for (request, _), item in zip(pairs, report.results, strict=True)
    ]
    summary = summary_row(
        rows, wall_seconds=report.wall_seconds, backend=backend, workers=args.workers
    )
    try:
        if args.format == "json":
            print(json.dumps({"results": rows, "summary": summary}, indent=2))
        else:
            for row in rows:
                print(json.dumps(row))
            print(json.dumps(summary))
    except BrokenPipeError:
        # A truncated consumer (`| head`) must not mask the failure exit code.
        _silence_stdout()
    for item in report.failures():
        print(
            f"job {item.job.job_id or item.job.algorithm!r} {item.status}: {item.error}",
            file=sys.stderr,
        )
    return 1 if report.failed else 0


def _chunked(items: list, size: int):
    for start in range(0, len(items), size):
        yield items[start : start + size]


def _cmd_stream(args: argparse.Namespace) -> int:
    scenario = None
    if args.scenario is not None:
        conflicts = [
            flag
            for flag, value in (
                ("--trace", args.trace),
                ("--synthesize", args.synthesize),
                ("--mtx", args.mtx),
                ("--capacities", args.capacities),
            )
            if value is not None
        ]
        if conflicts:
            print(
                "error: --scenario provides the graph, capacities and trace; "
                f"drop {', '.join(conflicts)}",
                file=sys.stderr,
            )
            return 2
        try:
            scenario = generate_scenario(args.scenario, seed=args.seed)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        graph = scenario.graph
        updates = list(scenario.updates)
        algorithm = args.algorithm or scenario.algorithm
    else:
        if (args.trace is None) == (args.synthesize is None):
            print("error: pass exactly one of --trace or --synthesize", file=sys.stderr)
            return 2
        from repro.server.protocol import GraphCache, parse_request

        fields = _request_fields(args, ("profile", "seed", "capacities"))
        # Without a scenario the graph carries no weights, so the repair
        # backend only has to fit the capacities.
        fields["algorithm"] = args.algorithm or (
            "b-aug" if args.capacities is not None else "hk"
        )
        try:
            request = parse_request(fields)
            graph = GraphCache().resolve(request.source)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        algorithm = request.algorithm
        try:
            if args.trace is not None:
                source = sys.stdin if args.trace == "-" else args.trace
                updates = list(read_update_trace(source))
            else:
                updates = random_update_trace(
                    graph,
                    args.synthesize,
                    insert_fraction=args.insert_fraction,
                    seed=args.seed,
                )
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2

    slo = args.slo if args.slo is not None else (scenario.slo if scenario else None)

    rows: list[dict] = []

    def emit(row: dict) -> None:
        if args.format == "json":
            rows.append(row)
        else:
            print(json.dumps(row))

    try:
        plan = resolve_algorithm(algorithm)
        with Engine(backend=args.backend or "inline", max_workers=args.workers or None) as engine:
            # Delegated batch repairs run as engine jobs, so --backend moves
            # the recompute onto a thread or process pool.
            def recompute(snapshot, initial):
                job = MatchingJob(graph=snapshot, algorithm=algorithm)
                return engine.run(job, plan=plan, initial_matching=initial)

            matcher = IncrementalMatcher(
                graph,
                plan=plan,
                batch_threshold=args.threshold,
                recompute=recompute,
            )
            initial_row = {
                "type": "initial",
                "graph": graph.name,
                "n_rows": graph.n_rows,
                "n_cols": graph.n_cols,
                "n_edges": graph.n_edges,
                "algorithm": plan.algorithm,
                "cardinality": matcher.cardinality,
            }
            if scenario is not None:
                initial_row["scenario"] = scenario.name
            if slo is not None:
                initial_row["slo"] = slo
            emit(initial_row)
            for index, batch in enumerate(_chunked(updates, max(1, args.batch_size))):
                before_scanned = matcher.counters["edges_scanned"]
                before_delegate = matcher.counters["delegate_edges_scanned"]
                summary = matcher.apply(batch)
                batch_row = {
                    "type": "batch",
                    "index": index,
                    "applied": summary["applied"],
                    "mode": summary["mode"],
                    "cardinality": summary["cardinality"],
                    "edges_scanned": matcher.counters["edges_scanned"] - before_scanned,
                    "delegate_edges_scanned": matcher.counters["delegate_edges_scanned"]
                    - before_delegate,
                }
                if slo is not None:
                    # Per-window service check: the assignment rate over the
                    # demand still in the (un-compacted) overlay.
                    demand = assignment_demand(matcher.graph.snapshot())
                    rate = round(
                        summary["cardinality"] / demand if demand else 1.0, 4
                    )
                    batch_row["assignment_rate"] = rate
                    batch_row["slo_met"] = rate >= slo
                emit(batch_row)
            final = matcher.graph.snapshot()
            demand = assignment_demand(final)
            rate = round(matcher.cardinality / demand if demand else 1.0, 4)
            # No backend field here: the same replay must serialise
            # byte-identically whichever engine backend ran the recomputes.
            summary_row = {
                "type": "summary",
                "updates": len(updates),
                "cardinality": matcher.cardinality,
                "n_rows": final.n_rows,
                "n_cols": final.n_cols,
                "n_edges": final.n_edges,
                "demand": demand,
                "assignment_rate": rate,
                "searches": matcher.counters["searches"],
                "augmentations": matcher.counters["augmentations"],
                "edges_scanned": matcher.counters["edges_scanned"],
                "recomputes": matcher.counters["recomputes"],
                "delegate_edges_scanned": matcher.counters["delegate_edges_scanned"],
            }
            if slo is not None:
                summary_row["slo"] = slo
                summary_row["slo_met"] = rate >= slo
            emit(summary_row)
    except (TypeError, ValueError, IndexError, TimeoutError, JobError) as exc:
        # JobError covers delegated recomputes failing at runtime on the
        # engine backend (failed / cancelled / timed-out jobs).
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.format == "json":
            print(json.dumps({"events": rows}, indent=2))
    except BrokenPipeError:
        _silence_stdout()
    return 0


def _cmd_perf_calibrate(args: argparse.Namespace) -> int:
    from repro.compiled.calibrate import calibrate

    if args.compare or args.update:
        print(
            "error: --calibrate captures cost-model fits, not a perf baseline; "
            "it cannot be combined with --compare or --update",
            file=sys.stderr,
        )
        return 2
    try:
        doc = calibrate(profile=args.profile, seed=args.seed, repeats=args.repeats)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        Path(args.output).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    if args.format == "json":
        try:
            print(json.dumps(doc, indent=2))
        except BrokenPipeError:
            _silence_stdout()
        return 0
    numba = doc["numba"]
    print(
        f"calibration: tier={doc['tier']} profile={doc['profile']} seed={doc['seed']} "
        f"repeats={doc['repeats']} instances={len(doc['instances'])}"
    )
    print(
        "  numba: "
        + (f"available ({numba['version']})" if numba["available"] else "not installed")
    )
    for name, kernel in doc["kernels"].items():
        if kernel["constant"] is None:
            print(f"  {name:<22} {kernel['family']:<9} no usable points")
            continue
        print(
            f"  {name:<22} {kernel['family']:<9} points={kernel['points']} "
            f"constant={kernel['constant']:10.3e}  r2={kernel['r2']:7.3f}  "
            f"rms log10 residual={kernel['rms_log10_residual']:.3f}"
        )
    if doc["most_divergent"]:
        print("most divergent from the fitted centre: " + ", ".join(doc["most_divergent"]))
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.compiled.dispatch import capability_report

    if args.calibrate:
        return _cmd_perf_calibrate(args)
    try:
        baseline = (
            perfbaseline.load_baseline(args.compare) if args.compare else None
        )
        current = perfbaseline.capture(
            profile=args.profile,
            seed=args.seed,
            instances=args.instances or None,
            repeats=args.repeats,
        )
    except (KeyError, ValueError, OSError) as exc:
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    if args.output:
        perfbaseline.save_baseline(args.output, current)

    comparison = None
    if baseline is not None:
        try:
            comparison = perfbaseline.compare(
                current,
                baseline,
                wall_tolerance=args.wall_tolerance,
                modeled_tolerance=args.modeled_tolerance,
            )
        except ValueError as exc:  # disjoint documents: nothing was checked
            print(f"error: {exc}", file=sys.stderr)
            return 2
    # A regressed capture must not replace the baseline it just failed
    # against — that would mask the regression for every subsequent run.
    if args.update:
        if comparison is not None and not comparison.ok:
            print(
                f"not updating {args.update}: the capture regresses against "
                f"{args.compare}", file=sys.stderr,
            )
        else:
            perfbaseline.save_baseline(args.update, current)

    if args.format == "json":
        payload = {"capture": current, "backends": capability_report()}
        if comparison is not None:
            payload["comparison"] = {
                "baseline": args.compare,
                "baseline_profile": baseline["profile"],
                "cross_profile": comparison.cross_profile,
                "checked": comparison.checked,
                "wall_tolerance": comparison.wall_tolerance,
                "modeled_tolerance": comparison.modeled_tolerance,
                "ok": comparison.ok,
                "regressions": [vars(d) for d in comparison.regressions],
                "improvements": [vars(d) for d in comparison.improvements],
            }
        try:
            print(json.dumps(payload, indent=2))
        except BrokenPipeError:
            _silence_stdout()
    else:
        print(f"perf capture: profile={current['profile']} seed={current['seed']} "
              f"repeats={current['repeats']}")
        caps = capability_report()
        numba = caps["numba"]
        print(
            "backends: numpy "
            + caps["numpy"]["version"]
            + (
                f", numba {numba['version']} (compiled tier "
                + ("enabled)" if caps["compiled_dispatch_enabled"] else "disabled)")
                if numba["available"]
                else ", numba not installed (numpy tier)"
            )
        )
        for name, agg in current["aggregate"].items():
            print(
                f"  {name:<8} geomean wall {agg['geomean_wall_seconds'] * 1e3:8.3f} ms   "
                f"geomean modeled {agg['geomean_modeled_seconds'] * 1e3:8.3f} ms   "
                f"total wall {agg['total_wall_seconds'] * 1e3:9.3f} ms"
            )
        if comparison is not None:
            kind = "cross-profile (per-edge)" if comparison.cross_profile else "same-profile"
            print(
                f"compared {comparison.checked} (instance, algorithm) pairs against "
                f"{args.compare} [{kind}; wall tol {comparison.wall_tolerance:.2f}x, "
                f"modeled tol {comparison.modeled_tolerance:.2f}x]"
            )
            for delta in comparison.regressions:
                print(f"  REGRESSION {delta.describe()}")
            if comparison.improvements:
                print(
                    f"  note: {len(comparison.improvements)} pair(s) ran far faster than "
                    "the baseline; consider refreshing it with --update"
                )
            if comparison.ok:
                print("  no perf regressions")
    if comparison is not None and not comparison.ok:
        return 1
    return 0


def _cmd_list(args: argparse.Namespace) -> int:
    print("suite instances:")
    for name in instance_names():
        print(f"  {name}")
    print("algorithms:")
    for name in sorted(SPECS):
        print(f"  {name}")
    print("backends:")
    for name in BACKEND_NAMES:
        print(f"  {name}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    # Lazy import: the linter is stdlib-only and must load (and run) on the
    # minimal install, independently of the solver stack.
    from repro.analysis.linting import lint_paths
    from repro.analysis.rules import RULES

    if args.list_rules:
        for code in sorted(RULES):
            rule = RULES[code]
            print(f"{code}  {rule.name}: {rule.summary}")
        return 0
    missing = [path for path in args.paths if not Path(path).exists()]
    if missing:
        for path in missing:
            print(f"error: no such file or directory: {path}", file=sys.stderr)
        return 2
    violations = lint_paths(args.paths)
    if args.format == "json":
        print(json.dumps([v.__dict__ for v in violations], indent=2))
    else:
        for violation in violations:
            print(violation.render())
        if violations:
            print(f"{len(violations)} violation(s)", file=sys.stderr)
    return 1 if violations else 0


def _cmd_table1(args: argparse.Namespace) -> int:
    runner = SuiteRunner(profile=args.profile, seed=args.seed,
                         instances=args.instances or None)
    table = build_table1(runner.run())
    print(render_table(table))
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    if args.figure == 1:
        cells = build_figure1(profile=args.profile, seed=args.seed,
                              instances=args.instances or None)
        for cell in cells:
            print(f"{cell.variant:<12} {cell.strategy:<14} {cell.geomean_seconds * 1e3:8.3f} ms")
        return 0
    runner = SuiteRunner(profile=args.profile, seed=args.seed, instances=args.instances or None)
    results = runner.run()
    if args.figure == 2:
        curves = build_figure2(results)
        for name, points in curves.items():
            series = " ".join(f"({x:.2f},{y:.2f})" for x, y in points)
            print(f"{name}: {series}")
    elif args.figure == 3:
        curves = build_figure3(results)
        for name, points in curves.items():
            series = " ".join(f"({x:.2f},{y:.2f})" for x, y in points)
            print(f"{name}: {series}")
    elif args.figure == 4:
        rows, average = build_figure4(results)
        for instance_id, name, speedup in rows:
            print(f"{instance_id:>3} {name:<22} {speedup:6.2f}")
        print(f"average speedup: {average:.2f}")
    else:
        print(f"unknown figure {args.figure}", file=sys.stderr)
        return 2
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.server import MatchingServer, QuotaPolicy

    schedule = None
    if args.fault_crash_rate or args.fault_stall_rate or args.fault_slow_rate:
        schedule = FaultSchedule(
            seed=args.fault_seed,
            crash_rate=args.fault_crash_rate,
            stall_rate=args.fault_stall_rate,
            slow_rate=args.fault_slow_rate,
        )
    server = MatchingServer(
        backend=args.backend,
        workers=args.workers,
        policy=QuotaPolicy(
            max_inflight_per_tenant=args.max_inflight_per_tenant,
            max_queue_depth=args.max_queue_depth,
        ),
        default_deadline=args.default_deadline,
        default_profile=args.profile,
        default_seed=args.seed,
        max_cache_entries=args.cache_entries,
        fault_schedule=schedule,
    )

    async def serve() -> None:
        await server.start(args.host, args.port)
        # Machine-readable readiness line: the smoke job and scripts parse the
        # bound port from here (required with --port 0).
        print(json.dumps({"type": "ready", "host": server.host, "port": server.port,
                          "backend": server.engine.backend.name,
                          "fault_injection": server.fault_injection}), flush=True)
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, server.stop)
        await server.serve_until_stopped(args.ttl)

    try:
        asyncio.run(serve())
    finally:
        server.engine.shutdown()
    print(json.dumps({"type": "stopped",
                      "requests": server.metrics.requests_total}), flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for the CLI tests)."""
    parser = argparse.ArgumentParser(prog="repro-matching", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one algorithm on one graph")
    run.add_argument("--graph", default="amazon0505", help="suite instance name or id")
    run.add_argument("--mtx", default=None, help="path to a Matrix-Market file (overrides --graph)")
    run.add_argument("--algorithm", default="g-pr", choices=sorted(SPECS))
    run.add_argument("--weights", default=None, metavar="SPEC",
                     help="edge-weight spec: uniform[:LOW:HIGH], geometric[:P], "
                          "rank[:NOISE], or values (use the .mtx value entries)")
    run.add_argument("--objective", default=None, choices=("max", "min"),
                     help="weighted objective (weighted-sap / weighted-auction only)")
    run.add_argument("--capacities", default=None, metavar="SPEC",
                     help="vertex-capacity spec for the capacitated algorithms: "
                          "fixed[:B], uniform[:LOW:HIGH], rows[:B], cols[:B]")
    run.add_argument("--shards", type=int, default=None, metavar="N",
                     help="solve through the sharded subsystem with N column-block "
                          "shards; with --mtx the file streams out-of-core into "
                          "disk-backed shards")
    run.add_argument("--partition", default=None, choices=("contiguous", "degree"),
                     help="shard splitter placement (default: contiguous)")
    run.add_argument("--profile", default="small")
    run.add_argument("--seed", type=int, default=20130421)
    run.set_defaults(func=_cmd_run)

    batch = sub.add_parser("batch", help="execute a JSONL manifest of matching jobs")
    batch.add_argument("--manifest", required=True,
                       help="path to a JSONL job manifest ('-' for stdin)")
    batch.add_argument("--workers", type=int, default=0,
                       help="worker pool size for cache misses (0 = in-process)")
    batch.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                       help="execution backend (default: inline, or process when --workers > 0)")
    batch.add_argument("--format", default="jsonl", choices=("jsonl", "json"),
                       help="jsonl: one JSON object per line; json: one structured document")
    batch.add_argument("--no-cache", action="store_true",
                       help="disable result caching and intra-batch deduplication")
    batch.add_argument("--cache-dir", default=".repro-cache",
                       help="directory of the persistent result cache")
    batch.add_argument("--profile", default="small",
                       help="default size profile for suite-instance jobs")
    batch.add_argument("--weights", default=None, metavar="SPEC",
                       help="default edge-weight spec for jobs without a 'weights' field")
    batch.add_argument("--objective", default=None, choices=("max", "min"),
                       help="default weighted objective for jobs without an 'objective' field")
    batch.add_argument("--capacities", default=None, metavar="SPEC",
                       help="default vertex-capacity spec for jobs without a "
                            "'capacities' field (applies to capacitated algorithms only)")
    batch.add_argument("--shards", type=int, default=None, metavar="N",
                       help="default shard count for jobs without a 'shards' field "
                            "(applies to maximum-cardinality algorithms only)")
    batch.add_argument("--partition", default=None, choices=("contiguous", "degree"),
                       help="default shard splitter for jobs without a 'partition' field")
    batch.add_argument("--seed", type=int, default=20130421)
    batch.set_defaults(func=_cmd_batch)

    stream = sub.add_parser(
        "stream",
        help="replay a JSONL update trace, repairing the matching incrementally",
    )
    stream.add_argument("--graph", default="roadNet-PA", help="suite instance name or id")
    stream.add_argument("--mtx", default=None,
                        help="path to a Matrix-Market file (overrides --graph)")
    stream.add_argument("--trace", default=None,
                        help="path to a JSONL update trace ('-' for stdin)")
    stream.add_argument("--synthesize", type=int, default=None, metavar="N",
                        help="generate a seeded random trace of N updates instead of --trace")
    stream.add_argument("--scenario", default=None, choices=scenario_names(),
                        help="replay a packaged capacitated dispatch scenario "
                             "(graph, churn trace and SLO) instead of --trace/--synthesize")
    stream.add_argument("--capacities", default=None, metavar="SPEC",
                        help="vertex-capacity spec layered onto --graph/--mtx: "
                             "fixed[:B], uniform[:LOW:HIGH], rows[:B], cols[:B]")
    stream.add_argument("--slo", type=float, default=None, metavar="RATE",
                        help="assignment-rate target; batch and summary rows gain "
                             "assignment_rate / slo_met (default: the scenario's SLO)")
    stream.add_argument("--insert-fraction", type=float, default=0.5,
                        help="insert share of a synthesized trace (rest are deletions)")
    stream.add_argument("--algorithm", default=None, choices=sorted(SPECS),
                        help="batch-repair backend for delegated recomputes (default: "
                             "picked to fit the graph - hk, b-aug, b-auction or "
                             "weighted-sap; scenarios name their own)")
    stream.add_argument("--batch-size", type=int, default=32,
                        help="updates applied (and reported) per batch")
    stream.add_argument("--threshold", type=int, default=64,
                        help="batch size at which repair compacts and delegates to --algorithm")
    stream.add_argument("--backend", default=None, choices=BACKEND_NAMES,
                        help="engine backend executing delegated recomputes (default: inline)")
    stream.add_argument("--workers", type=int, default=0,
                        help="worker pool size for the engine backend")
    stream.add_argument("--format", default="jsonl", choices=("jsonl", "json"),
                        help="jsonl: one JSON object per event; json: one structured document")
    stream.add_argument("--profile", default="small")
    stream.add_argument("--seed", type=int, default=20130421)
    stream.set_defaults(func=_cmd_stream)

    perf = sub.add_parser(
        "perf",
        help="measure the CPU baselines and compare against a BENCH_*.json baseline",
    )
    perf.add_argument("--profile", default="small",
                      help="suite size profile to measure")
    perf.add_argument("--seed", type=int, default=20130421)
    perf.add_argument("--instances", nargs="*", default=None,
                      help="restrict to these suite instances")
    perf.add_argument("--repeats", type=int, default=1,
                      help="suite passes; wall times keep the per-entry minimum")
    perf.add_argument("--compare", default=None, metavar="PATH",
                      help="compare against this baseline; exit 1 on regressions")
    perf.add_argument("--update", default=None, metavar="PATH",
                      help="write the fresh capture as the new baseline file")
    perf.add_argument("--output", default=None, metavar="PATH",
                      help="also write the fresh capture to this report file")
    perf.add_argument("--wall-tolerance", type=float, default=None,
                      help=f"wall-clock regression ratio (default "
                           f"{perfbaseline.DEFAULT_WALL_TOLERANCE}, scaled "
                           f"{perfbaseline.CROSS_PROFILE_SLACK}x across profiles)")
    perf.add_argument("--modeled-tolerance", type=float, default=None,
                      help=f"modeled-seconds regression ratio (default "
                           f"{perfbaseline.DEFAULT_MODELED_TOLERANCE}, scaled "
                           f"{perfbaseline.CROSS_PROFILE_SLACK}x across profiles)")
    perf.add_argument("--calibrate", action="store_true",
                      help="fit measured per-kernel wall time against the cost-model "
                           "predictions and report the most divergent kernels "
                           "(incompatible with --compare / --update); "
                           "--output writes the repro-calibration/1 document")
    perf.add_argument("--format", default="table", choices=("table", "json"))
    perf.set_defaults(func=_cmd_perf)

    serve = sub.add_parser(
        "serve",
        help="run the async matching server (HTTP/JSON, admission control, /metrics)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port (0 = ephemeral; the bound port is printed "
                            "in the JSON 'ready' line)")
    serve.add_argument("--backend", default="thread", choices=BACKEND_NAMES,
                       help="execution backend for matching jobs")
    serve.add_argument("--workers", type=int, default=4,
                       help="worker pool size (0 = backend default)")
    serve.add_argument("--max-inflight-per-tenant", type=int, default=8,
                       help="per-tenant admission quota")
    serve.add_argument("--max-queue-depth", type=int, default=64,
                       help="server-wide in-flight bound (also the engine's "
                            "max_inflight backpressure limit)")
    serve.add_argument("--default-deadline", type=float, default=None,
                       help="deadline in seconds for requests without one")
    serve.add_argument("--cache-entries", type=int, default=1024,
                       help="warm result-cache capacity")
    serve.add_argument("--profile", default="small",
                       help="default scale profile for suite-instance requests")
    serve.add_argument("--seed", type=int, default=20130421,
                       help="default generator seed for suite-instance requests")
    serve.add_argument("--fault-crash-rate", type=float, default=0.0,
                       help="fault injection: fraction of jobs crashed (testing)")
    serve.add_argument("--fault-stall-rate", type=float, default=0.0,
                       help="fault injection: fraction of jobs stalled past deadline")
    serve.add_argument("--fault-slow-rate", type=float, default=0.0,
                       help="fault injection: fraction of jobs delayed at start")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the deterministic fault schedule")
    serve.add_argument("--ttl", type=float, default=None,
                       help="auto-stop after this many seconds (smoke tests)")
    serve.set_defaults(func=_cmd_serve)

    lst = sub.add_parser("list", help="list suite instances and algorithms")
    lst.set_defaults(func=_cmd_list)

    lint = sub.add_parser("lint", help="run the repo-native invariant linter")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--format", default="text", choices=("text", "json"),
                      help="report format")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.set_defaults(func=_cmd_lint)

    table = sub.add_parser("table1", help="regenerate Table I")
    table.add_argument("--profile", default="small")
    table.add_argument("--seed", type=int, default=20130421)
    table.add_argument("--instances", nargs="*", default=None)
    table.set_defaults(func=_cmd_table1)

    figures = sub.add_parser("figures", help="regenerate Figures 1-4")
    figures.add_argument("--figure", type=int, required=True, choices=(1, 2, 3, 4))
    figures.add_argument("--profile", default="small")
    figures.add_argument("--seed", type=int, default=20130421)
    figures.add_argument("--instances", nargs="*", default=None)
    figures.set_defaults(func=_cmd_figures)
    return parser


def _silence_stdout() -> None:
    """Redirect stdout to devnull so interpreter shutdown stays quiet after EPIPE."""
    import os

    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Downstream consumer (e.g. `| head`) closed the pipe mid-report.
        _silence_stdout()
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
