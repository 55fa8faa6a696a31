"""``serve-mix``: a seeded request stream against ``repro serve``.

Two client threads of this process form a closed loop (each sends its next
request when the previous answer arrives) against a server started as its
own process with ``repro serve --backend thread --workers 2``.  Half of the
stream repeats a hot set of 20 pairs (10 ``small`` Table-I analogs x
``g-pr``/``pr``) primed during set-up, so those requests are result-cache
hits.  The other half asks for never-seen ``tiny`` analogs (a unique graph
seed each) solved by ``g-pr``, ``pr``, ``hk`` or ``g-hkdw``: misses that
pay for graph generation, an engine slot and a solve.  Hot and cold requests
come in shuffled blocks of 8 + 8, and each kind cycles through shuffled decks
of its (graph, solver) pairs, so every seed sends the same mix in another
order and with other cold graphs.

After the timed window, outside it, every ``ok`` answer is checked against
Hopcroft-Karp on the same graph recipe.
"""

from __future__ import annotations

import http.client
import json
import math
import os
import queue
import random
import resource
import signal
import subprocess
import sys
import threading
import time

from common import HERE, ROOT, SRC, SUITE_SEED, latency_metrics, median, peak_rss_mb, tail

HOT_PROFILE = "small"
COLD_PROFILE = "tiny"
HOT_ALGORITHMS = ("g-pr", "pr")
COLD_ALGORITHMS = ("g-pr", "pr", "hk", "g-hkdw")
CLIENTS = 2
#: Hot and cold requests per shuffled block.
BLOCK = 8
SETUPS = 5
#: The timed stream runs in this many windows; each end-to-end metric is
#: the median of its per-window values, so a burst of load from a
#: neighbour on a shared host spoils one window, not the run.
WINDOWS = 5
SERVER_ARGS = ["--port", "0", "--backend", "thread", "--workers", "2",
               "--profile", HOT_PROFILE, "--seed", str(SUITE_SEED)]
TIMEOUT_S = 60.0


def hot_instances() -> list[str]:
    """Every other one of the first 20 Table-I analogs: ten graphs, nine families."""
    from repro.generators.suite import instance_names

    return instance_names()[:20:2]


def hot_pairs() -> list[dict]:
    return [
        {"graph": name, "profile": HOT_PROFILE, "seed": SUITE_SEED, "algorithm": algo}
        for name in hot_instances() for algo in HOT_ALGORITHMS
    ]


#: Graph seeds of the cold requests.  Every (instance, seed) of this pool
#: was checked with all four cold solvers against Hopcroft-Karp
#: (``check_cold_pool.py``); a run draws cold graphs from it without
#: replacement, so each cold request still names a graph the server has
#: never seen.
COLD_SEEDS = range(1_000_000, 1_000_200)
#: Pool entries on which a cold solver returns a non-maximum matching
#: (found by ``check_cold_pool.py``: ``pr`` misses one augmenting path on
#: both); they are left out so that the unmodified tree fails no operation.
COLD_EXCLUDED = frozenset({("amazon0505", 1_000_043), ("roadNet-CA", 1_000_098)})


class Stream:
    """The seeded request stream; thread-safe ``next()``."""

    def __init__(self, seed: int) -> None:
        from repro.generators.suite import instance_names

        self._rng = random.Random(seed)
        self._hot = hot_pairs()
        self._cold = [(name, algo) for name in instance_names() for algo in COLD_ALGORITHMS]
        self._seeds = {}
        for name in instance_names():
            seeds = [s for s in COLD_SEEDS if (name, s) not in COLD_EXCLUDED]
            self._rng.shuffle(seeds)
            self._seeds[name] = seeds
        self._decks: dict[bool, list] = {True: [], False: []}
        self._block: list[bool] = []
        self._index = 0
        self._lock = threading.Lock()

    def _draw(self, hot: bool):
        deck = self._decks[hot]
        if not deck:
            deck.extend(self._hot if hot else self._cold)
            self._rng.shuffle(deck)
        return deck.pop()

    def next(self) -> tuple[int, dict]:
        with self._lock:
            if not self._block:
                self._block = [True] * BLOCK + [False] * BLOCK
                self._rng.shuffle(self._block)
            hot = self._block.pop()
            index = self._index
            self._index += 1
            if hot:
                return index, dict(self._draw(True))
            name, algo = self._draw(False)
            if not self._seeds[name]:
                raise RuntimeError(f"cold seed pool of {name} exhausted; enlarge COLD_SEEDS")
            return index, {"graph": name, "profile": COLD_PROFILE,
                           "seed": self._seeds[name].pop(), "algorithm": algo}


class Server:
    """One ``repro serve`` process, traced (through the launcher) or not."""

    def __init__(self, traced: bool) -> None:
        if traced:
            cmd = [sys.executable, str(HERE / "serve_launcher.py"), *SERVER_ARGS]
        else:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *SERVER_ARGS]
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        self.output: list[str] = []
        lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, args=(lines,), daemon=True)
        self._reader.start()
        self.port = None
        try:
            while self.port is None:
                line = lines.get(timeout=TIMEOUT_S)
                if line is None:
                    raise RuntimeError("server exited before ready:\n" + "".join(self.output))
                if line.startswith("{") and json.loads(line).get("type") == "ready":
                    self.port = json.loads(line)["port"]
        except BaseException:
            self.stop()
            raise

    def _read(self, lines: queue.Queue) -> None:
        for line in self.proc.stdout:
            self.output.append(line)
            lines.put(line)
        lines.put(None)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=TIMEOUT_S)

    def metrics(self) -> dict:
        conn = self.connect()
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            doc = json.loads(response.read())
        finally:
            conn.close()
        if response.status != 200:
            raise RuntimeError(f"/metrics answered HTTP {response.status}")
        return doc

    def prime(self) -> None:
        """Solve the hot set once so the timed stream finds it cached."""
        conn = self.connect()
        try:
            for index, payload in enumerate(hot_pairs()):
                conn.request("POST", "/v1/match", body=json.dumps({**payload, "id": f"prime-{index}"}))
                response = conn.getresponse()
                row = json.loads(response.read())
                if response.status != 200 or row.get("status") != "ok":
                    raise RuntimeError(f"priming {payload} failed: HTTP {response.status} {row}")
        finally:
            conn.close()

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self._reader.join(timeout=TIMEOUT_S)
        self.proc.stdout.close()


def drive(server: Server, stream: Stream, seconds: float) -> tuple[list[dict], float]:
    """Closed loop of :data:`CLIENTS` clients for ``seconds``; returns (records, wall)."""
    records: list[dict] = []
    crashed: list[BaseException] = []
    start = time.perf_counter()
    deadline = start + seconds

    def client(number: int) -> None:
        conn = server.connect()
        try:
            while time.perf_counter() < deadline and not crashed:
                index, payload = stream.next()
                body = json.dumps({**payload, "tenant": f"client-{number}", "id": f"r{index}"})
                began = time.perf_counter()
                record = {"index": index, "payload": payload}
                try:
                    conn.request("POST", "/v1/match", body=body)
                    response = conn.getresponse()
                    record["row"] = json.loads(response.read())
                    record["http"] = response.status
                except (OSError, http.client.HTTPException, ValueError) as exc:
                    record["error"] = f"{type(exc).__name__}: {exc}"
                    conn.close()
                    conn = server.connect()
                record["latency"] = time.perf_counter() - began
                record["done"] = time.perf_counter()
                records.append(record)
        except BaseException as exc:  # re-raised by drive() after the join
            crashed.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client, args=(n,)) for n in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if crashed:
        raise crashed[0]
    end = max((r["done"] for r in records), default=time.perf_counter())
    return records, end - start


def ok(record: dict) -> bool:
    return record.get("http") == 200 and record["row"].get("status") == "ok"


class Oracle:
    """Hopcroft-Karp cardinality per graph recipe, computed once each."""

    def __init__(self) -> None:
        from repro.core.api import resolve_algorithm

        self._hk = resolve_algorithm("hk")
        self._known: dict[tuple, int] = {}

    def cardinality(self, payload: dict) -> int:
        from repro.generators.suite import generate_instance

        key = (payload["graph"], payload["profile"], payload["seed"])
        if key not in self._known:
            graph = generate_instance(key[0], profile=key[1], seed=key[2])
            self._known[key] = self._hk.run(graph).cardinality
        return self._known[key]


def check(records: list[dict], oracle: Oracle) -> list[str]:
    """Failed operations: transport errors, non-200 answers, non-ok rows, wrong answers."""
    failures = []
    for record in records:
        if "error" in record:
            failures.append(f"r{record['index']}: {record['error']}")
        elif not ok(record):
            failures.append(f"r{record['index']}: HTTP {record['http']} {record['row']}")
        elif record["row"]["cardinality"] != oracle.cardinality(record["payload"]):
            failures.append(f"r{record['index']}: cardinality {record['row']['cardinality']}")
    return failures


def composition(records: list[dict]) -> dict:
    payloads = [r["payload"] for r in records]
    hot = sum(p["profile"] == HOT_PROFILE for p in payloads)
    return {
        "requests": len(payloads),
        "hot": hot,
        "cold": len(payloads) - hot,
        "distinct_graphs": len({(p["graph"], p["profile"], p["seed"]) for p in payloads}),
    }


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after[key], before[key]
    return after - before


def _ratio(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def _p90(values) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def window_metrics(records: list[dict], wall: float) -> dict:
    latencies = [r["latency"] for r in records if ok(r)]
    return {
        **latency_metrics(latencies),
        # Closed loop: throughput is answers per second of window, not the
        # inverse mean latency of one client.
        "ops_per_s": len(latencies) / wall,
        "tail_percentile": tail(latencies)[1],
    }


def row_layers(records: list[dict], before: dict, after: dict) -> dict:
    """Per-layer metrics read from response rows and ``/metrics`` deltas."""
    answered = [r for r in records if ok(r)]
    hits = [r for r in answered if r["row"]["cached"]]
    misses = [r for r in answered if not r["row"]["cached"]]
    return {
        "server.transport_p50_s": median(r["latency"] - r["row"]["server_seconds"] for r in answered),
        "server.overhead_p50_s": median(
            r["row"]["server_seconds"] - r["row"]["seconds"] for r in misses
        ),
        "server.admission.rejects": _delta(after, before, "admission", "rejected"),
        "service.cache.hit_ratio": _ratio(
            _delta(after, before, "cache", "result", "hits"),
            _delta(after, before, "cache", "result", "misses"),
        ),
        "server.graph_cache.hit_ratio": _ratio(
            _delta(after, before, "cache", "graph", "hits"),
            _delta(after, before, "cache", "graph", "misses"),
        ),
        "service.cache.hit_p50_s": median(r["latency"] for r in hits),
        "service.cache.miss_p50_s": median(r["latency"] for r in misses),
        "service.cache.miss_p90_s": _p90(r["latency"] for r in misses),
        "engine.run_p50_s": median(r["row"]["seconds"] for r in misses),
        "engine.run_p90_s": _p90(r["row"]["seconds"] for r in misses),
    }


def wrapper_layers(before: dict, after: dict) -> dict:
    """Per-call means of the launcher's wrappers over the traced windows."""
    calls = {k: after[k]["calls"] - before[k]["calls"] for k in after}
    seconds = {k: after[k]["seconds"] - before[k]["seconds"] for k in after}

    def mean(*keys) -> float:
        n = sum(calls[k] for k in keys)
        return sum(seconds[k] for k in keys) / n if n else 0.0

    return {
        "server.protocol.parse_s": mean("parse_request"),
        "server.protocol.build_job_s": mean("build_job"),
        "server.protocol.row_s": mean("handle_row", "result_row"),
        "engine.submit_s": mean("submit"),
        "generators.generate_s": mean("generate_instance"),
        "generators.generate_calls": calls["generate_instance"],
        "seq.greedy.cheap_s": mean("cheap_matching"),
    }


def run(*, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result fields ``run.py`` prints."""
    setups = []
    server = traced = None
    records: list[dict] = []
    try:
        for _ in range(SETUPS):
            if server is not None:
                server.stop()
            started = time.perf_counter()
            server = Server(traced=False)
            server.prime()
            setups.append(time.perf_counter() - started)
        before = server.metrics()
        stream = Stream(seed)
        if not trace:
            windows = []
            for _ in range(WINDOWS):
                window, wall = drive(server, stream, seconds / WINDOWS)
                records += window
                windows.append(window_metrics(window, wall))
            after = server.metrics()
        else:
            traced = Server(traced=True)
            traced.prime()
            traced_stream = Stream(seed)
            traced_before = traced.metrics()
            traced_records: list[dict] = []
            # Untraced and traced windows alternate, so drift during the run
            # cannot masquerade as tracing overhead.
            for _ in range(WINDOWS):
                records += drive(server, stream, seconds / (2 * WINDOWS))[0]
                traced_records += drive(traced, traced_stream, seconds / (2 * WINDOWS))[0]
            after = server.metrics()
            traced_after = traced.metrics()
    finally:
        for process in (server, traced):
            if process is not None:
                process.stop()

    oracle = Oracle()
    failures = check(records, oracle)
    details = {
        "stream": composition(records),
        "clients": CLIENTS,
        "setups": SETUPS,
        "graph_builds": _delta(after, before, "cache", "graph", "misses"),
    }
    if not trace:
        metrics = {
            key: median(window[key] for window in windows) for key in windows[0]
        }
        details["tail_percentile"] = metrics.pop("tail_percentile")
        metrics["setup_s"] = median(setups)
        metrics["peak_rss_mb"] = peak_rss_mb(resource.RUSAGE_CHILDREN)
    else:
        latencies = [r["latency"] for r in records if ok(r)]
        failures += check(traced_records, oracle)
        traced_latencies = [r["latency"] for r in traced_records if ok(r)]
        untraced_mean = math.fsum(latencies) / len(latencies)
        traced_mean = math.fsum(traced_latencies) / len(traced_latencies)
        metrics = {
            **row_layers(records, before, after),
            **wrapper_layers(traced_before["bench_trace"], traced_after["bench_trace"]),
            "trace.overhead_share": (traced_mean - untraced_mean) / untraced_mean,
        }
        details["traced_stream"] = composition(traced_records)
        records = records + traced_records
    if failures:
        details["failures"] = failures[:20]
    return {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": metrics,
        "details": details,
    }
