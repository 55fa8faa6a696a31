"""Parity of the one job-request schema across every entry point.

One corpus of good and bad job requests is fed to ``repro batch`` (as a
one-line manifest), to ``POST /v1/match``, to ``POST /v1/batch`` (as a
single job), and, where flags can express the request, to ``repro run``
and ``repro stream --synthesize 4``.  Each entry point must accept or
reject it alike: a rejection carries the same message after the
``path:line: `` or ``jobs[i]: `` prefix, and an acceptance the same
cardinality.  The one documented difference: ``repro batch`` rejects the
server-only fields by name.
"""

from __future__ import annotations

import http.client
import json

import pytest

from repro.cli import main
from repro.core.api import SPECS
from repro.server import MatchingServer
from repro.server.protocol import SERVER_ONLY_FIELDS

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

MTX, MISSING = "<mtx>", "<missing>"
G = {"graph": "roadNet-PA"}
CASES = {
    "plain": G,
    "seed-bool": {**G, "seed": True},
    "seed-float": {**G, "seed": 1.5},
    "unknown-field": {**G, "bogus": 1},
    "id-list": {**G, "id": [1]},
    "id-int": {**G, "id": 7},
    "shards": {**G, "shards": 2},
    "shards-string": {**G, "shards": "x"},
    "shards-zero": {**G, "shards": 0},
    "partition-without-shards": {**G, "partition": "degree"},
    "shards-and-partition": {**G, "shards": 2, "partition": "degree"},
    "weights-and-shards": {**G, "algorithm": "hk", "weights": "uniform", "shards": 2},
    "objective-on-cardinality": {**G, "algorithm": "pr", "objective": "max"},
    "objective-sideways": {**G, "algorithm": "weighted-sap", "objective": "sideways"},
    "capacities-on-hk": {**G, "algorithm": "hk", "capacities": "fixed:2"},
    "capacities-on-b-aug": {**G, "algorithm": "b-aug", "capacities": "fixed:2"},
    "unknown-algorithm": {**G, "algorithm": "gp-r"},
    "kwargs-list": {**G, "kwargs": []},
    "kwargs-unknown": {**G, "kwargs": {"bogus": 1}},
    "initial-unknown": {**G, "initial": "warm"},
    "profile-unknown": {**G, "profile": "enormous"},
    "values-on-suite": {**G, "weights": "values"},
    "weights-int": {**G, "weights": 3},
    "graph-id": {"graph": 3},
    "graph-id-string": {"graph": "3"},
    "graph-bool": {"graph": True},
    "graph-unknown": {"graph": "nope"},
    "graph-and-mtx": {**G, "mtx": MTX},
    "empty": {},
    "not-an-object": [1],
    "mtx-missing": {"mtx": MISSING},
    "mtx-values": {"mtx": MTX, "algorithm": "weighted-sap", "weights": "values"},
    "mtx-capacities-seed": {
        "mtx": MTX, "algorithm": "b-aug", "capacities": "uniform:1:3", "seed": 5,
    },
    "pdbfs-threads-zero": {**G, "algorithm": "p-dbfs", "kwargs": {"n_threads": 0}},
    "pdbfs-threads-negative": {**G, "algorithm": "p-dbfs", "kwargs": {"n_threads": -2}},
    "pdbfs-threads-bool": {**G, "algorithm": "p-dbfs", "kwargs": {"n_threads": True}},
    "pdbfs-threads-float": {**G, "algorithm": "p-dbfs", "kwargs": {"n_threads": 2.5}},
    "pdbfs-threads-two": {**G, "algorithm": "p-dbfs", "kwargs": {"n_threads": 2}},
    "gpr-adaptive-zero": {**G, "kwargs": {"strategy": "adaptive:0"}},
    "gpr-strategy-int": {**G, "kwargs": {"strategy": 5}},
    "gpr-engine-warp": {**G, "kwargs": {"engine": "warp"}},
    "gpr-engine-serialized": {**G, "kwargs": {"engine": "serialized"}},
    "gpr-first-serialized": {**G, "algorithm": "g-pr-first", "kwargs": {"engine": "serialized"}},
    "gpr-seed-string": {**G, "kwargs": {"seed": "x"}},
    "gpr-shrink-threshold-string": {**G, "kwargs": {"shrink_threshold": "x"}},
    "gpr-max-iterations-string": {**G, "kwargs": {"max_iterations": "x"}},
    "gpr-waves-negative": {**G, "kwargs": {"waves_in_flight": -3}},
    "pr-relabel-k-string": {**G, "algorithm": "pr", "kwargs": {"global_relabel_k": "x"}},
    "pr-relabel-k-negative": {**G, "algorithm": "pr", "kwargs": {"global_relabel_k": -1}},
    "pr-relabel-k-quarter": {**G, "algorithm": "pr", "kwargs": {"global_relabel_k": 0.25}},
    "pr-gap-string": {**G, "algorithm": "pr", "kwargs": {"gap_relabeling": "no"}},
    "ghkdw-max-phases-zero": {**G, "algorithm": "g-hkdw", "kwargs": {"max_phases": 0}},
    "cheap-seed-string": {**G, "algorithm": "cheap", "kwargs": {"seed": "x"}},
    "karp-sipser-seed-negative": {**G, "algorithm": "karp-sipser", "kwargs": {"seed": -1}},
    "b-expand-inner-cheap": {**G, "algorithm": "b-expand", "kwargs": {"inner": "cheap"}},
}
#: The solver configs check their fields when they are made, so a bad value
#: is a rejected request (this message everywhere), never a failed solve.
BAD_CONFIGS = {
    "pdbfs-threads-zero": "n_threads must be an integer >= 1, got 0",
    "pdbfs-threads-negative": "n_threads must be an integer >= 1, got -2",
    "pdbfs-threads-bool": "n_threads must be an integer >= 1, got True",
    "pdbfs-threads-float": "n_threads must be an integer >= 1, got 2.5",
    "gpr-adaptive-zero": "malformed strategy spec 'adaptive:0': adaptive strategy needs k > 0",
    "gpr-strategy-int": "strategy must be a string such as 'adaptive:0.7', got 5",
    "gpr-engine-warp": "unknown engine 'warp'; use 'lockstep' or 'serialized'",
    "gpr-engine-serialized": "the serialized reference engine only supports the 'first' variant",
    "gpr-seed-string": "seed must be an integer >= 0, got 'x'",
    "gpr-shrink-threshold-string": "shrink_threshold must be an integer >= 1, got 'x'",
    "gpr-max-iterations-string": "max_iterations must be an integer >= 1, got 'x'",
    "gpr-waves-negative": (
        "algorithm 'g-pr' got unexpected keyword argument(s) ['waves_in_flight']; "
        "accepted: ['engine', 'max_iterations', 'seed', 'shrink_threshold', 'strategy']"
    ),
    "pr-relabel-k-string": "global_relabel_k must be a finite number > 0, got 'x'",
    "pr-relabel-k-negative": "global_relabel_k must be a finite number > 0, got -1",
    "pr-gap-string": "gap_relabeling must be a bool, got 'no'",
    "ghkdw-max-phases-zero": "max_phases must be an integer >= 1, got 0",
    "cheap-seed-string": "seed must be an integer >= 0, got 'x'",
    "karp-sipser-seed-negative": "seed must be an integer >= 0, got -1",
    "b-expand-inner-cheap": (
        "b-expand needs a maximum-cardinality, cardinality-only inner algorithm "
        "to solve the expansion; 'cheap' is not one"
    ),
}
SERVER_ONLY_CASES = {
    "tenant": {**G, "tenant": "team-a"},
    "deadline": {**G, "deadline": 5},
    "include_matching": {**G, "include_matching": True},
}
assert set(SERVER_ONLY_CASES) == set(SERVER_ONLY_FIELDS)

#: Flag-expressible field → whether argparse passes its value through unchanged.
_FLAGS = {
    "graph": lambda v: isinstance(v, str),
    "mtx": lambda v: isinstance(v, str),
    "profile": lambda v: isinstance(v, str),
    "seed": lambda v: type(v) is int,
    "algorithm": lambda v: isinstance(v, str) and v in SPECS,
    "weights": lambda v: isinstance(v, str),
    "objective": lambda v: v in ("max", "min"),
    "capacities": lambda v: isinstance(v, str),
    "shards": lambda v: type(v) is int,
    "partition": lambda v: v in ("contiguous", "degree"),
}
_STREAM_FIELDS = ("graph", "mtx", "profile", "seed", "capacities", "algorithm")


def _flags(payload, fields) -> list[str] | None:
    """``payload`` as CLI flags, or ``None`` where the flags cannot say it.

    Flags cannot name both or neither of ``graph``/``mtx``, a field outside
    ``fields``, or a value argparse would convert or refuse itself.
    """
    if not isinstance(payload, dict) or ("graph" in payload) == ("mtx" in payload):
        return None
    if any(name not in fields or not _FLAGS[name](value) for name, value in payload.items()):
        return None
    argv = [] if "profile" in payload else ["--profile", "tiny"]
    for name, value in payload.items():
        argv += [f"--{name}", str(value)]
    return argv


@pytest.fixture(scope="module")
def server():
    instance = MatchingServer(backend="thread", workers=1, default_profile="tiny")
    instance.start_in_background()
    yield instance
    instance.shutdown()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    from repro.generators import uniform_random_bipartite, uniform_weights
    from repro.graph import write_matrix_market

    root = tmp_path_factory.mktemp("protocol")
    graph = uniform_weights(uniform_random_bipartite(24, 24, avg_degree=3.0, seed=1), seed=2)
    write_matrix_market(graph, root / "w.mtx")
    return {MTX: str(root / "w.mtx"), MISSING: str(root / "missing.mtx")}


def _post(port, path, payload):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        conn.request("POST", path, body=json.dumps(payload))
        response = conn.getresponse()
        return response.status, response.read().decode()
    finally:
        conn.close()


def _rejected(err: str, prefix: str = "") -> tuple:
    assert err.startswith(f"error: {prefix}"), err
    return ("rejected", err.strip()[len(f"error: {prefix}"):])


def _via_batch(payload, tmp_path, capsys) -> tuple:
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(json.dumps(payload) + "\n")
    code = main(["batch", "--manifest", str(manifest), "--profile", "tiny",
                 "--no-cache", "--format", "json"])
    out, err = capsys.readouterr()
    if code == 2:
        return _rejected(err, f"{manifest}:1: ")
    [row] = json.loads(out)["results"]
    return (row["status"], row["cardinality"])


def _via_match(payload, port) -> tuple:
    status, body = _post(port, "/v1/match", payload)
    doc = json.loads(body)
    if status == 400:
        return ("rejected", doc["error"])
    return (doc["status"], doc["cardinality"])


def _via_server_batch(payload, port) -> tuple:
    status, body = _post(port, "/v1/batch", {"jobs": [payload]})
    if status == 400:
        error = json.loads(body)["error"]
        assert error.startswith("jobs[0]: "), error
        return ("rejected", error[len("jobs[0]: "):])
    [row] = [json.loads(line) for line in body.splitlines() if '"result"' in line]
    return (row["status"], row["cardinality"])


def _via_run(argv, capsys) -> tuple:
    code = main(["run", *argv])
    out, err = capsys.readouterr()
    if code == 2:
        return _rejected(err)
    assert code == 0, err
    return ("ok", json.loads(out)["cardinality"])


def _via_stream(argv, capsys) -> tuple:
    code = main(["stream", *argv, "--synthesize", "4", "--format", "json"])
    out, err = capsys.readouterr()
    if code == 2:
        return _rejected(err)
    assert code == 0, err
    return ("ok", json.loads(out)["events"][0]["cardinality"])


def _resolve(payload, files):
    if not isinstance(payload, dict):
        return payload
    return {k: files.get(v, v) if isinstance(v, str) else v for k, v in payload.items()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_every_entry_point_accepts_and_rejects_alike(case, server, files, tmp_path, capsys):
    payload = _resolve(CASES[case], files)
    expected = _via_batch(payload, tmp_path, capsys)
    assert expected[0] in ("ok", "rejected"), expected
    assert _via_match(payload, server.port) == expected
    assert _via_server_batch(payload, server.port) == expected
    run_argv = _flags(payload, tuple(_FLAGS))
    if run_argv is not None:
        assert _via_run(run_argv, capsys) == expected
    stream_argv = _flags(payload, _STREAM_FIELDS)
    # Without --algorithm, stream picks b-aug for capacities where batch runs g-pr.
    if stream_argv is not None and ("algorithm" in payload or "capacities" not in payload):
        assert _via_stream(stream_argv, capsys) == expected


@pytest.mark.parametrize("name", sorted(SERVER_ONLY_CASES))
def test_batch_rejects_server_only_fields_by_name(name, server, tmp_path, capsys):
    payload = SERVER_ONLY_CASES[name]
    assert _via_batch(payload, tmp_path, capsys) == (
        "rejected", f"{name!r} only applies to server requests"
    )
    status, cardinality = _via_match(payload, server.port)
    assert status == "ok" and cardinality > 0
    assert _via_server_batch(payload, server.port) == (status, cardinality)


@pytest.mark.parametrize("case", sorted(BAD_CONFIGS))
def test_bad_solver_configs_are_rejected_before_solving(case, tmp_path, capsys):
    assert _via_batch(CASES[case], tmp_path, capsys) == ("rejected", BAD_CONFIGS[case])


@pytest.mark.parametrize(
    "case", ["pdbfs-threads-two", "gpr-first-serialized", "pr-relabel-k-quarter"]
)
def test_good_solver_configs_solve(case, tmp_path, capsys):
    status, cardinality = _via_batch(CASES[case], tmp_path, capsys)
    assert status == "ok" and cardinality > 0


def test_a_budget_of_one_is_accepted_and_fails_when_solved(server, tmp_path, capsys):
    # The smallest budget is a valid request; one phase is too few to solve.
    payload = {**G, "algorithm": "g-hkdw", "kwargs": {"max_phases": 1}}
    assert _via_batch(payload, tmp_path, capsys) == ("failed", None)
    assert _via_match(payload, server.port) == ("failed", None)
    assert _via_server_batch(payload, server.port) == ("failed", None)
