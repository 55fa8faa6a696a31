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
