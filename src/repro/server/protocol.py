"""The job-request schema: one parser and one graph builder for every entry point.

A job request is one JSON object: a ``repro batch`` manifest line, the
flags of ``repro run``/``stream``, or a server ``/v1/match`` body or
``/v1/batch`` job.  :func:`parse_request` validates all of them into a
:class:`JobRequest`, so every entry point accepts and rejects the same
inputs with the same messages, raising :class:`ProtocolError` (HTTP 400,
CLI exit code 2) before any graph is built.  ``repro batch`` alone also
rejects :data:`SERVER_ONLY_FIELDS`, which it cannot act on.

A request names its graph by recipe — a suite instance name or Table-I id
(``graph`` + ``profile`` + ``seed``) or a Matrix-Market path (``mtx``),
optionally layered with ``weights`` and ``capacities`` specs — and
:class:`GraphCache` builds and memoizes it.  The server's result cache keys
on :meth:`MatchingJob.cache_key`, which embeds the graph's
``content_hash()``, so renamed copies of one structure share warm entries.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.core.api import SPECS
from repro.engine.execution import validate_job_args
from repro.engine.handles import JobHandle
from repro.engine.job import INITIAL_CHOICES, MatchingJob
from repro.generators.capacities import apply_capacity_spec, parse_capacity_spec
from repro.generators.suite import SCALE_PROFILES, SUITE_SPECS, generate_instance
from repro.generators.weights import apply_weight_spec, parse_weight_spec
from repro.graph.io import read_matrix_market

__all__ = [
    "GraphCache", "JobRequest", "ProtocolError", "SERVER_ONLY_FIELDS", "parse_request",
    "result_row",
]

#: Every field a job request may carry; anything else is rejected.
REQUEST_FIELDS = frozenset({
    "graph", "mtx", "profile", "seed", "algorithm", "kwargs", "initial",
    "weights", "objective", "capacities", "shards", "partition", "id",
    "tenant", "deadline", "include_matching",
})
#: Fields only the server acts on; ``repro batch`` rejects them by name.
SERVER_ONLY_FIELDS = ("tenant", "deadline", "include_matching")

#: Suite instance name or Table-I id → canonical instance name.
_SUITE_NAMES = {key: spec.name for spec in SUITE_SPECS for key in (spec.name, spec.instance_id)}


class ProtocolError(ValueError):
    """A malformed or invalid job request (HTTP 400, CLI exit code 2)."""


class GraphSource(NamedTuple):
    """A request's graph recipe, and its :class:`GraphCache` key.

    ``ref`` is a canonical suite instance name or an ``mtx`` path.  An
    ``mtx`` source has no ``profile``, and a ``seed`` only when a random
    weight or capacity layer draws from it.
    """

    kind: str
    ref: str
    profile: str | None
    seed: int | None
    weights: str | None
    capacities: str | None

    def structure(self) -> GraphSource:
        """This source without its weight and capacity layers (an mtx keeps its values)."""
        if self.kind == "suite":
            return self._replace(weights=None, capacities=None)
        values = self.weights is not None and parse_weight_spec(self.weights)[0] == "values"
        return self._replace(seed=None, weights="values" if values else None, capacities=None)


@dataclass(frozen=True)
class JobRequest:
    """One validated job request: a manifest line, CLI flags or a server job."""

    tenant: str
    algorithm: str
    kwargs: dict
    initial: str | None
    deadline: float | None
    request_id: str
    include_matching: bool
    source: GraphSource
    graph_label: str
    plan: Any = field(repr=False, default=None)

    def describe(self) -> dict:
        return {
            "id": self.request_id,
            "tenant": self.tenant,
            "graph": self.graph_label,
            "algorithm": self.algorithm,
        }


class GraphCache:
    """Thread-safe memo of built graphs, keyed on their :class:`GraphSource`.

    Two requests naming the same recipe share one in-memory
    :class:`~repro.graph.bipartite.BipartiteGraph`, so generation cost is
    paid once per distinct source for the cache's lifetime.  A source with
    a weight or capacity layer resolves its structural graph through the
    cache too, so one structure swept over several specs is generated once.
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._graphs: dict[GraphSource, Any] = {}

    def resolve(self, source: GraphSource):
        """The graph for ``source``, building (and caching) it on first use."""
        with self._lock:
            graph = self._graphs.get(source)
            if graph is not None:
                self.hits += 1
                return graph
        # Built outside the lock: generation can take a while and concurrent
        # requests for *different* sources must not serialise on it.  A
        # racing duplicate build is benign — last writer wins, same content.
        graph = self._build(source)
        with self._lock:
            self.misses += 1
            if len(self._graphs) >= self.max_entries:
                # Simple FIFO bound; the server's working set of distinct
                # sources is tiny compared to the result cache's key space.
                self._graphs.pop(next(iter(self._graphs)))
            self._graphs[source] = graph
        return graph

    def _build(self, source: GraphSource):
        structure = source.structure()
        if structure != source:
            graph = self.resolve(structure)
        elif source.kind == "suite":
            graph = generate_instance(source.ref, profile=source.profile, seed=source.seed)
        else:
            graph = read_matrix_market(source.ref, with_weights=source.weights is not None)
        if source.weights is not None:
            graph = apply_weight_spec(graph, source.weights, seed=source.seed)
        if source.capacities is not None:
            graph = apply_capacity_spec(graph, source.capacities, seed=source.seed)
        return graph

    def __len__(self) -> int:
        with self._lock:
            return len(self._graphs)

    def snapshot(self) -> dict:
        with self._lock:
            return {"entries": len(self._graphs), "hits": self.hits, "misses": self.misses}


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_spec(parse, spec: str) -> str:
    """The kind of a weight or capacity spec, with its errors as ProtocolError."""
    try:
        return parse(spec)[0]
    except ValueError as exc:
        raise ProtocolError(str(exc)) from exc


def parse_request(
    payload: Any, defaults: Mapping[str, Any] | None = None, request_id: str = ""
) -> JobRequest:
    """Validate one job request into a :class:`JobRequest`.

    ``defaults`` maps field names to values that fill fields absent from
    ``payload`` (``None`` values are skipped).  The server passes its
    ``profile``, ``seed`` and ``deadline``; ``repro batch`` passes its
    flags.  A default reaches only the algorithms it applies to, so one set
    serves a mixed manifest: ``weights``/``objective`` reach the weighted
    algorithms, ``capacities`` the capacitated ones and ``shards``/
    ``partition`` those that can run sharded.  ``request_id`` is the ``id``
    of a request that carries none.

    Every check — fields, types, specs, and algorithm + kwargs + warm-start
    via :func:`validate_job_args` — runs before any graph is built.
    """
    _require(isinstance(payload, dict), f"request must be an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - REQUEST_FIELDS)
    _require(not unknown, f"unknown request fields: {', '.join(unknown)}")
    _require(
        ("graph" in payload) != ("mtx" in payload),
        "each request needs exactly one of 'graph' or 'mtx'",
    )
    algorithm = str(payload.get("algorithm", "g-pr")).strip().lower()
    spec = SPECS.get(algorithm)
    weighted = spec is not None and spec.weighted
    capacitated = spec is not None and spec.capacitated
    shardable = spec is not None and spec.maximum and not weighted and not capacitated
    reaches = {"weights": weighted, "objective": weighted, "capacities": capacitated,
               "shards": shardable, "partition": shardable}
    fields = dict(payload)
    for name, value in (defaults or {}).items():
        if value is not None and name not in fields and reaches.get(name, True):
            fields[name] = value

    tenant = fields.get("tenant", "anonymous")
    _require(isinstance(tenant, str) and tenant, "'tenant' must be a non-empty string")
    profile = fields.get("profile", "small")
    _require(isinstance(profile, str), "'profile' must be a string")
    _require(
        profile in SCALE_PROFILES,
        f"unknown profile {profile!r}; choose from {sorted(SCALE_PROFILES)}",
    )
    seed = fields.get("seed", 20130421)
    _require(_is_int(seed), "'seed' must be an integer")
    kwargs = fields.get("kwargs", {})
    _require(isinstance(kwargs, dict), "'kwargs' must be an object")
    kwargs = dict(kwargs)
    initial = fields.get("initial")
    _require(
        initial in INITIAL_CHOICES,
        f"unknown warm-start {initial!r}; choose from {INITIAL_CHOICES}",
    )

    weights = fields.get("weights")
    values = False
    if weights is not None:
        _require(isinstance(weights, str), "'weights' must be a weight-spec string")
        values = _check_spec(parse_weight_spec, weights) == "values"
        _require(
            not values or "mtx" in fields,
            "weight spec 'values' needs an 'mtx' source (suite instances carry no value entries)",
        )
    capacities = fields.get("capacities")
    if capacities is not None:
        _require(isinstance(capacities, str), "'capacities' must be a capacity-spec string")
        _check_spec(parse_capacity_spec, capacities)
        _require(
            spec is None or capacitated,
            f"algorithm {algorithm!r} ignores vertex capacities; pick b-aug, "
            "b-expand or b-auction, or drop 'capacities'",
        )
    objective = fields.get("objective")
    _require(objective in (None, "max", "min"), "'objective' must be 'max' or 'min'")
    shards = fields.get("shards")
    _require(shards is None or (_is_int(shards) and shards >= 1),
             "'shards' must be a positive integer")
    # These three fold into the plan's kwargs, where the server has always
    # accepted them too.
    for name, value in (("objective", objective), ("shards", shards),
                        ("partition", fields.get("partition"))):
        if value is not None:
            _require(kwargs.get(name, value) == value, f"{name!r} conflicts with kwargs[{name!r}]")
            kwargs[name] = value
    _require(
        weights is None or kwargs.get("shards") is None,
        "sharded matching is cardinality-only; drop 'weights' or 'shards'",
    )

    deadline = fields.get("deadline")
    if deadline is not None:
        _require(
            isinstance(deadline, (int, float)) and not isinstance(deadline, bool)
            and deadline > 0,
            "'deadline' must be a positive number of seconds",
        )
        deadline = float(deadline)
    include_matching = fields.get("include_matching", False)
    _require(isinstance(include_matching, bool), "'include_matching' must be a boolean")
    rid = fields.get("id", request_id)
    _require(isinstance(rid, str) or _is_int(rid), "'id' must be a string or integer")

    try:
        plan = validate_job_args(algorithm, kwargs, initial)
    except (TypeError, ValueError) as exc:
        raise ProtocolError(str(exc)) from exc

    if "mtx" in fields:
        path = fields["mtx"]
        _require(isinstance(path, str) and Path(path).is_file(),
                 f"no such Matrix-Market file {path!r}")
        layered = (weights is not None and not values) or capacities is not None
        source = GraphSource("mtx", path, None, seed if layered else None, weights, capacities)
        graph_label = Path(path).name
    else:
        ref = fields["graph"]
        _require(isinstance(ref, str) or _is_int(ref), "'graph' must be a suite instance name or id")
        key = int(ref) if isinstance(ref, str) and ref.isdecimal() else ref
        _require(
            key in _SUITE_NAMES,
            f"unknown suite instance {ref!r} (see `repro.cli list` for the available names)",
        )
        graph_label = _SUITE_NAMES[key]
        source = GraphSource("suite", graph_label, profile, seed, weights, capacities)

    return JobRequest(
        tenant=tenant,
        algorithm=algorithm,
        kwargs=kwargs,
        initial=initial,
        deadline=deadline,
        request_id=str(rid),
        include_matching=include_matching,
        source=source,
        graph_label=graph_label,
        plan=plan,
    )


def build_job(request: JobRequest, graphs: GraphCache) -> MatchingJob:
    """Materialise the request's graph (cached) and wrap it into a job."""
    graph = graphs.resolve(request.source)
    return MatchingJob(
        graph=graph,
        algorithm=request.algorithm,
        kwargs=request.kwargs,
        initial=request.initial,
        job_id=request.request_id,
    )


def result_row(
    request: JobRequest,
    *,
    status: str,
    result=None,
    error=None,
    cached: bool = False,
    worker: str | None = None,
    seconds: float = 0.0,
    server_seconds: float = 0.0,
    injected: str | None = None,
    fault_injection: bool = False,
) -> dict:
    """One JSON response row — shared by ``/v1/match`` and ``/v1/batch``."""
    row = {
        "type": "result",
        **request.describe(),
        "status": status,
        "cardinality": result.cardinality if result is not None else None,
        "cached": cached,
        "worker": worker,
        "seconds": round(seconds, 6),
        "server_seconds": round(server_seconds, 6),
    }
    if result is not None and "total_weight" in result.counters:
        row["total_weight"] = result.counters["total_weight"]
    if request.include_matching and result is not None:
        matching = result.matching
        if hasattr(matching, "row_match"):
            row["row_match"] = [int(v) for v in matching.row_match]
        else:
            # Capacitated results carry an edge list, not a 1-regular map.
            row["pairs"] = [[int(u), int(v)] for u, v in matching.pairs()]
    if error is not None:
        row["error"] = str(error)
    if fault_injection:
        row["injected_fault"] = injected
    return row


def handle_row(
    request: JobRequest,
    handle: JobHandle,
    *,
    server_seconds: float,
    fault_injection: bool = False,
) -> dict:
    """Response row for a finished (or deadline-expired) engine handle."""
    status = handle.status.value
    if not handle.done():
        # The await timed out past the deadline grace: report the deadline
        # outcome now rather than holding the client while a stalled worker
        # drains (the quota slot stays held until the handle terminates).
        status = "timeout"
    result = handle._result if handle.status.value == "ok" else None
    return result_row(
        request,
        status=status,
        result=result,
        error=handle.failure,
        worker=handle.worker,
        seconds=handle.seconds,
        server_seconds=server_seconds,
        injected=getattr(handle, "injected_fault", None),
        fault_injection=fault_injection,
    )
