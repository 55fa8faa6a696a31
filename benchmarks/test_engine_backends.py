"""Smoke benchmark for the pooled process backend.

CI's benchmark smoke step exercises :class:`ProcessPoolBackend` once
(selected via ``-k "throughput or backend_smoke"``): one small mixed batch,
checked against inline dispatch for identical matchings.  This is a
correctness-under-deployment probe, not a timed benchmark — the timed
service numbers live in ``test_service_throughput.py``.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.engine import Engine, MatchingJob, ProcessPoolBackend
from repro.generators.suite import generate_instance

BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "20130421"))
BENCH_PROFILE = os.environ.get("REPRO_BENCH_PROFILE", "tiny")


@pytest.fixture(scope="module")
def jobs():
    graph = generate_instance("roadNet-PA", profile=BENCH_PROFILE, seed=BENCH_SEED)
    return [
        MatchingJob(graph=graph, algorithm=a, job_id=a) for a in ("g-pr", "pr", "hk")
    ]


@pytest.fixture(scope="module")
def inline_reference(jobs):
    with Engine(backend="inline") as engine:
        return [engine.run(job) for job in jobs]


@pytest.mark.parametrize(
    "make_backend",
    [
        pytest.param(lambda: ProcessPoolBackend(max_workers=2), id="process"),
    ],
)
def test_backend_smoke(make_backend, jobs, inline_reference):
    with Engine(backend=make_backend(), own_backend=True) as engine:
        handles = engine.map(jobs)
        results = [handle.result() for handle in handles]
        assert all(handle.seconds > 0 for handle in handles)
    for result, reference in zip(results, inline_reference, strict=True):
        assert result.cardinality == reference.cardinality
        assert np.array_equal(result.matching.row_match, reference.matching.row_match)
