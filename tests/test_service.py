"""Tests for the batched matching service (repro.service)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.api import MAXIMUM_ALGORITHMS, max_bipartite_matching
from repro.generators import chung_lu_bipartite, uniform_random_bipartite
from repro.seq.verify import is_valid_matching
from repro.service import (
    BatchReport,
    DiskCache,
    MatchingJob,
    MatchingService,
    ResultCache,
)
import repro.engine.execution as execution_mod


@pytest.fixture(scope="module")
def small_graphs():
    return [
        uniform_random_bipartite(120, 130, avg_degree=4.0, seed=21),
        chung_lu_bipartite(110, 110, avg_degree=5.0, seed=22),
    ]


@pytest.fixture
def counting_execute(monkeypatch):
    """Count actual computations by wrapping the engine's execution path."""
    calls = []
    original = execution_mod.execute_job

    def counted(job, plan=None, initial_matching=None):
        calls.append(job)
        return original(job, plan, initial_matching)

    monkeypatch.setattr(execution_mod, "execute_job", counted)
    return calls


# --------------------------------------------------------------- batch == serial
def test_batch_identical_to_serial_for_every_maximum_algorithm(small_graphs):
    jobs = [
        MatchingJob(graph=g, algorithm=name)
        for g in small_graphs
        for name in MAXIMUM_ALGORITHMS
    ]
    report = MatchingService().submit_batch(jobs)
    assert report.n_jobs == len(jobs)
    for item in report.results:
        serial = max_bipartite_matching(item.job.graph, item.job.algorithm)
        assert item.result.cardinality == serial.cardinality
        assert is_valid_matching(item.job.graph, item.result.matching)
        # The pipeline is deterministic, so batch and serial dispatch return
        # the very same matching, not just the same cardinality.
        assert np.array_equal(item.result.matching.row_match, serial.matching.row_match)


def test_batch_preserves_submission_order(small_graphs):
    jobs = [
        MatchingJob(graph=small_graphs[0], algorithm="pr", job_id="a"),
        MatchingJob(graph=small_graphs[1], algorithm="hk", job_id="b"),
        MatchingJob(graph=small_graphs[0], algorithm="hk", job_id="c"),
    ]
    report = MatchingService().submit_batch(jobs)
    assert [r.job.job_id for r in report.results] == ["a", "b", "c"]


# --------------------------------------------------------------------- caching
def test_cache_hits_skip_recomputation(small_graphs, counting_execute):
    jobs = [MatchingJob(graph=g, algorithm="pr") for g in small_graphs]
    service = MatchingService(cache=True)
    first = service.submit_batch(jobs)
    assert len(counting_execute) == len(jobs)
    assert first.cache_hits == 0 and first.executed == len(jobs)

    second = service.submit_batch(jobs)
    assert len(counting_execute) == len(jobs)  # call-count probe: no recompute
    assert second.cache_hits == len(jobs) and second.executed == 0
    assert second.cardinalities() == first.cardinalities()
    assert all(r.cached and r.worker == "cache" for r in second.results)


def test_identical_jobs_in_one_batch_are_deduplicated(small_graphs, counting_execute):
    job = MatchingJob(graph=small_graphs[0], algorithm="hk")
    report = MatchingService().submit_batch([job] * 4)
    assert len(counting_execute) == 1
    assert report.executed == 1 and report.deduplicated == 3
    assert len(set(report.cardinalities())) == 1


def test_renamed_graph_shares_cache_entry(small_graphs, counting_execute):
    g = small_graphs[0]
    service = MatchingService()
    service.submit(MatchingJob(graph=g, algorithm="pr"))
    report = service.submit(MatchingJob(graph=g.with_name("alias"), algorithm="pr"))
    assert len(counting_execute) == 1
    assert report.cached


def test_no_cache_executes_every_job(small_graphs, counting_execute):
    jobs = [MatchingJob(graph=small_graphs[0], algorithm="hk")] * 3
    service = MatchingService(cache=False)
    report = service.submit_batch(jobs)
    report2 = service.submit_batch(jobs)
    assert len(counting_execute) == 6
    assert report.executed == report2.executed == 3
    assert report.cache_hits == report.deduplicated == 0


def test_distinct_kwargs_and_warm_starts_do_not_collide(small_graphs, counting_execute):
    g = small_graphs[0]
    jobs = [
        MatchingJob(graph=g, algorithm="pr"),
        MatchingJob(graph=g, algorithm="pr", kwargs={"global_relabel_k": 0.25}),
        MatchingJob(graph=g, algorithm="pr", initial="karp-sipser"),
    ]
    report = MatchingService().submit_batch(jobs)
    assert report.executed == 3 and len(counting_execute) == 3
    assert len(set(report.cardinalities())) == 1  # same maximum either way


def test_result_cache_lru_eviction():
    cache = ResultCache(max_entries=2)
    g = uniform_random_bipartite(30, 30, avg_degree=3.0, seed=5)
    result = max_bipartite_matching(g, "hk")
    for key in (("a",), ("b",), ("c",)):
        cache.put(key, result)
    assert len(cache) == 2
    assert cache.get(("a",)) is None  # evicted
    served = cache.get(("c",))
    assert served is not result  # defensive copy, not an alias
    assert served.cardinality == result.cardinality


def test_result_cache_len_and_contains_are_locked():
    """Regression: __len__/__contains__ read _entries without the lock.

    With the lock held, a reader can never observe the transient
    over-capacity state inside put() (entry inserted, eviction loop not yet
    run) — so len(cache) <= max_entries holds at every instant under
    concurrent eviction.
    """
    import threading

    cache = ResultCache(max_entries=4)
    g = uniform_random_bipartite(20, 20, avg_degree=2.0, seed=6)
    result = max_bipartite_matching(g, "hk")
    stop = threading.Event()
    errors: list[str] = []

    def writer(tag: str) -> None:
        i = 0
        while not stop.is_set():
            cache.put((tag, i % 16), result)
            i += 1

    threads = [threading.Thread(target=writer, args=(t,)) for t in ("a", "b")]
    for t in threads:
        t.start()
    try:
        for i in range(3000):
            n = len(cache)
            if n > cache.max_entries:
                errors.append(f"iteration {i}: observed {n} entries")
                break
            ("a", i % 16) in cache  # must never raise mid-eviction
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert not errors, errors


def test_cache_hit_mutation_does_not_corrupt_cache(small_graphs):
    service = MatchingService()
    job = MatchingJob(graph=small_graphs[0], algorithm="pr")
    first = service.submit(job)
    first.result.matching.row_match[:] = -1  # caller misbehaves
    second = service.submit(job)
    assert second.cached
    assert second.result.cardinality == second.result.matching.cardinality
    assert is_valid_matching(job.graph, second.result.matching)


def test_deduplicated_results_do_not_alias(small_graphs):
    job = MatchingJob(graph=small_graphs[0], algorithm="hk")
    report = MatchingService().submit_batch([job, job])
    a, b = report.results
    assert a.result.matching.row_match is not b.result.matching.row_match
    a.result.matching.row_match[:] = -1
    assert b.result.matching.cardinality == b.result.cardinality


def test_disk_cache_persists_across_services(tmp_path, small_graphs):
    jobs = [MatchingJob(graph=g, algorithm="pfp") for g in small_graphs]
    first = MatchingService(cache=DiskCache(tmp_path)).submit_batch(jobs)
    second = MatchingService(cache=DiskCache(tmp_path)).submit_batch(jobs)
    assert second.executed == 0
    assert second.cache_hits == len(jobs)
    assert second.cardinalities() == first.cardinalities()


# ----------------------------------------------------------------- worker pool
def test_worker_pool_agrees_with_inline(small_graphs):
    jobs = [
        MatchingJob(graph=g, algorithm=name)
        for g in small_graphs
        for name in ("g-pr", "pr", "hk")
    ]
    inline = MatchingService(workers=0, cache=False).submit_batch(jobs)
    with MatchingService(workers=2, cache=False) as pooled_service:
        pooled = pooled_service.submit_batch(jobs)
    assert pooled.cardinalities() == inline.cardinalities()
    for a, b in zip(pooled.results, inline.results, strict=True):
        assert np.array_equal(a.result.matching.row_match, b.result.matching.row_match)
    assert {r.worker for r in pooled.results} == {"process"}
    # The persistent pool measures each job where it ran: per-job timings,
    # not the old pool-mean attribution, so they are individual and positive.
    assert all(r.seconds > 0 for r in pooled.results)
    assert len({r.seconds for r in pooled.results}) > 1


def test_unseeded_karp_sipser_is_never_cached_or_deduplicated(small_graphs, counting_execute):
    g = small_graphs[0]
    # Without a seed, Karp–Sipser draws from an entropy-seeded RNG: each run
    # is an independent sample, so memoizing or deduplicating it would
    # silently serve one sample N times.
    unseeded = MatchingJob(graph=g, algorithm="karp-sipser")
    service = MatchingService(cache=True)
    report = service.submit_batch([unseeded, unseeded])
    assert report.executed == 2 and report.deduplicated == 0
    second = service.submit_batch([unseeded])
    assert second.cache_hits == 0 and len(counting_execute) == 3
    # A *seeded* run is deterministic and caches normally.
    seeded = MatchingJob(graph=g, algorithm="karp-sipser", kwargs={"seed": 7})
    report = service.submit_batch([seeded, seeded])
    assert report.executed == 1 and report.deduplicated == 1
    assert service.submit(seeded).cached


# ----------------------------------------------------------- failure isolation
def test_failing_job_does_not_abort_batch(small_graphs):
    g = small_graphs[0]
    # The serialized reference engine only supports the "first" variant, so
    # this job resolves fine but raises ValueError at run time.
    boom = MatchingJob(graph=g, algorithm="g-pr", kwargs={"engine": "serialized"}, job_id="boom")
    jobs = [MatchingJob(graph=g, algorithm="pr", job_id="a"), boom,
            MatchingJob(graph=g, algorithm="hk", job_id="b")]
    report = MatchingService().submit_batch(jobs)
    by_id = {r.job.job_id: r for r in report.results}
    assert report.failed == 1 and not report.all_ok
    assert by_id["boom"].status == "failed" and by_id["boom"].result is None
    assert "serialized" in by_id["boom"].error.message
    assert by_id["a"].ok and by_id["b"].ok
    assert by_id["a"].result.cardinality == by_id["b"].result.cardinality
    assert report.failures() == [by_id["boom"]]
    with pytest.raises(ValueError, match="no result"):
        by_id["boom"].cardinality


def test_failed_jobs_are_not_cached(small_graphs, counting_execute):
    g = small_graphs[0]
    boom = MatchingJob(graph=g, algorithm="g-pr", kwargs={"engine": "serialized"})
    service = MatchingService()
    first = service.submit(boom)
    second = service.submit(boom)
    assert first.status == second.status == "failed"
    assert len(counting_execute) == 2  # the failure was retried, not served from cache
    assert service.jobs_failed == 2


def test_failed_duplicates_share_the_failure(small_graphs):
    g = small_graphs[0]
    boom = MatchingJob(graph=g, algorithm="g-pr", kwargs={"engine": "serialized"})
    report = MatchingService().submit_batch([boom, boom])
    assert report.failed == 2 and report.executed == 1 and report.deduplicated == 1
    assert all(r.status == "failed" and r.error is not None for r in report.results)
    assert report.cardinalities() == [None, None]


def test_intra_batch_duplicates_are_labeled_dedup(small_graphs):
    job = MatchingJob(graph=small_graphs[0], algorithm="hk")
    report = MatchingService().submit_batch([job, job, job])
    workers = [r.worker for r in report.results]
    assert workers[0] == "inline"
    assert workers[1:] == ["dedup", "dedup"]
    assert all(r.cached for r in report.results[1:])


# ------------------------------------------------------------------ validation
def test_invalid_jobs_fail_fast_before_executing(small_graphs, counting_execute):
    good = MatchingJob(graph=small_graphs[0], algorithm="hk")
    bad = MatchingJob(graph=small_graphs[0], algorithm="pr", kwargs={"bogus": 1})
    with pytest.raises(TypeError):
        MatchingService().submit_batch([good, bad])
    assert counting_execute == []  # nothing ran
    with pytest.raises(ValueError):
        MatchingService().submit(MatchingJob(graph=small_graphs[0], algorithm="quantum"))


def test_unknown_warm_start_rejected(small_graphs):
    with pytest.raises(ValueError):
        MatchingJob(graph=small_graphs[0], initial="magic")


def test_job_hash_and_equality_follow_cache_key(small_graphs):
    g = small_graphs[0]
    a = MatchingJob(graph=g, algorithm="pr")
    b = MatchingJob(graph=g.with_name("alias"), algorithm="pr")
    assert a == b and hash(a) == hash(b)  # docs promise hashability
    assert len({a, b}) == 1
    assert a != MatchingJob(graph=g, algorithm="hk")


def test_job_rejects_non_mapping_kwargs(small_graphs):
    with pytest.raises(TypeError, match="mapping"):
        MatchingJob(graph=small_graphs[0], algorithm="pr", kwargs=5)


def test_warm_start_for_heuristic_fails_fast(small_graphs, counting_execute):
    job = MatchingJob(graph=small_graphs[0], algorithm="cheap", initial="karp-sipser")
    with pytest.raises(TypeError, match="warm-start"):
        MatchingService().submit_batch([job])
    assert counting_execute == []


def test_batch_report_accounting(small_graphs):
    g = small_graphs[0]
    jobs = [MatchingJob(graph=g, algorithm="hk")] * 3 + [
        MatchingJob(graph=g, algorithm="pr")
    ]
    service = MatchingService()
    report = service.submit_batch(jobs)
    assert report.executed + report.cache_hits + report.deduplicated == report.n_jobs
    assert report.hit_rate == pytest.approx(2 / 4)
    assert service.jobs_submitted == 4
    assert service.jobs_executed == 2


# ------------------------------------------------------------------------- CLI
def test_cli_batch_roundtrip(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "jobs.jsonl"
    lines = [
        {"graph": "roadNet-PA", "algorithm": a, "profile": "tiny", "id": f"j{i}"}
        for i, a in enumerate(("g-pr", "pr", "hk", "pr"))
    ]
    manifest.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    cache_dir = tmp_path / "cache"

    rc = main(["batch", "--manifest", str(manifest), "--cache-dir", str(cache_dir)])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    results = [row for row in rows if row["type"] == "result"]
    summary = rows[-1]
    assert [r["id"] for r in results] == ["j0", "j1", "j2", "j3"]
    assert summary["executed"] == 3 and summary["deduplicated"] == 1
    cards = {r["id"]: r["cardinality"] for r in results}
    assert len(set(cards.values())) == 1  # all maximum algorithms agree

    # Second CLI invocation: served entirely from the persistent cache.
    rc = main(["batch", "--manifest", str(manifest), "--cache-dir", str(cache_dir)])
    assert rc == 0
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    summary = rows[-1]
    assert summary["cache_hits"] == 4 and summary["hit_rate"] >= 0.5
    assert {r["cardinality"] for r in rows if r["type"] == "result"} == set(cards.values())


def test_cli_batch_rejects_bad_manifest(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "bad.jsonl"
    manifest.write_text('{"algorithm": "g-pr"}\n')  # neither graph nor mtx
    assert main(["batch", "--manifest", str(manifest)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_batch_rejects_unusable_cache_dir(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text('{"graph": "roadNet-PA", "algorithm": "pr", "profile": "tiny"}\n')
    shadow = tmp_path / "not-a-dir"
    shadow.write_text("occupied")  # a file where the cache directory should go
    assert main(["batch", "--manifest", str(manifest), "--cache-dir", str(shadow)]) == 2
    assert "cache dir" in capsys.readouterr().err


def test_cli_batch_validates_whole_manifest_before_building_graphs(tmp_path, capsys, monkeypatch):
    from repro import cli
    from repro.server import protocol

    built = []
    original = protocol.generate_instance

    def counting(*args, **kwargs):
        built.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(protocol, "generate_instance", counting)
    manifest = tmp_path / "jobs.jsonl"
    manifest.write_text(
        '{"graph": "roadNet-PA", "algorithm": "pr", "profile": "tiny"}\n'
        '{"algorithm": "hk"}\n'  # malformed: neither graph nor mtx
    )
    assert cli.main(["batch", "--manifest", str(manifest), "--no-cache"]) == 2
    assert built == []  # the bad line aborted before any graph was generated
    assert "error" in capsys.readouterr().err

    # A typo'd algorithm, knob, warm-start, graph, profile or mtx path is
    # likewise caught before graph generation.
    for bad_line in (
        '{"graph": "roadNet-PA", "algorithm": "gp-r", "profile": "tiny"}',
        '{"graph": "roadNet-PA", "algorithm": "pr", "profile": "tiny", "kwargs": {"bogus": 1}}',
        '{"graph": "roadNet-PA", "algorithm": "cheap", "profile": "tiny", "initial": "cheap"}',
        '{"graph": "no-such-graph", "algorithm": "pr", "profile": "tiny"}',
        '{"graph": "roadNet-PA", "algorithm": "pr", "profile": "enormous"}',
        '{"mtx": "/no/such/file.mtx", "algorithm": "pr", "profile": "tiny"}',
    ):
        manifest.write_text(
            '{"graph": "roadNet-PA", "algorithm": "pr", "profile": "tiny"}\n' + bad_line + "\n"
        )
        assert cli.main(["batch", "--manifest", str(manifest), "--no-cache"]) == 2
        assert built == []
        assert ":2:" in capsys.readouterr().err  # error names the offending line


def test_cli_batch_json_format_and_backend(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "jobs.jsonl"
    lines = [
        {"graph": "roadNet-PA", "algorithm": a, "profile": "tiny", "id": f"j{i}"}
        for i, a in enumerate(("pr", "hk"))
    ]
    manifest.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    rc = main(["batch", "--manifest", str(manifest), "--no-cache",
               "--backend", "thread", "--workers", "2", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert [r["id"] for r in payload["results"]] == ["j0", "j1"]
    assert all(r["status"] == "ok" for r in payload["results"])
    assert payload["summary"]["backend"] == "thread"
    assert payload["summary"]["failed"] == 0


def test_cli_batch_failed_job_sets_exit_code_but_siblings_complete(tmp_path, capsys):
    from repro.cli import main

    manifest = tmp_path / "jobs.jsonl"
    lines = [
        {"graph": "roadNet-PA", "algorithm": "pr", "profile": "tiny", "id": "ok"},
        {"graph": "roadNet-PA", "algorithm": "g-pr", "profile": "tiny", "id": "boom",
         "kwargs": {"engine": "serialized"}},
    ]
    manifest.write_text("\n".join(json.dumps(line) for line in lines) + "\n")
    rc = main(["batch", "--manifest", str(manifest), "--no-cache"])
    assert rc == 1  # the run completed, but one job failed
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    by_id = {row["id"]: row for row in rows if row["type"] == "result"}
    assert by_id["ok"]["status"] == "ok" and by_id["ok"]["cardinality"] > 0
    assert by_id["boom"]["status"] == "failed" and by_id["boom"]["cardinality"] is None
    assert "serialized" in by_id["boom"]["error"]
    assert rows[-1]["failed"] == 1
    assert "boom" in captured.err
