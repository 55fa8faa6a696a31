"""Concurrency hammer for :class:`ResultCache` (the server's warm result tier).

The server reads/writes the cache from the asyncio loop *and* from backend
completion paths concurrently; these tests pin the properties that make it
safe: no lost updates, no double-eviction (``len`` never exceeds the bound,
every surviving key maps to a complete, well-formed result), isolation of
served copies, and exact hit/miss accounting under contention.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.matching import Matching, MatchingResult
from repro.service.cache import ResultCache


def _result(tag: int, size: int = 8) -> MatchingResult:
    """A distinguishable result: row u matched to column (u + tag) % size."""
    row_match = (np.arange(size, dtype=np.int64) + tag) % size
    col_match = np.empty(size, dtype=np.int64)
    col_match[row_match] = np.arange(size, dtype=np.int64)
    return MatchingResult(
        algorithm=f"alg-{tag}",
        matching=Matching(row_match=row_match, col_match=col_match),
        cardinality=size,
        modeled_time=float(tag),
        counters={"tag": tag},
    )


def _hammer(cache: ResultCache, *, threads: int, keys: int, rounds: int) -> list:
    """``threads`` workers put/get over ``keys`` shared keys; returns errors."""
    errors: list[str] = []
    barrier = threading.Barrier(threads)

    def worker(worker_id: int) -> None:
        barrier.wait()
        for round_number in range(rounds):
            key = ("key", (worker_id + round_number) % keys)
            tag = key[1]
            cache.put(key, _result(tag))
            served = cache.get(key)
            if served is None:
                continue  # evicted under pressure: legal, never corrupt
            # Whatever version was served must be internally consistent:
            # the row_match shift must agree with the counters tag (a torn
            # read mixing two writers' entries would break this).
            expected = _result(served.counters["tag"])
            if not np.array_equal(served.matching.row_match, expected.matching.row_match):
                errors.append(f"torn read at {key}: {served.counters}")
            # … and served copies must be isolated from the cached entry.
            served.matching.row_match[:] = -1
            reread = cache.get(key)
            if reread is not None and (reread.matching.row_match < 0).any():
                errors.append(f"served copy aliases the cache at {key}")

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    return errors


def test_hammer_no_lost_updates_when_capacity_suffices():
    cache = ResultCache(max_entries=64)
    errors = _hammer(cache, threads=8, keys=16, rounds=200)
    assert errors == []
    # No evictions were possible, so every key must have survived — a lost
    # update would show up as a missing key here.
    assert len(cache) == 16
    for key_index in range(16):
        served = cache.get(("key", key_index))
        assert served is not None
        assert served.counters["tag"] == key_index


def test_hammer_under_eviction_pressure_keeps_bound_exact():
    cache = ResultCache(max_entries=8)
    errors = _hammer(cache, threads=8, keys=32, rounds=150)
    assert errors == []
    # Double-eviction (or a missed one) would leave len off the bound; the
    # LRU loop must land exactly at capacity after this much churn.
    assert len(cache) == 8
    survivors = [cache.get(("key", i)) for i in range(32)]
    held = [r for r in survivors if r is not None]
    assert len(held) == 8
    for result in held:
        tag = result.counters["tag"]
        assert np.array_equal(
            result.matching.row_match, _result(tag).matching.row_match
        )


def test_hit_and_miss_accounting_is_exact_under_contention():
    cache = ResultCache(max_entries=128)
    threads, per_thread = 8, 250
    barrier = threading.Barrier(threads)

    def worker(worker_id: int) -> None:
        barrier.wait()
        key = ("worker", worker_id)
        cache.get(key)  # one guaranteed miss
        cache.put(key, _result(worker_id))
        for _ in range(per_thread):
            assert cache.get(key) is not None  # private key: always a hit

    pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    assert cache.misses == threads
    assert cache.hits == threads * per_thread


def test_validation_and_clear():
    with pytest.raises(ValueError):
        ResultCache(max_entries=0)
    cache = ResultCache(max_entries=4)
    cache.put(("k",), _result(1))
    assert ("k",) in cache
    cache.clear()
    assert len(cache) == 0
    assert cache.get(("k",)) is None
