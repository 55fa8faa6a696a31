"""Rate floors for building graphs and parsing Matrix Market.

Every graph is built by :func:`repro.graph.builders._csr_from_pairs`: one
sort of the key ``col * n_rows + row`` for the column CSR and one of
``row * n_cols + col`` for its transpose.  It replaced two ``np.lexsort``
calls, kept here as the reference builder; on 10^6 random pairs the key
sorts must give the same arrays at least 4x faster.

:class:`repro.graph.io.MatrixMarketStream` parses each chunk of raw lines
with ``np.loadtxt``.  Against a per-line Python parse, kept here, it must
return the same chunks at least 3x faster on a generated 2x10^5-entry file,
plain and gzipped.  Both floors sit well below the measured gaps (see
"Building graphs and parsing Matrix Market" in docs/benchmarks.md), to keep
CI unflaky.
"""

from __future__ import annotations

import gzip
import time

import numpy as np
import pytest

from repro.graph.builders import _csr_from_pairs
from repro.graph.io import DEFAULT_CHUNK_ENTRIES, MatrixMarketStream
from repro.sharded import stream_random_bipartite_mtx

_MIN_BUILD_SPEEDUP = 4.0
_MIN_PARSE_SPEEDUP = 3.0


def _two_lexsort_csr(rows, cols, n_rows, n_cols):
    """The builder the key sorts replaced: lexsort by (col, row), drop
    repeats, lexsort the survivors by (row, col)."""
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    rows, cols = rows[keep], cols[keep]
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])
    order_t = np.lexsort((cols, rows))
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    return col_ptr, rows, row_ptr, cols[order_t], None


def _per_line_chunks(path, chunk_entries):
    """Reference parse of a pattern file, one line at a time in Python:
    each line is counted, stripped, skipped if blank or a comment, split,
    converted and range-checked, as the stream's per-line path does;
    chunks of ``chunk_entries`` entries, 0-based."""
    opener = gzip.open if path.suffix == ".gz" else open
    chunks = []
    rows: list[int] = []
    cols: list[int] = []
    with opener(path, "rt") as handle:
        lineno, line = 1, handle.readline()
        while line.startswith("%"):
            lineno, line = lineno + 1, handle.readline()
        n_rows, n_cols, _ = (int(size) for size in line.split())
        for lineno, line in enumerate(handle, start=lineno + 1):
            line = line.strip()
            if not line or line.startswith("%"):
                continue
            tokens = line.split("%", 1)[0].split()
            if len(tokens) < 2:
                raise ValueError(f"{path}:{lineno}: malformed entry line {line!r}")
            i, j = int(tokens[0]), int(tokens[1])
            if not (1 <= i <= n_rows and 1 <= j <= n_cols):
                raise ValueError(f"{path}:{lineno}: index outside the declared size")
            rows.append(i - 1)
            cols.append(j - 1)
            if len(rows) == chunk_entries:
                chunks.append((np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)))
                rows, cols = [], []
    if rows:
        chunks.append((np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64)))
    return chunks


def _stream_chunks(path):
    with MatrixMarketStream(path) as stream:
        return [(rows, cols) for rows, cols, values in stream if values is None]


def _best_of_interleaved(first, second, repeats=3):
    best = [float("inf"), float("inf")]
    results = [None, None]
    for _ in range(repeats):
        for k, fn in enumerate((first, second)):
            t0 = time.perf_counter()
            results[k] = fn()
            best[k] = min(best[k], time.perf_counter() - t0)
    return best, results


def test_key_sort_builder_beats_two_lexsorts(benchmark):
    rng = np.random.default_rng(20130421)
    n_rows = n_cols = 100_000
    rows = rng.integers(0, n_rows, 1_000_000)
    cols = rng.integers(0, n_cols, 1_000_000)

    def key_sorts():
        return _csr_from_pairs(rows, cols, n_rows, n_cols)

    def lexsorts():
        return _two_lexsort_csr(rows, cols, n_rows, n_cols)

    (fast_s, slow_s), (got, expected) = _best_of_interleaved(key_sorts, lexsorts)
    for a, b in zip(got[:4], expected[:4], strict=True):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got[4] is None
    speedup = slow_s / fast_s
    benchmark.extra_info.update(pairs=len(rows), speedup=round(speedup, 2))
    benchmark.pedantic(key_sorts, rounds=3, iterations=1)
    assert speedup >= _MIN_BUILD_SPEEDUP, (
        f"key-sort builder only {speedup:.2f}x faster than two lexsorts "
        f"({fast_s * 1e3:.1f} ms vs {slow_s * 1e3:.1f} ms)"
    )


@pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
def test_stream_parse_beats_per_line_parse(tmp_path, suffix, benchmark):
    path = stream_random_bipartite_mtx(tmp_path / f"r.{suffix}", 50_000, 50_000, 200_000)

    (fast_s, slow_s), (got, expected) = _best_of_interleaved(
        lambda: _stream_chunks(path), lambda: _per_line_chunks(path, DEFAULT_CHUNK_ENTRIES)
    )
    assert len(got) == len(expected) == -(-200_000 // DEFAULT_CHUNK_ENTRIES)
    for (rows, cols), (ref_rows, ref_cols) in zip(got, expected, strict=True):
        assert np.array_equal(rows, ref_rows) and np.array_equal(cols, ref_cols)
    speedup = slow_s / fast_s
    benchmark.extra_info.update(entries=200_000, speedup=round(speedup, 2))
    benchmark.pedantic(lambda: _stream_chunks(path), rounds=3, iterations=1)
    assert speedup >= _MIN_PARSE_SPEEDUP, (
        f"{path.name}: stream parse only {speedup:.2f}x faster than a per-line parse "
        f"({fast_s * 1e3:.1f} ms vs {slow_s * 1e3:.1f} ms)"
    )
