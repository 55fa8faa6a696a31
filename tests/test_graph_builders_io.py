"""Tests for graph builders, validation and Matrix-Market I/O."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph import (
    from_dense,
    from_edges,
    from_scipy_sparse,
    read_matrix_market,
    validate_graph,
    write_matrix_market,
)
from repro.generators import uniform_random_bipartite
from repro.graph.io import MatrixMarketStream
from repro.graph.validate import GraphValidationError


def test_from_dense():
    mat = [[1, 0, 2], [0, 0, 0], [3, 4, 0]]
    g = from_dense(mat)
    assert g.shape == (3, 3)
    assert {(int(u), int(v)) for u, v in g.edges()} == {(0, 0), (0, 2), (2, 0), (2, 1)}


def test_from_dense_rejects_non_2d():
    with pytest.raises(ValueError):
        from_dense([1, 2, 3])


def test_from_scipy_sparse_drops_explicit_zeros():
    from scipy import sparse

    mat = sparse.coo_matrix(([1.0, 0.0, 2.0], ([0, 1, 2], [0, 1, 2])), shape=(3, 3))
    g = from_scipy_sparse(mat)
    assert g.n_edges == 2


def test_from_scipy_sparse_type_error():
    with pytest.raises(TypeError):
        from_scipy_sparse(np.eye(3))


def test_from_edges_empty():
    g = from_edges([], n_rows=5, n_cols=7)
    assert g.n_edges == 0
    assert g.shape == (5, 7)


# ------------------------------------------------------- the key-sort builder
def _reference_csr_from_pairs(rows, cols, n_rows, n_cols, weights=None):
    """The two-lexsort builder the key sorts replaced: the executable spec."""
    col_ptr = np.zeros(n_cols + 1, dtype=np.int64)
    row_ptr = np.zeros(n_rows + 1, dtype=np.int64)
    if len(rows) == 0:
        empty = np.empty(0, dtype=np.int64)
        out_weights = np.empty(0, dtype=np.float64) if weights is not None else None
        return col_ptr, empty, row_ptr, empty.copy(), out_weights
    order = np.lexsort((rows, cols))
    rows, cols = rows[order], cols[order]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    out_weights = None
    if weights is not None:
        out_weights = np.maximum.reduceat(
            np.asarray(weights, dtype=np.float64)[order], np.flatnonzero(keep)
        )
    rows, cols = rows[keep], cols[keep]
    np.cumsum(np.bincount(cols, minlength=n_cols), out=col_ptr[1:])
    order_t = np.lexsort((cols, rows))
    np.cumsum(np.bincount(rows, minlength=n_rows), out=row_ptr[1:])
    return col_ptr, rows.copy(), row_ptr, cols[order_t], out_weights


def _assert_same_arrays(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected, strict=True):
        if b is None:
            assert a is None
            continue
        assert a.dtype == b.dtype and a.shape == b.shape
        assert np.array_equal(a, b)
        if b.dtype == np.float64:  # parallel weights reduce in input order
            assert np.array_equal(np.signbit(a), np.signbit(b))


def _random_pairs(rng, n_rows, n_cols, n_pairs):
    return rng.integers(0, n_rows, n_pairs), rng.integers(0, n_cols, n_pairs)


@pytest.mark.parametrize(
    "n_rows, n_cols, n_pairs",
    [
        (40, 30, 2_000),  # many repeats
        (500, 400, 3_000),
        (1, 300, 500),  # one row
        (300, 1, 500),  # one column
        (5_000, 3, 4_000),  # tall
        (3, 5_000, 4_000),  # wide
        (6, 9, 0),  # empty
        (0, 0, 0),
    ],
)
def test_key_sort_builder_matches_two_lexsorts(rng, n_rows, n_cols, n_pairs):
    from repro.graph.builders import _column_csr, _csr_from_pairs, _row_csr

    rows, cols = _random_pairs(rng, n_rows, n_cols, n_pairs)
    expected = _reference_csr_from_pairs(rows, cols, n_rows, n_cols)
    _assert_same_arrays(_csr_from_pairs(rows, cols, n_rows, n_cols), expected)
    col_ptr, col_ind, row_ptr, row_ind, _ = expected
    edge_cols = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(col_ptr))
    # Each half alone.
    _assert_same_arrays(
        _column_csr(rows, cols, n_rows, n_cols), (col_ptr, col_ind, edge_cols, None)
    )
    shuffle = rng.permutation(len(col_ind))
    _assert_same_arrays(
        _row_csr(col_ind[shuffle], edge_cols[shuffle], n_rows, n_cols), (row_ptr, row_ind)
    )


@pytest.mark.parametrize("n_rows, n_cols, n_pairs", [(20, 15, 1_500), (1, 50, 200), (0, 4, 0)])
def test_key_sort_builder_keeps_the_maximum_parallel_weight(rng, n_rows, n_cols, n_pairs):
    from repro.graph.builders import _column_csr, _csr_from_pairs

    rows, cols = _random_pairs(rng, n_rows, n_cols, n_pairs)
    # Few distinct values, so parallel edges often tie, signed zeros included.
    weights = rng.choice([-2.0, -0.0, 0.0, 1.5, 1.5, 7.0], size=n_pairs)
    expected = _reference_csr_from_pairs(rows, cols, n_rows, n_cols, weights)
    _assert_same_arrays(_csr_from_pairs(rows, cols, n_rows, n_cols, weights), expected)
    col_ptr, col_ind, _, _, out_weights = expected
    edge_cols = np.repeat(np.arange(n_cols, dtype=np.int64), np.diff(col_ptr))
    _assert_same_arrays(
        _column_csr(rows, cols, n_rows, n_cols, weights),
        (col_ptr, col_ind, edge_cols, out_weights),
    )


def test_builder_refuses_a_shape_whose_keys_overflow_before_allocating():
    import tracemalloc

    from repro.graph.builders import _row_csr

    one = np.zeros(1, dtype=np.int64)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"4294967296 x 4294967296 graph"):
            from_edges([(0, 0)], n_rows=2**32, n_cols=2**32)
        with pytest.raises(ValueError, match=r"4294967296 x 4294967296 graph"):
            _row_csr(one, one, 2**32, 2**32)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # a vertex-sized array would be 32 GiB


def test_validate_accepts_built_graphs(family_graph):
    validate_graph(family_graph)


def test_validate_rejects_unsorted_adjacency():
    from repro.graph import BipartiteGraph

    bad = BipartiteGraph(
        n_rows=2,
        n_cols=1,
        col_ptr=np.array([0, 2]),
        col_ind=np.array([1, 0]),  # unsorted
        row_ptr=np.array([0, 1, 2]),
        row_ind=np.array([0, 0]),
    )
    with pytest.raises(GraphValidationError):
        validate_graph(bad)


def test_validate_rejects_mismatched_transposes():
    from repro.graph import BipartiteGraph

    bad = BipartiteGraph(
        n_rows=2,
        n_cols=2,
        col_ptr=np.array([0, 1, 2]),
        col_ind=np.array([0, 1]),
        row_ptr=np.array([0, 1, 2]),
        row_ind=np.array([1, 0]),  # describes the other diagonal
    )
    with pytest.raises(GraphValidationError):
        validate_graph(bad)


@pytest.mark.parametrize(
    "col_ind, message",
    [
        ([0, 2, 1, 1, 1, 0, 0], "column adjacency list of vertex 2 contains duplicate edges"),
        ([0, 2, 1, 1, 0, 0, 1], "column adjacency list of vertex 2 is not sorted"),
        ([0, 2, 1, 0, 1, 1, 0], "column adjacency list of vertex 2 is not sorted"),
        ([2, 0, 1, 1, 0, 0, 1], "column adjacency list of vertex 0 is not sorted"),
    ],
)
def test_validate_names_the_first_offending_vertex(col_ind, message):
    from repro.graph import BipartiteGraph

    # Columns 0..4 hold [0, 2], [], [1, 1, 1] or a variant, [], [0, 0]-ish:
    # empty lists sit between the offending ones.
    bad = BipartiteGraph(
        n_rows=3,
        n_cols=5,
        col_ptr=np.array([0, 2, 2, 5, 5, 7]),
        col_ind=np.array(col_ind),
        row_ptr=np.array([0, 3, 5, 7]),
        row_ind=np.array([0, 2, 4, 2, 4, 0, 2]),
    )
    with pytest.raises(GraphValidationError, match=f"^{message}$"):
        validate_graph(bad)
    transposed = BipartiteGraph(
        n_rows=5,
        n_cols=3,
        col_ptr=bad.row_ptr,
        col_ind=bad.row_ind,
        row_ptr=bad.col_ptr,
        row_ind=bad.col_ind,
    )
    with pytest.raises(GraphValidationError, match=f"^{message.replace('column', 'row')}$"):
        validate_graph(transposed)


def test_matrix_market_roundtrip(tmp_path, family_graph):
    path = tmp_path / "graph.mtx"
    write_matrix_market(family_graph, path)
    back = read_matrix_market(path)
    assert back.shape == family_graph.shape
    assert back.n_edges == family_graph.n_edges
    assert np.array_equal(back.col_ptr, family_graph.col_ptr)
    assert np.array_equal(back.col_ind, family_graph.col_ind)


def test_matrix_market_symmetric_expansion(tmp_path):
    content = "\n".join(
        [
            "%%MatrixMarket matrix coordinate real symmetric",
            "% a comment",
            "3 3 3",
            "1 1 1.5",
            "2 1 2.0",
            "3 2 -1.0",
            "",
        ]
    )
    path = tmp_path / "sym.mtx"
    path.write_text(content)
    g = read_matrix_market(path)
    edges = {(int(u), int(v)) for u, v in g.edges()}
    assert edges == {(0, 0), (1, 0), (0, 1), (2, 1), (1, 2)}


def test_matrix_market_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.mtx"
    path.write_text("not a matrix market file\n1 1 0\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_matrix_market_rejects_array_format(tmp_path):
    path = tmp_path / "dense.mtx"
    path.write_text("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


@pytest.mark.parametrize(
    "sizes, message",
    [
        ("-3 4 0", r"negative size in size line '-3 4 0'"),
        ("3 4 -1", r"negative size in size line '3 4 -1'"),
        ("3 x 1", r"non-integer size line '3 x 1'"),
    ],
)
def test_matrix_market_rejects_bad_size_line_at_its_line(tmp_path, sizes, message):
    # Regression: these used to pass the header and fail later with messages
    # that named neither the size line nor (for '3 x 1') the file.
    path = tmp_path / "sizes.mtx"
    path.write_text(f"%%MatrixMarket matrix coordinate pattern general\n% c\n{sizes}\n")
    with pytest.raises(ValueError, match=rf"^.*sizes\.mtx:3: {message}$"):
        read_matrix_market(path)


def test_matrix_market_entry_count_mismatch(tmp_path):
    path = tmp_path / "short.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 3\n1 1\n2 2\n")
    with pytest.raises(ValueError):
        read_matrix_market(path)


def test_matrix_market_gzip(tmp_path, tiny_graph):
    import gzip

    plain = tmp_path / "g.mtx"
    write_matrix_market(tiny_graph, plain)
    gz = tmp_path / "g.mtx.gz"
    gz.write_bytes(gzip.compress(plain.read_bytes()))
    back = read_matrix_market(gz)
    assert back.n_edges == tiny_graph.n_edges


def test_matrix_market_gzip_write_roundtrip(tmp_path, tiny_graph):
    # Regression: write_matrix_market could not produce the .mtx.gz files
    # read_matrix_market accepts, so gz round-trips broke.
    import gzip

    gz = tmp_path / "g.mtx.gz"
    write_matrix_market(tiny_graph, gz)
    with gzip.open(gz, "rt") as fh:  # really compressed, not plain text
        assert fh.readline().startswith("%%MatrixMarket")
    back = read_matrix_market(gz)
    assert back.shape == tiny_graph.shape
    assert back.content_hash() == tiny_graph.content_hash()
    assert back.name == "g"


def test_matrix_market_malformed_entry_line(tmp_path):
    # Regression: a one-token entry line used to surface as a bare IndexError.
    path = tmp_path / "short-line.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2\n")
    with pytest.raises(ValueError, match=r"short-line\.mtx:4: malformed entry line '2'"):
        read_matrix_market(path)


def test_matrix_market_non_integer_entry(tmp_path):
    path = tmp_path / "nonint.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\nx y\n")
    with pytest.raises(ValueError, match=r"nonint\.mtx:3: non-integer indices"):
        read_matrix_market(path)


def test_matrix_market_entry_outside_declared_size(tmp_path):
    # Regression: 1-based indices outside the declared size used to crash the
    # CSR builder instead of raising a ValueError naming the offending line.
    path = tmp_path / "oob.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n3 1\n")
    with pytest.raises(ValueError, match=r"oob\.mtx:4: row index 3 outside the declared size 2"):
        read_matrix_market(path)
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 0\n")
    with pytest.raises(
        ValueError, match=r"oob\.mtx:3: column index 0 outside the declared size 2"
    ):
        read_matrix_market(path)


# ------------------------------------------------------------ edge weights
def test_from_edges_weights_deduplicate_to_maximum():
    graph = from_edges(
        [(0, 0), (0, 1), (0, 0)], n_rows=2, n_cols=2, weights=[1.0, 2.0, 7.0]
    )
    assert graph.has_weights
    assert graph.edge_weight(0, 0) == 7.0  # parallel edges keep the best weight
    assert graph.edge_weight(0, 1) == 2.0
    with pytest.raises(ValueError, match="one entry per edge pair"):
        from_edges([(0, 0)], n_rows=1, n_cols=1, weights=[1.0, 2.0])


def test_content_hash_distinguishes_weights():
    edges = [(0, 0), (0, 1), (1, 1)]
    bare = from_edges(edges, n_rows=2, n_cols=2)
    light = from_edges(edges, n_rows=2, n_cols=2, weights=[1.0, 2.0, 3.0])
    heavy = from_edges(edges, n_rows=2, n_cols=2, weights=[9.0, 2.0, 3.0])
    # Same structure, different weights: three distinct cache identities ...
    assert len({bare.content_hash(), light.content_hash(), heavy.content_hash()}) == 3
    # ... and weightless graphs hash as before weights existed (the name
    # never participates), so stripping the weights restores the old key.
    assert light.with_weights(None).content_hash() == bare.content_hash()
    assert light.with_name("renamed").content_hash() == light.content_hash()
    same = from_edges(edges, n_rows=2, n_cols=2, weights=[1.0, 2.0, 3.0])
    assert same.content_hash() == light.content_hash()


@pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
def test_matrix_market_weighted_roundtrip(tmp_path, suffix):
    rng = np.random.default_rng(5)
    base = uniform_random_bipartite(40, 35, avg_degree=3.0, seed=6)
    graph = base.with_weights(rng.uniform(-3.0, 9.0, base.n_edges))
    path = tmp_path / f"weighted.{suffix}"
    write_matrix_market(graph, path)
    back = read_matrix_market(path, with_weights=True)
    assert np.array_equal(back.weights, graph.weights)  # %.17g round-trips exactly
    assert back.content_hash() == graph.content_hash()
    # Write → read → write → read reaches a fixed point.
    again = tmp_path / f"again.{suffix}"
    write_matrix_market(back, again)
    assert read_matrix_market(again, with_weights=True).content_hash() == graph.content_hash()
    # Reading the same file without weights recovers the bare structure.
    assert read_matrix_market(path).content_hash() == base.content_hash()


def test_matrix_market_weighted_symmetric_expansion(tmp_path):
    path = tmp_path / "sym.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n2 1 4.5\n3 3 2.0\n"
    )
    graph = read_matrix_market(path, with_weights=True)
    assert graph.edge_weight(1, 0) == 4.5
    assert graph.edge_weight(0, 1) == 4.5  # mirrored entry carries the value
    assert graph.edge_weight(2, 2) == 2.0


def test_matrix_market_weighted_skew_symmetric_negates_mirror(tmp_path):
    # Regression: the mirrored entry of a skew-symmetric value file is -A[i,j]
    # per the Matrix-Market spec; it used to be copied with the wrong sign.
    path = tmp_path / "skew.mtx"
    path.write_text(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n3 3 1\n2 1 4.5\n"
    )
    graph = read_matrix_market(path, with_weights=True)
    assert graph.edge_weight(1, 0) == 4.5
    assert graph.edge_weight(0, 1) == -4.5


def test_matrix_market_weight_errors(tmp_path):
    path = tmp_path / "pat.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n2 2 1\n1 1\n")
    with pytest.raises(ValueError, match="with_weights=True needs a 'real' or 'integer'"):
        read_matrix_market(path, with_weights=True)
    path = tmp_path / "noval.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n")
    with pytest.raises(ValueError, match=r"noval\.mtx:3: .* has no value"):
        read_matrix_market(path, with_weights=True)
    path = tmp_path / "badval.mtx"
    path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 zz\n")
    with pytest.raises(ValueError, match=r"badval\.mtx:3: non-numeric value"):
        read_matrix_market(path, with_weights=True)


# ---------------------------------------------------------------------------
# streaming reader / writer / chunked hashing
# ---------------------------------------------------------------------------
def _gzip_copy(path, dest):
    import gzip

    dest.write_bytes(gzip.compress(path.read_bytes()))
    return dest


@pytest.mark.parametrize(
    "body, message",
    [
        ("2 2 2\n1 1\n9 1\n", r"{name}:4: row index 9 outside the declared size 2"),
        ("2 2 2\n1 1\nx 1\n", r"{name}:4: non-integer indices in entry line 'x 1'"),
        ("2 2 2\n1 1\n2\n", r"{name}:4: malformed entry line '2'"),
        ("2 2 2\n1 1\n", r"{name}: expected 2 entries, found 1"),
        ("2 2 1\n1 1\n2 2\n", r"{name}: more entries than declared \(1\)"),
    ],
)
def test_matrix_market_gz_reports_logical_line_numbers(tmp_path, body, message):
    # Regression: .mtx.gz errors must cite the same *logical* line number as
    # the uncompressed file, not a byte offset or a compressed-stream count.
    header = "%%MatrixMarket matrix coordinate pattern general\n"
    plain = tmp_path / "bad.mtx"
    plain.write_text(header + body)
    gz = _gzip_copy(plain, tmp_path / "bad.mtx.gz")
    with pytest.raises(ValueError, match=message.format(name=r"bad\.mtx")) as plain_err:
        read_matrix_market(plain)
    with pytest.raises(ValueError, match=message.format(name=r"bad\.mtx\.gz")) as gz_err:
        read_matrix_market(gz)
    # Identical messages apart from the path itself.
    assert str(plain_err.value).replace("bad.mtx", "X") == str(
        gz_err.value
    ).replace("bad.mtx.gz", "X")


def test_matrix_market_stream_chunks_match_bulk_read(tmp_path):
    from repro.graph.io import MatrixMarketStream

    graph = uniform_random_bipartite(60, 50, avg_degree=5.0, seed=44)
    path = tmp_path / "g.mtx"
    write_matrix_market(graph, path)
    rows, cols = [], []
    with MatrixMarketStream(path, chunk_entries=7) as stream:
        assert stream.header.n_rows == 60 and stream.header.n_cols == 50
        for r, c, values in stream:
            assert values is None
            assert 0 < r.size <= 7
            rows.append(r)
            cols.append(c)
    streamed = from_edges(
        np.column_stack([np.concatenate(rows), np.concatenate(cols)]),
        n_rows=60,
        n_cols=50,
    )
    assert streamed.content_hash() == graph.content_hash()


class _PerLineStream(MatrixMarketStream):
    """The stream with every chunk parsed line by line: the reference."""

    _parse_chunk = MatrixMarketStream._parse_chunk_slow


class _CountingStream(MatrixMarketStream):
    """The stream, counting the entries its per-line parse returns."""

    slow_entries = 0

    def _parse_chunk_slow(self, lines, first, remaining):
        rows, cols, values = super()._parse_chunk_slow(lines, first, remaining)
        self.slow_entries += len(rows)
        return rows, cols, values


def _mtx_text(field, symmetry, rng, n_entries=60, n=9, noise=True):
    """A small coordinate file with ``%`` and blank lines among the entries."""
    lines = [f"%%MatrixMarket matrix coordinate {field} {symmetry}", "% generated"]
    lines.append(f"{n} {n} {n_entries}")
    for k in range(n_entries):
        i = int(rng.integers(1, n + 1))
        j = int(rng.integers(1, i + 1)) if symmetry != "general" else int(rng.integers(1, n + 1))
        entry = f"{i} {j}"
        if field == "integer":
            entry += f" {int(rng.integers(-9, 10))}"
        elif field == "real":
            entry += f" {rng.normal():.17g}"
        elif field == "complex":
            entry += f" {rng.normal():.6g} {rng.normal():.6g}"
        if noise and k % 7 == 3:
            entry = "  " + entry + " % trailing note"
        elif noise and k % 7 == 5:
            entry += "%glued note"
        lines.append(entry)
        if noise and k % 5 == 1:
            lines.append(["", "% between entries", "   ", "\t% indented"][k % 4])
    return "\n".join(lines) + "\n\n"


@pytest.mark.parametrize("suffix", ["mtx", "mtx.gz"])
@pytest.mark.parametrize("chunk_entries", [1, 7, None])
@pytest.mark.parametrize("symmetry", ["general", "symmetric", "skew-symmetric", "hermitian"])
@pytest.mark.parametrize("field", ["pattern", "integer", "real", "complex"])
def test_stream_fast_parse_equals_per_line_parse(tmp_path, field, symmetry, chunk_entries, suffix):
    plain = tmp_path / "m.mtx"
    plain.write_text(_mtx_text(field, symmetry, np.random.default_rng(len(field + symmetry))))
    path = plain if suffix == "mtx" else _gzip_copy(plain, tmp_path / "m.mtx.gz")
    kwargs = {} if chunk_entries is None else {"chunk_entries": chunk_entries}
    for with_values in (False, True) if field in ("integer", "real") else (False,):
        fast = _CountingStream(path, with_values=with_values, **kwargs)
        with fast, _PerLineStream(path, with_values=with_values, **kwargs) as slow:
            fast_chunks, slow_chunks = list(fast), list(slow)
        assert fast.slow_entries == 0  # every entry came from np.loadtxt
        assert len(fast_chunks) == len(slow_chunks) > 0
        for got, expected in zip(fast_chunks, slow_chunks, strict=True):
            _assert_same_arrays(got, expected)


@pytest.mark.parametrize("chunk_entries", [1, 2, 1 << 17])
def test_stream_reads_a_last_line_without_newline(tmp_path, chunk_entries):
    path = tmp_path / "open-end.mtx"
    path.write_text("%%MatrixMarket matrix coordinate pattern general\n3 3 3\n1 1\n2 3\n3 2")
    with MatrixMarketStream(path, chunk_entries=chunk_entries) as stream:
        chunks = list(stream)
    assert np.concatenate([rows for rows, _, _ in chunks]).tolist() == [0, 1, 2]
    assert np.concatenate([cols for _, cols, _ in chunks]).tolist() == [0, 2, 1]


@pytest.mark.parametrize(
    "text, with_values, message",
    [
        (
            "%%MatrixMarket matrix coordinate pattern general\n3 4 2\n1 2 3\n4\n",
            False,
            r"{name}:4: malformed entry line '4' \(expected at least 'row col'\)$",
        ),
        (
            "%%MatrixMarket matrix coordinate real general\n3 4 2\n1 2 3 1\n2 3\n",
            True,
            r"{name}:4: entry line '2 3' has no value \(expected 'row col value'\)$",
        ),
    ],
    ids=["pattern", "real"],
)
def test_stream_rejects_ragged_lines_at_any_chunk_size(tmp_path, text, with_values, message):
    # Regression: the chunk parse used to check only a chunk's token total,
    # so `1 2 3` / `4` read as the edges (0, 1) and (2, 3), and `1 2 3 1` /
    # `2 3` as (0, 1) twice with weight 3.0.
    path = tmp_path / "ragged.mtx"
    path.write_text(text)
    for chunk_entries in (1, 1 << 17):
        with pytest.raises(ValueError, match=message.format(name=r"ragged\.mtx")):
            with MatrixMarketStream(
                path, with_values=with_values, chunk_entries=chunk_entries
            ) as stream:
                list(stream)
    with pytest.raises(ValueError, match=message.format(name=r"ragged\.mtx")):
        read_matrix_market(path, with_weights=with_values)


def test_matrix_market_stream_writer_round_trips(tmp_path):
    from repro.graph.io import MatrixMarketStreamWriter

    graph = uniform_random_bipartite(40, 40, avg_degree=4.0, seed=45)
    edges = graph.edges()
    path = tmp_path / "w.mtx.gz"
    with MatrixMarketStreamWriter(
        path, n_rows=40, n_cols=40, n_entries=graph.n_edges
    ) as writer:
        for start in range(0, graph.n_edges, 11):
            chunk = edges[start : start + 11]
            writer.write_chunk(chunk[:, 0], chunk[:, 1])
    assert read_matrix_market(path).content_hash() == graph.content_hash()


def test_matrix_market_stream_writer_checks_declared_count(tmp_path):
    from repro.graph.io import MatrixMarketStreamWriter

    writer = MatrixMarketStreamWriter(tmp_path / "w.mtx", n_rows=3, n_cols=3, n_entries=2)
    writer.write_chunk(np.array([0]), np.array([1]))
    with pytest.raises(ValueError, match="declared 2 entries but wrote 1"):
        writer.close()


def test_chunked_content_hash_equals_in_memory(tmp_path):
    # The streamed digest must be byte-identical to BipartiteGraph.content_hash
    # regardless of how the arrays are split into chunks.
    from repro.graph.io import ChunkedContentHasher, chunked_content_hash

    graph = uniform_random_bipartite(80, 70, avg_degree=6.0, seed=46)

    def split(arr, size):
        return [arr[i : i + size] for i in range(0, len(arr), size)] or [arr]

    for chunk in (1, 7, 10_000):
        digest = chunked_content_hash(
            graph.n_rows,
            graph.n_cols,
            split(graph.col_ptr, chunk),
            split(graph.col_ind, chunk),
            split(graph.row_ptr, chunk),
            split(graph.row_ind, chunk),
        )
        assert digest == graph.content_hash()

    weighted = graph.with_weights(np.linspace(1.0, 2.0, graph.n_edges))
    digest = chunked_content_hash(
        graph.n_rows,
        graph.n_cols,
        graph.col_ptr,
        graph.col_ind,
        graph.row_ptr,
        graph.row_ind,
        weights=split(weighted.weights, 13),
    )
    assert digest == weighted.content_hash()

    hasher = ChunkedContentHasher(3, 3)
    hasher.update("row_ptr", np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="sections must arrive in CSR order"):
        hasher.update("col_ind", np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="unknown section"):
        hasher.update("values", np.zeros(1, dtype=np.int64))


@pytest.mark.parametrize(
    "weights, capacities, digest",
    [
        (None, None, "ee6632eeb4c766f38f65e1b945f3c59e22d3a7800d2519a3e0b6fbb878c8e4b5"),
        ("uniform:1:100", None,
         "1d96e7fc5cf22f1e9e23a44e4a9981e6f8e8f77c4ce824580a7d57acaa10693c"),
        (None, "cols:2", "1d9d612c445b7f9dbaf2b502d2b10bf38a189ad015bd5106c3b7eada1627a176"),
    ],
)
def test_content_hash_digests_are_pinned(weights, capacities, digest):
    # Persistent result caches are keyed on these digests, so the byte
    # layout must never move.
    from repro.generators import apply_capacity_spec, apply_weight_spec, generate_instance

    graph = generate_instance("amazon0505", profile="tiny", seed=20130421)
    if weights is not None:
        graph = apply_weight_spec(graph, weights, seed=20130421)
    if capacities is not None:
        graph = apply_capacity_spec(graph, capacities, seed=20130421)
    assert graph.content_hash() == digest
