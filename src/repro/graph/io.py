"""Matrix-Market I/O: in-memory readers plus the streaming/out-of-core layer.

The paper's evaluation uses 28 matrices from the University of Florida (UFL,
now SuiteSparse) sparse matrix collection, which ships Matrix-Market files.
This module reads/writes the ``coordinate`` Matrix-Market format directly
(pattern, real, integer and complex fields; general and symmetric
symmetries), so a user who *does* have the original instances can feed them
to the library unchanged.

Two access styles share one parser:

* :func:`read_matrix_market` materializes a full :class:`BipartiteGraph` —
  the right call for anything that fits in memory.
* :class:`MatrixMarketStream` yields ``(rows, cols, values)`` entry chunks
  (symmetry already expanded, indices 0-based) without ever holding the full
  edge list, which is what the sharded ingest (:mod:`repro.sharded.ingest`)
  builds on for 10^8-edge files.  :class:`MatrixMarketStreamWriter` is the
  matching chunked writer.  Both count *logical* lines — a ``.mtx.gz`` error
  names the same ``file:line`` as the uncompressed file would.

:class:`ChunkedContentHasher` computes ``BipartiteGraph.content_hash()``
incrementally from CSR chunks, so out-of-core pipelines get the exact cache
identity of the in-memory graph without materializing it.
"""

from __future__ import annotations

import gzip
import hashlib
from dataclasses import dataclass
from pathlib import Path
from collections.abc import Iterable, Iterator
from typing import TextIO

import numpy as np

from repro.graph.bipartite import BipartiteGraph
from repro.graph.builders import from_edges

__all__ = [
    "ChunkedContentHasher",
    "MatrixMarketHeader",
    "MatrixMarketStream",
    "MatrixMarketStreamWriter",
    "chunked_content_hash",
    "read_matrix_market",
    "read_matrix_market_header",
    "write_matrix_market",
]

_SUPPORTED_FIELDS = {"real", "integer", "pattern", "complex"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric", "skew-symmetric", "hermitian"}

#: Entries parsed per chunk by :class:`MatrixMarketStream`; bounds the
#: reader's working set at a few MiB regardless of file size.
DEFAULT_CHUNK_ENTRIES = 1 << 17

#: Characters :class:`MatrixMarketStream` reads at a time and splits into
#: lines.  Iterating a gzip stream line by line costs a Python-level
#: ``closed`` check per line; a small block keeps few lines read ahead.
_READ_BLOCK = 1 << 14


def _is_entry(line: str) -> bool:
    """Whether a raw line holds an entry: it is neither blank nor a comment."""
    stripped = line.strip()
    return bool(stripped) and not stripped.startswith("%")


def _open_text(path: str | Path, mode: str = "rt") -> TextIO:
    """Open ``path`` for text I/O, transparently gzipping ``.gz`` files.

    Shared by the reader and the writer so ``.mtx.gz`` round-trips: a file
    written by :func:`write_matrix_market` is always readable by
    :func:`read_matrix_market`.
    """
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, mode)
    return open(path, mode)


@dataclass(frozen=True)
class MatrixMarketHeader:
    """Parsed banner + size line of a Matrix-Market coordinate file."""

    path: str
    n_rows: int
    n_cols: int
    n_entries: int
    field: str
    symmetry: str

    @property
    def symmetric(self) -> bool:
        return self.symmetry != "general"


class MatrixMarketStream:
    """Streaming Matrix-Market reader with a bounded working set.

    Parses the banner and size line eagerly (available as :attr:`header`),
    then iterates ``(rows, cols, values)`` chunks of at most
    ``chunk_entries`` declared entries each: ``int64`` 0-based index arrays
    plus a ``float64`` value array (``None`` unless ``with_values=True``).
    Symmetric / skew-symmetric / hermitian mirrors are appended chunk-local,
    so consumers see the final expanded edge stream.

    Each chunk is a batch of raw lines that ``np.loadtxt`` parses in C.  A
    batch it rejects, or one with a surplus entry or an index outside the
    declared size, is parsed again line by line, which raises naming the
    offending ``file:line``.  Line numbers in error messages are *logical*
    line numbers counted by the parser itself — identical for ``.mtx`` and
    ``.mtx.gz`` inputs (the gzip layer never leaks decompressed byte offsets
    into diagnostics).
    """

    def __init__(
        self,
        path: str | Path,
        *,
        with_values: bool = False,
        chunk_entries: int = DEFAULT_CHUNK_ENTRIES,
    ) -> None:
        if chunk_entries < 1:
            raise ValueError(f"chunk_entries must be >= 1, got {chunk_entries}")
        self._path = Path(path)
        self._with_values = with_values
        self._chunk_entries = int(chunk_entries)
        self._fields = np.dtype(
            [("row", np.int64), ("col", np.int64)]
            + ([("value", np.float64)] if with_values else [])
        )
        self._handle: TextIO | None = _open_text(self._path)
        self._lineno = 0
        self._lines: list[str] = []  # read, not yet parsed
        self._tail: str | None = ""  # a partial last line; None at the end
        self._iterated = False
        try:
            self.header = self._parse_header()
        except Exception:
            self.close()
            raise

    # -- lifecycle ---------------------------------------------------------
    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "MatrixMarketStream":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- header ------------------------------------------------------------
    def _parse_header(self) -> MatrixMarketHeader:
        path, handle = self._path, self._handle
        header = handle.readline()
        self._lineno = 1
        if not header.startswith("%%MatrixMarket"):
            raise ValueError(f"{path}: not a Matrix-Market file (bad header {header!r})")
        parts = header.strip().split()
        if len(parts) < 5:
            raise ValueError(f"{path}: malformed Matrix-Market header {header!r}")
        _, obj, fmt, field, symmetry = parts[:5]
        if obj.lower() != "matrix" or fmt.lower() != "coordinate":
            raise ValueError(
                f"{path}: only 'matrix coordinate' files are supported, got {obj} {fmt}"
            )
        field = field.lower()
        symmetry = symmetry.lower()
        if field not in _SUPPORTED_FIELDS:
            raise ValueError(f"{path}: unsupported field {field!r}")
        if symmetry not in _SUPPORTED_SYMMETRIES:
            raise ValueError(f"{path}: unsupported symmetry {symmetry!r}")
        if self._with_values and field not in ("real", "integer"):
            raise ValueError(
                f"{path}: with_weights=True needs a 'real' or 'integer' field "
                f"(value entries), got {field!r}"
            )

        # Skip comments, read the size line.
        line = handle.readline()
        self._lineno += 1
        while line.startswith("%"):
            line = handle.readline()
            self._lineno += 1
        if not line:
            raise ValueError(f"{path}: missing size line")
        where = f"{path}:{self._lineno}"
        sizes = line.split()
        if len(sizes) != 3:
            raise ValueError(f"{where}: malformed size line {line!r}")
        try:
            n_rows, n_cols, n_entries = (int(s) for s in sizes)
        except ValueError:
            raise ValueError(f"{where}: non-integer size line {line.strip()!r}") from None
        if min(n_rows, n_cols, n_entries) < 0:
            raise ValueError(f"{where}: negative size in size line {line.strip()!r}")
        return MatrixMarketHeader(
            path=str(path),
            n_rows=n_rows,
            n_cols=n_cols,
            n_entries=n_entries,
            field=field,
            symmetry=symmetry,
        )

    # -- entry chunks ------------------------------------------------------
    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray | None]]:
        if self._handle is None:
            raise ValueError(f"{self._path}: stream is closed")
        if self._iterated:
            raise ValueError(f"{self._path}: stream already consumed (single pass)")
        self._iterated = True
        n_entries = self.header.n_entries
        consumed = 0
        while True:
            # Read at most one line more than could legally remain, so a
            # surplus entry is diagnosed in the chunk that reaches it.
            lines = self._read_lines(min(self._chunk_entries, n_entries - consumed + 1))
            if not lines:
                break
            first = self._lineno + 1
            self._lineno += len(lines)
            rows, cols, values = self._parse_chunk(lines, first, n_entries - consumed)
            if len(rows):
                consumed += len(rows)
                yield self._expand(rows, cols, values)
        if consumed != n_entries:
            raise ValueError(f"{self._path}: expected {n_entries} entries, found {consumed}")

    def _read_lines(self, count: int) -> list[str]:
        """The next ``count`` raw lines, fewer at the end of the file."""
        lines = self._lines
        while len(lines) < count and self._tail is not None:
            block = self._handle.read(_READ_BLOCK)
            if not block:
                if self._tail:
                    lines.append(self._tail)
                self._tail = None
                break
            lines += (self._tail + block).split("\n")
            self._tail = lines.pop()
        self._lines = lines[count:]
        return lines[:count]

    def _parse_chunk(self, lines: list[str], first: int, remaining: int):
        """The entries of raw ``lines`` (the first is line ``first``), 1-based.

        ``np.loadtxt`` parses the lines in C.  If it raises, or finds more
        than ``remaining`` entries or an index outside the declared size,
        the per-line parse reads the lines again and names the offending
        line.
        """
        start = 0
        while start < len(lines) and not _is_entry(lines[start]):
            start += 1
        if start == len(lines):  # no entry at all, on which loadtxt warns
            return self._parse_chunk_slow(lines, first, remaining)
        try:
            table = np.loadtxt(
                lines[start:],
                dtype=self._fields,
                comments="%",
                usecols=range(len(self._fields)),
                ndmin=1,
            )
        except ValueError:
            return self._parse_chunk_slow(lines, first, remaining)
        header = self.header
        rows, cols = table["row"], table["col"]
        if len(table) > remaining or not (
            1 <= rows.min() and rows.max() <= header.n_rows
            and 1 <= cols.min() and cols.max() <= header.n_cols
        ):
            return self._parse_chunk_slow(lines, first, remaining)
        return rows, cols, np.ascontiguousarray(table["value"]) if self._with_values else None

    def _parse_chunk_slow(self, lines: list[str], first: int, remaining: int):
        """Per-line parse of raw ``lines``: raises at the first bad line.

        Tokens end at a ``%``, as in ``np.loadtxt``; messages quote the
        whole line.  An entry past the ``remaining`` declared ones raises
        once every entry before it has parsed.
        """
        path = self._path
        header = self.header
        rows: list[int] = []
        cols: list[int] = []
        values: list[float] = []
        for lineno, raw in enumerate(lines, start=first):
            if not _is_entry(raw):
                continue
            if len(rows) == remaining:
                raise ValueError(f"{path}: more entries than declared ({header.n_entries})")
            line = raw.strip()
            tokens = line.split("%", 1)[0].split()
            if len(tokens) < 2:
                raise ValueError(
                    f"{path}:{lineno}: malformed entry line {line!r} "
                    "(expected at least 'row col')"
                )
            try:
                i, j = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: non-integer indices in entry line {line!r}"
                ) from None
            if self._with_values:
                if len(tokens) < 3:
                    raise ValueError(
                        f"{path}:{lineno}: entry line {line!r} has no value "
                        "(expected 'row col value')"
                    )
                try:
                    values.append(float(tokens[2]))
                except ValueError:
                    raise ValueError(
                        f"{path}:{lineno}: non-numeric value in entry line {line!r}"
                    ) from None
            if not 1 <= i <= header.n_rows:
                raise ValueError(
                    f"{path}:{lineno}: row index {i} outside the declared size "
                    f"{header.n_rows} in entry line {line!r}"
                )
            if not 1 <= j <= header.n_cols:
                raise ValueError(
                    f"{path}:{lineno}: column index {j} outside the declared size "
                    f"{header.n_cols} in entry line {line!r}"
                )
            rows.append(i)
            cols.append(j)
        return (
            np.array(rows, dtype=np.int64),
            np.array(cols, dtype=np.int64),
            np.array(values, dtype=np.float64) if self._with_values else None,
        )

    def _expand(self, rows, cols, values):
        """Convert to 0-based and append symmetry mirrors, chunk-local."""
        rows = rows - 1
        cols = cols - 1
        if self.header.symmetry == "general":
            return rows, cols, values
        off_diag = rows != cols
        mirror_rows = cols[off_diag]
        mirror_cols = rows[off_diag]
        out_rows = np.concatenate([rows, mirror_rows])
        out_cols = np.concatenate([cols, mirror_cols])
        if values is not None:
            mirrored = values[off_diag]
            if self.header.symmetry == "skew-symmetric":
                mirrored = -mirrored  # A[j,i] = -A[i,j]
            values = np.concatenate([values, mirrored])
        return out_rows, out_cols, values


def read_matrix_market_header(path: str | Path) -> MatrixMarketHeader:
    """Parse just the banner and size line (no entries are read)."""
    with MatrixMarketStream(path) as stream:
        return stream.header


def read_matrix_market(
    path: str | Path, name: str | None = None, *, with_weights: bool = False
) -> BipartiteGraph:
    """Read a Matrix-Market ``coordinate`` file as a bipartite graph.

    The sparsity pattern defines the edges: entry ``(i, j)`` becomes an edge
    between row vertex ``i`` and column vertex ``j``.  By default numerical
    values are ignored (cardinality matching only uses structure); with
    ``with_weights=True`` the value entries of ``real`` / ``integer`` files
    become edge weights for the :mod:`repro.weighted` solvers.  Symmetric
    matrices are expanded, matching how the paper builds bipartite graphs
    from square matrices.

    Parameters
    ----------
    path:
        Path to a ``.mtx`` or ``.mtx.gz`` file.
    name:
        Name stored on the graph; defaults to the file stem.
    with_weights:
        Read value entries as edge weights.

    Returns
    -------
    BipartiteGraph

    Raises
    ------
    ValueError
        Malformed files (each error names ``file:line``), or
        ``with_weights=True`` on a ``pattern`` / ``complex`` file.
    """
    path = Path(path)
    graph_name = name if name is not None else path.name.removesuffix(".gz").removesuffix(".mtx")
    rows_parts: list[np.ndarray] = []
    cols_parts: list[np.ndarray] = []
    value_parts: list[np.ndarray] = []
    with MatrixMarketStream(path, with_values=with_weights) as stream:
        header = stream.header
        for rows, cols, values in stream:
            rows_parts.append(rows)
            cols_parts.append(cols)
            if values is not None:
                value_parts.append(values)
    if rows_parts:
        all_rows = np.concatenate(rows_parts)
        all_cols = np.concatenate(cols_parts)
    else:
        all_rows = np.empty(0, dtype=np.int64)
        all_cols = np.empty(0, dtype=np.int64)
    weights = np.concatenate(value_parts) if value_parts else None
    edges = np.column_stack([all_rows, all_cols])
    return from_edges(
        edges, n_rows=header.n_rows, n_cols=header.n_cols, name=graph_name, weights=weights
    )


def write_matrix_market(graph: BipartiteGraph, path: str | Path) -> None:
    """Write the graph as a Matrix-Market coordinate file.

    Structural graphs are written as ``pattern`` files; weighted graphs as
    ``real`` files whose value entries are the edge weights (the ``%.17g``
    format round-trips ``float64`` exactly, so
    ``read_matrix_market(..., with_weights=True)`` recovers the same graph).
    A ``.gz`` suffix (e.g. ``matrix.mtx.gz``) writes gzip-compressed text,
    mirroring what :func:`read_matrix_market` accepts.
    """
    field = "real" if graph.has_weights else "pattern"
    with MatrixMarketStreamWriter(
        path,
        n_rows=graph.n_rows,
        n_cols=graph.n_cols,
        n_entries=graph.n_edges,
        field=field,
        comment=f"written by repro ({graph.name})",
    ) as writer:
        edges = graph.edges()
        if graph.n_edges:
            writer.write_chunk(
                edges[:, 0], edges[:, 1], graph.weights if graph.has_weights else None
            )


class MatrixMarketStreamWriter:
    """Chunked Matrix-Market writer for instances too large to materialize.

    Declares ``n_entries`` up front, accepts 0-based ``(rows, cols[, values])``
    chunks, and verifies on :meth:`close` that exactly the declared number of
    entries was written (skipped when closing on an in-flight exception, so
    the original error propagates).  Used by the disk-materializing suite
    profile and the scaling benchmarks to emit multi-gigabyte ``.mtx.gz``
    files with a fixed-size working set.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        n_rows: int,
        n_cols: int,
        n_entries: int,
        field: str = "pattern",
        comment: str | None = None,
    ) -> None:
        if field not in ("pattern", "real"):
            raise ValueError(f"unsupported writer field {field!r} (pattern or real)")
        if min(n_rows, n_cols, n_entries) < 0:
            raise ValueError("n_rows, n_cols and n_entries must be non-negative")
        self._path = Path(path)
        self._field = field
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.n_entries = int(n_entries)
        self._written = 0
        self._handle: TextIO | None = _open_text(self._path, "wt")
        self._handle.write(f"%%MatrixMarket matrix coordinate {field} general\n")
        if comment:
            self._handle.write(f"% {comment}\n")
        self._handle.write(f"{self.n_rows} {self.n_cols} {self.n_entries}\n")

    def write_chunk(self, rows, cols, values=None) -> None:
        if self._handle is None:
            raise ValueError(f"{self._path}: writer is closed")
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape or rows.ndim != 1:
            raise ValueError("rows and cols must be 1-D arrays of equal length")
        if rows.size and (
            rows.min() < 0 or rows.max() >= self.n_rows
            or cols.min() < 0 or cols.max() >= self.n_cols
        ):
            raise ValueError(
                f"{self._path}: chunk indices outside the declared "
                f"{self.n_rows}x{self.n_cols} shape"
            )
        if self._written + rows.size > self.n_entries:
            raise ValueError(
                f"{self._path}: more entries written than declared ({self.n_entries})"
            )
        if self._field == "real":
            if values is None:
                raise ValueError("a 'real' writer needs a values array per chunk")
            values = np.asarray(values, dtype=np.float64)
            if values.shape != rows.shape:
                raise ValueError("values must match rows/cols in length")
            lines = "\n".join(
                f"{u} {v} {w:.17g}"
                for u, v, w in zip((rows + 1).tolist(), (cols + 1).tolist(), values.tolist(), strict=True)
            )
        else:
            if values is not None:
                raise ValueError("a 'pattern' writer takes no values")
            lines = "\n".join(
                f"{u} {v}" for u, v in zip((rows + 1).tolist(), (cols + 1).tolist(), strict=True)
            )
        if lines:
            self._handle.write(lines)
            self._handle.write("\n")
        self._written += rows.size

    def close(self, *, check: bool = True) -> None:
        if self._handle is None:
            return
        self._handle.close()
        self._handle = None
        if check and self._written != self.n_entries:
            raise ValueError(
                f"{self._path}: declared {self.n_entries} entries but wrote {self._written}"
            )

    def __enter__(self) -> "MatrixMarketStreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        # On error, close without the count check so the original exception
        # is the one that propagates.
        self.close(check=exc_type is None)


# ------------------------------------------------------------------ hashing
class ChunkedContentHasher:
    """Incremental :meth:`BipartiteGraph.content_hash` over CSR chunks.

    The one definition of the content-hash byte layout.  Feed ``col_ptr``,
    ``col_ind``, ``row_ptr``, ``row_ind`` (each as one or many ``int64``
    chunks, in order), then optionally ``weights`` (``float64`` chunks),
    then optionally ``capacities`` (``b_row`` followed by ``b_col``, as
    ``int64`` chunks), and :meth:`hexdigest` equals ``graph.content_hash()``
    of the assembled graph.  Sections must be fed in that order; chunks
    within a section may be arbitrarily split.  This is what lets the
    out-of-core ingest compute the cache identity without a second full
    pass over the input file.
    """

    _SECTIONS = ("col_ptr", "col_ind", "row_ptr", "row_ind", "weights", "capacities")
    #: Optional sections open with a tag, so a graph with them never hashes
    #: like one without.
    _TAGS = {"weights": b"weights:", "capacities": b"capacities:"}

    def __init__(self, n_rows: int, n_cols: int) -> None:
        self._digest = hashlib.sha256()
        self._digest.update(f"bipartite:{n_rows}:{n_cols}:".encode("ascii"))
        self._section = 0

    def update(self, section: str, chunk) -> None:
        """Absorb one chunk of ``section`` (array-like of indices/weights)."""
        try:
            index = self._SECTIONS.index(section)
        except ValueError:
            raise ValueError(
                f"unknown section {section!r} (expected one of {self._SECTIONS})"
            ) from None
        if index < self._section:
            raise ValueError(
                f"section {section!r} fed after {self._SECTIONS[self._section]!r}; "
                "sections must arrive in CSR order"
            )
        if index > self._section and section in self._TAGS:
            self._digest.update(self._TAGS[section])
        self._section = index
        dtype = np.float64 if section == "weights" else np.int64
        self._digest.update(np.ascontiguousarray(np.asarray(chunk, dtype=dtype)).tobytes())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def chunked_content_hash(
    n_rows: int,
    n_cols: int,
    col_ptr: Iterable,
    col_ind: Iterable,
    row_ptr: Iterable,
    row_ind: Iterable,
    weights: Iterable | None = None,
) -> str:
    """Compute ``BipartiteGraph.content_hash()`` from chunk iterables.

    Each argument is either a single array or an iterable of array chunks
    whose concatenation is the full CSR array.  Returns the same digest as
    the in-memory graph, without ever assembling it.
    """

    def _chunks(source):
        if isinstance(source, np.ndarray):
            return (source,)
        return source

    hasher = ChunkedContentHasher(n_rows, n_cols)
    for section, source in (
        ("col_ptr", col_ptr),
        ("col_ind", col_ind),
        ("row_ptr", row_ptr),
        ("row_ind", row_ind),
    ):
        for chunk in _chunks(source):
            hasher.update(section, chunk)
    if weights is not None:
        for chunk in _chunks(weights):
            hasher.update("weights", chunk)
    return hasher.hexdigest()
