"""Result caches for the matching service.

Two implementations with the same ``get`` / ``put`` protocol:

* :class:`ResultCache` — in-process LRU keyed by
  :meth:`MatchingJob.cache_key`, bounded by ``max_entries``.
* :class:`DiskCache` — persistent pickle-per-key store so repeated CLI
  invocations (``python -m repro.cli batch``) hit the cache across
  processes.

Both count hits and misses; the service aggregates those into its batch
reports.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
from collections import OrderedDict
from pathlib import Path

from repro.matching import MatchingResult

__all__ = ["DiskCache", "ResultCache"]


class ResultCache:
    """Bounded in-memory LRU cache of :class:`MatchingResult` objects."""

    def __init__(self, max_entries: int = 1024) -> None:
        if max_entries <= 0:
            raise ValueError("max_entries must be positive")
        self.max_entries = int(max_entries)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, MatchingResult] = OrderedDict()

    def get(self, key: tuple) -> MatchingResult | None:
        """The cached result for ``key``, or ``None`` (counted as a miss).

        Hits are returned as copies so a caller mutating a served result
        cannot corrupt the cached entry.
        """
        with self._lock:
            result = self._entries.get(key)
            if result is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return result.copy()

    def put(self, key: tuple, result: MatchingResult) -> None:
        """Store ``result``, evicting the least-recently-used entry when full.

        A private copy is stored, so later mutation of ``result`` by the
        caller cannot reach the cache.
        """
        with self._lock:
            self._entries[key] = result.copy()
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries


class DiskCache:
    """Persistent result cache: one pickle file per key under ``directory``.

    File names are the SHA-256 of the key's repr — the key already contains
    the graph's content hash, so collisions would require a SHA-256 collision.
    Corrupt or unreadable entries are treated as misses and overwritten on
    the next ``put``, and so are stale ones: a result pickled before every
    solver priced its own work has no float ``modeled_time``.
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()

    def _path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr(key).encode("utf-8")).hexdigest()
        return self.directory / f"{digest}.pkl"

    def get(self, key: tuple) -> MatchingResult | None:
        path = self._path(key)
        try:
            with path.open("rb") as fh:
                result = pickle.load(fh)
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError):
            with self._lock:
                self.misses += 1
            return None
        if not isinstance(result, MatchingResult) or not isinstance(
            getattr(result, "modeled_time", None), float
        ):
            with self._lock:
                self.misses += 1
            return None
        with self._lock:
            self.hits += 1
        return result

    def put(self, key: tuple, result: MatchingResult) -> None:
        path = self._path(key)
        # Unique temp name per writer: concurrent processes missing on the
        # same key must not interleave writes before the atomic rename.
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                pickle.dump(result, fh, protocol=pickle.HIGHEST_PROTOCOL)
            Path(tmp).replace(path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise

    def clear(self) -> None:
        for path in self.directory.glob("*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.pkl"))
