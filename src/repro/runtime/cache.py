"""On-disk cache for compiled full-stack artifacts.

Three artifact kinds are cached between runs:

* ``"compile"`` — the compiled :class:`~repro.core.circuit.Circuit` the
  OpenQL-style pass pipeline produces, keyed by the *source* circuit's
  :func:`~repro.qx.compiled.circuit_content_key`, the platform description
  and the compiler configuration;
* ``"mapping"`` — a compile-and-map artifact of a ``kind="compile"``
  point, keyed by the source circuit's content key and the pipeline
  configuration (published by the pool worker that computes it);
* ``"point"`` — a merged point result of the experiment service, keyed by
  the point's spec.

Keys are SHA-256 hashes of a canonical JSON encoding of the key parts, and
every key embeds :data:`CACHE_SCHEMA_VERSION`; bumping that constant when
the lowering format changes invalidates all previously cached entries at
once.  Values are pickles written atomically (temp file + ``os.replace``)
so concurrent writers — e.g. several pool workers lowering the same point
— can only ever publish complete entries.  Unreadable or truncated entries
are treated as misses and deleted.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
from pathlib import Path

#: Bump to invalidate every cached artifact (e.g. when a cached value's type
#: or the pass pipeline changes in a way that alters results).  Version 2:
#: compile entries hold circuits, and point results keep compiled durations.
CACHE_SCHEMA_VERSION = 2


def default_cache_dir() -> Path:
    """Cache location: ``$REPRO_RUNTIME_CACHE`` or ``~/.cache/repro-runtime``."""
    override = os.environ.get("REPRO_RUNTIME_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-runtime"


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Publish ``text`` at ``path`` via the cache's tmp + ``os.replace`` pattern.

    Readers (and a process killed mid-write) only ever observe the old
    content or the complete new content, never a torn file.  Used for
    result files and journal snapshots, so a SIGKILLed daemon cannot leave
    a partially written artifact behind.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_name, path)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return path


class ArtifactCache:
    """Content-addressed pickle store with hit/miss accounting.

    Long-lived owners (the experiment service daemon) bound the store with
    :meth:`prune`: least-recently-*written* entries (mtime order — ``get``
    does not touch files, so mtime is publication time) are evicted until
    the directory fits ``max_bytes``.  Eviction is safe against concurrent
    readers: a pruned entry simply becomes a miss and is recomputed.

    The first :meth:`size_bytes` call seeds a running byte total with one
    directory scan; from then on every change this instance makes (``put``,
    the corrupt-entry purge in ``get``, ``prune``, ``clear``) adjusts it, so
    later calls are O(1).  Bytes written by *other* processes are counted at
    the next ``prune`` or ``clear``, which reset the total from their own
    scans.  An unseeded instance (every runner and worker cache) pays no
    extra ``stat`` per ``put``.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        #: Running on-disk total; ``None`` until :meth:`size_bytes` seeds it.
        self._size: int | None = None

    # ------------------------------------------------------------------ #
    @staticmethod
    def key_for(kind: str, **parts) -> str:
        """Stable key: SHA-256 over canonical JSON of the key parts."""
        payload = json.dumps(
            {"schema": CACHE_SCHEMA_VERSION, "kind": kind, "parts": parts},
            sort_keys=True,
            separators=(",", ":"),
            default=str,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------ #
    def contains(self, key: str) -> bool:
        """Cheap existence probe, counted as a hit or miss like :meth:`get`.

        For planners that only need to know whether a worker will find an
        artifact: nothing is unpickled.  A corrupt entry probes as a hit;
        the reader's :meth:`get` purges it and its owner republishes.
        """
        found = self.path_for(key).exists()
        if found:
            self.hits += 1
        else:
            self.misses += 1
        return found

    def get(self, key: str):
        """Load a cached value, or ``None`` on a miss (corrupt entries are purged)."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError, ValueError):
            self.misses += 1
            purged = self._entry_size(path) if self._size is not None else 0
            try:
                path.unlink()
            except OSError:
                pass
            else:
                if self._size is not None:
                    self._size -= purged
            return None
        self.hits += 1
        return value

    def put(self, key: str, value) -> None:
        """Atomically publish a value under ``key``."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        descriptor, temp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(descriptor, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                written = handle.tell()
            replaced = self._entry_size(path) if self._size is not None else 0
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.writes += 1
        if self._size is not None:
            self._size += written - replaced

    # ------------------------------------------------------------------ #
    @staticmethod
    def _entry_size(path: Path) -> int:
        """Size of the entry at ``path``, 0 if there is none."""
        try:
            return path.stat().st_size
        except OSError:
            return 0

    def _entries(self) -> list[tuple[float, int, str]]:
        """``(mtime, size, path)`` per entry, unordered; vanished files are skipped."""
        entries: list[tuple[float, int, str]] = []
        with os.scandir(self.directory) as buckets:
            for bucket in buckets:
                if not bucket.is_dir():
                    continue
                with os.scandir(bucket.path) as files:
                    for entry in files:
                        if not entry.name.endswith(".pkl"):
                            continue
                        try:
                            stat = entry.stat()
                        except OSError:
                            continue
                        entries.append((stat.st_mtime, stat.st_size, entry.path))
        return entries

    def size_bytes(self) -> int:
        """Total on-disk size of all cached entries.

        The first call scans the directory and seeds the running total;
        later calls return that total without touching the disk.
        """
        if self._size is None:
            self._size = sum(size for _, size, _ in self._entries())
        return self._size

    def prune(self, max_bytes: int) -> dict:
        """Evict least-recently-written entries until the store fits ``max_bytes``.

        Returns ``{"evicted": n, "size_bytes": remaining}``.  Concurrent
        writers are fine: eviction only turns future ``get`` calls into
        misses, never corrupts an entry (writes are atomic renames).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be >= 0")
        entries = self._entries()
        total = sum(size for _, size, _ in entries)
        evicted = 0
        # Oldest mtime first; path as a deterministic tie-break.
        for _, size, path in sorted(entries, key=lambda entry: (entry[0], entry[2])):
            if total <= max_bytes:
                break
            try:
                os.unlink(path)
            except OSError:
                continue
            total -= size
            evicted += 1
        self.evictions += evicted
        self._size = total
        return {"evicted": evicted, "size_bytes": total}

    def clear(self) -> int:
        """Delete every cached entry; returns the number removed."""
        removed = 0
        remaining = 0
        for _, size, path in self._entries():
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                remaining += size
        self._size = remaining
        return removed

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
        }
