"""Persistent on-disk result store for the sweep engine.

Simulations are deterministic in their inputs — configuration,
benchmark, trace scale, footprint scale, and seed — so a finished
:class:`~repro.gpu.gpu.SimulationResult` can be keyed by a digest of
those inputs and reused across processes and invocations.  The store is
one JSON file per entry under a directory:

``<store>/<digest>.json`` -> ``{"schema": N, "key": {...}, "result": {...}}``

Entries carry a schema stamp and echo their full key, so loads are
corruption-tolerant: unparseable files, stale schema versions, and
digest collisions are *quarantined* (renamed to ``<digest>.corrupt`` so
the evidence survives for a post-mortem) and treated as misses instead
of crashing a sweep.  Writes go through a uniquely named temp file +
``os.replace`` so a crashed worker can never leave a half-written entry
behind.

The store doubles as the *shared* result tier of a worker fleet.  The
atomic rename is its only write guard: when several schedulers or
sweeps store one key at once, each renames a complete entry into
place, every one carries the same fingerprint, and the last rename
wins.  An optional ``max_bytes`` budget evicts the oldest entries (by
mtime) so the shared tier cannot grow without bound.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path
from typing import Mapping

from repro.config import canonical_key
from repro.gpu.gpu import SimulationResult

logger = logging.getLogger(__name__)

#: Bump when the entry layout or SimulationResult wire format changes:
#: old entries are then evicted on first touch instead of misread.
STORE_SCHEMA_VERSION = 1

_ENV_STORE = "REPRO_STORE"


def default_store_path() -> str | None:
    """Directory named by ``REPRO_STORE``; None disables the disk tier."""
    return os.environ.get(_ENV_STORE) or None


def fingerprint_digest(result: SimulationResult) -> str:
    """Stable hex digest of a result's fingerprint.

    Two results with equal digests ran bit-identically — the currency
    ``tests/test_pool.py``'s parallel-vs-serial sweep tests compare in.
    """
    return hashlib.sha256(canonical_key(result.fingerprint()).encode()).hexdigest()


class ResultStore:
    """Digest-keyed persistent cache of simulation results."""

    def __init__(self, path: str | Path, *, max_bytes: int | None = None) -> None:
        if max_bytes is not None and max_bytes <= 0:
            raise ValueError("max_bytes must be positive (or None for unbounded)")
        self.path = Path(path)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.stores = 0
        #: Corrupt / stale / colliding entries removed during loads
        #: (every one of these is also counted in ``quarantined``).
        self.evictions = 0
        #: Corrupt entries renamed to ``*.corrupt`` for post-mortems.
        self.quarantined = 0
        #: Healthy entries evicted to stay under the size budget.
        self.budget_evictions = 0

    # ------------------------------------------------------------------
    # Keys
    # ------------------------------------------------------------------
    def digest(self, key: Mapping) -> str:
        return hashlib.sha256(canonical_key(key).encode()).hexdigest()

    def entry_path(self, key: Mapping) -> Path:
        return self.path / f"{self.digest(key)}.json"

    # ------------------------------------------------------------------
    # Load / store
    # ------------------------------------------------------------------
    def load(self, key: Mapping) -> SimulationResult | None:
        """The stored result for ``key``, or None (counting a miss).

        Any defect in the entry — unparseable JSON, wrong schema stamp,
        a digest collision where the echoed key differs — evicts the
        file and reports a miss rather than raising.
        """
        path = self.entry_path(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            self.misses += 1
            return None
        try:
            payload = json.loads(raw)
            if payload["schema"] != STORE_SCHEMA_VERSION:
                raise ValueError(f"stale schema {payload['schema']!r}")
            if canonical_key(payload["key"]) != canonical_key(key):
                raise ValueError("key mismatch (digest collision or tamper)")
            result = SimulationResult.from_dict(payload["result"])
        except (ValueError, KeyError, TypeError) as defect:
            self._evict(path, reason=str(defect) or type(defect).__name__)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: Mapping, result: SimulationResult) -> Path:
        """Persist one result atomically; returns the entry path."""
        path = self.entry_path(key)
        payload = {
            "schema": STORE_SCHEMA_VERSION,
            "key": dict(key),
            "result": result.to_dict(),
        }
        self.path.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1
        if self.max_bytes is not None:
            self._enforce_budget(keep=path)
        return path

    # ------------------------------------------------------------------
    # Bulk iteration / snapshots (the analysis layer's loading path)
    # ------------------------------------------------------------------
    def iter_entries(self):
        """Yield ``(key_dict, result)`` for every healthy entry.

        The bulk counterpart of :meth:`load`, and what
        :meth:`repro.analysis.ResultSet.from_store` is built on.  The
        same corruption policy applies — unparseable files, stale
        schema stamps, and entries whose echoed key does not match
        their digest are quarantined and skipped — but hit/miss
        telemetry is untouched: walking the store for analysis is not
        cache traffic.  Iteration order is deterministic (sorted by
        digest).
        """
        if not self.path.is_dir():
            return
        for path in sorted(self.path.glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if payload["schema"] != STORE_SCHEMA_VERSION:
                    raise ValueError(f"stale schema {payload['schema']!r}")
                key = payload["key"]
                if self.digest(key) != path.stem:
                    raise ValueError("key does not match entry digest")
                result = SimulationResult.from_dict(payload["result"])
            except OSError:
                continue  # raced with an eviction; nothing to read
            except (ValueError, KeyError, TypeError) as defect:
                self._evict(path, reason=str(defect) or type(defect).__name__)
                continue
            yield key, result

    def keys(self) -> list[dict]:
        """Key dicts of every healthy entry (sorted by digest)."""
        return [key for key, _ in self.iter_entries()]

    def snapshot(self, destination: str | Path) -> "ResultStore":
        """Copy every healthy entry into a fresh store at ``destination``.

        Re-stores through the normal write path (schema stamp, temp
        file + rename), so the snapshot is a first-class store: it can
        be diffed with ``repro report --against``, archived as a
        baseline, or carried to another host.  Corrupt entries are
        quarantined in *this* store and excluded from the snapshot.
        """
        target = ResultStore(destination)
        if target.path.resolve() == self.path.resolve():
            raise ValueError("snapshot destination must differ from the store path")
        for key, result in self.iter_entries():
            target.store(key, result)
        return target

    # ------------------------------------------------------------------
    # Size budget
    # ------------------------------------------------------------------
    def _enforce_budget(self, *, keep: Path | None = None) -> int:
        """Evict oldest entries (by mtime) until under ``max_bytes``.

        The just-written entry (``keep``) is never evicted — a budget
        smaller than one entry must not turn every store into a no-op.
        Returns how many entries were removed.
        """
        if self.max_bytes is None or not self.path.is_dir():
            return 0
        entries = []
        total = 0
        for entry in self.path.glob("*.json"):
            try:
                stat = entry.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, entry))
            total += stat.st_size
        removed = 0
        entries.sort()
        for _mtime, size, entry in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and entry == keep:
                continue
            try:
                entry.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            self.budget_evictions += 1
            logger.info("evicted %s to stay under the store budget", entry.name)
        return removed

    def _evict(self, path: Path, *, reason: str = "corrupt entry") -> None:
        # Quarantine keeps sweeps alive through corruption without
        # destroying the evidence: the bad entry moves aside as
        # ``<digest>.corrupt`` (a later corruption of the same digest
        # overwrites it — one corpse per entry is plenty), and the load
        # path sees a plain miss.
        logger.warning(
            "quarantining corrupt result-store entry %s: %s", path, reason
        )
        corpse = path.with_suffix(".corrupt")
        try:
            os.replace(path, corpse)
            self.quarantined += 1
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        self.evictions += 1

    # ------------------------------------------------------------------
    # Introspection / maintenance
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.path.is_dir():
            return 0
        return sum(1 for _ in self.path.glob("*.json"))

    def size_bytes(self) -> int:
        """Total on-disk footprint of every entry (bytes)."""
        if not self.path.is_dir():
            return 0
        total = 0
        for entry in self.path.glob("*.json"):
            try:
                total += entry.stat().st_size
            except OSError:
                pass
        return total

    def clear(self) -> int:
        """Delete every entry (plus quarantine corpses); returns how
        many *entries* were removed."""
        removed = 0
        if self.path.is_dir():
            for entry in self.path.glob("*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            for leftover in self.path.glob("*.corrupt"):
                try:
                    leftover.unlink()
                except OSError:
                    pass
        return removed

    def info(self) -> dict:
        """Telemetry mirror of the in-memory tier's ``cache_info()``."""
        return {
            "path": str(self.path),
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "budget_evictions": self.budget_evictions,
            "max_bytes": self.max_bytes,
            "entries": len(self),
            "size_bytes": self.size_bytes(),
        }
