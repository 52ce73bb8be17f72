"""Content-addressed result cache for compute tasks.

The experiment sweeps re-execute enormous amounts of identical numeric
work: every policy in Figures 6-9 partitions the same input with the same
page-granular planner, so the exact devices (GPU/CPU) compute the same
``(kernel, block)`` pairs over and over.  The cache eliminates that
recompute by keying each result on the *content* of everything that
determines it (see
:meth:`repro.exec.task.ComputeTask.cache_key`): input-block fingerprint x
kernel x device precision path x per-HLOP seed.

Properties:

* **bit-identical**: a hit returns the exact array a miss would have
  computed -- tasks are pure and their keys cover every input.  Entries are
  stored (and served) read-only so an accidental in-place mutation raises
  instead of silently poisoning later hits.
* **thread-safe**: one lock around the index; safe under the pool backend
  and the experiment runner's ``--jobs`` fan-out.
* **bounded**: LRU eviction above ``max_bytes`` (default 512 MB) so long
  sweeps cannot grow without limit.

An experiment sweep (:class:`~repro.experiments.common.ExperimentContext`)
owns one cache and runs every runtime it builds over it -- that is what
makes it *cross-run*: the second policy of a sweep hits on the first
policy's blocks, and the entries die with the sweep.  Runtimes built
outside a sweep get a store-less backend and keep nothing.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exec.task import fingerprint_array

DEFAULT_MAX_BYTES = 512 * 1024 * 1024


class CacheIntegrityError(RuntimeError):
    """The cache's internal accounting or a stored entry is corrupt.

    Raised by :meth:`ResultCache.self_check` when the LRU index and the
    lifetime counters disagree, and by a verified :meth:`ResultCache.get`
    when a hit's stored content fingerprint no longer matches the entry
    (a poisoned or aliased cache line).
    """


@dataclass
class CacheStats:
    """Counters describing one cache's lifetime activity."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    current_bytes: int = 0
    #: Bytes of output arrays served from cache instead of recomputed.
    hit_bytes: int = 0
    #: Submissions that joined an identical task already in flight instead
    #: of computing or consulting the cache again.  A join is neither a
    #: ``hit`` (the result was not resident yet) nor a ``miss`` (nothing
    #: was recomputed); without this counter the dedup'd work is invisible
    #: and ``hit_rate`` understates how much compute the cache layer saved.
    inflight_joins: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
            "current_bytes": self.current_bytes,
            "hit_bytes": self.hit_bytes,
            "inflight_joins": self.inflight_joins,
            "hit_rate": self.hit_rate,
        }


@dataclass
class ResultCache:
    """Thread-safe LRU map from content keys to read-only result arrays."""

    max_bytes: int = DEFAULT_MAX_BYTES
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self._entries: "OrderedDict[str, np.ndarray]" = OrderedDict()
        #: Content fingerprint per key, maintained only for entries that
        #: have passed through a verifying ``get``/``put`` -- the normal
        #: path never pays for hashing.
        self._fingerprints: Dict[str, str] = {}
        self._lock = threading.Lock()

    def get(self, key: Optional[str], verify: bool = False) -> Optional[np.ndarray]:
        """The cached result for ``key``, or ``None`` (also for ``key=None``).

        With ``verify=True`` the hit's content is re-hashed and compared
        against the fingerprint recorded when it was stored; a mismatch
        raises :class:`CacheIntegrityError` (cache-key soundness: the bytes
        a hit serves must be the bytes the key was computed for).
        """
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            self.stats.hit_bytes += entry.nbytes
        if verify:
            actual = fingerprint_array(entry)
            with self._lock:
                expected = self._fingerprints.setdefault(key, actual)
            if actual != expected:
                raise CacheIntegrityError(
                    f"cache entry for key {key!r} no longer matches its stored "
                    f"fingerprint ({actual} != {expected}): poisoned entry"
                )
        return entry

    def put(
        self, key: Optional[str], result: np.ndarray, fingerprint: bool = False
    ) -> np.ndarray:
        """Store ``result`` under ``key``; returns the read-only stored array.

        A put on an existing key refreshes the entry's recency (the caller
        is about to use the returned array, which makes it the most
        recently used line -- without this, a dedup'd re-store could leave
        a hot entry at the LRU head to be evicted next).  Oversized results
        (bigger than the whole budget) are returned frozen but not stored.
        With ``fingerprint=True`` the stored entry's content hash is
        recorded so later verified ``get`` calls can audit it.
        """
        frozen = np.asarray(result)
        if frozen.flags.writeable:
            frozen = frozen.copy()
            frozen.flags.writeable = False
        if key is None:
            return frozen
        digest = fingerprint_array(frozen) if fingerprint else None
        with self._lock:
            if key not in self._entries:
                if frozen.nbytes > self.max_bytes:
                    return frozen
                self._entries[key] = frozen
                self.stats.stores += 1
                self.stats.current_bytes += frozen.nbytes
                while self.stats.current_bytes > self.max_bytes and self._entries:
                    evicted_key, evicted = self._entries.popitem(last=False)
                    self._fingerprints.pop(evicted_key, None)
                    self.stats.evictions += 1
                    self.stats.current_bytes -= evicted.nbytes
            else:
                self._entries.move_to_end(key)
            stored = self._entries.get(key, frozen)
            if digest is not None and stored is frozen:
                self._fingerprints[key] = digest
            return stored

    def self_check(self) -> None:
        """Audit internal accounting; raise :class:`CacheIntegrityError` if broken.

        Invariants: resident bytes equal the sum over stored entries,
        entry count equals stores minus evictions, every counter is
        non-negative, and no fingerprint outlives its entry.
        """
        with self._lock:
            entries = dict(self._entries)
            stats = CacheStats(**self.stats.__dict__)
            orphaned = [k for k in self._fingerprints if k not in self._entries]
        problems = []
        actual_bytes = sum(entry.nbytes for entry in entries.values())
        if actual_bytes != stats.current_bytes:
            problems.append(
                f"current_bytes={stats.current_bytes} but entries hold {actual_bytes}"
            )
        if len(entries) != stats.stores - stats.evictions:
            problems.append(
                f"{len(entries)} entries resident but stores({stats.stores}) - "
                f"evictions({stats.evictions}) = {stats.stores - stats.evictions}"
            )
        negatives = {
            name: value
            for name, value in stats.as_dict().items()
            if name != "hit_rate" and value < 0
        }
        if negatives:
            problems.append(f"negative counters: {negatives}")
        if orphaned:
            problems.append(f"fingerprints for evicted keys: {orphaned[:3]}")
        for key, entry in entries.items():
            if entry.flags.writeable:
                problems.append(f"entry {key!r} is writeable (must be frozen)")
                break
        if problems:
            raise CacheIntegrityError("; ".join(problems))

    def clear(self) -> None:
        """Drop every entry and reset the statistics."""
        with self._lock:
            self._entries.clear()
            self._fingerprints.clear()
            self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
