"""Unit tests for the content-addressed result cache."""

import threading

import numpy as np
import pytest

from repro.exec.cache import ResultCache


def _arr(n, value=1.0):
    return np.full(n, value, dtype=np.float32)


def test_miss_then_hit_round_trip():
    cache = ResultCache()
    assert cache.get("k") is None
    stored = cache.put("k", _arr(16))
    hit = cache.get("k")
    assert hit is stored
    np.testing.assert_array_equal(hit, _arr(16))
    assert cache.stats.misses == 1 and cache.stats.hits == 1
    assert cache.stats.stores == 1


def test_none_key_passthrough():
    cache = ResultCache()
    assert cache.get(None) is None
    out = cache.put(None, _arr(4))
    np.testing.assert_array_equal(out, _arr(4))
    assert len(cache) == 0
    # key=None is not counted as a miss: the task was uncacheable.
    assert cache.stats.misses == 0


def test_entries_are_read_only():
    cache = ResultCache()
    stored = cache.put("k", _arr(8))
    with pytest.raises(ValueError):
        stored[0] = 99.0
    with pytest.raises(ValueError):
        cache.get("k")[0] = 99.0


def test_put_copies_so_caller_mutation_cannot_poison():
    cache = ResultCache()
    original = _arr(8)
    cache.put("k", original)
    original[:] = -1.0
    np.testing.assert_array_equal(cache.get("k"), _arr(8))


def test_first_store_wins_for_duplicate_keys():
    cache = ResultCache()
    first = cache.put("k", _arr(8, 1.0))
    second = cache.put("k", _arr(8, 2.0))
    assert second is first
    np.testing.assert_array_equal(cache.get("k"), _arr(8, 1.0))


def test_lru_eviction_over_budget():
    entry_bytes = _arr(256).nbytes
    cache = ResultCache(max_bytes=3 * entry_bytes)
    for i in range(4):
        cache.put(f"k{i}", _arr(256, float(i)))
        cache.get(f"k{i}")
    assert len(cache) == 3
    assert cache.stats.evictions == 1
    assert cache.get("k0") is None  # the oldest fell out
    assert cache.get("k3") is not None
    assert cache.stats.current_bytes == 3 * entry_bytes


def test_oversized_result_not_stored_but_frozen():
    cache = ResultCache(max_bytes=64)
    out = cache.put("big", _arr(1024))
    assert not out.flags.writeable
    assert len(cache) == 0


def test_clear_resets_everything():
    cache = ResultCache()
    cache.put("k", _arr(8))
    cache.get("k")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.hits == 0 and cache.stats.stores == 0
    assert cache.stats.current_bytes == 0


def test_hit_rate_and_as_dict():
    cache = ResultCache()
    cache.put("k", _arr(8))
    cache.get("k")
    cache.get("absent")
    stats = cache.stats.as_dict()
    assert stats["hit_rate"] == pytest.approx(0.5)
    assert stats["hit_bytes"] == _arr(8).nbytes


def test_thread_safety_under_contention():
    cache = ResultCache(max_bytes=64 * 1024)
    errors = []

    def worker(tid):
        try:
            for i in range(200):
                key = f"k{(tid + i) % 16}"
                if cache.get(key) is None:
                    cache.put(key, _arr(64, float(i)))
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    total = cache.stats.hits + cache.stats.misses
    assert total == 8 * 200


# ------------------------------------------------------- LRU audit (PR 4)


def test_get_refreshes_recency():
    """A hit must move the entry to the LRU tail, or hot entries evict."""
    entry_bytes = _arr(256).nbytes
    cache = ResultCache(max_bytes=3 * entry_bytes)
    for i in range(3):
        cache.put(f"k{i}", _arr(256, float(i)))
    cache.get("k0")  # k0 is now the most recently used
    cache.put("k3", _arr(256, 3.0))
    assert cache.get("k0") is not None
    assert cache.get("k1") is None  # the stale entry fell out instead


def test_duplicate_put_refreshes_recency():
    entry_bytes = _arr(256).nbytes
    cache = ResultCache(max_bytes=3 * entry_bytes)
    for i in range(3):
        cache.put(f"k{i}", _arr(256, float(i)))
    cache.put("k0", _arr(256, 9.0))  # duplicate store touches k0
    cache.put("k3", _arr(256, 3.0))
    assert cache.get("k0") is not None
    assert cache.get("k1") is None


def test_verified_get_checks_fingerprint():
    from repro.exec.cache import CacheIntegrityError

    cache = ResultCache()
    cache.put("k", _arr(8), fingerprint=True)
    assert cache.get("k", verify=True) is not None  # intact entry passes
    entry = cache.get("k")
    entry.flags.writeable = True
    try:
        entry[0] = 123.0
    finally:
        entry.flags.writeable = False
    with pytest.raises(CacheIntegrityError, match="fingerprint"):
        cache.get("k", verify=True)


def test_verified_get_adopts_unvalidated_entries():
    """Entries stored without a fingerprint are adopted on first verified
    read instead of failing (mixed validated/unvalidated runs)."""
    cache = ResultCache()
    cache.put("k", _arr(8))
    assert cache.get("k", verify=True) is not None
    assert cache.get("k", verify=True) is not None


def test_self_check_passes_after_normal_traffic():
    entry_bytes = _arr(256).nbytes
    cache = ResultCache(max_bytes=2 * entry_bytes)
    for i in range(5):
        cache.put(f"k{i}", _arr(256, float(i)), fingerprint=True)
        cache.get(f"k{i % 3}")
    cache.self_check()


def test_self_check_catches_corrupted_accounting():
    from repro.exec.cache import CacheIntegrityError

    cache = ResultCache()
    cache.put("k", _arr(8))
    cache.stats.current_bytes += 1  # corrupt the byte accounting
    with pytest.raises(CacheIntegrityError):
        cache.self_check()


def test_self_check_catches_orphaned_fingerprint():
    from repro.exec.cache import CacheIntegrityError

    cache = ResultCache()
    cache.put("k", _arr(8), fingerprint=True)
    cache._fingerprints["ghost"] = "deadbeef"
    with pytest.raises(CacheIntegrityError, match="evicted keys"):
        cache.self_check()


def test_seeded_multithread_stress_keeps_counters_consistent():
    """Randomized concurrent traffic under eviction pressure: every
    counter must still reconcile exactly (the PR 4 LRU audit)."""
    entry_bytes = _arr(64).nbytes
    cache = ResultCache(max_bytes=8 * entry_bytes)
    n_threads, n_ops = 8, 300
    errors = []

    def worker(tid):
        rng = np.random.default_rng(1000 + tid)  # seeded => reproducible
        try:
            for _ in range(n_ops):
                key = f"k{rng.integers(24)}"
                if rng.random() < 0.5:
                    if cache.get(key) is None:
                        cache.put(key, _arr(64, float(tid)), fingerprint=True)
                else:
                    cache.put(key, _arr(64, float(tid)), fingerprint=True)
        except Exception as exc:  # pragma: no cover - only on failure
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    cache.self_check()  # bytes, entry count, fingerprints all reconcile
    stats = cache.stats
    assert stats.hits + stats.misses <= n_threads * n_ops
    assert stats.stores - stats.evictions == len(cache)
    assert stats.current_bytes == len(cache) * entry_bytes


def test_inflight_dedup_survives_eviction_pressure():
    """Pool-backend in-flight dedup keyed separately from the cache: an
    entry evicted between two submits must recompute, never error."""
    from repro.exec.backends import PoolBackend
    from repro.workloads.generator import generate

    call = generate("sobel", size=(64, 64), seed=3)
    spec = call.spec
    from repro.devices.gpu import GPUDevice
    from repro.exec.task import ComputeTask

    def task():
        return ComputeTask(
            device=GPUDevice("gpu0"),
            compute=spec.compute,
            block=call.data,
            ctx=call.resolve_context(),
            error_scale=spec.calibration.npu_error_scale,
            seed=11,
            channel_axis=spec.channel_axis,
            quantize_output=not spec.reduces,
            tensor_compute=spec.tensor_compute,
            kernel=spec.name,
            hlop_id=0,
        )

    cache = ResultCache(max_bytes=1)  # nothing ever fits: constant eviction
    backend = PoolBackend(jobs=4, cache=cache, validate=True)
    first = backend.submit(task()).result()
    second = backend.submit(task()).result()
    np.testing.assert_array_equal(first, second)
    cache.self_check()
