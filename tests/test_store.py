"""Tests for the persistent result store and result serialisation."""

import json

import pytest

from repro.config import baseline_config
from repro.gpu.gpu import SimulationResult
from repro.harness.pool import make_point, pool_context
from repro.harness.runner import Runner
from repro.harness.store import (
    STORE_SCHEMA_VERSION,
    ResultStore,
    canonical_key,
    default_store_path,
    fingerprint_digest,
)

TINY = 0.05


@pytest.fixture(scope="module")
def result():
    return Runner().run(baseline_config(), "gups", scale=TINY)


@pytest.fixture(scope="module")
def point():
    return make_point(baseline_config(), "gups", scale=TINY)


def _store_repeatedly(path, key, result, times):
    store = ResultStore(path)
    for _ in range(times):
        store.store(key, result)


class TestSerialisation:
    def test_result_dict_round_trip_preserves_fingerprint(self, result):
        wire = json.loads(json.dumps(result.to_dict()))
        restored = SimulationResult.from_dict(wire)
        assert restored.fingerprint() == result.fingerprint()
        assert restored.cycles == result.cycles
        assert restored.workload == result.workload

    def test_fingerprint_digest_is_stable(self, result):
        restored = SimulationResult.from_dict(result.to_dict())
        assert fingerprint_digest(restored) == fingerprint_digest(result)

    def test_canonical_key_is_order_insensitive(self):
        assert canonical_key({"a": 1, "b": 2}) == canonical_key({"b": 2, "a": 1})


class TestResultStore:
    def test_round_trip(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        store.store(point.store_key(), result)
        loaded = store.load(point.store_key())
        assert loaded is not None
        assert loaded.fingerprint() == result.fingerprint()
        assert store.stores == 1 and store.hits == 1 and store.misses == 0
        assert len(store) == 1

    def test_missing_entry_is_a_miss(self, tmp_path, point):
        store = ResultStore(tmp_path / "store")
        assert store.load(point.store_key()) is None
        assert store.misses == 1

    def test_corrupt_entry_is_evicted_not_raised(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        path = store.store(point.store_key(), result)
        path.write_text("{not json", encoding="utf-8")
        assert store.load(point.store_key()) is None
        assert store.evictions == 1
        assert not path.exists()

    def test_stale_schema_is_evicted(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        path = store.store(point.store_key(), result)
        payload = json.loads(path.read_text())
        payload["schema"] = STORE_SCHEMA_VERSION + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(point.store_key()) is None
        assert store.evictions == 1 and not path.exists()

    def test_key_mismatch_is_evicted(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        path = store.store(point.store_key(), result)
        payload = json.loads(path.read_text())
        payload["key"]["seed"] = 999  # simulate a digest collision
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert store.load(point.store_key()) is None
        assert store.evictions == 1 and not path.exists()

    def test_eviction_logs_a_warning(self, tmp_path, result, point, caplog):
        store = ResultStore(tmp_path / "store")
        path = store.store(point.store_key(), result)
        path.write_text("{not json", encoding="utf-8")
        with caplog.at_level("WARNING", logger="repro.harness.store"):
            assert store.load(point.store_key()) is None
        assert any(
            "quarantining corrupt result-store entry" in record.message
            for record in caplog.records
        )

    def test_corrupt_entry_is_quarantined_for_post_mortem(
        self, tmp_path, result, point
    ):
        """The bad entry moves aside as ``*.corrupt`` — evidence for a
        post-mortem — instead of being destroyed."""
        store = ResultStore(tmp_path / "store")
        path = store.store(point.store_key(), result)
        path.write_text("{not json", encoding="utf-8")
        assert store.load(point.store_key()) is None
        corpse = path.with_suffix(".corrupt")
        assert corpse.exists()
        assert corpse.read_text(encoding="utf-8") == "{not json"
        assert store.quarantined == 1
        assert store.info()["quarantined"] == 1
        # The corpse is invisible to the entry count and a later store
        # of the same key simply writes a fresh entry beside it.
        assert len(store) == 0
        store.store(point.store_key(), result)
        assert store.load(point.store_key()) is not None

    def test_clear_removes_quarantine_corpses(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        path = store.store(point.store_key(), result)
        path.write_text("{not json", encoding="utf-8")
        store.load(point.store_key())
        store.clear()
        assert list((tmp_path / "store").glob("*.corrupt")) == []

    def test_size_bytes_tracks_entries(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        assert store.size_bytes() == 0
        path = store.store(point.store_key(), result)
        assert store.size_bytes() == path.stat().st_size
        info = store.info()
        assert info["size_bytes"] == store.size_bytes()
        assert info["evictions"] == 0

    def test_runner_cache_info_surfaces_store_telemetry(
        self, tmp_path, result, point
    ):
        runner = Runner(store=tmp_path / "store")
        runner.run_cached(baseline_config(), "gups", scale=TINY)
        info = runner.cache_info()
        assert info["disk_entries"] == 1
        assert info["disk_bytes"] > 0
        assert info["disk_evictions"] == 0

    def test_clear_and_info(self, tmp_path, result, point):
        store = ResultStore(tmp_path / "store")
        store.store(point.store_key(), result)
        info = store.info()
        assert info["entries"] == 1 and info["stores"] == 1
        assert store.clear() == 1
        assert len(store) == 0

    def test_default_store_path_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert default_store_path() is None
        monkeypatch.setenv("REPRO_STORE", "")
        assert default_store_path() is None
        monkeypatch.setenv("REPRO_STORE", "/tmp/somewhere")
        assert default_store_path() == "/tmp/somewhere"


class TestSharedTier:
    """Concurrent writers and the size budget — the fleet's shared-store
    policies."""

    def test_concurrent_writers_of_one_key_leave_one_whole_entry(
        self, tmp_path, result, point
    ):
        """The atomic rename is the only write guard: two processes
        storing one key over and over each rename a complete entry into
        place, so one healthy entry and no temp file remain."""
        ctx = pool_context()
        key = point.store_key()
        path = tmp_path / "store"
        writers = [
            ctx.Process(target=_store_repeatedly, args=(path, key, result, 50))
            for _ in range(2)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert [writer.exitcode for writer in writers] == [0, 0]
        store = ResultStore(path)
        assert [entry.name for entry in path.glob("*.json")] == [
            store.entry_path(key).name
        ]
        assert fingerprint_digest(store.load(key)) == fingerprint_digest(result)
        assert list(path.glob("*.tmp")) == []

    def test_budget_evicts_oldest_entries(self, tmp_path, result, point):
        import os
        import time

        unbounded = ResultStore(tmp_path / "store")
        first = unbounded.store(point.store_key(), result)
        entry_size = first.stat().st_size
        # Budget fits roughly one entry: storing a second must evict
        # the older one and keep the newcomer.
        store = ResultStore(tmp_path / "store", max_bytes=entry_size + 10)
        newer_key = dict(point.store_key(), seed=999)
        past = time.time() - 60
        os.utime(first, (past, past))  # make `first` unambiguously older
        second = store.store(newer_key, result)
        assert not first.exists()
        assert second.exists()
        assert store.budget_evictions == 1
        assert store.info()["budget_evictions"] == 1
        assert store.info()["max_bytes"] == entry_size + 10

    def test_budget_never_evicts_the_entry_just_written(
        self, tmp_path, result, point
    ):
        store = ResultStore(tmp_path / "store", max_bytes=1)  # absurdly small
        path = store.store(point.store_key(), result)
        assert path.exists()  # keep= protects it even over budget

    def test_budget_validation(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path / "store", max_bytes=0)


class TestTwoTierIntegration:
    def test_run_cached_persists_and_reloads(self, tmp_path):
        first = Runner(store=tmp_path / "store")
        a = first.run_cached(baseline_config(), "gups", scale=TINY)
        assert first.cache_info()["disk_stores"] == 1

        second = Runner(store=tmp_path / "store")
        b = second.run_cached(baseline_config(), "gups", scale=TINY)
        info = second.cache_info()
        assert info["simulations"] == 0 and info["disk_hits"] == 1
        assert b.fingerprint() == a.fingerprint()
        # Now memoised: a third lookup is a memory hit, not a disk read.
        c = second.run_cached(baseline_config(), "gups", scale=TINY)
        assert c is b
        assert second.cache_info()["disk_hits"] == 1

    def test_scale_env_reaches_the_store_key(self, tmp_path, monkeypatch):
        runner = Runner(store=tmp_path / "store")
        monkeypatch.setenv("REPRO_SCALE", str(TINY))
        runner.run_cached(baseline_config(), "gups")
        monkeypatch.setenv("REPRO_SCALE", str(2 * TINY))
        runner.run_cached(baseline_config(), "gups")
        assert runner.cache_info()["simulations"] == 2
        assert len(runner.store) == 2

    def test_default_runner_store_tracks_env(self, tmp_path, monkeypatch):
        runner = Runner()
        monkeypatch.delenv("REPRO_STORE", raising=False)
        assert runner.store is None
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        store = runner.store
        assert store is not None and store.path == tmp_path / "store"
        assert runner.store is store  # stable while the env is unchanged


class TestBulkIteration:
    """iter_entries / keys / snapshot — the analysis loading path."""

    def _fill(self, store, point, result, seeds=(1, 2, 3)):
        keys = []
        for seed in seeds:
            key = dict(point.store_key(), seed=seed)
            store.store(key, result)
            keys.append(key)
        return keys

    def test_iter_entries_yields_every_healthy_entry(self, tmp_path, point, result):
        store = ResultStore(tmp_path / "store")
        keys = self._fill(store, point, result)
        entries = list(store.iter_entries())
        assert len(entries) == 3
        seen = {canonical_key(key) for key, _ in entries}
        assert seen == {canonical_key(key) for key in keys}
        for _key, loaded in entries:
            assert loaded.fingerprint() == result.fingerprint()

    def test_iter_entries_is_sorted_and_counts_no_cache_traffic(
        self, tmp_path, point, result
    ):
        store = ResultStore(tmp_path / "store")
        self._fill(store, point, result)
        digests = [store.digest(key) for key, _ in store.iter_entries()]
        assert digests == sorted(digests)
        assert store.hits == 0 and store.misses == 0

    def test_iter_entries_quarantines_defects_and_continues(
        self, tmp_path, point, result
    ):
        store = ResultStore(tmp_path / "store")
        self._fill(store, point, result)
        paths = sorted((tmp_path / "store").glob("*.json"))
        paths[0].write_text("not json")  # unparseable
        stale = json.loads(paths[1].read_text())
        stale["schema"] = STORE_SCHEMA_VERSION + 1  # wrong schema stamp
        paths[1].write_text(json.dumps(stale))
        assert len(list(store.iter_entries())) == 1
        assert store.quarantined == 2
        assert paths[0].with_suffix(".corrupt").exists()
        assert not paths[1].exists()

    def test_iter_entries_rejects_digest_key_mismatch(
        self, tmp_path, point, result
    ):
        store = ResultStore(tmp_path / "store")
        (key,) = self._fill(store, point, result, seeds=(1,))
        entry = store.entry_path(key)
        tampered = json.loads(entry.read_text())
        tampered["key"]["seed"] = 99  # no longer matches the digest
        entry.write_text(json.dumps(tampered))
        assert list(store.iter_entries()) == []
        assert store.quarantined == 1

    def test_iter_entries_on_missing_directory(self, tmp_path):
        assert list(ResultStore(tmp_path / "void").iter_entries()) == []

    def test_keys_lists_healthy_key_dicts(self, tmp_path, point, result):
        store = ResultStore(tmp_path / "store")
        keys = self._fill(store, point, result, seeds=(5,))
        assert store.keys() == keys

    def test_snapshot_copies_healthy_entries_only(self, tmp_path, point, result):
        store = ResultStore(tmp_path / "store")
        self._fill(store, point, result)
        victim = sorted((tmp_path / "store").glob("*.json"))[0]
        victim.write_text("garbage")
        snap = store.snapshot(tmp_path / "snap")
        assert len(snap) == 2
        # The snapshot is a first-class store: entries load normally.
        for key, loaded in snap.iter_entries():
            assert loaded.fingerprint() == result.fingerprint()

    def test_snapshot_refuses_same_path(self, tmp_path, point, result):
        store = ResultStore(tmp_path / "store")
        self._fill(store, point, result, seeds=(1,))
        with pytest.raises(ValueError, match="must differ"):
            store.snapshot(tmp_path / "store")
