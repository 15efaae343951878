"""Artifact-cache behavior: hits, corruption, eviction, bypass."""

from __future__ import annotations

import pickle
import random

import pytest

from repro.arch import ArchConfig, Interconnect, Topology
from repro.compiler import compile_dag
from repro.runner.cache import (
    ArtifactCache,
    NullCache,
    cache_env,
    cached_compile,
    cached_fused_plan,
    configure_cache,
    get_cache,
)
from repro.runner.fingerprint import COMPILER_CACHE_VERSION
from repro.sim import BatchSimulator
from repro.testing import make_random_dag, permute_dag

CONFIG = ArchConfig(depth=2, banks=8, regs_per_bank=16)


@pytest.fixture
def cache(tmp_path) -> ArtifactCache:
    return configure_cache(tmp_path / "cache")


def test_miss_then_hit_round_trips_the_result(cache):
    dag = make_random_dag(seed=5)
    cold = cached_compile(dag, CONFIG)
    assert (cache.hits, cache.misses) == (0, 1)
    warm = cached_compile(dag, CONFIG)
    assert (cache.hits, cache.misses) == (1, 1)
    assert warm.node_map == cold.node_map
    assert warm.stats.bank_conflicts == cold.stats.bank_conflicts
    assert [i.mnemonic for i in warm.program.instructions] == [
        i.mnemonic for i in cold.program.instructions
    ]


def test_hit_matches_a_live_compile_exactly(cache):
    dag = make_random_dag(seed=6)
    cached_compile(dag, CONFIG)  # populate
    warm = cached_compile(dag, CONFIG)
    live = compile_dag(dag, CONFIG, validate_input=False)
    assert warm.node_map == live.node_map
    assert warm.program.instructions == live.program.instructions


def test_hit_on_a_permuted_dag_remaps_node_map(cache):
    dag = make_random_dag(seed=7)
    cached_compile(dag, CONFIG)
    perm = list(range(dag.num_nodes))
    random.Random(3).shuffle(perm)
    permuted = permute_dag(dag, perm)
    warm = cached_compile(permuted, CONFIG)
    assert cache.hits == 1
    # The remapped node_map must point every sink at a variable that
    # holds that sink's value: check through the simulator.
    rng = random.Random(9)
    inputs = [rng.uniform(0.9, 1.1) for _ in range(permuted.num_inputs)]
    from repro.sim import evaluate_dag, run_program

    golden = evaluate_dag(permuted, inputs)
    sim = run_program(warm.program, inputs)
    for sink in permuted.sinks():
        assert sim.values[warm.node_map[sink]] == pytest.approx(
            golden[sink]
        )


def test_truncated_artifact_falls_back_to_recompile(cache):
    dag = make_random_dag(seed=8)
    cold = cached_compile(dag, CONFIG)
    (entry,) = cache.entries()
    entry.write_bytes(entry.read_bytes()[: entry.stat().st_size // 3])
    warm = cached_compile(dag, CONFIG)  # must not raise
    assert warm.program.instructions == cold.program.instructions
    assert cache.hits == 0 and cache.misses == 2
    # The bad artifact was dropped and rewritten by the recompile.
    assert len(cache.entries()) == 1
    assert cache.get(cold.cache_key)["result"] is not None


def test_garbage_artifact_is_a_miss(cache):
    dag = make_random_dag(seed=9)
    cached_compile(dag, CONFIG)
    (entry,) = cache.entries()
    entry.write_bytes(b"not a pickle at all")
    assert cached_compile(dag, CONFIG) is not None
    entry.write_bytes(pickle.dumps({"wrong": "schema"}))
    assert cached_compile(dag, CONFIG) is not None


def test_no_cache_bypasses_reads_and_writes(tmp_path):
    cache = configure_cache(tmp_path / "cache", enabled=False)
    assert isinstance(cache, NullCache)
    dag = make_random_dag(seed=10)
    cached_compile(dag, CONFIG)
    cached_compile(dag, CONFIG)
    assert not (tmp_path / "cache").exists()  # no writes
    # And reads are bypassed too: seed a poisoned entry, then check a
    # NullCache compile never sees it.
    real = configure_cache(tmp_path / "cache")
    result = cached_compile(dag, CONFIG)
    poison = {"result": None, "var_by_digest": {}}
    real.put(result.cache_key, poison)
    configure_cache(None)
    assert cached_compile(dag, CONFIG).program is not None


def test_prune_evicts_oldest_first(cache):
    import os
    import time

    for seed in range(4):
        cached_compile(make_random_dag(seed=seed, num_ops=10), CONFIG)
    entries = cache.entries()
    assert len(entries) == 4
    # Make recency explicit regardless of filesystem timestamp
    # granularity.
    now = time.time()
    by_age = sorted(entries, key=lambda p: p.stat().st_mtime)
    for i, path in enumerate(by_age):
        os.utime(path, (now + i, now + i))
    removed = cache.prune(max_bytes=cache.size_bytes() // 2)
    assert removed >= 1
    survivors = set(cache.entries())
    # The newest artifact always survives this prune.
    assert by_age[-1] in survivors
    assert by_age[0] not in survivors


def test_clear_empties_the_store(cache):
    cached_compile(make_random_dag(seed=11, num_ops=10), CONFIG)
    assert cache.entries()
    cache.clear()
    assert not cache.entries()


def test_maintenance_never_unlinks_the_live_lock_file(cache):
    """Pin the structural guarantee that prune/clear only ever touch
    files in the ``<k[:2]>/`` shard directories: the top-level
    ``.maintenance.lock`` another
    process may be flock-ing RIGHT NOW must survive both — unlinking
    it would silently split the advisory lock into two files and
    reopen the double-eviction race it exists to close."""
    cached_compile(make_random_dag(seed=13, num_ops=10), CONFIG)
    lock = cache.directory / ".maintenance.lock"
    # A stray pickle at the top level must not be treated as an entry
    # either (entries are sharded one level down).
    stray = cache.directory / "stray.pkl"
    stray.write_bytes(b"not an artifact")
    assert lock not in cache.entries()
    assert stray not in cache.entries()
    cache.prune(max_bytes=0)
    assert lock.exists()  # created by prune's own lock acquisition
    cache.clear()
    assert lock.exists()
    assert stray.exists()


def test_cached_plan_round_trips_and_executes(cache):
    """The cached plan is the fused plan: a miss lowers, fuses and
    stores it, and a hit executes bitwise like a live lowering."""
    import numpy as np

    from repro.sim import FusedPlan

    dag = make_random_dag(seed=12)
    result = cached_compile(dag, CONFIG)
    fused_cold = cached_fused_plan(result)
    # A miss stores the fused plan only: no lowered plan beside it.
    assert len(cache.entries()) == 2  # compile result + fused plan
    result2 = cached_compile(dag, CONFIG)
    hits_before = cache.hits
    fused_warm = cached_fused_plan(result2)
    assert cache.hits == hits_before + 1
    assert isinstance(fused_warm, FusedPlan)
    assert fused_warm.fingerprint == fused_cold.fingerprint
    assert fused_warm.cycles_per_row == result.plan().cycles_per_row
    matrix = np.random.default_rng(0).uniform(
        0.9, 1.1, size=(4, dag.num_inputs)
    )
    a = BatchSimulator(result.plan()).run(matrix)  # fused on the spot
    b = BatchSimulator(fused_warm).run(matrix)
    for var, col in a.outputs.items():
        np.testing.assert_array_equal(col, b.outputs[var])
    assert a.counters == b.counters


def test_plan_lowering_without_cache_key_still_works(cache):
    dag = make_random_dag(seed=13)
    live = compile_dag(dag, CONFIG, validate_input=False)
    # No cache_key -> live lowering and fusion, nothing stored.
    assert cached_fused_plan(live) is not None
    assert cache.entries() == []


def test_interconnect_topology_separates_entries(cache):
    dag = make_random_dag(seed=14)
    a = cached_compile(dag, CONFIG, topology=Topology.OUTPUT_PER_LAYER)
    b = cached_compile(dag, CONFIG, topology=Topology.OUTPUT_SINGLE)
    assert cache.misses == 2 and cache.hits == 0
    assert a.cache_key != b.cache_key


def test_cache_env_round_trip(tmp_path):
    cache = configure_cache(tmp_path / "c")
    env = cache_env(cache)
    assert env["REPRO_CACHE_DIR"] == str(tmp_path / "c")
    env = cache_env(NullCache())
    assert env["REPRO_NO_CACHE"] == "1"


def test_get_cache_resolves_environment(tmp_path, monkeypatch):
    from repro.runner import cache as cache_mod

    monkeypatch.setattr(cache_mod, "_default_cache", None)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    assert isinstance(get_cache(), ArtifactCache)
    monkeypatch.setattr(cache_mod, "_default_cache", None)
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    assert isinstance(get_cache(), NullCache)


def test_compiler_cache_version_in_key(cache, monkeypatch):
    dag = make_random_dag(seed=15)
    first = cached_compile(dag, CONFIG)
    from repro.runner import fingerprint

    monkeypatch.setattr(
        fingerprint,
        "COMPILER_CACHE_VERSION",
        COMPILER_CACHE_VERSION + "-bumped",
    )
    second = cached_compile(dag, CONFIG)
    assert first.cache_key != second.cache_key
    assert cache.misses == 2


class TestConcurrentAccess:
    """Serving makes cross-process cache races routine: readers,
    writers and maintenance must be able to hammer one directory."""

    def _payloads(self, cache, count=12):
        for i in range(count):
            cache.put(f"{i:02d}key{i}", {"i": i, "blob": b"x" * 256})

    def test_threads_hammering_put_get_prune_clear(self, tmp_path):
        import threading

        cache = ArtifactCache(tmp_path / "shared")
        errors = []

        def writer(worker):
            try:
                for i in range(30):
                    cache.put(f"{worker}{i:02d}w", {"w": worker, "i": i})
            except Exception as exc:  # pragma: no cover - the assert
                errors.append(exc)

        def reader():
            try:
                for i in range(60):
                    payload = cache.get(f"{i % 4}{i % 30:02d}w")
                    assert payload is None or "w" in payload
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def maintainer():
            try:
                for _ in range(10):
                    cache.prune(max_bytes=512)
                    cache.size_bytes()
                cache.clear()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = (
            [threading.Thread(target=writer, args=(w,)) for w in range(4)]
            + [threading.Thread(target=reader) for _ in range(2)]
            + [threading.Thread(target=maintainer) for _ in range(2)]
        )
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # The store is still usable afterwards.
        cache.put("aakey", {"ok": True})
        assert cache.get("aakey") == {"ok": True}

    def test_processes_racing_writes_converge(self, tmp_path):
        """Concurrent atomic writers on the same keys never produce a
        torn artifact: every surviving entry loads cleanly."""
        import multiprocessing as mp

        directory = tmp_path / "mp-shared"
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(target=_hammer_cache, args=(str(directory), w))
            for w in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        cache = ArtifactCache(directory)
        loaded = 0
        for path in cache.entries():
            key = path.stem
            payload = cache.get(key)
            assert payload is not None, key
            loaded += 1
        assert loaded > 0

    def test_prune_tolerates_vanishing_entries(self, cache, monkeypatch):
        self._payloads(cache)
        entries = cache.entries()
        assert entries
        # Simulate a racing maintainer: a file disappears between the
        # glob and the stat/unlink.
        entries[0].unlink()
        removed = cache.prune(max_bytes=0)
        assert removed >= len(entries) - 1
        assert cache.size_bytes() == 0

    def test_size_bytes_tolerates_vanishing_entries(self, cache):
        self._payloads(cache, count=3)
        real_entries = ArtifactCache.entries

        def racing_entries(self_):
            paths = real_entries(self_)
            for path in paths:
                path.unlink()  # everything vanishes mid-scan
            return paths

        import unittest.mock as mock

        with mock.patch.object(ArtifactCache, "entries", racing_entries):
            assert cache.size_bytes() == 0

    def test_clear_then_reuse(self, cache):
        self._payloads(cache)
        cache.clear()
        assert cache.entries() == []
        cache.put("zzkey", {"fresh": 1})
        assert cache.get("zzkey") == {"fresh": 1}


class TestBinaryPlanImages:
    """Plan images (``.img``) are no longer written, but ``entries()``
    lists every file in the shard directories, so the images an
    earlier cache layout wrote are still counted and reclaimed."""

    def _legacy_image(self, cache):
        key = "ab" + "0" * 30
        path = cache.directory / key[:2] / f"{key}.img"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"RIMG" + b"\0" * 60)
        return path

    def test_legacy_image_is_counted_and_cleared(self, cache):
        cached_compile(make_random_dag(seed=30, num_ops=10), CONFIG)
        before = cache.size_bytes()
        img = self._legacy_image(cache)
        native = cache.directory / "native" / "sweep-0123.so"
        native.parent.mkdir(parents=True)
        native.write_bytes(b"elf")
        lock = cache.directory / ".maintenance.lock"
        lock.write_bytes(b"")
        assert img in cache.entries()
        assert native not in cache.entries()
        assert cache.size_bytes() == before + img.stat().st_size
        cache.clear()
        assert not img.exists()
        assert cache.entries() == []
        assert native.exists()
        assert lock.exists()

    def test_prune_covers_images(self, cache):
        img = self._legacy_image(cache)
        cache.prune(max_bytes=0)
        assert not img.exists()

    def test_in_flight_tmp_is_not_an_entry(self, cache):
        img = self._legacy_image(cache)
        tmp = img.parent / ".abcdef01-xyz.tmp"
        tmp.write_bytes(b"partial")
        assert cache.entries() == [img]
        cache.prune(max_bytes=0)
        assert tmp.exists()  # young: may belong to a live writer


class TestPickleProtocolPin:
    """Pickle artifacts are written at protocol 5, pinned — sharded
    serving shares one cache directory across worker interpreters, so
    ``HIGHEST_PROTOCOL`` drifting upward in a newer Python would write
    entries older workers cannot read."""

    def test_protocol_constant_is_pinned(self):
        from repro.runner import cache as cache_mod

        assert cache_mod._PICKLE_PROTOCOL == 5
        assert cache_mod._PICKLE_PROTOCOL <= pickle.HIGHEST_PROTOCOL

    def test_pin_survives_a_higher_interpreter_protocol(self):
        """On a future interpreter where ``HIGHEST_PROTOCOL`` > 5, the
        module must still write protocol 5 — pinning to
        ``HIGHEST_PROTOCOL`` at import time is exactly the bug."""
        import importlib

        from repro.runner import cache as cache_mod

        original = pickle.HIGHEST_PROTOCOL
        try:
            pickle.HIGHEST_PROTOCOL = 99
            importlib.reload(cache_mod)
            assert cache_mod._PICKLE_PROTOCOL == 5
        finally:
            pickle.HIGHEST_PROTOCOL = original
            importlib.reload(cache_mod)

    def test_artifacts_written_at_protocol_5(self, cache):
        import pickletools

        cached_compile(make_random_dag(seed=37, num_ops=10), CONFIG)
        (entry,) = cache.entries()
        opcode, arg, _ = next(pickletools.genops(entry.read_bytes()))
        assert opcode.name == "PROTO" and arg == 5

    def test_cross_protocol_artifacts_still_load(self, cache):
        """An entry written by an older interpreter (protocol 4) must
        read back fine — the pin fixes writes, not reads."""
        key = "aacrossproto"
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(pickle.dumps({"legacy": True}, protocol=4))
        assert cache.get(key) == {"legacy": True}


class TestPruneIsLru:
    """Prune must evict by *recency of use*, not write order: reads
    refresh the entry's mtime, so a hot old entry survives a prune
    that evicts a cold newer one."""

    def test_read_touch_updates_mtime(self, cache):
        import os
        import time

        cache.put("aahot", {"v": 1})
        (entry,) = cache.entries()
        stale = time.time() - 3600
        os.utime(entry, (stale, stale))
        before = entry.stat().st_mtime
        assert cache.get("aahot") == {"v": 1}
        assert entry.stat().st_mtime > before

    def test_hot_entry_survives_prune_of_newer_cold_one(self, cache):
        import os
        import time

        cache.put("aahot", {"v": "old-but-hot"})
        cache.put("bbcold", {"v": "new-but-cold"})
        hot = cache.path_for("aahot")
        cold = cache.path_for("bbcold")
        # Back-date both so the write order says: hot is OLDER.
        now = time.time()
        os.utime(hot, (now - 200, now - 200))
        os.utime(cold, (now - 100, now - 100))
        # A read touches the hot entry, making it most recently USED.
        assert cache.get("aahot") is not None
        keep = max(hot.stat().st_size, cold.stat().st_size)
        cache.prune(max_bytes=keep)
        survivors = cache.entries()
        assert hot in survivors  # write-FIFO would have evicted it
        assert cold not in survivors


class TestTornWrites:
    """Crash-injection: a writer dying at the worst possible instant —
    between the tmp-file write and the rename — must never tear an
    entry a reader can observe, and the orphaned tmp it leaves behind
    must be reclaimed by maintenance."""

    def test_writer_killed_before_rename_leaves_no_entry(self, tmp_path):
        import multiprocessing as mp

        directory = tmp_path / "torn"
        ctx = mp.get_context("spawn")
        proc = ctx.Process(
            target=_die_before_rename, args=(str(directory), "aatornkey")
        )
        proc.start()
        proc.join(timeout=120)
        import signal as _signal

        assert proc.exitcode == -_signal.SIGKILL
        cache = ArtifactCache(directory)
        # Readers never see the partial write: it is a plain miss.
        assert cache.get("aatornkey") is None
        assert cache.entries() == []
        # ... but the orphaned tmp file is there, invisible to get().
        (orphan,) = list(directory.glob("*/.*.tmp"))
        assert orphan.stat().st_size > 0

    def test_prune_sweeps_stale_tmp_but_spares_fresh_ones(self, tmp_path):
        import os
        import time

        cache = ArtifactCache(tmp_path / "sweep")
        cache.put("aakeep", {"v": 1})
        shard = cache.path_for("aaorphan").parent
        shard.mkdir(parents=True, exist_ok=True)
        stale = shard / ".aaorphan-dead.tmp"
        stale.write_bytes(b"half a pickle")
        old = time.time() - 7200
        os.utime(stale, (old, old))
        fresh = shard / ".aainflight-live.tmp"
        fresh.write_bytes(b"a writer is mid-put right now")
        assert cache.stale_tmp_files() == [stale]
        cache.prune(max_bytes=cache.size_bytes())
        assert not stale.exists()  # orphan reclaimed
        assert fresh.exists()  # in-flight writer untouched
        assert cache.get("aakeep") == {"v": 1}

    def test_clear_sweeps_tmp_files_regardless_of_age(self, tmp_path):
        cache = ArtifactCache(tmp_path / "clr")
        cache.put("aakey", {"v": 1})
        shard = cache.path_for("aakey").parent
        (shard / ".aakey-dead.tmp").write_bytes(b"partial")
        cache.clear()
        assert cache.entries() == []
        assert list((tmp_path / "clr").glob("*/.*.tmp")) == []

    def test_put_fsyncs_the_tmp_before_the_rename(self, tmp_path, monkeypatch):
        import os

        events: list[str] = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        cache = ArtifactCache(tmp_path / "sync")
        cache.put("aadurable", {"v": 1})
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")

    def test_kill_hammer_never_tears_a_readable_entry(self, tmp_path):
        """Writers SIGKILLed at random points mid-hammer: every entry
        that survives must load cleanly, and the store stays usable."""
        import multiprocessing as mp
        import signal as _signal

        directory = tmp_path / "killham"
        ctx = mp.get_context("spawn")
        procs = [
            ctx.Process(
                target=_hammer_then_die,
                args=(str(directory), worker, 5 + worker * 7),
            )
            for worker in range(3)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == -_signal.SIGKILL
        cache = ArtifactCache(directory)
        for path in cache.entries():
            assert cache.get(path.stem) is not None, path.stem
        cache.put("zzafter", {"alive": True})
        assert cache.get("zzafter") == {"alive": True}


def _hammer_cache(directory: str, worker: int) -> None:
    """Child-process body for the cross-process race test (module
    level so it pickles under the spawn start method)."""
    cache = ArtifactCache(directory)
    for i in range(40):
        key = f"{i % 8:02d}shared{i % 8}"
        cache.put(key, {"worker": worker, "i": i, "pad": "p" * 128})
        payload = cache.get(key)
        assert payload is None or "worker" in payload
        if worker == 0 and i % 10 == 9:
            cache.prune(max_bytes=1024)


def _die_before_rename(directory: str, key: str) -> None:
    """Child body: SIGKILL self at the exact instant between the tmp
    write and the rename — the torn-write window put() must close."""
    import os
    import signal

    def killing_replace(src, dst):
        os.kill(os.getpid(), signal.SIGKILL)

    os.replace = killing_replace
    ArtifactCache(directory).put(key, {"big": "x" * 4096})


def _hammer_then_die(directory: str, worker: int, kill_at: int) -> None:
    """Child body: hammer puts, then SIGKILL self mid-loop so death
    lands at an arbitrary point of some write."""
    import os
    import signal

    cache = ArtifactCache(directory)
    i = 0
    while True:
        key = f"{i % 6:02d}kh{i % 6}"
        cache.put(key, {"worker": worker, "i": i, "pad": "p" * 512})
        if i >= kill_at:
            os.kill(os.getpid(), signal.SIGKILL)
        i += 1
