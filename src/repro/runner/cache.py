"""Content-addressed on-disk artifact cache for compiled programs.

The cache memoizes the two expensive phases of the evaluation across
processes and invocations:

* ``compile_dag`` results (:class:`~repro.compiler.CompileResult`),
  keyed by :func:`repro.runner.fingerprint.compile_key`;
* fused plans (:class:`~repro.sim.fused.FusedPlan`), the one
  artifact a batch or a served program runs from, keyed per
  interconnect topology on top of the compile key.  The
  :class:`~repro.sim.plan.ExecutionPlan` a fused plan is made from is
  lowered (and verified) on a miss and not stored.

Artifacts land under ``<dir>/<k[:2]>/<key>.pkl`` via an atomic
tmp-file (fsync'd before the rename, so a power cut cannot promote
unwritten data) + :func:`os.replace`, so concurrent workers racing on
the same key at worst redo the work — they never observe a torn file,
even when a writer is SIGKILLed between its tmp write and the rename
(the orphaned tmp is swept by the next ``prune``/``clear`` once
stale).  Payloads are pickled with an explicitly pinned protocol (5),
so shards on different Python versions sharing one cache directory
always read each other's entries.  A corrupted or truncated artifact
is treated as a miss (and unlinked), never an error: the cache must
always be safe to delete, truncate or share.  The directory is
designed to be hammered by many processes at once (the serving layer
makes cross-process races routine):
``prune``/``clear`` serialize against each other through an advisory
:mod:`fcntl` lock and tolerate entries vanishing mid-scan, while
readers racing maintenance see at worst a miss.

Because the compile key is invariant under node renumbering, a hit
may come from a structurally identical DAG with permuted node ids.
The payload therefore stores the ``node -> variable`` map keyed by
*structural node digest*, and :func:`cached_compile` re-derives the
requesting DAG's ``node_map`` from its own digests on every hit
(nodes with equal digests compute equal values, so any representative
variable is correct).

The process-wide default cache is configured with
:func:`configure_cache` (or the ``REPRO_CACHE_DIR`` /
``REPRO_NO_CACHE`` environment variables, which is also how
campaign worker processes inherit it); the library default is
*no caching* so that plain API use never touches the filesystem.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import tempfile
import time
from pathlib import Path

try:  # POSIX advisory locking; absent on some platforms.
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from ..arch import DEFAULT_TOPOLOGY, Interconnect, Topology
from ..compiler import CompileResult, compile_dag
from ..graphs import DAG, OpType
from .fingerprint import (
    compile_key,
    fused_key,
    node_digests,
    plan_key,
)

#: Default location used by the CLI when ``--cache-dir`` is omitted.
DEFAULT_CACHE_DIR = Path.home() / ".cache" / "repro-dpu-v2"

# A writer SIGKILLed between its tmp write and the rename leaks the
# tmp file; maintenance sweeps orphans older than this.  The age guard
# is what makes the sweep safe against a *live* writer's in-flight
# tmp: no put() holds its tmp open anywhere near this long.
_TMP_MAX_AGE_S = 3600.0

# Pinned explicitly — NOT pickle.HIGHEST_PROTOCOL.  The cache
# directory is shared machine-wide by the router's shard processes
# (PR 7); a shard on a newer Python writing HIGHEST_PROTOCOL would
# produce entries an older interpreter sharing the directory cannot
# read.  Protocol 5 is readable by every supported Python (3.8+).
_PICKLE_PROTOCOL = 5


class NullCache:
    """Cache stand-in that stores nothing and never hits."""

    def get(self, key: str):
        return None

    def put(self, key: str, payload) -> None:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "NullCache()"


class ArtifactCache:
    """Content-addressed store of pickled artifacts under one
    directory."""

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.hits = 0
        self.misses = 0

    def path_for(self, key: str) -> Path:
        return self.directory / key[:2] / f"{key}.pkl"

    def _touch(self, path: Path) -> None:
        """Best-effort read-recency marker for the LRU prune.

        ``prune`` orders victims by ``st_mtime``; without this, reads
        never refresh the timestamp and "LRU" degrades to write-time
        FIFO — evicting exactly the hot entries (every shard's plan-
        pool artifacts) first.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    def get(self, key: str):
        """Load a payload, treating any malformed artifact as a miss."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:
            # Truncated write, foreign file, unpicklable schema drift:
            # drop the artifact and recompute.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        self._touch(path)
        return payload

    def put(self, key: str, payload) -> None:
        """Atomically persist a payload; IO failures are non-fatal."""
        path = self.path_for(key)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    pickle.dump(payload, fh, protocol=_PICKLE_PROTOCOL)
                    # Flush to stable storage BEFORE the rename: on a
                    # power cut the rename may survive while the data
                    # does not, leaving a renamed-but-empty artifact —
                    # exactly the torn state the tmp file exists to
                    # prevent.  (get() would recover by dropping it,
                    # but a checkpoint-of-record cache should not rely
                    # on its own corruption path.)
                    fh.flush()
                    os.fsync(fh.fileno())
                os.replace(tmp, path)
            except BaseException:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
                raise
        except OSError:
            return None

    # -- maintenance ---------------------------------------------------
    def entries(self) -> list[Path]:
        """Every file in the two-character shard directories
        (``<k[:2]>/``) except in-flight ``.tmp`` files, whatever its
        suffix, so files an earlier cache layout wrote are still counted
        and reclaimed.  Nothing outside the shards is an entry: not the
        maintenance lock, nor the native-kernel builds under
        ``native/``."""
        if not self.directory.is_dir():
            return []
        return sorted(
            path
            for path in self.directory.glob("??/*")
            if not path.name.startswith(".")
        )

    @staticmethod
    def _stat_entries(paths: list[Path]) -> list[tuple[Path, os.stat_result]]:
        """Stat every entry, skipping files another process just
        removed — listing and statting can never be atomic together."""
        stats = []
        for path in paths:
            try:
                stats.append((path, path.stat()))
            except OSError:
                continue  # unlinked (or pruned) between glob and stat
        return stats

    def size_bytes(self) -> int:
        return sum(st.st_size for _, st in self._stat_entries(self.entries()))

    def stale_tmp_files(
        self, max_age_s: float = _TMP_MAX_AGE_S
    ) -> list[Path]:
        """Orphaned ``.tmp`` files: a writer was SIGKILLed between its
        tmp write and the rename, so nothing will ever rename or unlink
        them.  Only files older than ``max_age_s`` qualify — a young
        tmp may belong to a writer that is mid-``put`` right now."""
        if not self.directory.is_dir():
            return []
        cutoff = time.time() - max_age_s
        stale = []
        for path in self.directory.glob("*/.*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    stale.append(path)
            except OSError:
                continue  # the writer finished (renamed) mid-scan
        return sorted(stale)

    def _sweep_stale_tmp(self, max_age_s: float = _TMP_MAX_AGE_S) -> int:
        removed = 0
        for path in self.stale_tmp_files(max_age_s):
            try:
                path.unlink()
            except OSError:
                continue
            removed += 1
        return removed

    @contextlib.contextmanager
    def _maintenance_lock(self):
        """Advisory inter-process lock serializing ``prune``/``clear``.

        Concurrent maintenance runs would race each other's unlinks
        into double-eviction (both see the same total, both remove);
        readers and writers are *not* locked — ``get`` already treats
        a vanished or torn artifact as a plain miss and ``put`` is an
        atomic tmp-file + rename.  Falls back to unlocked on platforms
        without :mod:`fcntl` or on unwritable directories (the
        operations themselves stay safe, just less coordinated).
        """
        if fcntl is None:
            yield
            return
        lock_path = self.directory / ".maintenance.lock"
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            fd = os.open(lock_path, os.O_CREAT | os.O_RDWR, 0o644)
        except OSError:
            yield
            return
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            try:
                fcntl.flock(fd, fcntl.LOCK_UN)
            finally:
                os.close(fd)

    def prune(self, max_bytes: int) -> int:
        """Evict least-recently-used artifacts down to ``max_bytes``.

        Returns the number of artifacts removed.  Uses ``st_mtime`` as
        the recency signal; ``get`` refreshes it on every successful
        read (best-effort ``os.utime``), so eviction order is true
        least-recently-*used*, not write-time FIFO.
        Safe against concurrent readers/writers: eviction holds the
        maintenance lock, tolerates entries vanishing underneath it,
        and never touches in-progress tmp files — though it does sweep
        *stale* ones (orphans of writers killed mid-``put``, older
        than an hour), which otherwise leak forever.
        """
        with self._maintenance_lock():
            self._sweep_stale_tmp()
            entries = self._stat_entries(self.entries())
            entries.sort(key=lambda e: e[1].st_mtime)
            total = sum(st.st_size for _, st in entries)
            removed = 0
            for path, st in entries:
                if total <= max_bytes:
                    break
                try:
                    path.unlink()
                except OSError:
                    continue
                total -= st.st_size
                removed += 1
            return removed

    def clear(self) -> None:
        with self._maintenance_lock():
            self._sweep_stale_tmp(max_age_s=0.0)
            for path in self.entries():
                try:
                    path.unlink()
                except OSError:
                    pass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ArtifactCache({str(self.directory)!r})"


# ---------------------------------------------------------------------
# Process-wide default cache
# ---------------------------------------------------------------------
_default_cache: ArtifactCache | NullCache | None = None


def configure_cache(
    directory: str | os.PathLike | None, enabled: bool = True
) -> ArtifactCache | NullCache:
    """Set the process-wide default cache and return it.

    ``configure_cache(None)`` or ``enabled=False`` disables caching.
    """
    global _default_cache
    if not enabled or directory is None:
        _default_cache = NullCache()
    else:
        _default_cache = ArtifactCache(directory)
    return _default_cache


def get_cache() -> ArtifactCache | NullCache:
    """The default cache, resolved lazily from the environment.

    Resolution order: an explicit :func:`configure_cache` call, then
    ``REPRO_NO_CACHE`` (truthy disables), then ``REPRO_CACHE_DIR``,
    else caching is off.
    """
    global _default_cache
    if _default_cache is None:
        if os.environ.get("REPRO_NO_CACHE"):
            _default_cache = NullCache()
        elif os.environ.get("REPRO_CACHE_DIR"):
            _default_cache = ArtifactCache(os.environ["REPRO_CACHE_DIR"])
        else:
            _default_cache = NullCache()
    return _default_cache


def cache_env(cache: ArtifactCache | NullCache | None = None) -> dict:
    """Environment overrides that make a worker process inherit
    ``cache``; the worker applies them with :func:`adopt_cache_env`."""
    cache = cache if cache is not None else get_cache()
    if isinstance(cache, ArtifactCache):
        return {"REPRO_CACHE_DIR": str(cache.directory), "REPRO_NO_CACHE": ""}
    return {"REPRO_CACHE_DIR": "", "REPRO_NO_CACHE": "1"}


def adopt_cache_env(env: dict[str, str]) -> None:
    """Worker-side half of :func:`cache_env`: apply the overrides to
    this process's environment and configure its default cache."""
    for name, value in env.items():
        if value:
            os.environ[name] = value
        else:
            os.environ.pop(name, None)
    configure_cache(
        env.get("REPRO_CACHE_DIR") or None,
        enabled=not env.get("REPRO_NO_CACHE"),
    )


# ---------------------------------------------------------------------
# Memoized compile + fused plan
# ---------------------------------------------------------------------
def cached_compile(
    dag: DAG,
    config,
    topology: Topology = DEFAULT_TOPOLOGY,
    seed: int = 0,
    mapping_strategy: str = "conflict_aware",
    validate_input: bool = False,
    keep: frozenset[int] | set[int] | tuple[int, ...] = (),
    cache: ArtifactCache | NullCache | None = None,
) -> CompileResult:
    """``compile_dag`` memoized through the artifact cache.

    Semantically identical to :func:`repro.compiler.compile_dag` for
    every supported argument combination; ``trace_occupancy`` runs are
    deliberately not cached (call ``compile_dag`` directly for those).
    On a hit the stored result's ``node_map`` is re-derived for the
    requesting DAG via structural node digests, so hits are valid even
    when the caller's node numbering differs from the original
    compilation's.
    """
    cache = cache if cache is not None else get_cache()
    if isinstance(cache, NullCache):
        return compile_dag(
            dag,
            config,
            topology=topology,
            seed=seed,
            mapping_strategy=mapping_strategy,
            validate_input=validate_input,
            keep=keep,
        )
    digests = node_digests(dag)
    keep_digests = tuple(
        digests[node] for node in keep if dag.op(node) is not OpType.INPUT
    )
    key = compile_key(
        dag,
        config,
        topology,
        seed,
        mapping_strategy,
        keep_digests=keep_digests,
        digests=digests,
    )
    payload = cache.get(key)
    if payload is not None:
        try:
            result: CompileResult = payload["result"]
            var_by_digest: dict[bytes, int] = payload["var_by_digest"]
            node_map = tuple(var_by_digest[d] for d in digests)
            result.node_map = node_map
        except (KeyError, TypeError, AttributeError):
            payload = None  # schema drift — recompile below
        else:
            result.cache_key = key
            return result
    result = compile_dag(
        dag,
        config,
        topology=topology,
        seed=seed,
        mapping_strategy=mapping_strategy,
        validate_input=validate_input,
        keep=keep,
    )
    cache.put(
        key,
        {
            "result": result,
            "var_by_digest": dict(zip(digests, result.node_map)),
        },
    )
    result.cache_key = key
    return result


def cached_fused_plan(
    result: CompileResult,
    interconnect: Interconnect | None = None,
    cache: ArtifactCache | NullCache | None = None,
):
    """The compilation's :class:`~repro.sim.fused.FusedPlan`, memoized
    through the artifact cache: the one place a fused plan is loaded.

    A warm cache serves the fused plan without lowering or fusing; a
    miss lowers (verifying the program), fuses and stores the fused
    plan only.  Falls back to a live lowering and fusion when caching
    is off or the result has no ``cache_key`` (it did not come through
    :func:`cached_compile`).
    """
    from ..sim.fused import fuse_plan  # local: sim must not be a hard dep here

    cache = cache if cache is not None else get_cache()
    base_key = getattr(result, "cache_key", None)
    if isinstance(cache, NullCache) or base_key is None:
        return fuse_plan(result.plan(interconnect))
    topology = (
        DEFAULT_TOPOLOGY if interconnect is None else interconnect.topology
    )
    key = fused_key(plan_key(base_key, topology))
    fused = cache.get(key)
    if fused is None:
        fused = fuse_plan(result.plan(interconnect))
        cache.put(key, fused)
    return fused
