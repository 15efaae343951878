"""Durable, fault-tolerant work queue: the one offline fan-out.

Every multi-process map in the package runs here.  A **campaign** is a
directory holding every piece of state needed to survive (and resume
after) worker crashes, coordinator crashes, stalled tasks and torn
writes.  A named campaign (``repro fuzz``/``sweep --campaign <id>``)
lives under ``<cache dir>/campaigns/`` and can be resumed;
:func:`repro.runner.orchestrator.parallel_map` runs an anonymous one in
a temporary directory that it removes after the merge.

``campaigns/<id>/``
    * ``manifest.json`` — task count, retry/timeout policy, a
      fingerprint of the campaign parameters (so a resume cannot
      silently attach to a different run).  The atomic manifest
      rename is the campaign's creation commit point.
    * ``tasks.pkl`` — the pickled task callable and task list, fsync'd
      and checksummed **before** any dispatch.
    * ``ledger.jsonl`` — append-only fsync'd event journal
      (:mod:`repro.runner.ledger`): enqueue, claim, complete, fail,
      reclaim, quarantine.  Torn lines are detected and skipped.
    * ``leases/<i>.lease`` — one worker's claim on task ``i``; the
      file's mtime is the worker's **heartbeat** (refreshed by a
      daemon thread while the task runs).
    * ``results/<i>.pkl`` — the completion checkpoint, written via
      tmp-file + fsync + atomic rename.  Result-file presence — not a
      ledger record — is what "done" means, so a crash between the
      two never loses work.
    * ``backoff/<i>.json`` — retry state: attempt count and the
      earliest time the task may be re-claimed (exponential backoff
      with deterministic jitter).
    * ``quarantine/<i>.json`` — poison tasks that failed
      ``max_attempts`` times, with the pickled exception when the task
      raised; the campaign completes around them and they remain as a
      replayable list.
    * ``spans/<worker>.jsonl`` — traced runs only: each worker's
      ``campaign.lease`` → ``campaign.task`` → ``campaign.checkpoint``
      spans (and the task's own spans), ingested by the coordinator
      once the campaign is done.

**Failure detection.**  The coordinator reclaims a task when its
worker process died (fast path for its own children), when the lease
heartbeat goes stale (``lease_timeout_s`` — covers SIGKILLed workers
it did not spawn), or when the task exceeds its wall-clock budget
(``task_timeout_s`` — covers stalled/wedged tasks whose heartbeat
thread is still alive; the offending worker is killed).  Every
reclaim bumps the attempt count, so a task that keeps killing its
workers ends up quarantined rather than looping forever.

**Determinism.**  Task functions must be deterministic, picklable
callables; duplicate executions (a reclaimed task finishing twice)
are therefore harmless — both write identical results through an
atomic rename.  :func:`merge_campaign` assembles results in task-index
order, so the merged output is byte-identical to an uninterrupted
run regardless of completion order, retries, duplicate completions or
how many times the campaign was killed and resumed.

The chaos hooks (:class:`ChaosSpec`) let the verification harness
(:mod:`repro.verify.chaos`) SIGKILL workers, stall tasks and tear
ledger/lease writes at seeded injection points; they are inert in
production use.
"""

from __future__ import annotations

import base64
import hashlib
import json
import os
import pickle
import signal
import sys
import threading
import time
import uuid
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import ReproError
from ..obs import trace
from ..obs.metrics import get_registry
from .cache import DEFAULT_CACHE_DIR, adopt_cache_env, cache_env, get_cache
from .ledger import (
    CampaignLedger,
    read_json,
    write_json_atomic,
)


class CampaignError(ReproError):
    """A campaign directory is missing, mismatched, or unusable."""


def _campaign_events():
    """Process-local mirror of the durable ledger's event stream —
    same vocabulary, counted instead of journaled, for ``/metrics``
    style scraping.  Workers count their own events (lease, heartbeat,
    retry, quarantine, complete); the coordinator counts reclaims."""
    return get_registry().counter(
        "repro_campaign_events_total",
        "Durable-queue lifecycle events, by kind",
        label_names=("event",),
    )


#: Pickle protocol pinned for the same reason as the artifact cache:
#: shared directories may be read by older interpreters.
_PICKLE_PROTOCOL = 5

#: Default retry/heartbeat policy (overridable per campaign).
DEFAULT_MAX_ATTEMPTS = 3
DEFAULT_HEARTBEAT_S = 0.5
DEFAULT_LEASE_TIMEOUT_S = 6.0
DEFAULT_BACKOFF_BASE_S = 0.25
DEFAULT_BACKOFF_CAP_S = 30.0

#: How long a traced coordinator waits for finished workers to exit
#: (and write their last spans) before it terminates them.
_SPAN_GRACE_S = 2.0


def campaign_root(root: str | os.PathLike | None = None) -> Path:
    """Where campaigns live: ``<cache dir>/campaigns`` by default.

    Honors a process-wide :func:`~repro.runner.cache.configure_cache`
    call first (so library users who point the cache somewhere get
    their campaigns there too), then ``REPRO_CACHE_DIR``, then the
    stock cache location.  Workers inherit the same directory through
    ``cache_env``, so the coordinator and its workers always agree.
    """
    if root is not None:
        return Path(root)
    # Duck-typed rather than isinstance(ArtifactCache): only a real
    # on-disk cache has a .directory (NullCache does not), and class
    # identity does not survive an importlib.reload of the cache
    # module (which the pickle-protocol pin test exercises).
    directory = getattr(get_cache(), "directory", None)
    if directory is not None:
        return Path(directory) / "campaigns"
    base = os.environ.get("REPRO_CACHE_DIR") or str(DEFAULT_CACHE_DIR)
    return Path(base) / "campaigns"


def backoff_delay(
    campaign: str,
    task: int,
    attempt: int,
    base_s: float = DEFAULT_BACKOFF_BASE_S,
    cap_s: float = DEFAULT_BACKOFF_CAP_S,
) -> float:
    """Exponential backoff with deterministic jitter.

    The jitter is a pure function of (campaign, task, attempt) — no
    global RNG — so replaying a campaign replays its schedule, and
    concurrent retries of different tasks still decorrelate.
    """
    raw = min(cap_s, base_s * (2.0 ** max(0, attempt - 1)))
    digest = hashlib.blake2b(
        f"{campaign}:{task}:{attempt}".encode(), digest_size=8
    ).digest()
    frac = int.from_bytes(digest, "big") / 2**64
    return raw * (0.5 + 0.5 * frac)


@dataclass(frozen=True)
class ChaosSpec:
    """Seeded fault-injection points for the chaos harness.

    All task indices refer to campaign task numbers.  ``kill``,
    ``stall``, ``torn_ledger`` and ``torn_lease`` fire **once** per
    task (a cross-process marker file arbitrates), so the retry can
    succeed; ``poison`` fires on *every* attempt, which is what drives
    a task into quarantine.
    """

    kill: tuple[int, ...] = ()
    stall: tuple[int, ...] = ()
    poison: tuple[int, ...] = ()
    torn_ledger: tuple[int, ...] = ()
    torn_lease: tuple[int, ...] = ()
    stall_s: float = 3600.0

    def to_json(self) -> str:
        return json.dumps(
            {
                "kill": list(self.kill),
                "stall": list(self.stall),
                "poison": list(self.poison),
                "torn_ledger": list(self.torn_ledger),
                "torn_lease": list(self.torn_lease),
                "stall_s": self.stall_s,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str | None) -> ChaosSpec | None:
        if not text:
            return None
        doc = json.loads(text)
        return cls(
            kill=tuple(doc.get("kill", ())),
            stall=tuple(doc.get("stall", ())),
            poison=tuple(doc.get("poison", ())),
            torn_ledger=tuple(doc.get("torn_ledger", ())),
            torn_lease=tuple(doc.get("torn_lease", ())),
            stall_s=float(doc.get("stall_s", 3600.0)),
        )

    @property
    def empty(self) -> bool:
        return not (
            self.kill or self.stall or self.poison
            or self.torn_ledger or self.torn_lease
        )


#: Environment variable the chaos harness uses to reach a coordinator
#: it launched as a subprocess (``repro fuzz --campaign`` under test).
CHAOS_ENV = "REPRO_CHAOS_SPEC"


class DurableQueue:
    """File-level operations on one campaign directory.

    Every mutation is either an atomic rename, an ``O_EXCL`` create,
    or an append-only journal write — concurrency-safe for many
    workers (and a coordinator) hammering one directory, including
    over a shared filesystem.
    """

    def __init__(self, directory: str | os.PathLike) -> None:
        self.directory = Path(directory)
        self.ledger = CampaignLedger(self.directory / "ledger.jsonl")
        self._manifest: dict | None = None

    # -- layout --------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def tasks_path(self) -> Path:
        return self.directory / "tasks.pkl"

    def result_path(self, task: int) -> Path:
        return self.directory / "results" / f"{task:08d}.pkl"

    def lease_path(self, task: int) -> Path:
        return self.directory / "leases" / f"{task:08d}.lease"

    def backoff_path(self, task: int) -> Path:
        return self.directory / "backoff" / f"{task:08d}.json"

    def quarantine_path(self, task: int) -> Path:
        return self.directory / "quarantine" / f"{task:08d}.json"

    def chaos_marker(self, kind: str, task: int) -> Path:
        return self.directory / "chaos" / f"{kind}-{task:08d}"

    # -- manifest / tasks ---------------------------------------------
    def manifest(self) -> dict:
        if self._manifest is None:
            doc = read_json(self.manifest_path)
            if doc is None:
                raise CampaignError(
                    f"no campaign at {self.directory} (missing or torn "
                    "manifest.json); create it first or check the id"
                )
            self._manifest = doc
        return self._manifest

    @property
    def campaign_id(self) -> str:
        return self.manifest()["campaign"]

    @property
    def num_tasks(self) -> int:
        return int(self.manifest()["num_tasks"])

    def settings(self) -> dict:
        return self.manifest().get("settings", {})

    def load_tasks(self) -> tuple[Callable, list]:
        """The task callable and the task list, digest-checked."""
        try:
            raw = self.tasks_path.read_bytes()
        except OSError as exc:
            raise CampaignError(
                f"cannot read task list {self.tasks_path}: {exc}"
            ) from exc
        digest = hashlib.blake2b(raw, digest_size=16).hexdigest()
        want = self.manifest().get("tasks_digest")
        if want is not None and digest != want:
            raise CampaignError(
                f"task list {self.tasks_path} is torn or was modified "
                f"(digest {digest} != manifest {want}); the campaign "
                "cannot be trusted — start a fresh one"
            )
        doc = pickle.loads(raw)
        if not (isinstance(doc, tuple) and len(doc) == 2):
            raise CampaignError(
                f"task list {self.tasks_path} predates pickled task "
                "callables; start a fresh campaign"
            )
        return doc

    # -- leases --------------------------------------------------------
    def try_claim(
        self,
        task: int,
        worker: str,
        pid: int | None = None,
        tear_after: int | None = None,
    ) -> bool:
        """Claim ``task`` via an O_EXCL lease create; False if held.

        ``tear_after`` (chaos only) truncates the lease content to
        simulate a worker dying mid-write — the file exists but holds
        garbage, which reclaim must tolerate.
        """
        path = self.lease_path(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = json.dumps(
            {
                "task": task,
                "worker": worker,
                "pid": os.getpid() if pid is None else pid,
                "claimed_at": time.time(),
            },
            sort_keys=True,
        ).encode()
        if tear_after is not None:
            payload = payload[: max(0, tear_after)]
        try:
            fd = os.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        except OSError:
            return False
        try:
            os.write(fd, payload)
            os.fsync(fd)
        finally:
            os.close(fd)
        _campaign_events().inc(event="lease")
        return True

    def read_lease(self, task: int) -> tuple[dict | None, float] | None:
        """``(content, mtime)`` for a held lease; content ``None`` when
        torn; ``None`` when no lease exists."""
        path = self.lease_path(task)
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        return read_json(path), mtime

    def heartbeat(self, task: int, worker: str) -> bool:
        """Refresh the lease mtime; False once ownership was lost."""
        lease = self.read_lease(task)
        if lease is None:
            return False
        content, _ = lease
        if content is not None and content.get("worker") != worker:
            return False
        try:
            os.utime(self.lease_path(task))
        except OSError:
            return False
        _campaign_events().inc(event="heartbeat")
        return True

    def release(self, task: int, worker: str) -> None:
        """Drop a lease we own (no-op if it was already reclaimed)."""
        lease = self.read_lease(task)
        if lease is None:
            return
        content, _ = lease
        if content is not None and content.get("worker") != worker:
            return  # reclaimed and re-claimed by someone else
        try:
            os.unlink(self.lease_path(task))
        except OSError:
            pass

    # -- completion / retry state -------------------------------------
    def completed(self, task: int) -> bool:
        return self.result_path(task).exists()

    def quarantined(self, task: int) -> bool:
        return self.quarantine_path(task).exists()

    def write_result(self, task: int, value) -> None:
        """Checkpoint a completion: tmp + fsync + atomic rename."""
        path = self.result_path(task)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            fd = os.open(tmp, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644)
            try:
                os.write(
                    fd, pickle.dumps(value, protocol=_PICKLE_PROTOCOL)
                )
                os.fsync(fd)
            finally:
                os.close(fd)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def load_result(self, task: int):
        """``(True, value)`` or ``(False, None)``; a torn result file
        is dropped so the task simply reruns on resume."""
        path = self.result_path(task)
        try:
            with open(path, "rb") as fh:
                return True, pickle.load(fh)
        except FileNotFoundError:
            return False, None
        except Exception:
            try:
                os.unlink(path)
            except OSError:
                pass
            return False, None

    def attempts(self, task: int) -> int:
        doc = read_json(self.quarantine_path(task))
        if doc is not None:
            return int(doc.get("attempts", 0))
        doc = read_json(self.backoff_path(task))
        return int(doc.get("attempt", 0)) if doc else 0

    def eligible_at(self, task: int) -> float:
        doc = read_json(self.backoff_path(task))
        return float(doc.get("not_before", 0.0)) if doc else 0.0

    def record_failure(
        self,
        task: int,
        error: str,
        kind: str,
        worker: str = "",
        max_attempts: int | None = None,
        task_repr: str = "",
        exc: BaseException | None = None,
    ) -> int:
        """Journal one failed attempt; quarantine at ``max_attempts``.

        Returns the new attempt count.  ``kind`` is ``fail`` (the task
        function raised ``exc``) or ``reclaim`` (the coordinator
        recovered a dead/stalled worker's lease).  A quarantine record
        keeps ``exc`` pickled, so a map can re-raise it
        (:func:`quarantined_exception`).
        """
        settings = self.settings()
        limit = (
            int(settings.get("max_attempts", DEFAULT_MAX_ATTEMPTS))
            if max_attempts is None
            else max_attempts
        )
        attempt = self.attempts(task) + 1
        if attempt >= limit:
            write_json_atomic(
                self.quarantine_path(task),
                {
                    "task": task,
                    "attempts": attempt,
                    "error": error,
                    "kind": kind,
                    "task_repr": task_repr,
                    "exception": _pickled_exception(exc),
                    "quarantined_at": time.time(),
                },
            )
            self.ledger.append(
                {
                    "type": "quarantine",
                    "task": task,
                    "attempt": attempt,
                    "error": error[:500],
                    "kind": kind,
                    "worker": worker,
                }
            )
            _campaign_events().inc(event="quarantine")
        else:
            delay = backoff_delay(
                self.manifest().get("campaign", "?"),
                task,
                attempt,
                float(
                    settings.get("backoff_base_s", DEFAULT_BACKOFF_BASE_S)
                ),
                float(settings.get("backoff_cap_s", DEFAULT_BACKOFF_CAP_S)),
            )
            write_json_atomic(
                self.backoff_path(task),
                {
                    "task": task,
                    "attempt": attempt,
                    "not_before": time.time() + delay,
                    "error": error,
                },
            )
            self.ledger.append(
                {
                    "type": kind,
                    "task": task,
                    "attempt": attempt,
                    "error": error[:500],
                    "worker": worker,
                    "backoff_s": round(delay, 4),
                }
            )
            _campaign_events().inc(event="retry")
        return attempt

    def reclaim(
        self, task: int, reason: str, worker: str = "", task_repr: str = ""
    ) -> int:
        """Recover a dead/stalled worker's lease and schedule a retry.

        The backoff or quarantine record is written before the lease
        goes, so no worker can claim the task in between.
        """
        attempt = self.record_failure(
            task, reason, "reclaim", worker=worker, task_repr=task_repr
        )
        try:
            os.unlink(self.lease_path(task))
        except OSError:
            pass
        _campaign_events().inc(event="reclaim")
        return attempt

    def complete(self, task: int, value, worker: str = "") -> None:
        """Checkpoint ``value`` and journal the completion."""
        self.write_result(task, value)
        self.ledger.append(
            {"type": "complete", "task": task, "worker": worker}
        )
        _campaign_events().inc(event="complete")
        try:
            os.unlink(self.backoff_path(task))
        except OSError:
            pass
        self.release(task, worker)


# ---------------------------------------------------------------------
# Campaign creation / status / merge
# ---------------------------------------------------------------------
def campaign_dir(
    campaign_id: str, root: str | os.PathLike | None = None
) -> Path:
    if not campaign_id or "/" in campaign_id or campaign_id.startswith("."):
        raise CampaignError(f"invalid campaign id {campaign_id!r}")
    return campaign_root(root) / campaign_id


def create_campaign(
    campaign_id: str,
    fn: Callable,
    items: Sequence,
    *,
    root: str | os.PathLike | None = None,
    kind: str = "map",
    params_fingerprint: str = "",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    lease_timeout_s: float | None = None,
    task_timeout_s: float | None = None,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
) -> Path:
    """Journal a new campaign to disk; the manifest rename commits it.

    ``fn`` and ``items`` are pickled together into ``tasks.pkl``, so
    ``fn`` may be any picklable callable.  Task payloads are fsync'd
    (and digest-pinned in the manifest) **before** the campaign
    exists, so no dispatch can ever observe a half-written task list.
    """
    directory = campaign_dir(campaign_id, root)
    if (directory / "manifest.json").exists():
        raise CampaignError(
            f"campaign {campaign_id!r} already exists at {directory}; "
            "resume it or pick a new id"
        )
    tasks = list(items)
    if not tasks:
        raise CampaignError("a campaign needs at least one task")
    directory.mkdir(parents=True, exist_ok=True)
    for sub in ("results", "leases", "backoff", "quarantine", "chaos"):
        (directory / sub).mkdir(exist_ok=True)
    try:
        raw = pickle.dumps((fn, tasks), protocol=_PICKLE_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise CampaignError(
            f"campaign task callable and items must pickle: {exc}"
        ) from exc
    tasks_path = directory / "tasks.pkl"
    fd = os.open(
        tasks_path, os.O_CREAT | os.O_WRONLY | os.O_TRUNC, 0o644
    )
    try:
        os.write(fd, raw)
        os.fsync(fd)
    finally:
        os.close(fd)
    ledger = CampaignLedger(directory / "ledger.jsonl")
    with ledger:
        ledger.append(
            {
                "type": "created",
                "campaign": campaign_id,
                "kind": kind,
                "num_tasks": len(tasks),
            }
        )
        for i in range(len(tasks)):
            ledger.append({"type": "enqueue", "task": i})
    write_json_atomic(
        directory / "manifest.json",
        {
            "campaign": campaign_id,
            "kind": kind,
            "num_tasks": len(tasks),
            "tasks_digest": hashlib.blake2b(
                raw, digest_size=16
            ).hexdigest(),
            "params_fingerprint": params_fingerprint,
            "created_at": time.time(),
            "settings": {
                "max_attempts": max_attempts,
                "heartbeat_s": heartbeat_s,
                "lease_timeout_s": (
                    lease_timeout_s
                    if lease_timeout_s is not None
                    else max(DEFAULT_LEASE_TIMEOUT_S, 6 * heartbeat_s)
                ),
                "task_timeout_s": task_timeout_s,
                "backoff_base_s": backoff_base_s,
                "backoff_cap_s": backoff_cap_s,
            },
        },
    )
    return directory


@dataclass
class CampaignStatus:
    """One campaign's recovery-visible state, for ``repro campaign``."""

    campaign: str
    kind: str
    total: int
    completed: int
    quarantined: int
    active_leases: int
    retries: int
    reclaimed_leases: int
    timeouts: int
    resumes: int
    torn_records: int
    quarantine: dict[int, dict] = field(default_factory=dict)

    @property
    def done(self) -> bool:
        return self.completed + self.quarantined >= self.total

    def as_dict(self) -> dict:
        return {
            "campaign": self.campaign,
            "kind": self.kind,
            "total": self.total,
            "completed": self.completed,
            "quarantined": self.quarantined,
            "active_leases": self.active_leases,
            "retries": self.retries,
            "reclaimed_leases": self.reclaimed_leases,
            "timeouts": self.timeouts,
            "resumes": self.resumes,
            "torn_records": self.torn_records,
            "done": self.done,
        }

    def render(self) -> str:
        state = "complete" if self.done else "in progress"
        lines = [
            f"campaign {self.campaign} [{self.kind}]: {state} — "
            f"{self.completed}/{self.total} tasks done, "
            f"{self.quarantined} quarantined, "
            f"{self.active_leases} leased",
            f"  retries {self.retries} "
            f"(reclaimed leases {self.reclaimed_leases}, "
            f"task timeouts {self.timeouts}), "
            f"resumes {self.resumes}, torn ledger lines "
            f"{self.torn_records}",
        ]
        for task, doc in sorted(self.quarantine.items()):
            lines.append(
                f"  QUARANTINED task {task}: {doc.get('attempts', '?')} "
                f"attempts, last failure: "
                f"{str(doc.get('error', ''))[:120]}"
            )
        return "\n".join(lines)


def campaign_status(
    campaign_id_or_dir: str | os.PathLike,
    root: str | os.PathLike | None = None,
) -> CampaignStatus:
    """Derive a campaign's status from its files + ledger."""
    directory = Path(campaign_id_or_dir)
    if not (directory / "manifest.json").exists():
        directory = campaign_dir(str(campaign_id_or_dir), root)
    queue = DurableQueue(directory)
    manifest = queue.manifest()
    records, torn = queue.ledger.replay()
    retries = reclaims = timeouts = resumes = 0
    for record in records:
        rtype = record.get("type")
        if rtype in ("fail", "reclaim"):
            retries += 1
        if rtype == "reclaim":
            reclaims += 1
            if "task-timeout" in str(record.get("error", "")):
                timeouts += 1
        if rtype == "resume":
            resumes += 1
    quarantine: dict[int, dict] = {}
    for path in sorted((directory / "quarantine").glob("*.json")):
        doc = read_json(path)
        if doc is not None:
            quarantine[int(doc.get("task", int(path.stem)))] = doc
    return CampaignStatus(
        campaign=manifest["campaign"],
        kind=manifest.get("kind", "map"),
        total=int(manifest["num_tasks"]),
        completed=sum(
            1 for _ in (directory / "results").glob("*.pkl")
        ),
        quarantined=len(quarantine),
        active_leases=sum(
            1 for _ in (directory / "leases").glob("*.lease")
        ),
        retries=retries,
        reclaimed_leases=reclaims,
        timeouts=timeouts,
        resumes=resumes,
        torn_records=torn,
        quarantine=quarantine,
    )


def list_campaigns(
    root: str | os.PathLike | None = None,
) -> list[CampaignStatus]:
    base = campaign_root(root)
    statuses = []
    if base.is_dir():
        for entry in sorted(base.iterdir()):
            if (entry / "manifest.json").exists():
                try:
                    statuses.append(campaign_status(entry))
                except (CampaignError, OSError):
                    continue
    return statuses


@dataclass
class CampaignResult:
    """Deterministically merged campaign outcome.

    ``results[i]`` is task ``i``'s value, or ``None`` for quarantined
    tasks (their indices and failure records are in ``quarantined``).
    """

    campaign: str
    results: list
    quarantined: dict[int, dict]
    status: CampaignStatus

    @property
    def ok(self) -> bool:
        return not self.quarantined


def merge_campaign(
    campaign_id_or_dir: str | os.PathLike,
    root: str | os.PathLike | None = None,
) -> CampaignResult:
    """Assemble the merged result in task-index order.

    The merge is a pure function of the completed result files — not
    of completion order, retry history, or how many coordinators ran —
    which is what makes kill/resume byte-identical to an uninterrupted
    run.
    """
    directory = Path(campaign_id_or_dir)
    if not (directory / "manifest.json").exists():
        directory = campaign_dir(str(campaign_id_or_dir), root)
    queue = DurableQueue(directory)
    status = campaign_status(directory)
    results: list = []
    missing: list[int] = []
    for task in range(queue.num_tasks):
        if status.quarantine.get(task) is not None:
            results.append(None)
            continue
        ok, value = queue.load_result(task)
        if not ok:
            missing.append(task)
            results.append(None)
        else:
            results.append(value)
    if missing:
        raise CampaignError(
            f"campaign {status.campaign} is incomplete: "
            f"{len(missing)} task(s) unfinished (e.g. {missing[:8]}); "
            "resume it to completion before merging"
        )
    return CampaignResult(
        campaign=status.campaign,
        results=results,
        quarantined=status.quarantine,
        status=status,
    )


# ---------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------
def _pickled_exception(exc: BaseException | None) -> str | None:
    if exc is None:
        return None
    try:
        raw = pickle.dumps(exc, protocol=_PICKLE_PROTOCOL)
    except (pickle.PicklingError, TypeError, AttributeError):
        return None  # the quarantine record keeps the error text
    return base64.b64encode(raw).decode("ascii")


def quarantined_exception(doc: dict) -> BaseException | None:
    """The exception a quarantined task raised on its last attempt, or
    ``None`` when it killed or stalled its worker (or the exception
    does not round-trip through pickle)."""
    raw = doc.get("exception")
    if not raw:
        return None
    try:
        exc = pickle.loads(base64.b64decode(raw))
    except (pickle.UnpicklingError, ValueError, TypeError,
            AttributeError, ImportError):
        return None  # e.g. an __init__ that unpickling cannot call
    return exc if isinstance(exc, BaseException) else None


def _sigkill_self() -> None:  # pragma: no cover - dies by design
    os.kill(os.getpid(), signal.SIGKILL)


def _chaos_once(queue: DurableQueue, kind: str, task: int) -> bool:
    """True exactly once per (kind, task) across all workers/retries."""
    marker = queue.chaos_marker(kind, task)
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except OSError:
        return False
    os.close(fd)
    return True


def _worker_main(
    directory: str,
    worker_id: str,
    env: dict[str, str],
    chaos_json: str | None = None,
    traced: bool = False,
    trace_parent: str | None = None,
) -> None:
    """Worker body: scan, claim, heartbeat, execute, checkpoint.

    Runs until every task is completed or quarantined, then exits.
    Also exits when orphaned (the coordinator died) so killed
    campaigns do not leave stray compute behind.  A ``traced`` worker
    parents its spans to the coordinator's ``trace_parent`` and ships
    them through its span file.
    """
    adopt_cache_env(env)
    spans = None
    if traced:
        # Forked workers inherit the coordinator's trace buffers;
        # enable() discards them and mints ids under the worker id.
        trace.enable(process_token=worker_id)
        spans = Path(directory) / "spans" / f"{worker_id}.jsonl"
        spans.parent.mkdir(exist_ok=True)
    queue = DurableQueue(directory)
    manifest = queue.manifest()
    settings = manifest.get("settings", {})
    heartbeat_s = float(settings.get("heartbeat_s", DEFAULT_HEARTBEAT_S))
    fn, tasks = queue.load_tasks()
    chaos = ChaosSpec.from_json(chaos_json)
    parent = os.getppid()

    def tear_hook(record: dict, data: bytes) -> int | None:
        if (
            chaos is not None
            and record.get("type") == "complete"
            and record.get("task") in chaos.torn_ledger
            and _chaos_once(queue, "torn-ledger", record["task"])
        ):
            # Half a record, then die: the torn line must be detected
            # and skipped on replay, and the lease reclaimed.
            queue.ledger.tear_hook = None
            try:
                os.write(queue.ledger._descriptor(), data[: len(data) // 2])
                os.fsync(queue.ledger._descriptor())
            except OSError:
                pass
            _sigkill_self()
        return None

    if chaos is not None and chaos.torn_ledger:
        queue.ledger.tear_hook = tear_hook

    total = len(tasks)
    done: set[int] = set()
    while True:
        if os.getppid() != parent:  # orphaned: coordinator is gone
            return
        progressed = False
        now = time.time()
        lease_start = time.monotonic_ns()
        for task in range(total):
            if task in done:
                continue
            if queue.completed(task) or queue.quarantined(task):
                done.add(task)
                continue
            if queue.eligible_at(task) > now:
                continue
            if queue.read_lease(task) is not None:
                continue
            if (
                chaos is not None
                and task in chaos.torn_lease
                and _chaos_once(queue, "torn-lease", task)
            ):
                # A lease write torn mid-crash: garbage content that
                # reclaim must treat as a stale claim.
                queue.try_claim(task, worker_id, tear_after=7)
                _sigkill_self()
            if not queue.try_claim(task, worker_id):
                continue
            progressed = True
            _run_claimed_task(
                queue, task, tasks[task], fn, worker_id, heartbeat_s,
                chaos, lease_start, trace_parent,
            )
            if spans is not None:
                _ship_spans(spans)
            now = time.time()
            lease_start = time.monotonic_ns()
        if len(done) >= total:
            return
        if not progressed:
            remaining = [
                t
                for t in range(total)
                if t not in done
                and not queue.completed(t)
                and not queue.quarantined(t)
            ]
            if not remaining:
                return
            time.sleep(min(0.05, heartbeat_s / 4))


def _run_claimed_task(
    queue: DurableQueue,
    task: int,
    item,
    fn: Callable,
    worker_id: str,
    heartbeat_s: float,
    chaos: ChaosSpec | None,
    lease_start: int,
    trace_parent: str | None,
) -> None:
    """Journal the claim, run ``fn(item)``, checkpoint the result.

    The three layers of a task are spans: ``campaign.lease`` (from the
    start of the scan that found the task to the journaled claim),
    ``campaign.task`` and ``campaign.checkpoint``.
    """
    attempt = queue.attempts(task) + 1
    queue.ledger.append(
        {
            "type": "claim",
            "task": task,
            "worker": worker_id,
            "attempt": attempt,
        }
    )
    trace.begin(
        "campaign.lease", "campaign", parent=trace_parent,
        start_ns=lease_start, task=task, worker=worker_id,
    ).finish()
    if chaos is not None:
        if task in chaos.poison:
            _sigkill_self()  # every attempt: this task is poison
        if task in chaos.kill and _chaos_once(queue, "kill", task):
            _sigkill_self()
    stop = threading.Event()

    def beat() -> None:
        while not stop.wait(heartbeat_s):
            if not queue.heartbeat(task, worker_id):
                return

    thread = threading.Thread(target=beat, daemon=True)
    thread.start()
    try:
        if (
            chaos is not None
            and task in chaos.stall
            and _chaos_once(queue, "stall", task)
        ):
            # Wedged mid-task with a live heartbeat: only the per-task
            # wall-clock timeout can catch this.
            time.sleep(chaos.stall_s)
        with trace.begin(
            "campaign.task", "campaign", parent=trace_parent,
            task=task, worker=worker_id, attempt=attempt,
        ):
            value = fn(item)
    except BaseException as exc:  # noqa: BLE001 - journal any failure
        stop.set()
        queue.record_failure(
            task,
            f"{type(exc).__name__}: {exc}",
            "fail",
            worker=worker_id,
            task_repr=repr(item)[:300],
            exc=exc,
        )
        queue.release(task, worker_id)
        return
    stop.set()
    with trace.begin(
        "campaign.checkpoint", "campaign", parent=trace_parent,
        task=task, worker=worker_id,
    ):
        queue.complete(task, value, worker=worker_id)


def _ship_spans(path: Path) -> None:
    """Append this worker's finished spans to its span file."""
    events = trace.drain()
    if events:
        with open(path, "a") as fh:
            fh.write(
                "".join(json.dumps(e, default=str) + "\n" for e in events)
            )


def _ingest_spans(directory: Path, nonce: str) -> None:
    """Adopt the spans this run's workers shipped (a line torn by a
    killed worker is skipped)."""
    for path in sorted(directory.glob(f"spans/{nonce}-*.jsonl")):
        events = []
        for line in path.read_text().splitlines():
            try:
                events.append(json.loads(line))
            except ValueError:
                continue
        trace.ingest(events)


# ---------------------------------------------------------------------
# Coordinator
# ---------------------------------------------------------------------
def progress_reporter(
    progress: bool | Callable[[int, int], None], desc: str
) -> Callable[[int, int], None] | None:
    """``progress=True`` is a stderr ticker; a callable is called as
    ``progress(done, total)``; anything else reports nothing."""
    if callable(progress):
        return progress
    if progress is not True:
        return None

    def report(done: int, total: int) -> None:
        end = "\n" if done == total else ""
        print(f"\r{desc}: {done}/{total}", end=end, file=sys.stderr)

    return report


def _spawn_context():
    import multiprocessing as mp

    methods = mp.get_all_start_methods()
    return mp.get_context("fork" if "fork" in methods else "spawn")


def run_campaign(
    fn: Callable,
    items: Sequence | None = None,
    *,
    campaign_id: str,
    root: str | os.PathLike | None = None,
    workers: int = 1,
    resume: bool = False,
    kind: str = "map",
    params_fingerprint: str = "",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    heartbeat_s: float = DEFAULT_HEARTBEAT_S,
    lease_timeout_s: float | None = None,
    task_timeout_s: float | None = None,
    backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
    backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
    progress: bool | Callable[[int, int], None] = False,
    desc: str = "campaign",
    chaos: ChaosSpec | None = None,
    poll_s: float = 0.05,
) -> CampaignResult:
    """Run (or resume) a durable campaign to completion and merge it.

    Creates the campaign if it does not exist (``items`` required);
    with ``resume=True`` an existing campaign is picked up where it
    left off — completed tasks are skipped via their checkpointed
    results, in-flight leases from dead workers are reclaimed, and the
    merged result is byte-identical to an uninterrupted run.

    The coordinator never executes tasks itself; it supervises:
    spawns ``workers`` processes, reclaims leases whose worker died or
    whose heartbeat went stale, SIGKILLs workers whose task exceeded
    ``task_timeout_s``, and respawns workers to keep the pool full.
    When tracing is on it records a ``campaign.run`` span and adopts
    the spans its workers ship back, parented to it.
    """
    directory = campaign_dir(campaign_id, root)
    exists = (directory / "manifest.json").exists()
    if exists and not resume:
        raise CampaignError(
            f"campaign {campaign_id!r} already exists; pass resume=True "
            "(CLI: --resume) to continue it"
        )
    if not exists:
        if items is None:
            raise CampaignError(
                f"campaign {campaign_id!r} does not exist and no task "
                "items were provided to create it"
            )
        create_campaign(
            campaign_id,
            fn,
            items,
            root=root,
            kind=kind,
            params_fingerprint=params_fingerprint,
            max_attempts=max_attempts,
            heartbeat_s=heartbeat_s,
            lease_timeout_s=lease_timeout_s,
            task_timeout_s=task_timeout_s,
            backoff_base_s=backoff_base_s,
            backoff_cap_s=backoff_cap_s,
        )
    queue = DurableQueue(directory)
    manifest = queue.manifest()
    if exists:
        if params_fingerprint and manifest.get("params_fingerprint") not in (
            "",
            params_fingerprint,
        ):
            raise CampaignError(
                f"campaign {campaign_id!r} was created with different "
                f"parameters (fingerprint "
                f"{manifest.get('params_fingerprint')!r} != "
                f"{params_fingerprint!r}); refusing to mix runs"
            )
        queue.ledger.append({"type": "resume", "campaign": campaign_id})
    if chaos is None:
        chaos = ChaosSpec.from_json(os.environ.get(CHAOS_ENV))
    settings = manifest.get("settings", {})
    hb = float(settings.get("heartbeat_s", DEFAULT_HEARTBEAT_S))
    lease_limit = float(
        settings.get("lease_timeout_s", DEFAULT_LEASE_TIMEOUT_S)
    )
    task_limit = settings.get("task_timeout_s")
    task_limit = float(task_limit) if task_limit else None
    total = queue.num_tasks
    _fn, tasks = queue.load_tasks()
    report = progress_reporter(progress, desc)

    ctx = _spawn_context()
    env = cache_env()
    chaos_json = (
        chaos.to_json() if chaos is not None and not chaos.empty else None
    )
    traced = trace.is_on()
    # Parent of every worker span: the coordinator's own span.
    run_span = trace.begin(
        "campaign.run", "campaign", campaign=campaign_id,
        workers=workers, tasks=total,
    )
    nonce = uuid.uuid4().hex[:8]
    procs: dict[str, object] = {}

    def spawn(ordinal: int):
        worker_id = f"{nonce}-w{ordinal}"
        proc = ctx.Process(
            target=_worker_main,
            args=(
                str(directory), worker_id, env, chaos_json, traced,
                run_span.span_id,
            ),
            daemon=False,
        )
        proc.start()
        procs[worker_id] = proc
        return proc

    workers = max(1, int(workers))
    for ordinal in range(workers):
        spawn(ordinal)
    next_ordinal = workers

    settled: set[int] = set()  # completed or quarantined
    last_reported = -1
    try:
        while True:
            now = time.time()
            # One scan per directory, not two stats per task: the
            # coordinator shares the host's cores with its workers.
            settled = _task_files(directory / "results", ".pkl")
            settled |= _task_files(directory / "quarantine", ".json")
            if report is not None and len(settled) != last_reported:
                report(len(settled), total)
                last_reported = len(settled)
            if len(settled) >= total:
                break

            # Lease recovery: dead workers (fast path for our own
            # children, liveness probe otherwise), stale heartbeats,
            # and per-task wall-clock timeouts.
            our_pids = {
                p.pid: wid for wid, p in procs.items() if p.pid is not None
            }
            dead_workers = {
                wid for wid, p in procs.items() if not p.is_alive()
            }
            for lease_file in sorted(directory.glob("leases/*.lease")):
                try:
                    task = int(lease_file.stem)
                except ValueError:
                    continue
                if task in settled or queue.completed(task):
                    # A worker that died *after* checkpointing its
                    # result leaves a dead lease; drop it so status
                    # never reports leases on a finished task.
                    try:
                        os.unlink(lease_file)
                    except OSError:
                        pass
                    continue
                lease = queue.read_lease(task)
                if lease is None:
                    continue
                content, mtime = lease
                owner = (content or {}).get("worker", "")
                pid = (content or {}).get("pid")
                claimed_at = (content or {}).get("claimed_at", mtime)
                item_repr = repr(tasks[task])[:300]
                if owner in dead_workers or (
                    isinstance(pid, int)
                    and pid not in our_pids
                    and not _pid_alive(pid)
                ):
                    queue.reclaim(
                        task,
                        "worker-death: lease owner is gone",
                        worker=owner,
                        task_repr=item_repr,
                    )
                elif now - mtime > lease_limit:
                    # Missed heartbeats (covers torn leases too: their
                    # mtime never refreshes).
                    queue.reclaim(
                        task,
                        f"missed-heartbeat: lease stale for "
                        f"{now - mtime:.1f}s",
                        worker=owner,
                        task_repr=item_repr,
                    )
                elif (
                    task_limit is not None
                    and now - float(claimed_at) > task_limit
                ):
                    # Stalled mid-task with a live heartbeat: kill the
                    # worker (ours only) and retry elsewhere.
                    if isinstance(pid, int) and pid in our_pids:
                        try:
                            os.kill(pid, signal.SIGKILL)
                        except OSError:
                            pass
                    queue.reclaim(
                        task,
                        f"task-timeout: exceeded {task_limit:.1f}s "
                        "wall clock",
                        worker=owner,
                        task_repr=item_repr,
                    )

            # Keep the worker pool at strength.
            for wid in list(procs):
                if not procs[wid].is_alive():
                    procs[wid].join(timeout=0)
                    del procs[wid]
            while len(procs) < workers and len(settled) < total:
                spawn(next_ordinal)
                next_ordinal += 1
            time.sleep(poll_s)
        if traced:
            # Workers leave on their own once every task is settled;
            # wait briefly so their last spans reach the span files.
            deadline = time.monotonic() + _SPAN_GRACE_S
            for proc in procs.values():
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        for proc in procs.values():
            if proc.is_alive():
                proc.terminate()
        for proc in procs.values():
            proc.join(timeout=10)
        queue.ledger.close()
    if traced:
        run_span.finish()
        _ingest_spans(directory, nonce)
    return merge_campaign(directory)


def _task_files(directory: Path, suffix: str) -> set[int]:
    """Indices of the ``<task:08d><suffix>`` files in ``directory``
    (in-flight ``.tmp`` files do not match)."""
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return set()
    cut = -len(suffix)
    return {
        int(name[:cut]) for name in names
        if name.endswith(suffix) and name[:cut].isdigit()
    }


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:
        return True
    return True
