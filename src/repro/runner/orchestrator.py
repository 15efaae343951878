"""Deterministic fan-out on the durable work queue.

:func:`parallel_map` is the primitive every figure driver is built on,
and :func:`fan_out` is the one underneath it that the fuzzer and the
DSE sweep call directly.  Both return results **in item order**, so a
parallel run is bit-identical to the serial one regardless of
completion order.

* ``jobs=1`` (or a single task) runs inline — no processes, no
  pickling — so library callers and most tests pay nothing;
* otherwise the map is a campaign on :mod:`repro.runner.queue`: an
  anonymous one in a temporary directory, removed after the merge, or
  a named, resumable one under ``<cache dir>/campaigns/`` when the
  caller passes ``campaign_id``.  Workers adopt the coordinator's
  artifact cache (:func:`repro.runner.cache.cache_env`), and a traced
  coordinator gets its workers' spans back;
* failures follow the queue's policy: a dead or stalled worker's task
  is reclaimed and re-run, a failing task is retried up to
  ``max_attempts`` and then quarantined.  :func:`parallel_map` raises
  once the map is done if anything was quarantined: the task's own
  exception when it raised one, else a :class:`CampaignError` naming
  the item that killed its workers.

``fn`` and every item must be picklable (module-level functions and
plain data) when ``jobs > 1``; every driver in
:mod:`repro.experiments` follows that contract.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Callable, Iterable

from .queue import (
    DEFAULT_MAX_ATTEMPTS,
    CampaignError,
    progress_reporter,
    quarantined_exception,
    run_campaign,
)


def default_jobs() -> int:
    """Fallback worker count: ``REPRO_JOBS`` env, else 1 (serial)."""
    try:
        return max(1, int(os.environ.get("REPRO_JOBS", "1")))
    except ValueError:
        return 1


def fan_out(
    fn: Callable,
    items: Iterable,
    jobs: int | None = None,
    *,
    campaign_id: str | None = None,
    resume: bool = False,
    campaign_root: str | os.PathLike | None = None,
    kind: str = "map",
    params_fingerprint: str = "",
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    task_timeout_s: float | None = None,
    progress: bool | Callable[[int, int], None] = False,
    desc: str = "tasks",
) -> tuple[list, dict[int, dict]]:
    """Map ``fn`` over ``items``; return ``(results, quarantined)``.

    ``results[i]`` is ``fn(items[i])``, or ``None`` for a task in
    ``quarantined`` (task index -> quarantine record).  Without a
    ``campaign_id``, ``jobs=1`` or a single task runs inline (an
    exception propagates at once and nothing is quarantined), and
    anything larger is an anonymous campaign.  ``items`` may be
    ``None`` only to resume an existing named campaign.
    """
    tasks = None if items is None else list(items)
    jobs = default_jobs() if jobs is None else max(1, int(jobs))
    options = dict(
        workers=jobs,
        kind=kind,
        params_fingerprint=params_fingerprint,
        max_attempts=max_attempts,
        task_timeout_s=task_timeout_s,
        progress=progress,
        desc=desc,
    )
    if campaign_id is not None:
        result = run_campaign(
            fn, tasks, campaign_id=campaign_id, root=campaign_root,
            resume=resume, **options,
        )
        return result.results, result.quarantined
    if jobs == 1 or len(tasks) <= 1:
        report = progress_reporter(progress, desc)
        results = []
        for i, item in enumerate(tasks):
            results.append(fn(item))
            if report:
                report(i + 1, len(tasks))
        return results, {}
    with tempfile.TemporaryDirectory(prefix="repro-map-") as root:
        result = run_campaign(
            fn, tasks, campaign_id=kind, root=root, **options
        )
    return result.results, result.quarantined


def raise_quarantined(quarantined: dict[int, dict], desc: str) -> None:
    """Raise for the first quarantined task, if any: its own exception
    when it raised one, else a :class:`CampaignError` naming the item
    (caused by a :class:`ChildProcessError` when its attempts killed or
    stalled their workers)."""
    if not quarantined:
        return
    index = min(quarantined)
    doc = quarantined[index]
    others = len(quarantined) - 1
    where = (
        f"{desc} task {index} (item {doc.get('task_repr', '?')}) failed "
        f"{doc.get('attempts', '?')} attempts and was quarantined"
        + (f"; {others} more task(s) quarantined" if others else "")
    )
    exc = quarantined_exception(doc)
    if exc is not None:
        exc.add_note(where)
        raise exc
    error = str(doc.get("error", ""))
    # A reclaim means the worker died or stalled: no exception exists.
    cause = ChildProcessError(error) if doc.get("kind") == "reclaim" else None
    raise CampaignError(f"{where}; last failure: {error}") from cause


def parallel_map(
    fn: Callable,
    items: Iterable,
    jobs: int | None = None,
    progress: bool | Callable[[int, int], None] = False,
    desc: str = "tasks",
) -> list:
    """Map ``fn`` over ``items`` on ``jobs`` processes, order-preserving.

    Args:
        fn: Picklable callable applied to each item.
        items: Task inputs (materialized up front).
        jobs: Worker processes; ``None`` uses :func:`default_jobs`,
            ``1`` runs inline in this process.
        progress: ``True`` for a stderr ticker, or a callable invoked
            as ``progress(done, total)`` as tasks settle.
        desc: Label for the stderr ticker and for errors.

    Returns:
        ``[fn(item) for item in items]`` — identical to the serial
        comprehension, whatever the completion order.
    """
    results, quarantined = fan_out(
        fn, items, jobs, progress=progress, desc=desc
    )
    raise_quarantined(quarantined, desc)
    return results
