"""parallel_map's failure policy: the durable queue's.

A ``jobs > 1`` map is an anonymous campaign on
:mod:`repro.runner.queue`: a SIGKILLed worker's task is reclaimed and
re-run by a fresh worker, a task that keeps failing is quarantined
after ``max_attempts``, and the map then raises — the task's own
exception when it raised one, else an error naming the item that
killed its workers.  ``jobs=1`` runs inline.
"""

from __future__ import annotations

import os
import signal
import tempfile

import pytest

from repro.runner.orchestrator import parallel_map
from repro.runner.queue import CampaignError, DurableQueue, create_campaign


# -- module-level worker bodies (pickled into the campaign) ------------
def _double(x: int) -> int:
    return x * 2


def _kill_worker_once(item) -> int:
    """SIGKILLs its worker the first time any worker sees the poison
    value — the marker file makes "once" hold across worker processes
    and the re-run of the reclaimed task."""
    marker, x = item
    if x == 13:
        try:
            fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pass  # already fired: this retry succeeds
        else:
            os.close(fd)
            os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


def _logged_kill_worker_once(item) -> int:
    """Appends ``x`` to a run log, then behaves like
    :func:`_kill_worker_once`."""
    log, marker, x = item
    fd = os.open(log, os.O_CREAT | os.O_WRONLY | os.O_APPEND)
    try:
        os.write(fd, f"{x}\n".encode())
    finally:
        os.close(fd)
    return _kill_worker_once((marker, x))


def _kill_worker_always(x: int) -> int:
    if x == 13:
        os.kill(os.getpid(), signal.SIGKILL)
    return x * 2


def _raise_on_13(x: int) -> int:
    if x == 13:
        raise ValueError("bad item")
    return x


def test_sigkilled_worker_does_not_lose_the_map(tmp_path):
    """A worker dying mid-map loses no result: its task is reclaimed
    and re-run, and every other result is kept."""
    marker = str(tmp_path / "killed-once")
    items = [(marker, x) for x in list(range(12)) + [13] + [20, 21]]
    results = parallel_map(_kill_worker_once, items, jobs=2)
    assert results == [x * 2 for _, x in items]
    assert os.path.exists(marker)  # the kill really fired


def test_progress_reaches_total_despite_restart(tmp_path):
    marker = str(tmp_path / "killed-once-progress")
    items = [(marker, x) for x in [1, 2, 13, 4, 5, 6]]
    seen: list[tuple[int, int]] = []
    results = parallel_map(
        _kill_worker_once, items, jobs=2,
        progress=lambda done, total: seen.append((done, total)),
    )
    assert results == [x * 2 for _, x in items]
    assert seen[-1] == (len(items), len(items))


def test_worker_killing_task_is_quarantined_and_named():
    """A task that kills every worker it touches must surface, not
    loop: once its attempts are spent it is quarantined, and the map
    raises naming the item, caused by the workers' deaths."""
    items = list(range(8)) + [13]
    with pytest.raises(CampaignError) as excinfo:
        parallel_map(_kill_worker_always, items, jobs=2)
    message = str(excinfo.value)
    assert "task 8 (item 13)" in message
    assert "quarantined" in message
    assert isinstance(excinfo.value.__cause__, ChildProcessError)
    assert "worker-death" in str(excinfo.value.__cause__)


def test_completed_results_survive_the_restart(tmp_path):
    """Only the lost task re-runs: every task logs each execution, and
    tasks completed before (or beside) the death run exactly once."""
    log = str(tmp_path / "runs.log")
    marker = str(tmp_path / "kill-marker")
    xs = [0, 1, 2, 13, 4, 5]
    results = parallel_map(
        _logged_kill_worker_once, [(log, marker, x) for x in xs], jobs=2
    )
    assert results == [x * 2 for x in xs]
    runs = [int(line) for line in open(log).read().split()]
    assert sorted(runs) == sorted(xs + [13])  # 13 died once, re-ran


def test_ordinary_exceptions_still_propagate():
    """A task's exception reaches the caller as itself — same type,
    same message — once its retries are spent, with a note naming
    the item."""
    with pytest.raises(ValueError, match="bad item") as excinfo:
        parallel_map(_raise_on_13, list(range(6)) + [13], jobs=2)
    assert any("item 13" in note for note in excinfo.value.__notes__)


class _TwoArgError(Exception):
    """Pickles, but cannot be unpickled: ``args`` holds one value and
    ``__init__`` needs two."""

    def __init__(self, code: int, detail: str) -> None:
        super().__init__(f"code {code}: {detail}")


def _raise_two_arg(x: int) -> int:
    if x == 13:
        raise _TwoArgError(7, "no round trip")
    return x


def test_exception_that_cannot_round_trip_is_named():
    """When the task's exception does not survive pickling, the map
    still raises, naming the item and carrying the exception's text."""
    with pytest.raises(CampaignError) as excinfo:
        parallel_map(_raise_two_arg, [1, 13], jobs=2)
    message = str(excinfo.value)
    assert "item 13" in message
    assert "_TwoArgError: code 7: no round trip" in message
    assert excinfo.value.__cause__ is None


def test_serial_path_unaffected(tmp_path, monkeypatch):
    """jobs=1 runs inline in this process: the exception propagates
    from the first (only) attempt, and no campaign is written."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert parallel_map(_double, [1, 2, 3], jobs=1) == [2, 4, 6]
    assert parallel_map(os.getpid().__add__, [0], jobs=1) == [os.getpid()]
    calls: list[int] = []

    def record(x: int) -> int:
        calls.append(x)
        return _raise_on_13(x)

    with pytest.raises(ValueError, match="bad item"):
        parallel_map(record, [1, 13, 2], jobs=1)
    assert calls == [1, 13]
    assert list(tmp_path.iterdir()) == []


def test_anonymous_campaign_leaves_nothing_behind(tmp_path, monkeypatch):
    """A jobs > 1 map runs in a temporary campaign directory that is
    removed after the merge."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    assert parallel_map(_double, list(range(5)), jobs=2) == [
        0, 2, 4, 6, 8,
    ]
    assert list(tmp_path.iterdir()) == []


def test_reclaim_writes_the_retry_record_before_dropping_the_lease(
    tmp_path, monkeypatch
):
    """A worker that scans while a dead worker's lease is reclaimed
    cannot claim the task ahead of its backoff or quarantine record."""
    queue = DurableQueue(
        create_campaign("race", _double, [1, 2], root=tmp_path)
    )
    assert queue.try_claim(0, "dead-worker")
    claimed = []
    record_failure = queue.record_failure

    def claim_then_record(task, *args, **kwargs):
        claimed.append(queue.try_claim(task, "scanning-worker"))
        return record_failure(task, *args, **kwargs)

    monkeypatch.setattr(queue, "record_failure", claim_then_record)
    assert queue.reclaim(0, "worker-death") == 1
    assert claimed == [False]
    assert queue.read_lease(0) is None
