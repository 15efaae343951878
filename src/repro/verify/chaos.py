"""Chaos harness: prove kill/resume determinism of durable campaigns.

The durable work queue (:mod:`repro.runner.queue`) claims that a
campaign SIGKILLed at arbitrary points and resumed produces a merged
result **byte-identical** to an uninterrupted run.  This module is
the adversary that earns that claim:

* :func:`run_chaos_fuzz` runs one seeded fuzz campaign twice — once
  uninterrupted and in-process as the control, once as a coordinator
  *subprocess* (own process group) that is SIGKILLed, process group
  and all, at seeded wall-clock points and resumed after each kill.
  Worker-level faults (:class:`repro.runner.queue.ChaosSpec`: SIGKILL
  after claim, stall-mid-task, torn ledger/lease writes) ride along
  via the ``REPRO_CHAOS_SPEC`` environment variable.  The final
  merged report is canonicalized and compared to the control's bytes.
* :func:`run_quarantine_fuzz` injects a poison scenario (one that
  SIGKILLs its worker on *every* attempt) and checks the quarantine
  path: the campaign must complete around the poison task, report it
  quarantined, and leave every healthy scenario's outcome identical
  to the control.

CLI: ``repro chaos`` (the CI chaos job) runs both phases and exits
non-zero unless every injected fault was recovered, the digests
match, and zero oracle mismatches surfaced.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from ..errors import VerificationError
from ..runner.cache import cache_env
from ..runner.queue import (
    CHAOS_ENV,
    CampaignStatus,
    ChaosSpec,
    campaign_status,
)
from .fuzz import FuzzReport, fuzz


def canonical_outcomes(outcomes) -> bytes:
    """Canonical bytes of a campaign's outcome list.

    Byte-identity of two runs is defined over this serialization:
    every scenario outcome (identity, status, mismatch, counters) in
    scenario order, canonically JSON-encoded.
    """
    docs = [dataclasses.asdict(outcome) for outcome in outcomes]
    return json.dumps(docs, sort_keys=True, separators=(",", ":")).encode()


def outcome_digest(outcomes) -> str:
    return hashlib.blake2b(
        canonical_outcomes(outcomes), digest_size=16
    ).hexdigest()


@dataclass(frozen=True)
class ChaosReport:
    """What one chaos phase observed (rendered by ``repro chaos``)."""

    phase: str
    budget: int
    seed: int
    kills: int
    launches: int
    control_digest: str
    chaos_digest: str
    identical: bool
    mismatches: int
    quarantined: tuple[int, ...]
    status: CampaignStatus

    @property
    def ok(self) -> bool:
        return self.identical and self.mismatches == 0

    def render(self) -> str:
        verdict = "OK" if self.ok else "FAILED"
        lines = [
            f"chaos[{self.phase}] budget {self.budget} seed {self.seed}: "
            f"{verdict} — coordinator killed {self.kills}x over "
            f"{self.launches} launch(es), merged digest "
            f"{'==' if self.identical else '!='} control "
            f"({self.chaos_digest[:12]} vs {self.control_digest[:12]}), "
            f"{self.mismatches} oracle mismatches, "
            f"{len(self.quarantined)} quarantined",
            self.status.render(),
        ]
        return "\n".join(lines)


def _fuzz_argv(
    budget: int,
    seed: int,
    jobs: int,
    campaign_id: str,
    task_timeout_s: float,
    families: tuple[str, ...] | None,
    campaign_root,
    resume: bool,
) -> list[str]:
    argv = [
        sys.executable, "-m", "repro", "fuzz",
        "--budget", str(budget),
        "--seed", str(seed),
        "--jobs", str(jobs),
        "--no-artifacts",
        "--campaign", campaign_id,
        "--task-timeout", str(task_timeout_s),
    ]
    if families:
        argv += ["--families", ",".join(families)]
    if campaign_root is not None:
        argv += ["--campaign-root", str(campaign_root)]
    if resume:
        argv.append("--resume")
    return argv


def _subprocess_env(chaos: ChaosSpec | None) -> dict[str, str]:
    """The coordinator subprocess inherits our cache configuration
    (campaigns live under the cache dir) plus the chaos spec."""
    env = dict(os.environ)
    for name, value in cache_env().items():
        if value:
            env[name] = value
        else:
            env.pop(name, None)
    env.pop(CHAOS_ENV, None)
    if chaos is not None and not chaos.empty:
        env[CHAOS_ENV] = chaos.to_json()
    return env


def run_chaos_fuzz(
    budget: int = 200,
    seed: int = 0,
    jobs: int = 2,
    kills: int = 2,
    kill_window: tuple[float, float] = (1.0, 6.0),
    task_timeout_s: float = 30.0,
    chaos: ChaosSpec | None = None,
    families: tuple[str, ...] | None = None,
    campaign_id: str | None = None,
    campaign_root=None,
    max_launches: int = 20,
    verbose: bool = False,
) -> ChaosReport:
    """The kill/resume identity phase.

    Runs the control in-process (an anonymous campaign at ``jobs > 1``,
    inline at ``jobs=1`` — so this also proves a named, killed and
    resumed campaign agrees with a plain run), then drives the same
    campaign through coordinator subprocesses killed at ``kills``
    seeded points, resuming after each kill until completion, and
    compares canonical merged bytes.

    ``chaos`` may add worker-level faults, but not ``poison`` ones —
    a quarantined scenario legitimately changes the merged report
    (that path is :func:`run_quarantine_fuzz`).
    """
    if chaos is not None and chaos.poison:
        raise VerificationError(
            "poison tasks change the merged report by design; use "
            "run_quarantine_fuzz for the quarantine phase"
        )
    if campaign_id is None:
        campaign_id = f"chaos-b{budget}-s{seed}"

    control = fuzz(
        budget,
        seed=seed,
        jobs=jobs,
        families=families,
        write_artifacts=False,
        task_timeout_s=task_timeout_s,
    )
    control_digest = outcome_digest(control.outcomes)

    rng = random.Random((seed << 8) ^ 0xC4A05)
    kill_delays = [rng.uniform(*kill_window) for _ in range(kills)]
    env = _subprocess_env(chaos)
    kills_done = 0
    launches = 0
    while True:
        if launches >= max_launches:
            raise VerificationError(
                f"chaos campaign {campaign_id!r} did not complete "
                f"within {max_launches} launches"
            )
        launches += 1
        argv = _fuzz_argv(
            budget, seed, jobs, campaign_id, task_timeout_s, families,
            campaign_root, resume=launches > 1,
        )
        # Own process group so one SIGKILL takes coordinator AND
        # workers — the most brutal version of "the machine died".
        proc = subprocess.Popen(
            argv,
            env=env,
            start_new_session=True,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        if kills_done < kills:
            try:
                proc.wait(timeout=kill_delays[kills_done])
                # Finished before this kill point; nothing left to
                # kill — later kill points are moot.
                if verbose:
                    print(
                        f"chaos: campaign finished before kill "
                        f"{kills_done + 1}", file=sys.stderr,
                    )
                break
            except subprocess.TimeoutExpired:
                try:
                    os.killpg(os.getpgid(proc.pid), signal.SIGKILL)
                except (ProcessLookupError, OSError):
                    pass
                proc.wait()
                kills_done += 1
                if verbose:
                    print(
                        f"chaos: SIGKILLed coordinator (kill "
                        f"{kills_done}/{kills}) after "
                        f"{kill_delays[kills_done - 1]:.2f}s",
                        file=sys.stderr,
                    )
                time.sleep(0.1)  # let the torn state settle on disk
                continue
        proc.wait(timeout=3600)
        break

    # Resuming a completed campaign re-executes nothing — it is a
    # pure merge of the checkpointed results.
    merged = fuzz(
        budget,
        seed=seed,
        jobs=jobs,
        families=families,
        write_artifacts=False,
        task_timeout_s=task_timeout_s,
        campaign_id=campaign_id,
        resume=True,
        campaign_root=campaign_root,
    )
    chaos_digest = outcome_digest(merged.outcomes)
    status = campaign_status(
        campaign_id, root=_status_root(campaign_root)
    )
    return ChaosReport(
        phase="kill-resume",
        budget=budget,
        seed=seed,
        kills=kills_done,
        launches=launches,
        control_digest=control_digest,
        chaos_digest=chaos_digest,
        identical=chaos_digest == control_digest,
        mismatches=sum(
            1 for o in merged.outcomes if o.status == "mismatch"
        ),
        quarantined=tuple(
            i for i, o in enumerate(merged.outcomes)
            if o.status == "quarantined"
        ),
        status=status,
    )


def _status_root(campaign_root):
    return None if campaign_root is None else Path(campaign_root)


def run_quarantine_fuzz(
    budget: int = 24,
    seed: int = 0,
    jobs: int = 2,
    poison_task: int = 0,
    task_timeout_s: float = 30.0,
    max_attempts: int = 3,
    families: tuple[str, ...] | None = None,
    campaign_id: str | None = None,
    campaign_root=None,
    out_dir=None,
) -> ChaosReport:
    """The poison/quarantine phase.

    Scenario ``poison_task`` SIGKILLs its worker on every attempt; the
    campaign must complete anyway, quarantine exactly that scenario
    after ``max_attempts``, and leave every *other* outcome identical
    to the control's.  ``identical`` on the returned report means
    "identical modulo the poisoned index".
    """
    if not 0 <= poison_task < budget:
        raise VerificationError(
            f"poison_task must be in [0, {budget}), got {poison_task}"
        )
    if campaign_id is None:
        campaign_id = f"chaos-poison-b{budget}-s{seed}"
    control = fuzz(
        budget,
        seed=seed,
        jobs=jobs,
        families=families,
        write_artifacts=False,
        task_timeout_s=task_timeout_s,
    )
    spec = ChaosSpec(poison=(poison_task,))
    previous = os.environ.get(CHAOS_ENV)
    os.environ[CHAOS_ENV] = spec.to_json()
    try:
        report: FuzzReport = fuzz(
            budget,
            seed=seed,
            jobs=jobs,
            families=families,
            write_artifacts=out_dir is not None,
            out_dir=out_dir,
            task_timeout_s=task_timeout_s,
            campaign_id=campaign_id,
            max_attempts=max_attempts,
            campaign_root=campaign_root,
        )
    finally:
        if previous is None:
            os.environ.pop(CHAOS_ENV, None)
        else:
            os.environ[CHAOS_ENV] = previous
    quarantined = tuple(
        i for i, o in enumerate(report.outcomes)
        if o.status == "quarantined"
    )
    healthy = [
        o for i, o in enumerate(report.outcomes) if i != poison_task
    ]
    healthy_control = [
        o for i, o in enumerate(control.outcomes) if i != poison_task
    ]
    identical = (
        quarantined == (poison_task,)
        and outcome_digest(healthy) == outcome_digest(healthy_control)
    )
    status = campaign_status(
        campaign_id, root=_status_root(campaign_root)
    )
    return ChaosReport(
        phase="quarantine",
        budget=budget,
        seed=seed,
        kills=0,
        launches=1,
        control_digest=outcome_digest(healthy_control),
        chaos_digest=outcome_digest(healthy),
        identical=identical,
        mismatches=sum(
            1 for o in report.outcomes if o.status == "mismatch"
        ),
        quarantined=quarantined,
        status=status,
    )
