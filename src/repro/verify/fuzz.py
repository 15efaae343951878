"""Seeded differential fuzzing over the synthetic scenario families.

``fuzz(budget=N, seed=S, jobs=J)`` derives ``N`` scenarios from one
master seed — round-robin over the generator families so every family
is exercised even at small budgets, with sizes spanning degenerate
(``n=3``) through a few hundred nodes, random architecture points from
:data:`CONFIG_POOL`, and per-scenario value seeds — then fans the
differential oracle (:func:`repro.verify.differential.check_scenario`)
out over the durable work queue (:func:`repro.runner.orchestrator.
fan_out`).

Scenario derivation is a pure function of ``(budget, seed, families,
fault)``: re-running with the same arguments replays the identical
scenario list, so a CI failure is reproducible locally from the two
numbers in the log line.

On mismatch, the failing DAG is shrunk to a minimal reproducer
(:func:`repro.verify.shrink.shrink_dag`) and written as a replayable
artifact under ``results/repro_cases/`` (:mod:`repro.verify.
artifacts`).

Two robustness layers sit on top of the oracle:

* ``task_timeout_s`` arms a per-scenario wall-clock alarm inside the
  worker (``SIGALRM``), so one wedged compile cannot stall a whole
  campaign — timed-out scenarios come back as failures, are shrunk
  with a timeout-aware predicate and written as repro cases.  The
  fuzz-only :data:`STALL_FAULT` injects exactly that wedge for tests.
* every fan-out follows the queue's failure policy: a scenario whose
  worker dies is re-run, and a poison scenario is quarantined after
  ``max_attempts`` (and reported as a failure) instead of sinking the
  campaign.  ``campaign_id`` names the campaign, so its progress is
  checkpointed under the cache dir and a killed run resumes with
  ``resume=True`` (CLI ``repro fuzz --resume --campaign <id>``).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import random
import signal
import threading
import time
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import VerificationError
from ..runner.orchestrator import fan_out
from ..workloads.synth import MIN_NODES, SYNTH_FAMILIES, SynthParams
from .artifacts import ReproCase, write_case
from .differential import (
    FAULTS,
    STAGES,
    Mismatch,
    Scenario,
    ScenarioOutcome,
    check_scenario,
)
from .shrink import ShrinkResult, shrink_dag

#: Fuzz-layer-only injected fault: the scenario wedges mid-task
#: (sleeps past any reasonable budget) instead of miscomputing.  It is
#: deliberately NOT in :data:`repro.verify.differential.FAULTS` — the
#: oracle never sees it; the timed task wrapper intercepts it before
#: :func:`check_scenario` runs.  Requires ``task_timeout_s``.
STALL_FAULT = "stall"


#: Interval at which an expired :func:`_alarm` fires again until its
#: context exits.
ALARM_REARM_S = 0.05


class TaskTimeout(BaseException):
    """A scenario exceeded its wall-clock budget.

    Derives from ``BaseException`` so broad ``except Exception``
    blocks in library code (cache reads treating corruption as a
    miss, etc.) cannot swallow the alarm.  Where it is lost anyway —
    asyncio stores it in the background task it interrupted (such as
    ``MicroBatcher._collect``), or a finalizer swallows it — the alarm
    raises it again every :data:`ALARM_REARM_S` until the timed block
    exits, so the task cannot wedge.
    """


def _raise_task_timeout(signum, frame):  # noqa: ARG001 - signal API
    raise TaskTimeout()


@contextlib.contextmanager
def _alarm(timeout_s: float | None):
    """Raise :class:`TaskTimeout` after ``timeout_s`` via ``SIGALRM``,
    and again every :data:`ALARM_REARM_S` until the context exits.

    No-op when ``timeout_s`` is ``None`` or when not on the main
    thread (signal handlers can only be installed there; worker
    processes run tasks on their main thread, so the guard only
    relaxes in exotic embedding situations).
    """
    if (
        timeout_s is None
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    previous = signal.signal(signal.SIGALRM, _raise_task_timeout)
    try:
        signal.setitimer(signal.ITIMER_REAL, timeout_s, ALARM_REARM_S)
        yield
    finally:
        # A re-fire can land before the timer is off; retry until the
        # disarm itself completes.
        while True:
            try:
                signal.setitimer(signal.ITIMER_REAL, 0)
                break
            except TaskTimeout:
                pass
        signal.signal(signal.SIGALRM, previous)


def _check_timed_task(item: tuple) -> ScenarioOutcome:
    """Fan-out task body: one scenario under a wall-clock budget.

    The item is ``(scenario, timeout_s)``, so one module-level callable
    serves inline runs and campaign workers alike.
    """
    scenario, timeout_s = item
    if timeout_s is None:
        return check_scenario(scenario)
    try:
        with _alarm(timeout_s):
            if scenario.fault == STALL_FAULT:
                # The injected wedge: sleep until the alarm fires.
                time.sleep(timeout_s + 3600.0)
            return check_scenario(scenario)
    except TaskTimeout:
        return ScenarioOutcome(
            scenario=scenario,
            status="timeout",
            mismatch=Mismatch(
                "task-timeout",
                f"exceeded {timeout_s:g}s wall clock",
            ),
            nodes=scenario.params.n,
            fingerprint="",
            cycles=0,
        )

#: Architecture points the fuzzer samples.  Mostly roomy register
#: files (so compilation always succeeds) plus one deliberately tight
#: point that forces the spill machinery; scenarios it cannot fit are
#: reported as skipped, not failed.
CONFIG_POOL: tuple[str, ...] = (
    "D1-B8-R16",
    "D2-B8-R16",
    "D2-B8-R8",
    "D2-B16-R32",
    "D3-B16-R16",
    "D3-B32-R32",
)

#: Batch widths a scenario draws from: one row, a four-row body, and 67
#: rows — past :data:`repro.sim.native.TILE` twice, so load-heavy plans
#: run the tiled sweep with two full 32-lane tiles and a partial one.
#: A three-way choice, like the (1, 2, 4) it replaced, consumes the
#: master rng identically, so every other scenario field is unchanged.
FUZZ_BATCHES: tuple[int, ...] = (1, 4, 67)


def make_scenarios(
    budget: int,
    seed: int = 0,
    families: Iterable[str] | None = None,
    fault: str | None = None,
    configs: Iterable[str] | None = None,
    image_all: bool = False,
) -> list[Scenario]:
    """Derive the deterministic scenario list for one fuzzing run.

    With ``image_all`` the binary-image round-trip stage runs on
    *every* scenario instead of its default every-fourth slice (the
    CI ``image-roundtrip`` job uses this).

    Raises:
        VerificationError: Unknown family/fault name or a budget < 1.
    """
    if budget < 1:
        raise VerificationError(f"budget must be >= 1, got {budget}")
    chosen = tuple(families) if families else tuple(sorted(SYNTH_FAMILIES))
    unknown = [f for f in chosen if f not in SYNTH_FAMILIES]
    if unknown:
        raise VerificationError(
            f"unknown synth families {unknown}; choose from "
            f"{sorted(SYNTH_FAMILIES)}"
        )
    if fault is not None and fault not in FAULTS and fault != STALL_FAULT:
        raise VerificationError(
            f"unknown fault {fault!r}; choose from "
            f"{sorted([*FAULTS, STALL_FAULT])}"
        )
    pool = tuple(configs) if configs else CONFIG_POOL
    rng = random.Random(seed)
    scenarios: list[Scenario] = []
    for i in range(budget):
        family = chosen[i % len(chosen)]
        tier = rng.random()
        if tier < 0.15:  # degenerate / tiny
            n = rng.randint(MIN_NODES, 9)
        elif tier < 0.85:  # bread and butter
            n = rng.randint(10, 120)
        else:  # chunky
            n = rng.randint(121, 260)
        kwargs = _family_kwargs(rng, family, n)
        # Each optional stage runs on the scenarios whose index falls
        # in its registry slot (i % 4), disjoint slices (slot 3 has
        # none); --image-all adds the image stage everywhere.  None of
        # this consumes the master rng, so the (family, n, seed,
        # config, value_seed, batch) stream — and with it the pinned
        # verify_synth golden — is unchanged from earlier revisions.
        stages = tuple(
            s.name for s in STAGES
            if s.slot == i % 4 or (image_all and s.name == "image-roundtrip")
        )
        scenarios.append(
            Scenario(
                params=SynthParams(
                    family=family,
                    n=n,
                    seed=rng.randrange(2**31),
                    kwargs=tuple(sorted(kwargs.items())),
                ),
                config_label=pool[rng.randrange(len(pool))],
                value_seed=rng.randrange(2**31),
                batch=rng.choice(FUZZ_BATCHES),
                fault=fault,
                stages=stages,
            )
        )
    return scenarios


def _family_kwargs(
    rng: random.Random, family: str, n: int
) -> dict[str, object]:
    """Occasionally push a family-specific knob to an extreme."""
    if rng.random() < 0.6:
        return {}  # family defaults
    if family == "layered":
        return {
            "fill_prob": rng.choice((0.0, 0.25, 1.0)),
            "width": rng.choice((0, 2, 3)),
        }
    if family == "wide":
        return {"fan_in": rng.randint(2, 6)}
    if family == "diamond":
        return {"paths": rng.randint(2, 6)}
    if family == "near_chain":
        return {"skip_prob": rng.choice((0.0, 0.3, 0.6))}
    if family == "disconnected":
        return {"components": rng.randint(1, max(1, min(4, n // MIN_NODES)))}
    if family == "reuse":
        return {"pool_size": rng.randint(2, 6)}
    if family == "skewed_fanout":
        return {"hubs": rng.randint(1, max(1, min(3, n // 3)))}
    return {}


@dataclass(frozen=True)
class FuzzFailure:
    """One mismatch, shrunk and (optionally) written to disk."""

    outcome: ScenarioOutcome
    shrunk_nodes: int
    shrink_checks: int
    case_path: Path | None


@dataclass
class FuzzReport:
    """Aggregate result of one fuzzing run."""

    budget: int
    seed: int
    outcomes: list[ScenarioOutcome]
    failures: list[FuzzFailure] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    @property
    def checked(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ok")

    @property
    def skipped(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "skipped")

    @property
    def timed_out(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "timeout")

    @property
    def quarantined(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "quarantined")

    def by_family(self) -> dict[str, dict[str, int]]:
        """Per-family tallies for reports and snapshots."""
        table: dict[str, dict[str, int]] = {}
        for o in self.outcomes:
            row = table.setdefault(
                o.scenario.params.family,
                {"scenarios": 0, "ok": 0, "skipped": 0, "mismatches": 0,
                 "nodes": 0, "cycles": 0},
            )
            row["scenarios"] += 1
            row["nodes"] += o.nodes
            row["cycles"] += o.cycles
            key = {"ok": "ok", "skipped": "skipped"}.get(
                o.status, "mismatches"
            )
            row[key] += 1
        return dict(sorted(table.items()))

    def render(self) -> str:
        extra = ""
        if self.timed_out or self.quarantined:
            extra = (
                f" ({self.timed_out} timed out, "
                f"{self.quarantined} quarantined)"
            )
        lines = [
            f"fuzz: budget {self.budget}, seed {self.seed} — "
            f"{self.checked} ok, {self.skipped} skipped (spill-bound), "
            f"{len(self.failures)} mismatches{extra}"
        ]
        header = f"{'family':16s} {'runs':>5s} {'ok':>5s} " \
                 f"{'skip':>5s} {'fail':>5s} {'nodes':>8s}"
        lines.append(header)
        for family, row in self.by_family().items():
            lines.append(
                f"{family:16s} {row['scenarios']:5d} {row['ok']:5d} "
                f"{row['skipped']:5d} {row['mismatches']:5d} "
                f"{row['nodes']:8d}"
            )
        for failure in self.failures:
            o = failure.outcome
            label = {
                "timeout": "TIMEOUT",
                "quarantined": "QUARANTINED",
            }.get(o.status, "MISMATCH")
            lines.append(
                f"{label} {o.scenario.params.family} "
                f"n={o.scenario.params.n} seed={o.scenario.params.seed}: "
                f"{o.mismatch} -> shrunk to {failure.shrunk_nodes} nodes"
                + (f" ({failure.case_path})" if failure.case_path else "")
            )
        return "\n".join(lines)


def _storable_scenario(scenario: Scenario) -> Scenario:
    """Strip the fuzz-only stall fault before persisting a case: the
    oracle (and replay) does not know it, and a disarmed stall replays
    clean — exactly like a disarmed executor fault."""
    if scenario.fault == STALL_FAULT:
        return dataclasses.replace(scenario, fault=None)
    return scenario


def _shrink_failure(
    outcome: ScenarioOutcome,
    write_artifacts: bool,
    out_dir: str | Path | None,
    task_timeout_s: float | None = None,
) -> FuzzFailure:
    """Minimize one failing scenario and persist the repro case."""
    scenario = outcome.scenario
    timed_out = outcome.status == "timeout"
    storable = _storable_scenario(scenario)
    dag = scenario.params.build()

    if timed_out:
        # Keep candidates that still blow the wall-clock budget.  The
        # injected stall wedges independently of the DAG, so every
        # candidate "fails" and shrinking converges instantly; a real
        # wedge shrinks toward the smallest DAG that still hangs.
        def still_fails(candidate) -> bool:
            if scenario.fault == STALL_FAULT:
                return True
            try:
                with _alarm(task_timeout_s):
                    storable.diff_check(candidate)
            except TaskTimeout:
                return True
            return False

    else:
        def still_fails(candidate) -> bool:
            return storable.diff_check(candidate).mismatch is not None

    shrunk: ShrinkResult = shrink_dag(dag, still_fails)
    case_path: Path | None = None
    if write_artifacts:
        # Record the mismatch as observed on the *shrunk* DAG — the
        # stage can legitimately sharpen while shrinking.  The final
        # probe runs under the alarm too: a shrunk-but-still-wedging
        # DAG must not hang the reporting path.
        final_mismatch = outcome.mismatch
        try:
            with _alarm(task_timeout_s):
                final = storable.diff_check(shrunk.dag)
            if final.mismatch is not None:
                final_mismatch = final.mismatch
        except TaskTimeout:
            pass
        case = ReproCase(
            scenario=storable,
            mismatch=final_mismatch,
            shrunk_dag=shrunk.dag,
            original_nodes=dag.num_nodes,
            shrink_checks=shrunk.checks,
        )
        case_path = write_case(case, out_dir)
    return FuzzFailure(
        outcome=outcome,
        shrunk_nodes=shrunk.dag.num_nodes,
        shrink_checks=shrunk.checks,
        case_path=case_path,
    )


def _quarantine_failure(
    outcome: ScenarioOutcome,
    write_artifacts: bool,
    out_dir: str | Path | None,
    task_timeout_s: float | None = None,
) -> FuzzFailure:
    """Persist a quarantined (poison) scenario as a replayable case.

    No shrinking: the scenario killed ``max_attempts`` workers, so
    every probe is a fresh hazard.  The unshrunk DAG is written under
    an alarm guard; if even *building* it wedges, the failure is still
    reported, just without an artifact.
    """
    case_path: Path | None = None
    nodes = outcome.scenario.params.n
    if write_artifacts:
        try:
            with _alarm(task_timeout_s):
                dag = outcome.scenario.params.build()
                nodes = dag.num_nodes
                case = ReproCase(
                    scenario=_storable_scenario(outcome.scenario),
                    mismatch=outcome.mismatch
                    or Mismatch("quarantine", "poison scenario"),
                    shrunk_dag=dag,
                    original_nodes=dag.num_nodes,
                    shrink_checks=0,
                )
                case_path = write_case(case, out_dir)
        except BaseException:  # noqa: BLE001 - reporting must survive
            case_path = None
    return FuzzFailure(
        outcome=outcome,
        shrunk_nodes=nodes,
        shrink_checks=0,
        case_path=case_path,
    )


def _campaign_fingerprint(
    budget: int,
    seed: int,
    families,
    fault,
    configs,
    image_all: bool,
    task_timeout_s,
) -> str:
    """Identity of a fuzz campaign's parameter set: resuming a
    campaign with different parameters must be refused, not silently
    merged."""
    key = repr(
        (
            # v2: scenarios carry ``stages``; checkpoints that pickled
            # the per-stage flags of v1 must not be merged.
            "fuzz-v2",
            budget,
            seed,
            tuple(families) if families else None,
            fault,
            tuple(configs) if configs else None,
            image_all,
            task_timeout_s,
        )
    )
    return hashlib.blake2b(key.encode(), digest_size=16).hexdigest()


def fuzz(
    budget: int,
    seed: int = 0,
    jobs: int | None = None,
    families: Iterable[str] | None = None,
    fault: str | None = None,
    configs: Iterable[str] | None = None,
    write_artifacts: bool = True,
    out_dir: str | Path | None = None,
    progress: bool | Callable[[int, int], None] = False,
    image_all: bool = False,
    task_timeout_s: float | None = None,
    campaign_id: str | None = None,
    resume: bool = False,
    max_attempts: int = 3,
    campaign_root: str | Path | None = None,
) -> FuzzReport:
    """Run one differential fuzzing campaign.

    Args:
        budget: Number of scenarios to generate and check.
        seed: Master seed; (budget, seed, families, fault) fully
            determines the campaign.
        jobs: Worker processes for the oracle fan-out (``None`` =
            ``REPRO_JOBS`` or serial).
        families: Restrict to these generator families (default: all).
        fault: Inject a named executor fault (:data:`repro.verify.
            differential.FAULTS`) or the fuzz-layer
            :data:`STALL_FAULT` into every scenario — for tests and
            demos of the harness itself.
        configs: Override :data:`CONFIG_POOL` labels.
        write_artifacts: Write shrunk repro cases to ``out_dir``.
        out_dir: Case directory (default ``results/repro_cases/``).
        image_all: Run the binary-image round-trip stage on every
            scenario, not just its default every-fourth slice.
        progress: Progress callback or True for a stderr ticker.
        task_timeout_s: Hard per-scenario wall-clock budget enforced
            inside the worker; timed-out scenarios are failures (and
            are shrunk/persisted like any other).
        campaign_id: Name the campaign, so it lives under
            ``campaign_root`` and a killed run can be resumed;
            otherwise a ``jobs > 1`` run is an anonymous campaign in a
            temporary directory, and ``jobs=1`` runs inline.
        resume: Pick up an existing campaign where it left off
            (requires ``campaign_id``).
        max_attempts: Failures per scenario before it is
            quarantined (worker processes only; inline runs raise).
        campaign_root: Override the directory of named campaigns
            (default ``<cache dir>/campaigns``).

    Returns:
        A :class:`FuzzReport`; ``report.ok`` is False iff any scenario
        mismatched, timed out or was quarantined (reproducers are in
        ``report.failures``).
    """
    if fault == STALL_FAULT and task_timeout_s is None:
        raise VerificationError(
            f"the {STALL_FAULT!r} fault wedges scenarios forever; it "
            "requires task_timeout_s (--task-timeout) to be survivable"
        )
    if resume and campaign_id is None:
        raise VerificationError(
            "resume=True needs a campaign_id (--campaign <id>)"
        )
    scenarios = make_scenarios(
        budget, seed=seed, families=families, fault=fault, configs=configs,
        image_all=image_all,
    )
    # The in-worker alarm is the first line of defense; the
    # coordinator's wall-clock kill is the backstop for wedges the
    # alarm cannot interrupt (C-level loops).
    backstop = None if task_timeout_s is None else task_timeout_s + 30.0
    results, quarantined = fan_out(
        _check_timed_task,
        [(s, task_timeout_s) for s in scenarios],
        jobs,
        campaign_id=campaign_id,
        resume=resume,
        campaign_root=campaign_root,
        kind="fuzz",
        params_fingerprint=_campaign_fingerprint(
            budget, seed, families, fault, configs, image_all,
            task_timeout_s,
        ),
        max_attempts=max_attempts,
        task_timeout_s=backstop,
        progress=progress,
        desc="fuzz",
    )
    outcomes = []
    for i, value in enumerate(results):
        if i in quarantined:
            doc = quarantined[i]
            value = ScenarioOutcome(
                scenario=scenarios[i],
                status="quarantined",
                mismatch=Mismatch(
                    "quarantine",
                    f"{doc.get('attempts', '?')} failed attempts; last: "
                    f"{str(doc.get('error', ''))[:200]}",
                ),
                nodes=scenarios[i].params.n,
                fingerprint="",
                cycles=0,
            )
        outcomes.append(value)
    report = FuzzReport(budget=budget, seed=seed, outcomes=outcomes)
    for outcome in outcomes:
        if outcome.status in ("mismatch", "timeout"):
            report.failures.append(
                _shrink_failure(
                    outcome, write_artifacts, out_dir, task_timeout_s
                )
            )
        elif outcome.status == "quarantined":
            report.failures.append(
                _quarantine_failure(
                    outcome, write_artifacts, out_dir, task_timeout_s
                )
            )
    return report
