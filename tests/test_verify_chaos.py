"""Chaos harness + fuzz campaign integration: kill/resume identity,
per-scenario wall-clock timeouts, quarantine of poison scenarios."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

from repro.errors import VerificationError
from repro.runner.queue import ChaosSpec
from repro.verify import STALL_FAULT, fuzz, load_case
from repro.verify.chaos import (
    canonical_outcomes,
    outcome_digest,
    run_chaos_fuzz,
    run_quarantine_fuzz,
)

BUDGET = 6  # tiny but covers every family slice at least once

#: Arms the task alarm 1-40 ms into a warmed check of the seed-3
#: ``diamond`` scenario, whose served-vs-direct and routed-vs-direct
#: stages run asyncio loops (about 25 ms per check).
_ALARM_SWEEP = textwrap.dedent("""
    from repro.verify.differential import check_scenario
    from repro.verify.fuzz import TaskTimeout, _alarm, make_scenarios

    scenario = make_scenarios(2, seed=3)[1]
    assert set(scenario.stages) == {"served-vs-direct", "routed-vs-direct"}
    check_scenario(scenario)
    for ms in range(1, 41):
        try:
            with _alarm(ms / 1000):
                outcome = check_scenario(scenario)
        except TaskTimeout:
            continue
        assert outcome.status == "ok", outcome
    print("swept")
""")


class TestTaskTimeout:
    def test_stall_fault_requires_task_timeout(self):
        with pytest.raises(VerificationError, match="task_timeout_s"):
            fuzz(2, fault=STALL_FAULT)

    def test_resume_requires_campaign_id(self):
        with pytest.raises(VerificationError, match="campaign_id"):
            fuzz(2, resume=True)

    def test_stalled_scenarios_time_out_and_produce_cases(self, tmp_path):
        """Every scenario wedges (injected stall); the in-worker alarm
        converts each into a timeout failure with a replayable case."""
        report = fuzz(
            2,
            seed=3,
            jobs=1,
            fault=STALL_FAULT,
            task_timeout_s=0.5,
            out_dir=tmp_path / "cases",
        )
        assert not report.ok
        assert report.timed_out == 2
        assert {o.status for o in report.outcomes} == {"timeout"}
        assert "TIMEOUT" in report.render()
        for failure in report.failures:
            assert failure.outcome.mismatch.stage == "task-timeout"
            assert failure.case_path is not None
            # The fuzz-only stall fault is stripped before persisting:
            # replay tooling does not know it, and a disarmed stall
            # replays clean.
            case = load_case(failure.case_path)
            assert case.scenario.fault is None

    def test_alarm_at_any_offset_into_served_check_returns(self):
        """Wherever the alarm lands in an asyncio-driven check, the
        check returns: a timeout that asyncio parks in a background
        task, or that a finalizer swallows, is raised again."""
        src = str(Path(repro.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", _ALARM_SWEEP],
            capture_output=True, text=True, timeout=90,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "swept"

    def test_timeout_none_means_no_alarm(self):
        report = fuzz(2, seed=4, jobs=1, write_artifacts=False)
        assert report.timed_out == 0


class TestFuzzCampaign:
    def test_campaign_path_matches_pool_path_byte_for_byte(self):
        """A named campaign, an anonymous one (plain ``jobs=2``) and
        the inline ``jobs=1`` run agree on canonical outcome bytes —
        the core identity the chaos harness builds on."""
        inline = fuzz(BUDGET, seed=1, jobs=1, write_artifacts=False)
        anonymous = fuzz(BUDGET, seed=1, jobs=2, write_artifacts=False)
        campaign = fuzz(
            BUDGET, seed=1, jobs=2, write_artifacts=False,
            campaign_id="pool-vs-campaign",
        )
        expected = canonical_outcomes(inline.outcomes)
        assert canonical_outcomes(anonymous.outcomes) == expected
        assert canonical_outcomes(campaign.outcomes) == expected

    def test_resume_of_complete_campaign_is_a_pure_merge(self):
        first = fuzz(
            BUDGET, seed=2, jobs=2, write_artifacts=False,
            campaign_id="fuzz-remerge",
        )
        again = fuzz(
            BUDGET, seed=2, jobs=2, write_artifacts=False,
            campaign_id="fuzz-remerge", resume=True,
        )
        assert outcome_digest(again.outcomes) == outcome_digest(
            first.outcomes
        )

    def test_campaign_with_different_params_is_refused(self):
        from repro.runner.queue import CampaignError

        fuzz(
            BUDGET, seed=5, jobs=1, write_artifacts=False,
            campaign_id="fuzz-params",
        )
        with pytest.raises(CampaignError, match="different parameters"):
            fuzz(
                BUDGET, seed=6, jobs=1, write_artifacts=False,
                campaign_id="fuzz-params", resume=True,
            )


    def test_campaign_from_before_the_stage_registry_is_refused(
        self, tmp_path
    ):
        """A campaign started while scenarios carried one flag per
        oracle stage pickled that old ``Scenario`` in its checkpoints;
        its fingerprint had no version tag, and resuming it must be
        refused rather than merged."""
        import hashlib
        import json

        from repro.runner.queue import CampaignError, campaign_dir

        root = tmp_path / "campaigns"
        fuzz(
            BUDGET, seed=5, jobs=1, write_artifacts=False,
            campaign_id="fuzz-v1", campaign_root=root,
        )
        untagged = repr(("fuzz", BUDGET, 5, None, None, None, False, None))
        manifest = campaign_dir("fuzz-v1", root) / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["params_fingerprint"] = hashlib.blake2b(
            untagged.encode(), digest_size=16
        ).hexdigest()
        manifest.write_text(json.dumps(doc))
        with pytest.raises(CampaignError, match="different parameters"):
            fuzz(
                BUDGET, seed=5, jobs=1, write_artifacts=False,
                campaign_id="fuzz-v1", campaign_root=root, resume=True,
            )

    def test_campaign_with_a_bare_task_list_is_refused(self, tmp_path):
        """A campaign created when ``tasks.pkl`` held only the items
        (its workers resolved the task function by name) cannot be
        resumed: unpacking its list as ``(fn, items)`` would misread
        it, so the resume is refused with a message."""
        import hashlib
        import json
        import pickle

        from repro.runner.queue import CampaignError, campaign_dir

        root = tmp_path / "campaigns"
        fuzz(
            BUDGET, seed=5, jobs=1, write_artifacts=False,
            campaign_id="fuzz-bare", campaign_root=root,
        )
        directory = campaign_dir("fuzz-bare", root)
        _fn, items = pickle.loads((directory / "tasks.pkl").read_bytes())
        raw = pickle.dumps(items[:2], protocol=5)
        (directory / "tasks.pkl").write_bytes(raw)
        doc = json.loads((directory / "manifest.json").read_text())
        doc["tasks_digest"] = hashlib.blake2b(raw, digest_size=16).hexdigest()
        (directory / "manifest.json").write_text(json.dumps(doc))
        with pytest.raises(CampaignError, match="predates"):
            fuzz(
                BUDGET, seed=5, jobs=1, write_artifacts=False,
                campaign_id="fuzz-bare", campaign_root=root, resume=True,
            )

class TestChaosHarness:
    def test_poison_spec_is_rejected_by_kill_resume_phase(self):
        with pytest.raises(VerificationError, match="run_quarantine_fuzz"):
            run_chaos_fuzz(chaos=ChaosSpec(poison=(0,)))

    def test_kill_resume_is_byte_identical(self, tmp_path):
        """The tentpole claim, miniaturized: SIGKILL the coordinator
        (whole process group) mid-campaign, resume, and the merged
        report is byte-identical to the uninterrupted control."""
        report = run_chaos_fuzz(
            budget=8,
            seed=0,
            jobs=2,
            kills=1,
            kill_window=(0.8, 1.6),
            task_timeout_s=60.0,
            campaign_root=tmp_path / "campaigns",
        )
        assert report.identical, report.render()
        assert report.mismatches == 0
        assert report.quarantined == ()
        assert report.ok and "OK" in report.render()
        # Kill points landing after completion are legitimately moot,
        # but at least one coordinator launch must have happened.
        assert report.launches >= 1

    def test_quarantine_phase_isolates_the_poison_scenario(self, tmp_path):
        report = run_quarantine_fuzz(
            budget=BUDGET,
            seed=0,
            jobs=2,
            poison_task=2,
            max_attempts=2,
            campaign_root=tmp_path / "campaigns",
        )
        assert report.quarantined == (2,)
        assert report.identical, report.render()  # healthy outcomes match
        assert report.ok
        assert report.status.quarantined == 1
        assert "QUARANTINED task 2" in report.status.render()

    def test_quarantine_poison_task_bounds(self):
        with pytest.raises(VerificationError, match="poison_task"):
            run_quarantine_fuzz(budget=4, poison_task=9)


class TestCanonicalization:
    def test_digest_is_deterministic_and_order_sensitive(self):
        a = fuzz(3, seed=7, jobs=1, write_artifacts=False)
        b = fuzz(3, seed=7, jobs=1, write_artifacts=False)
        assert canonical_outcomes(a.outcomes) == canonical_outcomes(
            b.outcomes
        )
        assert outcome_digest(a.outcomes) != outcome_digest(
            list(reversed(b.outcomes))
        )
