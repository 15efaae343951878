"""The differential verification subsystem end to end.

The harness must (a) pass cleanly on healthy scenarios across every
generator family, (b) catch each class of injected executor fault at
the oracle stage built to detect it, (c) shrink a failing DAG to a
minimal reproducer, and (d) write/replay repro-case artifacts.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch import ArchConfig
from repro.errors import VerificationError, WorkloadError
from repro.graphs import DAGBuilder, OpType, validate
from repro.verify import (
    FAULTS,
    STAGES,
    Scenario,
    check_scenario,
    config_from_label,
    diff_check_dag,
    extract_subdag,
    fuzz,
    load_case,
    make_scenarios,
    replay_case,
    shrink_dag,
    write_case,
)
from repro.workloads import SynthParams, generate_synth


class TestConfigLabels:
    def test_roundtrip(self):
        cfg = config_from_label("D2-B16-R32")
        assert (cfg.depth, cfg.banks, cfg.regs_per_bank) == (2, 16, 32)

    @pytest.mark.parametrize("label", ["", "banana", "D2-B16", "Dx-B1-R2"])
    def test_malformed(self, label):
        with pytest.raises(VerificationError, match="invalid config"):
            config_from_label(label)


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "family",
        ["layered", "deep", "diamond", "skewed_fanout", "disconnected",
         "reuse"],
    )
    def test_families_agree(self, family, tiny_config):
        dag = generate_synth(family, 60, seed=13)
        report = diff_check_dag(dag, tiny_config, value_seed=5, batch=3)
        assert report.ok, str(report.mismatch)
        assert report.cycles > 0

    def test_spill_heavy_scenario_agrees(self):
        # R=8 forces the spill machinery through the oracle's path.
        dag = generate_synth("layered", 120, seed=3)
        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=8)
        report = diff_check_dag(dag, cfg, value_seed=1)
        assert report.ok, str(report.mismatch)

    def test_unknown_fault_rejected(self, tiny_config):
        dag = generate_synth("deep", 10, seed=0)
        with pytest.raises(VerificationError, match="unknown fault"):
            diff_check_dag(dag, tiny_config, fault="gremlins")


class TestFaultInjection:
    """Each fault must be caught at the stage built to detect it."""

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_caught_at_expected_stage(self, fault, tiny_config):
        dag = generate_synth("near_chain", 40, seed=8)
        report = diff_check_dag(
            dag, tiny_config, value_seed=2, batch=2, fault=fault
        )
        assert report.mismatch is not None
        assert report.mismatch.stage == FAULTS[fault]

    def test_scenario_outcome_carries_mismatch(self):
        scenario = Scenario(
            params=SynthParams("diamond", 30, seed=4),
            config_label="D2-B8-R16",
            value_seed=9,
            fault="batch_output",
        )
        outcome = check_scenario(scenario)
        assert outcome.status == "mismatch"
        assert outcome.mismatch.stage == "scalar-vs-batch"


    def test_unknown_stage_rejected(self, tiny_config):
        dag = generate_synth("deep", 10, seed=0)
        with pytest.raises(VerificationError, match="unknown oracle stage"):
            diff_check_dag(dag, tiny_config, stages=("gremlins",))

    @pytest.mark.parametrize("fault", sorted(FAULTS))
    def test_fault_caught_when_the_highest_output_overflows(self, fault):
        """``nextafter`` is a no-op on inf/NaN: the shared injection
        must corrupt an overflowed output some other way, or 7 of the
        9 faults silently vanish on this DAG."""
        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        v = b.add_op(OpType.ADD, [x, y])
        for _ in range(14):
            v = b.add_op(OpType.MUL, [v, v])
        b.add_op(OpType.ADD, [v, x])
        dag = b.build()
        with np.errstate(over="ignore"):
            report = diff_check_dag(
                dag, config_from_label("D2-B8-R16"), value_seed=2, batch=2,
                fault=fault,
            )
        assert report.mismatch is not None, "fault vanished on inf output"
        assert report.mismatch.stage == FAULTS[fault]

    @pytest.mark.parametrize("stage", STAGES, ids=lambda s: s.fault)
    def test_every_fault_shrinks_to_the_minimum(self, stage):
        report = fuzz(
            budget=4,
            seed=6,
            families=["near_chain"],
            fault=stage.fault,
            write_artifacts=False,
        )
        assert len(report.failures) == 4
        for failure in report.failures:
            assert failure.outcome.mismatch.stage == stage.name
            assert failure.shrunk_nodes == 3


class TestShrinking:
    def test_always_firing_fault_shrinks_to_minimum(self, tiny_config):
        """The acceptance-criterion test: an injected simulator fault
        is caught and shrunk to a minimal reproducer."""
        dag = generate_synth("layered", 90, seed=17)

        def still_fails(candidate):
            report = diff_check_dag(
                candidate, tiny_config, value_seed=3, fault="batch_output"
            )
            return report.mismatch is not None

        assert still_fails(dag)
        shrunk = shrink_dag(dag, still_fails)
        validate(shrunk.dag)
        assert still_fails(shrunk.dag)
        # Minimal reproducer: one operation over two inputs.
        assert shrunk.dag.num_operations == 1
        assert shrunk.dag.num_nodes == 3
        assert shrunk.removed_nodes == dag.num_nodes - 3
        assert shrunk.checks >= 1

    def test_targeted_bug_keeps_its_trigger(self, tiny_config):
        """A bug firing only for MUL sinks shrinks to a small DAG that
        still contains a MUL sink."""
        dag = generate_synth("layered", 80, seed=0)

        def still_fails(candidate):
            return any(
                candidate.op(s) is OpType.MUL for s in candidate.sinks()
            )

        assert still_fails(dag)  # seed chosen so this holds
        shrunk = shrink_dag(dag, still_fails)
        assert still_fails(shrunk.dag)
        assert shrunk.dag.num_nodes <= 4

    def test_extract_subdag_renumbers_slots_densely(self):
        dag = generate_synth("layered", 40, seed=2)
        sink = [
            s for s in dag.sinks() if dag.op(s) is not OpType.INPUT
        ][0]
        from repro.verify import ancestor_closure

        sub = extract_subdag(dag, ancestor_closure(dag, [sink]))
        validate(sub)
        slots = sorted(
            sub.input_slot(leaf) for leaf in sub.leaves()
        )
        assert slots == list(range(sub.num_inputs))


class TestFuzzCampaigns:
    def test_clean_run_all_families(self):
        report = fuzz(budget=16, seed=2, write_artifacts=False)
        assert report.ok
        assert report.checked + report.skipped == 16
        assert set(report.by_family()) == {
            s.params.family for s in make_scenarios(16, seed=2)
        }

    def test_campaign_is_deterministic(self):
        a = make_scenarios(12, seed=9)
        b = make_scenarios(12, seed=9)
        assert a == b
        assert a != make_scenarios(12, seed=10)

    def test_fuzz_reaches_the_tiled_sweep(self):
        """The default campaign runs the fused-vs-batch stage on a plan
        the native kernel sweeps in 32-lane tiles (full tiles and a
        partial one), not only on untiled small batches."""
        from repro.compiler import compile_dag
        from repro.errors import SpillError
        from repro.sim import fuse_plan

        for s in make_scenarios(500, seed=0):
            if "fused-vs-batch" not in s.stages or s.batch < 64:
                continue
            try:
                result = compile_dag(s.params.build(), s.config())
            except SpillError:
                continue
            if fuse_plan(result.plan()).tile_width(s.batch) < s.batch:
                return
        pytest.fail("no fused-vs-batch scenario runs a tiled sweep")

    def test_parallel_matches_serial(self):
        serial = fuzz(budget=8, seed=4, jobs=1, write_artifacts=False)
        parallel = fuzz(budget=8, seed=4, jobs=2, write_artifacts=False)
        assert serial.outcomes == parallel.outcomes

    def test_bad_arguments_rejected(self):
        with pytest.raises(VerificationError, match="budget"):
            fuzz(budget=0)
        with pytest.raises(VerificationError, match="unknown synth"):
            fuzz(budget=1, families=["nope"])
        with pytest.raises(VerificationError, match="unknown fault"):
            fuzz(budget=1, fault="nope")

    def test_injected_fault_produces_shrunk_artifact(self, tmp_path):
        report = fuzz(
            budget=2,
            seed=6,
            families=["near_chain"],
            fault="counter_drift",
            out_dir=tmp_path,
        )
        assert not report.ok
        assert len(report.failures) == 2
        for failure in report.failures:
            assert failure.shrunk_nodes == 3  # minimal reproducer
            assert failure.case_path is not None
            payload = json.loads(failure.case_path.read_text())
            assert payload["mismatch"]["stage"] == FAULTS["counter_drift"]
            assert payload["shrunk_nodes"] == 3


class TestStageRegistry:
    def test_faults_derive_from_the_registry(self):
        assert FAULTS == {
            "batch_output": "scalar-vs-batch",
            "scalar_value": "reference-vs-scalar",
            "counter_drift": "plan-vs-scalar-counters",
            "warm_output": "warm-vs-cold",
            "serve_output": "served-vs-direct",
            "router_output": "routed-vs-direct",
            "fused_output": "fused-vs-batch",
            "image_corrupt": "image-roundtrip",
        }
        assert len({s.name for s in STAGES}) == len(STAGES)

    @pytest.mark.parametrize(
        "image_all, digest, counts",
        [
            (
                False,
                "aa22c71cf8f096e5ca289eb7acd3b1f0"
                "31c76a0d5b975fc8371c787c82244f94",
                (125, 125, 125),
            ),
            (
                True,
                "19166d0ba106f482c3f448092aafc65a"
                "225b688a756c424836216b5bafeec5c6",
                (125, 125, 500),
            ),
        ],
    )
    def test_stage_selection_law_is_pinned(self, image_all, digest, counts):
        """Seeded campaigns pick the same stages as when each stage was
        a hand-wired ``Scenario`` flag: the digest over (index,
        optional-stage set) of 500 scenarios was recorded from the
        registry that still held the partition-parallel stage, with
        that stage and its threshold left out of every row."""
        scenarios = make_scenarios(500, seed=0, image_all=image_all)
        rows = [(i, sorted(s.stages)) for i, s in enumerate(scenarios)]
        got = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert got == digest
        assert tuple(
            sum(name in s.stages for s in scenarios)
            for name in (
                "served-vs-direct",
                "fused-vs-batch",
                "image-roundtrip",
            )
        ) == counts

    def test_docs_tables_match_the_registry(self):
        """The README, the package and ``repro fuzz`` docstrings and the
        CI fuzz job carry one stage | fault | scenarios table each;
        every row must match :data:`STAGES`."""
        import repro.verify
        from repro.cli import cmd_fuzz

        root = Path(__file__).parents[1]
        readme = (root / "README.md").read_text()
        texts = {
            "repro.verify": repro.verify.__doc__,
            "cmd_fuzz": cmd_fuzz.__doc__,
            "ci.yml": (root / ".github" / "workflows" / "ci.yml").read_text(),
        }
        for stage in STAGES:
            when = "all" if stage.slot is None else f"i % 4 = {stage.slot}"
            assert f"| `{stage.name}` | `{stage.fault}` | {when} |" in readme
            row = [stage.name, stage.fault, *when.split()]
            for where, text in texts.items():
                assert any(
                    line.replace("#", " ").split() == row
                    for line in text.splitlines()
                ), (where, stage.name)


class TestImageRoundTripStage:
    """The binary-image encode→decode→execute oracle stage."""

    @pytest.mark.parametrize("family", ["layered", "wide", "near_chain"])
    def test_image_stage_clean(self, family, tiny_config):
        dag = generate_synth(family, 50, seed=6)
        report = diff_check_dag(
            dag, tiny_config, value_seed=4, batch=2,
            stages=("image-roundtrip",),
        )
        assert report.ok, str(report.mismatch)

    def test_image_corrupt_fault_caught_and_shrunk(self, tmp_path):
        report = fuzz(
            budget=1,
            seed=3,
            families=["layered"],
            fault="image_corrupt",
            out_dir=tmp_path,
        )
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.outcome.mismatch.stage == "image-roundtrip"
        assert failure.shrunk_nodes <= 5
        replay = replay_case(failure.case_path)
        assert replay.mismatch is not None
        assert replay.mismatch.stage == "image-roundtrip"

    def test_every_fourth_scenario_gets_the_stage(self):
        scenarios = make_scenarios(12, seed=0)
        flags = ["image-roundtrip" in s.stages for s in scenarios]
        assert flags == [i % 4 == 0 for i in range(12)]
        # The slices stay disjoint from the other optional stages.
        for s in scenarios:
            assert s.stages in (
                (),
                ("image-roundtrip",),
                ("fused-vs-batch",),
                ("served-vs-direct", "routed-vs-direct"),
            )

    def test_image_all_overrides_the_slice(self):
        scenarios = make_scenarios(8, seed=0, image_all=True)
        assert all("image-roundtrip" in s.stages for s in scenarios)

    def test_image_all_does_not_perturb_derivation(self):
        base = make_scenarios(8, seed=0)
        everything = make_scenarios(8, seed=0, image_all=True)
        for a, b in zip(base, everything):
            assert a.params == b.params
            assert a.config_label == b.config_label
            assert a.value_seed == b.value_seed
            assert a.batch == b.batch

    def test_image_flag_survives_artifact_round_trip(self, tmp_path):
        report = fuzz(
            budget=4,
            seed=3,
            families=["layered"],
            fault="image_corrupt",
            out_dir=tmp_path,
            image_all=True,
        )
        assert report.failures
        case = load_case(report.failures[0].case_path)
        assert "image-roundtrip" in case.scenario.stages


class TestArtifacts:
    def _one_case(self, tmp_path):
        report = fuzz(
            budget=1,
            seed=1,
            families=["diamond"],
            fault="batch_output",
            out_dir=tmp_path,
        )
        assert report.failures
        return report.failures[0].case_path

    def test_roundtrip_and_replay(self, tmp_path):
        path = self._one_case(tmp_path)
        case = load_case(path)
        validate(case.shrunk_dag)
        assert case.scenario.fault == "batch_output"
        replay = replay_case(path)
        assert replay.mismatch is not None
        assert replay.mismatch.stage == FAULTS["batch_output"]

    def test_replay_clean_after_fault_removed(self, tmp_path):
        """Disarming the fault models fixing the bug: replay -> ok."""
        path = self._one_case(tmp_path)
        payload = json.loads(path.read_text())
        payload["scenario"]["fault"] = None
        path.write_text(json.dumps(payload))
        assert replay_case(path).ok

    #: A case written before the oracle had a stage registry: one
    #: boolean per optional stage instead of a ``stages`` list.
    LEGACY_CASE = {
        "dag": {
            "name": "chain-n70-s1602711601-shrunk",
            "nodes": [
                {"input_slot": 0, "op": "input", "preds": []},
                {"input_slot": 1, "op": "input", "preds": []},
                {"op": "add", "preds": [0, 1]},
            ],
        },
        "fingerprint": "5c2c23e3ebd64b8a566a921d3a0a6892",
        "mismatch": {"detail": "var 2 row 0", "stage": "routed-vs-direct"},
        "original_nodes": 69,
        "scenario": {
            "batch": 2,
            "config": "D2-B8-R8",
            "fault": "router_output",
            "fused": True,
            "image": False,
            "params": {
                "family": "near_chain",
                "kwargs": {"skip_prob": 0.6},
                "n": 70,
                "seed": 1602711601,
            },
            "partition_jobs": 1,
            "partition_threshold": None,
            "serve": True,
            "value_seed": 94015969,
        },
        "schema": 1,
        "shrink_checks": 1,
        "shrunk_nodes": 3,
    }

    def test_legacy_case_loads_and_replays_with_its_stages(self, tmp_path):
        path = tmp_path / "legacy.json"
        path.write_text(json.dumps(self.LEGACY_CASE))
        case = load_case(path)
        assert case.scenario.stages == (
            "fused-vs-batch", "served-vs-direct", "routed-vs-direct",
        )
        replay = replay_case(path)
        assert replay.mismatch is not None
        assert replay.mismatch.stage == "routed-vs-direct"
        # Re-written in the current schema, it loads back identically.
        again = load_case(write_case(case, tmp_path / "v2"))
        assert again.scenario == case.scenario

    #: A case written before the partition-parallel compiler was
    #: removed: schema 2, with its inert ``partition_threshold`` and
    #: ``partition_jobs`` keys.
    PRE_REMOVAL_CASE = {
        "dag": {
            "name": "diamond-n58-s2095328386-shrunk",
            "nodes": [
                {"input_slot": 0, "op": "input", "preds": []},
                {"input_slot": 1, "op": "input", "preds": []},
                {"op": "add", "preds": [0, 1]},
            ],
        },
        "fingerprint": "5c2c23e3ebd64b8a566a921d3a0a6892",
        "mismatch": {
            "detail": "var 2 row 0: 2.15313063094416 != 2.1531306309441596",
            "stage": "served-vs-direct",
        },
        "original_nodes": 55,
        "scenario": {
            "batch": 2,
            "config_label": "D1-B8-R16",
            "fault": "serve_output",
            "params": {
                "family": "diamond",
                "kwargs": {"paths": 2},
                "n": 58,
                "seed": 2095328386,
            },
            "partition_jobs": 1,
            "partition_threshold": None,
            "stages": ["served-vs-direct", "routed-vs-direct"],
            "value_seed": 1674216077,
        },
        "schema": 2,
        "shrink_checks": 1,
        "shrunk_nodes": 3,
    }

    def test_pre_removal_case_loads_and_replays(self, tmp_path):
        path = tmp_path / "v2.json"
        path.write_text(json.dumps(self.PRE_REMOVAL_CASE))
        case = load_case(path)
        assert case.scenario.stages == (
            "served-vs-direct", "routed-vs-direct",
        )
        replay = replay_case(path)
        assert replay.mismatch is not None
        assert replay.mismatch.stage == "served-vs-direct"
        again = load_case(write_case(case, tmp_path / "now"))
        assert again.scenario == case.scenario

    def _with_scenario(self, case, tmp_path, **changes):
        payload = json.loads(json.dumps(case))
        payload["scenario"].update(changes)
        path = tmp_path / "armed.json"
        path.write_text(json.dumps(payload))
        return path

    @pytest.mark.parametrize(
        "changes",
        [
            {"partition_threshold": 35},
            {"stages": ["partitioned-vs-reference"]},
            {"fault": "partition_boundary"},
        ],
    )
    def test_case_arming_the_removed_stage_is_rejected(
        self, tmp_path, changes
    ):
        path = self._with_scenario(
            self.PRE_REMOVAL_CASE, tmp_path, **changes
        )
        with pytest.raises(
            VerificationError, match="removed oracle stage"
        ) as info:
            load_case(path)
        assert "partitioned-vs-reference" in str(info.value)
        assert "malformed" not in str(info.value)

    def test_schema1_case_with_a_threshold_is_rejected(self, tmp_path):
        path = self._with_scenario(
            self.LEGACY_CASE, tmp_path, partition_threshold=35
        )
        with pytest.raises(
            VerificationError, match="'partitioned-vs-reference'"
        ):
            load_case(path)

    def test_malformed_artifact_rejected(self, tmp_path):
        bad = tmp_path / "case.json"
        bad.write_text("{\"schema\": 99}")
        with pytest.raises(VerificationError, match="schema"):
            load_case(bad)
        bad.write_text("not json at all")
        with pytest.raises(VerificationError, match="malformed"):
            load_case(bad)


class TestFuzzCli:
    def test_clean_exit_zero(self, capsys):
        from repro.cli import main

        rc = main(
            ["fuzz", "--budget", "6", "--seed", "3", "--no-artifacts"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 mismatches" in out

    def test_injected_fault_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "fuzz", "--budget", "2", "--seed", "3",
                "--families", "deep", "--inject-fault", "batch_output",
                "--out-dir", str(tmp_path),
            ]
        )
        assert rc == 1
        out = capsys.readouterr().out
        assert "MISMATCH" in out
        assert list(tmp_path.glob("*.json"))

    def test_bad_family_is_clean_systemexit(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="unknown synth"):
            main(["fuzz", "--budget", "1", "--families", "banana"])


class TestVerifySynthExperiment:
    def test_snapshot_is_deterministic_and_clean(self):
        from repro.experiments import verify_synth

        report = verify_synth.run(budget=8, seed=5)
        snap = verify_synth.snapshot(report)
        assert snap["mismatches"] == 0
        assert len(snap["scenarios"]) == 8
        again = verify_synth.snapshot(verify_synth.run(budget=8, seed=5))
        assert snap == again
        assert "fuzz: budget 8" in verify_synth.render(report)
