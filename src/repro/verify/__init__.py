"""Differential verification: synthetic scenarios x executor cross-checks.

The stack has three independent ways to execute a DAG — the golden
reference interpreter, the scalar verifying simulator and the fused
batch engine — plus the oracle's direct interpreter of a plan's step
tape, the serving and routing tiers, binary artifact images,
analytic activity counters and a content-addressed artifact cache.
This subsystem turns that redundancy into a verification harness:

* :mod:`repro.verify.differential` — the differential oracle
  (:func:`diff_check_dag` / :func:`check_scenario`) and its stage
  registry :data:`STAGES`, one cross-check per entry; every output is
  compared bitwise;
* :mod:`repro.verify.fuzz` — seeded campaign driver
  (:func:`fuzz`) fanning scenarios from
  :mod:`repro.workloads.synth` over the durable work queue;
* :mod:`repro.verify.shrink` — minimal-reproducer search
  (:func:`shrink_dag`);
* :mod:`repro.verify.artifacts` — replayable repro cases under
  ``results/repro_cases/`` (:func:`write_case` / :func:`replay_case`).

The registered stages, the injected fault each must catch, and the
fuzz scenarios (by index ``i``) that run it:

=========================  ==================  =========
stage                      fault               scenarios
=========================  ==================  =========
reference-vs-scalar        scalar_value        all
plan-vs-scalar-counters    counter_drift       all
scalar-vs-batch            batch_output        all
fused-vs-batch             fused_output        i % 4 = 2
image-roundtrip            image_corrupt       i % 4 = 0
served-vs-direct           serve_output        i % 4 = 1
routed-vs-direct           router_output       i % 4 = 1
warm-vs-cold               warm_output         all
=========================  ==================  =========

CLI entry point: ``python -m repro fuzz --budget N --seed S --jobs J``.
"""

from .artifacts import (
    DEFAULT_CASE_DIR,
    ReproCase,
    load_case,
    replay_case,
    write_case,
)
from .differential import (
    FAULTS,
    STAGES,
    DiffReport,
    Mismatch,
    Scenario,
    ScenarioOutcome,
    check_scenario,
    config_from_label,
    diff_check_dag,
)
from .fuzz import (
    CONFIG_POOL,
    STALL_FAULT,
    FuzzFailure,
    FuzzReport,
    TaskTimeout,
    fuzz,
    make_scenarios,
)
from .shrink import ShrinkResult, ancestor_closure, extract_subdag, shrink_dag

__all__ = [
    "FAULTS",
    "STAGES",
    "CONFIG_POOL",
    "STALL_FAULT",
    "TaskTimeout",
    "DEFAULT_CASE_DIR",
    "DiffReport",
    "Mismatch",
    "Scenario",
    "ScenarioOutcome",
    "ReproCase",
    "FuzzFailure",
    "FuzzReport",
    "ShrinkResult",
    "ancestor_closure",
    "check_scenario",
    "config_from_label",
    "diff_check_dag",
    "extract_subdag",
    "fuzz",
    "load_case",
    "make_scenarios",
    "replay_case",
    "shrink_dag",
    "write_case",
]
