"""Differential-oracle sweep over the synthetic scenario families.

Not a paper figure: this experiment runs a bounded, seeded fuzzing
campaign (:func:`repro.verify.fuzz.fuzz`) through the registry so the
differential oracle's cross-checks participate in ``repro all`` and —
via its golden snapshot — in the regression net.  The snapshot pins,
per deterministic scenario, the generated DAG's fingerprint and the
plan's cycle count: any drift in a generator, the compiler's cycle
accounting or the oracle itself shows up as a golden diff.
"""

from __future__ import annotations

from ..verify.fuzz import FuzzReport, fuzz


def run(
    budget: int = 24, seed: int = 0, jobs: int | None = None
) -> FuzzReport:
    """Run the campaign without writing repro-case artifacts (a
    mismatch surfaces in the snapshot, and ``repro fuzz`` is the tool
    for producing shrunk cases)."""
    return fuzz(budget=budget, seed=seed, jobs=jobs, write_artifacts=False)


def render(report: FuzzReport) -> str:
    return report.render()


def snapshot(report: FuzzReport) -> dict:
    return {
        "budget": report.budget,
        "seed": report.seed,
        "mismatches": len(report.outcomes)
        - report.checked
        - report.skipped,
        "skipped": report.skipped,
        "families": report.by_family(),
        "scenarios": [
            {
                "family": o.scenario.params.family,
                "n": o.scenario.params.n,
                "config": o.scenario.config_label,
                "status": o.status,
                "nodes": o.nodes,
                "cycles": o.cycles,
                "fingerprint": o.fingerprint,
            }
            for o in report.outcomes
        ],
    }
