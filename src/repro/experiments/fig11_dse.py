"""Fig. 11: the 48-point design-space exploration surfaces.

Paper findings this experiment checks (EXPERIMENTS.md records ours):

* min latency at the largest design (D=3, B=64, R=128);
* min energy at a narrower one (D=3, B=16, R=64);
* min EDP at (D=3, B=64, R=32);
* deeper trees (D up) improve latency *and* energy;
* R beyond ~32-64 gives diminishing returns.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dse import (
    DseResult,
    ParetoSummary,
    resolve_workloads,
    run_sweep,
    summarize,
)

#: Compact workload set for the sweep: two PCs (one register-pressure
#: heavy, so R matters) + two SpTRSVs keeps the 48-config sweep to a
#: few minutes while spanning both workload classes.  Pass your own
#: set for the full Table-I suite.
DEFAULT_DSE_WORKLOADS = ("tretail", "msweb", "bp_200", "west2021")


@dataclass(frozen=True)
class DseExperiment:
    result: DseResult
    summary: ParetoSummary


def run(
    workload_names: tuple[str, ...] = DEFAULT_DSE_WORKLOADS,
    scale: float = 0.2,
    seed: int = 0,
    jobs: int | None = None,
    progress: bool = False,
    campaign_id: str | None = None,
    resume: bool = False,
    campaign_root=None,
    max_attempts: int = 3,
) -> DseExperiment:
    # Entries may be workload names or whole groups ("pc", "synth").
    workloads = resolve_workloads(workload_names, scale=scale)
    # campaign_id makes the sweep durable: each grid point checkpointed,
    # killable and resumable (`repro sweep --campaign <id> [--resume]`).
    result = run_sweep(
        workloads,
        seed=seed,
        jobs=jobs,
        progress=progress,
        campaign_id=campaign_id,
        resume=resume,
        campaign_root=campaign_root,
        max_attempts=max_attempts,
    )
    return DseExperiment(result=result, summary=summarize(result))


def depth_trend(experiment: DseExperiment) -> list[tuple[int, float, float]]:
    """(D, mean latency/op, mean energy/op) across the grid."""
    by_depth: dict[int, list] = {}
    for p in experiment.result.points:
        by_depth.setdefault(p.config.depth, []).append(p)
    rows = []
    for depth in sorted(by_depth):
        pts = by_depth[depth]
        rows.append(
            (
                depth,
                sum(p.latency_per_op_ns for p in pts) / len(pts),
                sum(p.energy_per_op_pj for p in pts) / len(pts),
            )
        )
    return rows


def render(experiment: DseExperiment) -> str:
    from ..analysis import format_table

    rows = [
        (
            p.label,
            round(p.latency_per_op_ns, 3),
            round(p.energy_per_op_pj, 1),
            round(p.edp_per_op, 1),
        )
        for p in sorted(
            experiment.result.points, key=lambda p: p.edp_per_op
        )
    ]
    table = format_table(
        ["config", "ns/op", "pJ/op", "EDP pJ*ns"],
        rows,
        title="fig. 11 — design space (sorted by EDP)",
    )
    s = experiment.summary
    corners = format_table(
        ["corner", "config", "ns/op", "pJ/op", "EDP"],
        [
            (name, label, round(l, 3), round(e, 1), round(edp, 1))
            for name, label, l, e, edp in s.as_rows()
        ],
        title=(
            "optimum corners (paper: min-lat D3-B64-R128, "
            "min-E D3-B16-R64, min-EDP D3-B64-R32)"
        ),
    )
    depths = format_table(
        ["D", "mean ns/op", "mean pJ/op"],
        [(d, round(l, 3), round(e, 1)) for d, l, e in depth_trend(experiment)],
        title="depth trend (paper: deeper trees help both axes)",
    )
    return "\n\n".join([corners, depths, table])
