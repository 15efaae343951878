"""Registry of every figure/table experiment, with snapshots.

This is the orchestration surface over :mod:`repro.experiments`: one
:class:`ExperimentSpec` per published figure/table, each knowing how
to *run* (kwargs), *render* (human table) and *snapshot* (canonical
JSON-able dict) its result.

Snapshots are the regression net: they contain every deterministic
metric of a result and deliberately exclude wall-clock measurements
(compile seconds, host simulation rates), so a snapshot taken at
``--jobs 1``, ``--jobs 4`` and on a warm cache must be **identical**,
and the committed goldens under ``tests/goldens/`` pin every figure's
numbers across refactors.

``golden_kwargs`` are the reduced-scale parameters the regression
tests (and ``tests/make_goldens.py``) use; ``repro all`` runs the
specs at their papers'-scale defaults instead.
"""

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass, field

from ..arch import ArchConfig
from ..experiments import (
    fig01_motivation,
    fig03_utilization,
    fig06_interconnect,
    fig10_conflicts,
    fig11_dse,
    fig12_edp_curves,
    fig13_breakdown,
    fig14_throughput,
    footprint,
    table1_workloads,
    table2_area_power,
    table3_comparison,
    verify_synth,
)
from .orchestrator import parallel_map

#: Reduced-scale config points shared by several goldens.
_GOLDEN_CFG = {"depth": 2, "banks": 16, "regs_per_bank": 32}


@dataclass(frozen=True)
class ExperimentSpec:
    """One figure/table experiment the orchestrator can dispatch."""

    name: str
    title: str
    run: Callable[..., object]
    render: Callable[[object], str]
    snapshot: Callable[[object], dict]
    golden_kwargs: dict = field(default_factory=dict)
    default_kwargs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExperimentRun:
    """A completed experiment, reduced to its portable artifacts."""

    name: str
    rendered: str
    snapshot: dict


# ---------------------------------------------------------------------
# Per-experiment snapshot functions (deterministic fields only)
# ---------------------------------------------------------------------
def _snap_fig01(result) -> dict:
    return {
        "points": [
            {"nodes": p.nodes, "cpu_gops": p.cpu_gops, "gpu_gops": p.gpu_gops}
            for p in result.points
        ],
        "crossover_nodes": result.crossover_nodes(),
    }


def _snap_fig03(result) -> dict:
    return {
        "workload": result.workload,
        "points": [
            {
                "inputs": p.inputs,
                "tree": p.tree_utilization,
                "systolic": p.systolic_utilization,
            }
            for p in result.points
        ],
    }


def _snap_fig06(result) -> dict:
    return {
        "rows": [
            {
                "topology": r.topology.value,
                "conflicts": r.conflicts,
                "cycles": r.cycles,
                "conflicts_normalized": r.conflicts_normalized,
                "latency_normalized": r.latency_normalized,
            }
            for r in result.rows
        ]
    }


def _run_fig10(**kwargs):
    return {
        "conflicts": fig10_conflicts.run_conflicts(
            **kwargs.get("conflicts", {})
        ),
        "occupancy": fig10_conflicts.run_occupancy(
            **kwargs.get("occupancy", {})
        ),
    }


def _render_fig10(result) -> str:
    return (
        fig10_conflicts.render_conflicts(result["conflicts"])
        + "\n"
        + fig10_conflicts.render_occupancy(result["occupancy"])
    )


def _snap_occupancy_profile(profile) -> dict:
    return {
        "peak_per_bank": list(profile.peak_per_bank),
        "balance": profile.balance,
    }


def _snap_fig10(result) -> dict:
    cmp, occ = result["conflicts"], result["occupancy"]
    return {
        "conflicts": {
            "workload": cmp.workload,
            "ours": cmp.ours,
            "random": cmp.random,
        },
        "occupancy": {
            "workload": occ.workload,
            "regs_per_bank": occ.regs_per_bank,
            "spills": occ.spills,
            "without_spill": _snap_occupancy_profile(occ.without_spill),
            "with_spill": _snap_occupancy_profile(occ.with_spill),
        },
    }


def _snap_dse_points(points) -> list[dict]:
    return [
        {
            "config": p.label,
            "latency_per_op_ns": p.latency_per_op_ns,
            "energy_per_op_pj": p.energy_per_op_pj,
            "edp_per_op": p.edp_per_op,
        }
        for p in points
    ]


def _snap_fig11(experiment) -> dict:
    s = experiment.summary
    return {
        "workloads": list(experiment.result.workloads),
        "points": _snap_dse_points(experiment.result.points),
        "corners": {
            "min_latency": s.min_latency.label,
            "min_energy": s.min_energy.label,
            "min_edp": s.min_edp.label,
        },
        "depth_trend": [
            {"depth": d, "latency": l, "energy": e}
            for d, l, e in fig11_dse.depth_trend(experiment)
        ],
    }


def _snap_fig12(curves) -> dict:
    return {
        "front": [
            {"config": label, "latency": l, "energy": e}
            for label, l, e in curves.front
        ],
        "latency_spread": curves.latency_spread,
        "energy_spread": curves.energy_spread,
        "iso_edp": [{"latency": l, "energy": e} for l, e in curves.iso_edp],
    }


def _snap_fig13(result) -> dict:
    return {
        "rows": [
            {"workload": b.workload, "counts": dict(sorted(b.counts.items()))}
            for b in result.rows
        ]
    }


def _snap_throughput(result) -> dict:
    # Host-side simulation rates are wall-clock and excluded.
    return {
        "platforms": list(result.platforms),
        "batch": result.batch,
        "rows": [
            {"workload": r.workload, "gops": dict(sorted(r.gops.items()))}
            for r in result.rows
        ],
        "geomean": {p: result.geomean(p) for p in result.platforms},
        "dpu_v2_power_w": result.dpu_v2_power_w,
        "dpu_v2_edp": result.dpu_v2_edp,
        "baseline_edp": dict(sorted(result.baseline_edp.items())),
    }


def _run_fig14(**kwargs):
    return {
        "small": fig14_throughput.run_small(**kwargs.get("small", {})),
        "large": fig14_throughput.run_large(**kwargs.get("large", {})),
    }


def _render_fig14(result) -> str:
    return (
        fig14_throughput.render(result["small"], "fig. 14(a) — small suite")
        + "\n\n"
        + fig14_throughput.render(result["large"], "fig. 14(b) — large PCs")
    )


def _snap_fig14(result) -> dict:
    return {
        "small": _snap_throughput(result["small"]),
        "large": _snap_throughput(result["large"]),
    }


def _snap_footprint(result) -> dict:
    return {
        "rows": [
            {
                "workload": r.workload,
                "packed_program_bits": r.report.packed_program_bits,
                "auto_write_saving": r.report.auto_write_saving,
                "csr_bits": r.report.csr_bits,
                "vs_csr_saving": r.report.vs_csr_saving,
            }
            for r in result.rows
        ],
        "mean_auto_write_saving": result.mean_auto_write_saving(),
        "mean_vs_csr_saving": result.mean_vs_csr_saving(),
    }


def _snap_table1(result) -> dict:
    # compile_seconds is wall-clock and excluded.
    return {
        "scale": result.scale,
        "rows": [
            {
                "workload": r.stats.name,
                "nodes": r.stats.nodes,
                "inputs": r.stats.inputs,
                "operations": r.stats.operations,
                "edges": r.stats.edges,
                "longest_path": r.stats.longest_path,
                "avg_parallelism": r.stats.avg_parallelism,
                "paper_nodes": r.paper_nodes,
                "paper_longest_path": r.paper_longest_path,
            }
            for r in result.rows
        ],
    }


def _snap_table2(result) -> dict:
    return {
        "config": str(result.config),
        "power_mw": dict(sorted(result.power_mw.items())),
        "total_power_mw": result.total_power_mw,
        "area_mm2": dict(sorted(result.area.as_dict().items())),
        "total_area_mm2": result.area.total_mm2,
    }


def _snap_table3(result) -> dict:
    return {
        "small": _snap_throughput(result.small),
        "large": _snap_throughput(result.large),
        "small_area_mm2": result.small_area_mm2,
        "large_area_mm2": result.large_area_mm2,
    }


# ---------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------
_GOLDEN_SCALE = 0.02

EXPERIMENTS: dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in (
        ExperimentSpec(
            name="fig01_motivation",
            title="fig. 1(c) — CPU/GPU throughput collapse",
            run=fig01_motivation.run,
            render=fig01_motivation.render,
            snapshot=_snap_fig01,
            golden_kwargs={"sizes": (1_000, 20_000, 120_000)},
        ),
        ExperimentSpec(
            name="fig03_utilization",
            title="fig. 3(c) — tree vs systolic utilization",
            run=fig03_utilization.run,
            render=fig03_utilization.render,
            snapshot=_snap_fig03,
            golden_kwargs={
                "scale": _GOLDEN_SCALE,
                "input_counts": (2, 4, 8),
            },
        ),
        ExperimentSpec(
            name="fig06_interconnect",
            title="fig. 6(e) — conflicts by interconnect topology",
            run=fig06_interconnect.run,
            render=fig06_interconnect.render,
            snapshot=_snap_fig06,
            golden_kwargs={
                "config": ArchConfig(**_GOLDEN_CFG),
                "scale": _GOLDEN_SCALE,
                "groups": ("pc",),
            },
        ),
        ExperimentSpec(
            name="fig10_conflicts",
            title="fig. 10(b)-(d) — mapping quality",
            run=_run_fig10,
            render=_render_fig10,
            snapshot=_snap_fig10,
            golden_kwargs={
                "conflicts": {
                    "workload": "mnist",
                    "config": ArchConfig(depth=2, banks=16, regs_per_bank=64),
                    "scale": _GOLDEN_SCALE,
                },
                "occupancy": {
                    "workload": "tretail",
                    "scale": _GOLDEN_SCALE,
                    "regs_per_bank": 4,
                },
            },
        ),
        ExperimentSpec(
            name="fig11_dse",
            title="fig. 11 — 48-point design-space exploration",
            run=fig11_dse.run,
            render=fig11_dse.render,
            snapshot=_snap_fig11,
            golden_kwargs={
                "workload_names": ("tretail", "bp_200"),
                "scale": _GOLDEN_SCALE,
            },
        ),
        ExperimentSpec(
            name="fig12_edp_curves",
            title="fig. 12 — latency-energy Pareto front",
            run=fig12_edp_curves.run,
            render=fig12_edp_curves.render,
            snapshot=_snap_fig12,
            golden_kwargs={
                "workload_names": ("tretail", "bp_200"),
                "scale": _GOLDEN_SCALE,
            },
        ),
        ExperimentSpec(
            name="fig13_breakdown",
            title="fig. 13 — instruction-category breakdown",
            run=fig13_breakdown.run,
            render=fig13_breakdown.render,
            snapshot=_snap_fig13,
            golden_kwargs={
                "config": ArchConfig(**_GOLDEN_CFG),
                "scale": _GOLDEN_SCALE,
                "groups": ("pc",),
            },
        ),
        ExperimentSpec(
            name="fig14_throughput",
            title="fig. 14 — cross-platform throughput",
            run=_run_fig14,
            render=_render_fig14,
            snapshot=_snap_fig14,
            golden_kwargs={
                "small": {
                    "config": ArchConfig(depth=3, banks=32, regs_per_bank=32),
                    "scale": _GOLDEN_SCALE,
                    "batch": 4,
                },
                "large": {"scale": 0.003, "batch": 2},
            },
        ),
        ExperimentSpec(
            name="footprint",
            title="§III-B/§IV-E — program and memory footprint",
            run=footprint.run,
            render=footprint.render,
            snapshot=_snap_footprint,
            golden_kwargs={
                "config": ArchConfig(**_GOLDEN_CFG),
                "scale": _GOLDEN_SCALE,
                "groups": ("pc",),
            },
        ),
        ExperimentSpec(
            name="table1_workloads",
            title="Table I — workload statistics",
            run=table1_workloads.run,
            render=table1_workloads.render,
            snapshot=_snap_table1,
            golden_kwargs={
                "scale": _GOLDEN_SCALE,
                "groups": ("pc",),
                "compile_timing": False,
            },
        ),
        ExperimentSpec(
            name="table2_area_power",
            title="Table II — area/power breakdown",
            run=table2_area_power.run,
            render=table2_area_power.render,
            snapshot=_snap_table2,
            golden_kwargs={
                "config": ArchConfig(depth=3, banks=64, regs_per_bank=32),
                "scale": _GOLDEN_SCALE,
            },
        ),
        ExperimentSpec(
            name="verify_synth",
            title="differential oracle — synthetic scenario sweep",
            run=verify_synth.run,
            render=verify_synth.render,
            snapshot=verify_synth.snapshot,
            golden_kwargs={"budget": 16, "seed": 11},
            default_kwargs={"budget": 64, "seed": 0},
        ),
        ExperimentSpec(
            name="table3_comparison",
            title="Table III — headline comparison",
            run=table3_comparison.run,
            render=table3_comparison.render,
            snapshot=_snap_table3,
            golden_kwargs={"scale": _GOLDEN_SCALE, "large_scale": 0.003},
        ),
    )
}


def experiment_names() -> list[str]:
    return list(EXPERIMENTS)


def canonical_json(snapshot: dict) -> str:
    """Stable serialization used for goldens and parity comparison.

    ``repr``-roundtrips floats, so equality of two canonical strings
    is bitwise equality of every metric.
    """
    return json.dumps(snapshot, sort_keys=True, indent=1)


def run_experiment(
    name: str, kwargs: dict | None = None, golden: bool = False
) -> ExperimentRun:
    """Run one registered experiment and package the artifacts."""
    spec = EXPERIMENTS[name]
    if kwargs is None:
        kwargs = spec.golden_kwargs if golden else spec.default_kwargs
    result = spec.run(**kwargs)
    return ExperimentRun(
        name=name,
        rendered=spec.render(result),
        snapshot=spec.snapshot(result),
    )


def _run_task(task: tuple[str, dict | None, bool]) -> ExperimentRun:
    name, kwargs, golden = task
    return run_experiment(name, kwargs=kwargs, golden=golden)


def run_all(
    names: list[str] | None = None,
    jobs: int | None = None,
    golden: bool = False,
    kwargs_by_name: dict[str, dict] | None = None,
    progress: bool | Callable[[int, int], None] = False,
) -> dict[str, ExperimentRun]:
    """Fan the selected experiments out over worker processes.

    Results come back keyed by experiment name in registry order —
    deterministic regardless of worker scheduling.
    """
    selected = names if names is not None else experiment_names()
    unknown = [n for n in selected if n not in EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiments: {unknown}")
    kwargs_by_name = kwargs_by_name or {}
    tasks = [(n, kwargs_by_name.get(n), golden) for n in selected]
    runs = parallel_map(
        _run_task, tasks, jobs=jobs, progress=progress, desc="experiments"
    )
    return {run.name: run for run in runs}
