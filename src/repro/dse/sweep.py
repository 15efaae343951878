"""Design-space exploration sweep (§V-B, fig. 11).

Compiles a set of workloads for every (D, B, R) point of the paper's
grid, derives latency/energy/EDP per operation from the static
activity counters, and averages over the workloads exactly as the
paper does ("mean latency, energy, and EDP per operation, averaged
over the workloads").
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass

# fmean is the math.fsum-based mean: exactly rounded, so the result
# cannot depend on how parallel workers happened to order the
# summands.
from statistics import fmean

from ..arch import ArchConfig, Interconnect, dse_grid
from ..graphs import DAG
from ..sim.activity import count_activity
from ..sim.energy import EnergyReport, energy_of_run


def resolve_workloads(
    names_or_groups: Iterable[str], scale: float
) -> dict[str, DAG]:
    """Build the workload dict for a sweep, expanding group names.

    Each entry may be a Table-I / synth workload name (``tretail``,
    ``synth_diamond``) or a whole group (``pc``, ``sptrsv``,
    ``synth``), so ``repro sweep --workloads synth`` explores every
    synthetic scenario family in one run.

    Raises:
        WorkloadError: For a name that is neither a workload nor a
            group.
    """
    from ..errors import WorkloadError
    from ..workloads import GROUPS, build_workload, get_spec, workload_names

    names: list[str] = []
    for entry in names_or_groups:
        if entry in GROUPS:
            names.extend(workload_names((entry,)))
        else:
            get_spec(entry)  # raises WorkloadError with suggestions
            names.append(entry)
    seen: dict[str, None] = dict.fromkeys(names)  # ordered dedup
    return {name: build_workload(name, scale=scale) for name in seen}


@dataclass(frozen=True)
class DsePoint:
    """One configuration's averaged metrics over the workload set."""

    config: ArchConfig
    latency_per_op_ns: float
    energy_per_op_pj: float

    @property
    def edp_per_op(self) -> float:
        return self.latency_per_op_ns * self.energy_per_op_pj

    @property
    def label(self) -> str:
        return str(self.config)


@dataclass
class DseResult:
    """Full sweep outcome."""

    points: list[DsePoint]
    workloads: list[str]

    def min_latency(self) -> DsePoint:
        return min(self.points, key=lambda p: p.latency_per_op_ns)

    def min_energy(self) -> DsePoint:
        return min(self.points, key=lambda p: p.energy_per_op_pj)

    def min_edp(self) -> DsePoint:
        return min(self.points, key=lambda p: p.edp_per_op)

    def by_config(self, depth: int, banks: int, regs: int) -> DsePoint:
        for p in self.points:
            cfg = p.config
            if (
                cfg.depth == depth
                and cfg.banks == banks
                and cfg.regs_per_bank == regs
            ):
                return p
        raise KeyError(f"no point D{depth}-B{banks}-R{regs}")


def evaluate_config(
    config: ArchConfig, workloads: dict[str, DAG], seed: int = 0
) -> DsePoint:
    """Compile + statically evaluate all workloads on one config."""
    from ..arch import DEFAULT_TOPOLOGY
    from ..runner.cache import NullCache, cached_compile, get_cache
    from ..runner.fingerprint import compile_key, metrics_key

    cache = get_cache()
    caching = not isinstance(cache, NullCache)
    # The metrics key must mirror the cached_compile call below
    # exactly, so spell out the options once and use them for both.
    topology = DEFAULT_TOPOLOGY
    mapping_strategy = "conflict_aware"
    latencies: list[float] = []
    energies: list[float] = []
    # Sort by name so the averaging order is a property of the
    # workload *set*, not of the caller's dict insertion order.
    for _, dag in sorted(workloads.items()):
        mkey = ""
        if caching:
            # Memoize the two derived floats on top of the compile
            # key: a warm sweep then never loads program artifacts.
            mkey = metrics_key(
                compile_key(dag, config, topology, seed, mapping_strategy)
            )
            cached = cache.get(mkey)
            if isinstance(cached, tuple) and len(cached) == 2:
                latency, energy = cached
                latencies.append(latency)
                energies.append(energy)
                continue
        result = cached_compile(
            dag,
            config,
            topology=topology,
            seed=seed,
            mapping_strategy=mapping_strategy,
        )
        interconnect = Interconnect(result.program.config)
        counters = count_activity(result.program, interconnect)
        report: EnergyReport = energy_of_run(
            result.program.config,
            counters,
            result.stats.num_operations,
            interconnect,
        )
        latency = report.latency_per_op_ns
        energy = report.energy_per_op_pj
        if caching:
            cache.put(mkey, (latency, energy))
        latencies.append(latency)
        energies.append(energy)
    return DsePoint(
        config=config,
        latency_per_op_ns=fmean(latencies),
        energy_per_op_pj=fmean(energies),
    )


def _sweep_task(item: tuple[ArchConfig, dict[str, DAG], int]) -> DsePoint:
    """One grid point per task, so a resumed campaign recompiles only
    the unfinished configurations."""
    config, workloads, seed = item
    return evaluate_config(config, workloads, seed=seed)


def run_sweep(
    workloads: dict[str, DAG],
    configs: list[ArchConfig] | None = None,
    seed: int = 0,
    jobs: int | None = None,
    progress: bool | Callable[[int, int], None] = False,
    *,
    campaign_id: str | None = None,
    resume: bool = False,
    campaign_root=None,
    max_attempts: int = 3,
) -> DseResult:
    """Run the 48-point sweep (or a custom config list).

    ``jobs`` fans the grid out one point per task through
    :func:`repro.runner.orchestrator.fan_out`; points merge back in
    grid order, so every :class:`DsePoint` is bitwise-identical to the
    serial path's.  ``campaign_id`` makes the sweep a named, resumable
    campaign: a killed sweep resumed with ``resume=True`` recompiles
    only the unfinished points.  Its task list is fingerprinted from
    the workload DAGs, grid and seed, so a resume with different
    parameters is refused rather than silently mixed.

    A sweep cannot average around a hole: a grid point that is still
    failing after ``max_attempts`` fails the sweep
    (:func:`repro.runner.orchestrator.raise_quarantined`).
    """
    import hashlib

    from ..runner.fingerprint import dag_fingerprint
    from ..runner.orchestrator import fan_out, raise_quarantined

    grid = configs if configs is not None else dse_grid()
    fingerprint = ""
    if campaign_id is not None:
        identity = repr(
            (
                "sweep",
                sorted((name, dag_fingerprint(dag))
                       for name, dag in workloads.items()),
                [str(cfg) for cfg in grid],
                seed,
            )
        )
        fingerprint = hashlib.blake2b(
            identity.encode(), digest_size=16
        ).hexdigest()
    points, quarantined = fan_out(
        _sweep_task,
        [(cfg, workloads, seed) for cfg in grid],
        jobs,
        campaign_id=campaign_id,
        resume=resume,
        campaign_root=campaign_root,
        kind="sweep",
        params_fingerprint=fingerprint,
        max_attempts=max_attempts,
        progress=progress,
        desc="dse sweep",
    )
    raise_quarantined(quarantined, "dse sweep")
    return DseResult(points=points, workloads=sorted(workloads))
