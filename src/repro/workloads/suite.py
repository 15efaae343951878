"""Benchmark suite registry mirroring Table I of the paper.

Each entry records the paper's reported statistics (node count ``n``,
longest path ``l``) and how to synthesize a structurally matched DAG.
A global ``scale`` shrinks every workload proportionally so the whole
evaluation harness runs in minutes under CPython; ``scale=1.0``
regenerates full-size instances.

The three groups match Table I:

* ``pc``       — six density-estimation probabilistic circuits,
* ``sptrsv``   — six SuiteSparse triangular factors,
* ``large_pc`` — four Bayesian-network circuits (0.6M - 3.3M nodes).

A fourth, non-paper group exposes the adversarial scenario generators
of :mod:`repro.workloads.synth` under stable workload names:

* ``synth``    — one representative per generator family
  (``synth_layered`` ... ``synth_reuse``), so ``repro sweep``/``dse``
  and any group-driven experiment can run the synthetic scenarios
  exactly like Table-I entries.  Their "paper" stats are the nominal
  full-scale generator targets, not published numbers.
* ``synth_xl`` — 50k-200k node ``layered``/``reuse`` instances (at
  ``scale=1.0``): the large-DAG regime for sweeps, the batch-sweep
  benchmark and the cold-compile scaling benchmark.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass

from ..errors import WorkloadError
from ..graphs import DAG
from .matrices import make_lower_triangular
from .pc import PCParams, generate_pc
from .sptrsv import sptrsv_dag


@dataclass(frozen=True)
class WorkloadSpec:
    """One Table-I row: published stats + synthesis recipe."""

    name: str
    group: str  # "pc" | "sptrsv" | "large_pc"
    paper_nodes: int
    paper_longest_path: int
    kind: str  # pc generator profile or matrix kind
    seed: int

    @property
    def paper_parallelism(self) -> float:
        return self.paper_nodes / self.paper_longest_path


# Published Table I statistics.
TABLE_I: tuple[WorkloadSpec, ...] = (
    WorkloadSpec("tretail", "pc", 9_000, 49, "pc", 101),
    WorkloadSpec("mnist", "pc", 10_000, 26, "pc", 102),
    WorkloadSpec("nltcs", "pc", 14_000, 27, "pc", 103),
    WorkloadSpec("msnbc", "pc", 48_000, 28, "pc", 104),
    WorkloadSpec("msweb", "pc", 51_000, 73, "pc", 105),
    WorkloadSpec("bnetflix", "pc", 55_000, 53, "pc", 106),
    WorkloadSpec("bp_200", "sptrsv", 8_000, 139, "random", 201),
    WorkloadSpec("west2021", "sptrsv", 10_000, 136, "random", 202),
    WorkloadSpec("sieber", "sptrsv", 23_000, 242, "skyline", 203),
    WorkloadSpec("jagmesh4", "sptrsv", 44_000, 215, "banded", 204),
    WorkloadSpec("rdb968", "sptrsv", 51_000, 278, "banded", 205),
    WorkloadSpec("dw2048", "sptrsv", 79_000, 929, "kite", 206),
    WorkloadSpec("pigs", "large_pc", 600_000, 90, "pc", 301),
    WorkloadSpec("andes", "large_pc", 700_000, 84, "pc", 302),
    WorkloadSpec("munin", "large_pc", 3_100_000, 337, "pc", 303),
    WorkloadSpec("mildew", "large_pc", 3_300_000, 176, "pc", 304),
)

# Synthetic scenario families as named suite workloads.  ``kind`` is
# the repro.workloads.synth family; nodes/longest-path are the
# nominal full-scale (scale=1.0) targets each generator aims for.
SYNTH_SUITE: tuple[WorkloadSpec, ...] = (
    WorkloadSpec("synth_layered", "synth", 8_000, 90, "layered", 401),
    WorkloadSpec("synth_wide", "synth", 8_000, 13, "wide", 402),
    WorkloadSpec("synth_deep", "synth", 4_000, 2_000, "deep", 403),
    WorkloadSpec("synth_diamond", "synth", 8_000, 3_200, "diamond", 404),
    WorkloadSpec(
        "synth_skewed_fanout", "synth", 8_000, 1_300, "skewed_fanout", 405
    ),
    WorkloadSpec("synth_near_chain", "synth", 4_000, 1_400, "near_chain", 406),
    WorkloadSpec(
        "synth_disconnected", "synth", 8_000, 25, "disconnected", 407
    ),
    WorkloadSpec("synth_reuse", "synth", 8_000, 10, "reuse", 408),
)

# Large-scale synthetic workloads.  At ``scale=1.0`` they span
# 50k-200k nodes — the regime where the paper (§V-B) splits the DAG
# with the GRAPHOPT partitioner before compiling; here the compiler
# takes each one whole.  Longest-path stats are the generators' nominal targets
# (layered depth ~ sqrt(n); reuse is flat plus the closing reduction).
SYNTH_XL_SUITE: tuple[WorkloadSpec, ...] = (
    WorkloadSpec("synth_xl_layered_50k", "synth_xl", 50_000, 225, "layered", 501),
    WorkloadSpec("synth_xl_layered_100k", "synth_xl", 100_000, 320, "layered", 502),
    WorkloadSpec("synth_xl_layered_200k", "synth_xl", 200_000, 450, "layered", 503),
    WorkloadSpec("synth_xl_reuse_100k", "synth_xl", 100_000, 20, "reuse", 504),
    WorkloadSpec("synth_xl_reuse_200k", "synth_xl", 200_000, 21, "reuse", 505),
)

_BY_NAME = {
    spec.name: spec for spec in TABLE_I + SYNTH_SUITE + SYNTH_XL_SUITE
}

#: Default shrink factor used by tests/benches. At 0.05 the small suite
#: spans ~400-4000 nodes, which compiles in seconds under CPython while
#: preserving each workload's depth/parallelism character.
DEFAULT_SCALE = 0.05


#: Every registered group name, including the synthetic ones.
GROUPS: tuple[str, ...] = ("pc", "sptrsv", "large_pc", "synth", "synth_xl")


def workload_names(groups: Iterable[str] = ("pc", "sptrsv")) -> list[str]:
    """Names of the suite workloads in the given groups, Table I order
    (the ``synth`` and ``synth_xl`` groups follow, in family order)."""
    wanted = set(groups)
    unknown = wanted - set(GROUPS)
    if unknown:
        raise WorkloadError(
            f"unknown workload groups {sorted(unknown)}; "
            f"choose from {list(GROUPS)}"
        )
    return [
        spec.name
        for spec in TABLE_I + SYNTH_SUITE + SYNTH_XL_SUITE
        if spec.group in wanted
    ]


def get_spec(name: str) -> WorkloadSpec:
    """Lookup a workload spec by name."""
    if name not in _BY_NAME:
        raise WorkloadError(
            f"unknown workload {name!r}; choose from {sorted(_BY_NAME)}"
        )
    return _BY_NAME[name]


def build_workload(name: str, scale: float = DEFAULT_SCALE) -> DAG:
    """Synthesize a structurally matched instance of a Table-I workload.

    Args:
        name: Table I workload name (e.g. ``"tretail"``).
        scale: Size multiplier applied to the published node count.
            Depth is scaled with the cube root of ``scale`` so scaled
            instances keep (roughly) the published n/l *character*
            rather than collapsing into flat graphs.

    Returns:
        A DAG whose ``name`` is the workload name.
    """
    if scale <= 0:
        raise WorkloadError("scale must be positive")
    spec = get_spec(name)
    if spec.group in ("synth", "synth_xl"):
        from .synth import MIN_NODES, generate_synth

        target = max(int(spec.paper_nodes * scale), MIN_NODES)
        dag = generate_synth(spec.kind, target, seed=spec.seed)
        dag.name = spec.name
        return dag
    target_nodes = max(int(spec.paper_nodes * scale), 64)
    if spec.group in ("pc", "large_pc"):
        depth = max(int(spec.paper_longest_path * scale ** (1 / 3)), 6)
        num_vars = max(int(math.sqrt(target_nodes) / 2), 4)
        params = PCParams(
            num_vars=num_vars,
            target_nodes=target_nodes,
            depth=depth,
            max_fan_in=4,
            seed=spec.seed,
        )
        return generate_pc(params, name=name)
    # SpTRSV: matrix dimension chosen so the DAG lands near target size.
    kind = spec.kind
    nnz_factor = {"random": 4.5, "banded": 5.0, "kite": 4.0, "skyline": 4.0}[kind]
    n_rows = max(int(target_nodes / nnz_factor), 16)
    matrix = make_lower_triangular(kind, n_rows, seed=spec.seed)
    return sptrsv_dag(matrix, name=name).dag


def build_suite(
    groups: Iterable[str] = ("pc", "sptrsv"), scale: float = DEFAULT_SCALE
) -> dict[str, DAG]:
    """Build every workload in the given groups at the given scale."""
    return {
        name: build_workload(name, scale=scale)
        for name in workload_names(groups)
    }
