"""The compile() driver: DAG in, DPU-v2 program out (fig. 8).

Pass order::

    binarize -> decompose (step 1) -> map banks (step 2)
             -> build schedule     -> reorder (step 3)
             -> liveness flags     -> spill (step 4)
             -> address allocation -> Program

For DAGs beyond ~20k nodes the paper (§V-B) first splits the graph
with the GRAPHOPT partitioner and compiles the pieces independently.
This driver always compiles the whole DAG at once: it handles the
267k-node ``synth_xl_reuse_200k`` in ~10 s, and splitting it cost
more time, memory and instructions (README, *Large-DAG compilation*).
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field

from ..arch import ArchConfig, Interconnect, Program, Topology
from ..graphs import DAG, OpType, binarize, validate
from ..obs import trace
from ..obs.metrics import get_registry
from ..sim.plan import gc_paused
from .blocks import Decomposition, decompose
from .liveness import analyze_residences, annotate_liveness
from .mapping import Mapping, map_banks
from .regalloc import Allocation, allocate_addresses
from .reorder import reorder, verify_hazard_free
from .schedule import Schedule, build_schedule
from .spill import insert_spills


@dataclass
class CompileStats:
    """Everything the evaluation sections report about compilation."""

    num_nodes: int = 0
    num_binary_nodes: int = 0
    num_operations: int = 0
    num_blocks: int = 0
    pe_utilization: float = 0.0
    bank_conflicts: int = 0  # copied variables (fig. 6(e)/10(b) metric)
    copy_instructions: int = 0
    load_instructions: int = 0
    store_instructions: int = 0
    exec_instructions: int = 0
    nop_instructions: int = 0
    spills: int = 0
    reloads: int = 0
    mapping_repairs: int = 0
    compile_seconds: float = 0.0
    step_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class CompileResult:
    """Program plus the artifacts analyses need."""

    program: Program
    stats: CompileStats
    node_map: tuple[int, ...]  # original node -> binarized var
    decomposition: Decomposition
    mapping: Mapping
    allocation: Allocation

    @property
    def total_instructions(self) -> int:
        return len(self.program.instructions)

    def plan(self, interconnect: Interconnect | None = None):
        """Lower to a verified :class:`~repro.sim.plan.ExecutionPlan`.

        The lowering replays the program against the register-file
        model with this compilation's read-address predictions, so it
        doubles as the one-time verification pass; the result is
        cached per interconnect topology.  Execute it with
        :class:`~repro.sim.batch.BatchSimulator`.
        """
        from ..arch import DEFAULT_TOPOLOGY

        key = (
            DEFAULT_TOPOLOGY if interconnect is None
            else interconnect.topology
        )
        cache = getattr(self, "_plan_cache", None)
        if cache is None:
            cache = self._plan_cache = {}
        lowerings = get_registry().counter(
            "repro_plan_lowerings_total",
            "Program-to-plan lowerings by cache outcome",
            label_names=("outcome",),
        )
        if key not in cache:
            lowerings.inc(outcome="miss")
            with trace.span(
                "plan.lower",
                "compiler",
                workload=self.program.source_name,
                instructions=len(self.program.instructions),
            ):
                cache[key] = self.program.lower(
                    interconnect=interconnect,
                    check_addresses=self.allocation.read_addrs,
                )
        else:
            lowerings.inc(outcome="hit")
        return cache[key]


def compile_dag(
    dag: DAG,
    config: ArchConfig,
    topology: Topology = Topology.OUTPUT_PER_LAYER,
    seed: int = 0,
    mapping_strategy: str = "conflict_aware",
    trace_occupancy: bool = False,
    validate_input: bool = True,
    keep: frozenset[int] | set[int] | tuple[int, ...] = (),
) -> CompileResult:
    """Compile a DAG for a DPU-v2 configuration.

    Args:
        dag: Any DAG (multi-input nodes are binarized internally).
        config: Architecture point (D, B, R, ...).
        topology: Interconnect design point (fig. 6); the paper's
            selected design (b) is the default.
        seed: Seed for the mapper's randomized tie-breaking.
        mapping_strategy: ``"conflict_aware"`` (Algorithm 2) or
            ``"random"`` (fig. 10(b) baseline).
        trace_occupancy: Record the per-instruction bank-occupancy
            trace (fig. 10(c)/(d)); costs memory on long programs.
        validate_input: Run structural validation first (disable for
            trusted, repeatedly compiled DAGs).
        keep: Original-DAG node ids whose values must be observable
            after execution (stored to data memory alongside the
            sinks).  Values fully consumed inside the PE trees never
            reach the register file otherwise — use this e.g. for
            every ``x_i`` of a triangular solve.

    Raises:
        CompileError and subclasses on any internal inconsistency —
        the pipeline cross-checks every pass.
    """
    t_start = time.perf_counter()
    steps: dict[str, float] = {}
    compile_span = trace.span(
        "compile", "compiler", workload=dag.name, nodes=dag.num_nodes
    )
    compile_span.__enter__()
    # A compile makes no reference cycles (tests/test_compiler_gc.py
    # guards this), so a cyclic-GC sweep during it would free nothing.
    try:
        with gc_paused():
            result = _compile_monolithic(
                dag,
                config,
                topology,
                seed,
                mapping_strategy,
                trace_occupancy,
                validate_input,
                keep,
                t_start,
                steps,
            )
    except BaseException as exc:
        compile_span.__exit__(type(exc), exc, exc.__traceback__)
        raise
    compile_span.__exit__(None, None, None)
    reg = get_registry()
    reg.counter(
        "repro_compile_runs_total", "DAGs compiled by this process"
    ).inc()
    pass_seconds = reg.counter(
        "repro_compile_pass_seconds_total",
        "Cumulative wall-clock per compiler pass",
        label_names=("compiler_pass",),
    )
    for name, seconds in steps.items():
        pass_seconds.inc(seconds, compiler_pass=name)
    return result


def _compile_monolithic(
    dag: DAG,
    config: ArchConfig,
    topology: Topology,
    seed: int,
    mapping_strategy: str,
    trace_occupancy: bool,
    validate_input: bool,
    keep,
    t_start: float,
    steps: dict[str, float],
) -> CompileResult:
    if validate_input:
        validate(dag)
    interconnect = Interconnect(config, topology)

    t0 = time.perf_counter()
    with trace.span("compile.binarize", "compiler"):
        bin_result = binarize(dag)
        bdag = bin_result.dag
    steps["binarize"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.decompose", "compiler"):
        decomposition = decompose(bdag, config)
    steps["decompose"] = time.perf_counter() - t0

    # Force kept values to be block outputs before bank mapping, so
    # they live in the register file and can be stored at the end.
    keep_vars = frozenset(
        bin_result.node_map[node]
        for node in keep
        if dag.op(node) is not OpType.INPUT
    )
    if keep_vars:
        for block in decomposition.blocks:
            extra = keep_vars & block.nodes
            block.output_vars |= extra

    t0 = time.perf_counter()
    with trace.span("compile.map_banks", "compiler"):
        mapping = map_banks(
            decomposition, interconnect, seed=seed, strategy=mapping_strategy
        )
    steps["map"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.schedule", "compiler"):
        schedule = build_schedule(
            decomposition, mapping, keep_vars=keep_vars
        )
    steps["schedule"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.reorder", "compiler"):
        reordered = reorder(
            schedule.instructions, config, extra_deps=schedule.anchor_deps
        )
    steps["reorder"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.spill", "compiler"):
        residences = analyze_residences(reordered.instructions)
        flagged = annotate_liveness(
            reordered.instructions, residences=residences
        )
        spilled = insert_spills(
            flagged, config, next_row=schedule.num_rows, residences=residences
        )
        # Spilling splits residences without moving a free flag: an
        # eviction stores with free_source, and each reload starts a
        # residence whose last read keeps its original flag.
        final_instrs = spilled.instructions
        if final_instrs is not flagged:
            analyze_residences(final_instrs)  # raises on a leaked reload
        verify_hazard_free(final_instrs, config)
    steps["spill"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    with trace.span("compile.regalloc", "compiler"):
        allocation = allocate_addresses(
            final_instrs, config, trace=trace_occupancy
        )
    steps["regalloc"] = time.perf_counter() - t0

    needed_rows = max(spilled.num_rows, 1)
    final_config = config
    if needed_rows > config.data_mem_rows:
        final_config = dataclasses.replace(
            config, data_mem_rows=needed_rows
        )

    input_slots = {
        bin_result.node_map[node]: dag.input_slot(node)
        for node in dag.nodes()
        if dag.op(node) is OpType.INPUT
    }
    program = Program(
        config=final_config,
        instructions=tuple(final_instrs),
        input_layout=schedule.input_layout,
        input_slots=input_slots,
        output_layout=schedule.output_layout,
        num_data_rows=needed_rows,
        source_name=dag.name,
    )

    nops = sum(1 for i in final_instrs if i.mnemonic == "nop")
    stats = CompileStats(
        num_nodes=dag.num_nodes,
        num_binary_nodes=bdag.num_nodes,
        num_operations=bdag.num_operations,
        num_blocks=decomposition.num_blocks,
        pe_utilization=decomposition.pe_utilization(),
        bank_conflicts=schedule.stats.conflict_copies,
        copy_instructions=schedule.stats.copy_instructions,
        load_instructions=schedule.stats.load_instructions
        + spilled.spill_loads,
        store_instructions=schedule.stats.store_instructions
        + spilled.spill_stores,
        exec_instructions=schedule.stats.exec_instructions,
        nop_instructions=nops,
        spills=spilled.spills,
        reloads=spilled.reloads,
        mapping_repairs=mapping.repairs,
        compile_seconds=time.perf_counter() - t_start,
        step_seconds=steps,
    )
    return CompileResult(
        program=program,
        stats=stats,
        node_map=bin_result.node_map,
        decomposition=decomposition,
        mapping=mapping,
        allocation=allocation,
    )
