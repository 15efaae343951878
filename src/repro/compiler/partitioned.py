"""Partition-parallel compilation for very large DAGs (§V-B).

The paper compiles DAGs beyond ~20k nodes by first splitting them with
a GRAPHOPT-style linear-time partitioner and compiling each partition
independently; values crossing a partition boundary flow through data
memory (each producer piece stores them, each consumer piece loads
them as external inputs).  This module turns that composition into a
first-class code path:

* :func:`compile_partitioned` splits the DAG with
  :func:`repro.graphs.partition_topological`, builds each partition's
  induced sub-DAG (imports become local input leaves, in first-use
  order), forces boundary values to be observable via ``keep``, and
  compiles the pieces — serially or fanned out over
  :func:`repro.runner.parallel_map` worker processes (``jobs=N``);
  pieces are independent programs, so parallel compilation is exact,
  and the order-preserving merge keeps results deterministic.
* :class:`PartitionedCompileResult` holds the per-piece
  :class:`~repro.compiler.pipeline.CompileResult` objects plus the
  boundary wiring, executes the stitched pipeline through the scalar
  simulator (:meth:`run`) or the vectorized batch engine
  (:meth:`run_batch`), and aggregates
  :class:`~repro.compiler.pipeline.CompileStats`.

Because binarization expands every node locally (a fan-in-k node
becomes the same balanced tree whatever the surrounding graph) and
boundary values move through stores/loads bit-exactly, the stitched
execution is **bitwise identical** to the monolithic compilation of
the same DAG — the differential tests assert exactly that.

The convenient entry point is ``compile_dag(dag, config,
partition_threshold=20_000, jobs=4)``, which falls back to the
monolithic pipeline for DAGs at or below the threshold.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..arch import ArchConfig, Topology
from ..errors import CompileError
from ..graphs import DAG, OpType, validate
from ..graphs.partition import Partitioning, partition_topological
from .pipeline import CompileResult, CompileStats

#: Partition size used by the paper for its large PC workloads.
DEFAULT_PARTITION_NODES = 20_000


@dataclass(frozen=True)
class CompiledPiece:
    """One compiled partition plus its boundary wiring.

    Attributes:
        result: The piece's ordinary compilation.
        ext_sources: Original-DAG node feeding each local input slot,
            in slot order (original INPUT nodes or earlier pieces'
            arithmetic boundary values).
        extract: ``(original node, local node)`` pairs whose values
            are read out after executing the piece: boundary exports,
            caller-kept nodes and the piece's share of DAG sinks.
    """

    result: CompileResult
    ext_sources: tuple[int, ...]
    extract: tuple[tuple[int, int], ...]


@dataclass
class PartitionedCompileResult:
    """A large DAG compiled as a sequence of independent pieces.

    Execution runs the pieces in dependency order, feeding each one's
    external-input vector from the original inputs and previously
    produced boundary values — the data-memory traffic of the paper's
    composition, realized at the harness level.
    """

    dag: DAG
    config: ArchConfig
    partitioning: Partitioning
    pieces: list[CompiledPiece]
    stats: CompileStats
    jobs: int = 1

    @property
    def num_pieces(self) -> int:
        return len(self.pieces)

    @property
    def total_instructions(self) -> int:
        return sum(p.result.total_instructions for p in self.pieces)

    def _external_value(self, values: dict, inputs, node: int):
        if self.dag.op(node) is OpType.INPUT:
            return inputs[self.dag.input_slot(node)]
        return values[node]

    def run(self, inputs: list[float]) -> dict[int, float]:
        """Execute all pieces on the scalar verifying simulator.

        Returns the value of every extracted original node: boundary
        values, caller-kept nodes and all DAG sinks.
        """
        from ..sim import run_program

        values: dict[int, float] = {}
        for piece in self.pieces:
            sub_inputs = [
                self._external_value(values, inputs, s)
                for s in piece.ext_sources
            ]
            sim = run_program(piece.result.program, sub_inputs)
            node_map = piece.result.node_map
            for orig, local in piece.extract:
                values[orig] = sim.values[node_map[local]]
        return values

    def run_batch(self, inputs: np.ndarray) -> dict[int, np.ndarray]:
        """Execute all pieces on the batch engine ((B, num_inputs) in).

        Returns ``original node -> (B,)`` arrays for the same set of
        nodes as :meth:`run`.  Simulators are memoized per piece, so
        repeated batches reuse their bound sweeps.
        """
        inputs = np.asarray(inputs, dtype=np.float64)
        batch = inputs.shape[0]
        values: dict[int, np.ndarray] = {}
        for idx, piece in enumerate(self.pieces):
            k = len(piece.ext_sources)
            sub = np.empty((batch, k), dtype=np.float64)
            for slot, s in enumerate(piece.ext_sources):
                if self.dag.op(s) is OpType.INPUT:
                    sub[:, slot] = inputs[:, self.dag.input_slot(s)]
                else:
                    sub[:, slot] = values[s]
            result = self._sim(idx).run(sub)
            node_map = piece.result.node_map
            for orig, local in piece.extract:
                values[orig] = result.outputs[node_map[local]]
        return values

    def _sim(self, idx: int):
        """Per-piece BatchSimulator memo (not pickled — simulators
        hold locks and bound state buffers)."""
        from ..sim import BatchSimulator

        cache = self.__dict__.get("_sim_cache")
        if cache is None:
            cache = self.__dict__["_sim_cache"] = {}
        sim = cache.get(idx)
        if sim is None:
            sim = cache[idx] = BatchSimulator(self.pieces[idx].result.plan())
        return sim

    def __getstate__(self):
        state = self.__dict__.copy()
        state.pop("_sim_cache", None)
        return state


def _induced_piece(
    dag: DAG, piece_nodes: tuple[int, ...], arithmetic_set: set[int],
    name: str,
) -> tuple[DAG, dict[int, int], tuple[int, ...]]:
    """Build one partition's sub-DAG.

    Imported values (original INPUT leaves and earlier pieces'
    arithmetic results) become local input leaves, materialized
    lazily in first-consumer order so dead leaves never appear.

    Returns (sub-DAG, original->local map, ext_sources slot list).
    """
    ops: list[OpType] = []
    preds: list[tuple[int, ...]] = []
    local: dict[int, int] = {}
    ext_sources: list[int] = []
    dag_ops = dag._ops
    dag_preds = dag._preds
    input_op = OpType.INPUT

    for orig in piece_nodes:  # partition order is topological
        if dag_ops[orig] is input_op:
            # Materialized lazily when a consumer inside this piece
            # needs it — a piece may hold leaves whose consumers all
            # live in later pieces, and dead leaves are invalid.
            continue
        plist = []
        for p in dag_preds[orig]:
            lid = local.get(p)
            if lid is None:
                if p in arithmetic_set and dag_ops[p] is not input_op:
                    raise CompileError(
                        f"partition order violation: {p} -> {orig}"
                    )
                lid = len(ops)
                ops.append(input_op)
                preds.append(())
                ext_sources.append(p)
                local[p] = lid
            plist.append(lid)
        local[orig] = len(ops)
        ops.append(dag_ops[orig])
        preds.append(tuple(plist))
    sub = DAG(ops, preds, name=name)
    return sub, local, tuple(ext_sources)


def _compile_piece(task) -> CompileResult:
    """Worker for :func:`repro.runner.parallel_map` (module-level)."""
    from .pipeline import compile_dag

    sub, config, topology, seed, mapping_strategy, keep = task
    return compile_dag(
        sub,
        config,
        topology=topology,
        seed=seed,
        mapping_strategy=mapping_strategy,
        validate_input=False,
        keep=keep,
    )


def compile_partitioned(
    dag: DAG,
    config: ArchConfig,
    topology: Topology | None = None,
    seed: int = 0,
    mapping_strategy: str = "conflict_aware",
    validate_input: bool = True,
    keep: frozenset[int] | set[int] | tuple[int, ...] = (),
    partition_threshold: int = DEFAULT_PARTITION_NODES,
    jobs: int = 1,
) -> PartitionedCompileResult:
    """Partition ``dag`` and compile the pieces independently.

    Args:
        partition_threshold: Maximum nodes per partition (the paper
            uses ~20k).
        jobs: Worker processes for the piece compiles (``1`` = inline).
        (Remaining arguments as in :func:`repro.compiler.compile_dag`;
        ``seed`` applies to every piece's mapper.)
    """
    from ..arch import DEFAULT_TOPOLOGY
    from ..runner import parallel_map

    if topology is None:
        topology = DEFAULT_TOPOLOGY
    t_start = time.perf_counter()
    if validate_input:
        validate(dag)

    t0 = time.perf_counter()
    partitioning = partition_topological(dag, max_nodes=partition_threshold)
    steps: dict[str, float] = {
        "partition": time.perf_counter() - t0
    }

    # --- induced sub-DAGs + boundary wiring --------------------------
    t0 = time.perf_counter()
    keep_set = {
        k for k in keep if dag.op(k) is not OpType.INPUT
    }
    part_of = partitioning.part_of
    out_degree = [dag.out_degree(v) for v in dag.nodes()]

    specs: list[tuple[DAG, dict[int, int], tuple[int, ...]] | None] = []
    arith_sets: list[set[int]] = []
    for i, piece_nodes in enumerate(partitioning.parts):
        arithmetic = {
            v for v in piece_nodes if dag.op(v) is not OpType.INPUT
        }
        arith_sets.append(arithmetic)
        if not arithmetic:
            specs.append(None)
            continue
        specs.append(
            _induced_piece(
                dag, piece_nodes, arithmetic, f"{dag.name}.part{i}"
            )
        )

    # Exports: values read by later pieces, plus caller keeps and the
    # piece's DAG sinks (observable in the stitched result).
    exports: list[set[int]] = [set() for _ in partitioning.parts]
    for spec in specs:
        if spec is None:
            continue
        _, _, ext_sources = spec
        for src in ext_sources:
            if dag.op(src) is not OpType.INPUT:
                exports[part_of[src]].add(src)
    extract_sets: list[set[int]] = []
    keep_sets: list[set[int]] = []
    for i, arithmetic in enumerate(arith_sets):
        kept = (keep_set & arithmetic) | exports[i]
        sinks = {v for v in arithmetic if out_degree[v] == 0}
        keep_sets.append(kept)
        extract_sets.append(kept | sinks)
    steps["induce"] = time.perf_counter() - t0

    # --- compile the pieces (serially or across workers) -------------
    t0 = time.perf_counter()
    tasks = []
    task_piece: list[int] = []
    for i, spec in enumerate(specs):
        if spec is None:
            continue
        sub, local, _ = spec
        local_keep = frozenset(local[v] for v in keep_sets[i])
        tasks.append(
            (sub, config, topology, seed, mapping_strategy, local_keep)
        )
        task_piece.append(i)
    results = parallel_map(
        _compile_piece, tasks, jobs=jobs, desc="compile pieces"
    )
    steps["compile_pieces"] = time.perf_counter() - t0

    pieces: list[CompiledPiece] = []
    stats = CompileStats(
        num_nodes=dag.num_nodes,
        pieces=len(tasks),
        step_seconds=steps,
    )
    for i, result in zip(task_piece, results):
        sub, local, ext_sources = specs[i]
        extract = tuple(
            (orig, local[orig]) for orig in sorted(extract_sets[i])
        )
        pieces.append(
            CompiledPiece(
                result=result, ext_sources=ext_sources, extract=extract
            )
        )
        s = result.stats
        stats.num_binary_nodes += s.num_binary_nodes
        stats.num_operations += s.num_operations
        stats.num_blocks += s.num_blocks
        stats.bank_conflicts += s.bank_conflicts
        stats.copy_instructions += s.copy_instructions
        stats.load_instructions += s.load_instructions
        stats.store_instructions += s.store_instructions
        stats.exec_instructions += s.exec_instructions
        stats.nop_instructions += s.nop_instructions
        stats.spills += s.spills
        stats.reloads += s.reloads
        stats.mapping_repairs += s.mapping_repairs
        # Per-piece pass timings are CPU time summed across pieces
        # (overlapping wall-clock when jobs > 1), so they live under a
        # distinct prefix — the bare keys hold this driver's own
        # wall-clock steps and must add up to compile_seconds.
        for step, seconds in s.step_seconds.items():
            key = f"piece:{step}"
            steps[key] = steps.get(key, 0.0) + seconds
    if stats.num_blocks:
        total_slots = config.num_pes * stats.num_blocks
        stats.pe_utilization = (
            sum(
                len(b.nodes)
                for p in pieces
                for b in p.result.decomposition.blocks
            )
            / total_slots
        )
    stats.compile_seconds = time.perf_counter() - t_start
    return PartitionedCompileResult(
        dag=dag,
        config=config,
        partitioning=partitioning,
        pieces=pieces,
        stats=stats,
        jobs=jobs,
    )
