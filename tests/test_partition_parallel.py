"""Partition-parallel compile parity (the compile_dag fast path for
very large DAGs).

``compile_dag(dag, cfg, partition_threshold=N, jobs=J)`` must produce
a stitched pipeline that executes **bitwise identically** to the
monolithic compilation, whatever the partition size or worker count:

* scalar stitched execution == monolithic scalar simulator ==
  reference interpreter, per sink/boundary value, bit for bit;
* batch stitched execution == scalar, every row;
* ``jobs=1`` and ``jobs=2`` produce identical piece programs
  (parallel_map's order-preserving merge + per-piece determinism);
* the differential oracle's partitioned stage accepts real scenarios
  and its injected boundary fault is caught and shrunk.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import ArchConfig, MIN_EDP_CONFIG
from repro.compiler import (
    CompileResult,
    PartitionedCompileResult,
    compile_dag,
)
from repro.graphs import OpType, binarize
from repro.sim import evaluate_dag, run_program
from repro.verify import FAULTS, diff_check_dag
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth

CFG = ArchConfig(depth=2, banks=16, regs_per_bank=16)


def _inputs(dag, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.9, 1.1, max(dag.num_inputs, 1)).tolist()


def _sink_values(dag, result, inputs):
    """Monolithic scalar execution, sink -> value."""
    sim = run_program(result.program, inputs)
    return {
        s: sim.values[result.node_map[s]]
        for s in dag.sinks()
        if dag.op(s) is not OpType.INPUT
    }


class TestPartitionedParity:
    @pytest.mark.parametrize("family", ["layered", "diamond", "reuse",
                                        "disconnected", "near_chain"])
    @pytest.mark.parametrize("threshold", [7, 40])
    def test_stitched_matches_monolithic_bitwise(self, family, threshold):
        dag = generate_synth(family, 150, seed=21)
        inputs = _inputs(dag, seed=1)
        mono = compile_dag(dag, CFG, validate_input=False)
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=threshold
        )
        assert isinstance(part, PartitionedCompileResult)
        assert part.num_pieces >= 2
        stitched = part.run(inputs)
        for sink, value in _sink_values(dag, mono, inputs).items():
            assert stitched[sink] == value  # bitwise

    def test_boundary_values_match_reference(self):
        dag = generate_synth("layered", 300, seed=5)
        inputs = _inputs(dag, seed=2)
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=60
        )
        mono = compile_dag(dag, CFG, validate_input=False)
        golden = evaluate_dag(binarize(dag).dag, inputs)
        stitched = part.run(inputs)
        # every extracted value (boundaries included) is bit-exact
        assert len(stitched) > len(dag.sinks())
        for node, value in stitched.items():
            assert value == golden[mono.node_map[node]]

    def test_jobs_parity_bitwise(self):
        dag = generate_synth("layered", 400, seed=31)
        kwargs = dict(validate_input=False, partition_threshold=80)
        serial = compile_dag(dag, CFG, jobs=1, **kwargs)
        parallel = compile_dag(dag, CFG, jobs=2, **kwargs)
        assert serial.num_pieces == parallel.num_pieces
        for a, b in zip(serial.pieces, parallel.pieces):
            assert a.ext_sources == b.ext_sources
            assert a.extract == b.extract
            assert (
                a.result.program.instructions
                == b.result.program.instructions
            )
            assert a.result.node_map == b.result.node_map
        inputs = _inputs(dag, seed=3)
        assert serial.run(inputs) == parallel.run(inputs)

    def test_batch_engine_matches_scalar_rows(self):
        dag = generate_synth("diamond", 200, seed=8)
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=50
        )
        rng = np.random.default_rng(9)
        matrix = rng.uniform(0.9, 1.1, (3, max(dag.num_inputs, 1)))
        batched = part.run_batch(matrix)
        for row in range(3):
            scalar = part.run(matrix[row].tolist())
            for node, value in scalar.items():
                assert float(batched[node][row]) == value

    def test_keep_vars_survive_partitioning(self):
        dag = generate_synth("layered", 120, seed=13)
        keep = [
            v for v in dag.nodes() if dag.op(v) is not OpType.INPUT
        ][: 10]
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=30,
            keep=frozenset(keep),
        )
        inputs = _inputs(dag, seed=4)
        mono = compile_dag(
            dag, CFG, validate_input=False, keep=frozenset(keep)
        )
        golden = evaluate_dag(binarize(dag).dag, inputs)
        stitched = part.run(inputs)
        for v in keep:
            assert stitched[v] == golden[mono.node_map[v]]

    def test_threshold_larger_than_dag_stays_monolithic(self):
        dag = generate_synth("wide", 60, seed=2)
        result = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=10_000
        )
        assert isinstance(result, CompileResult)

    def test_trace_occupancy_rejected_on_partitioned_path(self):
        from repro.errors import CompileError

        dag = generate_synth("layered", 120, seed=1)
        with pytest.raises(CompileError, match="trace_occupancy"):
            compile_dag(
                dag, CFG, validate_input=False,
                partition_threshold=30, trace_occupancy=True,
            )

    def test_step_seconds_wall_vs_piece_split(self):
        dag = generate_synth("layered", 200, seed=23)
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=40
        )
        steps = part.stats.step_seconds
        wall = [k for k in steps if not k.startswith("piece:")]
        assert set(wall) == {"partition", "induce", "compile_pieces"}
        # driver wall steps must not exceed the total compile time
        assert sum(steps[k] for k in wall) <= part.stats.compile_seconds
        assert any(k.startswith("piece:") for k in steps)

    def test_stats_aggregate(self):
        dag = generate_synth("layered", 200, seed=17)
        part = compile_dag(
            dag, CFG, validate_input=False, partition_threshold=40
        )
        s = part.stats
        assert s.pieces == part.num_pieces
        assert s.num_blocks == sum(
            p.result.stats.num_blocks for p in part.pieces
        )
        assert s.exec_instructions == s.num_blocks
        assert part.total_instructions == sum(
            p.result.total_instructions for p in part.pieces
        )
        assert 0.0 < s.pe_utilization <= 1.0
        assert "partition" in s.step_seconds
        assert "compile_pieces" in s.step_seconds

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(sorted(SYNTH_FAMILIES)),
        n=st.integers(min_value=12, max_value=140),
        seed=st.integers(min_value=0, max_value=2**16),
        denom=st.integers(min_value=2, max_value=6),
    )
    def test_property_partitioned_equals_monolithic(
        self, family, n, seed, denom
    ):
        from repro.errors import SpillError

        dag = generate_synth(family, n, seed=seed)
        threshold = max(1, dag.num_nodes // denom)
        inputs = _inputs(dag, seed=seed)
        try:
            mono = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
            part = compile_dag(
                dag,
                MIN_EDP_CONFIG,
                validate_input=False,
                partition_threshold=threshold,
            )
        except SpillError:
            return  # config cannot fit — not a parity question
        stitched = part.run(inputs)
        for sink, value in _sink_values(dag, mono, inputs).items():
            assert stitched[sink] == value


class TestOracleIntegration:
    def test_oracle_partitioned_stage_passes(self):
        dag = generate_synth("layered", 160, seed=3)
        report = diff_check_dag(
            dag, CFG, value_seed=7, batch=2,
            stages=("partitioned-vs-reference",), partition_threshold=40,
        )
        assert report.ok, report.mismatch

    def test_partition_boundary_fault_is_registered(self):
        assert FAULTS["partition_boundary"] == "partitioned-vs-reference"

    def test_partition_boundary_fault_caught(self):
        dag = generate_synth("layered", 80, seed=4)
        report = diff_check_dag(
            dag, CFG, value_seed=5, batch=2, fault="partition_boundary"
        )
        assert not report.ok
        assert report.mismatch.stage == "partitioned-vs-reference"

    def test_fuzz_campaign_includes_partitioned_scenarios(self):
        from repro.verify.fuzz import make_scenarios

        scenarios = make_scenarios(40, seed=0)
        partitioned = [
            s for s in scenarios if s.partition_threshold is not None
        ]
        assert len(partitioned) >= 5
        for s in partitioned:
            assert s.partition_threshold >= 1
