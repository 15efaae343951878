"""Unit tests for the two-phase engine: plan lowering + batch executor,
and the batch-aware activity/energy/performance helpers."""

import dataclasses

import numpy as np
import pytest

from repro.arch import ArchConfig, Interconnect, Topology
from repro.baselines import PlatformResult
from repro.compiler import compile_dag
from repro.errors import SimulationError
from repro.sim import (
    ActivityCounters,
    BatchSimulator,
    ExecutionPlan,
    batch_counters,
    batch_perf_report,
    count_activity,
    energy_of_batch,
    energy_of_run,
    lower_program,
    run_batch,
    run_program,
    Simulator,
)
from repro.testing import make_random_dag, random_inputs


@pytest.fixture(scope="module")
def compiled():
    cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
    return compile_dag(make_random_dag(21, num_ops=80), cfg)


class TestLowering:
    def test_program_hook(self, compiled):
        plan = compiled.program.lower()
        assert isinstance(plan, ExecutionPlan)
        assert plan.num_instructions == len(compiled.program.instructions)
        assert plan.counters == count_activity(compiled.program)

    def test_compile_result_plan_is_cached(self, compiled):
        assert compiled.plan() is compiled.plan()

    def test_plan_cache_shared_with_default_interconnect(self, compiled):
        inter = Interconnect(compiled.program.config)
        assert compiled.plan() is compiled.plan(inter)

    def test_simulator_lower(self, compiled):
        plan = Simulator(compiled.program).lower(
            check_addresses=compiled.allocation.read_addrs
        )
        assert plan.state_size > 0 and plan.steps

    def test_peak_occupancy_matches_scalar(self, compiled):
        dag_inputs = random_inputs_for(compiled)
        scalar = run_program(compiled.program, dag_inputs)
        assert compiled.plan().peak_occupancy == scalar.peak_occupancy

    def test_topology_aware(self):
        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        dag = make_random_dag(22, num_ops=60)
        result = compile_dag(dag, cfg, topology=Topology.CROSSBAR_BOTH)
        inter = Interconnect(result.program.config, Topology.CROSSBAR_BOTH)
        plan = result.plan(inter)
        batched = BatchSimulator(plan).run(
            np.full((3, dag.num_inputs), 1.01)
        )
        assert batched.batch == 3


def random_inputs_for(compiled, seed=1):
    n = max(compiled.program.input_slots.values()) + 1
    rng = np.random.default_rng(seed)
    return list(rng.uniform(0.9, 1.1, size=n))


class TestBatchExecutor:
    def test_accepts_program_directly(self, compiled):
        inputs = np.asarray([random_inputs_for(compiled)])
        batched = run_batch(compiled.program, inputs)
        assert batched.batch == 1

    def test_one_dim_vector_is_batch_of_one(self, compiled):
        vec = np.asarray(random_inputs_for(compiled))
        batched = run_batch(compiled.plan(), vec)
        assert batched.batch == 1
        scalar = run_program(compiled.program, list(vec))
        for var, column in batched.outputs.items():
            assert column[0] == scalar.outputs[var]

    def test_too_narrow_matrix_rejected(self, compiled):
        with pytest.raises(SimulationError, match="too narrow"):
            run_batch(compiled.plan(), np.ones((2, 1)))

    def test_bad_rank_rejected(self, compiled):
        with pytest.raises(SimulationError, match="matrix"):
            run_batch(compiled.plan(), np.ones((2, 2, 2)))

    def test_empty_batch_rejected(self, compiled):
        n = max(compiled.program.input_slots.values()) + 1
        with pytest.raises(SimulationError, match="no rows"):
            run_batch(compiled.plan(), np.empty((0, n)))

    def test_host_timing_recorded(self, compiled):
        batched = run_batch(
            compiled.plan(), np.asarray([random_inputs_for(compiled)] * 4)
        )
        assert batched.host_seconds > 0
        assert batched.host_rows_per_second > 0

    def test_row_outputs_shape(self, compiled):
        batched = run_batch(
            compiled.plan(), np.asarray([random_inputs_for(compiled)] * 2)
        )
        row = batched.row_outputs(1)
        assert set(row) == set(batched.outputs)
        assert all(isinstance(v, float) for v in row.values())


class TestBatchCounters:
    def test_scaled_multiplies_every_field(self):
        c = ActivityCounters(cycles=3, pe_ops=5, bank_reads=7)
        s = c.scaled(4)
        assert (s.cycles, s.pe_ops, s.bank_reads) == (12, 20, 28)
        assert s.ops_per_cycle() == c.ops_per_cycle()

    def test_scaled_equals_field_by_field_product(self):
        """Every field gets its own value, so a result built from the
        fields in the wrong order, or missing one, fails."""
        fields = dataclasses.fields(ActivityCounters)
        c = ActivityCounters(*[3 + 2 * i for i in range(len(fields))])
        s = c.scaled(7)
        for f in fields:
            assert getattr(s, f.name) == 7 * getattr(c, f.name), f.name

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            ActivityCounters().scaled(0)

    def test_batch_counters_helper(self, compiled):
        assert batch_counters(compiled.program, 5) == count_activity(
            compiled.program
        ).scaled(5)

    def test_energy_of_batch_scales_linearly(self, compiled):
        counters = count_activity(compiled.program)
        cfg = compiled.program.config
        one = energy_of_run(cfg, counters, 100)
        many = energy_of_batch(cfg, counters, 100, 8)
        assert many.total_pj == pytest.approx(8 * one.total_pj)
        assert many.energy_per_op_pj == pytest.approx(one.energy_per_op_pj)

    def test_batch_perf_report(self):
        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        perf = batch_perf_report(
            "w", cfg, operations=100, cycles_per_row=50, batch=10,
            host_seconds=0.5,
        )
        assert perf.total_operations == 1000
        assert perf.device_seconds == pytest.approx(500 / cfg.frequency_hz)
        assert perf.rows_per_second == pytest.approx(cfg.frequency_hz / 50)
        assert perf.host_rows_per_second == pytest.approx(20.0)
        # Batch does not change the per-op device metric.
        single = batch_perf_report("w", cfg, 100, 50, 1)
        assert perf.throughput_gops == pytest.approx(single.throughput_gops)


class TestPlatformBatching:
    def test_for_batch_preserves_per_op_metrics(self):
        r = PlatformResult(
            platform="CPU", workload="w", operations=1000,
            seconds=0.002, power_w=10.0,
        )
        rb = r.for_batch(32)
        assert rb.operations == 32 * r.operations
        assert rb.seconds == pytest.approx(32 * r.seconds)
        assert rb.throughput_gops == pytest.approx(r.throughput_gops)
        assert rb.edp == pytest.approx(r.edp)
        assert r.rows_per_second == pytest.approx(500.0)
        # Serving rate is per-row and must survive batching (and
        # batching twice must compose).
        assert rb.rows_per_second == pytest.approx(r.rows_per_second)
        assert rb.for_batch(4).rows_per_second == pytest.approx(
            r.rows_per_second
        )

    def test_for_batch_rejects_nonpositive(self):
        r = PlatformResult("CPU", "w", 1, 1.0, 1.0)
        with pytest.raises(ValueError):
            r.for_batch(0)


class TestMeasureBatch:
    def test_measure_attaches_batch_result(self):
        from repro.experiments.common import measure

        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        m = measure(make_random_dag(23, num_ops=60), cfg, batch=6)
        assert m.batch_result is not None
        assert m.batch_result.batch == 6
        assert m.host_rows_per_second > 0
        # Batch counters are the static counters scaled by B.
        assert m.batch_result.counters == m.counters.scaled(6)

    def test_measure_static_by_default(self):
        from repro.experiments.common import measure

        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        m = measure(make_random_dag(24, num_ops=40), cfg)
        assert m.batch_result is None
        assert m.host_rows_per_second == 0.0


class TestRunRows:
    """The serving assembly path: batches from independent row vectors."""

    def test_rows_match_stacked_matrix_bitwise(self, compiled):
        rng = np.random.default_rng(7)
        n = max(compiled.program.input_slots.values()) + 1
        rows = [rng.uniform(0.9, 1.1, size=n) for _ in range(6)]
        sim = BatchSimulator(compiled.plan())
        by_rows = sim.run_rows(rows)
        stacked = sim.run(np.stack(rows))
        assert by_rows.batch == stacked.batch == 6
        assert sorted(by_rows.outputs) == sorted(stacked.outputs)
        for var in by_rows.outputs:
            assert np.array_equal(
                by_rows.outputs[var], stacked.outputs[var], equal_nan=True
            )
        assert by_rows.counters == stacked.counters

    def test_heterogeneous_row_widths_accepted(self, compiled):
        """Each row only needs >= num_inputs leading entries."""
        rng = np.random.default_rng(8)
        n = max(compiled.program.input_slots.values()) + 1
        narrow = rng.uniform(0.9, 1.1, size=n)
        wide = np.concatenate([narrow, rng.uniform(0.9, 1.1, size=13)])
        sim = BatchSimulator(compiled.plan())
        mixed = sim.run_rows([narrow, wide])
        uniform = sim.run_rows([narrow, narrow])
        for var in mixed.outputs:
            assert mixed.outputs[var][0] == uniform.outputs[var][0] or (
                np.isnan(mixed.outputs[var][0])
                and np.isnan(uniform.outputs[var][0])
            )
            # The wide row's extra tail entries must not leak in.
            assert mixed.outputs[var][1] == mixed.outputs[var][0] or (
                np.isnan(mixed.outputs[var][1])
            )

    def test_non_contiguous_rows_accepted(self, compiled):
        rng = np.random.default_rng(9)
        n = max(compiled.program.input_slots.values()) + 1
        buffer = np.asfortranarray(rng.uniform(0.9, 1.1, size=(4, n)))
        rows = [buffer[j] for j in range(4)]
        assert not rows[0].flags["C_CONTIGUOUS"]
        sim = BatchSimulator(compiled.plan())
        from_views = sim.run_rows(rows)
        from_copy = sim.run(np.ascontiguousarray(buffer))
        for var in from_views.outputs:
            assert np.array_equal(
                from_views.outputs[var],
                from_copy.outputs[var],
                equal_nan=True,
            )

    def test_scatter_rows_round_trips(self, compiled):
        rng = np.random.default_rng(10)
        n = max(compiled.program.input_slots.values()) + 1
        result = BatchSimulator(compiled.plan()).run_rows(
            [rng.uniform(0.9, 1.1, size=n) for _ in range(3)]
        )
        scattered = result.scatter_rows()
        assert len(scattered) == 3
        for row, outputs in enumerate(scattered):
            assert outputs == result.row_outputs(row)

    def test_empty_and_malformed_rows_rejected(self, compiled):
        sim = BatchSimulator(compiled.plan())
        with pytest.raises(SimulationError, match="no rows"):
            sim.run_rows([])
        with pytest.raises(SimulationError, match="1-D"):
            sim.run_rows([np.ones((2, 2))])
        with pytest.raises(SimulationError, match="too narrow"):
            sim.run_rows([np.ones(1)])
