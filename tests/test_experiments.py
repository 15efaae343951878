"""Smoke + shape tests for the per-figure experiment drivers.

Each driver runs at a reduced scale here.  Most of the paper's shape
claims are checked on the registry's runs instead
(``ExperimentSpec.claims``, asserted by ``tests/test_runner_parity.py``);
these tests cover the rest of each driver's behaviour, not absolute
values.
"""

import pytest

from repro.arch import ArchConfig
from repro.experiments import (
    fig01_motivation,
    fig03_utilization,
    fig06_interconnect,
    fig10_conflicts,
    fig11_dse,
    fig13_breakdown,
    fig14_throughput,
    footprint,
    table1_workloads,
    table2_area_power,
    table3_comparison,
)
from repro.experiments.common import measure
from repro.testing import make_random_dag

SMALL = 0.02  # extra-small scale for test speed


class TestCommon:
    def test_measure_consistency(self):
        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        m = measure(make_random_dag(131), cfg)
        assert m.perf.cycles == m.counters.cycles
        assert m.energy.cycles == m.counters.cycles
        assert m.throughput_gops > 0

    def test_measure_reports_a_bound_run(self, monkeypatch):
        """The batch result is a steady run: its batch width's state
        and sweep were bound before it started, so binding is not
        timed into ``host_rows_per_second``."""
        from repro.experiments import common
        from repro.sim import BatchSimulator

        runs = []

        class Recording(BatchSimulator):
            def run(self, inputs):
                bound = len(inputs) in self._bound
                result = super().run(inputs)
                runs.append((bound, result))
                return result

        monkeypatch.setattr(common, "BatchSimulator", Recording)
        cfg = ArchConfig(depth=2, banks=8, regs_per_bank=16)
        m = measure(make_random_dag(131), cfg, batch=64)
        assert [bound for bound, _ in runs] == [False, True]
        assert m.batch_result is runs[-1][1]
        assert m.batch_result.batch == 64


class TestFig01:
    def test_gpu_improves_with_size(self):
        result = fig01_motivation.run(sizes=(1_000, 20_000, 120_000))
        gpu = [p.gpu_gops for p in result.points]
        assert gpu[-1] > gpu[0]
        assert "fig. 1(c)" in fig01_motivation.render(result)


class TestFig03:
    def test_systolic_degrades_with_inputs(self):
        result = fig03_utilization.run(scale=SMALL, input_counts=(2, 8, 16))
        sys_utils = [p.systolic_utilization for p in result.points]
        assert sys_utils[-1] < sys_utils[0]

    def test_tree_utilization_high(self):
        result = fig03_utilization.run(scale=SMALL, input_counts=(4, 8))
        assert all(p.tree_utilization > 0.9 for p in result.points)


class TestFig06:
    @pytest.fixture(scope="class")
    def result(self):
        cfg = ArchConfig(depth=2, banks=16, regs_per_bank=32)
        return fig06_interconnect.run(config=cfg, scale=SMALL)

    def test_crossbar_has_fewest_conflicts(self, result):
        by_topology = {r.topology.value: r for r in result.rows}
        assert (
            by_topology["crossbar_both"].conflicts
            <= by_topology["output_per_layer"].conflicts
        )
        assert (
            by_topology["output_per_layer"].conflicts
            <= by_topology["output_single"].conflicts
        )

    def test_render(self, result):
        assert "fig. 6(e)" in fig06_interconnect.render(result)


class TestFig10:
    def test_conflict_aware_beats_random(self):
        cfg = ArchConfig(depth=2, banks=16, regs_per_bank=64)
        cmp = fig10_conflicts.run_conflicts(
            workload="mnist", config=cfg, scale=SMALL
        )
        assert cmp.ours <= cmp.random
        assert "paper: 292x" in fig10_conflicts.render_conflicts(cmp)

    def test_spilling_caps_occupancy(self):
        result = fig10_conflicts.run_occupancy(
            workload="tretail", scale=SMALL, regs_per_bank=4
        )
        assert result.with_spill.global_peak <= 4
        assert (
            result.without_spill.global_peak
            >= result.with_spill.global_peak
        )
        assert "occupancy" in fig10_conflicts.render_occupancy(result)


class TestFig11Fig12:
    @pytest.fixture(scope="class")
    def experiment(self):
        # Two workloads, reduced grid via monkeypatched configs would
        # be invasive; the full 48-grid at tiny scale stays fast.
        return fig11_dse.run(
            workload_names=("tretail", "bp_200"), scale=SMALL
        )

    def test_depth3_wins_edp(self, experiment):
        assert experiment.summary.min_edp.config.depth >= 2

    def test_depth_trend_monotone_latency(self, experiment):
        trend = fig11_dse.depth_trend(experiment)
        lats = [row[1] for row in trend]
        assert lats[-1] < lats[0]

    def test_render(self, experiment):
        out = fig11_dse.render(experiment)
        assert "optimum corners" in out

    def test_fig12_curves(self, experiment):
        from repro.experiments import fig12_edp_curves

        curves = fig12_edp_curves.run(experiment)
        assert curves.latency_spread > 1
        assert curves.front
        assert "Pareto front" in fig12_edp_curves.render(curves)

    def test_fig12_reuses_the_fig11_sweep(self, monkeypatch):
        """``run_all`` of both figures runs the design-space sweep
        once: fig. 12 is derived from fig. 11's result."""
        from repro.runner.registry import run_all

        calls = []
        real = fig11_dse.run_sweep

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fig11_dse, "run_sweep", counting)
        runs = run_all(["fig11_dse", "fig12_edp_curves"], jobs=1, golden=True)
        assert len(calls) == 1
        assert list(runs) == ["fig11_dse", "fig12_edp_curves"]
        assert runs["fig12_edp_curves"].snapshot["front"]
        calls.clear()
        run_all(["fig12_edp_curves"], jobs=1, golden=True)
        assert len(calls) == 1  # alone, it runs its source's sweep


class TestFig13:
    def test_exec_fraction_positive(self):
        cfg = ArchConfig(depth=2, banks=16, regs_per_bank=32)
        result = fig13_breakdown.run(
            config=cfg, scale=SMALL, groups=("pc",)
        )
        for row in result.rows:
            assert row.exec_fraction > 0.05
        assert "fig. 13" in fig13_breakdown.render(result)


class TestFig14Table3:
    @pytest.fixture(scope="class")
    def small(self):
        cfg = ArchConfig(depth=3, banks=32, regs_per_bank=32)
        return fig14_throughput.run_small(config=cfg, scale=SMALL)

    def test_dpu_v2_beats_cpu_and_gpu(self, small):
        assert small.speedup_over("CPU") > 1
        assert small.speedup_over("GPU") > 1

    def test_render(self, small):
        out = fig14_throughput.render(small, "fig. 14(a)")
        assert "geomean" in out

    def test_large_regime(self):
        result = fig14_throughput.run_large(scale=0.003)
        assert result.speedup_over("CPU_SPU") > 1
        assert result.speedup_over("CPU") > 1

    def test_table3(self):
        result = table3_comparison.run(scale=SMALL, large_scale=0.003)
        text = table3_comparison.render(result)
        assert "Table III" in text
        assert result.small_area_mm2 > 0


class TestTables:
    def test_table1(self):
        result = table1_workloads.run(
            scale=SMALL, groups=("pc",), compile_timing=False
        )
        assert len(result.rows) == 6
        assert "Table I" in table1_workloads.render(result)

    def test_table2_total_power_same_order_as_paper(self):
        cfg = ArchConfig(depth=3, banks=64, regs_per_bank=32)
        result = table2_area_power.run(config=cfg, scale=SMALL)
        assert (
            0.1 * result.paper_total_power_mw
            < result.total_power_mw
            < 10 * result.paper_total_power_mw
        )
        assert "Table II" in table2_area_power.render(result)

    def test_footprint_beats_csr(self):
        cfg = ArchConfig(depth=2, banks=16, regs_per_bank=32)
        result = footprint.run(config=cfg, scale=SMALL, groups=("pc",))
        assert result.mean_vs_csr_saving() > 0
        assert result.mean_auto_write_saving() > 0
        assert "footprint" in footprint.render(result)
