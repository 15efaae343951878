"""Exact simulated counts and golden checks shared by the workloads."""

from __future__ import annotations

import numpy as np

from harness import PASSES
from repro import ReproError, binarize, evaluate_dag, run_program
from repro.sim.energy import energy_of_run

#: Per-layer count metrics every workload reports (summed over its
#: programs; 0 where a workload compiles nothing of that kind).
COUNT_LAYERS = (
    "compiler.bank_conflicts",
    "compiler.spills",
    "compiler.nops",
    "fused.levels",
    "fused.cells",
)


class Counts:
    """Running sums of the simulated figures of merit over programs."""

    def __init__(self) -> None:
        self.cycles = 0
        self.energy_pj = 0.0
        self.instructions = 0
        self.layers = dict.fromkeys(COUNT_LAYERS, 0)

    def add(self, result, plan, fused=None) -> None:
        """Add one compiled program: cycles and energy per row, program
        length, and the compiler/fusion counts behind them."""
        stats = result.stats
        self.cycles += plan.cycles_per_row
        self.energy_pj += energy_of_run(
            result.program.config, plan.counters, stats.num_operations
        ).total_pj
        self.instructions += len(result.program.instructions)
        self.layers["compiler.bank_conflicts"] += stats.bank_conflicts
        self.layers["compiler.spills"] += stats.spills
        self.layers["compiler.nops"] += stats.nop_instructions
        if fused is not None:
            self.layers["fused.levels"] += fused.num_levels
            self.layers["fused.cells"] += fused.state_size

    @property
    def energy_nj(self) -> float:
        return self.energy_pj / 1e3


class CompileTimes:
    """Compile, pass and lowering seconds summed over programs, for
    workloads that compile outside their timed ops."""

    def __init__(self) -> None:
        self.seconds = dict.fromkeys(
            ["compiler.compile", "sim.plan.lower"]
            + [f"compiler.pass.{p}" for p in PASSES],
            0.0,
        )
        self.programs = 0

    def add(self, result, compile_s: float, lower_s: float) -> None:
        self.seconds["compiler.compile"] += compile_s
        self.seconds["sim.plan.lower"] += lower_s
        for name in PASSES:
            self.seconds[f"compiler.pass.{name}"] += (
                result.stats.step_seconds.get(name, 0.0)
            )
        self.programs += 1

    def layers_ms(self) -> dict[str, float]:
        """Mean ms per compiled program; ``compiler.other_ms`` is the
        compile time its passes do not account for."""
        layers = {
            f"{key}_ms": total * 1e3 / self.programs
            for key, total in self.seconds.items()
        }
        layers["compiler.other_ms"] = layers["compiler.compile_ms"] - sum(
            layers[f"compiler.pass.{p}_ms"] for p in PASSES
        )
        return layers


def golden_check(dag, result, inputs: list[float]) -> bool:
    """``run_program``'s fully checked simulation of one row against
    the reference interpreter; False on any disagreement."""
    bdag = binarize(dag).dag
    values = evaluate_dag(bdag, inputs)
    reference = {v: float(values[v]) for v in range(bdag.num_nodes)}
    try:
        run_program(
            result.program,
            inputs,
            reference=reference,
            check_addresses=result.allocation.read_addrs,
        )
    except ReproError:
        return False
    return True


def bits_equal(a: np.ndarray, b: np.ndarray) -> bool:
    """IEEE bit equality of two float64 arrays (NaN payloads included)."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    b = np.ascontiguousarray(b, dtype=np.float64)
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )
