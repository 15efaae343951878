"""Verifying reference simulator: executes a Program cycle by cycle.

This is the *slow, fully-checked* half of the two-phase execution
engine.  It replaces the paper's SystemVerilog RTL + VCS simulation
(see the substitution table in DESIGN.md), executing the instruction
stream scalar-ly, one input vector at a time, re-verifying the
compiler's hazard/interconnect/address discipline on every run.  Use
it to validate compilations and debug the stack.

For throughput work, use the plan-based fast path instead: lower the
program once with :func:`repro.sim.plan.lower_program` (which runs the
exact same verification, exactly once) and execute batches with
:class:`repro.sim.batch.BatchSimulator` — bitwise-identical outputs at
a fraction of the per-row cost.

The scalar semantics implemented here are the contract the compiler
assumed:

* one instruction issues per cycle (dense packing + shifter guarantee
  supply, §III-E);
* register banks implement the automatic write policy — reservations
  at issue via a priority encoder, data landing when the producer
  retires, frees via ``valid_rst`` (§III-B);
* exec results traverse D+1 pipeline stages; copies and loads have
  single-cycle latency; reading a register whose data has not landed
  raises :class:`HazardError` — the simulator *verifies* the
  compiler's pipeline discipline rather than interlocking;
* activity is counted for the energy model (bank reads/writes,
  arithmetic PE firings, crossbar traversals, memory accesses,
  instruction bits fetched).

Functional correctness is established by comparing every stored output
(and optionally every intermediate value) against the golden model.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..arch import (
    CopyInstr,
    DataMemory,
    ExecInstr,
    Instruction,
    InstructionMemoryStats,
    Interconnect,
    LoadInstr,
    NopInstr,
    PEOp,
    Program,
    RegisterFile,
    StoreInstr,
    evaluate_trees,
    instruction_widths,
)
from ..errors import HazardError, SimulationError


@dataclass
class ActivityCounters:
    """Per-event activity totals feeding the energy model."""

    cycles: int = 0
    instructions: int = 0
    exec_count: int = 0
    pe_ops: int = 0  # arithmetic firings
    pe_passes: int = 0
    bank_reads: int = 0
    bank_writes: int = 0
    crossbar_transfers: int = 0  # input-crossbar word movements
    dmem_reads: int = 0
    dmem_writes: int = 0
    instr_bits_fetched: int = 0
    nops: int = 0

    def ops_per_cycle(self) -> float:
        return self.pe_ops / self.cycles if self.cycles else 0.0

    def scaled(self, batch: int) -> "ActivityCounters":
        """Totals for ``batch`` back-to-back runs of the same program.

        Execution is fully static, so every event count — cycles
        included — scales exactly linearly with the batch size.
        """
        if batch < 1:
            raise SimulationError(f"batch must be >= 1, got {batch}")
        return ActivityCounters(
            *[getattr(self, name) * batch for name in _COUNTER_FIELDS]
        )


#: :class:`ActivityCounters`' field names in declaration order, so that
#: :meth:`ActivityCounters.scaled` builds its result positionally.
_COUNTER_FIELDS = tuple(f.name for f in dataclasses.fields(ActivityCounters))


@dataclass
class SimResult:
    """Simulation outcome.

    Attributes:
        values: Value of every variable (binarized node) the program
            materialized.
        outputs: Values stored to data memory, keyed by variable.
        counters: Activity totals for performance/energy models.
        peak_occupancy: Per-bank peak register usage.
    """

    values: dict[int, float]
    outputs: dict[int, float]
    counters: ActivityCounters
    peak_occupancy: list[int]

    @property
    def cycles(self) -> int:
        return self.counters.cycles


class Simulator:
    """Executes compiled programs on the architectural model."""

    def __init__(self, program: Program, interconnect: Interconnect | None = None):
        self.program = program
        self.config = program.config
        self.interconnect = interconnect or Interconnect(self.config)
        self._widths = instruction_widths(self.config, self.interconnect)

    def lower(self, check_addresses: list[dict[int, int]] | None = None):
        """Lower to an :class:`~repro.sim.plan.ExecutionPlan`.

        Runs this simulator's full verification once and returns the
        array-form plan for the vectorized batch engine.
        """
        from .plan import lower_program

        return lower_program(
            self.program,
            interconnect=self.interconnect,
            check_addresses=check_addresses,
        )

    def run(
        self,
        inputs: list[float],
        reference: dict[int, float] | None = None,
        check_addresses: list[dict[int, int]] | None = None,
    ) -> SimResult:
        """Execute the program on an input vector.

        Args:
            inputs: External inputs indexed by original input slot.
            reference: Optional ``var -> value`` golden values; every
                commit is checked against it when provided.
            check_addresses: Optional per-instruction read-address
                predictions from the compiler; the simulator verifies
                its priority encoder agrees.

        Raises:
            HazardError: Read of in-flight data (compiler failed to
                respect the pipeline depth).
            SimulationError: Any architectural misuse or a mismatch
                against ``reference``.
        """
        cfg = self.config
        program = self.program
        regfile = RegisterFile(cfg)
        dmem = DataMemory(cfg)
        imem = InstructionMemoryStats(self._widths.il)
        counters = ActivityCounters()

        self._populate_inputs(dmem, inputs)

        # Pending commits: (commit_cycle, bank, addr, var, value).
        pending: list[tuple[int, int, int, int, float]] = []
        values: dict[int, float] = {}
        outputs: dict[int, float] = {}

        for cycle, instr in enumerate(program.instructions):
            imem.append(self._widths.of(instr.mnemonic))
            counters.instructions += 1
            # Retire datapath/copy/load results whose time has come.
            still: list[tuple[int, int, int, int, float]] = []
            for item in pending:
                if item[0] <= cycle:
                    _, bank, addr, var, value = item
                    regfile[bank].commit(addr, var, value)
                    if reference is not None and var in reference:
                        self._check(var, value, reference[var])
                    values[var] = value
                else:
                    still.append(item)
            pending = still

            if isinstance(instr, NopInstr):
                counters.nops += 1
                continue
            if isinstance(instr, ExecInstr):
                self._exec(
                    instr, cycle, regfile, pending, counters,
                    check_addresses[cycle] if check_addresses else None,
                )
            elif isinstance(instr, CopyInstr):
                self._copy(instr, cycle, regfile, pending, counters)
            elif isinstance(instr, LoadInstr):
                self._load(instr, cycle, regfile, dmem, pending, counters)
            elif isinstance(instr, StoreInstr):
                self._store(instr, regfile, dmem, counters, outputs)
            else:  # pragma: no cover - exhaustive
                raise SimulationError(f"unknown instruction {instr!r}")

        # Drain the pipeline.
        for commit_cycle, bank, addr, var, value in sorted(pending):
            regfile[bank].commit(addr, var, value)
            if reference is not None and var in reference:
                self._check(var, value, reference[var])
            values[var] = value

        counters.cycles = len(program.instructions) + cfg.pipeline_stages
        counters.instr_bits_fetched = imem.fetches * self._widths.il
        return SimResult(
            values=values,
            outputs=outputs,
            counters=counters,
            peak_occupancy=[b.peak_occupancy for b in regfile.banks],
        )

    # ------------------------------------------------------------------
    def _populate_inputs(self, dmem: DataMemory, inputs: list[float]) -> None:
        program = self.program
        for var, (row, bank) in program.input_layout.items():
            slot = program.input_slots.get(var)
            if slot is None:
                raise SimulationError(
                    f"input var {var} has no external slot mapping"
                )
            if slot >= len(inputs):
                raise SimulationError(
                    f"input vector too short: need slot {slot}, "
                    f"got {len(inputs)} values"
                )
            dmem.write_lane(row, bank, var, float(inputs[slot]))

    def _read(
        self,
        regfile: RegisterFile,
        bank: int,
        var: int,
        rst: bool,
        counters: ActivityCounters,
        predicted_addr: int | None = None,
    ) -> float:
        try:
            addr = regfile[bank].addr_of(var)
        except Exception as exc:
            raise HazardError(
                f"read of var {var} from bank {bank}: {exc}"
            ) from exc
        if predicted_addr is not None and predicted_addr != addr:
            raise SimulationError(
                f"compiler predicted addr {predicted_addr} for var {var} "
                f"in bank {bank}, hardware chose {addr}"
            )
        got_var, value = regfile[bank].read(addr)
        if got_var != var:
            raise SimulationError(
                f"bank {bank} addr {addr} holds var {got_var}, "
                f"expected {var}"
            )
        counters.bank_reads += 1
        if rst:
            regfile[bank].release(addr)
        return value

    def _exec(
        self,
        instr: ExecInstr,
        cycle: int,
        regfile: RegisterFile,
        pending: list,
        counters: ActivityCounters,
        predicted: dict[int, int] | None,
    ) -> None:
        cfg = self.config
        counters.exec_count += 1
        bank_values: dict[int, float] = {}
        for bank, var in instr.bank_reads:
            bank_values[bank] = self._read(
                regfile, bank, var, bank in instr.valid_rst, counters,
                predicted.get(bank) if predicted else None,
            )
        port_values: list[float | None] = [None] * cfg.banks
        for port, src in enumerate(instr.port_source):
            if src is not None:
                if src not in bank_values:
                    raise SimulationError(
                        f"port {port} sources bank {src} which is not read"
                    )
                port_values[port] = bank_values[src]
                counters.crossbar_transfers += 1
        pe_out = evaluate_trees(cfg, port_values, instr.pe_ops)
        for op in instr.pe_ops:
            if op.is_arithmetic:
                counters.pe_ops += 1
            elif op is PEOp.PASS_A or op is PEOp.PASS_B:
                counters.pe_passes += 1
        for w in instr.writes:
            if not self.interconnect.can_write(w.pe, w.bank):
                raise SimulationError(
                    f"PE {w.pe} cannot write bank {w.bank} "
                    "(output interconnect violation)"
                )
            value = pe_out[w.pe]
            if value is None:
                raise SimulationError(
                    f"write from idle PE {w.pe} (var {w.var})"
                )
            addr = regfile[w.bank].reserve(w.var)
            pending.append(
                (cycle + cfg.pipeline_stages, w.bank, addr, w.var, value)
            )
            counters.bank_writes += 1

    def _copy(
        self,
        instr: CopyInstr,
        cycle: int,
        regfile: RegisterFile,
        pending: list,
        counters: ActivityCounters,
    ) -> None:
        srcs = [m.src_bank for m in instr.moves]
        dsts = [m.dst_bank for m in instr.moves]
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise SimulationError("copy violates 1R/1W bank ports")
        for m in instr.moves:
            value = self._read(
                regfile, m.src_bank, m.var, m.free_source, counters
            )
            addr = regfile[m.dst_bank].reserve(m.var)
            pending.append((cycle + 1, m.dst_bank, addr, m.var, value))
            counters.bank_writes += 1
            counters.crossbar_transfers += 1

    def _load(
        self,
        instr: LoadInstr,
        cycle: int,
        regfile: RegisterFile,
        dmem: DataMemory,
        pending: list,
        counters: ActivityCounters,
    ) -> None:
        lanes = dmem.load_row(instr.row)
        counters.dmem_reads += 1
        for bank, var in instr.dests:
            tag, value = lanes[bank]
            if tag != var:
                raise SimulationError(
                    f"load row {instr.row} lane {bank}: memory holds var "
                    f"{tag}, program expects {var}"
                )
            addr = regfile[bank].reserve(var)
            pending.append((cycle + 1, bank, addr, var, value))
            counters.bank_writes += 1

    def _store(
        self,
        instr: StoreInstr,
        regfile: RegisterFile,
        dmem: DataMemory,
        counters: ActivityCounters,
        outputs: dict[int, float],
    ) -> None:
        lanes: list[tuple[int, int, float]] = []
        for slot in instr.slots:
            value = self._read(
                regfile, slot.bank, slot.var, slot.free_source, counters
            )
            lanes.append((slot.bank, slot.var, value))
        dmem.store_lanes(instr.row, lanes)
        counters.dmem_writes += 1
        out_rows = self._output_rows()
        if instr.row in out_rows:
            for _, var, value in lanes:
                outputs[var] = value

    def _output_rows(self) -> set[int]:
        if not hasattr(self, "_out_rows_cache"):
            self._out_rows_cache = {
                row for row, _ in self.program.output_layout.values()
            }
        return self._out_rows_cache

    def _check(self, var: int, value: float, expected: float) -> None:
        if not np.isclose(value, expected, rtol=1e-9, atol=1e-12):
            raise SimulationError(
                f"var {var}: simulated {value!r} != reference {expected!r}"
            )


def run_program(
    program: Program,
    inputs: list[float],
    reference: dict[int, float] | None = None,
    check_addresses: list[dict[int, int]] | None = None,
) -> SimResult:
    """Convenience wrapper: build a Simulator and run once."""
    return Simulator(program).run(
        inputs, reference=reference, check_addresses=check_addresses
    )
