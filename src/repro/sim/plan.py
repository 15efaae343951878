"""Phase 1 of the two-phase execution engine: verified lowering.

Execution on DPU-v2 is fully static: the instruction stream determines
every register address, crossbar route and memory access regardless of
data values.  This module exploits that by lowering a compiled
:class:`~repro.arch.Program` **once** into a flat, array-form
:class:`ExecutionPlan` — numpy index arrays describing, step by step,
which state cells are read, combined by which PE opcode, and written
where.  All of the architectural verification the scalar simulator
performs on *every* run happens here exactly once:

* hazard discipline — reads are replayed against the reserve/commit/
  release register-file model with the real pipeline timing, so a read
  of in-flight data raises :class:`~repro.errors.HazardError`;
* the compiler's read-address predictions are checked against the
  priority encoder (when provided);
* output-interconnect write legality, crossbar port sourcing, copy
  port-conflict (1R/1W) rules, data-memory tag and row-bound checks
  and PE-tree operand presence are all asserted.

PE layers and operand sources come from the static per-(D, B) wiring
table :meth:`~repro.arch.ArchConfig.pe_wiring`; every check above
still runs on every instruction.

After lowering, a plan is fused (:mod:`repro.sim.fused`) and executed
by the batch engine (:mod:`repro.sim.batch`) with **zero** per-run
verification cost, and
its :class:`~repro.sim.functional.ActivityCounters` are derived
analytically from the instruction stream (they are provably identical
to what the scalar simulator would count — asserted in tests).

State-cell layout
-----------------
A plan addresses one flat state vector (per batch row):

* cells ``[0, banks*R)`` — the register file, ``bank * R + addr``;
* cells ``[banks*R, banks*R + rows*banks)`` — the data memory,
  ``row * banks + lane`` after the offset;
* the final ``num_pes`` cells — per-PE scratch outputs, reused by
  every exec instruction (legal because each exec's tree is evaluated
  layer by layer before its writes are scattered out).

Because the program is verified hazard-free, a write can land in its
destination cell at *issue* time instead of ``D+1`` cycles later: the
destination register was free when reserved and no verified read can
touch it before the data would have arrived.  That is what collapses
the pipelined machine into a simple sequential tape.
"""

from __future__ import annotations

import gc
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..arch import (
    CopyInstr,
    ExecInstr,
    Interconnect,
    LoadInstr,
    NopInstr,
    PEOp,
    Program,
    RegisterFile,
    StoreInstr,
)
from ..errors import HazardError, SimulationError
from .activity import count_activity
from .functional import ActivityCounters

_IDX = np.int32
# Enum member lookups are slow in the per-PE loop; bind them once.
_IDLE, _ADD, _PASS_A, _PASS_B = PEOp.IDLE, PEOp.ADD, PEOp.PASS_A, PEOp.PASS_B


def _arr(values: list[int]) -> np.ndarray:
    return np.asarray(values, dtype=_IDX)


@dataclass(frozen=True)
class MoveStep:
    """Bulk data movement: ``state[dst] = state[src]`` (vectorized).

    Lowered from copies, loads, stores and exec write-backs — after
    address resolution they are all the same gather/scatter.  The
    semantics are gather-then-scatter: all of ``src`` is read before
    any of ``dst`` is written, so ``src``/``dst`` overlap is legal.
    """

    src: np.ndarray
    dst: np.ndarray


@dataclass(frozen=True)
class ComputeStep:
    """One PE-tree layer of one exec instruction.

    All ops within a layer are independent (their operands come from
    input ports or the previous layer), so each opcode group is a
    single vectorized gather/compute/scatter.
    """

    add_out: np.ndarray
    add_a: np.ndarray
    add_b: np.ndarray
    mul_out: np.ndarray
    mul_a: np.ndarray
    mul_b: np.ndarray
    mov_out: np.ndarray  # PASS_A / PASS_B bypasses
    mov_src: np.ndarray


Step = MoveStep | ComputeStep


@dataclass(frozen=True)
class ExecutionPlan:
    """A compiled program lowered to flat arrays, verified once.

    Attributes:
        config: Architecture point the program was compiled for.
        source_name: Workload name, for reports.
        num_instructions: Length of the lowered instruction stream.
        num_inputs: External input slots the plan consumes.
        state_size: Cells in the per-row state vector (registers +
            data memory + PE scratch).
        input_cells / input_slots: Parallel arrays scattering column
            ``input_slots[i]`` of the input matrix into state cell
            ``input_cells[i]``.
        steps: The execution tape, in issue order.
        output_vars / output_cells: Parallel arrays naming each output
            variable and the state cell holding its final value.
        counters: Activity totals for **one** batch row (scale by B
            via :meth:`~repro.sim.functional.ActivityCounters.scaled`).
        peak_occupancy: Per-bank peak register usage (replay-exact).
    """

    config: object
    source_name: str
    num_instructions: int
    num_inputs: int
    state_size: int
    input_cells: np.ndarray
    input_slots: np.ndarray
    steps: tuple[Step, ...]
    output_vars: tuple[int, ...]
    output_cells: np.ndarray
    counters: ActivityCounters
    peak_occupancy: list[int] = field(default_factory=list)

    @property
    def cycles_per_row(self) -> int:
        """Device cycles one batch row costs (stream + drain)."""
        return self.counters.cycles

    def scaled_counters(self, batch: int) -> ActivityCounters:
        """Activity totals for a batch of ``batch`` rows."""
        return self.counters.scaled(batch)


class _Lowerer:
    """Replays a program symbolically, emitting the execution tape."""

    def __init__(
        self,
        program: Program,
        interconnect: Interconnect | None,
        check_addresses: list[dict[int, int]] | None,
    ) -> None:
        self.program = program
        self.cfg = program.config
        self.inter = interconnect or Interconnect(self.cfg)
        self.check_addresses = check_addresses
        self.regfile = RegisterFile(self.cfg)
        self.rows = max(program.num_data_rows, 1)
        self.mem_tags = [[-1] * self.cfg.banks for _ in range(self.rows)]
        self.reg_cells = self.cfg.banks * self.cfg.regs_per_bank
        self.scratch_base = self.reg_cells + self.rows * self.cfg.banks
        self.steps: list[Step] = []
        # In-flight reservations: (commit_cycle, bank, addr, var).
        self.pending: list[tuple[int, int, int, int]] = []

    # -- cell arithmetic ----------------------------------------------
    def reg_cell(self, bank: int, addr: int) -> int:
        return bank * self.cfg.regs_per_bank + addr

    def mem_cell(self, row: int, lane: int) -> int:
        if not 0 <= row < self.rows:
            raise SimulationError(
                f"data-memory row {row} out of range 0..{self.rows - 1}"
            )
        return self.reg_cells + row * self.cfg.banks + lane

    # -- replayed register-file protocol ------------------------------
    def _read_cell(
        self, bank: int, var: int, rst: bool, predicted: int | None = None
    ) -> int:
        """Resolve a read to a state cell, with the scalar sim's checks."""
        try:
            addr = self.regfile[bank].addr_of(var)
        except Exception as exc:
            raise HazardError(
                f"read of var {var} from bank {bank}: {exc}"
            ) from exc
        if predicted is not None and predicted != addr:
            raise SimulationError(
                f"compiler predicted addr {predicted} for var {var} "
                f"in bank {bank}, hardware chose {addr}"
            )
        got_var, _ = self.regfile[bank].read(addr)
        if got_var != var:
            raise SimulationError(
                f"bank {bank} addr {addr} holds var {got_var}, "
                f"expected {var}"
            )
        if rst:
            self.regfile[bank].release(addr)
        return self.reg_cell(bank, addr)

    def _reserve(self, cycle: int, latency: int, bank: int, var: int) -> int:
        addr = self.regfile[bank].reserve(var)
        self.pending.append((cycle + latency, bank, addr, var))
        return self.reg_cell(bank, addr)

    def _retire(self, cycle: int) -> None:
        still = []
        for item in self.pending:
            if item[0] <= cycle:
                _, bank, addr, var = item
                self.regfile[bank].commit(addr, var, 0.0)
            else:
                still.append(item)
        self.pending = still

    # -- per-instruction lowering -------------------------------------
    def lower(self) -> ExecutionPlan:
        program = self.program
        input_cells, input_slots = self._populate_inputs()
        for cycle, instr in enumerate(program.instructions):
            self._retire(cycle)
            if isinstance(instr, NopInstr):
                continue
            if isinstance(instr, ExecInstr):
                self._exec(instr, cycle)
            elif isinstance(instr, CopyInstr):
                self._copy(instr, cycle)
            elif isinstance(instr, LoadInstr):
                self._load(instr, cycle)
            elif isinstance(instr, StoreInstr):
                self._store(instr)
            else:  # pragma: no cover - exhaustive
                raise SimulationError(f"unknown instruction {instr!r}")
        for _, bank, addr, var in sorted(self.pending):
            self.regfile[bank].commit(addr, var, 0.0)

        output_vars: list[int] = []
        output_cells: list[int] = []
        for var, (row, lane) in program.output_layout.items():
            if self.mem_tags[row][lane] != var:
                raise SimulationError(
                    f"output var {var} expected in data-memory row {row} "
                    f"lane {lane}, which holds var {self.mem_tags[row][lane]}"
                )
            output_vars.append(var)
            output_cells.append(self.mem_cell(row, lane))

        num_inputs = (
            max(program.input_slots.values()) + 1
            if program.input_slots
            else 0
        )
        return ExecutionPlan(
            config=self.cfg,
            source_name=program.source_name,
            num_instructions=len(program.instructions),
            num_inputs=num_inputs,
            state_size=self.scratch_base + self.cfg.num_pes,
            input_cells=_arr(input_cells),
            input_slots=_arr(input_slots),
            steps=tuple(self.steps),
            output_vars=tuple(output_vars),
            output_cells=_arr(output_cells),
            counters=count_activity(program, self.inter),
            peak_occupancy=[
                b.peak_occupancy for b in self.regfile.banks
            ],
        )

    def _populate_inputs(self) -> tuple[list[int], list[int]]:
        cells: list[int] = []
        slots: list[int] = []
        for var, (row, lane) in self.program.input_layout.items():
            slot = self.program.input_slots.get(var)
            if slot is None:
                raise SimulationError(
                    f"input var {var} has no external slot mapping"
                )
            self.mem_tags[row][lane] = var
            cells.append(self.mem_cell(row, lane))
            slots.append(slot)
        return cells, slots

    def _exec(self, instr: ExecInstr, cycle: int) -> None:
        cfg = self.cfg
        predicted = (
            self.check_addresses[cycle] if self.check_addresses else None
        )
        bank_cell: dict[int, int] = {}
        for bank, var in instr.bank_reads:
            bank_cell[bank] = self._read_cell(
                bank, var, bank in instr.valid_rst,
                predicted.get(bank) if predicted else None,
            )
        port_cell: list[int | None] = [None] * cfg.banks
        for port, src in enumerate(instr.port_source):
            if src is not None:
                if src not in bank_cell:
                    raise SimulationError(
                        f"port {port} sources bank {src} which is not read"
                    )
                port_cell[port] = bank_cell[src]

        # Evaluate the PE trees symbolically, layer by layer.  Each
        # layer group holds the ComputeStep fields in declaration order.
        wiring = cfg.pe_wiring()
        scratch = self.scratch_base
        produced: list[int | None] = [None] * cfg.num_pes
        layers: list[tuple[list[int], ...] | None] = [None] * (cfg.depth + 1)
        for pe, op in enumerate(instr.pe_ops):
            if op is _IDLE:
                continue
            layer, a_port, a_id, b_port, b_id = wiring[pe]
            a = port_cell[a_id] if a_port else produced[a_id]
            b = port_cell[b_id] if b_port else produced[b_id]
            out = scratch + pe
            group = layers[layer]
            if group is None:
                group = layers[layer] = ([], [], [], [], [], [], [], [])
            if op is _PASS_A or op is _PASS_B:
                src = a if op is _PASS_A else b
                if src is None:
                    raise SimulationError(
                        f"PE {pe}: {op.name} with missing operand"
                    )
                group[6].append(out)
                group[7].append(src)
            else:
                if a is None or b is None:
                    raise SimulationError(
                        f"PE {pe}: {op.name} with missing operand "
                        f"(a={'ok' if a is not None else 'missing'}, "
                        f"b={'ok' if b is not None else 'missing'})"
                    )
                base = 0 if op is _ADD else 3
                group[base].append(out)
                group[base + 1].append(a)
                group[base + 2].append(b)
            produced[pe] = out
        for group in layers:
            if group is not None:
                self.steps.append(ComputeStep(*map(_arr, group)))

        write_src: list[int] = []
        write_dst: list[int] = []
        for w in instr.writes:
            if not self.inter.can_write(w.pe, w.bank):
                raise SimulationError(
                    f"PE {w.pe} cannot write bank {w.bank} "
                    "(output interconnect violation)"
                )
            src = produced[w.pe]
            if src is None:
                raise SimulationError(
                    f"write from idle PE {w.pe} (var {w.var})"
                )
            write_src.append(src)
            write_dst.append(
                self._reserve(cycle, self.cfg.pipeline_stages, w.bank, w.var)
            )
        if write_dst:
            self.steps.append(MoveStep(_arr(write_src), _arr(write_dst)))

    def _copy(self, instr: CopyInstr, cycle: int) -> None:
        srcs = [m.src_bank for m in instr.moves]
        dsts = [m.dst_bank for m in instr.moves]
        if len(set(srcs)) != len(srcs) or len(set(dsts)) != len(dsts):
            raise SimulationError("copy violates 1R/1W bank ports")
        src_cells: list[int] = []
        dst_cells: list[int] = []
        for m in instr.moves:
            src_cells.append(
                self._read_cell(m.src_bank, m.var, m.free_source)
            )
            dst_cells.append(self._reserve(cycle, 1, m.dst_bank, m.var))
        if dst_cells:
            self.steps.append(MoveStep(_arr(src_cells), _arr(dst_cells)))

    def _load(self, instr: LoadInstr, cycle: int) -> None:
        src_cells: list[int] = []
        dst_cells: list[int] = []
        for bank, var in instr.dests:
            cell = self.mem_cell(instr.row, bank)
            tag = self.mem_tags[instr.row][bank]
            if tag != var:
                raise SimulationError(
                    f"load row {instr.row} lane {bank}: memory holds var "
                    f"{tag}, program expects {var}"
                )
            src_cells.append(cell)
            dst_cells.append(self._reserve(cycle, 1, bank, var))
        if dst_cells:
            self.steps.append(MoveStep(_arr(src_cells), _arr(dst_cells)))

    def _store(self, instr: StoreInstr) -> None:
        src_cells: list[int] = []
        dst_cells: list[int] = []
        for slot in instr.slots:
            src_cells.append(
                self._read_cell(slot.bank, slot.var, slot.free_source)
            )
            dst_cells.append(self.mem_cell(instr.row, slot.bank))
            self.mem_tags[instr.row][slot.bank] = slot.var
        if dst_cells:
            self.steps.append(MoveStep(_arr(src_cells), _arr(dst_cells)))


def lower_program(
    program: Program,
    interconnect: Interconnect | None = None,
    check_addresses: list[dict[int, int]] | None = None,
) -> ExecutionPlan:
    """Lower a compiled program into an :class:`ExecutionPlan`.

    Runs the full hazard / interconnect / address-prediction
    verification the scalar simulator would perform, exactly once, with
    the cyclic GC paused (:func:`gc_paused`).

    Args:
        program: The compiled program to lower.
        interconnect: Interconnect model (defaults to the program
            config's default topology).
        check_addresses: Optional per-instruction ``bank -> addr``
            read-address predictions from the compiler; verified
            against the replayed priority encoder.

    Raises:
        HazardError: Read of in-flight data.
        SimulationError: Any architectural misuse.
    """
    with gc_paused():
        return _Lowerer(program, interconnect, check_addresses).lower()


@contextmanager
def gc_paused() -> Iterator[None]:
    """Run the block with the cyclic garbage collector paused, then
    restore the state it had.

    For passes that allocate many objects and make no reference
    cycles (``tests/test_compiler_gc.py`` guards this), like the
    compiler's: a collection during them would free nothing.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
