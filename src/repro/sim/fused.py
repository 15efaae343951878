"""Phase 3 of the execution engine: fused super-op plans.

The step tape of an :class:`~repro.sim.plan.ExecutionPlan` is faithful
to the machine — one :class:`~repro.sim.plan.MoveStep` or
:class:`~repro.sim.plan.ComputeStep` per lowered event — but
interpreting it directly costs one Python-dispatched numpy
gather/compute/scatter per step, plus a full register-file/data-
memory/scratch state image per batch row.  At batch 256 that dispatch
overhead, the fancy-index intermediates and the state traffic dominate
the sweep.  This module lowers the tape one step further into a
:class:`FusedPlan` — the form the batch engine
(:mod:`repro.sim.batch`) runs — built on three observations:

1. **Moves are renames.**  The tape's data movement (copies, loads,
   stores, exec write-backs, PASS_A/PASS_B bypasses) never computes
   anything, so under a single-assignment renaming every moved value
   is just a new name for an existing value.  Fusion replays the tape
   symbolically, tracking the *value id* currently held by every state
   cell; moves update the tracking table and vanish from execution.

2. **Same-opcode ops of one dependence level fuse.**  With moves gone,
   only true RAW dependences remain (every op defines a fresh id, so
   WAW/WAR hazards cannot exist).  Each arithmetic op's level is
   ``1 + max(level of operands)``.  Ops are ordered by level, then
   opcode, so all adds of one level form one run of the schedule — a
   *super-op* the numpy sweep runs as a single ``np.add``, all muls
   one ``np.multiply``.  A plan with thousands of tape steps collapses
   to roughly ``2 x depth`` runs.

3. **The machine state can be left behind.**  The only original
   cells the fused engine ever *reads* are the inputs (anything else
   reads the zero initialization, which gets one pinned zero cell).
   As DPU-v2 loads a value from data memory into a register bank only
   when a PE tree needs it (§IV), every input that is read becomes a
   *load* row of the schedule, placed one level before its first
   reader, so a deep plan keeps a handful of inputs live instead of
   all of them.  Value ids are permuted level-major, so every run
   *writes a basic slice* and operands frequently *read* one.  Then,
   as the DPU-v2 compiler reuses registers by liveness, cells are
   reused by last use: each level's results and loads take one
   contiguous block of cells whose previous values are dead, so the
   fused state grows with the peak live width, not the op count — for
   real workloads a fraction of the register-file + data-memory +
   scratch image a direct tape interpreter carries per batch row.
   Within a run, every cell is written before it is read: inputs by
   their load, results by their op, and a cell is handed on only
   after the last level that reads its value.

The schedule is one flat table, :attr:`FusedPlan.ops`: ``(opcode,
a, b, out_cell)`` rows in level-major, opcode-minor order (adds, muls,
then loads), with :attr:`FusedPlan.level_bounds` marking where each
dependence level starts.  The native kernel (:mod:`repro.sim.native`) runs the
table in one fixed C loop: no per-level or per-kernel dispatch at all.
Without a working C compiler the numpy sweep runs instead, and it
derives its program from the same table when it is bound: each level
splits into runs of one opcode, each run is one ufunc call over *flat
1-D contiguous views* (the state is C-contiguous, so cell range
``[lo, hi)`` is flat range ``[lo*B, hi*B)``), the level's operands
whose cells are not consecutive are collected by **one** gather into
a scratch block first, and the level's loads are one take from the
input matrix.  Which of the two runs is fixed per process by
whether the kernel builds; nothing configures it.

Either way the sweep is **bound** once per batch width
(:func:`bind_sweep`): the state buffer is allocated, 64-byte aligned,
and the kernel's pointers (or the numpy views) are computed up front
and reused across runs, so the per-run hot path is one C call or raw
ufunc dispatches that read the caller's input matrix directly — no
allocation, no slice construction, no index arithmetic.  Reusing
the state is safe because within a run every cell is written before
it is read (observation 3), so stale values from the previous batch
are never observed.

Everything here is bitwise-exact: both sweeps perform the same
IEEE-double adds and muls, only regrouping *independent* lanes, so
fused outputs are asserted bit-identical to a direct interpretation
of the step tape (:func:`repro.verify.differential.interpret_plan`) by
the differential fuzzer, and to the scalar simulator by the
property-based suite.  One case is outside that guarantee: an add or
mul whose two operands are NaNs with *different* payloads.  IEEE 754
leaves the result's payload open, and Python floats, numpy and C pick
differently, so the sweeps and the scalar simulator agree bitwise only
while at most one NaN payload is in play.
"""

from __future__ import annotations

import hashlib
import itertools
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..obs import trace
from . import native
from .functional import ActivityCounters
from .plan import (
    ComputeStep,
    ExecutionPlan,
    MoveStep,
    contiguous_slice,
    gc_paused,
)

#: Kernel opcodes: add and mul align with
#: :data:`repro.compiler.arrays.OP_CODES`; a load row ``(3, slot, 0,
#: out_cell)`` copies input column ``slot`` into ``out_cell``.
FUSED_ADD = 1
FUSED_MUL = 2
FUSED_LOAD = 3

_UFUNCS = {FUSED_ADD: np.add, FUSED_MUL: np.multiply}

_ID = np.int64

#: Version tag of the fused-plan layout: seeds the content fingerprint
#: and the artifact-cache key (``repro.runner.fingerprint.fused_key``),
#: so a cache written by an older lowering is never served.
FUSED_LAYOUT = "fused-v6"


@dataclass(frozen=True)
class FusedPlan:
    """An :class:`~repro.sim.plan.ExecutionPlan` fused into super-ops.

    Attributes:
        config / source_name / num_instructions / num_inputs: Carried
            over from the source plan (same program identity).
        state_size: Cells of the fused per-row state: the pinned zero
            cells followed by the load and result cells, which are
            reused by liveness (about the peak live width).
        num_ops: Fused arithmetic ops (``ops`` also holds the loads).
        zero_pos: Fused cells that must read as ``0.0`` (original
            zero-initialized cells that are read but never written and
            are not inputs; empty for verified programs).  They are
            the prefix ``[0, zero_pos.size)`` of the state.
        ops: The schedule: a flat int64 table of ``(opcode, a, b,
            out_cell)`` rows, level-major and opcode-minor.  An add or
            mul reads cells ``a`` and ``b``; a load (:data:`FUSED_LOAD`)
            copies column ``a`` of the input matrix, once per input
            that an op or an output reads, one level before its first
            reader (level 0 if only an output reads it).  The native
            kernel (:mod:`repro.sim.native`) runs it one row at a
            time; the numpy sweep binds its program from it.
        level_bounds: int64 row offsets of the dependence levels:
            level ``i`` is rows ``[level_bounds[i], level_bounds[i +
            1])`` of ``ops``.  No level reads a cell it writes, and a
            level's results and loads are one contiguous block of
            cells.
        output_vars / output_cells: Parallel output arrays; output
            cells are never reused, so they hold their values after
            the sweep.
        counters / peak_occupancy: The source plan's analytic activity
            model — fusion changes host execution, not the machine
            being modeled, so they are carried over unchanged.
        fingerprint: Content digest of the fused form, seeded with
            :data:`FUSED_LAYOUT`.
    """

    config: object
    source_name: str
    num_instructions: int
    num_inputs: int
    state_size: int
    num_ops: int
    zero_pos: np.ndarray
    ops: np.ndarray
    level_bounds: np.ndarray
    output_vars: tuple[int, ...]
    output_cells: np.ndarray
    counters: ActivityCounters
    peak_occupancy: list[int]
    fingerprint: str

    @property
    def cycles_per_row(self) -> int:
        """Device cycles one batch row costs (identical to the source
        plan — fusion is a host-side transformation)."""
        return self.counters.cycles

    def scaled_counters(self, batch: int) -> ActivityCounters:
        """Activity totals for a batch of ``batch`` rows."""
        return self.counters.scaled(batch)

    @property
    def num_levels(self) -> int:
        """Dependence depth of the fused op graph."""
        return self.level_bounds.size - 1

    def make_state(self, batch: int) -> np.ndarray:
        """Fresh C-contiguous ``(state_size, batch)`` state, zero cells
        pinned, its first element 64-byte (cache-line) aligned.

        The native sweep runs up to 2x slower on a state that starts
        16 bytes past a 32-byte boundary, and the allocator hands such
        addresses out at random, so the state is a view placed at the
        first aligned element of a slightly larger buffer.
        Deliberately *not* zero-filled: within a run every other cell
        is written before it is read (inputs by their load, result
        cells by their op).
        """
        size = self.state_size * batch
        buf = np.empty(size + 8, dtype=np.float64)
        lead = -buf.ctypes.data % 64 // 8
        state = buf[lead : lead + size].reshape(self.state_size, batch)
        if self.zero_pos.size:
            state[self.zero_pos] = 0.0
        return state


def fuse_plan(plan: ExecutionPlan) -> FusedPlan:
    """Fuse a verified plan into a level-major op table.

    Pure lowering: no hazard or interconnect checks happen here (the
    source plan already carries them), and no data is touched — the
    tape is replayed over value *ids* only.  It makes no reference
    cycles, so it runs with the cyclic GC paused (:func:`gc_paused`).
    """
    with trace.span(
        "plan.fuse",
        "engine",
        workload=plan.source_name,
        steps=len(plan.steps),
    ), gc_paused():
        return _fuse_plan(plan)


def _fuse_plan(plan: ExecutionPlan) -> FusedPlan:
    base = plan.state_size
    n_ops = 0
    for step in plan.steps:
        if type(step) is ComputeStep:
            n_ops += step.add_out.size + step.mul_out.size

    # Pass 1 — single-assignment renaming.  version[cell] is the value
    # id the cell currently holds; ids < base are the original cells'
    # initial values (inputs are loaded into some of them, the rest
    # read the zero initialization), ids >= base are arithmetic results
    # in emission order.  Moves and PASS bypasses only permute the table;
    # each add/mul mints a fresh id at level 1 + max(operand levels).
    version = np.arange(base, dtype=_ID)
    def_level = np.zeros(base + n_ops, dtype=np.int32)
    kind = np.empty(n_ops, dtype=np.int8)
    lvl = np.empty(n_ops, dtype=np.int32)
    a_ids = np.empty(n_ops, dtype=_ID)
    b_ids = np.empty(n_ops, dtype=_ID)
    cursor = 0
    for step in plan.steps:
        if type(step) is MoveStep:
            version[step.dst] = version[step.src]
            continue
        # All groups of one ComputeStep read pre-step state (a layer
        # never feeds itself), so snapshot operand ids before writing.
        mov_src_v = version[step.mov_src]
        groups = []
        for code, out, op_a, op_b in (
            (FUSED_ADD, step.add_out, step.add_a, step.add_b),
            (FUSED_MUL, step.mul_out, step.mul_a, step.mul_b),
        ):
            if out.size:
                groups.append((code, out, version[op_a], version[op_b]))
        if step.mov_out.size:
            version[step.mov_out] = mov_src_v
        for code, out, av, bv in groups:
            k = out.size
            ids = np.arange(base + cursor, base + cursor + k, dtype=_ID)
            levels = np.maximum(def_level[av], def_level[bv]) + 1
            def_level[ids] = levels
            kind[cursor : cursor + k] = code
            lvl[cursor : cursor + k] = levels
            a_ids[cursor : cursor + k] = av
            b_ids[cursor : cursor + k] = bv
            version[out] = ids
            cursor += k
    if cursor != n_ops:  # pragma: no cover - internal invariant
        raise SimulationError(
            f"fusion op count drifted: emitted {cursor}, counted {n_ops}"
        )

    out_ids = version[plan.output_cells]

    # Pass 2 — loads and the value space.  An original cell survives
    # only if an op or an output reads its *initial* value.  An input
    # cell becomes a load row one level before its first reader (level
    # 0 if only an output reads it); any other such cell reads the zero
    # initialization and keeps a pinned cell in the base prefix.  The
    # rows — ops in emission order, then loads by slot — are permuted
    # level-major, opcode-minor (loads last), stably, so every level's
    # results and loads form one contiguous range of ids.
    unread = np.iinfo(np.int32).max
    read = np.zeros(base, dtype=bool)
    first = np.full(base, unread, dtype=np.int32)
    for ids in (a_ids, b_ids):
        below = ids < base
        read[ids[below]] = True
        np.minimum.at(first, ids[below], lvl[below])
    read[out_ids[out_ids < base]] = True
    by_slot = np.argsort(plan.input_slots, kind="stable")
    in_cells = plan.input_cells[by_slot].astype(np.intp)
    keep = read[in_cells]
    load_cells = in_cells[keep]
    load_slots = plan.input_slots[by_slot][keep].astype(_ID)
    read[load_cells] = False
    zero_cells = np.flatnonzero(read)
    n_base = int(zero_cells.size)
    n_loads = int(load_cells.size)
    n_rows = n_ops + n_loads

    kind_all = np.concatenate((kind, np.full(n_loads, FUSED_LOAD, np.int8)))
    reader = first[load_cells]
    lvl_all = np.concatenate((lvl, np.where(reader == unread, 0, reader - 1)))
    order = np.lexsort((kind_all, lvl_all))
    rank = np.empty(n_rows, dtype=_ID)
    rank[order] = np.arange(n_base, n_base + n_rows, dtype=_ID)
    base_pos = np.full(base, -1, dtype=_ID)
    base_pos[zero_cells] = np.arange(n_base, dtype=_ID)
    base_pos[load_cells] = rank[n_ops:]
    id_map = np.concatenate([base_pos, rank[:n_ops]])
    a_new = np.concatenate((id_map[a_ids], load_slots))[order]
    b_new = np.concatenate((id_map[b_ids], np.zeros(n_loads, _ID)))[order]
    kind_s = kind_all[order]
    lvl_s = lvl_all[order]
    arith = kind_s != FUSED_LOAD

    # Pass 3 — liveness compaction.  Map every pass-2 id to a state
    # cell, reusing cells whose value is dead (see _compact_slots), so
    # the state grows with peak live width instead of op count.
    # With no rows there is no level, so no leading bound 0.
    level_bounds = np.concatenate(
        (
            np.zeros(min(n_rows, 1), dtype=_ID),
            np.flatnonzero(np.diff(lvl_s)) + 1,
            [n_rows],
        )
    )
    out_new = id_map[out_ids]
    zero_pos = np.arange(n_base, dtype=_ID)
    reader_rows = np.flatnonzero(arith)
    slot, state_size = _compact_slots(
        n_base,
        level_bounds,
        np.concatenate((a_new[arith], b_new[arith])),
        np.concatenate((reader_rows, reader_rows)),
        np.concatenate((out_new, zero_pos)),
    )
    ops = np.column_stack((kind_s, a_new, b_new, slot[n_base:]))
    ops[arith, 1:3] = slot[ops[arith, 1:3]]

    output_cells = slot[out_new]
    fingerprint = _fused_fingerprint(
        state_size, zero_pos, output_cells, ops, level_bounds
    )
    return FusedPlan(
        config=plan.config,
        source_name=plan.source_name,
        num_instructions=plan.num_instructions,
        num_inputs=plan.num_inputs,
        state_size=state_size,
        num_ops=n_ops,
        zero_pos=zero_pos,
        ops=ops,
        level_bounds=level_bounds,
        output_vars=plan.output_vars,
        output_cells=output_cells,
        counters=plan.counters,
        peak_occupancy=list(plan.peak_occupancy),
        fingerprint=fingerprint,
    )


def _compact_slots(
    n_base: int,
    level_bounds: np.ndarray,
    read_ids: np.ndarray,
    read_rows: np.ndarray,
    pinned: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Pass 3 of the lowering: give every pass-2 id a state cell.

    Pass-2 ids are the base prefix ``[0, n_base)`` followed by the
    rows (ops and loads) in level-major order, so level ``li``'s
    results are ids ``n_base + [level_bounds[li], level_bounds[li +
    1])``; row ``read_rows[k]`` reads id ``read_ids[k]``.  Base cells,
    the pinned zero cells, keep their position.  Each level's results
    get one contiguous block of cells, first fit from the free pool,
    growing the top of the state only when no free run is wide
    enough.  A cell returns to the pool after the last level that
    reads it — never during it, so a level's results cannot overlap an
    operand the level still reads; a result nobody reads returns after
    its own level.  ``pinned`` cells (outputs and zero cells) never
    return.  Like ``compiler/liveness.py`` for the machine's
    registers, this frees by last use; here the unit of time is a
    level and the pool is kept as a free mask.

    Returns:
        ``(slot, state_size)``: ``slot[id]`` is pass-2 id ``id``'s
        cell, and ``state_size`` the number of cells used.
    """
    n_levels = level_bounds.size - 1
    n_ids = n_base + int(level_bounds[-1])
    op_level = np.repeat(
        np.arange(n_levels, dtype=np.intp), np.diff(level_bounds)
    )
    # last[id]: the level after which the id's cell is free (n_levels:
    # never, as for the base cells).
    last = np.full(n_ids, n_levels, dtype=np.intp)
    last[n_base:] = op_level
    np.maximum.at(last, read_ids, op_level[read_rows])
    last[pinned] = n_levels
    by_death = np.argsort(last, kind="stable")
    deaths = np.searchsorted(
        last[by_death], np.arange(n_levels + 1)
    ).tolist()

    slot = np.empty(n_ids, dtype=_ID)
    slot[:n_base] = np.arange(n_base, dtype=_ID)
    # mask[c + 1] is set while cell c is free; mask[0] stays clear, so
    # every free run has a rising edge and mask[top + 1] a falling one.
    mask = np.zeros(n_ids + 2, dtype=bool)
    free = mask[1:]
    n_free = 0
    top = n_base
    for li, (lo, hi) in enumerate(itertools.pairwise(level_bounds.tolist())):
        width = hi - lo
        start = top
        if n_free:
            window = mask[: top + 2]
            edges = (window[1:] != window[:-1]).nonzero()[0]
            starts, stops = edges[0::2], edges[1::2]
            fit = (stops - starts >= width).nonzero()[0]
            if fit.size:
                start = int(starts[fit[0]])
            elif stops[-1] == top:
                start = int(starts[-1])  # extend the free tail
            n_free -= min(start + width, top) - start
        free[start : start + width] = False
        top = max(top, start + width)
        slot[n_base + lo : n_base + hi] = np.arange(
            start, start + width, dtype=_ID
        )
        dead = by_death[deaths[li] : deaths[li + 1]]
        free[slot[dead]] = True
        n_free += deaths[li + 1] - deaths[li]
    return slot, top


def _fused_fingerprint(state_size: int, *arrays: np.ndarray) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(FUSED_LAYOUT.encode())
    h.update(int(state_size).to_bytes(8, "little"))
    for arr in arrays:
        h.update(b"%d;" % arr.size)
        h.update(np.ascontiguousarray(arr, dtype=_ID).tobytes())
    return h.hexdigest()


def bind_sweep(
    fused: FusedPlan, batch: int
) -> tuple[np.ndarray, Callable[[np.ndarray], None]]:
    """Bind a reusable ``(state, sweep)`` pair for one batch width.

    Allocates the state and returns ``sweep(matrix)``, which runs the
    whole schedule over it, loading the inputs straight from the
    ``(batch, inputs)`` float64 ``matrix``.  With the native kernel
    (:func:`repro.sim.native.load`) the sweep is one pre-bound C call
    running :attr:`FusedPlan.ops`; without a working C compiler it is
    the numpy sweep (:func:`_bind_numpy`).  The pair is safe to reuse
    across runs: within a run every cell is written before it is read,
    and the pinned zero cells are never written at all.
    """
    state = fused.make_state(batch)
    kernel = native.load()
    if kernel is not None:
        return state, kernel.bind_sweep(fused.ops, state)
    return state, _bind_numpy(fused, state)


#: Stands for the caller's input matrix, transposed to ``(inputs,
#: B)``, as the source of a numpy program's load calls.
_MATRIX = "matrix"

#: The numpy sweep's gather and load: the method, not ``np.take``,
#: whose Python-level dispatch costs more than a small take itself.
_TAKE = np.ndarray.take


def _bind_numpy(
    fused: FusedPlan, state: np.ndarray
) -> Callable[[np.ndarray], None]:
    """The numpy sweep over ``state``: :func:`_numpy_program`'s calls,
    run in order, its loads reading the matrix passed in."""
    prog = _numpy_program(fused, state)
    batch = state.shape[1]
    cols = fused.num_inputs

    def sweep(matrix: np.ndarray, _prog: list = prog) -> None:
        # Rows of the transposed matrix are the loads' sources; take
        # copies a source that is not C-contiguous on every call, so
        # transpose it once per sweep instead.
        inputs = native.check_matrix(matrix, batch, cols).T.copy()
        # Scalar Python floats overflow to inf silently; match that
        # instead of spraying RuntimeWarnings over deep product chains.
        with np.errstate(over="ignore", invalid="ignore"):
            for f, args in _prog:
                if args[0] is _MATRIX:
                    f(inputs, *args[1:])
                else:
                    f(*args)

    return sweep


def _numpy_program(
    fused: FusedPlan, state: np.ndarray
) -> list[tuple[Callable, tuple]]:
    """The numpy sweep's calls, derived from :attr:`FusedPlan.ops`: per
    level, at most one gather, then one ufunc per run of one opcode,
    then one take for the run of loads.

    A run's operand whose cells are consecutive is read as a view of
    the state; the level's other operands are gathered by one
    take into a scratch block (``mode="clip"`` skips the bounds
    check the lowering already proved).  Every level gathers into the
    *same* scratch prefix: the serial reuse keeps the block cache-hot
    across the sweep, where per-level blocks would all be cold by the
    time their level comes around again.  A level's loads take their
    slots from the transposed input matrix (:data:`_MATRIX` in the
    call) straight into their block of cells; the sweep checks the
    matrix's shape before any call.  All views are computed here, so
    the hot path is nothing but pre-bound numpy dispatches.
    """
    ops = fused.ops
    # Pass 1: per level, the cells it gathers and its runs, each
    # operand a (gathered, lo, hi) row range of the scratch (gathered)
    # or of the state; a run of loads keeps its slots instead.
    levels = []
    for lo, hi in itertools.pairwise(fused.level_bounds.tolist()):
        cuts = (np.flatnonzero(np.diff(ops[lo:hi, 0])) + lo + 1).tolist()
        gather: list[np.ndarray] = []
        n_gathered = 0
        runs = []
        for run_lo, run_hi in itertools.pairwise([lo, *cuts, hi]):
            code = int(ops[run_lo, 0])
            out = int(ops[run_lo, 3])
            if code == FUSED_LOAD:
                slots = ops[run_lo:run_hi, 1].copy()
                runs.append((code, slots, out, out + run_hi - run_lo))
                continue
            operands = []
            for cells in (ops[run_lo:run_hi, 1], ops[run_lo:run_hi, 2]):
                seg = contiguous_slice(cells)
                if seg is not None:
                    operands.append((False, *seg))
                    continue
                gather.append(cells)
                operands.append((True, n_gathered, n_gathered + cells.size))
                n_gathered += cells.size
            runs.append((code, operands, out, out + run_hi - run_lo))
        levels.append((np.concatenate(gather) if gather else None, runs))

    # Pass 2: bind the views, now that the scratch's size is known.
    batch = state.shape[1]
    flat = state.reshape(-1)
    scratch = np.empty(
        (max((g.size for g, _ in levels if g is not None), default=0), batch),
        dtype=np.float64,
    )
    sflat = scratch.reshape(-1)
    prog: list[tuple[Callable, tuple]] = []
    for gather, runs in levels:
        if gather is not None:
            prog.append(
                (_TAKE, (state, gather, 0, scratch[: gather.size], "clip"))
            )
        for code, operands, out_lo, out_hi in runs:
            if code == FUSED_LOAD:
                block = state[out_lo:out_hi]
                prog.append((_TAKE, (_MATRIX, operands, 0, block, "clip")))
                continue
            views = [
                (sflat if gathered else flat)[lo * batch : hi * batch]
                for gathered, lo, hi in operands
            ]
            prog.append(
                (
                    _UFUNCS[code],
                    (*views, flat[out_lo * batch : out_hi * batch]),
                )
            )
    return prog
