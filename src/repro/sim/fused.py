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
(:mod:`repro.sim.batch`) runs — built on four observations:

1. **Moves are renames.**  The tape's data movement (copies, loads,
   stores, exec write-backs, PASS_A/PASS_B bypasses) never computes
   anything, so under a single-assignment renaming every moved value
   is just a new name for an existing value.  Fusion replays the tape
   symbolically, tracking the *value id* currently held by every state
   cell; moves update the tracking table and vanish from execution.

2. **Ops order by dependence level.**  With moves gone, only true RAW
   dependences remain (every op defines a fresh id, so WAW/WAR hazards
   cannot exist).  Each arithmetic op's level is ``1 + max(level of
   operands)``, and the schedule runs level by level, opcode-minor.

3. **Single-use results stay in registers.**  Most results are read
   exactly once.  As a DPU-v2 PE tree passes a value from one layer to
   the next without the register file (§III), an add or mul read once,
   by an add or mul, and not an output *folds* into its reader: the
   two become one row ``(a op1 b) op2 c`` whose intermediate never
   reaches the state.  The folded value keeps the side it was read
   from, so each IEEE operation sees the same operands in the same
   order.  A folded row is the host's version of a two-layer PE tree.

4. **The machine state can be left behind.**  The only original
   cells the fused engine ever *reads* are the inputs (anything else
   reads the zero initialization, which gets one pinned zero cell).
   As DPU-v2 loads a value from data memory into a register bank only
   when a PE tree needs it (§IV), every input that is read becomes a
   *load* row of the schedule, placed one level before its first
   reader, so a deep plan keeps a handful of inputs live instead of
   all of them.  Then, as the DPU-v2 compiler reuses a register as
   soon as its value is dead, cells are reused by last use: in row
   order each row takes a free cell, and a cell is freed after the
   last row that reads it, so the fused state is the peak number of
   live values — for real workloads a fraction of the register-file
   + data-memory + scratch image a direct tape interpreter carries per
   batch row.  Within a run, every cell is written before it is read:
   inputs by their load, results by their row.

The schedule is one flat table, :attr:`FusedPlan.ops`: ``(opcode, a,
b, c, out_cell)`` rows in level-major order, with
:attr:`FusedPlan.level_bounds` marking where each dependence level
starts.  The native kernel (:mod:`repro.sim.native`) runs the table in
one fixed C loop: no per-level or per-kernel dispatch at all.  A
working C compiler (``cc`` on ``PATH``) is required; there is no
second sweep.

The sweep is **bound** once per batch width (:func:`bind_sweep`): the
state buffer is allocated, tile-major (:meth:`FusedPlan.tile_width`
sets the tile) and 64-byte aligned, and the kernel's pointers
are computed up front and reused across runs, so the per-run hot path
is one C call that reads the caller's input matrix directly — no
allocation, no slice construction, no index arithmetic.  Reusing the
state is safe because within a run every cell is written before it is
read (observation 4), so stale values from the previous batch are
never observed.

Everything here is bitwise-exact: the kernel performs the same
IEEE-double adds and muls on the same operands, only regrouping
*independent* lanes and keeping folded intermediates in registers
(built without FMA contraction), so fused outputs are asserted
bit-identical to a direct interpretation of the step tape
(:func:`repro.verify.differential.interpret_plan`) by the differential
fuzzer, and to the scalar simulator by the property-based suite.  One
case is outside that guarantee: an add or mul whose two operands are
NaNs with *different* payloads.  IEEE 754 leaves the result's payload
open, and Python floats, numpy and C pick differently, so the engines
agree bitwise only while at most one NaN payload is in play.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..obs import trace
from . import native
from .functional import ActivityCounters
from .plan import ComputeStep, ExecutionPlan, MoveStep, gc_paused

#: Kernel opcodes: add and mul align with
#: :data:`repro.compiler.arrays.OP_CODES`; a load row ``(3, slot, 0,
#: 0, out_cell)`` copies input column ``slot`` into ``out_cell``.
FUSED_ADD = 1
FUSED_MUL = 2
FUSED_LOAD = 3
#: Folded rows ``(a op1 b) op2 c`` take opcodes ``FUSED_FOLD * op1 +
#: 2 * (op2 - 1) + side`` (4 to 11), with ``op1``/``op2`` add or mul
#: and ``side`` 1 when the folded value is ``op2``'s right operand,
#: ``c op2 (a op1 b)``.
FUSED_FOLD = 4

_ID = np.int64

#: Version tag of the fused-plan layout: seeds the content fingerprint
#: and the artifact-cache key (``repro.runner.fingerprint.fused_key``),
#: so a cache written by an older lowering is never served.
FUSED_LAYOUT = "fused-v7"

#: The load-row share of the op table from which a sweep of at least
#: two tiles is tiled.  Measured shares (D3-B64-R32): the Table-I
#: ``sptrsv`` plans at scale 0.05 0.48-0.55, ``deep2000`` 0.67 and
#: ``near_chain2000`` 0.61, against at most 0.025 for every Table-I
#: ``pc`` plan and 0.006 for ``synth_xl_layered_50k``, so a quarter
#: sits well clear of both.
TILE_LOAD_SHARE = 0.25


@dataclass(frozen=True)
class FusedPlan:
    """An :class:`~repro.sim.plan.ExecutionPlan` fused into super-ops.

    Attributes:
        config / source_name / num_instructions / num_inputs: Carried
            over from the source plan (same program identity).
        state_size: Cells of the fused per-row state: the pinned zero
            cells followed by the load and result cells, which are
            reused by last use (the peak number of live values).
        num_ops: Arithmetic ops of the source plan; a folded row
            holds two of them, and ``ops`` also holds the loads.
        zero_pos: Fused cells that must read as ``0.0`` (original
            zero-initialized cells that are read but never written and
            are not inputs; empty for verified programs).  They are
            the prefix ``[0, zero_pos.size)`` of the state.
        ops: The schedule: a flat int64 table of ``(opcode, a, b, c,
            out_cell)`` rows, level-major and opcode-minor.  An add or
            mul reads cells ``a`` and ``b`` (``c`` is 0); a folded row
            (:data:`FUSED_FOLD`) computes ``(a op1 b) op2 c`` or ``c
            op2 (a op1 b)``; a load (:data:`FUSED_LOAD`) copies column
            ``a`` of the input matrix, once per input that a row or
            an output reads, one level before its first reader (level
            0 if only an output reads it).  No row's ``out_cell`` is
            one of its own operand cells.  The native kernel
            (:mod:`repro.sim.native`) runs it one row at a time.
        level_bounds: int64 row offsets of the dependence levels:
            level ``i`` is rows ``[level_bounds[i], level_bounds[i +
            1])`` of ``ops``; a level whose ops all folded into later
            rows is empty.
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

    def tile_width(self, batch: int) -> int:
        """Lanes per tile of this plan's sweep of ``batch`` rows: the
        one place the tiling rule (:mod:`repro.sim.native`) is decided.

        A load row walks one column of the caller's ``(batch, inputs)``
        matrix, one matrix row per lane, so a 256-row walk of a wide
        matrix touches a page per lane.  When at least
        :data:`TILE_LOAD_SHARE` of the table's rows are loads and the
        batch fills at least two tiles of
        :data:`~repro.sim.native.TILE` rows, the sweep runs the whole
        table over one tile before the next, and each walk stays within
        a tile's rows.  Otherwise the sweep is one tile of ``batch``
        rows: every row is dispatched once per tile, which costs more
        than tiling saves when loads are few or the walks short (33-48
        rows of ``deep2000`` or ``near_chain2000`` swept 10-18% slower
        tiled; at 64 rows the two are even, at 128 tiling saves a
        third).
        """
        rows = self.ops.shape[0]
        loads = np.count_nonzero(self.ops[:, 0] == FUSED_LOAD)
        if batch >= 2 * native.TILE and loads >= TILE_LOAD_SHARE * rows:
            return native.TILE
        return batch

    def make_state(self, batch: int) -> np.ndarray:
        """Fresh C-contiguous tile-major ``(tiles, state_size, width)``
        state for a sweep of ``batch`` rows, zero cells pinned in every
        tile, every tile's first cell 64-byte (cache-line) aligned.

        ``width`` is :meth:`tile_width`; the last tile may cover fewer
        than ``width`` rows.  An untiled sweep (fewer than 64 rows, or
        a plan whose rows are less than a quarter loads) has one tile
        of ``batch`` lanes, the ``(state_size, batch)`` layout.  A
        tiled one has tiles of :data:`~repro.sim.native.TILE` rows, so
        each load walks 32 rows of the input matrix, not ``batch``: at
        batch 256 the bound sweep of ``bp_200`` 155 → 101 µs, of
        ``sieber`` 2.12 → 1.12 ms, but of the load-light ``tretail`` it
        would be 72 → 88 µs.  Each tile's cells are contiguous, 256
        bytes per cell, so every tile starts aligned when the first one
        does.  The native sweep runs up to 2x slower on a state that
        starts 16 bytes past a 32-byte boundary, and the allocator hands
        such addresses out at random, so the state is a view placed at
        the first aligned element of a slightly larger buffer.
        Deliberately *not* zero-filled: within a run every other cell
        is written before it is read (inputs by their load, result cells
        by their op).
        """
        width = self.tile_width(batch)
        shape = (-(-batch // width), self.state_size, width)
        size = shape[0] * self.state_size * width
        buf = np.empty(size + 8, dtype=np.float64)
        lead = -buf.ctypes.data % 64 // 8
        state = buf[lead : lead + size].reshape(shape)
        if self.zero_pos.size:
            state[:, self.zero_pos] = 0.0
        return state

    def read_outputs(self, state: np.ndarray, batch: int) -> np.ndarray:
        """The output cells of a swept :meth:`make_state` state, in
        :attr:`output_vars` order, as the ``batch``-long rows of one
        copied block: ``(n_out, batch)`` untiled, ``(n_out, tiles *
        width)`` cut to ``batch`` columns when tiled.  They keep their
        values when the state is swept again."""
        if state.shape[0] == 1:
            # ``take`` on the 2-D view is the cheapest copy for the
            # serving path's small untiled batches.
            return state[0].take(self.output_cells, axis=0)
        return (
            state.transpose(1, 0, 2)[self.output_cells]
            .reshape(self.output_cells.size, -1)[:, :batch]
        )


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

    # Pass 2 — tree folding (see _fold_pairs).  A folded reader's row
    # reads its child's operands in a and b and its own other operand
    # in c; every other row's c repeats its a, so the passes below need
    # no special case, and is zeroed in the final table.
    par, side, child = _fold_pairs(a_ids, b_ids, out_ids, base)
    code = kind.astype(_ID)
    code[par] = FUSED_FOLD * code[child] + 2 * (code[par] - 1) + side
    c_ids = a_ids.copy()
    c_ids[par] = np.where(side, a_ids[par], b_ids[par])
    a_ids[par], b_ids[par] = a_ids[child], b_ids[child]
    kept = np.delete(np.arange(n_ops), child)
    code, lvl, a_ids, b_ids, c_ids = (
        arr[kept] for arr in (code, lvl, a_ids, b_ids, c_ids)
    )
    n_kept = int(kept.size)

    # Pass 3 — loads and the value space.  An original cell survives
    # only if a row or an output reads its *initial* value.  An input
    # cell becomes a load row one level before its first reader (level
    # 0 if only an output reads it); any other such cell reads the zero
    # initialization and keeps a pinned cell in the base prefix.  The
    # rows — ops in emission order, then loads by slot — are permuted
    # level-major, opcode-minor, stably.  Pass-3 ids are the zero cells,
    # then one id per row in that order; the table holds them (the
    # out column its own row's id) until pass 4 maps ids to cells.
    unread = np.iinfo(np.int32).max
    read = np.zeros(base, dtype=bool)
    first = np.full(base, unread, dtype=np.int32)
    for ids in (a_ids, b_ids, c_ids):
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
    n_rows = n_kept + n_loads

    kind_all = np.concatenate((code, np.full(n_loads, FUSED_LOAD, _ID)))
    reader = first[load_cells]
    lvl_all = np.concatenate((lvl, np.where(reader == unread, 0, reader - 1)))
    order = np.lexsort((kind_all, lvl_all))
    rank = np.empty(n_rows, dtype=_ID)
    rank[order] = np.arange(n_base, n_base + n_rows, dtype=_ID)
    id_map = np.full(base + n_ops, -1, dtype=_ID)
    id_map[zero_cells] = np.arange(n_base, dtype=_ID)
    id_map[load_cells] = rank[n_kept:]
    id_map[base + kept] = rank[:n_kept]
    zeros = np.zeros(n_loads, _ID)
    ops = np.column_stack(
        (
            kind_all,
            np.concatenate((id_map[a_ids], load_slots)),
            np.concatenate((id_map[b_ids], zeros)),
            np.concatenate((id_map[c_ids], zeros)),
            rank,
        )
    )[order]
    lvl_s = lvl_all[order]
    arith = ops[:, 0] != FUSED_LOAD

    # Pass 4 — cells.  Give every pass-3 id a state cell (see
    # _allocate_cells), so the state grows with the peak number of
    # live values instead of the row count.  Level i is rows
    # [level_bounds[i], level_bounds[i + 1]); folding can leave a level
    # empty, and the plan keeps its dependence depth.
    level_bounds = np.searchsorted(
        lvl_s, np.arange(int(lvl_s.max(initial=-1)) + 2)
    ).astype(_ID)
    out_new = id_map[out_ids]
    zero_pos = np.arange(n_base, dtype=_ID)
    reader_rows = np.flatnonzero(arith)
    slot, state_size = _allocate_cells(
        n_base,
        n_rows,
        ops[arith, 1:4].T.ravel(),
        np.tile(reader_rows, 3),
        out_new,
    )
    ops[:, 4] = slot[ops[:, 4]]
    ops[arith, 1:4] = slot[ops[arith, 1:4]]
    ops[ops[:, 0] < FUSED_FOLD, 3] = 0

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


def _fold_pairs(
    a_ids: np.ndarray,
    b_ids: np.ndarray,
    out_ids: np.ndarray,
    base: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pass 2 of the lowering: the (reader, side, child) folds.

    Op ``k`` defines id ``base + k`` and reads ids ``a_ids[k]`` and
    ``b_ids[k]``.  An op whose result is read exactly once (by one
    operand of one op) and is not an output is a *child*: its reader
    can compute it in a register, as a PE tree passes a value from one
    layer to the next without the register file (§III).  A row holds
    at most one fold, so an op that folds a child is not folded
    itself, and a reader folds at most one child: its first (``a``
    side first) that folded nothing.  Emission order puts every child
    before its reader, so one pass in that order settles which ops
    fold, and a chain of single-use ops folds every other link.

    Returns:
        ``(reader, side, child)`` op indices, ascending by reader;
        ``side`` is 1 when the child is the reader's ``b`` operand.
    """
    n_ops = a_ids.size
    reads = np.bincount(
        np.concatenate((a_ids, b_ids)), minlength=base + n_ops
    )[base:]
    once = reads == 1
    once[out_ids[out_ids >= base] - base] = False
    # Flat operand 2k + side of op k, as an op index (negative: an
    # original cell, never a child).
    operand = np.column_stack((a_ids, b_ids)).ravel() - base
    cand = np.flatnonzero(operand >= 0)
    cand = cand[once[operand[cand]]]
    child = operand[cand]
    # folded[k]: op k folds a child, i.e. one of its children did not.
    folded = bytearray(n_ops)
    for reader, kid in zip((cand >> 1).tolist(), child.tolist()):
        if not folded[kid]:
            folded[reader] = 1
    # Each folding reader takes its first child that folded nothing.
    picked = cand[~np.frombuffer(folded, dtype=bool)[child]]
    first = np.ones(picked.size, dtype=bool)
    first[1:] = picked[1:] >> 1 != picked[:-1] >> 1
    picked = picked[first]
    return picked >> 1, picked & 1, operand[picked]


def _allocate_cells(
    n_base: int,
    n_rows: int,
    read_ids: np.ndarray,
    read_rows: np.ndarray,
    pinned: np.ndarray,
) -> tuple[np.ndarray, int]:
    """Pass 4 of the lowering: give every pass-3 id a state cell.

    Pass-3 ids are the pinned zero cells ``[0, n_base)``, which keep
    their position, then one id per row: row ``r`` defines id ``n_base
    + r``, and row ``read_rows[k]`` reads id ``read_ids[k]``.  In row
    order, each row takes the free cell that was freed longest ago, or
    a new one at the top when none is free, and a cell is freed after
    the last row that reads its value (after its own row when nobody
    does).  A row takes its cell before its operands' cells are freed,
    so its result never overwrites one of its own operands; ``pinned``
    ids (outputs and zero cells) are never freed.  Like
    ``compiler/liveness.py`` for the machine's registers this frees by
    last use, and since a new cell is opened only when every cell
    holds a live value, ``state_size`` is the zero cells plus the peak
    number of live values.  (Taking the most recently freed cell
    instead measured 15-20% slower sweeps of ``bp_200`` and
    ``near_chain2000``.)

    The pass is vectorized: whether row ``r`` needs a new cell follows
    from the live count, the ``j``-th row that reuses a cell takes the
    ``j``-th freed one, and a reused cell is the one its freed value
    took, found by pointer jumping.

    Returns:
        ``(slot, state_size)``: ``slot[id]`` is pass-3 id ``id``'s
        cell, and ``state_size`` the number of cells used.
    """
    if not n_rows:
        return np.arange(n_base, dtype=_ID), n_base
    rows = np.arange(n_rows, dtype=_ID)
    # last[r]: the row after which row r's cell is free; n_rows: never.
    last = np.arange(-n_base, n_rows, dtype=_ID)
    np.maximum.at(last, read_ids, read_rows)
    last[pinned] = n_rows
    last = last[n_base:]
    dies = np.bincount(last, minlength=n_rows + 1)[:n_rows]
    live = rows + 1 - (np.cumsum(dies) - dies)
    top = np.maximum.accumulate(live)
    reuse = np.flatnonzero(live <= np.concatenate(([0], top[:-1])))
    # ptr[r]: the earlier row whose freed cell row r takes (itself for
    # a new cell); frees are ordered by the row after which they occur.
    ptr = rows.copy()
    ptr[reuse] = np.argsort(last, kind="stable")[: reuse.size]
    while True:
        nxt = ptr[ptr]
        if np.array_equal(nxt, ptr):
            break
        ptr = nxt
    slot = np.concatenate(
        (np.arange(n_base, dtype=_ID), n_base + live[ptr] - 1)
    )
    return slot, n_base + int(top[-1])


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
) -> tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], None]]:
    """Bind a reusable ``(state, inputs, sweep)`` triple for one batch
    width.

    Allocates the tile-major state (:meth:`FusedPlan.make_state`) and a
    ``(batch, num_inputs)`` float64 input matrix, and returns
    ``sweep(matrix)``: one native C call
    (:meth:`repro.sim.native.Kernel.bind_sweep`) that runs
    :attr:`FusedPlan.ops` over the state, loading the inputs straight
    from ``matrix``.  ``sweep(inputs)`` uses pointers computed here, so
    a caller that fills ``inputs`` (the serving path) skips the
    per-call matrix checks.  The triple is safe to reuse across runs:
    within a run every cell is written before it is read, and the
    pinned zero cells are never written at all.

    Raises:
        SimulationError: No working C compiler builds the kernel.
    """
    state = fused.make_state(batch)
    inputs = np.empty((batch, fused.num_inputs), dtype=np.float64)
    return state, inputs, native.load().bind_sweep(fused.ops, state, inputs)
