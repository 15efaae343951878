"""Step 4 — register spilling (§IV-D).

After reordering, the schedule is simulated against the automatic
write policy's occupancy semantics (reserve at issue, free at the
flagged last read).  Whenever a write would push a bank past its R
registers, values are spilled to data memory and reloaded before their
next use.

The data memory has a *vector* port (one row = one word per bank,
fig. 5(b)), so spill traffic is batched:

* an eviction stores a whole row in one ``store`` instruction — the
  overflowing bank's farthest-next-use resident plus the farthest
  resident of every other nearly-full bank (pre-empting their imminent
  overflows);
* a reload brings back, in one masked ``load``, every still-spilled
  lane of the row whose bank has headroom — co-evicted values have
  correlated next uses under the farthest-first policy, so row-granular
  reload rarely backfires.

Values are SSA (each variable is written once), so a memory lane stays
valid forever: re-spilling a value whose lane still holds it needs no
store at all — only the register free, which we get by storing it
again only when its lane was never written.

If no bank's peak of live residences (frees counted before writes at
one issue) exceeds R, no write finds its bank full: the simulation is
skipped and the input schedule returned unchanged.

Insertions only ever lengthen producer->consumer gaps, so hazard
freedom from the reorder pass is preserved; the spill store's own read
is guarded by an in-flight check with ``nop`` aging as a last resort.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from ..arch import (
    ArchConfig,
    Instruction,
    LoadInstr,
    NopInstr,
    StoreInstr,
    StoreSlot,
    consumed_vars,
    produced_vars,
    result_latency,
)
from ..errors import SpillError
from .liveness import Residence, analyze_residences, max_live_per_bank


@dataclass
class SpillResult:
    instructions: list[Instruction]
    spills: int  # spilled values
    reloads: int  # reloaded values
    spill_stores: int  # store instructions inserted
    spill_loads: int  # load instructions inserted
    nops_inserted: int
    num_rows: int  # total data-memory rows after spill slots


@dataclass
class _Resident:
    var: int
    valid_from: int  # output position where the value becomes readable
    next_reads: list[int]  # original instruction indices, ascending


class _SpillState:
    """Mutable bookkeeping for one spill pass."""

    def __init__(self, instrs: list[Instruction], config: ArchConfig,
                 next_row: int) -> None:
        self.config = config
        self.capacity = config.regs_per_bank
        self.occupants: list[dict[int, _Resident]] = [
            {} for _ in range(config.banks)
        ]
        self.out: list[Instruction] = []
        self.pending_reloads: dict[int, list[tuple[int, int]]] = {}
        self.row_counter = next_row
        # Spill locations, keyed by residence (bank, var): one
        # variable can live in several banks at once (conflict
        # temporaries), and each residence spills independently.
        self.lane_row: dict[tuple[int, int], int] = {}
        self.row_content: dict[int, dict[int, int]] = {}  # row -> bank->var
        self.spilled: set[tuple[int, int]] = set()
        self.spills = 0
        self.reloads = 0
        self.spill_stores = 0
        self.spill_loads = 0
        self.nops = 0
        self._instrs = instrs

    @cached_property
    def reads_by_key(self) -> dict[tuple[int, int], list[int]]:
        """Read positions per (bank, var), ascending original indices.

        Built on the first reload: a program that never spills never
        needs it.
        """
        reads: dict[tuple[int, int], list[int]] = {}
        for idx, instr in enumerate(self._instrs):
            for key in consumed_vars(instr):
                reads.setdefault(key, []).append(idx)
        return reads

    def reads_after(self, bank: int, var: int, idx: int) -> list[int]:
        reads = self.reads_by_key.get((bank, var), [])
        # ``reads`` is ascending, so the suffix starts at a bisect —
        # the old full scan made reload-heavy programs quadratic.
        return reads[bisect_left(reads, idx) :]

    def has_reads_after(self, bank: int, var: int, idx: int) -> bool:
        reads = self.reads_by_key.get((bank, var), [])
        return bisect_left(reads, idx) < len(reads)


def insert_spills(
    instrs: list[Instruction],
    config: ArchConfig,
    next_row: int,
    residences: list[Residence] | None = None,
) -> SpillResult:
    """Bound every bank's occupancy to R by spilling to data memory.

    Args:
        instrs: Liveness-annotated, reordered schedule.
        next_row: First data-memory row available for spill slots.
        residences: Precomputed residence analysis of ``instrs``
            (liveness flags do not change residence structure, so the
            pipeline reuses the annotation pass's analysis).
    """
    if residences is None:
        residences = analyze_residences(instrs)
    peaks = max_live_per_bank(instrs, config.banks, residences=residences)
    if max(peaks) <= config.regs_per_bank:
        return SpillResult(instrs, spills=0, reloads=0, spill_stores=0,
                           spill_loads=0, nops_inserted=0, num_rows=next_row)
    return _simulate(instrs, config, next_row, residences)


def _simulate(instrs: list[Instruction], config: ArchConfig, next_row: int,
              residences: list[Residence]) -> SpillResult:
    """The occupancy simulation behind :func:`insert_spills`."""
    st = _SpillState(instrs, config, next_row)
    res_of_write: dict[tuple[int, int, int], tuple[int, ...]] = {
        (r.writer, r.bank, r.var): r.reads for r in residences
    }

    for idx, instr in enumerate(instrs):
        reads = consumed_vars(instr)
        read_vars = {var for _, var in reads}
        for bank, var in st.pending_reloads.pop(idx, []):
            if (bank, var) not in st.spilled:
                continue  # already brought back by a row-mate reload
            _emit_reload(st, bank, var, idx, protect=read_vars)

        rst_banks = instr.valid_rst
        for bank, var in reads:
            resident = st.occupants[bank].get(var)
            if resident is None:
                raise SpillError(
                    f"instr {idx} reads var {var} from bank {bank} but it "
                    "is not resident (spill bookkeeping bug)"
                )
            if resident.next_reads and resident.next_reads[0] == idx:
                resident.next_reads.pop(0)
            if bank in rst_banks:
                del st.occupants[bank][var]

        produced = produced_vars(instr)
        protect = read_vars | {var for _, var in produced}
        latency = result_latency(instr, config)
        for bank, var in produced:
            _make_space(st, bank, protect, idx)
        pos = len(st.out)
        for bank, var in produced:
            future = list(res_of_write.get((idx, bank, var), ()))
            st.occupants[bank][var] = _Resident(
                var=var, valid_from=pos + latency, next_reads=future
            )
        st.out.append(instr)

    if st.pending_reloads:
        raise SpillError("reloads scheduled past the end of the program")
    return SpillResult(
        instructions=st.out,
        spills=st.spills,
        reloads=st.reloads,
        spill_stores=st.spill_stores,
        spill_loads=st.spill_loads,
        nops_inserted=st.nops,
        num_rows=st.row_counter,
    )


def _spill_candidates(
    st: _SpillState, bank: int, protect: set[int], pos: int
) -> list[_Resident]:
    return [
        r
        for var, r in st.occupants[bank].items()
        if var not in protect and r.valid_from <= pos and r.next_reads
    ]


def _make_space(st: _SpillState, bank: int, protect: set[int],
                current_idx: int) -> None:
    while len(st.occupants[bank]) >= st.capacity:
        _evict_row(st, bank, protect, current_idx)


def _evict_row(st: _SpillState, trigger_bank: int, protect: set[int],
               current_idx: int) -> None:
    """Spill the trigger bank's worst resident, batching the store with
    the farthest residents of other nearly-full banks (one row)."""
    attempts = 0
    while True:
        pos = len(st.out)
        primary = _spill_candidates(st, trigger_bank, protect, pos)
        if primary:
            break
        attempts += 1
        if attempts > st.config.pipeline_stages + 2:
            raise SpillError(
                f"bank {trigger_bank}: no spillable resident "
                f"(R={st.capacity} too small for this pipeline)"
            )
        st.out.append(NopInstr())  # age in-flight values
        st.nops += 1

    pos = len(st.out)
    victims: list[tuple[int, _Resident]] = [
        (trigger_bank, max(primary, key=lambda r: r.next_reads[0]))
    ]
    near_full = st.capacity - 2
    for bank in range(st.config.banks):
        if bank == trigger_bank:
            continue
        if len(st.occupants[bank]) <= near_full:
            continue
        cands = _spill_candidates(st, bank, protect, pos)
        if cands:
            victims.append((bank, max(cands, key=lambda r: r.next_reads[0])))

    row = st.row_counter
    st.row_counter += 1
    slots: list[StoreSlot] = []
    lanes: dict[int, int] = {}
    for bank, victim in victims:
        var = victim.var
        # Freeing a register requires an architectural event (a read
        # with free_source), so every eviction stores — even if the
        # value already sits in memory from an earlier spill.
        slots.append(StoreSlot(bank=bank, var=var, free_source=True))
        lanes[bank] = var
        st.lane_row[(bank, var)] = row
        st.spilled.add((bank, var))
        st.spills += 1
        del st.occupants[bank][var]
        st.pending_reloads.setdefault(victim.next_reads[0], []).append(
            (bank, var)
        )
    st.row_content[row] = lanes
    st.out.append(
        StoreInstr(
            row=row,
            slots=tuple(sorted(slots, key=lambda s: s.bank)),
        )
    )
    st.spill_stores += 1


def _emit_reload(st: _SpillState, bank: int, var: int, current_idx: int,
                 protect: set[int]) -> None:
    """Masked row reload: the needed var plus row-mates with headroom."""
    row = st.lane_row[(bank, var)]
    dests: list[tuple[int, int]] = []
    _make_space(st, bank, protect | {var}, current_idx)
    dests.append((bank, var))
    for mate_bank, mate_var in st.row_content.get(row, {}).items():
        if (mate_bank == bank and mate_var == var):
            continue
        if (mate_bank, mate_var) not in st.spilled:
            continue
        if st.lane_row.get((mate_bank, mate_var)) != row:
            continue  # residence superseded by a later spill row
        if len(st.occupants[mate_bank]) >= st.capacity - 1:
            continue  # no headroom: bringing it back would thrash
        if not st.has_reads_after(mate_bank, mate_var, current_idx):
            continue
        dests.append((mate_bank, mate_var))

    pos = len(st.out)
    for d_bank, d_var in dests:
        st.spilled.discard((d_bank, d_var))
        st.occupants[d_bank][d_var] = _Resident(
            var=d_var,
            valid_from=pos + 1,
            next_reads=st.reads_after(d_bank, d_var, current_idx),
        )
        st.reloads += 1
    st.out.append(
        LoadInstr(row=row, dests=tuple(sorted(dests)))
    )
    st.spill_loads += 1
