"""Liveness analysis: last-read marking (``valid_rst`` / ``free_source``).

The automatic write policy (§III-B) frees a register when an
instruction's per-bank ``valid_rst`` bit accompanies its last read.
This pass scans the final instruction order, matches every register
read to the *residence* it hits (a residence is one write of a
(bank, var) pair — a variable can have several residences over time:
its primary copy, conflict-resolution temporaries, and post-spill
reloads), and sets the free flag on each residence's last read.

Raises :class:`CompileError` when a read hits no live residence or a
residence is never read — both indicate scheduler bugs, and catching
them here keeps the simulator's error messages meaningful.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from ..arch import (
    CopyInstr,
    ExecInstr,
    Instruction,
    LoadInstr,
    StoreInstr,
    consumed_vars,
    produced_vars,
)
from ..errors import CompileError


@dataclass(frozen=True)
class Residence:
    """One lifetime of a (bank, var) pair in the register file."""

    writer: int  # instruction index that created it
    bank: int
    var: int
    reads: tuple[int, ...]  # instruction indices, ascending


def analyze_residences(instrs: list[Instruction]) -> list[Residence]:
    """Match reads to writes; returns all residences with their reads."""
    live: dict[tuple[int, int], tuple[int, list[int]]] = {}
    done: list[Residence] = []
    live_get = live.get
    done_append = done.append

    for idx, instr in enumerate(instrs):
        for key in consumed_vars(instr):
            entry = live_get(key)
            if entry is None:
                bank, var = key
                raise CompileError(
                    f"instr {idx} ({instr.mnemonic}) reads var {var} from "
                    f"bank {bank} with no live residence"
                )
            entry[1].append(idx)
        for key in produced_vars(instr):
            entry = live_get(key)
            if entry is not None:
                prev_writer, prev_reads = entry
                if not prev_reads:
                    bank, var = key
                    raise CompileError(
                        f"instr {idx} overwrites unread residence of var "
                        f"{var} in bank {bank} (written at {prev_writer})"
                    )
                done_append(
                    Residence(writer=prev_writer, bank=key[0], var=key[1],
                              reads=tuple(prev_reads))
                )
                del live[key]  # reinsert at the end (dict order)
            live[key] = (idx, [])
    for key, (writer, reads) in live.items():
        done_append(
            Residence(writer=writer, bank=key[0], var=key[1],
                      reads=tuple(reads))
        )

    for res in done:
        if not res.reads:
            raise CompileError(
                f"var {res.var} written to bank {res.bank} at instr "
                f"{res.writer} is never read (dead value leaks a register)"
            )
    return done


def annotate_liveness(
    instrs: list[Instruction],
    residences: list[Residence] | None = None,
) -> list[Instruction]:
    """Return a copy of the schedule with free flags set on last reads.

    Args:
        residences: Precomputed :func:`analyze_residences` result for
            ``instrs`` (flag-setting does not change residence
            structure, so the pipeline shares one analysis between
            this pass and spilling).
    """
    if residences is None:
        residences = analyze_residences(instrs)
    # last_read[(instr_idx, bank)] marks that this instruction's read of
    # this bank is the final read of its residence.
    last_read: set[tuple[int, int]] = set()
    for res in residences:
        last_read.add((res.reads[-1], res.bank))

    out: list[Instruction] = []
    for idx, instr in enumerate(instrs):
        # Instructions whose flags are already correct are reused
        # as-is — the replaced copy would compare equal anyway.
        if isinstance(instr, ExecInstr):
            rst = frozenset(
                bank
                for bank, _ in instr.bank_reads
                if (idx, bank) in last_read
            )
            if rst == instr.valid_rst:
                out.append(instr)
            else:
                out.append(dataclasses.replace(instr, valid_rst=rst))
        elif isinstance(instr, CopyInstr):
            if all(
                m.free_source == ((idx, m.src_bank) in last_read)
                for m in instr.moves
            ):
                out.append(instr)
                continue
            moves = tuple(
                dataclasses.replace(
                    m, free_source=(idx, m.src_bank) in last_read
                )
                for m in instr.moves
            )
            out.append(CopyInstr(moves=moves))
        elif isinstance(instr, StoreInstr):
            if all(
                s.free_source == ((idx, s.bank) in last_read)
                for s in instr.slots
            ):
                out.append(instr)
                continue
            slots = tuple(
                dataclasses.replace(
                    s, free_source=(idx, s.bank) in last_read
                )
                for s in instr.slots
            )
            out.append(dataclasses.replace(instr, slots=slots))
        else:
            out.append(instr)
    return out


def max_live_per_bank(
    instrs: list[Instruction], banks: int,
    residences: list[Residence] | None = None,
) -> list[int]:
    """Peak simultaneous residences per bank (pre-spill pressure).

    Counts a residence live from its write to its last read, which is
    exactly the automatic-policy occupancy.  ``residences`` is a
    precomputed :func:`analyze_residences` result for ``instrs``.
    """
    if residences is None:
        residences = analyze_residences(instrs)
    bank = np.array([r.bank for r in residences] * 2, dtype=np.int64)
    time = np.array([r.writer for r in residences]
                    + [r.reads[-1] for r in residences], dtype=np.int64)
    delta = np.repeat([1, -1], len(residences))
    # Per bank, in time order; frees happen at read (issue) before the
    # same instruction's own writes reserve, so frees sort first.  Each
    # bank's events sum to 0, so one running sum serves every bank.
    order = np.lexsort((delta, time, bank))
    peak = np.zeros(banks, dtype=np.int64)
    np.maximum.at(peak, bank[order], np.cumsum(delta[order]))
    return peak.tolist()
