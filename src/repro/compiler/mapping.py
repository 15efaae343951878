"""Step 2 — register-bank mapping (Algorithm 2, §IV-B).

Assigns a register bank to every *io variable* — every value that
crosses a block boundary through the register file: external inputs
and block outputs.  The constraints mirror the paper's:

* F: distinct inputs of one block must land in distinct banks (banks
  have one read port);
* G: distinct outputs of one block must land in distinct banks (one
  write port);
* H: an output's bank must be writable from the PE computing it
  (restricted output interconnect).

The mapper is the paper's greedy: maintain the compatible-bank set
``Sb`` of every unassigned io variable, always map the variable with
the fewest compatible banks next, choose uniformly at random among
compatible banks (objective J: balance), and fall back to the
least-contended bank when none is compatible — which the scheduler
later resolves with ``copy`` instructions (bank conflicts,
objective I).

``Sb`` is one int bitmask per io variable, and the unassigned variables
sit in one set per ``|Sb|``.  Only the minimum bucket is ever popped,
so a bucket gets an ascending list the first time it is the minimum
and ``bisect`` keeps that list in step from then on.  Each pop draws
one ``randrange`` over the minimum bucket (the k-th member in ascending
variable order) and each bank choice one over ``|Sb|`` (the k-th set
bit, from bit 0), so a seed fixes the mapping — and the programs and
goldens built from it.

When an *output* runs out of compatible banks, constraint H cannot be
traded for a copy (the value exists only in the datapath that cycle),
so an augmenting-path repair relocates already-assigned outputs of the
same block.  With the aligned output interconnect a perfect
output->bank matching always exists (every depth-``d`` subtree writes
into its own ``2^d`` banks and hosts at most ``2^d - 1`` outputs), so
the repair provably succeeds.
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass

from ..arch import ArchConfig, Interconnect
from ..errors import MappingError
from .blocks import Decomposition
from .placement import BlockPlacement, place_block, writer_pe

@dataclass
class Mapping:
    """Step-2 result.

    Attributes:
        bank_of: Bank of every io variable.
        write_pe: For block outputs, the PE that writes them.
        placements: Per-block hardware binding.
        predicted_read_conflicts: Variables assigned to a contended
            bank among co-read peers (lower bound on copies).
        repairs: Augmenting-path relocations needed for outputs.
    """

    bank_of: dict[int, int]
    write_pe: dict[int, int]
    placements: list[BlockPlacement]
    predicted_read_conflicts: int
    repairs: int

    def bank_histogram(self, banks: int) -> list[int]:
        """Variables per bank — objective J's balance check."""
        hist = [0] * banks
        for bank in self.bank_of.values():
            hist[bank] += 1
        return hist


def map_banks(
    decomposition: Decomposition,
    interconnect: Interconnect,
    seed: int = 0,
    strategy: str = "conflict_aware",
) -> Mapping:
    """Run step 2 on a decomposition.

    Args:
        strategy: ``"conflict_aware"`` (Algorithm 2) or ``"random"``
            (the fig. 10(b) baseline: uniform over hardware-legal
            banks, no conflict avoidance).
    """
    if strategy not in ("conflict_aware", "random"):
        raise MappingError(f"unknown mapping strategy {strategy!r}")
    rng = random.Random(seed)
    config = decomposition.config

    placements = [place_block(b, config) for b in decomposition.blocks]

    write_pe: dict[int, int] = {}
    writable: dict[int, tuple[int, ...]] = {}
    for block, placement in zip(decomposition.blocks, placements):
        for var in block.output_vars:
            pe = writer_pe(placement, var, config)
            write_pe[var] = pe
            writable[var] = interconnect.banks_writable_from(pe)

    # Mutual-exclusion groups: inputs of a block (constraint F), outputs
    # of a block (constraint G).
    groups: list[list[int]] = []
    var_groups: dict[int, list[int]] = {}
    out_group_of: dict[int, int] = {}
    for block in decomposition.blocks:
        if block.input_vars:
            gid = len(groups)
            groups.append(sorted(block.input_vars))
            for v in block.input_vars:
                var_groups.setdefault(v, []).append(gid)
        if block.output_vars:
            gid = len(groups)
            groups.append(sorted(block.output_vars))
            for v in block.output_vars:
                var_groups.setdefault(v, []).append(gid)
                out_group_of[v] = gid

    io_vars = sorted(var_groups)
    if strategy == "random":
        return _map_random(
            rng, config, io_vars, writable, write_pe, placements,
            out_group_of, groups,
        )

    bank_of, conflicts, repairs = _assign(
        rng, config.banks, io_vars, writable, var_groups, groups,
        out_group_of,
    )
    return Mapping(
        bank_of=bank_of,
        write_pe=write_pe,
        placements=placements,
        predicted_read_conflicts=conflicts,
        repairs=repairs,
    )


def _assign(
    rng: random.Random,
    banks: int,
    io_vars: list[int],
    writable: dict[int, tuple[int, ...]],
    var_groups: dict[int, list[int]],
    groups: list[list[int]],
    out_group_of: dict[int, int],
) -> tuple[dict[int, int], int, int]:
    """Greedy min-|Sb| assignment; returns (bank_of, conflicts, repairs)."""
    # Sb as one bank bitmask per io var, indexed by var id; 0 once
    # assigned, so peer updates skip assigned vars for free.
    sb = [0] * (io_vars[-1] + 1 if io_vars else 0)
    full = (1 << banks) - 1
    for v in io_vars:
        sb[v] = full
    for v, options in writable.items():
        mask = 0
        for b in options:
            mask |= 1 << b
        sb[v] = mask

    # Unassigned vars bucketed by |Sb|.  A bucket gets an ascending
    # list the first time it is the minimum (only the minimum is ever
    # popped), kept in step by bisect from then on.
    buckets: list[set[int]] = [set() for _ in range(banks + 1)]
    for v in io_vars:
        buckets[sb[v].bit_count()].add(v)
    ordered: list[list[int] | None] = [None] * (banks + 1)

    all_banks = frozenset(range(banks))
    bank_of: dict[int, int] = {}
    conflicts = 0
    repairs = 0

    # A pop can lower the minimum |Sb| by at most one (each peer loses
    # at most one bank), so the min-bucket scan resumes near the
    # previous minimum instead of restarting at zero.
    s = 0
    for _ in range(len(io_vars)):
        # --- pop the min-|Sb| variable, k-th in ascending var order ---
        if s > 0:
            s -= 1
        while not buckets[s]:
            s += 1
        bucket = buckets[s]
        members = ordered[s]
        if members is None:
            members = ordered[s] = sorted(bucket)
        v = members.pop(rng.randrange(len(bucket)))
        bucket.discard(v)

        # --- choose its bank: the k-th set bit of Sb -----------------
        if s > 0:
            mask = sb[v]
            for _ in range(rng.randrange(s)):
                mask &= mask - 1
            bank = (mask & -mask).bit_length() - 1
        elif v in writable:
            bank, moved = _repair_output(
                v, writable, bank_of, out_group_of, groups, rng
            )
            repairs += moved
        else:
            bank = _least_contended(
                v, all_banks, var_groups, groups, bank_of, rng
            )
            conflicts += 1
        bank_of[v] = bank
        sb[v] = 0

        # --- peers sharing a group lose this bank --------------------
        bit = 1 << bank
        for gid in var_groups[v]:
            for p in [p for p in groups[gid] if sb[p] & bit]:
                size = sb[p].bit_count()
                sb[p] ^= bit
                buckets[size].discard(p)
                buckets[size - 1].add(p)
                src = ordered[size]
                if src is not None:
                    del src[bisect_left(src, p)]
                dst = ordered[size - 1]
                if dst is not None:
                    insort(dst, p)
    return bank_of, conflicts, repairs


def _rng_choice(rng: random.Random, items) -> int:
    # Sets iterate in hash order which is stable for ints; sorting keeps
    # the choice reproducible across runs and platforms.
    seq = sorted(items)
    return seq[rng.randrange(len(seq))]


def _least_contended(
    v: int,
    candidates,
    var_groups: dict[int, list[int]],
    groups: list[list[int]],
    bank_of: dict[int, int],
    rng: random.Random,
) -> int:
    """Fallback of Algorithm 2 line 24: minimize simultaneous peers."""
    contention = {b: 0 for b in candidates}
    for gid in var_groups[v]:
        for peer in groups[gid]:
            b = bank_of.get(peer)
            if b is not None and b in contention:
                contention[b] += 1
    best = min(contention.values())
    return _rng_choice(rng, [b for b, c in contention.items() if c == best])


def _repair_output(
    v: int,
    writable: dict[int, tuple[int, ...]],
    bank_of: dict[int, int],
    out_group_of: dict[int, int],
    groups: list[list[int]],
    rng: random.Random,
) -> tuple[int, int]:
    """Augmenting-path relocation for a bankless output (constraint H).

    Returns (bank for ``v``, number of relocated peers).
    """
    taken = {bank_of[p]: p for p in groups[out_group_of[v]] if p in bank_of}
    bank, moved = _try_take(v, set(), writable, taken, bank_of)
    if bank is None:
        raise MappingError(
            f"output var {v}: no writable bank even after repair — "
            "output interconnect feasibility violated (compiler bug)"
        )
    return bank, moved


def _try_take(var, visited, writable, taken, bank_of):
    """One augmenting-path step: (bank for ``var`` or None, peers moved).

    Module level: a self-calling closure would be a reference cycle.
    """
    for b in writable[var]:
        if b in visited:
            continue
        visited.add(b)
        if taken.get(b) is None:
            return b, 0
    for b in list(writable[var]):
        owner = taken.get(b)
        if owner is None or owner == var:
            continue
        alt, moved = _try_take(owner, visited, writable, taken, bank_of)
        if alt is not None:
            taken[alt] = owner
            bank_of[owner] = alt
            return b, moved + 1
    return None, 0


def _map_random(
    rng: random.Random,
    config: ArchConfig,
    io_vars: list[int],
    writable: dict[int, tuple[int, ...]],
    write_pe: dict[int, int],
    placements: list[BlockPlacement],
    out_group_of: dict[int, int],
    groups: list[list[int]],
) -> Mapping:
    """fig. 10(b) baseline: uniform banks, hardware-legal for outputs.

    Write conflicts (two outputs of one block on one bank) would be
    unencodable, so the random baseline keeps output banks distinct
    within a block (what the hardware cannot express at all) while
    doing nothing about read conflicts across blocks — the dominant
    effect Algorithm 2 optimizes.
    """
    bank_of: dict[int, int] = {}
    taken_in_group: dict[int, set[int]] = {}
    for v in io_vars:
        if v in writable:
            gid = out_group_of[v]
            taken = taken_in_group.setdefault(gid, set())
            options = [b for b in writable[v] if b not in taken]
            if not options:
                bank, _ = _repair_output(
                    v, writable, bank_of, out_group_of, groups, rng
                )
                # Re-derive the taken set after relocations.
                taken.clear()
                taken.update(
                    bank_of[p] for p in groups[gid] if p in bank_of
                )
            else:
                bank = options[rng.randrange(len(options))]
            bank_of[v] = bank
            taken.add(bank)
        else:
            bank_of[v] = rng.randrange(config.banks)
    return Mapping(
        bank_of=bank_of,
        write_pe=write_pe,
        placements=placements,
        predicted_read_conflicts=-1,
        repairs=0,
    )
