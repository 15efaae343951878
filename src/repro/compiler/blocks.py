"""Step 1 — block decomposition (Algorithm 1, §IV-A).

The binarized DAG is greedily covered with *blocks*: sets of cones that
execute together in one ``exec`` instruction.  The implementation
follows the paper's algorithm in structure and objectives:

* schedulability is tracked incrementally — a node is a candidate sink
  when its uncomputed cone height fits the tree depth (the paper's
  ``Dsch`` set of schedulable subgraphs);
* blocks are filled deepest-cone-first (the paper's
  ``get_largest_subg``), then topped up with smaller cones;
* within a depth class, candidates are taken in depth-first-traversal
  order (the paper's DFS-distance fitness, objective D): consecutive
  picks come from the same DAG region, which keeps inter-block
  dependencies short;
* constraint A (acyclic block graph) holds by construction because a
  cone's leaves are always values computed by *earlier* blocks.

Deviation from the paper (documented in DESIGN.md): cone instances are
placed at canonical positions within their slot (no left/right
orientation search).  With the paper's selected output interconnect
(one PE per layer per bank, aligned to the port numbering) the bank
sets reachable from a cone are invariant under orientation swaps, so
the freedom only relabels equivalent choices; dropping it keeps the
mapper (Algorithm 2) exact where it matters — bank selection.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..arch import ArchConfig
from ..errors import CompileError
from ..graphs import DAG, OpType
from .arrays import DagArrays
from .combos import Slot, SlotAllocator
from .cones import Cone, unroll_cone


@dataclass(frozen=True)
class PlacedCone:
    """A cone bound to a concrete subtree slot."""

    cone: Cone
    slot: Slot


@dataclass
class Block:
    """One exec instruction's worth of computation.

    Attributes:
        id: Sequence number; block ``i`` only depends on blocks ``< i``.
        placed: The cones and their slots.
        nodes: All DAG nodes computed by this block.
        input_vars: Distinct precomputed variables the block reads.
        output_vars: Nodes whose value must be written to the register
            file (consumed by later blocks, or DAG outputs).
    """

    id: int
    placed: list[PlacedCone]
    nodes: set[int] = field(default_factory=set)
    input_vars: set[int] = field(default_factory=set)
    output_vars: set[int] = field(default_factory=set)

    @property
    def num_instances(self) -> int:
        return sum(p.cone.num_instances for p in self.placed)


@dataclass
class Decomposition:
    """Step-1 result."""

    blocks: list[Block]
    dag: DAG
    config: ArchConfig

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def mean_nodes_per_block(self) -> float:
        if not self.blocks:
            return 0.0
        return sum(len(b.nodes) for b in self.blocks) / len(self.blocks)

    def pe_utilization(self) -> float:
        """Fraction of PE slots doing arithmetic across all execs."""
        total = self.config.num_pes * max(len(self.blocks), 1)
        used = sum(len(b.nodes) for b in self.blocks)
        return used / total


def decompose(dag: DAG, config: ArchConfig) -> Decomposition:
    """Cover the binarized DAG with blocks (Algorithm 1).

    Args:
        dag: *Binarized* DAG (every arithmetic node has fan-in 2).
        config: Architecture point (depth/banks give the block shape).

    Raises:
        CompileError: If the DAG is not binarized or progress stalls
            (which would indicate a bug, not a user error).
    """
    depth = config.depth
    n = dag.num_nodes
    arrays = DagArrays.of(dag)

    computed = arrays.is_input.tolist()
    remaining = n - int(arrays.is_input.sum())

    dfs_pos = arrays.dfs_pos.tolist()

    # height[node]: cone height under the current computed set, capped
    # at depth+1.  Seeded by the level-synchronous array kernel,
    # updated incrementally as blocks commit.
    height = arrays.capped_heights(depth).tolist()

    # Candidate heaps per cone height, keyed by DFS position (lazy
    # deletion: entries are revalidated on pop).  A sorted list is a
    # valid min-heap, so the per-height bucket seeds skip heappush.
    height_arr = np.asarray(height, dtype=np.int32)
    buckets: list[list[tuple[int, int]]] = [[]]
    for h in range(1, depth + 1):
        members = np.flatnonzero(height_arr == h)
        bucket = sorted(
            zip(arrays.dfs_pos[members].tolist(), members.tolist())
        )
        buckets.append(bucket)

    blocks: list[Block] = []

    while remaining > 0:
        block = _build_block(
            dag, config, computed, height, buckets, len(blocks)
        )
        if not block.nodes:
            raise CompileError(
                "block decomposition stalled with "
                f"{remaining} nodes left (compiler bug)"
            )
        blocks.append(block)
        remaining -= len(block.nodes)
        _commit_block(dag, depth, computed, height, buckets, dfs_pos, block)

    _annotate_io(dag, blocks)
    return Decomposition(blocks=blocks, dag=dag, config=config)


def _build_block(
    dag: DAG,
    config: ArchConfig,
    computed: list[bool],
    height: list[int],
    buckets: list[list[tuple[int, int]]],
    block_id: int,
) -> Block:
    """Fill one block: deepest cones first, DFS-proximal within a depth."""
    depth = config.depth
    allocator = SlotAllocator(depth, config.num_trees, phase=block_id)
    claimed: set[int] = set()
    placed: list[PlacedCone] = []
    deferred: list[tuple[int, tuple[int, int]]] = []  # (height, entry)

    while True:
        max_depth = allocator.max_free_depth()
        if max_depth == 0:
            break
        entry_height = _pick_height(buckets, max_depth)
        if entry_height == 0:
            break
        dfs_key, node = heapq.heappop(buckets[entry_height])
        h = height[node]
        if h != entry_height:
            # Stale: computed (height 0), or _commit_block queued the
            # node again at its new height.
            continue
        if node in claimed:
            # Covered by a cone already placed in this block.
            continue
        # ``h`` is the tracked cone height, and it fits: h <= max_depth.
        cone = unroll_cone(dag, computed, node, h, claimed)
        if cone is None:
            # Overlaps a cone of this block; it will shrink once the
            # block commits — defer to the next block.
            deferred.append((h, (dfs_key, node)))
            continue
        slot = allocator.place(cone.height)
        placed.append(PlacedCone(cone=cone, slot=slot))
        claimed |= cone.nodes

    for h, entry in deferred:
        heapq.heappush(buckets[h], entry)

    return Block(id=block_id, placed=placed, nodes=claimed)


def _pick_height(
    buckets: list[list[tuple[int, int]]], max_depth: int
) -> int:
    """Deepest non-empty candidate bucket that still fits a free slot."""
    for h in range(max_depth, 0, -1):
        if buckets[h]:
            return h
    return 0


def _commit_block(
    dag: DAG,
    depth: int,
    computed: list[bool],
    height: list[int],
    buckets: list[list[tuple[int, int]]],
    dfs_pos: list[int],
    block: Block,
) -> None:
    """Mark block nodes computed and relax descendant cone heights."""
    overflow = depth + 1
    succs_of = dag._succs
    preds_of = dag._preds
    heappush = heapq.heappush
    for node in block.nodes:
        computed[node] = True
        height[node] = 0
    frontier = set(block.nodes)
    for _ in range(depth):
        nxt: set[int] = set()
        for node in frontier:
            for succ in succs_of[node]:
                if computed[succ]:
                    continue
                worst = 0
                for p in preds_of[succ]:
                    h = height[p]
                    if h > worst:
                        worst = h
                new_h = worst + 1
                if new_h > overflow:
                    new_h = overflow
                if new_h < height[succ]:
                    height[succ] = new_h
                    if 1 <= new_h <= depth:
                        heappush(buckets[new_h], (dfs_pos[succ], succ))
                    nxt.add(succ)
        frontier = nxt
        if not frontier:
            break


def _annotate_io(dag: DAG, blocks: list[Block]) -> None:
    """Fill each block's input/output variable sets."""
    block_of: dict[int, int] = {}
    for block in blocks:
        for node in block.nodes:
            block_of[node] = block.id
    for block in blocks:
        inputs: set[int] = set()
        for placed in block.placed:
            inputs |= placed.cone.leaf_vars
        block.input_vars = inputs
        outputs: set[int] = set()
        for node in block.nodes:
            succs = dag.successors(node)
            if not succs:
                outputs.add(node)  # DAG output
                continue
            if any(block_of.get(s) != block.id for s in succs):
                outputs.add(node)
        block.output_vars = outputs


def check_decomposition(decomp: Decomposition) -> None:
    """Validate step-1 invariants (used by tests and pipeline asserts).

    * every arithmetic node in exactly one block;
    * cone leaves computed by strictly earlier blocks or inputs;
    * slots within a block do not overlap;
    * instances fit the slot (height == slot depth).
    """
    dag = decomp.dag
    seen: dict[int, int] = {}
    for block in decomp.blocks:
        for node in block.nodes:
            if node in seen:
                raise CompileError(
                    f"node {node} in blocks {seen[node]} and {block.id}"
                )
            seen[node] = block.id
    for node in dag.nodes():
        if dag.op(node) is not OpType.INPUT and node not in seen:
            raise CompileError(f"node {node} not covered by any block")

    for block in decomp.blocks:
        used_slots: set[tuple[int, int, int]] = set()
        for placed in block.placed:
            slot = placed.slot
            if placed.cone.height != slot.depth:
                raise CompileError(
                    f"block {block.id}: cone height {placed.cone.height} "
                    f"!= slot depth {slot.depth}"
                )
            key = (slot.tree, slot.depth, slot.index)
            if key in used_slots:
                raise CompileError(f"block {block.id}: slot reused {key}")
            used_slots.add(key)
            for var in placed.cone.leaf_vars:
                if dag.op(var) is OpType.INPUT:
                    continue
                if var not in seen or seen[var] >= block.id:
                    raise CompileError(
                        f"block {block.id} reads var {var} produced by "
                        f"block {seen.get(var)} (not strictly earlier)"
                    )
    _check_slot_disjointness(decomp)


def _check_slot_disjointness(decomp: Decomposition) -> None:
    """Slots of one block must cover disjoint port ranges."""
    for block in decomp.blocks:
        spans: list[tuple[int, int, int]] = []
        for placed in block.placed:
            slot = placed.slot
            width = 1 << slot.depth
            start = slot.tree * decomp.config.tree_inputs + slot.index * width
            spans.append((start, start + width, block.id))
        spans.sort()
        for (s1, e1, _), (s2, _, bid) in zip(spans, spans[1:]):
            if s2 < e1:
                raise CompileError(
                    f"block {bid}: overlapping slot port ranges"
                )
