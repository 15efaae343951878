"""Shared array form of a DAG for the compiler's hot kernels.

Every compiler pass used to re-derive its own view of the DAG from the
tuple-of-tuples adjacency (dict/set traversals per node): cone
decomposition walked predecessors per candidate, the scheduler asked
``dag.op`` per variable, liveness and spilling rebuilt read maps per
pass.  :class:`DagArrays` materializes the traversal structure once
per DAG — CSR adjacency, operation codes, topological order, ASAP
levels, DFS positions — as numpy arrays the kernels index directly.

Instances are memoized per DAG (weak keys), so ``DagArrays.of(dag)``
is free after the first call: the decompose -> map -> schedule ->
liveness -> spill pipeline and repeated compiles in a DSE sweep all
share one build.

The arrays are *views of immutable data*: treat every attribute as
read-only.  Kernels that need scratch state (e.g. the incremental
cone heights of the block decomposer) copy what they mutate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ..graphs import DAG, OpType
from ..graphs.traversal import (
    dfs_order,
    node_levels_array,
    topological_order_array,
)

#: Stable operation codes used in the ``ops`` array.
OP_CODES: dict[OpType, int] = {
    OpType.INPUT: 0,
    OpType.ADD: 1,
    OpType.MUL: 2,
}

_MEMO: "weakref.WeakKeyDictionary[DAG, DagArrays]" = (
    weakref.WeakKeyDictionary()
)


@dataclass
class DagArrays:
    """One DAG, flattened for kernel consumption.

    Attributes:
        dag: The source DAG (kept for odd lookups; kernels should use
            the arrays).  Held through a weak reference — a strong
            ``dag`` field would close a ref cycle through the memo's
            weak key and pin every compiled DAG in memory forever.
        n: Node count.
        ops: ``OP_CODES`` entry per node (int8).
        is_input: True where ``ops == OP_CODES[OpType.INPUT]``.
        pred_indptr / pred_indices: CSR predecessors, construction
            order preserved (operand order matters to binarize/cones).
        succ_indptr / succ_indices: CSR successors, construction order.
        in_degree / out_degree: Row widths of the two CSRs.
        topo: FIFO-Kahn topological order (int32).
        levels: ASAP level per node (int32).
    """

    _dag_ref: "weakref.ref[DAG]"
    n: int
    ops: np.ndarray
    is_input: np.ndarray
    pred_indptr: np.ndarray
    pred_indices: np.ndarray
    succ_indptr: np.ndarray
    succ_indices: np.ndarray
    in_degree: np.ndarray
    out_degree: np.ndarray
    topo: np.ndarray
    levels: np.ndarray
    _dfs_pos: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def of(cls, dag: DAG) -> "DagArrays":
        """Memoized array view of ``dag`` (built once per DAG)."""
        cached = _MEMO.get(dag)
        if cached is not None:
            return cached
        pred_indptr, pred_indices = dag.pred_csr()
        succ_indptr, succ_indices = dag.succ_csr()
        n = dag.num_nodes
        ops = np.fromiter(
            (OP_CODES[op] for op in dag._ops), dtype=np.int8, count=n
        )
        arrays = cls(
            _dag_ref=weakref.ref(dag),
            n=n,
            ops=ops,
            is_input=ops == OP_CODES[OpType.INPUT],
            pred_indptr=pred_indptr,
            pred_indices=pred_indices,
            succ_indptr=succ_indptr,
            succ_indices=succ_indices,
            in_degree=np.diff(pred_indptr),
            out_degree=np.diff(succ_indptr),
            topo=topological_order_array(dag),
            levels=node_levels_array(dag),
        )
        _MEMO[dag] = arrays
        return arrays

    @property
    def dag(self) -> DAG:
        dag = self._dag_ref()
        if dag is None:
            raise ReferenceError(
                "the DAG behind this DagArrays has been garbage-collected"
            )
        return dag

    @property
    def dfs_pos(self) -> np.ndarray:
        """DFS post-order positions (lazy — only decompose needs them)."""
        if self._dfs_pos is None:
            self._dfs_pos = np.asarray(dfs_order(self.dag), dtype=np.int32)
        return self._dfs_pos

    # ------------------------------------------------------------------
    # Level-synchronous kernels
    # ------------------------------------------------------------------
    def level_slices(self) -> list[np.ndarray]:
        """Topo-order node ids grouped by ASAP level (views, ascending).

        The topo order emits whole levels back to back (FIFO Kahn), so
        grouping is a ``searchsorted`` over the already-sorted level
        sequence — no per-node Python work.
        """
        level_of_topo = self.levels[self.topo]
        depth = int(level_of_topo[-1]) if self.n else -1
        bounds = np.searchsorted(
            level_of_topo, np.arange(depth + 2), side="left"
        )
        return [
            self.topo[bounds[i] : bounds[i + 1]] for i in range(depth + 1)
        ]

    def level_opcode_groups(self) -> list[list[tuple[int, np.ndarray]]]:
        """Per level, arithmetic node ids grouped by opcode.

        The same-opcode-per-level grouping the fused execution engine
        orders its op table by (:mod:`repro.sim.fused`): entry
        ``[lvl]`` lists ``(opcode, node_ids)`` pairs, opcodes
        ascending, node ids in topo order.  Level 0 (the inputs) is
        included and always empty.  A fused plan has at most as many
        one-opcode runs as there are pairs here — the DAG is the
        source of the dependence structure the fusion exploits.
        """
        grouped: list[list[tuple[int, np.ndarray]]] = []
        for nodes in self.level_slices():
            arith = nodes[~self.is_input[nodes]]
            groups: list[tuple[int, np.ndarray]] = []
            if arith.size:
                codes = self.ops[arith]
                order = np.argsort(codes, kind="stable")
                sorted_nodes = arith[order]
                sorted_codes = codes[order]
                breaks = np.flatnonzero(np.diff(sorted_codes) != 0) + 1
                bounds = np.concatenate(([0], breaks, [arith.size]))
                groups = [
                    (
                        int(sorted_codes[bounds[i]]),
                        sorted_nodes[bounds[i] : bounds[i + 1]],
                    )
                    for i in range(bounds.size - 1)
                ]
            grouped.append(groups)
        return grouped

    def capped_heights(self, cap: int) -> np.ndarray:
        """Initial uncomputed-cone height per node, capped at ``cap + 1``.

        Inputs have height 0; an arithmetic node is one past the max of
        its predecessors, saturating at ``cap + 1`` ("does not fit").
        This is the array form of the decomposer's seeding sweep,
        computed level by level with ``maximum.reduceat``.
        """
        overflow = cap + 1
        heights = np.zeros(self.n, dtype=np.int32)
        indptr, indices = self.pred_indptr, self.pred_indices
        for nodes in self.level_slices()[1:]:
            arith = nodes[~self.is_input[nodes]]
            if arith.size == 0:
                continue
            starts = indptr[arith]
            counts = (indptr[arith + 1] - starts).astype(np.int64)
            cum = np.cumsum(counts)
            flat = np.arange(int(cum[-1]), dtype=np.int64) + np.repeat(
                starts - np.concatenate(([0], cum[:-1])), counts
            )
            worst = np.maximum.reduceat(
                heights[indices[flat]],
                np.concatenate(([0], cum[:-1])),
            )
            heights[arith] = np.minimum(worst + 1, overflow)
        return heights
