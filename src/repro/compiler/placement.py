"""Cone -> concrete PE/port binding within an allocated slot.

Positions are canonical (see the deviation note in
``repro.compiler.blocks``): the cone root sits at its slot's root PE,
an OpInst's left/right children go to the left/right child PEs, and a
PassInst forwards its child through operand A.  Leaves land on the
register read ports spanned by the slot.

The placer walks each cone's heap layout (``kinds``/``vals``) in the
same pre-order as the old object-tree recursion — pre-order matters:
it fixes the order of a node's replica list, which
:func:`writer_pe` breaks ties on — and converts (depth, offset)
coordinates to global PE/port ids with a per-call layer-base table
instead of per-instance :meth:`~repro.arch.ArchConfig.pe_id` calls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..arch import ArchConfig, PEOp
from ..errors import MappingError
from .blocks import Block, PlacedCone
from .cones import K_ADD, K_LEAF, K_MUL, K_PASS


@dataclass
class BlockPlacement:
    """Hardware binding of one block.

    Attributes:
        pe_ops: Operation per active global PE id.
        port_vars: Variable consumed at each active global read port.
        node_pes: For every DAG node in the block, the PEs computing it
            (more than one when the node was replicated, fig. 9(c)).
    """

    pe_ops: dict[int, PEOp] = field(default_factory=dict)
    port_vars: dict[int, int] = field(default_factory=dict)
    node_pes: dict[int, list[int]] = field(default_factory=dict)

    def distinct_input_vars(self) -> set[int]:
        return set(self.port_vars.values())


_PEOP_OF_KIND = {K_ADD: PEOp.ADD, K_MUL: PEOp.MUL}


@lru_cache(maxsize=32)
def _depth_offset_table(height: int) -> tuple[tuple[int, int], ...]:
    """(depth, offset) of every heap position of a height-``h`` cone."""
    out = []
    for pos in range((1 << (height + 1)) - 1):
        depth = (pos + 1).bit_length() - 1
        out.append((depth, pos + 1 - (1 << depth)))
    return tuple(out)


def _layer_bases(config: ArchConfig) -> list[int]:
    """``base[layer]`` = first PE id of 1-based ``layer`` within a tree."""
    depth = config.depth
    bases = [0] * (depth + 2)
    acc = 0
    for layer in range(1, depth + 1):
        bases[layer] = acc
        acc += 1 << (depth - layer)
    return bases


def place_block(block: Block, config: ArchConfig) -> BlockPlacement:
    """Bind every cone of ``block`` to PEs and ports."""
    placement = BlockPlacement()
    bases = _layer_bases(config)
    for placed in block.placed:
        _place_cone(placed, config, placement, bases)
    return placement


def _place_cone(
    placed: PlacedCone,
    config: ArchConfig,
    out: BlockPlacement,
    bases: list[int] | None = None,
) -> None:
    if bases is None:
        bases = _layer_bases(config)
    slot = placed.slot
    cone = placed.cone
    height = slot.depth
    kinds = cone.kinds
    vals = cone.vals
    tree_pe_base = slot.tree * config.pes_per_tree
    port_base = config.input_port(slot.tree, 0) + slot.index * (1 << height)
    pe_ops = out.pe_ops
    port_vars = out.port_vars
    node_pes = out.node_pes

    # Linear walk of the heap layout.  Within one layer, ascending
    # position order equals the old pre-order's left-to-right order,
    # and writer_pe's deepest-layer tie-break only compares replicas
    # within a layer — so the replica lists it sees are unchanged.
    depth_off = _depth_offset_table(height)
    slot_index = slot.index
    for pos, kind in enumerate(kinds):
        if not kind:
            continue
        depth, offset = depth_off[pos]
        layer = height - depth
        if kind == K_LEAF:
            if layer != 0:
                raise MappingError(
                    f"leaf of cone {cone.sink} at layer {layer}"
                )
            port = port_base + offset
            var = vals[pos]
            prev = port_vars.get(port)
            if prev is not None and prev != var:
                raise MappingError(
                    f"port {port} claimed by vars {prev} and {var}"
                )
            port_vars[port] = var
            continue
        pe = tree_pe_base + bases[layer] + (slot_index << depth) + offset
        if pe in pe_ops:
            raise MappingError(f"PE {pe} double-booked within a block")
        if kind == K_PASS:
            pe_ops[pe] = PEOp.PASS_A
            continue
        pe_ops[pe] = _PEOP_OF_KIND[kind]
        node_pes.setdefault(vals[pos], []).append(pe)


def writer_pe(
    placement: BlockPlacement, node: int, config: ArchConfig
) -> int:
    """PE designated to write ``node``'s value to the register file.

    Among replicas, the deepest-layer PE is chosen: with the
    one-PE-per-layer output interconnect, deeper layers reach more
    banks, maximizing the mapper's freedom under constraint H.
    """
    pes = placement.node_pes.get(node)
    if not pes:
        raise MappingError(f"node {node} has no PE in this block")
    wiring = config.pe_wiring()
    return max(pes, key=lambda pe: wiring[pe][0])
