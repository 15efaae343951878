"""Architecture template configuration (fig. 5(a) of the paper).

The template has three independent parameters:

* ``D`` — depth of each PE tree (number of PE layers, pipeline depth),
* ``B`` — number of register banks,
* ``R`` — registers per bank,

from which everything else is derived: the number of trees
``T = B / 2^D`` (one bank per tree input), the PE count
``T * (2^D - 1)``, and the instruction bit-widths.

PE and port indexing
--------------------
Within one tree of depth ``D``:

* *input ports* are numbered ``0 .. 2^D - 1`` (these are the register
  read ports; globally, port ``p`` of tree ``t`` is ``t * 2^D + p`` and
  there are exactly ``B`` of them);
* layer ``l`` (1-based) has ``2^(D-l)`` PEs; the PE at (layer ``l``,
  index ``k``) consumes the outputs of (``l-1``, ``2k``) and (``l-1``,
  ``2k+1``), where layer 0 means the input ports.

Globally, PEs are numbered tree-major, then layer, then index, which
gives stable ids for instruction encoding and energy accounting.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..errors import ConfigError

#: Default operating frequency used throughout the evaluation (§V-B).
DEFAULT_FREQUENCY_HZ = 300e6

#: Word width of the datapath (fp32 in the paper's main configuration).
WORD_BITS = 32

#: One PE's wiring: (layer, a_from_port, a_id, b_from_port, b_id).
PEWiring = tuple[int, bool, int, bool, int]


@dataclass(frozen=True)
class ArchConfig:
    """One point of the DPU-v2 design space.

    Attributes:
        depth: PE-tree depth ``D`` (pipeline has ``D + 1`` stages).
        banks: Register bank count ``B`` (must be a multiple of ``2^D``).
        regs_per_bank: Registers per bank ``R``.
        data_mem_rows: Rows in the vector data memory (each row is
            ``B`` words).
        frequency_hz: Clock frequency for time/energy conversions.
        reorder_window: Lookahead window of the pipeline-aware
            reordering pass (300 in the paper's experiments, §IV-C).
    """

    depth: int
    banks: int
    regs_per_bank: int
    data_mem_rows: int = 4096
    frequency_hz: float = DEFAULT_FREQUENCY_HZ
    reorder_window: int = 300

    def __post_init__(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.banks < 1:
            raise ConfigError(f"banks must be >= 1, got {self.banks}")
        if self.regs_per_bank < 2:
            raise ConfigError(
                f"regs_per_bank must be >= 2, got {self.regs_per_bank}"
            )
        if self.banks % self.tree_inputs != 0:
            raise ConfigError(
                f"banks ({self.banks}) must be a multiple of 2^depth "
                f"({self.tree_inputs}) so that T = B / 2^D is integral"
            )
        if self.data_mem_rows < 1:
            raise ConfigError("data_mem_rows must be positive")
        if self.reorder_window < 1:
            raise ConfigError("reorder_window must be positive")

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    @property
    def tree_inputs(self) -> int:
        """Inputs per tree, ``2^D``."""
        return 1 << self.depth

    @property
    def num_trees(self) -> int:
        """Number of parallel PE trees, ``T = B / 2^D``."""
        return self.banks // self.tree_inputs

    @property
    def pes_per_tree(self) -> int:
        """PEs in one tree, ``2^D - 1``."""
        return self.tree_inputs - 1

    @property
    def num_pes(self) -> int:
        """Total PE count, ``T * (2^D - 1)``."""
        return self.num_trees * self.pes_per_tree

    @property
    def pipeline_stages(self) -> int:
        """Datapath pipe stages: one per PE layer plus the read stage."""
        return self.depth + 1

    @property
    def total_registers(self) -> int:
        return self.banks * self.regs_per_bank

    def pes_in_layer(self, layer: int) -> int:
        """PEs per tree in 1-based ``layer``."""
        self._check_layer(layer)
        return 1 << (self.depth - layer)

    def _check_layer(self, layer: int) -> None:
        if not 1 <= layer <= self.depth:
            raise ConfigError(
                f"layer {layer} out of range 1..{self.depth}"
            )

    # ------------------------------------------------------------------
    # PE id <-> (tree, layer, index) conversions
    # ------------------------------------------------------------------
    def pe_id(self, tree: int, layer: int, index: int) -> int:
        """Global id of the PE at (tree, 1-based layer, index)."""
        self._check_layer(layer)
        if not 0 <= tree < self.num_trees:
            raise ConfigError(f"tree {tree} out of range")
        if not 0 <= index < self.pes_in_layer(layer):
            raise ConfigError(
                f"PE index {index} out of range for layer {layer}"
            )
        offset = tree * self.pes_per_tree
        for l in range(1, layer):
            offset += self.pes_in_layer(l)
        return offset + index

    def pe_position(self, pe: int) -> tuple[int, int, int]:
        """Inverse of :meth:`pe_id`: returns (tree, layer, index)."""
        if not 0 <= pe < self.num_pes:
            raise ConfigError(f"PE id {pe} out of range")
        tree, local = divmod(pe, self.pes_per_tree)
        layer = 1
        while local >= self.pes_in_layer(layer):
            local -= self.pes_in_layer(layer)
            layer += 1
        return tree, layer, local

    def pe_layer(self, pe: int) -> int:
        """1-based layer of a global PE id."""
        return self.pe_position(pe)[1]

    def pe_operand_sources(
        self, pe: int
    ) -> tuple[tuple[bool, int], tuple[bool, int]]:
        """Where a PE's two operands come from.

        Returns ``((from_port, id), (from_port, id))``: ``from_port`` is
        True when the operand is a global input port (layer-1 PEs),
        False when it is another PE's output.
        """
        tree, layer, index = self.pe_position(pe)
        if layer == 1:
            base = tree * self.tree_inputs
            return (True, base + 2 * index), (True, base + 2 * index + 1)
        left = self.pe_id(tree, layer - 1, 2 * index)
        right = self.pe_id(tree, layer - 1, 2 * index + 1)
        return (False, left), (False, right)

    def pe_wiring(self) -> tuple[PEWiring, ...]:
        """Per-PE ``(layer, a_from_port, a_id, b_from_port, b_id)``:
        :meth:`pe_layer` and :meth:`pe_operand_sources` tabulated once
        per ``(D, B)``, the only parameters the wiring depends on."""
        return _pe_wiring(self.depth, self.banks)

    def input_port(self, tree: int, port: int) -> int:
        """Global read-port id of local ``port`` in ``tree``."""
        if not 0 <= tree < self.num_trees:
            raise ConfigError(f"tree {tree} out of range")
        if not 0 <= port < self.tree_inputs:
            raise ConfigError(f"port {port} out of range")
        return tree * self.tree_inputs + port

    def port_position(self, global_port: int) -> tuple[int, int]:
        """Inverse of :meth:`input_port`."""
        if not 0 <= global_port < self.banks:
            raise ConfigError(f"port {global_port} out of range")
        return divmod(global_port, self.tree_inputs)

    def ports_under_pe(self, pe: int) -> list[int]:
        """Global input ports feeding the subtree rooted at ``pe``."""
        tree, layer, index = self.pe_position(pe)
        span = 1 << layer
        base = tree * self.tree_inputs + index * span
        return list(range(base, base + span))

    def __str__(self) -> str:
        return f"D{self.depth}-B{self.banks}-R{self.regs_per_bank}"


@lru_cache(maxsize=64)
def _pe_wiring(depth: int, banks: int) -> tuple[PEWiring, ...]:
    cfg = ArchConfig(depth=depth, banks=banks, regs_per_bank=2)
    table = []
    for pe in range(cfg.num_pes):
        (a_port, a_id), (b_port, b_id) = cfg.pe_operand_sources(pe)
        table.append((cfg.pe_layer(pe), a_port, a_id, b_port, b_id))
    return tuple(table)


#: Minimum-EDP configuration found by the paper's DSE (§V-B).
MIN_EDP_CONFIG = ArchConfig(depth=3, banks=64, regs_per_bank=32)

#: Minimum-energy configuration (§V-B).
MIN_ENERGY_CONFIG = ArchConfig(depth=3, banks=16, regs_per_bank=64)

#: Minimum-latency configuration (§V-B).
MIN_LATENCY_CONFIG = ArchConfig(depth=3, banks=64, regs_per_bank=128)

#: The "large" configuration DPU-v2 (L) uses 256 registers per bank and
#: a 2MB data memory (§V-C2); one of its four cores.
LARGE_CORE_CONFIG = ArchConfig(
    depth=3, banks=64, regs_per_bank=256, data_mem_rows=8192
)


def dse_grid() -> list[ArchConfig]:
    """The 48-point design grid of §V-B.

    D in [1, 2, 3], B in [8, 16, 32, 64], R in [16, 32, 64, 128] —
    configurations where ``B < 2^D`` are skipped (T would be zero),
    matching the paper's constraint that B = T * 2^D.
    """
    grid: list[ArchConfig] = []
    for depth in (1, 2, 3):
        for banks in (8, 16, 32, 64):
            if banks < (1 << depth):
                continue
            for regs in (16, 32, 64, 128):
                grid.append(
                    ArchConfig(depth=depth, banks=banks, regs_per_bank=regs)
                )
    return grid
