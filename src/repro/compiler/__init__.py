"""The DPU-v2 targeted compiler (§IV of the paper)."""

from .blocks import (
    Block,
    Decomposition,
    PlacedCone,
    check_decomposition,
    decompose,
)
from .combos import (
    Slot,
    SlotAllocator,
    possible_depth_combinations,
)
from .cones import (
    Cone,
    LeafInst,
    OpInst,
    PassInst,
    build_cone,
    cone_depth_of,
    cone_height,
    evaluate_cone,
)
from .footprint import (
    FootprintReport,
    csr_footprint_bits,
    footprint_report,
    write_addr_overhead_bits,
)
from .liveness import (
    Residence,
    analyze_residences,
    annotate_liveness,
    max_live_per_bank,
)
from .arrays import DagArrays
from .mapping import Mapping, map_banks
from .pipeline import CompileResult, CompileStats, compile_dag
from .placement import BlockPlacement, place_block, writer_pe
from .regalloc import Allocation, allocate_addresses
from .reorder import (
    ReorderResult,
    build_dependencies,
    reorder,
    verify_hazard_free,
)
from .schedule import Schedule, ScheduleStats, build_schedule
from .spill import SpillResult, insert_spills

__all__ = [
    "compile_dag",
    "CompileResult",
    "CompileStats",
    "DagArrays",
    "Cone",
    "LeafInst",
    "OpInst",
    "PassInst",
    "build_cone",
    "cone_height",
    "cone_depth_of",
    "evaluate_cone",
    "Slot",
    "SlotAllocator",
    "possible_depth_combinations",
    "Block",
    "PlacedCone",
    "Decomposition",
    "decompose",
    "check_decomposition",
    "BlockPlacement",
    "place_block",
    "writer_pe",
    "Mapping",
    "map_banks",
    "Schedule",
    "ScheduleStats",
    "build_schedule",
    "Residence",
    "analyze_residences",
    "annotate_liveness",
    "max_live_per_bank",
    "ReorderResult",
    "build_dependencies",
    "reorder",
    "verify_hazard_free",
    "SpillResult",
    "insert_spills",
    "Allocation",
    "allocate_addresses",
    "FootprintReport",
    "footprint_report",
    "csr_footprint_bits",
    "write_addr_overhead_bits",
]
