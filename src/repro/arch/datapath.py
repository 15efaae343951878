"""PE-tree datapath evaluation (fig. 5(a), left).

Evaluates one ``exec`` instruction's worth of computation: given the B
values gathered at the tree input ports, apply every PE's configured
operation layer by layer and return each PE's output.  The simulator
uses this for functional execution; it is also handy in tests to check
tree-placement code against a brute-force evaluation.
"""

from __future__ import annotations

import math

from ..errors import SimulationError
from .config import ArchConfig
from .isa import PEOp


def evaluate_trees(
    config: ArchConfig,
    port_values: list[float | None],
    pe_ops: tuple[PEOp, ...],
) -> list[float | None]:
    """Run the PE trees for one exec.

    Args:
        port_values: Value at each of the B global input ports
            (``None`` for unused ports).
        pe_ops: Per-PE operation (global PE id order).

    Returns:
        Output value of every PE (``None`` for IDLE PEs).

    Raises:
        SimulationError: If an active PE has a missing operand — that
            means the compiler produced an inconsistent placement.
    """
    if len(port_values) != config.banks:
        raise SimulationError(
            f"expected {config.banks} port values, got {len(port_values)}"
        )
    if len(pe_ops) != config.num_pes:
        raise SimulationError(
            f"expected {config.num_pes} PE ops, got {len(pe_ops)}"
        )
    outputs: list[float | None] = [None] * config.num_pes
    wiring = config.pe_wiring()
    for pe, op in enumerate(pe_ops):
        if op is PEOp.IDLE:
            continue
        _, a_is_port, a_id, b_is_port, b_id = wiring[pe]
        a = port_values[a_id] if a_is_port else outputs[a_id]
        b = port_values[b_id] if b_is_port else outputs[b_id]
        outputs[pe] = _apply(pe, op, a, b)
    return outputs


def _apply(pe: int, op: PEOp, a: float | None, b: float | None) -> float:
    if op is PEOp.PASS_A:
        if a is None:
            raise SimulationError(f"PE {pe}: PASS_A with missing operand A")
        return a
    if op is PEOp.PASS_B:
        if b is None:
            raise SimulationError(f"PE {pe}: PASS_B with missing operand B")
        return b
    if a is None or b is None:
        raise SimulationError(
            f"PE {pe}: {op.name} with missing operand "
            f"(a={'ok' if a is not None else 'missing'}, "
            f"b={'ok' if b is not None else 'missing'})"
        )
    if op is PEOp.ADD:
        return a + b
    if op is PEOp.MUL:
        return a * b
    raise SimulationError(f"PE {pe}: cannot apply {op.name}")


def check_finite(values: list[float | None]) -> None:
    """Guard against NaN/inf escaping the datapath (numeric tests)."""
    for pe, value in enumerate(values):
        if value is not None and not math.isfinite(value):
            raise SimulationError(f"PE {pe} produced non-finite {value}")
