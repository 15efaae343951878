#!/usr/bin/env python3
"""Bring your own DAG: NetworkX import, compilation, encoding.

Shows the interop surface a downstream user needs: build a graph in
NetworkX (the format the paper's compiler accepts), import it, compile
it, and inspect the binary encoding.

Run:  python examples/custom_dag.py
"""

import networkx as nx

from repro import ArchConfig, compile_dag, run_program
from repro.arch import encode_program
from repro.graphs import from_networkx, to_networkx


def build_networkx_dag() -> nx.DiGraph:
    """p(x, y, z) = (x+y)*(y+z) + 3xy, as a NetworkX graph.

    Note: ``nx.DiGraph`` cannot express *duplicate* operands (parallel
    edges collapse), so squaring a value needs the native
    :class:`repro.DAGBuilder` (``add_mul([s, s])``) instead.
    """
    g = nx.DiGraph(name="polynomial")
    g.add_node("x", op="input", input_slot=0)
    g.add_node("y", op="input", input_slot=1)
    g.add_node("z", op="input", input_slot=2)
    g.add_node("three", op="input", input_slot=3)  # constants too
    g.add_node("s1", op="add")  # x + y
    g.add_node("s2", op="add")  # y + z
    g.add_node("prod", op="mul")  # (x+y)(y+z)
    g.add_node("xy", op="mul")
    g.add_node("3xy", op="mul")
    g.add_node("p", op="add")
    g.add_edge("x", "s1", operand=0)
    g.add_edge("y", "s1", operand=1)
    g.add_edge("y", "s2", operand=0)
    g.add_edge("z", "s2", operand=1)
    g.add_edge("s1", "prod", operand=0)
    g.add_edge("s2", "prod", operand=1)
    g.add_edge("x", "xy", operand=0)
    g.add_edge("y", "xy", operand=1)
    g.add_edge("three", "3xy", operand=0)
    g.add_edge("xy", "3xy", operand=1)
    g.add_edge("prod", "p", operand=0)
    g.add_edge("3xy", "p", operand=1)
    return g


def main() -> None:
    # NetworkX in, DAG out (any NetworkX-readable format works).
    graph = build_networkx_dag()
    dag = from_networkx(graph)
    print(f"imported {dag.name!r}: {dag.num_nodes} nodes")

    config = ArchConfig(depth=2, banks=8, regs_per_bank=16)
    result = compile_dag(dag, config)
    # x=2, y=5, z=1, three=3 -> (2+5)*(5+1) + 3*2*5 = 72
    sim = run_program(result.program, [2.0, 5.0, 1.0, 3.0])
    root = result.node_map[dag.sinks()[0]]
    print(f"p(2, 5, 1) = {sim.values[root]} (expected 72.0)")
    assert sim.values[root] == 72.0

    # Inspect the dense variable-length binary (fig. 7).
    encoded = encode_program(result.program, result.allocation.read_addrs)
    print(
        f"binary program: {encoded.total_bits} bits packed "
        f"({encoded.instruction_count} instructions, fetch width "
        f"IL={encoded.widths.il}b; padded would be {encoded.padded_bits}b)"
    )

    # Round-trip back to NetworkX for export.
    assert nx.is_directed_acyclic_graph(to_networkx(dag))


if __name__ == "__main__":
    main()
