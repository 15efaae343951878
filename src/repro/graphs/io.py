"""Serialization and interop for DAGs.

The paper's compiler accepts "any of the popular graph formats (i.e.
all formats supported by the NetworkX package)".  We provide:

* a JSON format (self-describing, stable, used for fixtures),
* an edge-list text format,
* lossless conversion to/from ``networkx.DiGraph`` — which transitively
  gives access to every NetworkX reader/writer.  NetworkX is an
  optional dependency (the ``nx`` extra), imported only by these two
  converters.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING

from ..errors import GraphError
from .dag import DAG, DAGBuilder
from .node import OpType
from .traversal import topological_order

if TYPE_CHECKING:
    import networkx as nx

_OP_NAMES = {op.value: op for op in OpType}


def to_networkx(dag: DAG) -> nx.DiGraph:
    """Convert to a ``networkx.DiGraph``.

    Node attributes: ``op`` (``"input"|"add"|"mul"``) and, for leaves,
    ``input_slot``.  Edge attribute ``operand`` records the operand
    position so ordered fan-in survives the round trip.
    """
    import networkx as nx

    graph = nx.DiGraph(name=dag.name)
    for node in dag.nodes():
        attrs = {"op": dag.op(node).value}
        if dag.op(node) is OpType.INPUT:
            attrs["input_slot"] = dag.input_slot(node)
        graph.add_node(node, **attrs)
    for node in dag.nodes():
        for position, pred in enumerate(dag.predecessors(node)):
            graph.add_edge(pred, node, operand=position)
    return graph


def from_networkx(graph: nx.DiGraph) -> DAG:
    """Build a DAG from a ``networkx.DiGraph``.

    Nodes must carry an ``op`` attribute; ids may be arbitrary hashables
    and are densified in topological order.  Missing ``operand`` edge
    attributes fall back to insertion order.  If every input node
    carries an ``input_slot`` attribute, the external-input ordering
    follows it; otherwise slots follow the densified node order.

    Note: ``nx.DiGraph`` collapses parallel edges, so a node cannot use
    the same operand twice (e.g. squaring); build such DAGs with
    :class:`~repro.graphs.DAGBuilder` directly.
    """
    import networkx as nx

    if not nx.is_directed_acyclic_graph(graph):
        raise GraphError("networkx graph is not a DAG")
    try:
        # Stable tie-breaking keeps integer-labelled round trips exact.
        order = list(nx.lexicographical_topological_sort(graph))
    except TypeError:  # mixed label types cannot be compared
        order = list(nx.topological_sort(graph))
    dense: dict[object, int] = {}
    builder = DAGBuilder()
    slot_of: dict[int, int] = {}  # dense leaf id -> requested slot
    leaf_ids: list[int] = []
    for original in order:
        data = graph.nodes[original]
        op_name = data.get("op")
        if op_name not in _OP_NAMES:
            raise GraphError(
                f"node {original!r} has invalid op {op_name!r}"
            )
        op = _OP_NAMES[op_name]
        if op is OpType.INPUT:
            dense[original] = builder.add_input()
            leaf_ids.append(dense[original])
            if "input_slot" in data:
                slot_of[dense[original]] = data["input_slot"]
        else:
            in_edges = sorted(
                graph.in_edges(original, data=True),
                key=lambda e: e[2].get("operand", 0),
            )
            preds = [dense[src] for src, _, _ in in_edges]
            dense[original] = builder.add_op(op, preds)
    dag = builder.build(name=graph.graph.get("name", "dag"))
    if len(slot_of) == len(leaf_ids) and leaf_ids:
        ops = [dag.op(n) for n in dag.nodes()]
        preds = [dag.predecessors(n) for n in dag.nodes()]
        input_slots = [slot_of[leaf] for leaf in leaf_ids]
        dag = DAG(ops, preds, input_slots=input_slots, name=dag.name)
    return dag


def to_json(dag: DAG) -> str:
    """Serialize to the package's JSON format."""
    payload = {
        "name": dag.name,
        "nodes": [
            {
                "op": dag.op(node).value,
                "preds": list(dag.predecessors(node)),
                **(
                    {"input_slot": dag.input_slot(node)}
                    if dag.op(node) is OpType.INPUT
                    else {}
                ),
            }
            for node in dag.nodes()
        ],
    }
    return json.dumps(payload)


def from_json(text: str) -> DAG:
    """Parse the package's JSON format."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid JSON: {exc}") from exc
    try:
        nodes = payload["nodes"]
        ops = [_OP_NAMES[entry["op"]] for entry in nodes]
        preds = [entry["preds"] for entry in nodes]
        slots = [
            entry["input_slot"]
            for entry, op in zip(nodes, ops)
            if op is OpType.INPUT and "input_slot" in entry
        ]
    except (KeyError, TypeError) as exc:
        raise GraphError(f"malformed DAG JSON: {exc}") from exc
    input_slots = slots if len(slots) == sum(
        1 for op in ops if op is OpType.INPUT
    ) else None
    return DAG(ops, preds, input_slots=input_slots, name=payload.get("name", "dag"))


def save_json(dag: DAG, path: str | Path) -> None:
    """Write the JSON serialization to ``path``."""
    Path(path).write_text(to_json(dag))


def load_json(path: str | Path) -> DAG:
    """Load a DAG from a JSON file produced by :func:`save_json`."""
    return from_json(Path(path).read_text())


def to_edge_list(dag: DAG) -> str:
    """Simple textual dump: one ``node op preds...`` line per node."""
    lines = [f"# dag {dag.name}"]
    for node in dag.nodes():
        preds = " ".join(str(p) for p in dag.predecessors(node))
        lines.append(f"{node} {dag.op(node).value} {preds}".rstrip())
    return "\n".join(lines) + "\n"


def from_edge_list(text: str) -> DAG:
    """Parse the :func:`to_edge_list` format."""
    ops: list[OpType] = []
    preds: list[list[int]] = []
    name = "dag"
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) == 2 and parts[0] == "dag":
                name = parts[1]
            continue
        parts = line.split()
        node = int(parts[0])
        if node != len(ops):
            raise GraphError(
                f"edge list nodes must be dense/ordered; got {node} at "
                f"position {len(ops)}"
            )
        if parts[1] not in _OP_NAMES:
            raise GraphError(f"unknown op {parts[1]!r} on line {raw!r}")
        ops.append(_OP_NAMES[parts[1]])
        preds.append([int(p) for p in parts[2:]])
    return DAG(ops, preds, name=name)


def relabel_topological(dag: DAG) -> DAG:
    """Return an equivalent DAG whose ids are a topological order.

    Builder-produced DAGs already have this property; external graphs
    may not, and several compiler passes exploit it.
    """
    order = topological_order(dag)
    rank = {old: new for new, old in enumerate(order)}
    ops = [dag.op(old) for old in order]
    preds = [[rank[p] for p in dag.predecessors(old)] for old in order]
    return DAG(ops, preds, name=dag.name)
