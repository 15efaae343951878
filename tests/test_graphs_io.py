"""Unit tests for DAG serialization and interop."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import networkx as nx
import pytest

import repro

from repro.errors import GraphError
from repro.graphs import (
    from_edge_list,
    from_json,
    from_networkx,
    load_json,
    relabel_topological,
    save_json,
    to_edge_list,
    to_json,
    to_networkx,
    topological_order,
)
from repro.testing import make_random_dag


def dags_equal(a, b) -> bool:
    if a.num_nodes != b.num_nodes:
        return False
    for n in a.nodes():
        if a.op(n) is not b.op(n):
            return False
        if a.predecessors(n) != b.predecessors(n):
            return False
    return True


class TestJsonRoundTrip:
    def test_round_trip(self):
        dag = make_random_dag(13)
        assert dags_equal(dag, from_json(to_json(dag)))

    def test_name_preserved(self):
        dag = make_random_dag(13, name="myworkload")
        assert from_json(to_json(dag)).name == "myworkload"

    def test_file_round_trip(self, tmp_path):
        dag = make_random_dag(14)
        path = tmp_path / "dag.json"
        save_json(dag, path)
        assert dags_equal(dag, load_json(path))

    def test_invalid_json_raises(self):
        with pytest.raises(GraphError):
            from_json("{not json")

    def test_malformed_payload_raises(self):
        with pytest.raises(GraphError):
            from_json('{"nodes": [{"op": "add"}]}')


class TestEdgeListRoundTrip:
    def test_round_trip(self):
        dag = make_random_dag(15)
        assert dags_equal(dag, from_edge_list(to_edge_list(dag)))

    def test_unknown_op_raises(self):
        with pytest.raises(GraphError):
            from_edge_list("0 frobnicate\n")

    def test_non_dense_ids_raise(self):
        with pytest.raises(GraphError):
            from_edge_list("5 input\n")


class TestNetworkxInterop:
    def test_round_trip(self):
        dag = make_random_dag(16)
        assert dags_equal(dag, from_networkx(to_networkx(dag)))

    def test_operand_order_preserved(self):
        from repro.graphs import DAGBuilder

        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        b.add_add([y, x])  # reversed operand order
        dag = b.build()
        back = from_networkx(to_networkx(dag))
        assert back.predecessors(2) == (1, 0)

    def test_cyclic_graph_rejected(self):
        g = nx.DiGraph()
        g.add_node(0, op="add")
        g.add_node(1, op="add")
        g.add_edge(0, 1)
        g.add_edge(1, 0)
        with pytest.raises(GraphError):
            from_networkx(g)

    def test_missing_op_attribute_rejected(self):
        g = nx.DiGraph()
        g.add_node(0)
        with pytest.raises(GraphError):
            from_networkx(g)

    def test_arbitrary_node_labels(self):
        g = nx.DiGraph()
        g.add_node("a", op="input")
        g.add_node("b", op="input")
        g.add_node("sum", op="add")
        g.add_edge("a", "sum", operand=0)
        g.add_edge("b", "sum", operand=1)
        dag = from_networkx(g)
        assert dag.num_nodes == 3
        assert dag.num_inputs == 2

    def test_networkx_is_optional(self):
        """networkx is an optional extra: with it unimportable, repro
        still imports and builds a workload; only the converters need
        it, and they say so when called."""
        script = textwrap.dedent("""
            import sys
            sys.modules["networkx"] = None  # any import of it fails
            import repro
            from repro.workloads import build_workload
            dag = build_workload("tretail", scale=0.02)
            assert dag.num_nodes > 0
            try:
                repro.graphs.to_networkx(dag)
            except ImportError:
                print("ok")
        """)
        src = str(Path(repro.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


class TestRelabel:
    def test_relabel_is_topological(self):
        dag = make_random_dag(17)
        relabeled = relabel_topological(dag)
        for node in relabeled.nodes():
            for pred in relabeled.predecessors(node):
                assert pred < node

    def test_relabel_preserves_structure_counts(self):
        dag = make_random_dag(18)
        relabeled = relabel_topological(dag)
        assert relabeled.num_nodes == dag.num_nodes
        assert relabeled.num_edges == dag.num_edges
        assert relabeled.num_inputs == dag.num_inputs
