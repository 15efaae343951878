"""Unit tests for validation and statistics."""

import pytest

from repro.errors import GraphError
from repro.graphs import (
    DAG,
    DAGBuilder,
    dag_stats,
    fan_in_histogram,
    fan_out_histogram,
    validate,
)
from repro.testing import make_random_dag


class TestValidate:
    def test_valid_dag_passes(self):
        validate(make_random_dag(21))

    def test_dead_node_detected(self):
        b = DAGBuilder()
        x, y = b.add_input(), b.add_input()
        b.add_add([x, y])
        b.add_mul([x, y])  # both are sinks; fine
        validate(b.build())
        # Now a leaf that feeds nothing:
        b2 = DAGBuilder()
        b2.add_input()
        x2, y2 = b2.add_input(), b2.add_input()
        b2.add_add([x2, y2])
        with pytest.raises(GraphError):
            validate(b2.build())

    def test_binary_only_flag(self):
        dag = make_random_dag(22, max_fan_in=5)
        with pytest.raises(GraphError):
            validate(dag, binary_only=True)


class TestStats:
    def test_stats_fields(self):
        dag = make_random_dag(28)
        s = dag_stats(dag)
        assert s.nodes == dag.num_nodes
        assert s.operations == dag.num_operations
        assert s.avg_parallelism == pytest.approx(
            dag.num_nodes / s.longest_path
        )
        assert 0.0 <= s.add_fraction <= 1.0

    def test_as_row_format(self):
        row = dag_stats(make_random_dag(29, name="w")).as_row()
        assert row["workload"] == "w"
        assert "n/l" in row

    def test_fan_in_histogram_counts_ops_only(self):
        dag = make_random_dag(30)
        hist = fan_in_histogram(dag)
        assert sum(hist.values()) == dag.num_operations
        assert all(k >= 2 for k in hist)

    def test_fan_out_histogram_total(self):
        dag = make_random_dag(31)
        hist = fan_out_histogram(dag)
        assert sum(hist.values()) == dag.num_nodes
        assert sum(k * v for k, v in hist.items()) == dag.num_edges
