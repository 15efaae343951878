"""Property-based tests (hypothesis) on the core invariants.

These are the DESIGN.md invariants exercised over *generated* inputs:
random DAG shapes, random architecture points, random value vectors.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch import ArchConfig, BitReader, BitWriter, RegisterBank
from repro.compiler import compile_dag
from repro.errors import RegisterFileError
from repro.graphs import (
    DAGBuilder,
    OpType,
    binarize,
    longest_path_length,
    node_levels,
    topological_order,
)
from repro.sim import evaluate_dag, run_program
from repro.testing import random_inputs, reference_values


# ---------------------------------------------------------------------------
# DAG strategies
# ---------------------------------------------------------------------------
@st.composite
def dag_strategy(draw, max_ops: int = 40):
    """Random connected DAG with all leaves consumed."""
    num_leaves = draw(st.integers(min_value=2, max_value=6))
    num_ops = draw(st.integers(min_value=1, max_value=max_ops))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    b = DAGBuilder()
    leaves = [b.add_input() for _ in range(num_leaves)]
    pool = list(leaves)
    unused = list(leaves)
    for _ in range(num_ops):
        k = rng.randint(2, 4)
        preds = set(rng.sample(pool, min(k, len(pool))))
        if unused:
            preds.add(unused.pop())
        op = rng.choice([OpType.ADD, OpType.MUL])
        pool.append(b.add_op(op, sorted(preds)))
    while unused:  # tiny op counts may leave leaves unconsumed
        extra = {unused.pop(), pool[-1]}
        if len(extra) < 2:
            extra.add(pool[0])
        pool.append(b.add_op(OpType.ADD, sorted(extra)))
    return b.build("hyp")


@st.composite
def config_strategy(draw):
    depth = draw(st.sampled_from([1, 2, 3]))
    banks = draw(st.sampled_from([8, 16]))
    regs = draw(st.sampled_from([4, 8, 32]))
    return ArchConfig(depth=depth, banks=banks, regs_per_bank=regs)


def _compile_or_reject(dag, cfg):
    """Compile, rejecting (DAG, config) pairs the compiler legitimately
    cannot fit — the tightest sampled register files (R=4) cannot hold
    every generated DAG's live set, which raises a clean SpillError and
    is not the invariant under test here."""
    from repro.errors import SpillError

    try:
        return compile_dag(dag, cfg)
    except SpillError:
        assume(False)


# ---------------------------------------------------------------------------
# Invariant 1: golden equivalence of the whole stack
# ---------------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dag=dag_strategy(), cfg=config_strategy(), value_seed=st.integers(0, 99))
def test_compile_simulate_equals_reference(dag, cfg, value_seed):
    result = _compile_or_reject(dag, cfg)
    inputs = random_inputs(dag, seed=value_seed)
    reference = reference_values(dag, inputs)
    sim = run_program(
        result.program,
        inputs,
        reference=reference,
        check_addresses=result.allocation.read_addrs,
    )
    ref = evaluate_dag(dag, inputs)
    for node in dag.sinks():
        assert np.isclose(sim.values[result.node_map[node]], ref[node])


# ---------------------------------------------------------------------------
# Invariant 1b: the batched engine matches per-row scalar runs exactly
# ---------------------------------------------------------------------------
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    dag=dag_strategy(),
    cfg=config_strategy(),
    batch=st.integers(min_value=1, max_value=9),
    value_seed=st.integers(0, 99),
)
def test_batched_engine_matches_per_row_scalar(dag, cfg, batch, value_seed):
    from repro.sim import BatchSimulator

    result = _compile_or_reject(dag, cfg)
    plan = result.plan()  # one-time verified lowering
    rng = np.random.default_rng(value_seed)
    matrix = rng.uniform(0.8, 1.2, size=(batch, dag.num_inputs))
    batched = BatchSimulator(plan).run(matrix)
    for row in range(batch):
        scalar = run_program(result.program, list(matrix[row]))
        for var, column in batched.outputs.items():
            assert column[row] == scalar.outputs[var]  # bitwise
    scalar_counters = run_program(result.program, list(matrix[0])).counters
    assert batched.counters == scalar_counters.scaled(batch)


# ---------------------------------------------------------------------------
# Invariant 2: binarization preserves semantics
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(dag=dag_strategy(), value_seed=st.integers(0, 99))
def test_binarize_preserves_semantics(dag, value_seed):
    result = binarize(dag)
    assert result.dag.is_binary()
    inputs = random_inputs(dag, seed=value_seed)
    original = evaluate_dag(dag, inputs)
    expanded = evaluate_dag(result.dag, inputs)
    for node in dag.nodes():
        assert np.isclose(original[node], expanded[result.node_map[node]])


# ---------------------------------------------------------------------------
# Graph-theoretic invariants
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(dag=dag_strategy())
def test_topological_order_is_consistent(dag):
    order = topological_order(dag)
    pos = {n: i for i, n in enumerate(order)}
    for node in dag.nodes():
        for pred in dag.predecessors(node):
            assert pos[pred] < pos[node]


@settings(max_examples=50, deadline=None)
@given(dag=dag_strategy())
def test_levels_bound_longest_path(dag):
    levels = node_levels(dag)
    assert longest_path_length(dag) == max(levels) + 1


# ---------------------------------------------------------------------------
# Invariant 6: automatic write policy determinism
# ---------------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    ops=st.lists(
        st.sampled_from(["reserve", "release_oldest"]),
        min_size=1,
        max_size=40,
    )
)
def test_priority_encoder_always_lowest_free(ops):
    bank = RegisterBank(0, 16)
    live: list[int] = []
    var = 0
    for op in ops:
        if op == "reserve" and bank.occupancy < 16:
            addr = bank.reserve(var)
            # Lowest-free property: nothing below addr is free.
            assert all(a in [x[0] for x in live] or a == addr
                       for a in range(addr + 1))
            bank.commit(addr, var, 0.0)
            live.append((addr, var))
            var += 1
        elif op == "release_oldest" and live:
            addr, _ = live.pop(0)
            bank.release(addr)


# ---------------------------------------------------------------------------
# Invariant 8: bit stream round trip
# ---------------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    fields=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=24),  # width
            st.integers(min_value=0, max_value=2**24 - 1),  # raw value
        ),
        min_size=1,
        max_size=30,
    )
)
def test_bitstream_round_trip(fields):
    writer = BitWriter()
    expected = []
    for width, raw in fields:
        value = raw & ((1 << width) - 1)
        writer.write(value, width)
        expected.append((width, value))
    reader = BitReader(writer.to_bytes(), writer.bit_length)
    for width, value in expected:
        assert reader.read(width) == value
    assert reader.remaining == 0


# ---------------------------------------------------------------------------
# Compiler structural invariants under random inputs
# ---------------------------------------------------------------------------
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(dag=dag_strategy(max_ops=60), cfg=config_strategy())
def test_compiled_program_structural_invariants(dag, cfg):
    from repro.arch import ExecInstr
    from repro.compiler import check_decomposition, verify_hazard_free

    result = compile_dag(dag, cfg)
    check_decomposition(result.decomposition)
    verify_hazard_free(list(result.program.instructions), cfg)
    assert max(result.allocation.peak_occupancy) <= cfg.regs_per_bank
    for instr in result.program.instructions:
        if isinstance(instr, ExecInstr):
            banks = [b for b, _ in instr.bank_reads]
            assert len(banks) == len(set(banks))
            wbanks = [w.bank for w in instr.writes]
            assert len(wbanks) == len(set(wbanks))
