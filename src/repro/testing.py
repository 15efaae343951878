"""Shared test/benchmark helpers: DAG generators and verification glue.

Importable from the test suite and the benchmark scripts alike.
Keeping them inside the package also lets examples and downstream
users generate the same randomized workloads the tests exercise.
"""

from __future__ import annotations

import random

from .arch import ArchConfig
from .graphs import DAG, DAGBuilder, OpType, binarize


def make_random_dag(
    seed: int,
    num_leaves: int = 8,
    num_ops: int = 60,
    max_fan_in: int = 4,
    recent_window: int = 25,
    name: str | None = None,
) -> DAG:
    """Random layered-ish DAG used across tests.

    Sampling from a recent window keeps depth/width realistic; values
    are kept near 1.0 in tests to avoid float overflow in deep
    multiply chains.
    """
    rng = random.Random(seed)
    builder = DAGBuilder()
    leaves = [builder.add_input() for _ in range(num_leaves)]
    pool = list(leaves)
    unused = list(leaves)
    for i in range(num_ops):
        k = rng.randint(2, max_fan_in)
        source = pool[-recent_window:] if len(pool) > recent_window else pool
        preds = set(rng.sample(source, min(k, len(source))))
        if unused:  # guarantee every leaf feeds the computation
            preds.add(unused.pop())
        op = OpType.ADD if rng.random() < 0.5 else OpType.MUL
        pool.append(builder.add_op(op, sorted(preds)))
    return builder.build(name or f"rand{seed}")


def make_chain_dag(length: int = 20, name: str = "chain") -> DAG:
    """Serial dependency chain — worst case for pipelining."""
    builder = DAGBuilder()
    a = builder.add_input()
    b = builder.add_input()
    node = builder.add_add([a, b])
    for i in range(length - 1):
        leaf = builder.add_input()
        op = OpType.MUL if i % 2 else OpType.ADD
        node = builder.add_op(op, [node, leaf])
    return builder.build(name)


def make_wide_dag(width: int = 32, name: str = "wide") -> DAG:
    """One flat reduction layer — maximal parallelism."""
    builder = DAGBuilder()
    leaves = [builder.add_input() for _ in range(2 * width)]
    mids = [
        builder.add_mul([leaves[2 * i], leaves[2 * i + 1]])
        for i in range(width)
    ]
    builder.add_add(mids)
    return builder.build(name)


def random_inputs(dag: DAG, seed: int = 0, lo: float = 0.8, hi: float = 1.2):
    rng = random.Random(seed)
    return [rng.uniform(lo, hi) for _ in range(dag.num_inputs)]


def reference_values(dag: DAG, inputs) -> dict[int, float]:
    """Golden values for every *binarized* variable of ``dag``."""
    from .sim import evaluate_dag

    bdag = binarize(dag).dag
    values = evaluate_dag(bdag, inputs)
    return {v: float(values[v]) for v in range(bdag.num_nodes)}


def compile_and_verify(dag: DAG, config: ArchConfig, seed: int = 0):
    """Compile, simulate with full checking, return (result, sim)."""
    from .compiler import compile_dag
    from .sim import run_program

    result = compile_dag(dag, config, seed=seed)
    inputs = random_inputs(dag, seed=seed + 1)
    reference = reference_values(dag, inputs)
    sim = run_program(
        result.program,
        inputs,
        reference=reference,
        check_addresses=result.allocation.read_addrs,
    )
    return result, sim


def permute_dag(dag: DAG, perm: list[int]) -> DAG:
    """Renumber ``dag``'s nodes by ``perm`` (``perm[old] = new``).

    The result is the same computation under a different node
    numbering: operations, edges and external input slots are all
    preserved.  Used by the cache tests to check that content
    addresses are invariant under node reordering.
    """
    n = dag.num_nodes
    inverse = [0] * n
    for old, new in enumerate(perm):
        inverse[new] = old
    ops = [dag.op(inverse[i]) for i in range(n)]
    preds = [
        [perm[p] for p in dag.predecessors(inverse[i])] for i in range(n)
    ]
    input_slots = [
        dag.input_slot(inverse[i])
        for i in range(n)
        if ops[i] is OpType.INPUT
    ]
    return DAG(ops, preds, input_slots=input_slots, name=dag.name)
