"""Content-addressed fingerprints for DAGs, configs and compilations.

The artifact cache (:mod:`repro.runner.cache`) must key compiled
programs by *what was compiled*, not by how the caller happened to
number the DAG's nodes: two structurally identical DAGs whose node
ids are permuted compile to programs with identical metrics, so they
should share one cache entry.  The fingerprint here is therefore
**permutation-invariant**:

* every node gets a structural digest covering both its ancestor cone
  (operation, input slots, predecessor digests in operand order) and
  its consumer structure (see :func:`node_digests`);
* the DAG digest combines the *sorted multiset* of node digests, so
  relabeling nodes cannot change it, while adding, removing or
  rewiring any node (including changing sharing vs. recomputation)
  does.

Two nodes with equal structural digests compute the same value on
every input vector, which is what lets the cache translate a stored
``node -> variable`` map onto a permuted requesting DAG (see
:func:`node_digests` users in :mod:`repro.runner.cache`).

Config and compile-option fingerprints are plain canonical-encoding
hashes; :data:`COMPILER_CACHE_VERSION` is folded into every compile
key and must be bumped whenever a compiler or activity-model change
alters what a cached artifact would contain.
"""

from __future__ import annotations

import dataclasses
import hashlib

from ..arch import ArchConfig, Topology
from ..graphs import DAG, OpType, topological_order

#: Version tag of the cached-artifact schema.  Bump on any compiler,
#: activity-model or payload-layout change so stale artifacts miss.
COMPILER_CACHE_VERSION = "4"  # 4: uncoalesced tape, MoveStep without slice metadata

_DIGEST_BYTES = 16


def _h(*parts: bytes) -> bytes:
    h = hashlib.blake2b(digest_size=_DIGEST_BYTES)
    for part in parts:
        h.update(part)
    return h.digest()


def node_digests(dag: DAG) -> list[bytes]:
    """Structural digest of every node, indexed by node id.

    Built in two sweeps:

    1. *upward*: hash of the operation, the external input slot (for
       leaves) and the predecessors' upward digests in operand order —
       equal upward digests imply the nodes compute identical
       functions of the input vector;
    2. *downward*: the upward digest refined with the sorted multiset
       of the consumers' downward digests, so the digest also pins
       down how the value is *used*.  Without this, rewiring a
       consumer from one node to a structurally duplicate node (same
       cone, different fan-out) would not change the DAG fingerprint,
       even though the compiled program can differ.

    The final (downward) digests keep the value-equality property of
    the upward ones, which is what lets the cache remap a stored
    ``node -> variable`` table onto any equal-fingerprint DAG.
    """
    order = topological_order(dag)
    up: list[bytes | None] = [None] * dag.num_nodes
    for node in order:
        op = dag.op(node)
        if op is OpType.INPUT:
            up[node] = _h(
                b"in", dag.input_slot(node).to_bytes(4, "little")
            )
        else:
            up[node] = _h(
                op.name.encode(),
                *(up[p] for p in dag.predecessors(node)),
            )
    down: list[bytes | None] = [None] * dag.num_nodes
    for node in reversed(order):
        down[node] = _h(
            up[node],
            *sorted(down[s] for s in dag.successors(node)),
        )
    return down  # type: ignore[return-value]


def dag_fingerprint(dag: DAG, digests: list[bytes] | None = None) -> str:
    """Permutation-invariant hex digest of the DAG structure.

    Stable under any relabeling of node ids; changes whenever a node,
    edge, operation, input slot or the sharing structure changes.  The
    workload *name* is deliberately excluded — the cache addresses
    content, not labels.
    """
    if digests is None:
        digests = node_digests(dag)
    return _h(
        len(digests).to_bytes(8, "little"), *sorted(digests)
    ).hex()


def config_fingerprint(config: ArchConfig) -> str:
    """Canonical digest of every field of an :class:`ArchConfig`."""
    fields = sorted(
        (f.name, repr(getattr(config, f.name)))
        for f in dataclasses.fields(config)
    )
    return _h(repr(fields).encode()).hex()


def compile_key(
    dag: DAG,
    config: ArchConfig,
    topology: Topology,
    seed: int,
    mapping_strategy: str,
    keep_digests: tuple[bytes, ...] = (),
    digests: list[bytes] | None = None,
) -> str:
    """Cache key for one ``compile_dag`` invocation.

    Everything that can change the compiled program participates:
    the structural DAG fingerprint, the full config, the interconnect
    topology, the mapper seed and strategy, the kept-node set and the
    compiler version.
    """
    parts = [
        b"compile",
        COMPILER_CACHE_VERSION.encode(),
        dag_fingerprint(dag, digests=digests).encode(),
        config_fingerprint(config).encode(),
        topology.value.encode(),
        str(seed).encode(),
        mapping_strategy.encode(),
        *sorted(keep_digests),
    ]
    return _h(*parts).hex()


def plan_key(base_key: str, topology: Topology) -> str:
    """Identity of the :class:`~repro.sim.plan.ExecutionPlan` lowered
    from the compilation identified by ``base_key``: the base of the
    fused plan's cache key (:func:`fused_key`); the lowered plan
    itself is not stored."""
    return _h(b"plan", base_key.encode(), topology.value.encode()).hex()


def fused_key(plan_cache_key: str) -> str:
    """Cache key for a :class:`~repro.sim.fused.FusedPlan` lowered from
    the plan identified by ``plan_cache_key``.

    The fused layout version (:data:`repro.sim.fused.FUSED_LAYOUT`)
    takes part, so a cache written by an older lowering is never
    served.
    """
    from ..sim.fused import FUSED_LAYOUT  # local: sim is not a hard dep

    return _h(
        b"fused", FUSED_LAYOUT.encode(), plan_cache_key.encode()
    ).hex()


def metrics_key(base_key: str) -> str:
    """Cache key for derived per-workload metrics (latency/energy per
    op) of the compilation identified by ``base_key``.

    The metrics are a pure function of the compiled program and the
    activity/energy models, both covered by
    :data:`COMPILER_CACHE_VERSION` inside ``base_key`` — so a warm DSE
    sweep can skip loading the program artifact entirely.
    """
    return _h(b"metrics", base_key.encode()).hex()
