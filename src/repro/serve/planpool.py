"""Warm pool of served programs: fingerprint-keyed fused plans.

A serving process must never compile on the request path twice for the
same program.  :class:`PlanPool` memoizes :class:`ServedProgram`
entries — a compiled + fused, ready-to-execute program — keyed by
the *content* identity :func:`repro.runner.fingerprint.dag_fingerprint`
(plus config/seed), so two registrations of structurally identical
DAGs under different names share one plan.  A miss compiles through
the content-addressed artifact cache (:func:`repro.runner.cache.
cached_compile` / :func:`~repro.runner.cache.cached_fused_plan`),
so a cold *process* with a warm *disk cache* (a restarted shard, or
every shard after the first behind a
:class:`~repro.serve.router.ShardRouter`) registers programs in
milliseconds: two pickle loads, no compile, lowering or fusion.

Access is guarded by an RLock: the asyncio service calls from the
event-loop thread while registrations and tests may touch a pool from
other threads.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..errors import ServeError
from ..graphs import DAG, OpType, from_json
from ..obs import trace
from ..runner.cache import cached_compile, cached_fused_plan
from ..runner.fingerprint import config_fingerprint, dag_fingerprint
from ..sim import BatchSimulator
from ..workloads import DEFAULT_SCALE, SynthParams, build_workload
from ..workloads.suite import _BY_NAME as _SUITE_NAMES

#: Default architecture point for served programs (the paper's
#: min-EDP design, same as the CLI default).
DEFAULT_CONFIG_LABEL = "D3-B64-R32"


def _config_from_label(label: str):
    from ..arch import ArchConfig

    try:
        parts = dict(
            (piece[0].upper(), int(piece[1:])) for piece in label.split("-")
        )
        return ArchConfig(
            depth=parts["D"], banks=parts["B"], regs_per_bank=parts["R"]
        )
    except (KeyError, ValueError, IndexError) as exc:
        raise ServeError(
            f"invalid config label {label!r}; expected e.g. D3-B64-R32"
        ) from exc


@dataclass(frozen=True)
class ProgramSpec:
    """Picklable identity of one served program.

    Resolution order for the DAG source: ``synth`` params if set, else
    ``dag_json`` if set, else ``name`` as a Table-I / synth suite
    workload regenerated at ``scale``.  Every shard process rebuilds
    the identical DAG from this spec (generators are seeded and
    fingerprint-stable), and the artifact cache keys by content — so
    all shards converge on the same cached plan.  Served traffic runs
    on the fused batch engine (:mod:`repro.sim.batch`).
    """

    name: str
    config_label: str = DEFAULT_CONFIG_LABEL
    seed: int = 0
    scale: float = DEFAULT_SCALE
    synth: SynthParams | None = None
    dag_json: str | None = None

    @property
    def key(self) -> str:
        """The queue/routing key clients address requests to."""
        return self.name

    def build_dag(self) -> DAG:
        if self.synth is not None:
            dag = self.synth.build()
            dag.name = self.name
            return dag
        if self.dag_json is not None:
            dag = from_json(self.dag_json)
            dag.name = self.name
            return dag
        if self.name not in _SUITE_NAMES:
            raise ServeError(
                f"unknown workload {self.name!r}; registered suite "
                f"names: {sorted(_SUITE_NAMES)[:8]}..."
            )
        return build_workload(self.name, scale=self.scale)

    def config(self):
        return _config_from_label(self.config_label)


@dataclass
class ServedProgram:
    """One ready-to-execute program in the warm pool.

    ``execute_rows`` runs a batch assembled from independent request
    rows and returns ``sink node -> (B,) float64`` output columns —
    keyed by the DAG's sink node ids, the stable vocabulary clients
    and the parity checker share.
    """

    key: str
    spec: ProgramSpec
    fingerprint: str
    num_inputs: int
    num_nodes: int
    cycles_per_row: int
    sink_vars: tuple[tuple[int, int], ...]  # (sink node, variable)
    _executor: Callable[[Sequence[np.ndarray]], dict[int, np.ndarray]] = field(
        repr=False
    )

    def execute_rows(
        self, rows: Sequence[np.ndarray]
    ) -> dict[int, np.ndarray]:
        """Execute B request rows; ``sink node -> (B,)`` columns."""
        return self._executor(rows)

    def output_nodes(self) -> list[int]:
        return [node for node, _ in self.sink_vars]


def _plan_executor(plan, sink_vars):
    """Serve through one fused plan (an execution plan is fused on the
    spot) on the batch engine."""
    # One simulator per served program: its per-batch-width bound
    # sweeps are built here and reused, not per dispatched micro-batch.
    sim = BatchSimulator(plan)

    def execute(rows: Sequence[np.ndarray]) -> dict[int, np.ndarray]:
        result = sim.run_rows(rows)
        outputs = {}
        for node, var in sink_vars:
            col = result.outputs.get(var)
            if col is None:
                raise ServeError(
                    f"plan did not materialize output var {var} "
                    f"(sink node {node})"
                )
            outputs[node] = col
        return outputs

    return execute


def build_served_program(spec: ProgramSpec) -> ServedProgram:
    """Compile and fuse one spec into a ready-to-serve program.

    Goes through the content-addressed artifact cache, so repeated
    builds of the same content (across processes, restarts, shards)
    skip compilation.
    """
    dag = spec.build_dag()
    config = spec.config()
    fingerprint = dag_fingerprint(dag)
    sinks = [s for s in dag.sinks() if dag.op(s) is not OpType.INPUT]
    if not sinks:
        raise ServeError(
            f"program {spec.key!r} has no computable outputs"
        )
    result = cached_compile(dag, config, seed=spec.seed)
    fused = cached_fused_plan(result)
    sink_vars = tuple((s, result.node_map[s]) for s in sinks)
    return ServedProgram(
        key=spec.key,
        spec=spec,
        fingerprint=fingerprint,
        num_inputs=fused.num_inputs,
        num_nodes=dag.num_nodes,
        cycles_per_row=fused.cycles_per_row,
        sink_vars=sink_vars,
        _executor=_plan_executor(fused, sink_vars),
    )


class PlanPool:
    """Thread-safe LRU pool of :class:`ServedProgram` entries.

    Entries are stored once per content identity ``(dag fingerprint,
    config fingerprint, seed)``; routing keys (:attr:`ProgramSpec.key`)
    alias into that store, so serving the same structure under two
    names costs one plan.  ``hits`` and ``misses`` count lookups; the
    service's ``GET /metrics`` renders them as
    ``repro_planpool_lookups_total``.
    """

    def __init__(self, max_programs: int = 32) -> None:
        if max_programs < 1:
            raise ServeError(
                f"max_programs must be >= 1, got {max_programs}"
            )
        self.max_programs = max_programs
        self._lock = threading.RLock()
        self._by_content: OrderedDict[tuple, ServedProgram] = OrderedDict()
        self._by_key: dict[str, tuple] = {}
        self.hits = 0
        self.misses = 0

    def _content_key(self, spec: ProgramSpec, fingerprint: str) -> tuple:
        return (fingerprint, config_fingerprint(spec.config()), spec.seed)

    def register(self, spec: ProgramSpec) -> ServedProgram:
        """Get-or-build the served program for ``spec``.

        The build happens outside the lock (compiles can take
        seconds); two racing registrations of the same content at
        worst both build — the second install wins, matching the
        artifact cache's last-writer-wins discipline.
        """
        with self._lock:
            content = self._by_key.get(spec.key)
            if content is not None and content in self._by_content:
                existing = self._by_content[content]
                # A key hit only counts when the build recipe matches:
                # re-registering a name with a different spec must
                # rebuild, not silently serve the old program.
                if existing.spec == spec:
                    self.hits += 1
                    self._by_content.move_to_end(content)
                    return existing
        with trace.span("planpool.build", "serve", program=spec.key):
            program = build_served_program(spec)
        content = self._content_key(spec, program.fingerprint)
        with self._lock:
            existing = self._by_content.get(content)
            if existing is not None:
                self.hits += 1
                self._by_content.move_to_end(content)
                self._by_key[spec.key] = content
                return existing
            self.misses += 1
            self._install(spec.key, content, program)
            return program

    def install(self, program: ServedProgram) -> None:
        """Directly install a pre-built program (tests, the
        differential serve hook, pre-lowered plans)."""
        content = self._content_key(program.spec, program.fingerprint)
        with self._lock:
            self._install(program.key, content, program)

    def _install(
        self, key: str, content: tuple, program: ServedProgram
    ) -> None:
        self._by_content[content] = program
        self._by_content.move_to_end(content)
        self._by_key[key] = content
        while len(self._by_content) > self.max_programs:
            evicted, _ = self._by_content.popitem(last=False)
            self._by_key = {
                k: c for k, c in self._by_key.items() if c != evicted
            }

    def get(self, key: str) -> ServedProgram:
        """Look up a registered program by routing key.

        Raises:
            ServeError: Unknown key (the service maps this to a
                client-visible error, never a crash).
        """
        with self._lock:
            content = self._by_key.get(key)
            if content is None or content not in self._by_content:
                raise ServeError(
                    f"unknown program {key!r}; registered: "
                    f"{sorted(self._by_key)}"
                )
            self.hits += 1
            self._by_content.move_to_end(content)
            return self._by_content[content]

    def keys(self) -> list[str]:
        with self._lock:
            return sorted(self._by_key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._by_content)
