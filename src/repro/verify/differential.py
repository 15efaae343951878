"""The three-way differential oracle.

One scenario = one synthetic DAG (:class:`~repro.workloads.synth.
SynthParams`) pushed through the full compile -> lower -> execute
pipeline and cross-checked along every redundant path the stack offers:

* **reference vs scalar vs batch** — the golden interpreter
  (:func:`repro.sim.reference.evaluate_dag` on the binarized DAG), the
  scalar verifying simulator (:class:`repro.sim.functional.Simulator`)
  and the vectorized batch engine (:class:`repro.sim.batch.
  BatchSimulator`) must agree **bitwise** on every materialized value:
  all three perform the same IEEE-double operations in the same tree
  order, so any divergence at all is a bug, not noise;
* **analytic vs observed counters** — the
  :class:`~repro.sim.functional.ActivityCounters` derived analytically
  at plan lowering must equal what the scalar simulator counts while
  executing, and the batch engine's totals must be the per-row
  counters scaled exactly by B;
* **warm vs cold cache** — recompiling through
  :func:`repro.runner.cache.cached_compile` /
  :func:`~repro.runner.cache.cached_plan` (a pickle round-trip through
  the content-addressed artifact store, exercising the digest-based
  ``node_map`` translation) must reproduce the cold path's outputs
  bitwise;
* **served vs direct** — with ``serve`` enabled, the batch's rows are
  pushed one request at a time through the live micro-batcher
  (:mod:`repro.serve`), forced to coalesce them into at least two
  micro-batches, and the scattered per-request responses must equal
  the direct batch execution bitwise — the fuzzer drives the serving
  stack with every shape the generators produce;
* **fused vs batch** — with ``fused`` enabled, the same batch is
  re-executed through the fused super-op engine (:mod:`repro.sim.
  fused`), whose outputs and activity counters must equal the step
  interpreter's bitwise — the fused lowering only regroups
  independent lanes and reuses dead cells, so any drift at all is a
  lowering bug;
* **image round-trip** — with ``image`` enabled, the compiled program
  is serialized to a binary artifact image (:mod:`repro.runner.
  imageio`), decoded back through the real bitstream decoder, and
  re-encoded: the re-encoded bitstream must equal the original
  byte-for-byte, the round-tripped program must execute bitwise
  identically, and the plan image must reload to a bitwise-identical
  batch execution.  A deliberately corrupted image (one payload byte
  flipped, checksum left stale) must be *rejected* by the loader.

:func:`diff_check_dag` runs the oracle on a bare DAG and returns the
first mismatch (or ``None``); :func:`check_scenario` wraps it with
scenario bookkeeping into a picklable :class:`ScenarioOutcome` for the
fuzzer's process pool.

Fault injection
---------------
``fault=<name>`` deliberately corrupts one executor (see
:data:`FAULTS`) so the harness can prove — in tests and demos — that
each cross-check actually fires and that the shrinker reduces the
failure to a minimal reproducer.  Faults are threaded through the
scenario description, so they survive pickling to worker processes
and re-fire during shrinking.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arch import ArchConfig, DEFAULT_TOPOLOGY, encode_program
from ..compiler import CompileResult, compile_dag
from ..errors import ReproError, SpillError, VerificationError
from ..graphs import DAG, binarize, validate
from ..runner.cache import NullCache, cached_compile, cached_plan, get_cache
from ..runner.fingerprint import dag_fingerprint
from ..sim import BatchSimulator, evaluate_dag, run_program
from ..workloads.synth import SynthParams

#: Supported injected faults: name -> which cross-check must catch it.
FAULTS: dict[str, str] = {
    "batch_output": "scalar-vs-batch",
    "scalar_value": "reference-vs-scalar",
    "counter_drift": "plan-vs-scalar-counters",
    "warm_output": "warm-vs-cold",
    "partition_boundary": "partitioned-vs-reference",
    "serve_output": "served-vs-direct",
    "router_output": "routed-vs-direct",
    "fused_output": "fused-vs-batch",
    "image_corrupt": "image-roundtrip",
}


def config_from_label(label: str) -> ArchConfig:
    """Parse a ``D3-B64-R32`` style label (the CLI's config syntax).

    Raises:
        VerificationError: On a malformed label.
    """
    try:
        parts = dict(
            (piece[0].upper(), int(piece[1:])) for piece in label.split("-")
        )
        return ArchConfig(
            depth=parts["D"], banks=parts["B"], regs_per_bank=parts["R"]
        )
    except (KeyError, ValueError, IndexError) as exc:
        raise VerificationError(
            f"invalid config label {label!r}; expected e.g. D3-B64-R32"
        ) from exc


@dataclass(frozen=True)
class Scenario:
    """One fuzzing work item: what to generate and how to execute it.

    Everything here is plain data — picklable for the process pool and
    JSON-able for repro-case artifacts.
    """

    params: SynthParams
    config_label: str = "D2-B8-R16"
    value_seed: int = 0
    batch: int = 3
    fault: str | None = None
    #: When set, the oracle additionally compiles through the
    #: partition-parallel path (pieces of at most this many nodes,
    #: ``partition_jobs`` workers) and cross-checks the stitched
    #: execution bitwise against the reference.
    partition_threshold: int | None = None
    partition_jobs: int = 1
    #: When set, the oracle additionally drives the batch's rows
    #: through the live micro-batcher (:func:`repro.serve.service.
    #: serve_rows`, forced to split the batch across micro-batches)
    #: and cross-checks the scattered responses bitwise against the
    #: direct batch execution.
    serve: bool = False
    #: When set, the oracle additionally re-executes the batch through
    #: the fused super-op engine and cross-checks outputs and counters
    #: bitwise against the step interpreter.
    fused: bool = False
    #: When set, the oracle additionally round-trips the compiled
    #: program and the execution plan through binary artifact images
    #: (:mod:`repro.runner.imageio`) and cross-checks the re-encoded
    #: bitstream byte-for-byte plus the reloaded execution bitwise.
    image: bool = False

    def config(self) -> ArchConfig:
        return config_from_label(self.config_label)


@dataclass(frozen=True)
class Mismatch:
    """A differential disagreement: which oracle stage, and the detail."""

    stage: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.stage}] {self.detail}"


@dataclass(frozen=True)
class DiffReport:
    """What :func:`diff_check_dag` observed on one DAG."""

    mismatch: Mismatch | None
    cycles: int = 0  # plan cycles/row; 0 when the pipeline broke early

    @property
    def ok(self) -> bool:
        return self.mismatch is None


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of pushing one scenario through the oracle."""

    scenario: Scenario
    status: str  # "ok" | "mismatch" | "skipped"
    mismatch: Mismatch | None
    nodes: int
    fingerprint: str
    cycles: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _bitwise_equal(a: float, b: float) -> bool:
    """IEEE bit equality, except NaN == NaN (any NaN means both paths
    overflowed the same way) and -0.0 == +0.0."""
    return a == b or (np.isnan(a) and np.isnan(b))


def _validate_fault(fault: str | None) -> None:
    if fault is not None and fault not in FAULTS:
        raise VerificationError(
            f"unknown fault {fault!r}; choose from {sorted(FAULTS)}"
        )


def _input_matrix(num_inputs: int, batch: int, value_seed: int) -> np.ndarray:
    """Deterministic input rows, kept near 1.0 so deep product chains
    stay finite (overflow to inf is still handled bitwise)."""
    rng = np.random.default_rng(value_seed)
    return rng.uniform(0.9, 1.1, size=(batch, max(num_inputs, 1)))


def diff_check_dag(
    dag: DAG,
    config: ArchConfig,
    value_seed: int = 0,
    batch: int = 3,
    fault: str | None = None,
    compile_seed: int = 0,
    partition_threshold: int | None = None,
    partition_jobs: int = 1,
    serve: bool = False,
    fused: bool = False,
    image: bool = False,
) -> DiffReport:
    """Run the full three-way differential oracle on one DAG.

    Returns a :class:`DiffReport` whose ``mismatch`` is ``None`` when
    every cross-check agrees, else the first disagreement.

    With ``partition_threshold`` set (or the ``partition_boundary``
    fault selected, which implies a threshold of half the DAG), the
    oracle also compiles through the partition-parallel path and
    checks the stitched scalar and batch executions bitwise against
    the reference interpreter.

    With ``serve`` set (or the ``serve_output`` fault, which implies
    it), the oracle also pushes the batch's rows through the live
    micro-batcher — split across at least two micro-batches whenever
    B > 1 — and checks the scattered per-request responses bitwise
    against the direct batch execution.

    With ``fused`` set (or the ``fused_output`` fault, which implies
    it), the oracle also re-executes the batch through the fused
    super-op engine and checks its outputs and counters bitwise
    against the step interpreter's.

    With ``image`` set (or the ``image_corrupt`` fault, which implies
    it), the oracle also serializes the compiled program and the
    execution plan to binary artifact images, reloads both, and
    checks that the re-encoded bitstream is byte-identical and that
    the reloaded artifacts execute bitwise like the originals — and
    that a deliberately corrupted image is rejected by the loader.

    Raises:
        SpillError: When the config genuinely cannot hold the DAG's
            live set — the caller decides whether that is a *skip*
            (fuzzing tight configs) or a failure.
        VerificationError: On an unknown ``fault`` name.
    """
    stats: dict[str, int] = {}
    mismatch = _oracle(
        dag, config, value_seed, batch, fault, compile_seed, stats,
        partition_threshold, partition_jobs, serve, fused, image,
    )
    return DiffReport(mismatch, cycles=stats.get("cycles", 0))


def _oracle(
    dag: DAG,
    config: ArchConfig,
    value_seed: int,
    batch: int,
    fault: str | None,
    compile_seed: int,
    stats: dict[str, int],
    partition_threshold: int | None = None,
    partition_jobs: int = 1,
    serve: bool = False,
    fused: bool = False,
    image: bool = False,
) -> Mismatch | None:
    _validate_fault(fault)
    validate(dag)

    # ---- compile (cold path: memoized when a cache is configured) ---
    cache = get_cache()
    caching = not isinstance(cache, NullCache)
    try:
        if caching:
            result: CompileResult = cached_compile(
                dag, config, topology=DEFAULT_TOPOLOGY, seed=compile_seed
            )
        else:
            result = compile_dag(
                dag, config, topology=DEFAULT_TOPOLOGY, seed=compile_seed
            )
    except SpillError:
        raise
    except ReproError as exc:
        return Mismatch("compile", f"{type(exc).__name__}: {exc}")

    # ---- reference interpreter on the binarized DAG -----------------
    matrix = _input_matrix(dag.num_inputs, batch, value_seed)
    bdag = binarize(dag).dag
    reference_rows = [
        evaluate_dag(bdag, list(row[: dag.num_inputs])) for row in matrix
    ]

    # ---- scalar verifying simulator (row 0, full checking) ----------
    try:
        sim = run_program(
            result.program,
            list(matrix[0][: dag.num_inputs]),
            check_addresses=result.allocation.read_addrs,
        )
    except ReproError as exc:
        return Mismatch("scalar-verify", f"{type(exc).__name__}: {exc}")
    scalar_values = dict(sim.values)
    if fault == "scalar_value" and scalar_values:
        worst = max(scalar_values)
        scalar_values[worst] = float(
            np.nextafter(scalar_values[worst], np.inf)
        )
    for var in sorted(scalar_values):
        if not _bitwise_equal(scalar_values[var], reference_rows[0][var]):
            return Mismatch(
                "reference-vs-scalar",
                f"var {var}: scalar {scalar_values[var]!r} != reference "
                f"{reference_rows[0][var]!r}",
            )

    # ---- verified lowering + analytic counters ----------------------
    try:
        plan = cached_plan(result) if caching else result.plan()
    except ReproError as exc:
        return Mismatch("lowering", f"{type(exc).__name__}: {exc}")
    stats["cycles"] = plan.cycles_per_row
    plan_counters = plan.counters
    if fault == "counter_drift":
        import dataclasses as _dc

        plan_counters = _dc.replace(
            plan_counters, pe_ops=plan_counters.pe_ops + 1
        )
    if plan_counters != sim.counters:
        return Mismatch(
            "plan-vs-scalar-counters",
            f"analytic {plan_counters} != simulated {sim.counters}",
        )

    # ---- vectorized batch engine ------------------------------------
    try:
        batch_result = BatchSimulator(plan).run(matrix)
    except ReproError as exc:
        return Mismatch("batch-execute", f"{type(exc).__name__}: {exc}")
    outputs = {var: col.copy() for var, col in batch_result.outputs.items()}
    if fault == "batch_output" and outputs:
        worst = max(outputs)
        outputs[worst][0] = np.nextafter(outputs[worst][0], np.inf)
    for var in sorted(outputs):
        if var in sim.outputs and not _bitwise_equal(
            float(outputs[var][0]), sim.outputs[var]
        ):
            return Mismatch(
                "scalar-vs-batch",
                f"var {var} row 0: batch {float(outputs[var][0])!r} != "
                f"scalar {sim.outputs[var]!r}",
            )
        for row in range(batch_result.batch):
            want = reference_rows[row][var]
            if not _bitwise_equal(float(outputs[var][row]), want):
                return Mismatch(
                    "reference-vs-batch",
                    f"var {var} row {row}: batch "
                    f"{float(outputs[var][row])!r} != reference {want!r}",
                )
    if batch_result.counters != plan.counters.scaled(batch_result.batch):
        return Mismatch(
            "batch-counters",
            f"batch totals are not per-row counters x {batch_result.batch}",
        )

    # ---- fused engines vs step interpreter --------------------------
    if fused or fault == "fused_output":
        mismatch = _check_fused(batch_result, plan, matrix, fault)
        if mismatch is not None:
            return mismatch

    # ---- binary artifact image round-trip ---------------------------
    if image or fault == "image_corrupt":
        mismatch = _check_image(result, plan, batch_result, matrix, fault)
        if mismatch is not None:
            return mismatch

    # ---- live micro-batcher vs direct batch execution ---------------
    if serve or fault in ("serve_output", "router_output"):
        mismatch = _check_served(batch_result, plan, matrix, fault)
        if mismatch is not None:
            return mismatch

    # ---- partition-parallel compile vs monolithic -------------------
    threshold = partition_threshold
    if fault == "partition_boundary" and threshold is None:
        # The fault targets the stitched boundary values, so imply a
        # threshold that forces at least two pieces at any DAG size.
        threshold = max(1, dag.num_nodes // 2)
    if threshold is not None and dag.num_nodes > threshold:
        mismatch = _check_partitioned(
            dag, config, compile_seed, threshold, partition_jobs,
            matrix, reference_rows, result, fault,
        )
        if mismatch is not None:
            return mismatch

    # ---- warm cache vs cold path ------------------------------------
    if caching:
        warm = cached_compile(
            dag, config, topology=DEFAULT_TOPOLOGY, seed=compile_seed
        )
        # The hit path re-derives node_map from structural digests, so
        # nodes with structurally *duplicate* twins may map to a
        # different — but value-equal — variable.  Compare the mapped
        # values, not the variable ids.
        for node in dag.nodes():
            cold_var = result.node_map[node]
            warm_var = warm.node_map[node]
            if cold_var == warm_var:
                continue
            if cold_var in sim.values and warm_var in sim.values:
                if _bitwise_equal(
                    sim.values[cold_var], sim.values[warm_var]
                ):
                    continue
            elif _bitwise_equal(
                float(reference_rows[0][cold_var]),
                float(reference_rows[0][warm_var]),
            ):
                continue
            return Mismatch(
                "warm-vs-cold",
                f"cache hit mapped node {node} to var {warm_var}, cold "
                f"compile to var {cold_var}, and their values differ",
            )
        warm_plan = cached_plan(warm)  # pickle round-trip of the plan
        warm_batch = BatchSimulator(warm_plan).run(matrix)
        warm_outputs = dict(warm_batch.outputs)
        if fault == "warm_output" and warm_outputs:
            worst = max(warm_outputs)
            col = warm_outputs[worst].copy()
            col[0] = np.nextafter(col[0], np.inf)
            warm_outputs[worst] = col
        if sorted(warm_outputs) != sorted(batch_result.outputs):
            return Mismatch(
                "warm-vs-cold", "warm run stored a different output set"
            )
        for var in sorted(warm_outputs):
            for row in range(batch_result.batch):
                if not _bitwise_equal(
                    float(warm_outputs[var][row]),
                    float(batch_result.outputs[var][row]),
                ):
                    return Mismatch(
                        "warm-vs-cold",
                        f"var {var} row {row}: warm "
                        f"{float(warm_outputs[var][row])!r} != cold "
                        f"{float(batch_result.outputs[var][row])!r}",
                    )
        if warm_plan.counters != plan.counters:
            return Mismatch(
                "warm-vs-cold", "warm plan counters diverged from cold"
            )
    elif fault == "warm_output":
        # The fault targets the cache path; without a cache it cannot
        # fire, which would silently weaken fault-injection tests.
        raise VerificationError(
            "fault 'warm_output' needs a configured artifact cache"
        )

    return None


def _check_fused(
    batch_result,
    plan,
    matrix: np.ndarray,
    fault: str | None,
) -> Mismatch | None:
    """Fused-engine cross-check: the fused super-op engine re-executes
    the same batch and must match the step interpreter bitwise —
    outputs *and* activity counters (fusion regroups independent lanes
    and reuses dead cells; it must not change a single IEEE operation
    or the analytic activity model)."""
    try:
        fused_result = BatchSimulator(plan, engine="fused").run(matrix)
    except ReproError as exc:
        return Mismatch("fused-execute", f"{type(exc).__name__}: {exc}")
    outputs = dict(fused_result.outputs)
    if fault == "fused_output" and outputs:
        worst = max(outputs)
        col = outputs[worst].copy()
        col[0] = np.nextafter(col[0], np.inf)
        outputs[worst] = col
    if sorted(outputs) != sorted(batch_result.outputs):
        return Mismatch(
            "fused-vs-batch",
            "fused engine stored a different output-variable set",
        )
    for var in sorted(outputs):
        direct = batch_result.outputs[var]
        for row in range(batch_result.batch):
            if not _bitwise_equal(
                float(outputs[var][row]), float(direct[row])
            ):
                return Mismatch(
                    "fused-vs-batch",
                    f"var {var} row {row}: fused "
                    f"{float(outputs[var][row])!r} != step "
                    f"{float(direct[row])!r}",
                )
    if fused_result.counters != batch_result.counters:
        return Mismatch(
            "fused-vs-batch",
            "fused engine counters diverged from the step interpreter's",
        )
    return None


def _check_image(
    result: CompileResult,
    plan,
    batch_result,
    matrix: np.ndarray,
    fault: str | None,
) -> Mismatch | None:
    """Image round-trip cross-check: serialize the compiled program
    and the execution plan to binary artifact images, reload both,
    and demand bitwise identity end to end.

    Three properties are enforced:

    * **bitstream stability** — re-encoding the round-tripped program
      reproduces the original packed bitstream byte-for-byte (the
      image carries no redundant re-derivable state that could
      drift);
    * **behavioral identity** — the round-tripped program executes on
      the scalar verifying simulator (with address checking against
      the round-tripped read addresses) to bitwise-equal outputs, and
      the reloaded plan's batch execution matches the original's
      outputs and counters bitwise;
    * **corruption rejection** — flipping one payload byte while
      leaving the header checksum stale must make the loader raise
      :class:`~repro.errors.ImageError`; a loader that silently
      accepts a corrupt image is itself the bug.
    """
    from ..errors import ImageError
    from ..runner.imageio import (
        dump_plan,
        dump_program,
        load_plan,
        load_program,
    )

    program = result.program
    read_addrs = result.allocation.read_addrs
    try:
        prog_buf = dump_program(program, read_addrs)
        prog2, addrs2 = load_program(prog_buf)
    except ReproError as exc:
        return Mismatch("image-io", f"program: {type(exc).__name__}: {exc}")
    if addrs2 != read_addrs:
        return Mismatch(
            "image-roundtrip", "program image read addresses drifted"
        )
    original = encode_program(program, read_addrs)
    reencoded = encode_program(prog2, addrs2)
    if (
        reencoded.data != original.data
        or reencoded.total_bits != original.total_bits
        or reencoded.lengths != original.lengths
    ):
        return Mismatch(
            "image-roundtrip",
            "re-encoded bitstream differs from the original encoding",
        )
    try:
        sim2 = run_program(
            prog2, list(matrix[0]), check_addresses=addrs2
        )
    except ReproError as exc:
        return Mismatch(
            "image-roundtrip",
            f"round-tripped program failed: {type(exc).__name__}: {exc}",
        )
    for var in sorted(batch_result.outputs):
        if var not in sim2.outputs:
            return Mismatch(
                "image-roundtrip",
                f"round-tripped program dropped output var {var}",
            )
        if not _bitwise_equal(
            float(sim2.outputs[var]), float(batch_result.outputs[var][0])
        ):
            return Mismatch(
                "image-roundtrip",
                f"var {var}: round-tripped program "
                f"{float(sim2.outputs[var])!r} != direct "
                f"{float(batch_result.outputs[var][0])!r}",
            )

    try:
        plan_buf = dump_plan(plan)
        plan2 = load_plan(plan_buf)
    except ReproError as exc:
        return Mismatch("image-io", f"plan: {type(exc).__name__}: {exc}")
    try:
        image_result = BatchSimulator(plan2).run(matrix)
    except ReproError as exc:
        return Mismatch(
            "image-roundtrip",
            f"image-loaded plan failed: {type(exc).__name__}: {exc}",
        )
    outputs = dict(image_result.outputs)
    if fault == "image_corrupt" and outputs:
        worst = max(outputs)
        col = outputs[worst].copy()
        # nextafter(inf, inf) is a no-op — overflowed outputs need a
        # different corruption or the injected fault silently vanishes.
        col[0] = (
            np.nextafter(col[0], np.inf) if np.isfinite(col[0]) else 0.0
        )
        outputs[worst] = col
    if sorted(outputs) != sorted(batch_result.outputs):
        return Mismatch(
            "image-roundtrip",
            "image-loaded plan stored a different output-variable set",
        )
    for var in sorted(outputs):
        direct = batch_result.outputs[var]
        for row in range(batch_result.batch):
            if not _bitwise_equal(
                float(outputs[var][row]), float(direct[row])
            ):
                return Mismatch(
                    "image-roundtrip",
                    f"var {var} row {row}: image-loaded "
                    f"{float(outputs[var][row])!r} != direct "
                    f"{float(direct[row])!r}",
                )
    if image_result.counters != batch_result.counters:
        return Mismatch(
            "image-roundtrip",
            "image-loaded plan counters diverged from the original's",
        )

    # Corruption must be *detected*: flip one payload byte without
    # repatching the checksum and demand the loader refuses it.
    corrupt = bytearray(plan_buf)
    corrupt[-1] ^= 0xFF  # last payload byte: never in the header
    try:
        load_plan(bytes(corrupt))
    except ImageError:
        pass
    else:
        return Mismatch(
            "image-roundtrip",
            "loader accepted an image with a flipped payload byte",
        )
    return None


def _check_served(
    batch_result,
    plan,
    matrix: np.ndarray,
    fault: str | None,
) -> Mismatch | None:
    """Served-vs-direct cross-check: rows pushed through the live
    micro-batcher (request queue -> coalesce -> execute -> scatter)
    must come back bitwise identical to the direct batch execution.

    ``max_batch`` is chosen to split the batch across at least two
    micro-batches whenever B > 1, so the scatter/reassembly path is
    genuinely exercised, not just a single passthrough batch.

    The same rows are then pushed through a live two-shard
    :class:`~repro.serve.router.ShardRouter` whose owning shard is
    drained and restarted mid-stream (:func:`repro.serve.router.
    route_rows`): bitwise parity must survive routing, draining and
    shard restarts too (stage ``routed-vs-direct``).
    """
    from ..serve.router import route_rows
    from ..serve.service import serve_rows

    max_batch = max(1, (batch_result.batch + 1) // 2)
    try:
        served = serve_rows(plan, matrix, max_batch=max_batch)
    except ReproError as exc:
        return Mismatch("serve-execute", f"{type(exc).__name__}: {exc}")
    if fault == "serve_output" and served:
        worst = max(served)
        col = served[worst].copy()
        col[0] = np.nextafter(col[0], np.inf)
        served[worst] = col
    if sorted(served) != sorted(batch_result.outputs):
        return Mismatch(
            "served-vs-direct",
            "micro-batcher returned a different output-variable set",
        )
    for var in sorted(served):
        direct = batch_result.outputs[var]
        for row in range(batch_result.batch):
            if not _bitwise_equal(float(served[var][row]), float(direct[row])):
                return Mismatch(
                    "served-vs-direct",
                    f"var {var} row {row}: served "
                    f"{float(served[var][row])!r} != direct "
                    f"{float(direct[row])!r} (max_batch={max_batch})",
                )

    try:
        routed = route_rows(plan, matrix, max_batch=max_batch)
    except ReproError as exc:
        return Mismatch("route-execute", f"{type(exc).__name__}: {exc}")
    if fault == "router_output" and routed:
        worst = max(routed)
        col = routed[worst].copy()
        col[0] = np.nextafter(col[0], np.inf)
        routed[worst] = col
    if sorted(routed) != sorted(batch_result.outputs):
        return Mismatch(
            "routed-vs-direct",
            "shard router returned a different output-variable set",
        )
    for var in sorted(routed):
        direct = batch_result.outputs[var]
        for row in range(batch_result.batch):
            if not _bitwise_equal(float(routed[var][row]), float(direct[row])):
                return Mismatch(
                    "routed-vs-direct",
                    f"var {var} row {row}: routed "
                    f"{float(routed[var][row])!r} != direct "
                    f"{float(direct[row])!r} (through drain+restart, "
                    f"max_batch={max_batch})",
                )
    return None


def _check_partitioned(
    dag: DAG,
    config: ArchConfig,
    compile_seed: int,
    threshold: int,
    jobs: int,
    matrix: np.ndarray,
    reference_rows: list[np.ndarray],
    result: CompileResult,
    fault: str | None,
) -> Mismatch | None:
    """Partitioned-compile cross-check: the stitched scalar and batch
    executions must match the reference interpreter bitwise on every
    extracted node (boundary values, keeps and sinks)."""
    try:
        part = compile_dag(
            dag,
            config,
            topology=DEFAULT_TOPOLOGY,
            seed=compile_seed,
            validate_input=False,
            partition_threshold=threshold,
            jobs=jobs,
        )
    except SpillError:
        raise
    except ReproError as exc:
        return Mismatch(
            "partition-compile", f"{type(exc).__name__}: {exc}"
        )
    node_map = result.node_map

    try:
        stitched = part.run(list(matrix[0][: dag.num_inputs]))
    except ReproError as exc:
        return Mismatch(
            "partition-execute", f"{type(exc).__name__}: {exc}"
        )
    if fault == "partition_boundary" and stitched:
        worst = max(stitched)
        stitched[worst] = float(np.nextafter(stitched[worst], np.inf))
    for node in sorted(stitched):
        want = float(reference_rows[0][node_map[node]])
        if not _bitwise_equal(stitched[node], want):
            return Mismatch(
                "partitioned-vs-reference",
                f"node {node}: stitched {stitched[node]!r} != reference "
                f"{want!r} ({part.num_pieces} pieces, jobs={jobs})",
            )

    try:
        stitched_batch = part.run_batch(matrix[:, : dag.num_inputs])
    except ReproError as exc:
        return Mismatch(
            "partition-batch-execute", f"{type(exc).__name__}: {exc}"
        )
    for node in sorted(stitched_batch):
        col = stitched_batch[node]
        for row in range(len(matrix)):
            want = float(reference_rows[row][node_map[node]])
            if not _bitwise_equal(float(col[row]), want):
                return Mismatch(
                    "partitioned-batch-vs-reference",
                    f"node {node} row {row}: stitched "
                    f"{float(col[row])!r} != reference {want!r}",
                )
    return None


def check_scenario(scenario: Scenario) -> ScenarioOutcome:
    """Generate a scenario's DAG and run the oracle; never raises for
    pipeline disagreements (they come back as ``status="mismatch"``).

    ``SpillError`` (the config legitimately cannot fit the DAG) maps
    to ``status="skipped"`` — tight register files are part of the
    scenario pool on purpose, and an honest skip is better than
    excluding them.
    """
    dag = scenario.params.build()
    fingerprint = dag_fingerprint(dag)
    try:
        report = diff_check_dag(
            dag,
            scenario.config(),
            value_seed=scenario.value_seed,
            batch=scenario.batch,
            fault=scenario.fault,
            partition_threshold=scenario.partition_threshold,
            partition_jobs=scenario.partition_jobs,
            serve=scenario.serve,
            fused=scenario.fused,
            image=scenario.image,
        )
    except SpillError as exc:
        return ScenarioOutcome(
            scenario=scenario,
            status="skipped",
            mismatch=Mismatch("spill", str(exc)),
            nodes=dag.num_nodes,
            fingerprint=fingerprint,
            cycles=0,
        )
    return ScenarioOutcome(
        scenario=scenario,
        status="ok" if report.ok else "mismatch",
        mismatch=report.mismatch,
        nodes=dag.num_nodes,
        fingerprint=fingerprint,
        cycles=report.cycles,
    )
