"""The differential oracle: one registry of cross-checks.

One scenario = one synthetic DAG (:class:`~repro.workloads.synth.
SynthParams`) pushed through the full compile -> lower -> execute
pipeline once — the golden interpreter (:func:`repro.sim.reference.
evaluate_dag` on the binarized DAG), the scalar verifying simulator
(:class:`repro.sim.functional.Simulator`), verified lowering and the
fused batch engine (:class:`repro.sim.batch.BatchSimulator`) — and
then cross-checked along every redundant path the stack offers,
including :func:`interpret_plan`, the oracle's direct interpreter of
a plan's step tape.
Every executor performs the same IEEE-double operations in the same
tree order, so any divergence at all is a bug, not noise: outputs are
compared **bitwise**.

Each cross-check is one :class:`Stage` in :data:`STAGES` (tabulated
in :mod:`repro.verify`), declared once with the ``Mismatch.stage`` it
reports, the injected fault it must catch and the ``i % 4`` slot of
the fuzz scenarios that run it.  The stages run in registry order and
the first disagreement wins.  A stage's ``check`` docstring says what
it compares; ``warm-vs-cold`` only runs with an artifact cache
configured.

:func:`diff_check_dag` runs the oracle on a bare DAG and returns the
first mismatch (or ``None``); :func:`check_scenario` wraps it with
scenario bookkeeping into a picklable :class:`ScenarioOutcome` for the
fuzzer's worker processes.

Fault injection
---------------
``fault=<name>`` deliberately corrupts one executor (see
:data:`FAULTS`) so the harness can prove — in tests and demos — that
each cross-check actually fires and that the shrinker reduces the
failure to a minimal reproducer.  An armed fault also runs its stage,
whatever the scenario's ``stages``.  Faults are threaded through the
scenario description, so they survive pickling to worker processes
and re-fire during shrinking.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from ..arch import ArchConfig, DEFAULT_TOPOLOGY, encode_program
from ..compiler import CompileResult, compile_dag
from ..errors import ReproError, SpillError, VerificationError
from ..graphs import DAG, binarize, validate
from ..runner.cache import (
    NullCache,
    cached_compile,
    cached_fused_plan,
    get_cache,
)
from ..runner.fingerprint import dag_fingerprint
from ..sim import BatchSimulator, evaluate_dag, run_program
from ..sim.batch import BatchResult
from ..sim.functional import SimResult
from ..sim.fused import FusedPlan
from ..sim.plan import ExecutionPlan, MoveStep
from ..workloads.synth import SynthParams


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

    Everything here is plain data — picklable for worker processes and
    JSON-able for repro-case artifacts.
    """

    params: SynthParams
    config_label: str = "D2-B8-R16"
    value_seed: int = 0
    batch: int = 3
    fault: str | None = None
    #: Optional oracle stages (names from :data:`STAGES`) this
    #: scenario runs on top of the always-on ones.
    stages: tuple[str, ...] = ()

    def config(self) -> ArchConfig:
        return config_from_label(self.config_label)

    def diff_check(self, dag: DAG) -> DiffReport:
        """Run :func:`diff_check_dag` on ``dag`` with this scenario's
        execution settings."""
        return diff_check_dag(
            dag,
            self.config(),
            value_seed=self.value_seed,
            batch=self.batch,
            fault=self.fault,
            stages=self.stages,
        )


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


@dataclass(frozen=True)
class StageContext:
    """What every stage check reads: the pipeline's artifacts for one
    DAG, built once per oracle run."""

    dag: DAG
    config: ArchConfig
    compile_seed: int
    caching: bool  # an artifact cache is configured
    result: CompileResult
    sim: SimResult  # scalar verifying run of row 0
    plan: ExecutionPlan
    fused: FusedPlan  # what the batch engine and the served paths run
    matrix: np.ndarray  # (B, inputs) input rows
    reference: np.ndarray  # (B, vars) golden value of every variable
    batch: BatchResult  # direct batch execution of ``matrix``

    @property
    def rows(self) -> int:
        return len(self.matrix)

    def reference_of(self, keys: Iterable[int], var_of=None) -> dict:
        """Golden columns keyed like ``keys``: each key is a variable,
        or a DAG node that ``var_of`` (a ``node_map``) maps to one."""
        return {
            k: self.reference[:, k if var_of is None else var_of[k]]
            for k in keys
        }


@dataclass(frozen=True)
class Stage:
    """One registered cross-check of the oracle."""

    name: str  # the ``Mismatch.stage`` it reports
    fault: str  # the injected fault it must catch
    slot: int | None  # ``i % 4`` of the fuzz scenarios running it; None = all
    #: ``check(ctx, inject)`` -> first disagreement or ``None``;
    #: ``inject`` is True when this stage's fault is armed.
    check: Callable[[StageContext, bool], Mismatch | None]


def _failed(stage: str, exc: Exception) -> Mismatch:
    return Mismatch(stage, f"{type(exc).__name__}: {exc}")


def _same_outputs(
    stage: str,
    got: Mapping[int, Sequence[float]],
    want: Mapping[int, Sequence[float]],
    rows: int,
    inject: bool,
) -> Mismatch | None:
    """The one comparison every stage uses: ``got`` and ``want`` map
    the same keys to columns that agree bitwise on their first
    ``rows`` rows — except NaN == NaN (any NaN means both paths
    overflowed the same way) and -0.0 == +0.0.

    ``inject`` corrupts row 0 of ``got``'s highest key first — the
    injected fault.  ``nextafter`` is a no-op on ``inf``/``NaN``, so an
    overflowed value is replaced by ``0.0`` instead: the fault must
    not vanish on a DAG whose outputs overflow.
    """
    if inject and got:
        worst = max(got)
        col = np.array(got[worst], dtype=np.float64)
        col[0] = np.nextafter(col[0], np.inf) if np.isfinite(col[0]) else 0.0
        got = {**got, worst: col}
    if sorted(got) != sorted(want):
        return Mismatch(
            stage,
            f"different variable sets: {sorted(set(got) ^ set(want))} "
            "not on both sides",
        )
    for var in sorted(got):
        a = np.asarray(got[var], dtype=np.float64)[:rows]
        b = np.asarray(want[var], dtype=np.float64)[:rows]
        bad = np.flatnonzero((a != b) & ~(np.isnan(a) & np.isnan(b)))
        if bad.size:
            row = int(bad[0])
            return Mismatch(
                stage,
                f"var {var} row {row}: {float(a[row])!r} != "
                f"{float(b[row])!r}",
            )
    return None


def _scalars(values: Mapping[int, float]) -> dict[int, list[float]]:
    """One-row columns from a scalar run's ``var -> value`` map."""
    return {var: [value] for var, value in values.items()}


def _check_scalar(ctx: StageContext, inject: bool) -> Mismatch | None:
    """Every value the scalar verifying simulator materialized for
    row 0 equals the golden interpreter's."""
    got = _scalars(ctx.sim.values)
    return _same_outputs(
        "reference-vs-scalar", got, ctx.reference_of(got), 1, inject
    )


def _check_counters(ctx: StageContext, inject: bool) -> Mismatch | None:
    """The :class:`~repro.sim.functional.ActivityCounters` derived
    analytically at plan lowering equal what the scalar simulator
    counted while executing."""
    counters = ctx.plan.counters
    if inject:
        counters = dataclasses.replace(counters, pe_ops=counters.pe_ops + 1)
    if counters != ctx.sim.counters:
        return Mismatch(
            "plan-vs-scalar-counters",
            f"analytic {counters} != simulated {ctx.sim.counters}",
        )
    return None


def _check_batch(ctx: StageContext, inject: bool) -> Mismatch | None:
    """The fused batch engine's row 0 equals the scalar simulator's
    stored outputs, every row equals the golden interpreter
    (``reference-vs-batch``), and its counter totals are exactly the
    per-row counters x B (``batch-counters``)."""
    outputs = ctx.batch.outputs
    mismatch = _same_outputs(
        "scalar-vs-batch", outputs, _scalars(ctx.sim.outputs), 1, inject
    ) or _same_outputs(
        "reference-vs-batch", outputs, ctx.reference_of(outputs),
        ctx.rows, inject,
    )
    if mismatch is None and ctx.batch.counters != ctx.plan.counters.scaled(
        ctx.rows
    ):
        return Mismatch(
            "batch-counters",
            f"batch totals are not per-row counters x {ctx.rows}",
        )
    return mismatch


def interpret_plan(plan: ExecutionPlan, matrix: np.ndarray) -> BatchResult:
    """The oracle's plan reference: ``plan``'s step tape run as it
    stands, one numpy gather/compute/scatter per step, on a fresh
    zeroed ``(state_size, B)`` machine image.

    No fusion, no cell reuse, no bound buffers — so when the fused
    batch engine disagrees with this, fusion is wrong; when both
    disagree with the scalar simulator, lowering is.
    """
    batch = len(matrix)
    state = np.zeros((plan.state_size, batch))
    with np.errstate(over="ignore", invalid="ignore"):
        state[plan.input_cells] = matrix[:, plan.input_slots].T
        for step in plan.steps:
            if type(step) is MoveStep:
                state[step.dst] = state[step.src]
                continue
            if step.mov_out.size:
                state[step.mov_out] = state[step.mov_src]
            if step.add_out.size:
                state[step.add_out] = state[step.add_a] + state[step.add_b]
            if step.mul_out.size:
                state[step.mul_out] = state[step.mul_a] * state[step.mul_b]
    return BatchResult(
        outputs=dict(zip(plan.output_vars, state[plan.output_cells])),
        batch=batch,
        counters=plan.scaled_counters(batch),
        peak_occupancy=list(plan.peak_occupancy),
    )


def _check_fused(ctx: StageContext, inject: bool) -> Mismatch | None:
    """The fused batch (:mod:`repro.sim.fused`) matches
    :func:`interpret_plan` on the same plan bitwise — outputs *and*
    activity counters (fusion regroups independent lanes and reuses
    dead cells; it must not change a single IEEE operation or the
    analytic activity model)."""
    tape = interpret_plan(ctx.plan, ctx.matrix)
    mismatch = _same_outputs(
        "fused-vs-batch", ctx.batch.outputs, tape.outputs, ctx.rows, inject
    )
    if mismatch is None and ctx.batch.counters != tape.counters:
        return Mismatch(
            "fused-vs-batch",
            "fused batch counters diverged from the plan interpreter's",
        )
    return mismatch


def _check_image(ctx: StageContext, inject: bool) -> Mismatch | None:
    """Serialize the compiled program to a binary artifact image
    (:mod:`repro.runner.imageio`), reload it, and demand bitwise
    identity end to end.

    Three properties are enforced:

    * **bitstream stability** — re-encoding the round-tripped program
      reproduces the original packed bitstream byte-for-byte (the
      image carries no redundant re-derivable state that could
      drift);
    * **behavioral identity** — the round-tripped program executes on
      the scalar verifying simulator (with address checking against
      the round-tripped read addresses) to outputs bitwise equal to
      the batch's row 0;
    * **corruption rejection** — flipping one payload byte while
      leaving the header checksum stale must make the loader raise
      :class:`~repro.errors.ImageError`; a loader that silently
      accepts a corrupt image is itself the bug.
    """
    from ..errors import ImageError
    from ..runner.imageio import dump_program, load_program

    program = ctx.result.program
    read_addrs = ctx.result.allocation.read_addrs
    try:
        image = dump_program(program, read_addrs)
        prog2, addrs2 = load_program(image)
    except ReproError as exc:
        return _failed("image-io", exc)
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
            prog2, list(ctx.matrix[0]), check_addresses=addrs2
        )
    except ReproError as exc:
        return _failed("image-roundtrip", exc)
    mismatch = _same_outputs(
        "image-roundtrip", _scalars(sim2.outputs), ctx.batch.outputs, 1,
        inject,
    )
    if mismatch is not None:
        return mismatch

    # Corruption must be *detected*: flip one payload byte without
    # repatching the checksum and demand the loader refuses it.
    corrupt = bytearray(image)
    corrupt[-1] ^= 0xFF  # last payload byte: never in the header
    try:
        load_program(bytes(corrupt))
    except ImageError:
        return None
    return Mismatch(
        "image-roundtrip",
        "loader accepted an image with a flipped payload byte",
    )


def _max_batch(ctx: StageContext) -> int:
    """A micro-batch cap that splits the batch across at least two
    micro-batches whenever B > 1, so the scatter/reassembly path is
    genuinely exercised, not just a single passthrough batch."""
    return max(1, (ctx.rows + 1) // 2)


def _check_served(ctx: StageContext, inject: bool) -> Mismatch | None:
    """Rows pushed one request at a time through the live
    micro-batcher (:func:`repro.serve.service.serve_rows`: request
    queue -> coalesce -> execute -> scatter) come back bitwise
    identical to the direct batch execution."""
    from ..serve.service import serve_rows

    try:
        served = serve_rows(ctx.fused, ctx.matrix, max_batch=_max_batch(ctx))
    except ReproError as exc:
        return _failed("serve-execute", exc)
    return _same_outputs(
        "served-vs-direct", served, ctx.batch.outputs, ctx.rows, inject
    )


def _check_routed(ctx: StageContext, inject: bool) -> Mismatch | None:
    """The same rows pushed through a live two-shard
    :class:`~repro.serve.router.ShardRouter` whose owning shard is
    drained and restarted mid-stream (:func:`repro.serve.router.
    route_rows`): bitwise parity must survive routing, draining and
    shard restarts too."""
    from ..serve.router import route_rows

    try:
        routed = route_rows(ctx.fused, ctx.matrix, max_batch=_max_batch(ctx))
    except ReproError as exc:
        return _failed("route-execute", exc)
    return _same_outputs(
        "routed-vs-direct", routed, ctx.batch.outputs, ctx.rows, inject
    )


def _check_warm(ctx: StageContext, inject: bool) -> Mismatch | None:
    """Recompiling through :func:`repro.runner.cache.cached_compile` /
    :func:`~repro.runner.cache.cached_fused_plan` (pickle round-trips
    of the compile result and of the fused plan through the
    content-addressed artifact store, exercising the digest-based
    ``node_map`` translation) reproduces the cold path's outputs and
    counters bitwise.  Runs only with a cache configured.

    Raises:
        VerificationError: ``warm_output`` armed without a cache — the
            fault could not fire, which would silently weaken
            fault-injection tests.
    """
    if not ctx.caching:
        if inject:
            raise VerificationError(
                "fault 'warm_output' needs a configured artifact cache"
            )
        return None
    warm = cached_compile(
        ctx.dag, ctx.config, topology=DEFAULT_TOPOLOGY, seed=ctx.compile_seed
    )
    # The hit path re-derives node_map from structural digests, so
    # nodes with structurally *duplicate* twins may map to a
    # different — but value-equal — variable.  Compare the golden
    # values of the two variables (keyed by node), not their ids; the
    # scalar simulator already matched the golden values.
    cold_map, warm_map = ctx.result.node_map, warm.node_map
    moved = [n for n in ctx.dag.nodes() if cold_map[n] != warm_map[n]]
    mismatch = _same_outputs(
        "warm-vs-cold", ctx.reference_of(moved, warm_map),
        ctx.reference_of(moved, cold_map), ctx.rows, False,
    )
    if mismatch is not None:
        return mismatch
    # The cold path stored the fused plan: this loads it back.
    warm_fused = cached_fused_plan(warm)
    warm_batch = BatchSimulator(warm_fused).run(ctx.matrix)
    mismatch = _same_outputs(
        "warm-vs-cold", warm_batch.outputs, ctx.batch.outputs, ctx.rows,
        inject,
    )
    if mismatch is None and warm_fused.counters != ctx.plan.counters:
        return Mismatch(
            "warm-vs-cold", "warm plan counters diverged from cold"
        )
    return mismatch


#: The oracle's cross-checks, in the order they run.  Adding a stage
#: is one entry here: its fault, fuzz slot, artifact persistence and
#: CLI help all derive from it.
STAGES: tuple[Stage, ...] = (
    Stage("reference-vs-scalar", "scalar_value", None, _check_scalar),
    Stage("plan-vs-scalar-counters", "counter_drift", None, _check_counters),
    Stage("scalar-vs-batch", "batch_output", None, _check_batch),
    Stage("fused-vs-batch", "fused_output", 2, _check_fused),
    Stage("image-roundtrip", "image_corrupt", 0, _check_image),
    Stage("served-vs-direct", "serve_output", 1, _check_served),
    Stage("routed-vs-direct", "router_output", 1, _check_routed),
    Stage("warm-vs-cold", "warm_output", None, _check_warm),
)

#: Supported injected faults: name -> which cross-check must catch it.
FAULTS: dict[str, str] = {s.fault: s.name for s in STAGES}


def _validate(fault: str | None, stages: Sequence[str]) -> None:
    if fault is not None and fault not in FAULTS:
        raise VerificationError(
            f"unknown fault {fault!r}; choose from {sorted(FAULTS)}"
        )
    unknown = sorted(set(stages) - {s.name for s in STAGES})
    if unknown:
        raise VerificationError(
            f"unknown oracle stages {unknown}; choose from "
            f"{[s.name for s in STAGES]}"
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
    stages: Sequence[str] = (),
) -> DiffReport:
    """Run the differential oracle on one DAG.

    Runs every always-on stage of :data:`STAGES`, every stage named in
    ``stages`` and the stage of an armed ``fault``.  Returns a
    :class:`DiffReport` whose ``mismatch`` is ``None`` when every
    cross-check agrees, else the first disagreement.

    Raises:
        SpillError: When the config genuinely cannot hold the DAG's
            live set — the caller decides whether that is a *skip*
            (fuzzing tight configs) or a failure.
        VerificationError: On an unknown ``fault`` or stage name.
    """
    _validate(fault, stages)
    validate(dag)
    ctx = _run_pipeline(dag, config, value_seed, batch, compile_seed)
    if isinstance(ctx, DiffReport):  # an executor broke outright
        return ctx
    cycles = ctx.plan.cycles_per_row
    for stage in STAGES:
        armed = stage.fault == fault
        if stage.slot is None or stage.name in stages or armed:
            mismatch = stage.check(ctx, armed)
            if mismatch is not None:
                return DiffReport(mismatch, cycles)
    return DiffReport(None, cycles)


def _run_pipeline(
    dag: DAG,
    config: ArchConfig,
    value_seed: int,
    batch: int,
    compile_seed: int,
) -> StageContext | DiffReport:
    """Compile ``dag`` and execute it once on every executor; a
    :class:`DiffReport` carries the first executor that raised."""
    # ---- compile (cold path: memoized when a cache is configured) ---
    caching = not isinstance(get_cache(), NullCache)
    compile_fn = cached_compile if caching else compile_dag
    try:
        result: CompileResult = compile_fn(
            dag, config, topology=DEFAULT_TOPOLOGY, seed=compile_seed
        )
    except SpillError:
        raise
    except ReproError as exc:
        return DiffReport(_failed("compile", exc))

    # ---- reference interpreter on the binarized DAG -----------------
    matrix = _input_matrix(dag.num_inputs, batch, value_seed)
    bdag = binarize(dag).dag
    reference = np.array(
        [evaluate_dag(bdag, list(row[: dag.num_inputs])) for row in matrix]
    )

    # ---- scalar verifying simulator (row 0, full checking) ----------
    try:
        sim = run_program(
            result.program,
            list(matrix[0][: dag.num_inputs]),
            check_addresses=result.allocation.read_addrs,
        )
    except ReproError as exc:
        return DiffReport(_failed("scalar-verify", exc))

    # ---- verified lowering + analytic counters ----------------------
    try:
        plan = result.plan()
    except ReproError as exc:
        return DiffReport(_failed("lowering", exc))

    # ---- fused batch engine: fused once, memoized when caching ------
    try:
        fused = cached_fused_plan(result)
        batch_result = BatchSimulator(fused).run(matrix)
    except ReproError as exc:
        return DiffReport(_failed("batch-execute", exc), plan.cycles_per_row)
    return StageContext(
        dag=dag,
        config=config,
        compile_seed=compile_seed,
        caching=caching,
        result=result,
        sim=sim,
        plan=plan,
        fused=fused,
        matrix=matrix,
        reference=reference,
        batch=batch_result,
    )


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
        report = scenario.diff_check(dag)
        status = "ok" if report.ok else "mismatch"
    except SpillError as exc:
        report = DiffReport(Mismatch("spill", str(exc)))
        status = "skipped"
    return ScenarioOutcome(
        scenario=scenario,
        status=status,
        mismatch=report.mismatch,
        nodes=dag.num_nodes,
        fingerprint=fingerprint,
        cycles=report.cycles,
    )
