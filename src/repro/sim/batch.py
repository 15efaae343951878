"""Phase 2 of the two-phase execution engine: vectorized batch runs.

Executes an :class:`~repro.sim.plan.ExecutionPlan` on a whole
``(B, num_inputs)`` input matrix in one sweep.  The state of all B
independent inferences is held in a single ``(cells, B)`` float64
array — one register-file/data-memory/scratch image per batch row,
sharing one allocation — and every tape step is a numpy
gather/compute/scatter over the batch dimension:

* :class:`~repro.sim.plan.MoveStep` — ``state[dst] = state[src]``;
* :class:`~repro.sim.plan.ComputeStep` — one fancy-indexed ``+`` /
  ``*`` / copy per opcode group of one PE-tree layer.

No verification happens here: the plan was verified at lowering time
(hazards, interconnect legality, address predictions, memory tags),
so the per-row cost is pure arithmetic.  Outputs are bitwise identical
to the scalar simulator's — both paths perform the same IEEE-double
operations in the same tree order (asserted across the golden
workloads in the test suite).

Engine selection
----------------
The simulator executes the sweep with one of two engines:

* ``"fused"`` — the plan is further lowered into level-grouped
  super-op kernels over a liveness-compacted state
  (:mod:`repro.sim.fused`) and run ~2 kernels per dependence level
  instead of one dispatch per tape step.  This is the production
  engine; ``"auto"`` is an accepted name for it;
* ``"step"`` (the constructor default) — the per-tape-step
  interpreter above, kept as the differential oracle's batch
  reference.

Both engines are bitwise identical (same IEEE-double operations, only
independent lanes regrouped); the differential fuzzer cross-checks
them continuously.
"""

from __future__ import annotations

import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from ..arch import Interconnect, Program
from ..errors import SimulationError
from ..obs import trace
from .functional import ActivityCounters
from .fused import (
    FusedPlan,
    _execute_fused_traced,
    bind_sweep,
    execute_fused,
    fuse_plan,
)
from .plan import (
    ComputeStep,
    ExecutionPlan,
    MoveStep,
    contiguous_slice,
    lower_program,
)

#: Accepted engine names; ``"auto"`` always resolves to ``"fused"``.
ENGINES = ("step", "fused", "auto")

#: Bound (state, sweep) pairs retained per simulator: one per distinct
#: batch width, oldest evicted beyond this many (bounds the buffer
#: memory a simulator serving many batch shapes can pin).
BOUND_SWEEP_CAP = 8


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched execution.

    Attributes:
        outputs: ``var -> (B,) float64`` final value of every output
            variable across the batch.
        batch: Number of rows executed.
        counters: Activity totals for the whole batch (the single-run
            counters scaled by B — execution is static, so this is
            exact, not an estimate).
        peak_occupancy: Per-bank peak register usage (identical for
            every row).
        host_seconds: Wall-clock the host spent executing the sweep.
    """

    outputs: dict[int, np.ndarray]
    batch: int
    counters: ActivityCounters
    peak_occupancy: list[int]
    host_seconds: float = 0.0

    @property
    def cycles(self) -> int:
        """Device cycles for the whole batch (B sequential runs)."""
        return self.counters.cycles

    @property
    def host_rows_per_second(self) -> float:
        if self.host_seconds <= 0:
            return 0.0
        return self.batch / self.host_seconds

    def row_outputs(self, row: int) -> dict[int, float]:
        """Outputs of one batch row, in the scalar simulator's shape."""
        return {var: float(col[row]) for var, col in self.outputs.items()}

    def scatter_rows(self) -> list[dict[int, float]]:
        """Per-row output dicts, in batch-row order.

        This is the result-scatter half of micro-batched serving: a
        batch assembled from B independent requests comes back as B
        per-request responses.  The column-to-scalar conversion is
        exact (no rounding), so scattered values stay bitwise equal to
        the batch columns.
        """
        return [self.row_outputs(row) for row in range(self.batch)]


class BatchSimulator:
    """Executes a lowered plan over batches of input rows.

    Construct from a :class:`~repro.sim.plan.ExecutionPlan` (reusing a
    verified lowering) or directly from a
    :class:`~repro.arch.Program` (lowered — and therefore verified —
    on construction).

    Args:
        plan_or_program: The plan (or program to lower) to execute.
        interconnect: Interconnect model for a program lowering.
        engine: One of :data:`ENGINES`; see the module docstring.
        fused_plan: Optional pre-fused plan (e.g. from
            :func:`repro.runner.cache.cached_fused_plan`) to reuse for
            the fused engine instead of fusing here.
    """

    def __init__(
        self,
        plan_or_program: ExecutionPlan | Program,
        interconnect: Interconnect | None = None,
        engine: str = "step",
        fused_plan: FusedPlan | None = None,
    ) -> None:
        if isinstance(plan_or_program, ExecutionPlan):
            self.plan = plan_or_program
        else:
            self.plan = lower_program(
                plan_or_program, interconnect=interconnect
            )
        if engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "auto":
            engine = "fused"
        self.engine = engine
        self._fused: FusedPlan | None = None
        # Bound (state, sweep) pairs keyed by batch width, guarded by
        # a non-blocking lock: concurrent runs of one simulator fall
        # back to a fresh throwaway state instead of serializing.
        self._bound: dict[int, tuple[np.ndarray, Callable[[], None]]] = {}
        self._bound_lock = threading.Lock()
        if engine == "fused":
            if fused_plan is None:
                fused_plan = fuse_plan(self.plan)
            elif (
                fused_plan.num_inputs != self.plan.num_inputs
                or fused_plan.output_vars != self.plan.output_vars
            ):
                raise SimulationError(
                    "fused_plan does not match the execution plan"
                )
            self._fused = fused_plan
        active = self._fused if self._fused is not None else self.plan
        self._output_cells = active.output_cells
        # The fused engine scatters inputs into the compact fused
        # state; the step engine into the machine-state image.
        self._input_cells = (
            self._fused.input_pos
            if self._fused is not None
            else self.plan.input_cells
        )
        # The compact fused layout keeps base cells ascending, so the
        # input region is almost always one basic slice — the scatter
        # then writes straight into the state without a fancy index.
        self._input_seg = (
            contiguous_slice(self._input_cells)
            if self._fused is not None
            else None
        )
        # Slot-sorted copies of the input scatter arrays, prepared
        # once: when the sorted slots are exactly 0..k-1 (the usual
        # case), per-row assembly in run_rows degrades to a basic
        # slice — a straight memcpy instead of a bounds-checked
        # gather, which matters at wide num_inputs.
        slots = self.plan.input_slots
        order = np.argsort(slots, kind="stable")
        self._slots_sorted = slots[order]
        self._cells_sorted = self._input_cells[order]
        self._dense_inputs = bool(
            slots.size
            and np.array_equal(
                self._slots_sorted,
                np.arange(slots.size, dtype=slots.dtype),
            )
        )

    def run(self, inputs: np.ndarray) -> BatchResult:
        """Execute a ``(B, num_inputs)`` input matrix in one sweep.

        A 1-D vector is treated as a batch of one.

        Raises:
            SimulationError: If the input matrix is the wrong shape.
        """
        plan = self.plan
        matrix = np.asarray(inputs, dtype=np.float64)
        if matrix.ndim == 1:
            matrix = matrix[np.newaxis, :]
        if matrix.ndim != 2:
            raise SimulationError(
                f"expected a (B, num_inputs) matrix, got shape "
                f"{matrix.shape}"
            )
        if matrix.shape[1] < plan.num_inputs:
            raise SimulationError(
                f"input matrix too narrow: need {plan.num_inputs} "
                f"columns, got {matrix.shape[1]}"
            )
        batch = matrix.shape[0]
        if batch < 1:
            raise SimulationError("input matrix has no rows to execute")
        t0 = time.perf_counter()
        state, sweep, lock = self._acquire_state(batch)
        try:
            if self._input_cells.size:
                if self._input_seg is not None:
                    # Contiguous fused input region: gather the slot
                    # columns straight into the state slice, no
                    # intermediate and no fancy write.
                    np.take(
                        matrix.T,
                        plan.input_slots,
                        0,
                        state[self._input_seg[0] : self._input_seg[1]],
                        "clip",
                    )
                else:
                    # Index the transposed *view* so the gather lands
                    # directly in (slots, B) scatter order — one copy
                    # total, never a (B, slots) intermediate plus a
                    # strided assignment.
                    state[self._input_cells] = matrix.T[plan.input_slots]
            return self._finish(state, batch, t0, sweep)
        finally:
            if lock is not None:
                lock.release()

    def run_rows(self, rows: Sequence[np.ndarray]) -> BatchResult:
        """Execute a batch assembled from B independent row vectors.

        This is the serving hot path: requests arrive as separate
        (and usually non-contiguous) row vectors, possibly of
        *heterogeneous* widths — each row only needs at least
        ``plan.num_inputs`` leading entries, so rows sliced out of
        wider tenant buffers are accepted as-is.  Only the
        ``input_slots`` cells of each row are gathered, straight into
        the ``(slots, B)`` scatter source; the full ``(B, num_inputs)``
        matrix is never materialized, so there is no assembly copy
        beyond the single unavoidable gather.

        Bitwise identical to ``run(np.stack([...]))`` — same gather
        values, same sweep (asserted in the test suite).

        Raises:
            SimulationError: Empty batch, a non-1-D row, or a row
                shorter than ``plan.num_inputs``.
        """
        plan = self.plan
        batch = len(rows)
        if batch < 1:
            raise SimulationError("input matrix has no rows to execute")
        t0 = time.perf_counter()
        state, sweep, lock = self._acquire_state(batch)
        try:
            k = self._slots_sorted.size
            if k:
                # (B, k) with contiguous row writes; the transposed
                # view feeds the scatter without another intermediate.
                assembled = np.empty((batch, k), dtype=np.float64)
                dense = self._dense_inputs
                slots = self._slots_sorted
                for j, row in enumerate(rows):
                    r = np.asarray(row, dtype=np.float64)
                    if r.ndim != 1:
                        raise SimulationError(
                            f"row {j}: expected a 1-D vector, got "
                            f"shape {r.shape}"
                        )
                    if r.shape[0] < plan.num_inputs:
                        raise SimulationError(
                            f"row {j} too narrow: need {plan.num_inputs} "
                            f"entries, got {r.shape[0]}"
                        )
                    if dense:
                        assembled[j] = r[:k]  # basic slice: plain memcpy
                    else:
                        assembled[j] = r[slots]
                state[self._cells_sorted] = assembled.T
            else:
                for j, row in enumerate(rows):
                    if np.asarray(row).ndim != 1:
                        raise SimulationError(
                            f"row {j}: expected a 1-D vector"
                        )
            return self._finish(state, batch, t0, sweep)
        finally:
            if lock is not None:
                lock.release()

    def _acquire_state(
        self, batch: int
    ) -> tuple[np.ndarray, Callable[[], None] | None, threading.Lock | None]:
        """State image (+ bound sweep) for one run.

        The step engine gets a fresh zero-initialized machine state.
        The fused engine reuses a per-batch-width bound
        ``(state, sweep)`` pair — state buffer, gather blocks and all
        operand views constructed exactly once (see
        :func:`~repro.sim.fused.bind_sweep`) — holding the returned
        lock for the duration of the run.  If another thread holds the
        pair, the run falls back to a throwaway state swept by the
        generic interpreter, preserving full concurrency.
        """
        if self._fused is None:
            return (
                np.zeros((self.plan.state_size, batch), dtype=np.float64),
                None,
                None,
            )
        if self._bound_lock.acquire(blocking=False):
            try:
                entry = self._bound.get(batch)
                if entry is None:
                    entry = bind_sweep(self._fused, batch)
                    while len(self._bound) >= BOUND_SWEEP_CAP:
                        self._bound.pop(next(iter(self._bound)))
                    self._bound[batch] = entry
            except BaseException:
                self._bound_lock.release()
                raise
            return entry[0], entry[1], self._bound_lock
        return self._fused.make_state(batch), None, None

    def _finish(
        self,
        state: np.ndarray,
        batch: int,
        t0: float,
        sweep: Callable[[], None] | None = None,
    ) -> BatchResult:
        """The shared sweep: tape execution + output gather."""
        plan = self.plan
        # Scalar Python floats overflow to inf silently; match that
        # instead of spraying RuntimeWarnings over deep product chains.
        # The sampled span is per batch (not per row or step), so the
        # disabled path pays one boolean check per sweep.
        sp = trace.sampled_span(
            "batch.sweep",
            "engine",
            engine=self.engine,
            batch=batch,
            workload=plan.source_name,
        )
        with np.errstate(over="ignore", invalid="ignore"), sp:
            if self._fused is not None and sp.span_id is not None:
                # Sampled sweep: swap the bound closure for the traced
                # twin so per-level spans land under this batch.sweep
                # (the closure's hot path carries no instrumentation).
                _execute_fused_traced(self._fused, state)
            elif sweep is not None:
                sweep()
            elif self._fused is not None:
                execute_fused(self._fused, state)
            else:
                for step in plan.steps:
                    if type(step) is MoveStep:
                        self._move(state, step)
                    else:
                        self._compute(state, step)
        outputs = {
            var: state[cell].copy()
            for var, cell in zip(plan.output_vars, self._output_cells)
        }
        host_seconds = time.perf_counter() - t0
        return BatchResult(
            outputs=outputs,
            batch=batch,
            counters=plan.scaled_counters(batch),
            peak_occupancy=list(plan.peak_occupancy),
            host_seconds=host_seconds,
        )

    @staticmethod
    def _move(state: np.ndarray, step: MoveStep) -> None:
        """``state[dst] = state[src]`` with the slice fast paths the
        lowering proved safe (see :class:`~repro.sim.plan.MoveStep`)."""
        ds, ss = step.dst_slice, step.src_slice
        if ds is not None:
            if ss is not None and step.disjoint:
                state[ds[0] : ds[1]] = state[ss[0] : ss[1]]
            else:
                # Fancy src gathers into a fresh array first, so a
                # slice write is safe even when src and dst overlap.
                state[ds[0] : ds[1]] = state[step.src]
        elif ss is not None and step.disjoint:
            state[step.dst] = state[ss[0] : ss[1]]
        else:
            state[step.dst] = state[step.src]

    @staticmethod
    def _compute(state: np.ndarray, step: ComputeStep) -> None:
        if step.mov_out.size:
            state[step.mov_out] = state[step.mov_src]
        if step.add_out.size:
            state[step.add_out] = state[step.add_a] + state[step.add_b]
        if step.mul_out.size:
            state[step.mul_out] = state[step.mul_a] * state[step.mul_b]


def run_batch(
    plan_or_program: ExecutionPlan | Program,
    inputs: np.ndarray,
    interconnect: Interconnect | None = None,
    engine: str = "step",
) -> BatchResult:
    """Convenience wrapper: build a BatchSimulator and run once."""
    return BatchSimulator(
        plan_or_program, interconnect=interconnect, engine=engine
    ).run(inputs)
