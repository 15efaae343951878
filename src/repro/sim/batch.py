"""Phase 2 of the two-phase execution engine: vectorized batch runs.

Executes a :class:`~repro.sim.fused.FusedPlan` on a whole ``(B,
num_inputs)`` input matrix in one sweep.  The fused plan is the
verified :class:`~repro.sim.plan.ExecutionPlan` lowered once more into
a level-major schedule of ops over a liveness-compacted state
(:mod:`repro.sim.fused`): the state of all B independent inferences is
one float64 array, and a sweep runs every op over the batch dimension.
It carries the inputs, outputs, counters and occupancy a batch needs,
so it is the one artifact a batch or a served program runs from (the
artifact cache stores it, :func:`repro.runner.cache.
cached_fused_plan`).  This is the library's only batch engine.

The state is tile-major, ``(tiles, cells, width)``.  When at least a
quarter of a plan's rows are input loads and the batch is at least
64 rows, the sweep runs the whole table over one tile of 32 rows
before the next, so each load walks 32 rows of the caller's matrix
instead of all B (``deep2000``, whose walks step 8,000 bytes, sweeps
256 rows 1.7x as fast).  Every other sweep is one tile of B rows,
the ``(cells, B)`` layout.
:meth:`~repro.sim.fused.FusedPlan.tile_width` decides, and the tiling
rule in :mod:`repro.sim.native` gives the numbers behind it.  Outputs
leave the state through one helper that knows the layout
(:meth:`~repro.sim.fused.FusedPlan.read_outputs`): the rows of one
copied block either way.

The sweep runs on the native C kernel (:mod:`repro.sim.native`): one
fixed loop over the plan's flat op table, built once per process when
the first simulator is constructed.  The table's load rows read the
caller's input matrix directly, each input one level before its first
use, so there is no separate input pass, and its folded rows keep a
single-use intermediate in a register, the host's version of a PE
tree.  A working C compiler (``cc`` on ``PATH``) is required:
constructing a simulator without one raises a
:class:`~repro.errors.SimulationError` that names ``cc``.

No verification happens here: the plan was verified at lowering time
(hazards, interconnect legality, address predictions, memory tags),
so the per-row cost is pure arithmetic.  Outputs are bitwise identical
to the scalar simulator's — both paths perform the same IEEE-double
operations in the same tree order, fusion only regroups independent
lanes (asserted across the golden workloads in the test suite, and
continuously by the differential oracle, which also replays the plan's
step tape directly as its plan reference).  The exception is an add or
mul that meets two NaNs with *different* payloads: IEEE 754 leaves the
result's payload open, and Python floats, numpy and C pick
differently, so the engines agree bitwise only while at most one NaN
payload is in play.
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
from . import native
from .functional import ActivityCounters
from .fused import FusedPlan, bind_sweep, fuse_plan
from .plan import ExecutionPlan, lower_program

#: Bound (state, inputs, sweep) triples retained per simulator: one per
#: distinct batch width, oldest evicted beyond this many (bounds the
#: buffer memory a simulator serving many batch shapes can pin).
BOUND_SWEEP_CAP = 8

_Bound = tuple[np.ndarray, np.ndarray, Callable[[np.ndarray], None]]


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one batched execution.

    Attributes:
        outputs: ``var -> (B,) float64`` final value of every output
            variable across the batch.  The values are the rows of one
            ``(n_out, B)`` block copied out of the sweep's state, so
            they keep their values when the simulator runs again.
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
    """Executes a fused plan over batches of input rows.

    Construct from a :class:`~repro.sim.fused.FusedPlan` (the cached
    artifact, :func:`repro.runner.cache.cached_fused_plan`), or from
    an :class:`~repro.sim.plan.ExecutionPlan` or a
    :class:`~repro.arch.Program`, which is lowered (and therefore
    verified) as needed and fused on construction.

    Args:
        plan: The fused plan to execute, or the plan or program to
            fuse.
        interconnect: Interconnect model for a program lowering.
        engine: Accepted for callers of the former two-engine API;
            only ``"fused"`` and its alias ``"auto"`` are valid.
    """

    #: The one batch engine (read by callers of the former API).
    engine = "fused"

    def __init__(
        self,
        plan: FusedPlan | ExecutionPlan | Program,
        interconnect: Interconnect | None = None,
        *,
        engine: str = "fused",
    ) -> None:
        # Scripts written when a step interpreter was selectable still
        # pass engine="auto"; keep them running, refuse anything else.
        if engine not in ("auto", "fused"):
            raise SimulationError(
                f"unknown engine {engine!r}; the batch engine is 'fused' "
                "('auto' is accepted as its alias)"
            )
        if isinstance(plan, Program):
            plan = lower_program(plan, interconnect=interconnect)
        if isinstance(plan, ExecutionPlan):
            plan = fuse_plan(plan)
        self.plan: FusedPlan = plan
        # Build (or find) the native kernel now, in set-up, not in the
        # first timed run; this raises when no working cc exists.
        native.load()
        # Bound (state, inputs, sweep) triples keyed by batch width,
        # guarded by one lock held for a whole run: concurrent runs of
        # one simulator serialize.
        self._bound: dict[int, _Bound] = {}
        self._bound_lock = threading.Lock()

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
        return self._sweep(batch, matrix, (), time.perf_counter())

    def run_rows(self, rows: Sequence[np.ndarray]) -> BatchResult:
        """Execute a batch assembled from B independent row vectors.

        This is the serving hot path: requests arrive as separate
        (and usually non-contiguous) row vectors, possibly of
        *heterogeneous* widths — each row only needs at least
        ``plan.num_inputs`` leading entries, so rows sliced out of
        wider tenant buffers are accepted as-is.  The leading entries
        are copied into the bound ``(B, num_inputs)`` input matrix of
        the batch width (a basic slice per row, a plain memcpy), which
        the sweep then loads from through pointers computed once.

        Bitwise identical to ``run(np.stack([...]))`` — same loaded
        values, same sweep (asserted in the test suite).

        Raises:
            SimulationError: Empty batch, a non-1-D row, or a row
                shorter than ``plan.num_inputs``.
        """
        batch = len(rows)
        if batch < 1:
            raise SimulationError("input matrix has no rows to execute")
        return self._sweep(batch, None, rows, time.perf_counter())

    def _sweep(
        self,
        batch: int,
        matrix: np.ndarray | None,
        rows: Sequence[np.ndarray],
        t0: float,
    ) -> BatchResult:
        """One run: a bound sweep loads ``matrix`` — a ``(B,
        num_inputs)`` float64 matrix, or, when it is ``None``, the
        bound input matrix after ``rows`` are copied into it — and runs
        it, then one gather copies the output cells out of the tiled or
        untiled state."""
        plan = self.plan
        with self._bound_lock:
            state, inputs, sweep = self._bound_state(batch)
            if matrix is None:
                matrix = inputs
                k = plan.num_inputs
                for j, row in enumerate(rows):
                    r = np.asarray(row, dtype=np.float64)
                    if r.ndim != 1:
                        raise SimulationError(
                            f"row {j}: expected a 1-D vector, got shape "
                            f"{r.shape}"
                        )
                    if r.shape[0] < k:
                        raise SimulationError(
                            f"row {j} too narrow: need {k} entries, got "
                            f"{r.shape[0]}"
                        )
                    matrix[j] = r[:k]
            # The sampled span is per batch (not per row or op), so
            # the disabled path pays one boolean check per sweep.
            with trace.sampled_span(
                "batch.sweep",
                "engine",
                batch=batch,
                workload=plan.source_name,
            ):
                sweep(matrix)
            outputs = dict(
                zip(plan.output_vars, plan.read_outputs(state, batch))
            )
        return BatchResult(
            outputs=outputs,
            batch=batch,
            counters=plan.scaled_counters(batch),
            peak_occupancy=list(plan.peak_occupancy),
            host_seconds=time.perf_counter() - t0,
        )

    def _bound_state(self, batch: int) -> _Bound:
        """State image, input matrix and bound sweep for one run.

        Reuses a per-batch-width bound ``(state, inputs, sweep)`` triple
        (see :func:`~repro.sim.fused.bind_sweep`), binding one on first
        use of a width and evicting the oldest beyond
        :data:`BOUND_SWEEP_CAP`.  Call with ``_bound_lock`` held.
        """
        entry = self._bound.get(batch)
        if entry is None:
            entry = bind_sweep(self.plan, batch)
            while len(self._bound) >= BOUND_SWEEP_CAP:
                self._bound.pop(next(iter(self._bound)))
            self._bound[batch] = entry
        return entry


def run_batch(
    plan: FusedPlan | ExecutionPlan | Program,
    inputs: np.ndarray,
    interconnect: Interconnect | None = None,
) -> BatchResult:
    """Convenience wrapper: build a BatchSimulator and run once."""
    return BatchSimulator(plan, interconnect=interconnect).run(inputs)
