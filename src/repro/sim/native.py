"""The native sweep kernel: a fused plan's op table run in one C loop.

DPU-v2's datapath runs a DAG's nodes with no per-node launch cost;
this module does the same on the host.  A
:class:`~repro.sim.fused.FusedPlan` carries its schedule as a flat
``(n_rows, 5)`` table of ``(opcode, a, b, c, out_cell)`` in
level-major order, and :data:`SOURCE` walks it in one fixed loop:
``o[i] = a[i] op b[i]`` for every lane ``i`` of a tile of the state;
for a folded row, ``o[i] = (a[i] op1 b[i]) op2 c[i]`` (or ``c[i]
op2 (a[i] op1 b[i])``) with the intermediate in a register, the host's
version of a two-layer PE tree; or, for a load row, ``o[i] =
matrix[i][a]``, a strided copy of one column of the caller's input
matrix.  There is no separate input pass: the sweep reads the matrix
itself, when the schedule first needs each input.

Bitwise parity with the step tape
(:func:`repro.verify.differential.interpret_plan`) holds because the
kernel performs the same IEEE-double add or multiply on the same
operands in the same order: the library is built with ``-O2
-ffp-contract=off`` (no FMA contraction, which would fuse a folded
``(a * b) + c``) and never with ``-ffast-math``.

**The dispatch rule.**  On x86-64 the sweep loop, its row kernels and
load inlined, is built twice into the one library (GCC/Clang
``target_clones``): an AVX2 clone and a baseline one.  The dynamic
loader picks one clone once, by CPUID, so the host's vector width is
used without ``-march=native``, a cached library stays portable across
x86-64 hosts, and no op pays for the choice.  Both clones perform the
same IEEE-double operations, and ``-ffp-contract=off`` keeps FMA out
of both; elsewhere there is one build.

**The compiler rule.**  The library is built once per process, on
first use, with the ``cc`` found on ``PATH``, and the batch engine
requires it: with no ``cc``, or a ``cc`` that fails, :func:`load`
raises a :class:`~repro.errors.SimulationError` that names ``cc``.
There is no second sweep and nothing to configure: no option,
environment variable or flag.

**The tiling rule.**  The state is tile-major, ``(tiles, cells,
width)``, and the sweep runs the whole table over one tile of
``width`` batch rows before it starts the next; the last tile runs
only the rows left.  A load row walks one column of the caller's
``(B, inputs)`` matrix, one matrix row per lane: for ``deep2000``'s
1,000 inputs the stride is 8,000 bytes, so a 256-row walk touches a
page per lane.  Tiled by :data:`TILE` = 32 rows, a walk stays within
32 matrix rows, whose pages and cache lines the tile's next loads
reuse.  The price is one dispatch of every row per tile, so tiling
pays only where loads are a large share of the table and the batch
is long: :meth:`~repro.sim.fused.FusedPlan.tile_width` decides, in
one place, from the plan's load-row share and the batch width, and
nothing else sets it.  A sweep of at least 64 rows (two tiles) of a
plan whose rows are at least a quarter loads (the Table-I ``sptrsv``
plans 0.48-0.55, ``deep2000`` 0.67, ``near_chain2000`` 0.61) is tiled
by 32; every other sweep (every Table-I ``pc`` plan at most 0.025,
``synth_xl_layered_50k`` 0.006) is one tile of ``B`` rows, the
``(cells, B)`` layout.  On a shared 2-CPU x86-64 VM (gcc 12), the
bound sweep alone at batch 256, tiled vs untiled in one process
(median of 300): ``bp_200`` 155 → 101 µs,
``sieber`` 2.12 → 1.12 ms, but ``tretail`` 72 → 88 µs; at 33-48 rows
``deep2000`` and ``near_chain2000`` ran 10-18% slower tiled, even at
64.  Full tiles run a copy of the loop built for exactly :data:`TILE`
lanes, whose row kernels unroll completely (a 256-row ``run``,
median of three processes: ``bp_200`` 103 → 97 µs, ``near_chain2000``
150 → 139 µs, ``deep2000`` flat at 161 µs); tiles of 16 or 64 rows ran
``deep2000`` slower than 32 (181 and 190 vs 163 µs).  With the
full-tile copy the kernel builds in 0.49 s instead of 0.37 s (median
of 7 ``cc`` runs).

The built ``.so`` is named by a digest of the source, the flags,
``platform.machine()`` and ``cc --version``.  When an artifact cache
is configured (:func:`repro.runner.cache.get_cache`) it is kept under
the cache's ``native/`` directory and reused by later processes;
otherwise it is built in a private temporary directory.  Builds write
a temporary name and ``os.replace`` it into place, so processes that
share a cache never load a half-written file.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np

from ..errors import SimulationError
from ..obs import trace

#: Lanes per tile of a tiled sweep: the kernel has a copy of its loop
#: built for exactly this many, and
#: :meth:`repro.sim.fused.FusedPlan.tile_width` tiles by it.  A load
#: walk of a tile then touches at most 32 matrix rows, and a tile's
#: cells are 256 bytes, whole cache lines.
TILE = 32

#: The kernel.  Opcodes are :data:`repro.sim.fused.FUSED_ADD` (1),
#: :data:`repro.sim.fused.FUSED_MUL` (2),
#: :data:`repro.sim.fused.FUSED_LOAD` (3) and the folded opcodes 4 to
#: 11 (:data:`repro.sim.fused.FUSED_FOLD`).
SOURCE = f"#define TILE {TILE}\n" + r"""
#include <stdint.h>

/* The dispatch rule (module docstring): repro_sweep is cloned for AVX2
   and the baseline ISA, and the loader picks a clone once by CPUID.
   The helpers are forced inline so each clone vectorizes them at its
   own width; cloning them instead costs an indirect call per row,
   which made batch-1 sweeps ~30% slower. */
#if defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#define INLINE static inline __attribute__((always_inline))
#else
#define CLONES
#define INLINE static inline
#endif

/* Row kernel NAME: o[j] = EXPR for j < n, four lanes per step.  The
   four independent statements let the compiler pack them into vector
   ops; restrict is sound because a row's result cell is never one of
   its operand cells (a, b and c may alias each other: only o is
   written).  A folded row's intermediate a[j] OP1 b[j] stays in a
   register; the opcodes are 4 * op1 + 2 * (op2 - 1) + side, op 1 add
   and 2 mul, side 1 when the folded value is op2's right operand. */
#define ROW(NAME, EXPR)                                             \
    INLINE void NAME(const double *restrict a,                      \
                     const double *restrict b,                      \
                     const double *restrict c, double *restrict o,  \
                     int64_t n)                                     \
    {                                                               \
        int64_t i = 0, j;                                           \
        for (; i + 4 <= n; i += 4) {                                \
            j = i; o[j] = EXPR;                                     \
            j = i + 1; o[j] = EXPR;                                 \
            j = i + 2; o[j] = EXPR;                                 \
            j = i + 3; o[j] = EXPR;                                 \
        }                                                           \
        for (j = i; j < n; ++j)                                     \
            o[j] = EXPR;                                            \
    }

ROW(add, a[j] + b[j])
ROW(mul, a[j] * b[j])
ROW(aa0, (a[j] + b[j]) + c[j])
ROW(aa1, c[j] + (a[j] + b[j]))
ROW(am0, (a[j] + b[j]) * c[j])
ROW(am1, c[j] * (a[j] + b[j]))
ROW(ma0, (a[j] * b[j]) + c[j])
ROW(ma1, c[j] + (a[j] * b[j]))
ROW(mm0, (a[j] * b[j]) * c[j])
ROW(mm1, c[j] * (a[j] * b[j]))

/* o[r] = src[r * stride] for r < n, four rows per step: four loads,
   then four stores. */
INLINE void load(const double *restrict src, int64_t stride,
                 double *restrict o, int64_t n)
{
    int64_t r = 0;
    for (; r + 4 <= n; r += 4) {
        double v0 = src[r * stride];
        double v1 = src[(r + 1) * stride];
        double v2 = src[(r + 2) * stride];
        double v3 = src[(r + 3) * stride];
        o[r] = v0;
        o[r + 1] = v1;
        o[r + 2] = v2;
        o[r + 3] = v3;
    }
    for (; r < n; ++r)
        o[r] = src[r * stride];
}

/* Run every (opcode, a, b, c, out_cell) row of ops, in order, over n
   lanes of one tile whose cells lie width doubles apart; opcode 3
   copies column a of the tile's rows of the (batch, inputs) matrix,
   every other opcode reads cells a, b and c.  Matrix strides are in
   doubles. */
INLINE void run_tile(const int64_t *ops, int64_t n_ops, double *state,
                     int64_t width, int64_t n, const double *matrix,
                     int64_t row_stride, int64_t col_stride)
{
    for (int64_t k = 0; k < n_ops; ++k, ops += 5) {
        double *o = state + ops[4] * width;
        if (ops[0] == 3) {
            load(matrix + ops[1] * col_stride, row_stride, o, n);
            continue;
        }
        const double *a = state + ops[1] * width;
        const double *b = state + ops[2] * width;
        const double *c = state + ops[3] * width;
        switch (ops[0]) {
        case 1: add(a, b, c, o, n); break;
        case 2: mul(a, b, c, o, n); break;
        case 4: aa0(a, b, c, o, n); break;
        case 5: aa1(a, b, c, o, n); break;
        case 6: am0(a, b, c, o, n); break;
        case 7: am1(a, b, c, o, n); break;
        case 8: ma0(a, b, c, o, n); break;
        case 9: ma1(a, b, c, o, n); break;
        case 10: mm0(a, b, c, o, n); break;
        default: mm1(a, b, c, o, n); break;
        }
    }
}

/* Sweep the n_ops rows of ops over batch rows of the (tiles, cells,
   width) tile-major state, sizes = {n_ops, cells, width, batch} (the
   tiling rule, module docstring): the whole table runs over one tile
   of width rows before the next tile starts, and the last tile runs
   only the rows left.  An untiled state is one tile of width batch,
   the (cells, batch) layout.  Full tiles of TILE rows run a copy of
   the loop built for exactly TILE lanes, whose row kernels unroll
   completely.  The sizes travel in one array because each argument
   of a ctypes call costs the serving path's batch-1 sweeps time. */
CLONES void repro_sweep(const int64_t *ops, const int64_t *sizes,
                        double *state, const double *matrix,
                        int64_t row_stride, int64_t col_stride)
{
    const int64_t n_ops = sizes[0], cells = sizes[1], width = sizes[2],
                  batch = sizes[3];
    int64_t lo = 0;
    if (width == TILE)
        for (; lo + TILE <= batch; lo += TILE, state += cells * TILE)
            run_tile(ops, n_ops, state, TILE, TILE,
                     matrix + lo * row_stride, row_stride, col_stride);
    for (; lo < batch; lo += width, state += cells * width) {
        int64_t n = batch - lo < width ? batch - lo : width;
        run_tile(ops, n_ops, state, width, n, matrix + lo * row_stride,
                 row_stride, col_stride);
    }
}
"""

#: Compiler flags.  ``-ffp-contract=off`` keeps a multiply and an add
#: from fusing into one FMA, in a folded row's ``(a * b) + c`` and in
#: the AVX2 clone too, which would change rounding; ``-ffast-math`` is
#: never used.  There is no ``-march``: the AVX2 clone is picked at
#: load time by CPUID (see the dispatch rule above), so one ``.so``
#: runs on every host of its machine type.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

#: The opcodes a table may hold: add, mul, load and the folded ones.
OPCODES = tuple(range(1, 12))

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


class Kernel:
    """The loaded library: pre-bound sweeps."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._sweep = lib.repro_sweep
        self._sweep.argtypes = (_PTR, _PTR, _PTR, _PTR, _I64, _I64)
        self._sweep.restype = None

    def bind_sweep(
        self, ops: np.ndarray, state: np.ndarray, inputs: np.ndarray
    ) -> Callable[[np.ndarray], None]:
        """A call ``sweep(matrix)`` running ``ops`` over the ``(tiles,
        cells, width)`` tile-major ``state`` for the batch of
        ``inputs.shape[0]`` rows, its load rows copying columns of the
        ``(batch, inputs)`` float64 ``matrix``, strided or not.

        The state's tiles must cover the batch, the last one possibly
        in part: ``(tiles - 1) * width < batch <= tiles * width``.  The
        table's pointers are computed once here, and so is the whole
        call for the C-contiguous matrix ``inputs``: ``sweep(inputs)``
        goes straight to C.  Any other matrix is checked
        (:func:`check_matrix`) before its pointer reaches C.  The
        returned call holds references to all three arrays, so they
        outlive it.  ``ctypes`` releases the GIL for the call's
        duration.

        Raises:
            ValueError: At binding, a malformed table, an opcode
                outside :data:`OPCODES`, a negative slot or cell, a
                cell outside ``state``, tiles that do not cover the
                batch or an ``inputs`` that does not fit the table; at
                a call, a matrix whose rows are not the batch or that
                lacks a loaded column.
        """
        _check(ops, np.int64, 2)
        _check(state, np.float64, 3)
        _check(inputs, np.float64, 2)
        if ops.shape[1] != 5:
            raise ValueError(f"op table must be (n, 5), got {ops.shape}")
        tiles, n_cells, width = state.shape
        batch = inputs.shape[0]
        if not (tiles - 1) * width < batch <= tiles * width:
            raise ValueError(
                f"a {state.shape} state's tiles do not cover a batch of "
                f"{batch}"
            )
        loads = ops[:, 0] == 3
        folded = ops[:, 0] > 3
        cells = np.concatenate(
            (ops[~loads, 1:3].ravel(), ops[folded, 3], ops[:, 4])
        )
        if ops.size and (
            not np.isin(ops[:, 0], OPCODES).all()
            or ops[:, 1:].min() < 0
            or cells.max() >= n_cells
        ):
            raise ValueError("op table has a bad opcode, slot or cell")
        cols = int(ops[loads, 1].max()) + 1 if loads.any() else 0
        check_matrix(inputs, batch, cols)
        fn = self._sweep
        sizes = np.array((ops.shape[0], n_cells, width, batch), np.int64)
        head = (
            ops.ctypes.data_as(_PTR),
            sizes.ctypes.data_as(_PTR),
            state.ctypes.data_as(_PTR),
        )
        bound = functools.partial(
            fn,
            *head,
            inputs.ctypes.data_as(_PTR),
            _I64(inputs.shape[1]),
            _I64(1),
        )

        def sweep(matrix: np.ndarray) -> None:
            if matrix is inputs:
                bound()
                return
            matrix = check_matrix(matrix, batch, cols)
            rs, cs = matrix.strides
            fn(*head, matrix.ctypes.data, rs // 8, cs // 8)

        return sweep


def check_matrix(matrix: np.ndarray, batch: int, cols: int) -> np.ndarray:
    """``matrix`` as a sweep of ``batch`` rows loads it: a 2-D float64
    array whose strides are whole elements (converted to a contiguous
    copy if it is not), with ``batch`` rows and at least ``cols``
    columns.

    Raises:
        ValueError: The matrix is not 2-D, its rows are not the batch,
            or it has fewer than ``cols`` columns.
    """
    if (
        matrix.ndim != 2
        or matrix.shape[0] != batch
        or matrix.shape[1] < cols
    ):
        raise ValueError(
            f"a sweep of batch {batch} loads {cols} columns, got a "
            f"{matrix.shape} matrix"
        )
    rs, cs = matrix.strides
    if matrix.dtype != np.float64 or rs % 8 or cs % 8:
        return np.ascontiguousarray(matrix, dtype=np.float64)
    return matrix


def _check(arr: np.ndarray, dtype, ndim: int) -> None:
    if (
        arr.dtype != dtype
        or arr.ndim != ndim
        or not arr.flags.c_contiguous
    ):
        raise ValueError(
            f"native kernel needs a C-contiguous {np.dtype(dtype)} "
            f"{ndim}-D array, got {arr.dtype} {arr.shape}"
        )


_LOAD_LOCK = threading.Lock()


def load() -> Kernel:
    """The process's kernel, built on first call.

    The lock makes concurrent first calls build once.  A failed build
    is not remembered: the next call tries again.

    Raises:
        SimulationError: No ``cc`` on ``PATH``, or it cannot build the
            kernel; the batch engine requires a working C compiler.
    """
    with _LOAD_LOCK:
        return _load()


@functools.cache
def _load() -> Kernel:
    cc = shutil.which("cc")
    if cc is None:
        raise SimulationError(
            "the batch engine needs a C compiler: no 'cc' on PATH"
        )
    try:
        with trace.span("native.load", "engine"):
            version = subprocess.run(
                [cc, "--version"],
                capture_output=True,
                check=True,
                timeout=60,
            ).stdout
            lib = _open(cc, _digest(version))
    except (OSError, subprocess.SubprocessError) as exc:
        raise SimulationError(
            f"the batch engine needs a C compiler: 'cc' ({cc}) did not "
            f"build the sweep kernel ({exc})"
        ) from exc
    return Kernel(lib)


def available() -> bool:
    """Whether this process's ``cc`` builds the sweep kernel."""
    try:
        load()
    except SimulationError:
        return False
    return True


def _digest(cc_version: bytes) -> str:
    h = hashlib.blake2b(digest_size=16)
    for part in (
        SOURCE.encode(),
        " ".join(FLAGS).encode(),
        platform.machine().encode(),
        cc_version,
    ):
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


def _open(cc: str, digest: str) -> ctypes.CDLL:
    """Load the library named by ``digest``, building it if needed."""
    from ..runner.cache import ArtifactCache, get_cache  # local: no cycle

    cache = get_cache()
    if not isinstance(cache, ArtifactCache):
        with tempfile.TemporaryDirectory(prefix="repro-native-") as tmp:
            path = Path(tmp) / f"sweep-{digest}.so"
            _build(cc, path)
            # The mapping outlives the directory.
            return ctypes.CDLL(str(path))
    path = cache.directory / "native" / f"sweep-{digest}.so"
    if path.exists():
        try:
            return ctypes.CDLL(str(path))
        except OSError:
            pass  # torn or foreign file: rebuild over it
    _build(cc, path)
    return ctypes.CDLL(str(path))


def _build(cc: str, path: Path) -> None:
    """Compile :data:`SOURCE` to ``path`` through a temporary name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=".sweep-", suffix=".so.tmp"
    )
    os.close(fd)
    try:
        subprocess.run(
            [cc, *FLAGS, "-x", "c", "-", "-o", tmp],
            input=SOURCE.encode(),
            capture_output=True,
            check=True,
            timeout=120,
        )
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
