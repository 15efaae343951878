"""The native sweep kernel: a fused plan's op table run in one C loop.

The numpy sweep (:func:`repro.sim.fused.bind_sweep`'s fallback) pays
one ufunc dispatch per (level, opcode) and one gather per level, so a
deep plan with one op per level is dispatch-bound and a wide one is
gather-bound.  DPU-v2's datapath runs a DAG's nodes with no per-node
launch cost; this module does the same on the host.  A
:class:`~repro.sim.fused.FusedPlan` carries its schedule as a flat
``(n_rows, 4)`` table of ``(opcode, a, b, out_cell)`` in level-major
order, and :data:`SOURCE` walks it in one fixed loop: ``o[i] = a[i] op
b[i]`` for every row ``i`` of the ``(cells, B)`` state, or, for a load
row, ``o[i] = matrix[i][a]``, a strided copy of one column of the
caller's input matrix.  There is no separate input pass: the sweep
reads the matrix itself, when the schedule first needs each input.

Bitwise parity with the numpy sweep holds because both perform the
same IEEE-double add or multiply on the same operands: the library is
built with ``-O2 -ffp-contract=off`` (no FMA contraction) and never
with ``-ffast-math``.

**The dispatch rule.**  On x86-64 the sweep loop, its add, mul and
load inlined, is built twice into the one library (GCC/Clang
``target_clones``): an AVX2 clone and a baseline one.  The dynamic
loader picks one clone once, by CPUID, so the host's vector width is
used without ``-march=native``, a cached library stays portable across
x86-64 hosts, and no op pays for the choice.  Both clones perform the
same IEEE-double operations, and ``-ffp-contract=off`` keeps FMA out
of both; elsewhere there is one build.

**The fallback rule.**  The library is built once per process, on
first use, with the ``cc`` found on ``PATH``.  With no ``cc``, or a
``cc`` that fails, one warning is logged and every sweep of the
process runs on numpy, with the same outputs.  Nothing configures
this: there is no option, environment variable or flag.

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
import logging
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from collections.abc import Callable
from pathlib import Path

import numpy as np

from ..obs import trace

#: The kernel.  Opcodes are :data:`repro.sim.fused.FUSED_ADD` (1),
#: :data:`repro.sim.fused.FUSED_MUL` (2) and
#: :data:`repro.sim.fused.FUSED_LOAD` (3).
SOURCE = r"""
#include <stdint.h>

/* The dispatch rule (module docstring): repro_sweep is cloned for AVX2
   and the baseline ISA, and the loader picks a clone once by CPUID.
   The helpers are forced inline so each clone vectorizes them at its
   own width; cloning add and mul instead costs an indirect call per op,
   which made batch-1 sweeps ~30% slower. */
#if defined(__x86_64__) && defined(__GNUC__)
#define CLONES __attribute__((target_clones("avx2", "default")))
#define INLINE static inline __attribute__((always_inline))
#else
#define CLONES
#define INLINE static inline
#endif

/* o[i] = a[i] OP b[i] for i < n, four rows per step.  The four
   independent statements let the compiler pack them into vector
   adds/muls; restrict is sound because a result cell never holds an
   operand of its own level (a and b may alias each other: only o is
   written). */
#define LANES(OP)                                                   \
    int64_t i = 0;                                                  \
    for (; i + 4 <= n; i += 4) {                                    \
        o[i] = a[i] OP b[i];                                        \
        o[i + 1] = a[i + 1] OP b[i + 1];                            \
        o[i + 2] = a[i + 2] OP b[i + 2];                            \
        o[i + 3] = a[i + 3] OP b[i + 3];                            \
    }                                                               \
    for (; i < n; ++i)                                              \
        o[i] = a[i] OP b[i];

INLINE void add(const double *restrict a, const double *restrict b,
                double *restrict o, int64_t n)
{
    LANES(+)
}

INLINE void mul(const double *restrict a, const double *restrict b,
                double *restrict o, int64_t n)
{
    LANES(*)
}

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

/* Run every (opcode, a, b, out_cell) row of ops, in order, over the
   (cells, batch) row-major state; opcode 1 adds cells a and b, 2
   multiplies them, 3 copies column a of the (batch, inputs) matrix.
   Matrix strides are in doubles. */
CLONES void repro_sweep(const int64_t *ops, int64_t n_ops, double *state,
                        int64_t batch, const double *matrix,
                        int64_t row_stride, int64_t col_stride)
{
    for (int64_t k = 0; k < n_ops; ++k, ops += 4) {
        double *o = state + ops[3] * batch;
        if (ops[0] == 3) {
            load(matrix + ops[1] * col_stride, row_stride, o, batch);
            continue;
        }
        const double *a = state + ops[1] * batch;
        const double *b = state + ops[2] * batch;
        if (ops[0] == 1)
            add(a, b, o, batch);
        else
            mul(a, b, o, batch);
    }
}
"""

#: Compiler flags.  ``-ffp-contract=off`` keeps a multiply and an add
#: from fusing into one FMA, in the AVX2 clone too, which would change
#: rounding; ``-ffast-math`` is never used.  There is no ``-march``:
#: the AVX2 clone is picked at load time by CPUID (see the dispatch
#: rule above), so one ``.so`` runs on every host of its machine type.
FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_log = logging.getLogger(__name__)

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64


class Kernel:
    """The loaded library: pre-bound sweeps."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        self._sweep = lib.repro_sweep
        self._sweep.argtypes = (_PTR, _I64, _PTR, _I64, _PTR, _I64, _I64)
        self._sweep.restype = None

    def bind_sweep(
        self, ops: np.ndarray, state: np.ndarray
    ) -> Callable[[np.ndarray], None]:
        """A call ``sweep(matrix)`` running ``ops`` over ``state``, its
        load rows copying columns of the ``(state.shape[1], inputs)``
        float64 ``matrix``, strided or not.

        The table's pointers are computed once here; the returned call
        holds references to both arrays, so they outlive it, and
        checks each matrix (:func:`check_matrix`) before its pointer
        reaches C.  ``ctypes`` releases the GIL for the call's
        duration.

        Raises:
            ValueError: At binding, a malformed table, an opcode other
                than 1, 2 or 3, a negative slot or a cell outside
                ``state``; at a call, a matrix whose rows are not the
                batch or that lacks a loaded column.
        """
        _check(ops, np.int64, 2)
        _check(state, np.float64, 2)
        if ops.shape[1] != 4:
            raise ValueError(f"op table must be (n, 4), got {ops.shape}")
        loads = ops[:, 0] == 3
        cells = np.concatenate((ops[~loads, 1:].ravel(), ops[loads, 3]))
        if ops.size and (
            not np.isin(ops[:, 0], (1, 2, 3)).all()
            or ops[:, 1:].min() < 0
            or cells.max() >= state.shape[0]
        ):
            raise ValueError("op table has a bad opcode, slot or cell")
        cols = int(ops[loads, 1].max()) + 1 if loads.any() else 0
        batch = state.shape[1]
        fn = self._sweep
        ops_p = ops.ctypes.data_as(_PTR)
        n = _I64(ops.shape[0])
        state_p = state.ctypes.data_as(_PTR)

        def sweep(matrix: np.ndarray) -> None:
            matrix = check_matrix(matrix, batch, cols)
            rs, cs = matrix.strides
            fn(ops_p, n, state_p, batch, matrix.ctypes.data, rs // 8, cs // 8)

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


def load() -> Kernel | None:
    """The process's kernel, built on first call; ``None`` when no
    working C compiler is found (one warning is logged).

    The lock makes concurrent first calls build once and warn once.
    """
    with _LOAD_LOCK:
        return _load()


@functools.cache
def _load() -> Kernel | None:
    cc = shutil.which("cc")
    if cc is None:
        _log.warning(
            "no C compiler ('cc') on PATH: batch sweeps run on numpy"
        )
        return None
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
        _log.warning(
            "native sweep kernel unavailable (%s): batch sweeps run on "
            "numpy",
            exc,
        )
        return None
    return Kernel(lib)


def available() -> bool:
    """Whether batch sweeps in this process run on the native kernel."""
    return load() is not None


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
