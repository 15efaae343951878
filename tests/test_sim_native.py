"""The native sweep kernel: bitwise parity with the plan interpreter,
the folded opcodes, tiled and untiled sweeps, the required compiler,
concurrent runs and the shared build cache.

The kernel performs the same IEEE-double operations on the same
operands as the oracle's plan interpreter
(:func:`~repro.verify.differential.interpret_plan`), so every
comparison here is on ``uint64`` views.  A working C compiler is
required: without one, constructing a simulator raises.
"""

import dataclasses
import functools
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import DAGBuilder
from repro.arch import ArchConfig
from repro.compiler import compile_dag
from repro.errors import SimulationError
from repro.graphs import OpType
from repro.sim import BatchSimulator, bind_sweep, fuse_plan, native
from repro.sim.fused import FUSED_FOLD
from repro.sim.native import TILE
from repro.verify.differential import interpret_plan
from repro.workloads import build_workload
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth

CFG = ArchConfig(depth=2, banks=8, regs_per_bank=16)
SRC = Path(__file__).resolve().parent.parent / "src"

#: Widths 5 and 257 run the kernel's four-row bodies and its scalar
#: tails together; 1 and 3 run tails only, 256 bodies only.  Around
#: each multiple of :data:`TILE` a tiled sweep ends on a tile of one
#: row, on a full tile, or one row short of one; below two tiles the
#: simulator's sweeps are untiled, but :func:`_run_row`'s are not.
WIDTHS = (1, 3, 5, 31, 32, 33, 63, 64, 65, 255, 256, 257)

#: The parity plans: every synth family and one Table-I ``sptrsv``
#: plan, whose op table is about half loads.
SPTRSV = "bp_200"
PLANS = (*SYNTH_FAMILIES, SPTRSV)

#: Special values with no NaN among them: ±inf (where inf - inf and
#: 0 * inf make the one default NaN), ±0.0, subnormals and values whose
#: products overflow.
SPECIALS = np.array(
    [np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.5e-310, 1.5, -2.0, 1e300]
)


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


@functools.cache
def _plan(name):
    """The compiled plan of a synth family (60 nodes) or of the Table-I
    workload ``name`` at scale 0.05, and its fused form."""
    if name in SYNTH_FAMILIES:
        plan = compile_dag(generate_synth(name, 60, seed=5), CFG).plan()
    else:
        plan = compile_dag(build_workload(name, scale=0.05), CFG).plan()
    return plan, fuse_plan(plan)


def _assert_outputs(plan, got, ref, *context):
    for var in plan.output_vars:
        assert np.array_equal(_bits(got[var]), _bits(ref[var])), (
            *context,
            var,
        )


def _assert_matches_interpreter(fused, plan, matrix, *context):
    """A sweep bound by :func:`bind_sweep` over ``matrix`` equals the
    plan interpreter bitwise; returns the outputs."""
    state, _, sweep = bind_sweep(fused, len(matrix))
    sweep(matrix)
    got = dict(
        zip(plan.output_vars, fused.read_outputs(state, len(matrix)))
    )
    _assert_outputs(plan, got, interpret_plan(plan, matrix).outputs, *context)
    return got


def _tiled_state(cells, batch):
    """A ``(tiles, cells, width)`` state: one tile up to :data:`TILE`
    rows, tiles of :data:`TILE` rows beyond, the last one partial."""
    width = min(batch, TILE)
    return np.empty((-(-batch // width), cells, width))


def _run_row(code, matrix):
    """One row of opcode ``code`` over columns 0, 1 and 2 of ``matrix``
    as its ``a``, ``b`` and ``c``, swept by a hand-built table."""
    table = np.array(
        [[3, 0, 0, 0, 0], [3, 1, 0, 0, 1], [3, 2, 0, 0, 2],
         [code, 0, 1, 2, 3]],
        dtype=np.int64,
    )
    batch = len(matrix)
    state = _tiled_state(4, batch)
    native.load().bind_sweep(table, state, np.empty((batch, 3)))(matrix)
    return state[:, 3].reshape(-1)[:batch]


def _special_rows(rng, n, rows):
    """``rows`` input rows: alternately drawn from :data:`SPECIALS`,
    and finite values carrying the one NaN payload ``np.nan``.  No row
    mixes two different NaNs: when two NaN operands meet, IEEE 754
    leaves open whose payload the result carries."""
    out = []
    for i in range(rows):
        if i % 2:
            row = rng.uniform(0.5, 2.0, size=n)
            row[rng.random(n) < 0.2] = np.nan
            row[rng.random(n) < 0.2] = 5e-324
            row[rng.random(n) < 0.2] = -0.0
        else:
            row = rng.choice(SPECIALS, size=n)
        out.append(row)
    return np.array(out).reshape(rows, n)


def _overflow_dag():
    """x + y squared 14 times overflows to inf; then + x."""
    b = DAGBuilder()
    x, y = b.add_input(), b.add_input()
    v = b.add_op(OpType.ADD, [x, y])
    for _ in range(14):
        v = b.add_op(OpType.MUL, [v, v])
    b.add_op(OpType.ADD, [v, x])
    return b.build()


@pytest.fixture
def fresh_load():
    """Forget this process's kernel before and after the test, so the
    test sees its own compiler and later tests rebuild a working one."""
    native._load.cache_clear()
    yield
    native._load.cache_clear()


class TestParity:
    @pytest.mark.parametrize("family", PLANS)
    def test_native_matches_plan_interpreter(self, family):
        """Outputs equal the plan interpreter's at every width: through
        a bare bound sweep, ``run`` on a C-contiguous and on a
        column-strided matrix, and ``run_rows``.  Each simulator state
        has the shape :meth:`~repro.sim.fused.FusedPlan.tile_width`
        decides."""
        plan, fused = _plan(family)
        sim = BatchSimulator(fused)
        rng = np.random.default_rng(1)
        n = plan.num_inputs
        for batch in WIDTHS:
            wide = rng.uniform(0.9, 1.1, size=(batch, 2 * n))
            matrix = np.ascontiguousarray(wide[:, ::2])
            want = _assert_matches_interpreter(
                fused, plan, matrix, family, batch
            )
            for got in (
                sim.run(wide[:, ::2]).outputs,
                sim.run(matrix).outputs,
                sim.run_rows(list(matrix)).outputs,
            ):
                _assert_outputs(plan, got, want, family, batch)
            width = fused.tile_width(batch)
            shape = (-(-batch // width), fused.state_size, width)
            assert sim._bound[batch][0].shape == shape

    def test_parity_plans_take_both_paths(self):
        """Among the parity plans at batch 256, some sweep tiled and
        some untiled; the ``sptrsv`` plan is tiled, and no width short
        of two tiles is."""
        tiled = {
            name: _plan(name)[1].tile_width(256) == TILE for name in PLANS
        }
        assert tiled[SPTRSV]
        assert set(tiled.values()) == {True, False}
        for name in PLANS:
            fused = _plan(name)[1]
            for batch in WIDTHS:
                if batch < 2 * TILE:
                    assert fused.tile_width(batch) == batch
                else:
                    assert fused.tile_width(batch) in (TILE, batch)

    @pytest.mark.parametrize("family", PLANS)
    def test_folded_rows_on_special_values(self, family):
        """Each plan's folded rows, at every width, on inputs of inf,
        NaN, -0.0 and subnormals, equal the plan interpreter bitwise."""
        plan, fused = _plan(family)
        assert (fused.ops[:, 0] >= FUSED_FOLD).any()
        rng = np.random.default_rng(8)
        for batch in WIDTHS:
            matrix = _special_rows(rng, plan.num_inputs, batch)
            _assert_matches_interpreter(fused, plan, matrix, family, batch)

    def test_families_fold_every_opcode(self):
        """Across the synth families every folded opcode occurs: both
        inner ops, both outer ops, the folded value on either side."""
        seen = set()
        for family in SYNTH_FAMILIES:
            for seed in (5, 6):
                dag = generate_synth(family, 60, seed=seed)
                seen |= set(fuse_plan(compile_dag(dag, CFG).plan()).ops[:, 0])
        assert set(range(FUSED_FOLD, 12)) <= seen

    @pytest.mark.parametrize("code", range(FUSED_FOLD, 12))
    def test_folded_opcode_on_special_values(self, code):
        """One hand-built row per folded opcode, over every triple of
        special values at every width, equals numpy's ``(a op1 b) op2
        c`` (or ``c op2 (a op1 b)``) bitwise."""
        ops_by_code = {1: np.add, 2: np.multiply}
        op1, rest = divmod(code, FUSED_FOLD)
        op2, side = ops_by_code[rest // 2 + 1], rest % 2
        grid = np.array(np.meshgrid(SPECIALS, SPECIALS, SPECIALS))
        triples = grid.reshape(3, -1).T
        for batch in WIDTHS:
            for lo in range(0, len(triples), batch):
                matrix = triples[lo : lo + batch]
                if len(matrix) < batch:
                    matrix = triples[-batch:]
                a, b, c = matrix.T
                with np.errstate(all="ignore"):
                    inner = ops_by_code[op1](a, b)
                    want = op2(c, inner) if side else op2(inner, c)
                got = _run_row(code, matrix)
                assert np.array_equal(_bits(got), _bits(want)), code

    @pytest.mark.parametrize("code", [8, 9])
    def test_no_fma_contraction(self, code):
        """``(a * b) + c`` rounds the product first: with a = 1 +
        2**-30, b = 1 - 2**-30 and c = -1 the product 1 - 2**-60 rounds
        to 1.0 and the sum is 0.0; an FMA would give -2**-60."""
        for batch in WIDTHS:
            matrix = np.tile([1 + 2.0**-30, 1 - 2.0**-30, -1.0], (batch, 1))
            got = _run_row(code, matrix)
            assert np.array_equal(_bits(got), _bits(np.zeros(batch)))

    def test_special_values(self):
        """Rows of ±inf and ±0.0 (where inf - inf and 0 * inf make the
        one default NaN), and rows carrying one NaN payload each —
        quiet or signalling, either sign — among finite values.

        Rows never mix two different NaNs: when two NaN operands meet,
        IEEE 754 leaves open whose payload the result carries, and
        numpy itself answers differently in its vector body and its
        scalar tail, so there is no single expected bit pattern."""
        dag = generate_synth("disconnected", 120, seed=7)
        plan = compile_dag(dag, CFG).plan()
        fused = fuse_plan(plan)
        rng = np.random.default_rng(2)
        n = dag.num_inputs
        specials = np.array([np.inf, -np.inf, 0.0, -0.0, 1.5, -2.0])
        payloads = np.array(
            [0x7FF8000000000005, 0xFFF8000000000003, 0x7FF0000000000009],
            dtype=np.uint64,
        ).view(np.float64)
        rows = [rng.choice(specials, size=n) for _ in range(8)]
        for nan in payloads:
            row = rng.uniform(0.5, 2.0, size=n)
            row[rng.random(n) < 0.3] = nan
            rows.append(row)
        matrix = np.array(rows * 4)  # 44 rows: a vector body and a tail
        _assert_matches_interpreter(fused, plan, matrix)

    def test_overflow_dag(self):
        dag = _overflow_dag()
        plan = compile_dag(dag, CFG).plan()
        fused = fuse_plan(plan)
        matrix = np.random.default_rng(3).uniform(0.9, 1.1, size=(5, 2))
        got = _assert_matches_interpreter(fused, plan, matrix)
        assert all(np.isinf(col).all() for col in got.values())

    def test_zero_op_plan(self):
        """With no compute steps, outputs read initial values only."""
        dag = generate_synth("layered", 20, seed=0)
        plan = compile_dag(dag, CFG).plan()
        plan = dataclasses.replace(plan, steps=())
        fused = fuse_plan(plan)
        assert fused.num_ops == 0 and fused.ops.shape == (0, 5)
        matrix = np.random.default_rng(4).uniform(size=(3, dag.num_inputs))
        _assert_matches_interpreter(fused, plan, matrix)
        out = BatchSimulator(fused).run(matrix).outputs
        ref = interpret_plan(plan, matrix).outputs
        for var in plan.output_vars:
            assert np.array_equal(_bits(out[var]), _bits(ref[var]))

    def test_strided_and_single_row_inputs(self):
        """The native loads read any element-strided matrix."""
        dag = generate_synth("wide", 60, seed=2)
        plan = compile_dag(dag, CFG).plan()
        sim = BatchSimulator(plan)
        wide = np.random.default_rng(5).uniform(size=(8, 2 * dag.num_inputs))
        for matrix in (wide[:, ::2], wide[::-1], wide[3]):
            want = interpret_plan(plan, np.atleast_2d(matrix)).outputs
            got = sim.run(matrix).outputs
            for var in plan.output_vars:
                assert np.array_equal(_bits(got[var]), _bits(want[var]))

    def test_kernel_rejects_out_of_range_tables(self):
        """Pointers reach C only after sizes and bounds are checked."""
        kernel = native.load()
        state = np.zeros((1, 4, 8))
        inputs = np.empty((8, 6))
        good = np.array([[1, 0, 1, 0, 2], [11, 0, 1, 3, 2]], dtype=np.int64)
        kernel.bind_sweep(good, state, inputs)(np.ones((8, 0)))
        for bad_state in (
            np.zeros((4, 8)),  # not tile-major
            np.zeros((1, 4, 7)),  # one row short of the batch
            np.zeros((2, 4, 3)),  # tiles short of the batch
            np.zeros((3, 4, 4)),  # a tile past the batch
            np.zeros((2, 4, 8))[:, :, ::2],  # not C-contiguous
        ):
            with pytest.raises(ValueError):
                kernel.bind_sweep(good, bad_state, inputs)
        for bad in (
            [[0, 0, 1, 0, 2]],  # no opcode 0
            [[12, 0, 1, 0, 2]],  # no opcode 12
            [[1, 0, 4, 0, 2]],  # cell 4 missing
            [[2, -1, 1, 0, 2]],  # negative cell
            [[4, 0, 1, 4, 2]],  # folded c: cell 4 missing
            [[9, 0, 1, -1, 2]],  # folded c: negative cell
            [[3, -1, 0, 0, 2]],  # negative slot
            [[3, 0, 0, 0, 4]],  # loads into a missing cell
            [[3, 6, 0, 0, 1]],  # loads a column inputs lacks
            [[1, 0, 1, 2]],  # four columns
        ):
            with pytest.raises(ValueError):
                kernel.bind_sweep(np.array(bad, dtype=np.int64), state, inputs)
        # Loads of columns 0 and 5 into cells 1 and 3, then 1 + 3 -> 0,
        # then (3 * 1) + 0 -> 2.
        loads = np.array(
            [[3, 0, 0, 0, 1], [3, 5, 0, 0, 3], [1, 1, 3, 0, 0],
             [8, 3, 1, 0, 2]],
            dtype=np.int64,
        )
        matrix = np.arange(48.0).reshape(8, 6)
        # One tile of 8 rows, then tiles of 3, 3 and 2 rows.
        for state in (np.zeros((1, 4, 8)), np.zeros((3, 4, 3))):
            sweep = kernel.bind_sweep(loads, state, inputs)
            for source in (matrix, inputs):
                state[:] = 0.0
                inputs[:] = matrix
                sweep(source)
                cell = state.transpose(1, 0, 2).reshape(4, -1)[:, :8]
                assert (cell[1] == matrix[:, 0]).all()
                assert (cell[3] == matrix[:, 5]).all()
                assert (cell[0] == matrix[:, 0] + matrix[:, 5]).all()
                assert (cell[2] == matrix[:, 5] * matrix[:, 0] + cell[0]).all()
            for bad_matrix in (
                np.ones((8, 5)),  # column 5 missing
                np.ones((7, 6)),  # fewer rows than the batch
                np.ones(6),  # not a matrix
            ):
                with pytest.raises(ValueError):
                    sweep(bad_matrix)
        assert (state[2, :, 2] == 0.0).all()  # past the batch

    def test_threads_share_one_simulator(self):
        """Runs of one simulator from several threads serialize on its
        lock, each on the bound triple of its width.  Runs alternate
        between ``run`` and ``run_rows``, which fills the bound input
        matrix, so a row copied into another run's matrix would show.
        More threads than cores and a short switch interval make the
        interleavings frequent."""
        dag = generate_synth("layered", 200, seed=9)
        plan = compile_dag(dag, CFG).plan()
        sim = BatchSimulator(plan)
        rng = np.random.default_rng(6)
        n_threads = 2 * (os.cpu_count() or 1) + 1
        matrices = [
            rng.uniform(0.9, 1.1, size=(64, dag.num_inputs))
            for _ in range(n_threads)
        ]
        wants = [interpret_plan(plan, m).outputs for m in matrices]
        start = threading.Barrier(n_threads)
        errors = []

        def worker(i):
            start.wait()
            for k in range(30):
                if k % 2:
                    got = sim.run_rows(list(matrices[i])).outputs
                else:
                    got = sim.run(matrices[i]).outputs
                for var, col in wants[i].items():
                    if not np.array_equal(_bits(got[var]), _bits(col)):
                        errors.append((i, var))
                        return

        threads = [
            threading.Thread(target=worker, args=(i,))
            for i in range(n_threads)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


def test_kernel_builds_without_warnings(tmp_path):
    """A compiler that ignores ``target_clones`` warns and leaves the
    AVX2 clone out; ``-Werror`` turns that into a failure here."""
    out = tmp_path / "sweep.so"
    build = subprocess.run(
        ["cc", *native.FLAGS, "-Werror", "-x", "c", "-", "-o", str(out)],
        input=native.SOURCE.encode(),
        capture_output=True,
        timeout=120,
    )
    assert build.returncode == 0, build.stderr.decode()
    assert out.stat().st_size > 0


def _fake_cc(tmp_path, monkeypatch):
    """Put a ``cc`` that always exits 1 first on ``PATH``."""
    bindir = tmp_path / "bin"
    bindir.mkdir()
    cc = bindir / "cc"
    cc.write_text("#!/bin/sh\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bindir}{os.pathsep}{os.environ['PATH']}")


class TestCompilerRequired:
    @pytest.mark.parametrize("broken", ["no-cc", "cc-exits-1"])
    def test_shadowed_cc_makes_simulator_raise(
        self, broken, fresh_load, tmp_path, monkeypatch
    ):
        """Without a working ``cc`` there is no sweep: constructing a
        simulator raises an error that names ``cc``, every time."""
        dag = generate_synth("diamond", 60, seed=3)
        plan = compile_dag(dag, CFG).plan()
        if broken == "no-cc":
            monkeypatch.setattr(native.shutil, "which", lambda name: None)
        else:
            _fake_cc(tmp_path, monkeypatch)
        assert not native.available()
        for _ in range(2):
            with pytest.raises(SimulationError, match="'cc'"):
                BatchSimulator(plan)


def test_two_processes_build_into_one_cache(tmp_path):
    """Two fresh processes sharing a cache directory both load the
    kernel; the directory ends with one library and no temporaries."""
    cache = tmp_path / "shared"
    script = (
        "from repro.sim import native\n"
        "assert native.available()\n"
    )
    env = {
        **os.environ,
        "PYTHONPATH": str(SRC),
        "REPRO_CACHE_DIR": str(cache),
    }
    env.pop("REPRO_NO_CACHE", None)
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", script],
            env=env,
            stderr=subprocess.PIPE,
        )
        for _ in range(2)
    ]
    for proc in procs:
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err.decode()
    files = sorted(p.name for p in (cache / "native").iterdir())
    assert len(files) == 1 and files[0].startswith("sweep-"), files
    assert files[0].endswith(".so")
