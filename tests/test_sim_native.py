"""The native sweep kernel: bitwise parity with the numpy sweep, the
no-compiler fallback, concurrent runs and the shared build cache.

The native kernel and the numpy sweep perform the same IEEE-double
operation on the same operands, so every comparison here is on
``uint64`` views.  Tests that need the kernel skip where no working C
compiler exists (the fallback tests run everywhere); the tier-1 CI job
asserts the kernel is available, so they cannot skip silently there.
"""

import dataclasses
import logging
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import DAGBuilder
from repro.arch import ArchConfig
from repro.compiler import compile_dag
from repro.graphs import OpType
from repro.sim import BatchSimulator, bind_sweep, fuse_plan, native
from repro.verify.differential import interpret_plan
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth

CFG = ArchConfig(depth=2, banks=8, regs_per_bank=16)
SRC = Path(__file__).resolve().parent.parent / "src"

needs_native = pytest.mark.skipif(
    not native.available(), reason="no working C compiler"
)


def _bits(arr):
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.uint64)


def _sweep_both(fused, plan, matrix, monkeypatch):
    """Final states of the native and the numpy sweep, each bound by
    :func:`bind_sweep` and loading the same input matrix."""
    states = []
    for kernel in (native.load(), None):
        with monkeypatch.context() as m:
            m.setattr(native, "load", lambda k=kernel: k)
            state, sweep = bind_sweep(fused, len(matrix))
        sweep(matrix)
        states.append(state)
    return states


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


@needs_native
class TestParity:
    @pytest.mark.parametrize("family", SYNTH_FAMILIES)
    def test_native_matches_numpy_sweep(self, family, monkeypatch):
        """Widths 5 and 257 run the kernel's four-row bodies and its
        scalar tails together; 1 and 3 run tails only, 256 bodies
        only.  The outputs also equal the plan interpreter's."""
        dag = generate_synth(family, 60, seed=5)
        plan = compile_dag(dag, CFG).plan()
        fused = fuse_plan(plan)
        rng = np.random.default_rng(1)
        for batch in (1, 3, 5, 256, 257):
            matrix = rng.uniform(0.9, 1.1, size=(batch, dag.num_inputs))
            got, want = _sweep_both(fused, plan, matrix, monkeypatch)
            # Whole states: every cell either sweep writes, not only
            # the outputs.
            assert np.array_equal(_bits(got), _bits(want)), (family, batch)
            ref = interpret_plan(plan, matrix).outputs
            for var, row in zip(plan.output_vars, got[fused.output_cells]):
                assert np.array_equal(_bits(row), _bits(ref[var])), (
                    family,
                    batch,
                    var,
                )

    def test_special_values(self, monkeypatch):
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
        got, want = _sweep_both(fused, plan, matrix, monkeypatch)
        assert np.array_equal(_bits(got), _bits(want))
        outputs = dict(zip(plan.output_vars, got[fused.output_cells]))
        ref = interpret_plan(plan, matrix).outputs
        for var in plan.output_vars:
            assert np.array_equal(_bits(outputs[var]), _bits(ref[var]))

    def test_overflow_dag(self, monkeypatch):
        dag = _overflow_dag()
        plan = compile_dag(dag, CFG).plan()
        fused = fuse_plan(plan)
        matrix = np.random.default_rng(3).uniform(0.9, 1.1, size=(5, 2))
        got, want = _sweep_both(fused, plan, matrix, monkeypatch)
        assert np.array_equal(_bits(got), _bits(want))
        assert np.isinf(got[fused.output_cells]).all()

    def test_zero_op_plan(self, monkeypatch):
        """With no compute steps, outputs read initial values only."""
        dag = generate_synth("layered", 20, seed=0)
        plan = compile_dag(dag, CFG).plan()
        plan = dataclasses.replace(plan, steps=())
        fused = fuse_plan(plan)
        assert fused.num_ops == 0 and fused.ops.shape == (0, 4)
        matrix = np.random.default_rng(4).uniform(size=(3, dag.num_inputs))
        got, want = _sweep_both(fused, plan, matrix, monkeypatch)
        assert np.array_equal(_bits(got), _bits(want))
        out = BatchSimulator(plan, fused_plan=fused).run(matrix).outputs
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
        state = np.zeros((4, 8))
        good = np.array([[1, 0, 1, 2]], dtype=np.int64)
        kernel.bind_sweep(good, state)(np.ones((8, 0)))
        for bad in (
            [[4, 0, 1, 2]],  # no opcode 4
            [[1, 0, 4, 2]],  # cell 4 missing
            [[2, -1, 1, 2]],  # negative cell
            [[3, -1, 0, 2]],  # negative slot
            [[3, 0, 0, 4]],  # loads into a missing cell
        ):
            with pytest.raises(ValueError):
                kernel.bind_sweep(np.array(bad, dtype=np.int64), state)
        # Loads of columns 0 and 5 into cells 1 and 3, then 1 + 3 -> 0.
        loads = np.array(
            [[3, 0, 0, 1], [3, 5, 0, 3], [1, 1, 3, 0]], dtype=np.int64
        )
        sweep = kernel.bind_sweep(loads, state)
        matrix = np.arange(48.0).reshape(8, 6)
        sweep(matrix)
        assert (state[1] == matrix[:, 0]).all()
        assert (state[3] == matrix[:, 5]).all()
        assert (state[0] == matrix[:, 0] + matrix[:, 5]).all()
        for bad_matrix in (
            np.ones((8, 5)),  # column 5 missing
            np.ones((7, 6)),  # fewer rows than the batch
            np.ones(6),  # not a matrix
        ):
            with pytest.raises(ValueError):
                sweep(bad_matrix)

    def test_threads_share_one_simulator(self):
        """ctypes releases the GIL, so the threads' sweeps overlap: one
        holds the bound pair, the others bind throwaway ones.  More
        threads than cores and a short switch interval make the
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
            for _ in range(30):
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


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
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


class TestFallback:
    @pytest.mark.parametrize("broken", ["no-cc", "cc-exits-1"])
    def test_fallback_runs_numpy_with_one_warning(
        self, broken, fresh_load, tmp_path, monkeypatch, caplog
    ):
        dag = generate_synth("diamond", 60, seed=3)
        plan = compile_dag(dag, CFG).plan()
        matrix = np.random.default_rng(7).uniform(
            0.9, 1.1, size=(16, dag.num_inputs)
        )
        want = interpret_plan(plan, matrix).outputs
        if broken == "no-cc":
            monkeypatch.setattr(native.shutil, "which", lambda name: None)
        else:
            _fake_cc(tmp_path, monkeypatch)
        with caplog.at_level(logging.WARNING, logger=native.__name__):
            assert not native.available()
            for _ in range(3):
                sim = BatchSimulator(plan)
                got = sim.run(matrix).outputs
                rows = sim.run_rows(list(matrix)).outputs
                for var in plan.output_vars:
                    assert np.array_equal(_bits(got[var]), _bits(want[var]))
                    assert np.array_equal(_bits(rows[var]), _bits(want[var]))
        warnings = [
            r for r in caplog.records if r.name == native.__name__
        ]
        assert len(warnings) == 1
        assert "numpy" in warnings[0].getMessage()


@needs_native
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
