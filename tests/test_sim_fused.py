"""Fused execution engine: lowering, layout safety, bitwise parity,
binding.

The fused engine's whole contract is "same IEEE operations, only
independent lanes regrouped" — so nearly every test here is a bitwise
comparison against the differential oracle's plan interpreter
(:func:`~repro.verify.differential.interpret_plan`) or the scalar
simulator, across generated DAGs (hypothesis), every synthetic family
and the serving assembly path.  Because
the fused state reuses cells by liveness and folds single-use results
into their readers, a symbolic replay of the op table
(:func:`_assert_layout_safe`) also checks that every row reads the
values it was scheduled to read.
"""

import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch import ArchConfig
from repro.compiler import compile_dag
from repro.compiler.arrays import DagArrays
from repro.errors import SimulationError, SpillError
from repro.runner.cache import (
    cached_compile,
    cached_fused_plan,
    configure_cache,
    get_cache,
)
from repro.runner.fingerprint import _h, fused_key, metrics_key, plan_key
from repro.sim import (
    BatchSimulator,
    FusedPlan,
    bind_sweep,
    fuse_plan,
    run_program,
)
from repro.sim.batch import BOUND_SWEEP_CAP
from repro.sim import native
from repro.sim.native import TILE
from repro.sim.fused import FUSED_ADD, FUSED_FOLD, FUSED_LOAD, FUSED_MUL
from repro.sim.plan import MoveStep
from repro.verify.differential import interpret_plan
from repro.workloads.synth import SYNTH_FAMILIES, generate_synth

CFG = ArchConfig(depth=2, banks=8, regs_per_bank=16)


def _inputs(dag, batch, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.9, 1.1, size=(batch, max(dag.num_inputs, 1)))


def _assert_bitwise(got, want):
    """Outputs equal down to the bit pattern (NaN == NaN included)."""
    assert sorted(got) == sorted(want)
    for var in want:
        a = np.asarray(got[var], dtype=np.float64)
        b = np.asarray(want[var], dtype=np.float64)
        assert np.array_equal(
            a.view(np.uint64), b.view(np.uint64)
        ), f"var {var}: {a!r} != {b!r}"


class _Values:
    """Hash-consed symbolic values: one id per distinct expression."""

    def __init__(self):
        self.ids: dict[tuple, int] = {}
        self.keys: list[tuple] = []

    def __call__(self, *key) -> int:
        if key not in self.ids:
            self.ids[key] = len(self.keys)
            self.keys.append(key)
        return self.ids[key]



_OP = {FUSED_ADD: "add", FUSED_MUL: "mul"}


def _step_replay(plan, val):
    """Replay the step tape over symbolic values, with the plan
    interpreter's exact write order.  Returns the multiset of computed
    op values and each output variable's value."""
    state = [val("zero")] * plan.state_size
    for cell, slot in zip(plan.input_cells, plan.input_slots):
        state[cell] = val("in", int(slot))
    ops: Counter = Counter()
    for step in plan.steps:
        if type(step) is MoveStep:
            moved = [state[c] for c in step.src.tolist()]
            for c, v in zip(step.dst.tolist(), moved):
                state[c] = v
            continue
        moved = [state[c] for c in step.mov_src.tolist()]
        for c, v in zip(step.mov_out.tolist(), moved):
            state[c] = v
        for name, out, op_a, op_b in (
            ("add", step.add_out, step.add_a, step.add_b),
            ("mul", step.mul_out, step.mul_a, step.mul_b),
        ):
            new = [
                val(name, state[a], state[b])
                for a, b in zip(op_a.tolist(), op_b.tolist())
            ]
            ops.update(new)
            for c, v in zip(out.tolist(), new):
                state[c] = v
    outputs = {
        var: state[cell]
        for var, cell in zip(plan.output_vars, plan.output_cells.tolist())
    }
    return ops, outputs


def _decode(code):
    """A folded opcode's ``(op1, op2, side)``."""
    op1, rest = divmod(code, FUSED_FOLD)
    return op1, rest // 2 + 1, rest % 2


def _operands(code, a, b, c):
    """The cells a row reads (none for a load)."""
    if code == FUSED_LOAD:
        return []
    return [a, b] if code < FUSED_FOLD else [a, b, c]


def _assert_layout_safe(fused, plan):
    """Replay ``fused.ops`` symbolically, row by row, and check its
    loads, folds and cell reuse.

    Every cell holds the symbolic value last written to it; values are
    hash-consed expressions, so a row that read a clobbered cell
    computes an expression the step tape never computes.  Asserts:
    ``level_bounds`` tiles the table in order; every opcode is one the
    kernel runs; no cell is read before it is written in the run; a
    row's output cell is not one of its operand cells (the kernel's
    ``restrict`` premise); the multiset of op values — a folded row
    adds both its inner and its outer value — equals the step tape's
    ops, and every output ends with the step tape's value (so every
    read saw the value it was scheduled to read); every input the step
    tape reads is loaded exactly once, from a slot below
    ``num_inputs``, before its first reader; zero cells are never
    written, nor output cells after their value is.
    """
    val = _Values()
    want_ops, want_outputs = _step_replay(plan, val)
    holder: list = [None] * fused.state_size
    for pos in fused.zero_pos.tolist():
        holder[pos] = val("zero")
    history: dict[int, list[int]] = {}
    got_ops: Counter = Counter()
    loads: Counter = Counter()
    load_row: dict[int, int] = {}
    first_read: dict[int, int] = {}

    bounds = fused.level_bounds.tolist()
    assert bounds[0] == 0 and bounds[-1] == len(fused.ops)
    assert bounds == sorted(bounds)
    assert fused.num_levels == len(bounds) - 1
    for row, (code, a, b, c, out) in enumerate(fused.ops.tolist()):
        assert code in native.OPCODES
        if code == FUSED_LOAD:
            assert 0 <= a < fused.num_inputs
            loads[a] += 1
            load_row[a] = row
            new = val("in", a)
        else:
            cells = _operands(code, a, b, c)
            assert out not in cells, "a row overwrites one of its operands"
            values = [holder[x] for x in cells]
            assert None not in values, "cell read before it was written"
            for v in values:
                if val.keys[v][0] == "in":
                    first_read.setdefault(val.keys[v][1], row)
            if code < FUSED_FOLD:
                new = val(_OP[code], *values)
                got_ops[new] += 1
            else:
                op1, op2, side = _decode(code)
                inner = val(_OP[op1], values[0], values[1])
                pair = (values[2], inner) if side else (inner, values[2])
                new = val(_OP[op2], *pair)
                got_ops.update((inner, new))
        holder[out] = new
        history.setdefault(out, []).append(new)
    assert got_ops == want_ops
    read_slots = {
        val.keys[v][1]
        for key in want_ops
        for v in val.keys[key][1:]
        if val.keys[v][0] == "in"
    } | {
        val.keys[v][1] for v in want_outputs.values() if val.keys[v][0] == "in"
    }
    assert loads == Counter(read_slots), "an input not loaded exactly once"
    for slot in read_slots:
        assert load_row[slot] < first_read.get(slot, len(fused.ops)), slot
    for var, cell in zip(fused.output_vars, fused.output_cells.tolist()):
        assert holder[cell] == want_outputs[var], f"output var {var}"
        # Once written, an output cell is never reused; an output that
        # reads the zero initialization is never written at all.
        written = history.get(cell, [])
        if val.keys[holder[cell]] == ("zero",):
            assert not written
        else:
            assert written.index(holder[cell]) == len(written) - 1
    assert not any(c in history for c in fused.zero_pos.tolist())


def _peak_live(fused):
    """Peak number of values live at once in the row-order schedule:
    a row's value is live from its row through the last row that reads
    it (through the end for an output, only its own row when unread)."""
    ops = fused.ops.tolist()
    writer: dict[int, int] = {}  # cell -> row whose value it holds
    last = list(range(len(ops)))
    for row, (code, a, b, c, out) in enumerate(ops):
        for cell in _operands(code, a, b, c):
            if cell in writer:
                last[writer[cell]] = row
        writer[out] = row
    for cell in fused.output_cells.tolist():
        if cell in writer:
            last[writer[cell]] = len(ops)
    starts = Counter(range(len(ops)))
    ends = Counter(end + 1 for end in last)
    live = 0
    peak = 0
    for row in range(len(ops) + 1):
        live += starts[row] - ends[row]
        peak = max(peak, live)
    return peak


# ---------------------------------------------------------------------------
# Fused lowering structure
# ---------------------------------------------------------------------------
class TestFusePlan:
    def test_kernel_count_bounded_by_dag_groups(self):
        """One (level, opcode) group per DAG level/opcode group at
        most — the DAG's grouping is the lower bound the fusion
        targets.  A folded row counts under its outer op, the one its
        level computes; loads are not arithmetic and not counted.
        Each level's rows are sorted by opcode."""
        from repro.graphs import binarize

        dag = generate_synth("layered", 80, seed=3)
        result = compile_dag(dag, CFG)
        fused = fuse_plan(result.plan())
        groups = DagArrays.of(binarize(dag).dag).level_opcode_groups()
        n_groups = sum(len(g) for g in groups)
        n_kernels = 0
        for lo, hi in itertools.pairwise(fused.level_bounds.tolist()):
            codes = fused.ops[lo:hi, 0].tolist()
            assert codes == sorted(codes)
            n_kernels += len(
                {
                    code if code < FUSED_FOLD else _decode(code)[1]
                    for code in codes
                    if code != FUSED_LOAD
                }
            )
        assert 0 < n_kernels <= n_groups

    def test_level_opcode_groups_partition_arith_nodes(self):
        dag = generate_synth("diamond", 50, seed=1)
        arrays = DagArrays.of(dag)
        groups = arrays.level_opcode_groups()
        assert groups[0] == []  # inputs only
        seen = np.concatenate(
            [ids for lvl in groups for _, ids in lvl]
            or [np.array([], dtype=np.int64)]
        )
        arith = np.flatnonzero(~arrays.is_input)
        assert sorted(seen.tolist()) == sorted(arith.tolist())
        for lvl in groups:
            codes = [code for code, _ in lvl]
            assert codes == sorted(codes)

    def test_state_is_liveness_compacted(self):
        """Cells are reused as soon as a value is dead: on every
        family the state is exactly the zero cells plus the peak number
        of live values, which a greedy pass in row order reaches, and
        smaller than one cell per zero cell, load and row."""
        for family in sorted(SYNTH_FAMILIES):
            dag = generate_synth(family, 90, seed=3)
            fused = fuse_plan(compile_dag(dag, CFG).plan())
            peak = _peak_live(fused)
            assert fused.state_size == fused.zero_pos.size + peak, family
            assert fused.state_size < _uncompacted_cells(fused), family

    def test_single_use_results_fold(self):
        """Deep chains are nearly all single-use results: about every
        other op folds into its reader, and the fused plan keeps the
        DAG's dependence depth (the ``fused.levels`` metric), levels
        left empty by folding included."""
        from repro.graphs import binarize

        dag = generate_synth("deep", 200, seed=1)
        fused = fuse_plan(compile_dag(dag, CFG).plan())
        codes = fused.ops[:, 0]
        n_folded = int((codes >= FUSED_FOLD).sum())
        assert n_folded >= fused.num_ops // 3
        assert int((codes != FUSED_LOAD).sum()) + n_folded == fused.num_ops
        groups = DagArrays.of(binarize(dag).dag).level_opcode_groups()
        assert fused.num_levels == len(groups)

    def test_kept_values_are_not_folded(self):
        """An output that another op reads (a kept inner value, as a
        triangular solve keeps every x_i) keeps its own row and cell,
        while the ops around it still fold."""
        dag = generate_synth("deep", 60, seed=1)
        sinks = set(dag.sinks())
        keep = [n for n in range(dag.num_nodes) if n not in sinks][::3]
        plan = compile_dag(dag, CFG, keep=keep).plan()
        fused = fuse_plan(plan)
        assert (fused.ops[:, 0] >= FUSED_FOLD).any()
        _assert_layout_safe(fused, plan)
        matrix = _inputs(dag, 5)
        _assert_bitwise(
            BatchSimulator(fused).run(matrix).outputs,
            interpret_plan(plan, matrix).outputs,
        )

    def test_unknown_engine_rejected(self):
        """``engine`` survives only as a compatibility shim: ``fused``
        and its alias ``auto`` build the one (fused) engine, and every
        other name — the removed step interpreter included — raises."""
        dag = generate_synth("deep", 10, seed=0)
        plan = compile_dag(dag, CFG).plan()
        for name in ("auto", "fused"):
            sim = BatchSimulator(plan, engine=name)
            assert sim.engine == "fused"
            assert isinstance(sim.plan, FusedPlan)
        for name in ("step", "warp"):
            with pytest.raises(SimulationError, match="unknown engine"):
                BatchSimulator(plan, engine=name)


def _uncompacted_cells(fused):
    """Cells of the fused state without liveness reuse: the pinned
    zero cells plus one cell per load and per row."""
    return fused.zero_pos.size + len(fused.ops)


def _assert_matches_scalar(fused, program, matrix, rows):
    """The first ``rows`` batch rows equal scalar simulator runs."""
    for row in range(rows):
        scalar = run_program(program, list(matrix[row]))
        _assert_bitwise(
            {var: fused.outputs[var][row] for var in fused.outputs},
            scalar.outputs,
        )


# ---------------------------------------------------------------------------
# Bitwise parity: every family, every entry point, against the plan
# interpreter and the scalar simulator
# ---------------------------------------------------------------------------
class TestEngineParity:
    @pytest.mark.parametrize("family", sorted(SYNTH_FAMILIES))
    @pytest.mark.parametrize("engine", ["fused"])
    def test_families_bitwise_equal(self, family, engine):
        dag = generate_synth(family, 60, seed=13)
        result = compile_dag(dag, CFG)
        plan = result.plan()
        matrix = _inputs(dag, 17, seed=5)
        tape = interpret_plan(plan, matrix)
        fused = BatchSimulator(plan, engine=engine).run(matrix)
        _assert_bitwise(fused.outputs, tape.outputs)
        assert fused.counters == tape.counters
        assert fused.peak_occupancy == tape.peak_occupancy
        _assert_matches_scalar(fused, result.program, matrix, 2)

    def test_run_rows_parity(self):
        dag = generate_synth("skewed_fanout", 70, seed=2)
        plan = compile_dag(dag, CFG).plan()
        rng = np.random.default_rng(3)
        # Heterogeneous widths: rows only need num_inputs leading cols.
        rows = [
            rng.uniform(0.9, 1.1, size=dag.num_inputs + (i % 3) * 7)
            for i in range(11)
        ]
        matrix = np.stack([r[: dag.num_inputs] for r in rows])
        tape = interpret_plan(plan, matrix)
        fused = BatchSimulator(plan).run_rows(rows)
        _assert_bitwise(fused.outputs, tape.outputs)
        assert fused.counters == tape.counters

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(sorted(SYNTH_FAMILIES)),
        n=st.integers(min_value=3, max_value=90),
        seed=st.integers(min_value=0, max_value=2**16),
        batch=st.integers(min_value=1, max_value=9),
        value_seed=st.integers(min_value=0, max_value=99),
    )
    def test_property_fused_equals_step(
        self, family, n, seed, batch, value_seed
    ):
        """The acceptance-criterion property: outputs AND counters of
        the fused engine equal the step tape run by the plan
        interpreter, bitwise, on any generated scenario."""
        dag = generate_synth(family, n, seed=seed)
        try:
            plan = compile_dag(dag, CFG).plan()
        except SpillError:
            return  # config legitimately too small — not under test
        matrix = _inputs(dag, batch, seed=value_seed)
        tape = interpret_plan(plan, matrix)
        fused = BatchSimulator(plan).run(matrix)
        _assert_bitwise(fused.outputs, tape.outputs)
        assert fused.counters == tape.counters

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        family=st.sampled_from(sorted(SYNTH_FAMILIES)),
        n=st.integers(min_value=3, max_value=120),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_property_layout_safe(self, family, n, seed):
        """Every compiled plan fuses into a layout where each kernel
        read sees its scheduled value."""
        dag = generate_synth(family, n, seed=seed)
        try:
            plan = compile_dag(dag, CFG).plan()
        except SpillError:
            return  # config legitimately too small — not under test
        _assert_layout_safe(fuse_plan(plan), plan)


# ---------------------------------------------------------------------------
# Bound sweeps: state reuse across runs and batch widths
# ---------------------------------------------------------------------------
class TestBoundSweeps:
    def _plan(self, family="reuse"):
        """A plan of ``family``: ``reuse`` sweeps untiled, ``wide``
        (most of its rows are loads) tiled from two tiles of
        :data:`TILE` rows."""
        dag = generate_synth(family, 80, seed=7)
        return dag, compile_dag(dag, CFG).plan()

    @pytest.mark.parametrize("engine", ["fused"])
    def test_repeated_runs_do_not_leak_state(self, engine):
        dag, plan = self._plan()
        sim = BatchSimulator(plan, engine=engine)
        fresh = BatchSimulator(plan)
        for seed in range(4):
            for batch in (5, 2, 5):
                matrix = _inputs(dag, batch, seed=seed)
                _assert_bitwise(
                    sim.run(matrix).outputs, fresh.run(matrix).outputs
                )

    def test_outputs_survive_a_second_run(self):
        """The bound state is reused by the next run; a result's outputs
        are the rows of one copied ``(n_out, B)`` block, untiled and
        tiled, so they keep their values."""
        for family, batch in (("reuse", 5), ("wide", 2 * TILE + 8)):
            dag, plan = self._plan(family)
            sim = BatchSimulator(plan)
            first = sim.run(_inputs(dag, batch, seed=1))
            kept = {var: col.copy() for var, col in first.outputs.items()}
            second = sim.run(_inputs(dag, batch, seed=2))
            state = sim._bound[batch][0]
            assert state.shape[0] == (1 if family == "reuse" else 3)
            _assert_bitwise(first.outputs, kept)
            assert any(
                not np.array_equal(kept[var], second.outputs[var])
                for var in kept
            )
            cols = list(first.outputs.values())
            (block,) = {id(col.base): col.base for col in cols}.values()
            assert block.size >= len(cols) * batch
            assert not np.shares_memory(block, state)
            for col in cols:
                assert col.shape == (batch,)

    def test_reused_cells_match_fresh_simulator(self):
        """Cells are reused within a run, so a bound state holds the
        previous batch's values when the next run starts.  Matrices A,
        B, A through one simulator — at one width, then interleaved
        over every width up to the bound-pair cap, through both entry
        points — must equal a fresh simulator's result bitwise."""
        dag, plan = self._plan()
        fused = fuse_plan(plan)
        assert fused.state_size < _uncompacted_cells(fused)
        sim = BatchSimulator(fused)
        for widths in ((6,), range(1, BOUND_SWEEP_CAP + 1)):
            for seed in (1, 2, 1):
                for width in widths:
                    matrix = _inputs(dag, width, seed=seed)
                    fresh = BatchSimulator(plan).run(matrix)
                    _assert_bitwise(sim.run(matrix).outputs, fresh.outputs)
                    _assert_bitwise(
                        sim.run_rows(list(matrix)).outputs, fresh.outputs
                    )
        assert len(sim._bound) == BOUND_SWEEP_CAP

    @pytest.mark.parametrize("batch", [1, 3, 64, 256])
    def test_states_are_cache_line_aligned(self, batch):
        """Every tile of every state starts on a 64-byte boundary, in
        untiled and tiled states alike: fresh ones and the bound one a
        run keeps."""
        for family in ("reuse", "wide"):
            dag, plan = self._plan(family)
            sim = BatchSimulator(plan)
            fused = sim.plan
            states = [fused.make_state(batch) for _ in range(8)]
            sim.run(_inputs(dag, batch))
            states.append(sim._bound[batch][0])
            width = fused.tile_width(batch)
            tiled = family == "wide" and batch >= 2 * TILE
            assert width == (TILE if tiled else batch)
            for state in states:
                assert state.shape == (
                    -(-batch // width),
                    fused.state_size,
                    width,
                )
                assert state.flags.c_contiguous
                for tile in state:
                    assert tile.ctypes.data % 64 == 0

    def test_bound_pair_cache_evicts_oldest(self):
        dag, plan = self._plan()
        sim = BatchSimulator(plan)
        for batch in range(1, BOUND_SWEEP_CAP + 4):
            sim.run(_inputs(dag, batch))
        assert len(sim._bound) <= BOUND_SWEEP_CAP
        assert 1 not in sim._bound  # oldest width evicted

    def test_bind_sweep_matches_reference_executor(self):
        """A bare bound triple, swept by hand over a matrix and over its
        own filled input matrix, equals the oracle's plan interpreter
        bitwise."""
        dag, plan = self._plan()
        fused = fuse_plan(plan)
        matrix = _inputs(dag, 6, seed=3)
        state, inputs, sweep = bind_sweep(fused, 6)
        sweep(matrix)
        _assert_bitwise(
            dict(zip(plan.output_vars, fused.read_outputs(state, 6))),
            interpret_plan(plan, matrix).outputs,
        )
        # The bound input matrix runs through the pointers bound with it.
        inputs[:] = matrix[::-1]
        sweep(inputs)
        matrix = matrix[::-1]
        _assert_bitwise(
            dict(zip(plan.output_vars, fused.read_outputs(state, 6))),
            interpret_plan(plan, matrix).outputs,
        )


# ---------------------------------------------------------------------------
# Fused-plan artifact cache
# ---------------------------------------------------------------------------
class TestFusedCache:
    def test_cache_keys_are_distinct_kinds(self):
        from repro.arch import DEFAULT_TOPOLOGY

        keys = {
            plan_key("abc", DEFAULT_TOPOLOGY),
            fused_key("abc"),
            metrics_key("abc"),
        }
        assert len(keys) == 3

    def test_pre_bump_entry_is_not_reused(self, tmp_path):
        """A fused plan cached under the key of an older layout — the
        uncompacted one (no layout version in its key), ``fused-v4``,
        ``fused-v5`` or ``fused-v6`` — is never served: the layout
        version in ``fused_key`` moves every lookup to a fresh key."""
        from repro.arch import DEFAULT_TOPOLOGY

        configure_cache(tmp_path / "cache")
        dag = generate_synth("layered", 70, seed=11)
        result = cached_compile(dag, CFG)
        pkey = plan_key(result.cache_key, DEFAULT_TOPOLOGY)
        old_key = _h(b"fused", pkey.encode()).hex()
        assert fused_key(pkey) != old_key
        # The key of the last layout with per-level kernel objects.
        v4_key = _h(b"fused", b"fused-v4", pkey.encode()).hex()
        assert fused_key(pkey) != v4_key
        # The key of the last layout with a separate input scatter.
        v5_key = _h(b"fused", b"fused-v5", pkey.encode()).hex()
        assert fused_key(pkey) != v5_key
        # The key of the last layout without folded rows.
        v6_key = _h(b"fused", b"fused-v6", pkey.encode()).hex()
        assert fused_key(pkey) != v6_key
        get_cache().put(old_key, "stale uncompacted plan")
        get_cache().put(v4_key, "stale level-tree plan")
        get_cache().put(v5_key, "stale scatter plan")
        get_cache().put(v6_key, "stale unfolded plan")
        fused = cached_fused_plan(result)
        assert isinstance(fused, FusedPlan)
        assert fused.fingerprint == fuse_plan(result.plan()).fingerprint
        assert get_cache().get(fused_key(pkey)) is not None
        assert get_cache().get(old_key) == "stale uncompacted plan"
        assert get_cache().get(v4_key) == "stale level-tree plan"
        assert get_cache().get(v5_key) == "stale scatter plan"
        assert get_cache().get(v6_key) == "stale unfolded plan"
