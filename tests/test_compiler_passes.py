"""Unit tests for schedule construction, liveness, reorder, spill, regalloc."""

import dataclasses

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.arch import (
    MIN_EDP_CONFIG,
    ArchConfig,
    CopyInstr,
    ExecInstr,
    Interconnect,
    LoadInstr,
    NopInstr,
    StoreInstr,
    consumed_vars,
    produced_vars,
)
from repro.compiler import (
    allocate_addresses,
    analyze_residences,
    annotate_liveness,
    build_dependencies,
    build_schedule,
    decompose,
    insert_spills,
    map_banks,
    max_live_per_bank,
    reorder,
    verify_hazard_free,
)
from repro.errors import CompileError, ScheduleError
from repro.graphs import OpType, binarize
from repro.testing import make_chain_dag, make_random_dag


@pytest.fixture(scope="module")
def cfg():
    return ArchConfig(depth=2, banks=8, regs_per_bank=16)


@pytest.fixture(scope="module")
def pipeline(cfg):
    """Run steps 1-2.5 once; several test classes poke at the result."""
    bdag = binarize(make_random_dag(61, num_ops=150)).dag
    decomp = decompose(bdag, cfg)
    mapping = map_banks(decomp, Interconnect(cfg), seed=2)
    schedule = build_schedule(decomp, mapping)
    return decomp, mapping, schedule


class TestSchedule:
    def test_one_exec_per_block(self, pipeline):
        decomp, _, schedule = pipeline
        execs = [
            i for i in schedule.instructions if isinstance(i, ExecInstr)
        ]
        assert len(execs) == decomp.num_blocks

    def test_exec_reads_have_distinct_banks(self, pipeline):
        _, _, schedule = pipeline
        for instr in schedule.instructions:
            if isinstance(instr, ExecInstr):
                banks = [b for b, _ in instr.bank_reads]
                assert len(banks) == len(set(banks))

    def test_copy_port_limits(self, pipeline):
        _, _, schedule = pipeline
        for instr in schedule.instructions:
            if isinstance(instr, CopyInstr):
                srcs = [m.src_bank for m in instr.moves]
                dsts = [m.dst_bank for m in instr.moves]
                assert len(set(srcs)) == len(srcs)
                assert len(set(dsts)) == len(dsts)

    def test_every_external_input_loaded_once(self, pipeline):
        decomp, _, schedule = pipeline
        loaded = [
            var
            for instr in schedule.instructions
            if isinstance(instr, LoadInstr)
            for _, var in instr.dests
        ]
        leaves_used = {
            v
            for b in decomp.blocks
            for v in b.input_vars
            if decomp.dag.op(v) is OpType.INPUT
        }
        assert sorted(loaded) == sorted(leaves_used)

    def test_input_layout_lane_equals_bank(self, pipeline):
        _, mapping, schedule = pipeline
        for var, (row, bank) in schedule.input_layout.items():
            assert mapping.bank_of[var] == bank

    def test_all_sinks_stored(self, pipeline):
        decomp, _, schedule = pipeline
        sinks = {
            n
            for n in decomp.dag.nodes()
            if not decomp.dag.successors(n)
            and decomp.dag.op(n) is not OpType.INPUT
        }
        assert set(schedule.output_layout) == sinks

    def test_conflict_copies_counted(self, pipeline):
        _, _, schedule = pipeline
        moves = sum(
            len(i.moves)
            for i in schedule.instructions
            if isinstance(i, CopyInstr)
        )
        assert moves == schedule.stats.conflict_copies


class TestLiveness:
    def test_every_residence_read(self, pipeline):
        _, _, schedule = pipeline
        flagged = annotate_liveness(schedule.instructions)
        for res in analyze_residences(flagged):
            assert res.reads

    def test_exactly_one_free_per_residence(self, pipeline):
        _, _, schedule = pipeline
        flagged = annotate_liveness(schedule.instructions)
        residences = analyze_residences(flagged)
        freed = set()
        for idx, instr in enumerate(flagged):
            for bank in instr.valid_rst:
                freed.add((idx, bank))
        for res in residences:
            assert (res.reads[-1], res.bank) in freed

    def test_max_live_positive(self, pipeline, cfg):
        _, _, schedule = pipeline
        flagged = annotate_liveness(schedule.instructions)
        peaks = max_live_per_bank(flagged, cfg.banks)
        assert any(p > 0 for p in peaks)

    def test_read_without_write_detected(self):
        instr = StoreInstr(row=0, slots=())
        bogus = ExecInstr(
            bank_reads=((0, 5),),
            port_source=(None,) * 8,
            pe_ops=(),
            writes=(),
        )
        with pytest.raises(CompileError):
            analyze_residences([bogus])


class TestReorder:
    def test_hazard_free_after_reorder(self, pipeline, cfg):
        _, _, schedule = pipeline
        result = reorder(
            schedule.instructions, cfg, extra_deps=schedule.anchor_deps
        )
        flagged = annotate_liveness(result.instructions)
        verify_hazard_free(flagged, cfg)

    def test_preserves_instruction_multiset(self, pipeline, cfg):
        _, _, schedule = pipeline
        result = reorder(schedule.instructions, cfg)
        originals = [
            i for i in result.instructions if not isinstance(i, NopInstr)
        ]
        assert len(originals) == len(schedule.instructions)

    def test_chain_needs_nops(self, cfg):
        # A pure serial chain cannot hide the pipeline latency.
        bdag = binarize(make_chain_dag(length=20)).dag
        decomp = decompose(bdag, cfg)
        mapping = map_banks(decomp, Interconnect(cfg))
        schedule = build_schedule(decomp, mapping)
        result = reorder(schedule.instructions, cfg)
        assert result.nops_inserted > 0

    def test_dependencies_capture_raw(self, pipeline, cfg):
        _, _, schedule = pipeline
        deps = build_dependencies(schedule.instructions, cfg)
        # Every consumed residence must have a producer edge.
        writer = {}
        for idx, instr in enumerate(schedule.instructions):
            producers = {p for p, _ in deps[idx]}
            for key in consumed_vars(instr):
                assert writer[key] in producers
            for key in produced_vars(instr):
                writer[key] = idx

    def test_verify_detects_violation(self, cfg):
        exec_i = ExecInstr(
            bank_reads=(),
            port_source=(None,) * cfg.banks,
            pe_ops=tuple([0] * 0) or (),
            writes=(),
        )
        # Craft a producer/consumer pair one cycle apart.
        from repro.arch import PEOp, WriteSpec

        producer = ExecInstr(
            bank_reads=(),
            port_source=tuple([None] * cfg.banks),
            pe_ops=tuple([PEOp.IDLE] * cfg.num_pes),
            writes=(WriteSpec(pe=0, bank=0, var=1),),
        )
        consumer = StoreInstr(
            row=0, slots=(type(producer.writes[0]), )
        ) if False else None
        from repro.arch import StoreSlot

        consumer = StoreInstr(
            row=0, slots=(StoreSlot(bank=0, var=1),)
        )
        with pytest.raises(ScheduleError):
            verify_hazard_free([producer, consumer], cfg)


class TestSpillAndRegalloc:
    def test_spill_bounds_occupancy(self, cfg):
        tight = ArchConfig(depth=2, banks=8, regs_per_bank=4)
        bdag = binarize(make_random_dag(62, num_ops=200)).dag
        decomp = decompose(bdag, tight)
        mapping = map_banks(decomp, Interconnect(tight))
        schedule = build_schedule(decomp, mapping)
        ro = reorder(
            schedule.instructions, tight, extra_deps=schedule.anchor_deps
        )
        flagged = annotate_liveness(ro.instructions)
        spilled = insert_spills(flagged, tight, next_row=schedule.num_rows)
        assert spilled.spills > 0
        final = annotate_liveness(spilled.instructions)
        verify_hazard_free(final, tight)
        allocation = allocate_addresses(final, tight)
        assert max(allocation.peak_occupancy) <= tight.regs_per_bank

    def test_no_spills_when_r_large(self, pipeline, cfg):
        _, _, schedule = pipeline
        ro = reorder(
            schedule.instructions, cfg, extra_deps=schedule.anchor_deps
        )
        flagged = annotate_liveness(ro.instructions)
        big = ArchConfig(depth=2, banks=8, regs_per_bank=1024)
        spilled = insert_spills(flagged, big, next_row=schedule.num_rows)
        assert spilled.spills == 0
        assert spilled.instructions == flagged

    def test_regalloc_trace(self, pipeline, cfg):
        _, _, schedule = pipeline
        ro = reorder(
            schedule.instructions, cfg, extra_deps=schedule.anchor_deps
        )
        flagged = annotate_liveness(ro.instructions)
        allocation = allocate_addresses(flagged, cfg, trace=True)
        assert len(allocation.trace) == len(flagged)
        assert len(allocation.read_addrs) == len(flagged)

    def test_regalloc_detects_overflow(self, cfg):
        tight = ArchConfig(depth=2, banks=8, regs_per_bank=4)
        bdag = binarize(make_random_dag(63, num_ops=200)).dag
        decomp = decompose(bdag, tight)
        mapping = map_banks(decomp, Interconnect(tight))
        schedule = build_schedule(decomp, mapping)
        flagged = annotate_liveness(schedule.instructions)
        # Without the spill pass, a tight config must overflow.
        with pytest.raises(CompileError):
            allocate_addresses(flagged, tight)


# ---------------------------------------------------------------------
# Compiler-pass invariants over the synthetic scenario families
# (hypothesis-driven; ISSUE-3 satellite).
# ---------------------------------------------------------------------
@st.composite
def synth_dag_strategy(draw, min_n: int = 10, max_n: int = 90):
    """A DAG drawn from the repro.workloads.synth family pool."""
    from repro.workloads import SYNTH_FAMILIES, generate_synth

    family = draw(st.sampled_from(sorted(SYNTH_FAMILIES)))
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return generate_synth(family, n, seed=seed)


@st.composite
def synth_config_strategy(draw):
    return ArchConfig(
        depth=draw(st.sampled_from([1, 2, 3])),
        banks=draw(st.sampled_from([8, 16])),
        regs_per_bank=draw(st.sampled_from([8, 16, 32])),
    )


def _compile_synth_or_reject(dag, cfg):
    """Tightest sampled register files legitimately cannot hold every
    synth live set; a clean SpillError is not the invariant under
    test."""
    from repro.compiler import compile_dag
    from repro.errors import SpillError

    try:
        return compile_dag(dag, cfg)
    except SpillError:
        assume(False)


class TestSynthPassInvariants:
    """The three satellite properties, over generated scenario DAGs."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(dag=synth_dag_strategy(), cfg=synth_config_strategy())
    def test_regalloc_never_double_books_a_live_register(self, dag, cfg):
        """Replaying the allocator's resolved addresses against the
        documented policy (frees before reserves, reserve-at-issue), no
        write may land on an address that is still live, no read may
        touch an address that is not."""
        result = _compile_synth_or_reject(dag, cfg)
        allocation = result.allocation
        live = [set() for _ in range(cfg.banks)]
        for idx, instr in enumerate(result.program.instructions):
            reads = allocation.read_addrs[idx]
            for bank, addr in reads.items():
                assert addr in live[bank], (
                    f"instr {idx} reads unallocated {bank}:{addr}"
                )
            for bank in instr.valid_rst:  # frees precede reserves
                live[bank].discard(reads[bank])
            for bank, addr in allocation.write_addrs[idx].items():
                assert 0 <= addr < cfg.regs_per_bank
                assert addr not in live[bank], (
                    f"instr {idx} double-books live register {bank}:{addr}"
                )
                live[bank].add(addr)
            for bank, addrs in enumerate(live):
                assert len(addrs) <= cfg.regs_per_bank

    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.filter_too_much,
        ],
    )
    @given(
        # High-cut-width families on a 4-deep register file spill in
        # about two thirds of draws; the rest are assumed away.
        family=st.sampled_from(
            ["layered", "reuse", "skewed_fanout", "near_chain"]
        ),
        n=st.integers(min_value=60, max_value=140),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        value_seed=st.integers(0, 99),
    )
    def test_spill_round_trips_values(self, family, n, seed, value_seed):
        """Values that travel through spill stores/loads come back
        exactly: a spill-forcing compilation still matches the golden
        model on every materialized variable."""
        from repro.sim import run_program
        from repro.testing import random_inputs, reference_values
        from repro.workloads import generate_synth

        dag = generate_synth(family, n, seed=seed)
        tight = ArchConfig(depth=2, banks=8, regs_per_bank=4)
        result = _compile_synth_or_reject(dag, tight)
        assume(result.stats.spills > 0)
        inputs = random_inputs(dag, seed=value_seed)
        # reference= makes the simulator assert every commit bitwise.
        run_program(
            result.program,
            inputs,
            reference=reference_values(dag, inputs),
            check_addresses=result.allocation.read_addrs,
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(dag=synth_dag_strategy(), cfg=synth_config_strategy())
    def test_schedule_respects_hazard_and_dependence_order(self, dag, cfg):
        """Every consumed residence was produced by an earlier
        instruction, far enough back to respect the pipeline latency
        (verify_hazard_free), and the final stream stays verifiable."""
        result = _compile_synth_or_reject(dag, cfg)
        instrs = list(result.program.instructions)
        verify_hazard_free(instrs, cfg)
        produced_at: dict[tuple[int, int], int] = {}
        for idx, instr in enumerate(instrs):
            for key in consumed_vars(instr):
                assert key in produced_at, (
                    f"instr {idx} consumes {key} before any producer"
                )
                assert produced_at[key] < idx
            for key in produced_vars(instr):
                produced_at[key] = idx

    @pytest.mark.parametrize("config_name", ["spilly_config", "min_edp"])
    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[
            HealthCheck.too_slow,
            HealthCheck.function_scoped_fixture,
        ],
    )
    @given(dag=synth_dag_strategy(min_n=30, max_n=140))
    def test_spill_pass_matches_full_reannotation(
        self, config_name, request, dag
    ):
        """compile_dag does not re-annotate liveness after spilling;
        its program must equal the formulation that always re-annotates
        the spilled stream."""
        cfg = (
            MIN_EDP_CONFIG
            if config_name == "min_edp"
            else request.getfixturevalue(config_name)
        )
        result = _compile_synth_or_reject(dag, cfg)
        decomp = decompose(binarize(dag).dag, cfg)
        schedule = build_schedule(decomp, map_banks(decomp, Interconnect(cfg)))
        ro = reorder(
            schedule.instructions, cfg, extra_deps=schedule.anchor_deps
        )
        spilled = insert_spills(
            annotate_liveness(ro.instructions), cfg,
            next_row=schedule.num_rows,
        )
        assert list(result.program.instructions) == annotate_liveness(
            spilled.instructions
        )


# ---------------------------------------------------------------------
# The spill pass's no-spill exit and the pressure count behind it
# ---------------------------------------------------------------------
def _max_live_by_event_sort(instrs, banks):
    """The event-sort formulation of ``max_live_per_bank``, kept as an
    oracle for the vectorised one."""
    events = []  # (time, +1/-1, bank)
    for res in analyze_residences(instrs):
        events.append((res.writer, 1, res.bank))
        events.append((res.reads[-1], -1, res.bank))
    events.sort(key=lambda e: (e[0], e[1]))  # frees first at a time
    live = [0] * banks
    peak = [0] * banks
    for _, delta, bank in events:
        live[bank] += delta
        peak[bank] = max(peak[bank], live[bank])
    return peak


def _flagged_schedule(dag, cfg):
    """Steps 1-3 plus liveness: what compile_dag hands the spill pass."""
    decomp = decompose(binarize(dag).dag, cfg)
    schedule = build_schedule(decomp, map_banks(decomp, Interconnect(cfg)))
    ro = reorder(schedule.instructions, cfg, extra_deps=schedule.anchor_deps)
    residences = analyze_residences(ro.instructions)
    flagged = annotate_liveness(ro.instructions, residences=residences)
    return flagged, residences, schedule.num_rows


_pass_settings = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


class TestNoSpillExit:
    @_pass_settings
    @given(dag=synth_dag_strategy(min_n=30, max_n=200),
           cfg=synth_config_strategy())
    def test_exit_iff_no_bank_exceeds_r(self, dag, cfg):
        """With R at the schedule's peak pressure the early exit is
        taken and agrees with the simulation; one register fewer and
        the simulation runs and spills."""
        from repro.compiler.spill import _simulate
        from repro.errors import SpillError

        flagged, residences, next_row = _flagged_schedule(dag, cfg)
        peak = max(max_live_per_bank(flagged, cfg.banks))
        assume(peak >= 3)

        at_peak = dataclasses.replace(cfg, regs_per_bank=peak)
        result = insert_spills(
            flagged, at_peak, next_row=next_row, residences=residences
        )
        assert result.instructions is flagged  # the exit was taken
        assert result.spills == 0 and result.num_rows == next_row
        assert result == _simulate(flagged, at_peak, next_row, residences)

        below = dataclasses.replace(cfg, regs_per_bank=peak - 1)
        try:
            spilled = insert_spills(
                flagged, below, next_row=next_row, residences=residences
            )
        except SpillError:
            return  # only the simulation raises: it ran out of room
        assert spilled.spills > 0

    def test_spilled_stream_is_rechecked(self, monkeypatch, spilly_config):
        """A spill bug that leaks a reload (written, never read) still
        fails the compile: compile_dag re-runs the residence analysis
        on any stream the spill pass rewrote."""
        from repro.compiler import compile_dag, pipeline

        real = pipeline.insert_spills

        def leaky(*args, **kwargs):
            result = real(*args, **kwargs)
            loads = [i for i in result.instructions
                     if isinstance(i, LoadInstr)]
            assert result.spills > 0 and loads
            return dataclasses.replace(
                result, instructions=result.instructions + [loads[-1]]
            )

        monkeypatch.setattr(pipeline, "insert_spills", leaky)
        with pytest.raises(CompileError, match="never read"):
            compile_dag(make_random_dag(seed=3, num_leaves=24, num_ops=300),
                        spilly_config)

    @_pass_settings
    @given(dag=synth_dag_strategy(min_n=10, max_n=200),
           cfg=synth_config_strategy())
    def test_max_live_matches_event_sort(self, dag, cfg):
        """Before and after spilling (where reloads add residences)."""
        flagged, residences, next_row = _flagged_schedule(dag, cfg)
        want = _max_live_by_event_sort(flagged, cfg.banks)
        assert max_live_per_bank(flagged, cfg.banks) == want
        assert max_live_per_bank(
            flagged, cfg.banks, residences=residences
        ) == want
        tight = dataclasses.replace(cfg, regs_per_bank=max(2, max(want) - 2))
        try:
            spilled = insert_spills(flagged, tight, next_row=next_row)
        except CompileError:
            return
        final = spilled.instructions
        assert max_live_per_bank(final, cfg.banks) == (
            _max_live_by_event_sort(final, cfg.banks)
        )
