"""compile_dag, plan lowering and fusion run with the cyclic garbage
collector paused.

The pause is only sound because none of them makes reference cycles:
any collection during them would free nothing.  These tests hold the
compiler, the lowering and the fusion to that, and check that the
collector's enabled state after each is the state it had before —
after errors, when the caller had disabled it, and under concurrent
compiles.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter

import pytest

from repro import MIN_EDP_CONFIG, compile_dag
from repro.arch import ArchConfig
from repro.compiler import pipeline
from repro.errors import CompileError
from repro.sim import fuse_plan
from repro.sim import fused as fused_mod
from repro.sim import plan as plan_mod
from repro.workloads import (
    SYNTH_FAMILIES,
    build_workload,
    generate_synth,
    workload_names,
)

SPILLY = ArchConfig(depth=2, banks=8, regs_per_bank=4)
D1_B8 = ArchConfig(depth=1, banks=8, regs_per_bank=16)
D3_B16 = ArchConfig(depth=3, banks=16, regs_per_bank=32)


@pytest.fixture
def gc_state():
    """Restore the collector's enabled state and debug flags."""
    enabled = gc.isenabled()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _saving_garbage(fn, *args, **kwargs):
    """Call ``fn``; return its result and the types of the objects the
    call left in unreachable reference cycles."""
    gc.collect()  # free what building the inputs left behind
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        result = fn(*args, **kwargs)
        gc.collect()
        garbage = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    return result, garbage


def _compile_saving_garbage(dag, config, seed=0):
    return _saving_garbage(compile_dag, dag, config, seed=seed)


def _assert_lower_and_fuse_make_no_cycles(result):
    plan, garbage = _saving_garbage(result.plan)
    assert garbage == Counter()
    _, garbage = _saving_garbage(fuse_plan, plan)
    assert garbage == Counter()


@pytest.mark.parametrize("name", workload_names(("pc", "sptrsv")))
def test_table1_compile_makes_no_cycles(gc_state, name):
    dag = build_workload(name, scale=0.05)
    result, garbage = _compile_saving_garbage(dag, MIN_EDP_CONFIG)
    assert garbage == Counter()
    _assert_lower_and_fuse_make_no_cycles(result)


@pytest.mark.parametrize(
    "config", [SPILLY, MIN_EDP_CONFIG, D1_B8], ids=str
)
@pytest.mark.parametrize("family", sorted(SYNTH_FAMILIES))
def test_synth_compile_makes_no_cycles(gc_state, family, config):
    dag = generate_synth(family, 300, seed=1)
    result, garbage = _compile_saving_garbage(dag, config)
    assert garbage == Counter()
    _assert_lower_and_fuse_make_no_cycles(result)
    if config is SPILLY and family == "layered":
        assert result.stats.spills > 0  # the spill simulation ran


def test_output_repair_makes_no_cycles(gc_state):
    dag = generate_synth("layered", 400, seed=11)
    result, garbage = _compile_saving_garbage(dag, D3_B16, seed=1)
    assert garbage == Counter()
    assert result.stats.mapping_repairs >= 1  # _try_take recursed


def test_gc_enabled_again_after_compile(gc_state):
    gc.enable()
    compile_dag(generate_synth("diamond", 120, seed=0), MIN_EDP_CONFIG)
    assert gc.isenabled()


def test_gc_enabled_again_after_compile_error(gc_state, monkeypatch):
    seen = []

    def failing_reorder(*args, **kwargs):
        seen.append(gc.isenabled())
        raise CompileError("injected")

    monkeypatch.setattr(pipeline, "reorder", failing_reorder)
    gc.enable()
    with pytest.raises(CompileError, match="injected"):
        compile_dag(generate_synth("diamond", 120, seed=0), MIN_EDP_CONFIG)
    assert seen == [False]  # paused while the passes ran
    assert gc.isenabled()


def test_gc_stays_disabled_when_caller_disabled_it(gc_state):
    gc.disable()
    compile_dag(generate_synth("diamond", 120, seed=0), MIN_EDP_CONFIG)
    assert not gc.isenabled()


def test_concurrent_compiles_leave_gc_enabled(gc_state):
    gc.enable()
    barrier = threading.Barrier(2)
    errors = []

    def work(seed):
        try:
            barrier.wait()
            for _ in range(3):
                dag = generate_synth("reuse", 400, seed=seed)
                compile_dag(dag, MIN_EDP_CONFIG)
        except BaseException as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=work, args=(s,)) for s in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert errors == []
    assert gc.isenabled()


def test_lower_and_fuse_pause_gc_and_restore_it(gc_state, monkeypatch):
    """Both passes run paused, and leave the collector as they found
    it: enabled, disabled, or enabled again after an error."""
    seen = []
    lowerer, fuse = plan_mod._Lowerer.lower, fused_mod._fuse_plan

    def spy(real):
        def wrapped(*args):
            seen.append(gc.isenabled())
            return real(*args)

        return wrapped

    monkeypatch.setattr(plan_mod._Lowerer, "lower", spy(lowerer))
    monkeypatch.setattr(fused_mod, "_fuse_plan", spy(fuse))
    result = compile_dag(generate_synth("diamond", 120, seed=0), D1_B8)
    for enabled in (True, False):
        gc.enable() if enabled else gc.disable()
        fuse_plan(result.program.lower())
        assert gc.isenabled() is enabled
    assert seen == [False] * 4

    def failing_fuse(plan):
        raise RuntimeError("injected")

    monkeypatch.setattr(fused_mod, "_fuse_plan", failing_fuse)
    gc.enable()
    with pytest.raises(RuntimeError, match="injected"):
        fuse_plan(result.plan())
    assert gc.isenabled()
