"""Verified lowering: pinned plan identity and the set-based move checks.

The lowering reads PE wiring from the per-(D, B) table and tests move
disjointness with Python sets.  Neither may change a plan: the digests
below were recorded from the geometry-method / ``np.isin`` lowering,
and the property tests compare the set-based checks against the
``np.isin`` formulation directly.
"""

import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import MIN_EDP_CONFIG
from repro.compiler import compile_dag
from repro.sim.plan import ComputeStep, MoveStep, coalesce_moves
from repro.workloads import build_workload


def plan_digest(plan) -> str:
    """sha256 over everything a plan carries: every step's arrays and
    derived slice/disjoint fields, the counters, peak occupancy and
    the input/output cells."""
    h = hashlib.sha256()

    def arr(a):
        a = np.asarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())

    for a in (plan.input_cells, plan.input_slots, plan.output_cells):
        arr(a)
    h.update(repr((
        plan.num_instructions, plan.num_inputs, plan.state_size,
        plan.output_vars, dataclasses.astuple(plan.counters),
        list(plan.peak_occupancy),
    )).encode())
    for step in plan.steps:
        h.update(type(step).__name__.encode())
        for f in dataclasses.fields(step):
            value = getattr(step, f.name)
            if isinstance(value, np.ndarray):
                arr(value)
            else:
                h.update(repr(value).encode())
    return h.hexdigest()


PINNED = {
    "tretail": "eea6d9bc9e5ac5b4da15ca6472bf31e423d676e6b8ef664d143218458a4a7cea",
    "bp_200": "f503a10f844f05d058f71de90e37f7df3aca66613f0427d8c440b29c90510310",
    "dw2048": "7d14ea8d80851b4fc8d6b969b77183310f63a0162893f04c1bdbb30c59c18da7",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lowered_plan_is_pinned(name):
    dag = build_workload(name, scale=0.03)
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
    assert plan_digest(result.plan()) == PINNED[name]


# ---------------------------------------------------------------------
# Set-based checks == the np.isin formulation
# ---------------------------------------------------------------------
def _coalesce_isin(steps):
    """Pairwise ``np.isin`` merging, one concatenation per merge."""
    out = []
    for step in steps:
        if out and type(step) is MoveStep and type(out[-1]) is MoveStep:
            prev = out[-1]
            if (
                not np.isin(step.src, prev.dst).any()
                and not np.isin(step.dst, prev.dst).any()
            ):
                out[-1] = MoveStep(
                    np.concatenate([prev.src, step.src]),
                    np.concatenate([prev.dst, step.dst]),
                )
                continue
        out.append(step)
    return out


def _same_steps(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        for f in dataclasses.fields(a):
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y)
            else:
                assert x == y


_cells = st.lists(st.integers(0, 12), min_size=1, max_size=8).map(
    lambda v: np.asarray(v, dtype=np.int32)
)
_moves = st.builds(MoveStep, _cells, _cells)
_barrier = ComputeStep(*[np.zeros(0, dtype=np.int32)] * 8)


@settings(max_examples=300, deadline=None)
@given(_cells, _cells)
def test_disjoint_matches_isin(src, dst):
    assert MoveStep(src, dst).disjoint == (not np.isin(src, dst).any())


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_moves, _moves, _moves, st.just(_barrier)),
                max_size=12))
def test_coalesce_matches_isin(steps):
    _same_steps(coalesce_moves(steps), _coalesce_isin(steps))
