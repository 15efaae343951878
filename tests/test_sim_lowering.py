"""Verified lowering: pinned plan identity.

The lowering reads PE wiring from the per-(D, B) table and emits one
step per lowered event, with no move merging.  Neither may change a
plan unnoticed: the digests below pin each plan's full content.  They
equal the digests of the earlier lowering run with move coalescing off
(over the same arrays, skipping that lowering's derived slice fields).
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.arch import MIN_EDP_CONFIG
from repro.compiler import compile_dag
from repro.workloads import build_workload


def plan_digest(plan) -> str:
    """sha256 over everything a plan carries: every step's arrays, the
    counters, peak occupancy and the input/output cells."""
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
    "tretail": "60185a3c1b1d3364f9729363b903504e66757043df9af8436f3627c5266ef1eb",
    "bp_200": "b78f998e9857fc5d4b772a08677c83ac0da8169174141fdc7b457a854cae286d",
    "dw2048": "4a1d19ba2f2f209eb559c1e6c3c1d9aadc66048e05f53f8a0e16e20a7c725394",
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_lowered_plan_is_pinned(name):
    dag = build_workload(name, scale=0.03)
    result = compile_dag(dag, MIN_EDP_CONFIG, validate_input=False)
    assert plan_digest(result.plan()) == PINNED[name]
