"""Parallel-vs-serial-vs-warm-cache parity, pinned by goldens.

The regression net over every figure (ISSUE 2): each experiment's
canonical snapshot must be bitwise-identical

* to the committed golden under ``tests/goldens/``,
* at ``--jobs 1`` and ``--jobs N`` (N from ``REPRO_TEST_JOBS``,
  default 4 — CI runs a matrix leg with 2),
* on a warm artifact cache.

All three evaluations share one module-scoped cache directory, so
this module also exercises cross-process cache reuse end to end.  The
serial runs also carry the verdicts of every paper-shape claim that
holds at golden scale, and each must pass.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.arch import dse_grid
from repro.dse import run_sweep
from repro.runner.cache import configure_cache, get_cache
from repro.runner.registry import (
    EXPERIMENTS,
    canonical_json,
    experiment_names,
    run_all,
)
from repro.workloads import build_workload

GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"
JOBS = max(2, int(os.environ.get("REPRO_TEST_JOBS", "4")))


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory) -> Path:
    """One artifact store shared by every run in this module."""
    return tmp_path_factory.mktemp("parity-cache")


@pytest.fixture(scope="module")
def serial_runs(cache_dir):
    configure_cache(cache_dir)
    return run_all(jobs=1, golden=True)


def test_registry_covers_every_figure_module(serial_runs):
    import repro.experiments as experiments

    figure_modules = {
        name
        for name in dir(experiments)
        if name.startswith(("fig", "table", "verify"))
        or name == "footprint"
    }
    assert set(experiment_names()) == figure_modules
    assert set(serial_runs) == set(experiment_names())


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_matches_committed_golden(serial_runs, name):
    golden_path = GOLDEN_DIR / f"{name}.json"
    assert golden_path.exists(), (
        f"missing golden for {name}; regenerate with "
        "`PYTHONPATH=src python tests/make_goldens.py` and review the diff"
    )
    assert (
        canonical_json(serial_runs[name].snapshot) + "\n"
        == golden_path.read_text()
    ), (
        f"{name} drifted from its golden snapshot — if intentional, "
        "regenerate tests/goldens/ and review the diff"
    )


@pytest.mark.parametrize("name", list(EXPERIMENTS))
def test_golden_scale_claims_hold(serial_runs, name):
    verdicts = serial_runs[name].verdicts
    assert [text for text, _ in verdicts] == [
        c.text for c in EXPERIMENTS[name].claims if c.golden
    ]
    failed = [text for text, passed in verdicts if not passed]
    assert not failed, f"{name}: claims failed at golden scale: {failed}"


def test_parallel_run_is_bitwise_identical(serial_runs, cache_dir):
    configure_cache(cache_dir)
    parallel = run_all(jobs=JOBS, golden=True)
    assert set(parallel) == set(serial_runs)
    for name in serial_runs:
        assert canonical_json(parallel[name].snapshot) == canonical_json(
            serial_runs[name].snapshot
        ), f"{name}: --jobs {JOBS} diverged from serial"
        assert parallel[name].verdicts == serial_runs[name].verdicts


def test_warm_cache_run_is_bitwise_identical(serial_runs, cache_dir):
    cache = configure_cache(cache_dir)
    warm = run_all(jobs=1, golden=True)
    assert cache.hits > 0, "warm run never hit the shared cache"
    for name in serial_runs:
        assert canonical_json(warm[name].snapshot) == canonical_json(
            serial_runs[name].snapshot
        ), f"{name}: warm-cache run diverged from cold"


def test_make_goldens_regenerates_committed_bytes(
    serial_runs, cache_dir, tmp_path, capsys
):
    """The regeneration script's output is byte-identical to the
    checked-in ``tests/goldens/`` — same file set, same bytes — so the
    committed goldens can never silently drift from what
    ``make_goldens.py`` would produce."""
    import make_goldens

    configure_cache(cache_dir)
    out_dir = tmp_path / "regen"
    rc = make_goldens.main(["--jobs", "1", "--out-dir", str(out_dir)])
    assert rc == 0
    regenerated = {p.name: p.read_bytes() for p in out_dir.glob("*.json")}
    committed = {
        p.name: p.read_bytes() for p in GOLDEN_DIR.glob("*.json")
    }
    assert regenerated.keys() == committed.keys(), (
        "make_goldens produced a different golden file set than "
        "tests/goldens/ — regenerate and commit the diff"
    )
    for name in sorted(committed):
        assert regenerated[name] == committed[name], (
            f"{name}: regenerated bytes differ from the committed golden"
        )


def test_dse_grid_point_parity(cache_dir):
    """Every grid point bitwise-identical at jobs=1/N and warm."""
    configure_cache(cache_dir / "dse")
    workloads = {"tretail": build_workload("tretail", scale=0.01)}
    grid = dse_grid()
    serial = run_sweep(workloads, configs=grid, jobs=1)
    parallel = run_sweep(workloads, configs=grid, jobs=JOBS)
    warm = run_sweep(workloads, configs=grid, jobs=1)
    assert get_cache().hits > 0
    for a, b, c in zip(serial.points, parallel.points, warm.points):
        assert a.config == b.config == c.config
        assert a.latency_per_op_ns == b.latency_per_op_ns
        assert a.energy_per_op_pj == b.energy_per_op_pj
        assert a.latency_per_op_ns == c.latency_per_op_ns
        assert a.energy_per_op_pj == c.energy_per_op_pj
