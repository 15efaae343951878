"""The trajectory tool's run comparison (``bench_to_json.py table``)."""

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_to_json.py"
_spec = importlib.util.spec_from_file_location("bench_to_json", _TOOL)
bench_to_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_to_json)


def _rec(workload, mode, seconds, map_s=None):
    rec = {"workload": workload, "nodes": 10, "mode": mode,
           "seconds": seconds}
    if map_s is not None:
        rec["passes"] = {"map": map_s}
    return rec


@pytest.fixture
def trajectory(tmp_path):
    path = str(tmp_path / "BENCH_x.json")
    bench_to_json.append_run(path, "x", [
        _rec("a", "monolithic", 4.0, 2.0),
        _rec("a", "partitioned-j2", 3.0),
        _rec("b", "monolithic", 1.0, 0.5),
    ], label="old")
    bench_to_json.append_run(path, "x", [
        _rec("b", "monolithic", 0.5, 0.25),
        _rec("a", "monolithic", 2.0, 1.0),
        _rec("c", "monolithic", 9.0, 9.0),  # not in the base run
    ], label="new")
    return bench_to_json.load_trajectory(path)


def test_default_compares_each_workloads_fastest_mode(trajectory):
    rows = bench_to_json.comparison_table(
        trajectory, "old", "new"
    ).splitlines()
    assert rows[0] == "| workload | nodes | old | new | speedup |"
    assert rows[2:] == [
        "| `b` | 10 | 1.000 s | 0.500 s | 2.00x |",
        "| `a` | 10 | 3.000 s | 2.000 s | 1.50x |",
        "| **total** | | **4.000 s** | **2.500 s** | **1.60x** |",
    ]


def test_nested_field_and_fixed_mode(trajectory):
    rows = bench_to_json.comparison_table(
        trajectory, "old", "new", field="passes.map", mode="monolithic"
    ).splitlines()
    assert rows[2:] == [
        "| `b` | 10 | 0.500 s | 0.250 s | 2.00x |",
        "| `a` | 10 | 2.000 s | 1.000 s | 2.00x |",
        "| **total** | | **2.500 s** | **1.250 s** | **2.00x** |",
    ]


def test_unknown_label_exits_with_error(trajectory, tmp_path, capsys):
    path = str(tmp_path / "BENCH_x.json")
    assert bench_to_json.main(["table", path, "old", "nope"]) == 2
    assert "nope" in capsys.readouterr().err


def test_run_from_a_dirty_tree_is_marked(tmp_path):
    """A run records the commit it measured: ``-dirty`` when the tree
    has uncommitted changes, but not for the trajectory file it was
    appended to."""
    import subprocess

    def git(*args):
        subprocess.run(
            ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
            cwd=tmp_path, check=True, capture_output=True,
        )

    git("init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git("add", "code.py")
    git("commit", "-q", "-m", "one")
    head = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"],
        cwd=tmp_path, check=True, capture_output=True, text=True,
    ).stdout.strip()
    path = str(tmp_path / "BENCH_x.json")
    for _ in range(2):
        run = bench_to_json.append_run(path, "x", [_rec("a", "m", 1.0)])
        assert run["git"] == head
    (tmp_path / "code.py").write_text("x = 2\n")
    run = bench_to_json.append_run(path, "x", [_rec("a", "m", 1.0)])
    assert run["git"] == f"{head}-dirty"
