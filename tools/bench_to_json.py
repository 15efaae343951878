"""Machine-readable benchmark trajectory files (``BENCH_*.json``).

Every benchmark run appends one *run entry* to a trajectory file, so
the repo accumulates an ordered perf history that future PRs (and the
CI perf-smoke gate) can diff against instead of eyeballing text
reports.  The format is deliberately tiny and stable:

.. code-block:: json

    {
      "schema": "repro-bench-v1",
      "bench": "compile_scaling",
      "runs": [
        {
          "timestamp": "2026-07-27T12:00:00+00:00",
          "label": "post-array-kernels",
          "host": {"python": "3.11.8", "platform": "...", "cpus": 2},
          "git": "433aedb",
          "records": [
            {"workload": "tretail", "nodes": 433,
             "mode": "monolithic", "seconds": 0.05,
             "passes": {"decompose": 0.01, "map": 0.02}}
          ]
        }
      ]
    }

``records`` entries are benchmark-defined; the envelope (schema,
bench name, per-run metadata) is owned by this module.  Use
:func:`append_run` from benchmark scripts and :func:`load_trajectory`
/ :func:`latest_records` from consumers (CI gates, plots).

CLI::

    python tools/bench_to_json.py show BENCH_compile.json
    python tools/bench_to_json.py table BENCH_compile.json \
        BASE_LABEL NEW_LABEL [--field passes.map] [--mode monolithic]
    python tools/bench_to_json.py append BENCH_compile.json \
        --bench compile_scaling --label manual < records.json
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import platform
import subprocess
import sys
import tempfile

SCHEMA = "repro-bench-v1"


def _git(cwd: str, *args: str) -> str | None:
    """Standard output of one git command; ``None`` when it fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=cwd,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout if out.returncode == 0 else None


def _git_revision(path: str) -> str | None:
    """Short commit hash of the checkout holding ``path``, suffixed
    ``-dirty`` when the tree has uncommitted changes; ``None`` outside
    a checkout.  The trajectory file ``path`` itself is left out of the
    check, so appending one run does not mark the next one dirty."""
    path = os.path.abspath(path)
    cwd = os.path.dirname(path)
    rev = (_git(cwd, "rev-parse", "--short", "HEAD") or "").strip()
    if not rev:
        return None
    status = _git(
        cwd, "status", "--porcelain", "--", ":/", f":(exclude){path}"
    )
    return f"{rev}-dirty" if status is None or status.strip() else rev


def host_info() -> dict:
    """Per-run environment metadata embedded in every run entry."""
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "hostname": platform.node(),
        "cpus": os.cpu_count() or 1,
    }


def load_trajectory(path: str, bench: str | None = None) -> dict:
    """Load (or initialize) a trajectory file.

    Args:
        path: JSON file location; a missing or empty file yields a
            fresh trajectory.
        bench: Expected benchmark name; mismatches raise ``ValueError``
            so two benchmarks never interleave in one file.
    """
    doc: dict | None = None
    if os.path.exists(path) and os.path.getsize(path) > 0:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA:
            raise ValueError(
                f"{path}: not a {SCHEMA} trajectory file"
            )
        if bench and doc.get("bench") not in (None, bench):
            raise ValueError(
                f"{path}: holds bench {doc.get('bench')!r}, not {bench!r}"
            )
    if doc is None:
        doc = {"schema": SCHEMA, "bench": bench, "runs": []}
    doc.setdefault("runs", [])
    return doc


def append_run(
    path: str,
    bench: str,
    records: list[dict],
    label: str | None = None,
    extra: dict | None = None,
) -> dict:
    """Append one run entry to ``path`` (atomic rewrite) and return it."""
    doc = load_trajectory(path, bench=bench)
    doc["bench"] = doc.get("bench") or bench
    run = {
        "timestamp": _dt.datetime.now(_dt.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "label": label,
        "host": host_info(),
        "git": _git_revision(path),
        "records": records,
    }
    if extra:
        run.update(extra)
    doc["runs"].append(run)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return run


def latest_records(path: str, bench: str | None = None) -> list[dict]:
    """Records of the most recent run (empty list for a fresh file)."""
    doc = load_trajectory(path, bench=bench)
    if not doc["runs"]:
        return []
    return doc["runs"][-1].get("records", [])


def _cmd_show(args: argparse.Namespace) -> int:
    doc = load_trajectory(args.path)
    runs = doc["runs"]
    print(f"{args.path}: bench={doc.get('bench')!r}, {len(runs)} run(s)")
    for i, run in enumerate(runs):
        recs = run.get("records", [])
        total = sum(
            r["seconds"] for r in recs if isinstance(r.get("seconds"), (int, float))
        )
        print(
            f"  [{i}] {run.get('timestamp')} label={run.get('label')!r} "
            f"git={run.get('git')} records={len(recs)} "
            f"total={total:.3f}s"
        )
    return 0


def run_by_label(doc: dict, label: str) -> dict:
    """The most recent run entry carrying ``label``."""
    for run in reversed(doc["runs"]):
        if run.get("label") == label:
            return run
    raise KeyError(f"no run labelled {label!r}")


def _by_workload(records: list[dict], mode: str | None) -> dict:
    """One record per workload: the given mode, or (``None``) the
    fastest mode measured — the production path."""
    chosen: dict[str, dict] = {}
    for rec in records:
        name = rec["workload"]
        if mode is not None:
            if rec.get("mode") == mode:
                chosen[name] = rec
        elif name not in chosen or rec["seconds"] < chosen[name]["seconds"]:
            chosen[name] = rec
    return chosen


def _field(rec: dict, field: str):
    value = rec
    for key in field.split("."):
        value = value.get(key) if isinstance(value, dict) else None
    return value


def comparison_table(
    doc: dict, base: str, new: str, field: str = "seconds",
    mode: str | None = None,
) -> str:
    """Markdown table of ``field`` per workload, run ``base`` vs ``new``.

    ``field`` is a record key, dotted for nesting (``passes.map``).
    Rows follow ``new``'s workload order and cover workloads both runs
    measured; the last row totals them.
    """
    old_recs, new_recs = (
        _by_workload(run_by_label(doc, label).get("records", []), mode)
        for label in (base, new)
    )

    def ratio(b: float, n: float) -> str:
        return f"{b / n:.2f}x" if n else "-"

    lines = [
        f"| workload | nodes | {base} | {new} | speedup |",
        "|---|---|---|---|---|",
    ]
    total_b = total_n = 0.0
    for name, rec in new_recs.items():
        b = _field(old_recs.get(name, {}), field)
        n = _field(rec, field)
        if b is None or n is None:
            continue
        total_b += b
        total_n += n
        lines.append(
            f"| `{name}` | {rec['nodes']} | {b:.3f} s | {n:.3f} s "
            f"| {ratio(b, n)} |"
        )
    lines.append(
        f"| **total** | | **{total_b:.3f} s** | **{total_n:.3f} s** "
        f"| **{ratio(total_b, total_n)}** |"
    )
    return "\n".join(lines) + "\n"


def _cmd_table(args: argparse.Namespace) -> int:
    doc = load_trajectory(args.path)
    try:
        table = comparison_table(
            doc, args.base, args.new, field=args.field, mode=args.mode
        )
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    print(table, end="")
    return 0


def _cmd_append(args: argparse.Namespace) -> int:
    records = json.load(sys.stdin)
    if not isinstance(records, list):
        print("stdin must hold a JSON list of records", file=sys.stderr)
        return 2
    run = append_run(args.path, args.bench, records, label=args.label)
    print(f"appended run with {len(run['records'])} records to {args.path}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("show", help="summarize a trajectory file")
    p.add_argument("path")
    p.set_defaults(func=_cmd_show)
    p = sub.add_parser(
        "table", help="markdown table comparing two labelled runs"
    )
    p.add_argument("path")
    p.add_argument("base", help="label of the baseline run")
    p.add_argument("new", help="label of the run to compare")
    p.add_argument(
        "--field", default="seconds",
        help="record field, dotted for nesting (e.g. passes.map)",
    )
    p.add_argument(
        "--mode", default=None,
        help="record mode (default: each workload's fastest mode)",
    )
    p.set_defaults(func=_cmd_table)
    p = sub.add_parser("append", help="append records (JSON list on stdin)")
    p.add_argument("path")
    p.add_argument("--bench", required=True)
    p.add_argument("--label", default=None)
    p.set_defaults(func=_cmd_append)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
