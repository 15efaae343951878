"""Measure binary program-image vs pickle size.

Compiles a spread of workloads across several design points, then
serializes each compiled program both ways — pickle protocol 5 and the
`runner.imageio` binary image — and reports the size ratio.  The
acceptance bar for the image format is a ratio < 1.0 on every program
(an image must never be *larger* than the pickle of the same
program).

Usage::

    PYTHONPATH=src python tools/image_ratio.py \
        --out results/image_ratio.json
"""

from __future__ import annotations

import argparse
import json
import pickle
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.arch import ArchConfig  # noqa: E402
from repro.compiler import compile_dag  # noqa: E402
from repro.runner.imageio import dump_program  # noqa: E402
from repro.workloads import generate_synth  # noqa: E402

CASES = [
    ("layered", 60, "D2-B8-R16"),
    ("layered", 200, "D3-B16-R16"),
    ("wide", 120, "D2-B16-R32"),
    ("deep", 80, "D2-B8-R8"),
    ("diamond", 100, "D3-B32-R32"),
    ("reuse", 150, "D2-B8-R16"),
]


def _config(label: str) -> ArchConfig:
    parts = dict((p[0], int(p[1:])) for p in label.split("-"))
    return ArchConfig(
        depth=parts["D"], banks=parts["B"], regs_per_bank=parts["R"]
    )


def measure() -> dict:
    records = []
    for family, n, label in CASES:
        dag = generate_synth(family, n, seed=1)
        result = compile_dag(dag, _config(label))
        prog_img = len(
            dump_program(result.program, result.allocation.read_addrs)
        )
        prog_pkl = len(
            pickle.dumps(
                (result.program, result.allocation.read_addrs), protocol=5
            )
        )
        records.append({
            "family": family,
            "nodes": dag.num_nodes,
            "config": label,
            "program_image_bytes": prog_img,
            "program_pickle_bytes": prog_pkl,
            "program_ratio": round(prog_img / prog_pkl, 4),
        })
    prog_ratios = [r["program_ratio"] for r in records]
    return {
        "schema": "repro-image-ratio-v2",
        "records": records,
        "summary": {
            "program_ratio_mean": round(statistics.mean(prog_ratios), 4),
            "program_ratio_max": max(prog_ratios),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/image_ratio.json")
    args = parser.parse_args(argv)
    doc = measure()
    summary = doc["summary"]
    for rec in doc["records"]:
        print(
            f"{rec['family']:12s} n={rec['nodes']:4d} {rec['config']:11s}"
            f" prog {rec['program_image_bytes']:7d}B /"
            f" {rec['program_pickle_bytes']:7d}B ="
            f" {rec['program_ratio']:.3f}"
        )
    print(
        f"program ratio: mean {summary['program_ratio_mean']:.3f}, "
        f"max {summary['program_ratio_max']:.3f}"
    )
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {out}")
    if summary["program_ratio_max"] >= 1.0:
        print("FAILED: an image came out larger than its pickle")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
