"""Replayable repro-case artifacts under ``results/repro_cases/``.

A mismatch found by the fuzzer is only useful if it can be handed to a
human (or a CI log) and re-executed anywhere.  Each case is one
self-contained JSON file holding

* the **scenario identity** — generator family + parameters + seed,
  config label, value seed, batch size, optional oracle stages and any
  injected fault — enough to regenerate the original failing DAG from
  scratch and re-run the same checks;
* the **mismatch** — oracle stage and detail string;
* the **shrunk DAG** itself (:func:`repro.graphs.to_json` format),
  so replay does not depend on generator code staying bit-stable
  across versions.

:func:`replay_case` re-runs the differential oracle on the stored
shrunk DAG and returns its :class:`~repro.verify.differential.
DiffReport` — a fixed bug replays to ``report.ok`` and the case file
can be deleted.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from ..errors import VerificationError
from ..graphs import DAG, from_json, to_json
from ..runner.fingerprint import dag_fingerprint
from ..workloads.synth import SynthParams
from .differential import STAGES, DiffReport, Mismatch, Scenario

#: Where the fuzzer drops cases by default (relative to the CWD, like
#: the benchmark outputs under ``results/``).
DEFAULT_CASE_DIR = Path("results") / "repro_cases"

#: 2: the scenario lists its optional oracle ``stages``; schema-1
#: cases (one boolean per stage) still load, see :func:`_from_v1`.
_SCHEMA = 2

#: The oracle stage, and its fault, that cross-checked the
#: partition-parallel compile path, which no longer exists.  Cases
#: written before it went carry inert ``partition_threshold`` /
#: ``partition_jobs`` keys; a case that armed the stage cannot replay.
_REMOVED_STAGE = "partitioned-vs-reference"
_REMOVED_FAULT = "partition_boundary"


@dataclass(frozen=True)
class ReproCase:
    """One minimal reproducer, ready to replay."""

    scenario: Scenario
    mismatch: Mismatch
    shrunk_dag: DAG
    original_nodes: int
    shrink_checks: int

    @property
    def fingerprint(self) -> str:
        return dag_fingerprint(self.shrunk_dag)


def case_filename(case: ReproCase) -> str:
    return (
        f"{case.scenario.params.family}-{case.mismatch.stage}"
        f"-{case.fingerprint[:12]}.json"
    )


def write_case(case: ReproCase, out_dir: str | Path | None = None) -> Path:
    """Persist a case; returns the path written.

    The filename is content-addressed by the shrunk DAG's fingerprint,
    so re-finding the same minimal reproducer overwrites in place
    instead of piling up duplicates.
    """
    directory = Path(out_dir) if out_dir is not None else DEFAULT_CASE_DIR
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": _SCHEMA,
        "scenario": {
            **dataclasses.asdict(case.scenario),
            "params": case.scenario.params.as_dict(),
        },
        "mismatch": {
            "stage": case.mismatch.stage,
            "detail": case.mismatch.detail,
        },
        "original_nodes": case.original_nodes,
        "shrunk_nodes": case.shrunk_dag.num_nodes,
        "shrink_checks": case.shrink_checks,
        "fingerprint": case.fingerprint,
        "dag": json.loads(to_json(case.shrunk_dag)),
    }
    path = directory / case_filename(case)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def _from_v1(raw: dict) -> dict:
    """A schema-1 scenario in schema-2 terms: ``config`` is
    ``config_label``, and its one flag per optional stage becomes
    ``stages`` (``serve`` armed both serving stages)."""
    serve, fused, image = (
        raw.pop(flag, False) for flag in ("serve", "fused", "image")
    )
    armed = {
        "served-vs-direct": serve,
        "routed-vs-direct": serve,
        "fused-vs-batch": fused,
        "image-roundtrip": image,
    }
    raw["stages"] = [s.name for s in STAGES if armed.get(s.name)]
    raw["config_label"] = raw.pop("config")
    return raw


def _drop_partition_keys(raw: dict, path: str | Path) -> None:
    """Drop the partition-parallel keys of a case written before that
    compile path was removed.

    Raises:
        VerificationError: The case armed the removed stage (a
            threshold, the stage name or its fault).
    """
    threshold = raw.pop("partition_threshold", None)
    raw.pop("partition_jobs", None)
    if (
        threshold is not None
        or _REMOVED_STAGE in raw.get("stages", ())
        or raw.get("fault") == _REMOVED_FAULT
    ):
        raise VerificationError(
            f"{path}: the case arms the removed oracle stage "
            f"{_REMOVED_STAGE!r} (partition-parallel compilation is "
            "gone), so it cannot be replayed"
        )


def load_case(path: str | Path) -> ReproCase:
    """Load a case file back into memory.

    Raises:
        VerificationError: On a malformed or wrong-schema file, or a
            case that arms the removed ``partitioned-vs-reference``
            stage.
    """
    try:
        payload = json.loads(Path(path).read_text())
        if payload.get("schema") not in (1, _SCHEMA):
            raise VerificationError(
                f"{path}: unsupported repro-case schema "
                f"{payload.get('schema')!r}"
            )
        raw = dict(payload["scenario"])
        if payload["schema"] == 1:
            raw = _from_v1(raw)
        _drop_partition_keys(raw, path)
        raw["params"] = SynthParams.from_dict(raw["params"])
        raw["stages"] = tuple(raw.get("stages", ()))
        scenario = Scenario(**raw)
        mismatch = Mismatch(
            stage=payload["mismatch"]["stage"],
            detail=payload["mismatch"]["detail"],
        )
        shrunk = from_json(json.dumps(payload["dag"]))
        return ReproCase(
            scenario=scenario,
            mismatch=mismatch,
            shrunk_dag=shrunk,
            original_nodes=int(payload["original_nodes"]),
            shrink_checks=int(payload["shrink_checks"]),
        )
    except VerificationError:
        raise
    except Exception as exc:
        raise VerificationError(
            f"{path}: malformed repro-case artifact ({exc})"
        ) from exc


def replay_case(path: str | Path) -> DiffReport:
    """Re-run the oracle on a stored minimal reproducer.

    A still-broken pipeline returns a report with a mismatch (usually
    the recorded stage); after a fix, the report comes back clean.
    Injected-fault demo cases replay with their fault re-armed.
    """
    case = load_case(path)
    return case.scenario.diff_check(case.shrunk_dag)
