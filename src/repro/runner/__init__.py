"""Parallel experiment orchestration and artifact caching.

The runner subsystem makes the full evaluation cheap to repeat:

* :mod:`repro.runner.fingerprint` — permutation-invariant content
  addresses for DAG/config/compile invocations;
* :mod:`repro.runner.cache` — on-disk artifact cache memoizing
  compiled programs and fused plans across processes and invocations
  (``cached_compile`` / ``cached_fused_plan``);
* :mod:`repro.runner.orchestrator` — deterministic fan-out
  (``parallel_map``, ``fan_out``): inline at ``jobs=1``, otherwise a
  campaign on the durable queue (anonymous in a temporary directory,
  or named and resumable), with shared cache and progress reporting;
* :mod:`repro.runner.ledger` — append-only, fsync'd, checksummed
  campaign event journal tolerating torn writes;
* :mod:`repro.runner.queue` — the durable work queue every
  multi-process fan-out runs on: lease files with heartbeats,
  dead/stalled-worker reclaim, exponential backoff, poison-task
  quarantine and byte-identical kill/resume campaign merges;
* :mod:`repro.runner.registry` — one :class:`ExperimentSpec` per
  figure/table with canonical snapshots and the paper's shape claims,
  powering ``repro all`` and the golden regression net under
  ``tests/goldens/``.
"""

from .cache import (
    DEFAULT_CACHE_DIR,
    ArtifactCache,
    NullCache,
    cached_compile,
    cached_fused_plan,
    configure_cache,
    get_cache,
)
from .fingerprint import (
    COMPILER_CACHE_VERSION,
    compile_key,
    config_fingerprint,
    dag_fingerprint,
    node_digests,
    plan_key,
)
from .ledger import CampaignLedger, LedgerError
from .orchestrator import default_jobs, fan_out, parallel_map
from .queue import (
    CampaignError,
    CampaignResult,
    CampaignStatus,
    ChaosSpec,
    DurableQueue,
    campaign_status,
    create_campaign,
    list_campaigns,
    merge_campaign,
    run_campaign,
)

#: Registry names resolved lazily (PEP 562): ``repro.runner.registry``
#: imports :mod:`repro.experiments`, which itself builds on
#: :mod:`repro.runner.cache` — loading it eagerly here would cycle.
_REGISTRY_EXPORTS = frozenset(
    {
        "EXPERIMENTS",
        "ExperimentRun",
        "ExperimentSpec",
        "canonical_json",
        "experiment_names",
        "run_all",
        "run_experiment",
    }
)


def __getattr__(name: str):
    if name in _REGISTRY_EXPORTS:
        from . import registry

        return getattr(registry, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ArtifactCache",
    "NullCache",
    "DEFAULT_CACHE_DIR",
    "cached_compile",
    "cached_fused_plan",
    "configure_cache",
    "get_cache",
    "COMPILER_CACHE_VERSION",
    "dag_fingerprint",
    "config_fingerprint",
    "compile_key",
    "plan_key",
    "node_digests",
    "parallel_map",
    "fan_out",
    "default_jobs",
    "CampaignLedger",
    "LedgerError",
    "CampaignError",
    "CampaignResult",
    "CampaignStatus",
    "ChaosSpec",
    "DurableQueue",
    "campaign_status",
    "create_campaign",
    "list_campaigns",
    "merge_campaign",
    "run_campaign",
    "EXPERIMENTS",
    "ExperimentSpec",
    "ExperimentRun",
    "experiment_names",
    "canonical_json",
    "run_experiment",
    "run_all",
]
