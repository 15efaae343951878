"""Command-line interface: ``python -m repro <command>``.

Mirrors the paper artifact's ``run.sh`` workflow:

* ``compile``  — compile a DAG file (JSON/edge-list) and report stats;
* ``run``      — compile + simulate a workload and verify against the
  golden model;
* ``suite``    — compile the Table-I suite and print the fig. 14-style
  throughput table;
* ``dse``      — run the design-space exploration and print fig. 11's
  optimum corners;
* ``sweep``    — the same DSE fanned out over worker processes
  (``--jobs N``) with the content-addressed artifact cache;
* ``all``      — every figure/table experiment, fanned out over
  worker processes;
* ``encode``   — emit the packed binary program for a DAG;
* ``fuzz``     — differential verification: seeded synthetic
  scenarios through every stage of the differential oracle, shrinking
  any mismatch to a replayable case under ``results/repro_cases/``;
  ``--campaign <id>`` names the run's campaign so it can be resumed
  with ``--resume`` after a kill, ``--task-timeout S`` bounds each
  scenario's wall clock;
* ``campaign`` — status of durable campaigns: completion,
  quarantine, retries, reclaimed leases, torn ledger lines;
* ``chaos``    — the campaign runner's own adversary: SIGKILL the
  coordinator at seeded points and prove the resumed merge is
  byte-identical, then quarantine an injected poison task;
* ``serve``    — the asyncio inference service: dynamic micro-batching
  over warm execution plans behind a minimal HTTP front end;
* ``loadgen``  — drive a server (or an in-process service) with a
  seeded traffic schedule and report latency percentiles, optionally
  verifying every response bitwise against direct execution;
* ``trace``    — run any subcommand with span tracing enabled and
  export a Perfetto-loadable Chrome trace (``repro trace --
  loadgen --router 2 ...``); ``run``/``sweep``/``fuzz``/``serve``/
  ``loadgen`` also take ``--trace FILE`` / ``--metrics FILE``
  directly;
* ``profile``  — span-level profile of one workload: per-pass compile
  times, plan lowering, fusion and the batch sweep, aggregated into a
  table.

The evaluation commands (``run``, ``suite``, ``dse``, ``sweep``,
``all``) share ``--cache-dir``/``--no-cache``: compiled programs and
lowered execution plans are memoized on disk keyed by content, so a
warm re-run skips compilation entirely.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arch import ArchConfig, encode_program
from .compiler import compile_dag
from .graphs import from_edge_list, from_json, DAG
from .sim import evaluate_dag, run_program
from .workloads import DEFAULT_SCALE, build_workload, workload_names


def _parse_config(text: str) -> ArchConfig:
    """Parse ``D3-B64-R32`` style configuration strings."""
    try:
        parts = dict(
            (piece[0].upper(), int(piece[1:]))
            for piece in text.split("-")
        )
        return ArchConfig(
            depth=parts["D"], banks=parts["B"], regs_per_bank=parts["R"]
        )
    except (KeyError, ValueError) as exc:
        raise SystemExit(
            f"invalid config {text!r}; expected e.g. D3-B64-R32 ({exc})"
        )


def _load_dag(path: str) -> DAG:
    text = Path(path).read_text()
    if path.endswith(".json"):
        return from_json(text)
    return from_edge_list(text)


def _resolve_workload(name_or_path: str, scale: float) -> DAG:
    if Path(name_or_path).exists():
        return _load_dag(name_or_path)
    return build_workload(name_or_path, scale=scale)


def _add_cache_args(parser: argparse.ArgumentParser) -> None:
    import os

    from .runner.cache import DEFAULT_CACHE_DIR

    default_dir = os.environ.get("REPRO_CACHE_DIR") or str(DEFAULT_CACHE_DIR)
    parser.add_argument(
        "--cache-dir", default=default_dir, metavar="DIR",
        help="artifact-cache directory (compiled programs and "
        f"execution plans; default: $REPRO_CACHE_DIR or {DEFAULT_CACHE_DIR})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the artifact cache entirely (no reads, no writes)",
    )


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes on the durable work queue (default 1: "
        "serial; results are identical at any N)",
    )


def _add_campaign_args(parser: argparse.ArgumentParser) -> None:
    """Durable-campaign flags shared by ``fuzz`` and ``sweep``."""
    parser.add_argument(
        "--campaign", default="", metavar="ID",
        help="name the run's durable campaign: it lives under "
        "<cache dir>/campaigns/ID (even at --jobs 1), so a killed run "
        "resumes with --resume, and the merged result is "
        "byte-identical to an uninterrupted one",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an existing --campaign where it left off "
        "(finished tasks are skipped via their checkpoints)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="K",
        help="failures per task before it is quarantined as poison "
        "(default 3)",
    )
    parser.add_argument(
        "--campaign-root", default="", metavar="DIR",
        help="override the campaign directory "
        "(default <cache dir>/campaigns)",
    )


def _setup_cache(args: argparse.Namespace) -> None:
    import os

    from .runner.cache import configure_cache

    # REPRO_NO_CACHE disables caching for library use (see
    # repro.runner.cache); honor it for CLI runs too.
    disabled = bool(
        getattr(args, "no_cache", False) or os.environ.get("REPRO_NO_CACHE")
    )
    configure_cache(
        getattr(args, "cache_dir", None), enabled=not disabled
    )


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """``--trace``/``--metrics`` output flags (see ``repro trace`` for
    the wrapper form that works with any subcommand)."""
    parser.add_argument(
        "--trace", default="", metavar="FILE",
        help="enable span tracing and write a Chrome trace-event JSON "
        "file on exit (viewable at https://ui.perfetto.dev)",
    )
    parser.add_argument(
        "--metrics", default="", metavar="FILE",
        help="write this process's metrics registry as Prometheus "
        "text exposition on exit",
    )


def _finish_obs(args: argparse.Namespace) -> None:
    """Export ``--trace``/``--metrics`` outputs after a command ran."""
    trace_path = getattr(args, "trace", "")
    metrics_path = getattr(args, "metrics", "")
    if trace_path:
        from .obs import trace

        count = trace.export_chrome(trace_path)
        print(f"trace: {count} span(s) -> {trace_path}", file=sys.stderr)
    if metrics_path:
        from .obs.metrics import get_registry, render_registries

        Path(metrics_path).write_text(render_registries(get_registry()))
        print(f"metrics -> {metrics_path}", file=sys.stderr)


def _run_with_obs(args: argparse.Namespace) -> int:
    """Run one parsed subcommand under its ``--trace``/``--metrics``
    flags (when it has them); the export runs even when the command
    fails, so a crashed run still leaves its trace behind."""
    if getattr(args, "trace", ""):
        from .obs import trace

        trace.enable()
    try:
        return args.func(args)
    finally:
        _finish_obs(args)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "workload",
        help="Table-I workload name (e.g. tretail) or a DAG file "
        "(.json / edge list)",
    )
    parser.add_argument(
        "--config", default="D3-B64-R32",
        help="architecture point, default: the paper's min-EDP design",
    )
    parser.add_argument(
        "--scale", type=float, default=DEFAULT_SCALE,
        help="workload regeneration scale (named workloads only)",
    )
    parser.add_argument("--seed", type=int, default=0)


def cmd_compile(args: argparse.Namespace) -> int:
    dag = _resolve_workload(args.workload, args.scale)
    config = _parse_config(args.config)
    result = compile_dag(dag, config, seed=args.seed)
    s = result.stats
    print(f"workload : {dag.name} ({s.num_nodes} nodes, "
          f"{s.num_operations} binary ops)")
    print(f"config   : {config} ({config.num_pes} PEs)")
    print(f"blocks   : {s.num_blocks} (PE utilization "
          f"{100 * s.pe_utilization:.0f}%)")
    print(f"program  : {result.total_instructions} instructions "
          f"(exec {s.exec_instructions}, copy {s.copy_instructions}, "
          f"load {s.load_instructions}, store {s.store_instructions}, "
          f"nop {s.nop_instructions})")
    print(f"conflicts: {s.bank_conflicts}   spills: {s.spills}")
    print(f"compile  : {s.compile_seconds:.2f}s")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    import random

    import numpy as np

    from .runner.cache import cached_compile

    _setup_cache(args)
    dag = _resolve_workload(args.workload, args.scale)
    config = _parse_config(args.config)
    result = cached_compile(dag, config, seed=args.seed, validate_input=True)
    ops = result.stats.num_operations

    if args.batch < 0:
        raise SystemExit(
            f"--batch must be >= 0 (0 disables batching), got {args.batch}"
        )
    if args.batch > 0:
        return _run_batched(args, dag, config, result, ops)

    rng = random.Random(args.seed)
    inputs = [rng.uniform(0.9, 1.1) for _ in range(dag.num_inputs)]
    sim = run_program(result.program, inputs)
    golden = evaluate_dag(dag, inputs)

    errors = 0
    for node in dag.sinks():
        var = result.node_map[node]
        if not np.isclose(sim.values[var], golden[node], equal_nan=True):
            errors += 1
    gops = ops / (sim.cycles / config.frequency_hz) / 1e9
    print(f"{dag.name}: {sim.cycles} cycles, {gops:.2f} GOPS @"
          f"{config.frequency_hz / 1e6:.0f}MHz")
    if errors:
        print(f"FAILED: {errors} output mismatches vs golden model")
        return 1
    print(f"verified: all {len(dag.sinks())} outputs match the golden "
          "model")
    return 0


def _run_batched(args, dag: DAG, config, result, ops: int) -> int:
    """``run --batch N``: plan once, sweep N rows, spot-check golden."""
    import numpy as np

    from .runner.cache import cached_fused_plan
    from .sim import BatchSimulator, batch_perf_report

    # Phase 1: verified lowering + fusion (memoized as one artifact).
    plan = cached_fused_plan(result)
    rng = np.random.default_rng(args.seed)
    matrix = rng.uniform(0.9, 1.1, size=(args.batch, dag.num_inputs))
    batch = BatchSimulator(plan).run(matrix)  # phase 2: fused sweep
    perf = batch_perf_report(
        dag.name, config, ops, plan.cycles_per_row, batch.batch,
        host_seconds=batch.host_seconds,
    )

    from .graphs import OpType

    errors = 0
    checked = min(batch.batch, 8)
    for row in range(checked):
        golden = evaluate_dag(dag, list(matrix[row]))
        for node in dag.sinks():
            if dag.op(node) is OpType.INPUT:
                continue  # pass-through inputs are never stored
            var = result.node_map[node]
            if var not in batch.outputs:
                errors += 1  # a computed sink must reach data memory
            elif not np.isclose(
                batch.outputs[var][row], golden[node], equal_nan=True
            ):
                errors += 1
    print(f"{dag.name}: batch {batch.batch}, {plan.cycles_per_row} "
          f"cycles/row, {perf.throughput_gops:.2f} GOPS @"
          f"{config.frequency_hz / 1e6:.0f}MHz "
          f"({perf.rows_per_second:,.0f} rows/s on device)")
    print(f"host sweep: {batch.host_seconds * 1e3:.1f}ms "
          f"({batch.host_rows_per_second:,.0f} rows/s simulated)")
    if errors:
        print(f"FAILED: {errors} output mismatches vs golden model "
              f"across {checked} checked rows")
        return 1
    print(f"verified: {checked}/{batch.batch} rows spot-checked against "
          "the golden model")
    return 0


def cmd_suite(args: argparse.Namespace) -> int:
    from .analysis import format_table
    from .experiments.common import measure

    _setup_cache(args)
    config = _parse_config(args.config)
    rows = []
    for name in workload_names(("pc", "sptrsv")):
        dag = build_workload(name, scale=args.scale)
        m = measure(dag, config, seed=args.seed)
        rows.append(
            (
                name,
                dag.num_nodes,
                m.counters.cycles,
                round(m.throughput_gops, 2),
                round(m.energy.energy_per_op_pj, 1),
                m.compile_result.stats.bank_conflicts,
            )
        )
    print(
        format_table(
            ["workload", "nodes", "cycles", "GOPS", "pJ/op", "conflicts"],
            rows,
            title=f"suite @ scale {args.scale} on {config}",
        )
    )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """Fig. 11 DSE fanned out over worker processes + artifact cache.

    Also serves the ``dse`` subcommand (same wiring, no
    ``--workloads`` flag).
    """
    from .errors import WorkloadError
    from .experiments import fig11_dse
    from .workloads import get_spec

    _setup_cache(args)
    requested = tuple(
        name.strip()
        for name in getattr(args, "workloads", "").split(",")
        if name.strip()
    )
    names = requested or fig11_dse.DEFAULT_DSE_WORKLOADS
    from .workloads import GROUPS

    for name in names:
        if name in GROUPS:
            continue  # expanded by the sweep itself
        try:
            get_spec(name)
        except WorkloadError as exc:
            raise SystemExit(str(exc))
    experiment = fig11_dse.run(
        workload_names=names,
        scale=args.scale,
        seed=args.seed,
        jobs=args.jobs,
        progress=sys.stderr.isatty(),
        campaign_id=getattr(args, "campaign", "") or None,
        resume=getattr(args, "resume", False),
        campaign_root=getattr(args, "campaign_root", "") or None,
        max_attempts=getattr(args, "max_attempts", 3),
    )
    print(fig11_dse.render(experiment))
    if getattr(args, "campaign", ""):
        from .runner.queue import campaign_status

        status = campaign_status(
            args.campaign, root=args.campaign_root or None
        )
        print(status.render())
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    """Every figure/table experiment, fanned out over worker processes.

    After the tables, one verdict line per paper-shape claim the runs
    checked (``--quick`` checks those that hold at the reduced
    scale); exit status 1 when any claim fails.
    """
    from .runner.registry import experiment_names, run_all

    _setup_cache(args)
    only = args.only.split(",") if args.only else None
    if only:
        unknown = [n for n in only if n not in experiment_names()]
        if unknown:
            raise SystemExit(
                f"unknown experiments {unknown}; choose from: "
                + ", ".join(experiment_names())
            )
    runs = run_all(
        names=only,
        jobs=args.jobs,
        golden=args.quick,
        progress=sys.stderr.isatty(),
    )
    for name, run in runs.items():
        print(f"==== {name} " + "=" * max(0, 60 - len(name)))
        print(run.rendered)
        print()
    verdicts = [(n, *v) for n, run in runs.items() for v in run.verdicts]
    for name, text, passed in verdicts:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {text}")
    failed = sum(not passed for _, _, passed in verdicts)
    print(f"claims: {len(verdicts) - failed} passed, {failed} failed")
    return 1 if failed else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Differential fuzzing: synthetic scenarios x executor cross-check.

    Every scenario ``i`` runs these oracle stages
    (:data:`repro.verify.STAGES`); ``--inject-fault`` arms a stage's
    fault, and ``--image-all`` runs ``image-roundtrip`` everywhere:

    =========================  ==================  =========
    stage                      fault               scenarios
    =========================  ==================  =========
    reference-vs-scalar        scalar_value        all
    plan-vs-scalar-counters    counter_drift       all
    scalar-vs-batch            batch_output        all
    fused-vs-batch             fused_output        i % 4 = 2
    image-roundtrip            image_corrupt       i % 4 = 0
    served-vs-direct           serve_output        i % 4 = 1
    routed-vs-direct           router_output       i % 4 = 1
    warm-vs-cold               warm_output         all
    =========================  ==================  =========

    Exit status 0 means every scenario passed every stage it ran; 1
    means at least one mismatch was found (and shrunk to a replayable
    case under ``--out-dir``).
    """
    from .errors import VerificationError
    from .verify import fuzz

    _setup_cache(args)
    families = tuple(
        name.strip() for name in args.families.split(",") if name.strip()
    )
    try:
        report = fuzz(
            budget=args.budget,
            seed=args.seed,
            jobs=args.jobs,
            families=families or None,
            fault=args.inject_fault or None,
            write_artifacts=not args.no_artifacts,
            out_dir=args.out_dir,
            progress=sys.stderr.isatty(),
            image_all=args.image_all,
            task_timeout_s=args.task_timeout,
            campaign_id=args.campaign or None,
            resume=args.resume,
            max_attempts=args.max_attempts,
            campaign_root=args.campaign_root or None,
        )
    except VerificationError as exc:
        raise SystemExit(str(exc))
    print(report.render())
    if args.campaign:
        from .runner.queue import campaign_status

        status = campaign_status(
            args.campaign, root=args.campaign_root or None
        )
        print(status.render())
    return 0 if report.ok else 1


def cmd_campaign(args: argparse.Namespace) -> int:
    """Inspect durable campaigns: per-campaign status or a listing.

    Shows completion/quarantine counts plus the recovery history —
    retries, reclaimed leases, task timeouts, resumes and torn ledger
    lines — so an operator can tell how rough a campaign's life was.
    """
    from .errors import ReproError
    from .runner.queue import campaign_status, list_campaigns

    _setup_cache(args)
    root = args.campaign_root or None
    if args.id:
        try:
            print(campaign_status(args.id, root=root).render())
        except ReproError as exc:
            raise SystemExit(str(exc))
        return 0
    statuses = list_campaigns(root)
    if not statuses:
        print("no campaigns")
        return 0
    for status in statuses:
        print(status.render())
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """The CI chaos job: kill/resume identity + poison quarantine.

    Phase 1 SIGKILLs a fuzz campaign's coordinator (process group and
    all) at seeded points and resumes it each time; the merged report
    must be byte-identical to an uninterrupted control run with zero
    oracle mismatches.  Phase 2 injects a poison scenario and checks
    it is quarantined while the rest of the campaign completes
    unchanged.  Exit 0 only if both hold.
    """
    from .errors import ReproError
    from .verify.chaos import run_chaos_fuzz, run_quarantine_fuzz

    _setup_cache(args)
    failures = 0
    try:
        identity = run_chaos_fuzz(
            budget=args.budget,
            seed=args.seed,
            jobs=args.jobs,
            kills=args.kills,
            kill_window=(args.kill_after, args.kill_before),
            task_timeout_s=args.task_timeout,
            campaign_root=args.campaign_root or None,
            verbose=sys.stderr.isatty(),
        )
        print(identity.render())
        print()
        failures += 0 if identity.ok and not identity.quarantined else 1
        quarantine = run_quarantine_fuzz(
            budget=max(8, args.budget // 8),
            seed=args.seed,
            jobs=args.jobs,
            poison_task=args.poison_task,
            task_timeout_s=args.task_timeout,
            campaign_root=args.campaign_root or None,
        )
        print(quarantine.render())
        failures += 0 if quarantine.ok else 1
    except ReproError as exc:
        raise SystemExit(str(exc))
    if failures:
        print(f"FAILED: {failures} chaos phase(s) broke determinism")
        return 1
    print("chaos: both phases clean — kill/resume is byte-identical "
          "and poison tasks quarantine")
    return 0


def _serve_specs(args: argparse.Namespace) -> list:
    from .serve import ProgramSpec

    names = [n.strip() for n in args.programs.split(",") if n.strip()]
    if not names:
        raise SystemExit("--programs must name at least one workload")
    return [
        ProgramSpec(
            name=name,
            config_label=args.config,
            seed=args.seed,
            scale=args.scale,
        )
        for name in names
    ]


def _serve_policy(args: argparse.Namespace):
    from .serve import BatchPolicy

    return BatchPolicy(
        max_batch=args.max_batch,
        max_wait_s=args.max_wait_ms / 1e3,
        max_queue=args.max_queue,
    )


async def serve_forever(
    specs: list,
    policy,
    host: str = "127.0.0.1",
    port: int = 8321,
    stop=None,
    on_ready=None,
) -> int:
    """Register programs, bind the HTTP server, run until ``stop``.

    ``stop`` is an :class:`asyncio.Event` (the CLI wires SIGINT/SIGTERM
    to it; tests set it directly); ``on_ready(host, port)`` fires once
    the socket is listening.
    """
    import asyncio

    from .errors import ReproError
    from .serve import InferenceService
    from .serve.http import start_http_server

    service = InferenceService(policy=policy)
    for spec in specs:
        try:
            program = service.register(spec)
        except ReproError as exc:
            print(f"cannot serve {spec.name}: {exc}", file=sys.stderr)
            return 1
        print(
            f"registered {program.key}: {program.num_nodes} nodes, "
            f"{program.num_inputs} inputs, "
            f"{program.cycles_per_row} cycles/row"
        )
    stop = stop if stop is not None else asyncio.Event()
    async with service:
        server = await start_http_server(service, host=host, port=port)
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        print(
            f"serving {len(specs)} program(s) on "
            f"http://{bound_host}:{bound_port} "
            f"(max_batch={policy.max_batch}, "
            f"max_wait={policy.max_wait_s * 1e3:g}ms)",
            flush=True,
        )
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
    return 0


async def serve_router_forever(
    args: argparse.Namespace,
    stop=None,
    on_ready=None,
) -> int:
    """``repro serve --shards N``: spawn N shard processes over the
    shared artifact cache and front them with the consistent-hash
    router's HTTP dispatch (``/infer`` + ``/admin`` routes).

    The front process builds the served programs first — warming the
    shared cache (so every shard registration is a load, not a
    compile) and learning each program's content fingerprint, the
    routing identity.
    """
    import asyncio

    from .errors import ReproError
    from .serve import (
        ProcessShard,
        ShardRouter,
        TenantSLO,
        build_served_program,
        router_dispatch,
    )
    from .serve.http import start_http_server

    try:
        specs = _serve_specs(args)
    except ReproError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        local = {spec.name: build_served_program(spec) for spec in specs}
    except ReproError as exc:
        print(f"cannot build programs: {exc}", file=sys.stderr)
        return 1
    trace_dir = _shard_trace_dir()
    shards = [
        ProcessShard(
            f"shard{i}", _shard_argv(args, trace_dir=trace_dir, index=i)
        )
        for i in range(args.shards)
    ]
    router = ShardRouter(
        shards,
        fingerprints={k: p.fingerprint for k, p in local.items()},
        default_slo=TenantSLO(max_inflight=args.max_queue),
    )
    stop = stop if stop is not None else asyncio.Event()
    async with router:
        server = await start_http_server(
            router_dispatch(router), host=args.host, port=args.port
        )
        bound_host, bound_port = server.sockets[0].getsockname()[:2]
        print(
            f"routing {len(specs)} program(s) across {args.shards} "
            f"shard(s) on http://{bound_host}:{bound_port} "
            f"(max_batch={args.max_batch}, "
            f"max_wait={args.max_wait_ms:g}ms)",
            flush=True,
        )
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        try:
            await stop.wait()
        finally:
            server.close()
            await server.wait_closed()
    if trace_dir is not None:
        _ingest_shard_traces(sorted(Path(trace_dir).glob("*.json")))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the inference server until interrupted."""
    import asyncio

    from .errors import ReproError

    _setup_cache(args)
    try:
        specs = _serve_specs(args)
        policy = _serve_policy(args)
    except ReproError as exc:
        raise SystemExit(str(exc))
    if args.shards < 1:
        raise SystemExit(f"--shards must be >= 1, got {args.shards}")

    async def main() -> int:
        stop = asyncio.Event()
        try:
            import signal

            loop = asyncio.get_running_loop()
            for signame in ("SIGINT", "SIGTERM"):
                loop.add_signal_handler(getattr(signal, signame), stop.set)
        except (NotImplementedError, OSError):  # pragma: no cover
            pass
        if args.shards > 1:
            return await serve_router_forever(args, stop=stop)
        return await serve_forever(
            specs,
            policy,
            host=args.host,
            port=args.port,
            stop=stop,
        )

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0


def _shard_trace_dir() -> str | None:
    """A scratch directory for shard subprocess trace exports when
    tracing is on in this process, else ``None``."""
    import tempfile

    from .obs import trace

    if not trace.is_on():
        return None
    return tempfile.mkdtemp(prefix="repro-shard-traces-")


def _shard_argv(
    args: argparse.Namespace,
    trace_dir: str | None = None,
    index: int = 0,
) -> list[str]:
    """The ``repro serve`` command for one shard, host/port omitted
    (each :class:`~repro.serve.router.ProcessShard` probes its own
    port).  All shards share ``--cache-dir``, so one compiles and the
    rest warm-load.  With ``trace_dir`` set each shard exports its own
    Chrome trace on exit, which the coordinator merges into the final
    trace — serve-layer spans from every shard, one timeline."""
    cmd = [
        sys.executable, "-m", "repro", "serve",
        "--programs", args.programs,
        "--config", args.config,
        "--scale", str(args.scale),
        "--seed", str(args.seed),
        "--max-batch", str(args.max_batch),
        "--max-wait-ms", str(args.max_wait_ms),
        "--max-queue", str(args.max_queue),
        "--cache-dir", args.cache_dir,
    ]
    if args.no_cache:
        cmd.append("--no-cache")
    if trace_dir is not None:
        cmd += ["--trace", str(Path(trace_dir) / f"shard{index}.json")]
    return cmd


def _spawn_server(args: argparse.Namespace) -> tuple:
    """Start ``repro serve`` as a subprocess; returns
    (proc, host, port, trace_dir)."""
    import socket
    import subprocess

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    trace_dir = _shard_trace_dir()
    cmd = _shard_argv(args, trace_dir=trace_dir) + [
        "--host", "127.0.0.1", "--port", str(port)
    ]
    proc = subprocess.Popen(cmd)
    return proc, "127.0.0.1", port, trace_dir


async def _await_ready(host: str, port: int, timeout_s: float = 120.0):
    """Poll /healthz until the spawned server answers."""
    import asyncio

    from .serve.http import HttpClient

    deadline = asyncio.get_running_loop().time() + timeout_s
    while True:
        client = HttpClient(host, port)
        try:
            status, doc = await client.request("GET", "/healthz")
            if status == 200 and doc.get("ok"):
                return
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass
        finally:
            await client.close()
        if asyncio.get_running_loop().time() > deadline:
            raise SystemExit(
                f"server on {host}:{port} not ready after {timeout_s:.0f}s"
            )
        await asyncio.sleep(0.2)


def cmd_loadgen(args: argparse.Namespace) -> int:
    """Generate traffic against a server and report latency/parity."""
    import asyncio

    from .errors import ReproError
    from .serve import (
        InferenceService,
        ParityChecker,
        build_served_program,
        run_open_loop,
        run_open_loop_http,
    )
    from .workloads.traffic import make_traffic

    _setup_cache(args)
    patterns = [p.strip() for p in args.patterns.split(",") if p.strip()]
    if not patterns:
        raise SystemExit("--patterns must name at least one pattern")
    if args.rows_per_request < 1:
        raise SystemExit(
            f"--rows-per-request must be >= 1, got {args.rows_per_request}"
        )
    if args.router < 0:
        raise SystemExit(f"--router must be >= 0, got {args.router}")
    if args.router and (args.spawn or args.url):
        raise SystemExit("--router is exclusive with --spawn/--url")
    if args.chaos != "none" and args.router < 2:
        raise SystemExit("--chaos needs --router >= 2")
    try:
        specs = _serve_specs(args)
    except ReproError as exc:
        raise SystemExit(str(exc))
    program_names = [spec.name for spec in specs]
    per_pattern = max(1, args.requests // len(patterns))

    # The client builds request rows (and the parity baseline) from
    # the same specs the server registered: same content fingerprint,
    # same artifact cache, so this is a load, not a compile.
    try:
        local = {
            spec.name: build_served_program(spec) for spec in specs
        }
    except ReproError as exc:
        raise SystemExit(f"cannot build client-side programs: {exc}")
    checker = (
        ParityChecker(lambda key: local[key]) if args.check else None
    )

    try:
        schedules = [
            make_traffic(
                pattern,
                per_pattern,
                rate=args.rate,
                seed=args.seed + i,
                programs=program_names,
            )
            for i, pattern in enumerate(patterns)
        ]
    except ReproError as exc:
        raise SystemExit(str(exc))

    async def drive_http(host: str, port: int) -> list:
        await _await_ready(host, port)
        reports = []
        for schedule in schedules:
            reports.append(await run_open_loop_http(
                host, port, schedule,
                lambda key: local[key].num_inputs,
                time_scale=args.time_scale,
                checker=checker,
                rows_per_request=args.rows_per_request,
            ))
        return reports

    async def drive_in_process() -> list:
        service = InferenceService(policy=_serve_policy(args))
        for program in local.values():
            service.install(program)
        reports = []
        async with service:
            for schedule in schedules:
                reports.append(await run_open_loop(
                    service, schedule,
                    time_scale=args.time_scale,
                    check=args.check,
                    rows_per_request=args.rows_per_request,
                ))
        return reports

    async def drive_router() -> list:
        from .serve import (
            LoadReport,
            ProcessShard,
            RouterSubmitter,
            ShardRouter,
            TenantSLO,
            slos_from_schedule,
        )
        from .serve.loadtest import _drive_open_loop

        trace_dir = _shard_trace_dir()
        shards = [
            ProcessShard(
                f"shard{i}",
                _shard_argv(args, trace_dir=trace_dir, index=i),
            )
            for i in range(args.router)
        ]
        slos: dict = {}
        for schedule in schedules:
            slos.update(slos_from_schedule(
                schedule, max_inflight=args.max_queue
            ))
        router = ShardRouter(
            shards,
            slos=slos,
            fingerprints={k: p.fingerprint for k, p in local.items()},
            default_slo=TenantSLO(max_inflight=args.max_queue),
        )

        async def chaos(schedule) -> None:
            # Bounce the shard owning the schedule's first program at
            # the campaign's midpoint: graceful drain+restart, or a
            # hard kill that the failover path must absorb first.
            await asyncio.sleep(
                schedule.duration_s * args.time_scale * 0.5
            )
            program = schedule.programs()[0]
            owner = router.shard_for(program)
            if args.chaos == "kill":
                router.shards[owner].kill()
                await asyncio.sleep(0.05)
            await router.restart(owner)

        reports = []
        async with router:
            for schedule in schedules:
                chaos_task = (
                    asyncio.ensure_future(chaos(schedule))
                    if args.chaos != "none" else None
                )
                outcomes, wall = await _drive_open_loop(
                    RouterSubmitter(router), schedule,
                    lambda key: local[key].num_inputs,
                    args.time_scale, checker,
                    rows_per_request=args.rows_per_request,
                )
                if chaos_task is not None:
                    await chaos_task
                reports.append(LoadReport(
                    pattern=schedule.pattern, mode="open",
                    outcomes=outcomes, wall_s=wall,
                    policy={
                        "max_batch": args.max_batch,
                        "max_wait_ms": args.max_wait_ms,
                        "shards": args.router,
                        "chaos": args.chaos,
                    },
                ))
            print(f"router: {router.stats.as_dict()}")
        if trace_dir is not None:
            _ingest_shard_traces(sorted(Path(trace_dir).glob("*.json")))
        return reports

    proc = None
    spawn_trace_dir = None
    try:
        if args.router:
            reports = asyncio.run(drive_router())
        elif args.spawn:
            proc, host, port, spawn_trace_dir = _spawn_server(args)
            reports = asyncio.run(drive_http(host, port))
        elif args.url:
            host, _, port_text = args.url.rpartition(":")
            host = host.removeprefix("http://") or "127.0.0.1"
            try:
                port = int(port_text)
            except ValueError:
                raise SystemExit(
                    f"--url must look like host:port, got {args.url!r}"
                )
            reports = asyncio.run(drive_http(host, port))
        else:
            reports = asyncio.run(drive_in_process())
    finally:
        if proc is not None:
            proc.terminate()
            proc.wait(timeout=30)
        if spawn_trace_dir is not None:
            _ingest_shard_traces(
                sorted(Path(spawn_trace_dir).glob("*.json"))
            )

    failures = 0
    for report in reports:
        print(report.render())
        print()
        if not report.clean:
            failures += 1
    if args.bench_json:
        sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "tools"))
        from bench_to_json import append_run

        records = [
            dict(
                rec,
                shards=args.router or 1,
                rows_per_request=args.rows_per_request,
            )
            for report in reports
            for rec in report.records()
        ]
        label = f"loadgen-{'-'.join(patterns)}"
        if args.router:
            label += f"-router{args.router}"
            if args.chaos != "none":
                label += f"-{args.chaos}"
        append_run(args.bench_json, "serve", records, label=label)
        print(f"appended {len(records)} record(s) to {args.bench_json}")
    if failures:
        print(f"FAILED: {failures} traffic pattern(s) saw errors, "
              "rejections or parity mismatches")
        return 1
    return 0


def _ingest_shard_traces(paths) -> int:
    """Merge shard subprocesses' exported Chrome traces into this
    process's buffers (one timeline: CLOCK_MONOTONIC is shared)."""
    import json

    from .obs import trace

    total = 0
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, ValueError):
            continue  # shard died before exporting; trace what we have
        total += trace.ingest_chrome(doc)
    return total


def cmd_trace(args: argparse.Namespace) -> int:
    """``repro trace [--out FILE] -- <command ...>``: run any
    subcommand with tracing enabled and export the Chrome trace."""
    from .obs import trace

    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        raise SystemExit(
            "usage: repro trace [--out FILE] -- <command ...>"
        )
    if rest[0] == "trace":
        raise SystemExit("repro trace cannot wrap itself")
    sub_args = build_parser().parse_args(rest)
    if getattr(sub_args, "trace", ""):
        raise SystemExit(
            "pass either `repro trace` or --trace, not both"
        )
    trace.enable()
    try:
        return sub_args.func(sub_args)
    finally:
        count = trace.export_chrome(args.out)
        print(f"trace: {count} span(s) -> {args.out}", file=sys.stderr)
        _finish_obs(sub_args)  # honor an inner --metrics


def cmd_profile(args: argparse.Namespace) -> int:
    """Span-level profile of one workload: compile passes, plan
    lowering, and a batch sweep, aggregated per span name."""
    import numpy as np

    from .analysis import format_table
    from .obs import trace
    from .sim import BatchSimulator

    dag = _resolve_workload(args.workload, args.scale)
    config = _parse_config(args.config)
    trace.enable()
    trace.set_sample_every(1)  # a profile wants every sweep span
    with trace.span("profile", "cli", workload=dag.name):
        result = compile_dag(dag, config, seed=args.seed)
        plan = result.plan()
        rng = np.random.default_rng(args.seed)
        matrix = rng.uniform(0.9, 1.1, size=(args.batch, dag.num_inputs))
        batch = BatchSimulator(plan).run(matrix)
    events = trace.drain()
    # "% wall" comes from self time (duration minus nested spans), so
    # the column, with the unattributed row, sums to 100.
    selfs = trace.self_times(events)
    root = next(e for e in events if e["name"] == "profile")
    wall_us = root["dur"]
    agg: dict[str, list] = {}
    for e in events:
        if e["name"] == "profile":
            continue
        slot = agg.setdefault(e["name"], [e["cat"], 0, 0, 0])
        slot[1] += 1
        slot[2] += e["dur"]
        slot[3] += selfs[e["id"]]
    rows = [
        (
            name,
            cat,
            count,
            round(total / 1e3, 3),
            round(own / 1e3, 3),
            round(total / count / 1e3, 3),
            round(100 * own / max(wall_us, 1), 1),
        )
        for name, (cat, count, total, own) in sorted(
            agg.items(), key=lambda kv: -kv[1][3]
        )
    ]
    own = selfs[root["id"]]
    rows.append(
        ("unattributed", "-", "-", "-", round(own / 1e3, 3), "-",
         round(100 * own / max(wall_us, 1), 1))
    )
    print(
        format_table(
            ["span", "cat", "count", "total ms", "self ms", "mean ms",
             "% wall"],
            rows,
            title=(
                f"{dag.name} @ {config}: profile over a "
                f"{batch.batch}-row sweep (wall {wall_us / 1e3:.1f}ms)"
            ),
        )
    )
    if args.out:
        count = trace.export_chrome(args.out, events=events)
        print(f"trace: {count} span(s) -> {args.out}", file=sys.stderr)
    return 0


def cmd_encode(args: argparse.Namespace) -> int:
    dag = _resolve_workload(args.workload, args.scale)
    config = _parse_config(args.config)
    result = compile_dag(dag, config, seed=args.seed)
    encoded = encode_program(result.program, result.allocation.read_addrs)
    out = Path(args.output)
    out.write_bytes(encoded.data)
    print(f"{encoded.total_bits} bits "
          f"({encoded.instruction_count} instructions, "
          f"IL={encoded.widths.il}b) -> {out}")
    if args.image:
        from .runner.imageio import write_program_image

        img = Path(args.image)
        write_program_image(
            img, result.program, result.allocation.read_addrs
        )
        print(f"program image ({img.stat().st_size} bytes) -> {img}")
    return 0


def cmd_encoding_report(args: argparse.Namespace) -> int:
    """Print the synthesized instruction layouts for one design point.

    The layouts are derived from the declarative ISA spec
    (:data:`repro.arch.DPU_V2_SPEC`), not from hand-maintained width
    arithmetic; ``--json`` dumps the machine-readable descriptor.
    """
    from .arch import encoding_report, isa_to_json, synthesize_isa

    config = _parse_config(args.config)
    isa = synthesize_isa(config)
    print(encoding_report(isa, verbose=args.verbose))
    if args.json:
        out = Path(args.json)
        out.write_text(isa_to_json(isa) + "\n")
        print(f"JSON descriptor -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from .verify import FAULTS, STALL_FAULT

    parser = argparse.ArgumentParser(
        prog="repro",
        description="DPU-v2 reproduction: compile/run irregular DAGs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile and print statistics")
    _add_common(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile, simulate, verify")
    _add_common(p)
    p.add_argument(
        "--batch", type=int, default=0, metavar="N",
        help="execute N random input rows through the verified plan's "
        "fused batch engine instead of the scalar reference simulator",
    )
    _add_cache_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("suite", help="fig. 14-style suite table")
    p.add_argument("--config", default="D3-B64-R32")
    p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
    p.add_argument("--seed", type=int, default=0)
    _add_cache_args(p)
    p.set_defaults(func=cmd_suite)

    p = sub.add_parser("dse", help="fig. 11 design-space exploration")
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    _add_campaign_args(p)
    _add_jobs_arg(p)
    _add_cache_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "sweep",
        help="fig. 11 DSE over worker processes + artifact cache",
    )
    p.add_argument(
        "--workloads", default="", metavar="A,B,...",
        help="comma-separated Table-I workload names "
        "(default: the fig. 11 set)",
    )
    p.add_argument("--scale", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    _add_campaign_args(p)
    _add_jobs_arg(p)
    _add_cache_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "all",
        help="run every figure/table experiment and check the paper's "
        "shape claims",
    )
    p.add_argument(
        "--only", default="", metavar="A,B,...",
        help="comma-separated experiment names (see repro.runner)",
    )
    p.add_argument(
        "--quick", action="store_true",
        help="reduced-scale parameters (the regression-test goldens)",
    )
    _add_jobs_arg(p)
    _add_cache_args(p)
    p.set_defaults(func=cmd_all)

    p = sub.add_parser(
        "fuzz",
        help="differential verification over synthetic scenarios",
    )
    p.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="number of generated scenarios to cross-check (default 200)",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="master seed; (budget, seed) replays the identical campaign",
    )
    p.add_argument(
        "--families", default="", metavar="A,B,...",
        help="restrict to these generator families "
        "(default: all of repro.workloads.synth)",
    )
    p.add_argument(
        "--out-dir", default=None, metavar="DIR",
        help="where shrunk repro cases are written "
        "(default results/repro_cases/)",
    )
    p.add_argument(
        "--no-artifacts", action="store_true",
        help="report mismatches without writing repro-case files",
    )
    p.add_argument(
        "--inject-fault", default="", metavar="NAME",
        help="deliberately corrupt one executor to demo the harness: "
        + ", ".join([*FAULTS, STALL_FAULT]),
    )
    p.add_argument(
        "--image-all", action="store_true",
        help="run the binary-image round-trip stage on every scenario "
        "(default: every fourth)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=None, metavar="S",
        help="hard per-scenario wall-clock budget in seconds; a "
        "wedged scenario is killed, reported as a failure, shrunk "
        "and written as a repro case (default: no limit)",
    )
    _add_campaign_args(p)
    _add_jobs_arg(p)
    _add_cache_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "campaign",
        help="status of durable fuzz/sweep campaigns (retries, "
        "reclaimed leases, quarantine)",
    )
    p.add_argument(
        "id", nargs="?", default="",
        help="campaign id to inspect (default: list all campaigns)",
    )
    p.add_argument(
        "--campaign-root", default="", metavar="DIR",
        help="override the campaign directory "
        "(default <cache dir>/campaigns)",
    )
    _add_cache_args(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "chaos",
        help="chaos-test the durable campaign runner: SIGKILL + "
        "resume must be byte-identical; poison tasks must quarantine",
    )
    p.add_argument(
        "--budget", type=int, default=200, metavar="N",
        help="scenarios in the kill/resume campaign (default 200)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="campaign worker processes (default 2)",
    )
    p.add_argument(
        "--kills", type=int, default=2, metavar="K",
        help="SIGKILL the coordinator at K seeded points (default 2)",
    )
    p.add_argument(
        "--kill-after", type=float, default=1.0, metavar="S",
        help="earliest kill point, seconds after launch (default 1)",
    )
    p.add_argument(
        "--kill-before", type=float, default=6.0, metavar="S",
        help="latest kill point, seconds after launch (default 6)",
    )
    p.add_argument(
        "--task-timeout", type=float, default=30.0, metavar="S",
        help="per-scenario wall-clock budget (default 30)",
    )
    p.add_argument(
        "--poison-task", type=int, default=0, metavar="I",
        help="scenario index poisoned in the quarantine phase "
        "(default 0)",
    )
    p.add_argument(
        "--campaign-root", default="", metavar="DIR",
        help="override the campaign directory "
        "(default <cache dir>/campaigns)",
    )
    _add_cache_args(p)
    p.set_defaults(func=cmd_chaos)

    def _add_serving_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--programs", default="synth_layered", metavar="A,B,...",
            help="comma-separated suite workload names to serve "
            "(default: synth_layered)",
        )
        p.add_argument("--config", default="D3-B64-R32")
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--max-batch", type=int, default=64, metavar="B",
            help="micro-batch dispatch size (1 = batch-1 serving)",
        )
        p.add_argument(
            "--max-wait-ms", type=float, default=2.0, metavar="MS",
            help="max time a request waits for its batch to fill",
        )
        p.add_argument(
            "--max-queue", type=int, default=1024, metavar="N",
            help="per-program admission bound (backpressure beyond it)",
        )

    p = sub.add_parser(
        "serve",
        help="asyncio inference service with dynamic micro-batching",
    )
    _add_serving_args(p)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=8321,
        help="listen port (0 picks a free one)",
    )
    p.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="fan requests across N shard processes (sharing the "
        "artifact cache) behind a consistent-hash router; 1 serves "
        "directly from this process",
    )
    _add_cache_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a server with seeded traffic and report latency",
    )
    _add_serving_args(p)
    p.add_argument(
        "--patterns", default="poisson", metavar="A,B,...",
        help="traffic patterns (poisson, bursty, diurnal, multi_tenant); "
        "--requests is split evenly across them",
    )
    p.add_argument(
        "--requests", type=int, default=200, metavar="N",
        help="total requests across all patterns (default 200)",
    )
    p.add_argument(
        "--rate", type=float, default=400.0, metavar="R",
        help="offered load in requests/s of schedule time",
    )
    p.add_argument(
        "--time-scale", type=float, default=1.0, metavar="X",
        help="multiply schedule time by X on replay (<1 compresses)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="verify every response bitwise against direct execution",
    )
    p.add_argument(
        "--url", default="", metavar="HOST:PORT",
        help="target a running server (default: in-process service)",
    )
    p.add_argument(
        "--spawn", action="store_true",
        help="start `repro serve` as a subprocess, drive it over HTTP, "
        "then shut it down (what the CI smoke job uses)",
    )
    p.add_argument(
        "--router", type=int, default=0, metavar="N",
        help="spawn N shard processes and drive them through the "
        "in-process consistent-hash router (client-side routing, "
        "no proxy hop); 0 disables",
    )
    p.add_argument(
        "--chaos", default="none", choices=("none", "restart", "kill"),
        help="with --router: bounce the owning shard mid-campaign — "
        "'restart' drains gracefully, 'kill' hard-kills it so the "
        "failover path must absorb the loss first",
    )
    p.add_argument(
        "--rows-per-request", type=int, default=1, metavar="R",
        help="rows carried per request (multi-row requests ride one "
        "micro-batch; throughput counts rows, not requests)",
    )
    p.add_argument(
        "--bench-json", default="", metavar="FILE",
        help="append latency records to a repro-bench-v1 trajectory "
        "file (e.g. BENCH_serve.json)",
    )
    _add_cache_args(p)
    _add_obs_args(p)
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("encode", help="emit the packed binary program")
    _add_common(p)
    p.add_argument("--output", default="program.bin")
    p.add_argument(
        "--image", default="", metavar="FILE",
        help="also write a self-describing binary program image "
        "(bitstream + sidecars; loadable via repro.runner.imageio)",
    )
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser(
        "encoding-report",
        help="print the spec-synthesized instruction bit layouts",
    )
    p.add_argument(
        "--config", default="D3-B64-R32",
        help="architecture point, default: the paper's min-EDP design",
    )
    p.add_argument(
        "--verbose", action="store_true",
        help="one line per bit range instead of the compact per-"
        "instruction summary",
    )
    p.add_argument(
        "--json", default="", metavar="FILE",
        help="also dump the machine-readable JSON encoding descriptor",
    )
    p.set_defaults(func=cmd_encoding_report)

    p = sub.add_parser(
        "trace",
        help="run any repro subcommand with tracing enabled and "
        "export a Chrome trace (view at https://ui.perfetto.dev)",
    )
    p.add_argument(
        "--out", default="trace.json", metavar="FILE",
        help="trace output path (default trace.json)",
    )
    p.add_argument(
        "rest", nargs=argparse.REMAINDER, metavar="-- command ...",
        help="the wrapped command, e.g. "
        "`repro trace -- loadgen --router 2 --requests 100`",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="span-level profile of one workload: compile passes, "
        "plan lowering, fusion, batch sweep",
    )
    _add_common(p)
    p.add_argument(
        "--batch", type=int, default=256, metavar="N",
        help="rows in the profiled batch sweep (default 256)",
    )
    p.add_argument(
        "--out", default="", metavar="FILE",
        help="also write the profile's Chrome trace JSON",
    )
    p.set_defaults(func=cmd_profile)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _run_with_obs(args)


if __name__ == "__main__":
    sys.exit(main())
