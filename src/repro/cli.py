"""Command-line interface.

Thirteen subcommands cover the everyday workflow:

* ``gpssn generate`` — build a synthetic or simulated-real spatial-social
  network and save it as a JSON bundle;
* ``gpssn stats`` — print Table-2-style statistics of a bundle;
* ``gpssn freeze`` — compile a bundle (network + built indexes) into a
  zero-copy frozen snapshot that ``query``/``batch``/``serve`` memmap
  via ``--snapshot`` (with ``--input``, ``batch``/``serve`` freeze the
  bundle to a temporary arena first);
* ``gpssn query`` — answer a GP-SSN query (optionally top-k or sampled)
  against a bundle;
* ``gpssn batch`` — answer a JSONL file of queries concurrently through
  the batch executor (``--workers N``, serial/process backends)
  and write JSONL outcomes;
* ``gpssn serve`` — run the long-lived query daemon: ``POST /query``
  (same JSONL schema as ``batch``) on a warm executor with admission
  control, plus the live observability plane (``/metrics`` Prometheus
  exposition, ``/healthz``, ``/readyz``, ``/status`` dashboard,
  ``?trace=1`` request tracing);
* ``gpssn profile`` — answer a query repeatedly under the stdlib
  sampling profiler and print per-phase CPU attribution plus the
  hottest frames (``--out`` collapsed stacks, ``--flamegraph`` HTML);
* ``gpssn explain`` — answer the same query with the pruning funnel
  recorded and print the EXPLAIN ANALYZE report (``--json`` for the
  machine-readable document);
* ``gpssn calibrate`` — selectivity diagnostics of a bundle;
* ``gpssn tune`` — suggest (gamma, theta, r) from the data
  distributions (the paper's Section-2.2 percentile rule);
* ``gpssn figure`` — regenerate one of the paper's figures/tables at a
  chosen scale and print the rows;
* ``gpssn mutate`` — synthesize a deterministic mutation stream
  (move_user / add_friend / remove_friend / add_poi / remove_poi) for a
  bundle as JSONL;
* ``gpssn replay`` — stream a mutation JSONL against standing queries
  with incremental index maintenance, optionally cross-checking every
  prefix against a from-scratch rebuild (``--oracle-every``) and saving
  the mutated network (``--save-bundle``) for a cold-batch diff.

Usable as ``python -m repro.cli`` or via the ``gpssn`` console script.

Exit codes are diagnostic, so CI smoke jobs cannot silently pass on a
failure: 0 success (including "query answered, no group found"), 1
unexpected internal error, :data:`EXIT_INPUT` (2) unreadable/invalid
inputs, :data:`EXIT_QUERY` (3) domain errors (unknown user, infeasible
parameters), :data:`EXIT_BATCH` (5) batch completed with failed items.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Tuple

from .core.algorithm import GPSSNQueryProcessor
from .core.metrics import InterestMetric
from .core.query import GPSSNQuery
from .core.tuning import suggest_parameters
from .exceptions import GPSSNError, InvalidParameterError, SnapshotFormatError
from .experiments.calibration import calibrate, calibration_rows
from .datagen.realworld import dataset_stats
from .experiments import figures as figure_drivers
from .experiments.harness import DATASET_NAMES, ExperimentScale, build_dataset
from .experiments.reporting import format_table
from .io.bundle import load_network, save_network
from .obs import (
    Recorder,
    explain_report,
    explain_to_json,
    format_stats_line,
    phase_table,
    prometheus_text,
    write_trace_jsonl,
)
from .service import (
    BACKENDS,
    BatchQueryExecutor,
    ExecutionLimits,
    ProtocolError,
    outcome_lines,
    parse_query_lines,
)

#: Exit codes (0 = success, 1 = unexpected error, the rest diagnostic).
EXIT_OK = 0
EXIT_INPUT = 2
EXIT_QUERY = 3
EXIT_BATCH = 5


class CLIError(Exception):
    """A user-reportable failure carrying its process exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code


def _load_network(path: str):
    """Load a bundle, mapping every failure mode to :data:`EXIT_INPUT`."""
    try:
        return load_network(path)
    except (OSError, json.JSONDecodeError, InvalidParameterError) as exc:
        raise CLIError(EXIT_INPUT, f"cannot load bundle {path}: {exc}")


def _frozen_snapshot(path: str):
    """A frozen-mode :class:`NetworkSnapshot`, or :data:`EXIT_INPUT`."""
    from .service.executor import NetworkSnapshot

    try:
        return NetworkSnapshot.from_frozen(path)
    except (OSError, SnapshotFormatError) as exc:
        raise CLIError(EXIT_INPUT, f"cannot open snapshot {path}: {exc}")


def _require_one_input(args: argparse.Namespace) -> None:
    """``--input`` and ``--snapshot`` are exclusive and one is required."""
    if args.input and getattr(args, "snapshot", None):
        raise CLIError(
            EXIT_INPUT, "use either --input or --snapshot, not both"
        )
    if not args.input and not getattr(args, "snapshot", None):
        raise CLIError(EXIT_INPUT, "one of --input or --snapshot is required")

FIGURE_DRIVERS = {
    "table2": figure_drivers.table2_datasets,
    "fig7a": figure_drivers.fig7a_index_object_pruning,
    "fig7b": figure_drivers.fig7b_user_pruning,
    "fig7c": figure_drivers.fig7c_poi_pruning,
    "fig7d": figure_drivers.fig7d_pair_pruning,
    "fig8": figure_drivers.fig8_vs_baseline,
    "fig9": figure_drivers.fig9_group_size,
    "fig10": figure_drivers.fig10_num_pois,
    "fig11": figure_drivers.fig11_road_size,
    "gamma": figure_drivers.appendix_gamma,
    "theta": figure_drivers.appendix_theta,
    "radius": figure_drivers.appendix_radius,
    "pivots": figure_drivers.appendix_pivots,
    "social-size": figure_drivers.appendix_social_size,
    "ablation": figure_drivers.ablation_pruning,
    "phases": figure_drivers.phase_breakdown,
}


def _add_query_args(parser: argparse.ArgumentParser) -> None:
    """The query-shaped argument set shared by ``query`` and ``explain``."""
    parser.add_argument("--input", default=None, help="bundle path (.json)")
    parser.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="memmap a frozen snapshot (gpssn freeze) instead of "
        "rebuilding from a bundle; the snapshot's recorded build recipe "
        "(seed) wins over the matching flag",
    )
    parser.add_argument("--user", type=int, required=True)
    parser.add_argument("--tau", type=int, default=5)
    parser.add_argument("--gamma", type=float, default=0.5)
    parser.add_argument("--theta", type=float, default=0.5)
    parser.add_argument("--radius", type=float, default=2.0)
    parser.add_argument(
        "--metric", choices=[m.value for m in InterestMetric], default="dot"
    )
    parser.add_argument("--topk", type=int, default=1)
    parser.add_argument("--max-groups", type=int, default=None)
    parser.add_argument(
        "--sampled", type=int, default=None, metavar="N",
        help="use subset-sampling refinement with N sampled groups",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record a span trace of the query and write it as JSON "
        "lines to PATH; also prints the per-phase timing table",
    )
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write the query's metrics registry (counters, histograms) "
        "to PATH in Prometheus text format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpssn",
        description="Group planning queries over spatial-social networks "
        "(GP-SSN, ICDE 2023 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a dataset bundle")
    gen.add_argument("--dataset", choices=DATASET_NAMES, default="UNI")
    gen.add_argument("--users", type=int, default=300)
    gen.add_argument("--pois", type=int, default=100)
    gen.add_argument("--road-vertices", type=int, default=300)
    gen.add_argument("--keywords", type=int, default=5)
    gen.add_argument("--seed", type=int, default=7)
    gen.add_argument("--output", required=True, help="bundle path (.json)")

    stats = sub.add_parser("stats", help="print bundle statistics")
    stats.add_argument("--input", required=True)

    frz = sub.add_parser(
        "freeze",
        help="compile a bundle into a zero-copy frozen snapshot "
        "(memmap arena) for --snapshot attach",
    )
    frz.add_argument("--input", required=True, help="bundle path (.json)")
    frz.add_argument(
        "--output", required=True, help="snapshot path (.gpssnap)"
    )
    frz.add_argument("--seed", type=int, default=7)

    query = sub.add_parser("query", help="answer a GP-SSN query")
    _add_query_args(query)

    batch = sub.add_parser(
        "batch",
        help="answer a JSONL file of GP-SSN queries through the "
        "concurrent batch executor",
    )
    batch.add_argument("--input", default=None, help="bundle path (.json)")
    batch.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="attach workers to a frozen snapshot (gpssn freeze) "
        "instead of freezing --input to a temporary one",
    )
    batch.add_argument(
        "--queries", required=True,
        help="JSONL query file: one object per line with a required "
        '"user" and optional "tau", "gamma", "theta", "radius", '
        '"metric", "max_groups"',
    )
    batch.add_argument(
        "--output", default=None,
        help="write JSONL outcomes here (default: stdout)",
    )
    batch.add_argument(
        "--workers", type=int, default=0,
        help="worker count; 0 runs the serial correctness oracle",
    )
    batch.add_argument(
        "--backend", choices=BACKENDS + ("auto",), default="auto",
        help="executor backend (auto: serial when --workers 0, "
        "else process)",
    )
    batch.add_argument(
        "--timeout", type=float, default=None, metavar="SEC",
        help="per-query time budget; overruns become 'timeout' outcomes",
    )
    batch.add_argument(
        "--retries", type=int, default=0,
        help="retries for unexpected per-query errors (domain errors "
        "and timeouts are never retried)",
    )
    batch.add_argument("--max-groups", type=int, default=None,
                       help="default refinement cap for lines without one")
    batch.add_argument("--seed", type=int, default=7)
    batch.add_argument(
        "--timing", action="store_true",
        help="include run-variant fields (attempts, duration, worker) "
        "in each outcome line; off by default so outcomes are "
        "byte-comparable across backends and worker counts",
    )
    batch.add_argument(
        "--trace", metavar="PATH", default=None,
        help="record the service.batch span tree as JSON lines",
    )
    batch.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write batch/worker metrics in Prometheus text format",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-lived query daemon with the live "
        "observability plane (/query, /metrics, /healthz, /readyz, "
        "/status)",
    )
    serve.add_argument("--input", default=None, help="bundle path (.json)")
    serve.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="serve a frozen snapshot (gpssn freeze) instead of freezing "
        "--input to a temporary one; dynamic endpoints need --input",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="listen port (0 picks a free one and prints it)",
    )
    serve.add_argument(
        "--workers", type=int, default=2,
        help="process-pool size with --backend process (serial always "
        "runs one worker); concurrent requests beyond the workers wait "
        "in the admission queue",
    )
    serve.add_argument(
        "--backend", choices=BACKENDS, default="serial",
        help="worker backend: serial answers on one in-process worker, "
        "process on a pool of --workers processes",
    )
    serve.add_argument(
        "--max-queue", type=int, default=16,
        help="requests allowed to wait beyond the executing ones; "
        "overflow is rejected with HTTP 429",
    )
    serve.add_argument(
        "--timeout", type=float, default=30.0, metavar="SEC",
        help="per-query time budget (0 disables it); overruns become "
        "'timeout' outcome lines",
    )
    serve.add_argument(
        "--access-log", metavar="PATH", default=None,
        help="append one JSON object per request (ts, request_id, "
        "status, duration) to PATH",
    )
    serve.add_argument(
        "--slow-query", type=float, default=0.25, metavar="SEC",
        help="queries slower than this land in the /status slow-query "
        "ring",
    )
    serve.add_argument(
        "--window", type=float, default=300.0, metavar="SEC",
        help="rolling window width for the /metrics latency percentiles",
    )
    serve.add_argument(
        "--explain", action="store_true",
        help="record the per-rule pruning funnel in every worker and "
        "export it on /metrics (adds per-candidate accounting overhead)",
    )
    serve.add_argument(
        "--no-phase-timing", action="store_true",
        help="disable per-phase span capture in workers (drops the "
        "/status per-phase latency table, removes tracing overhead)",
    )
    serve.add_argument(
        "--trace-sample", type=float, default=0.0, metavar="RATE",
        help="head-sample this fraction of requests for end-to-end "
        "tracing (deterministic in the request id; ?trace=1 always "
        "traces)",
    )
    serve.add_argument(
        "--profile", action="store_true",
        help="expose GET /debug/profile?seconds=N (in-process sampling "
        "profiler; collapsed/flamegraph/json formats)",
    )
    serve.add_argument("--max-groups", type=int, default=None,
                       help="default refinement cap for lines without one")
    serve.add_argument("--seed", type=int, default=7)

    profile = sub.add_parser(
        "profile",
        help="answer a query repeatedly under the sampling profiler and "
        "print per-phase CPU attribution plus the hottest frames",
    )
    _add_query_args(profile)
    profile.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="run the query at least N times inside the profiled window",
    )
    profile.add_argument(
        "--min-seconds", type=float, default=1.0, metavar="SEC",
        help="keep repeating until at least this much wall time is "
        "sampled (short queries need many runs for stable profiles)",
    )
    profile.add_argument(
        "--interval-ms", type=float, default=5.0, metavar="MS",
        help="sampling interval in milliseconds",
    )
    profile.add_argument(
        "--out", metavar="PATH", default=None,
        help="write Brendan-Gregg collapsed stacks ('f;g;h count') to "
        "PATH for external flamegraph tooling",
    )
    profile.add_argument(
        "--flamegraph", metavar="PATH", default=None,
        help="write a self-contained flamegraph HTML page to PATH",
    )
    profile.add_argument(
        "--timer", choices=("thread", "signal"), default="thread",
        help="thread = wall-clock sampling of all threads (py-spy "
        "style); signal = SIGPROF on-CPU sampling (main thread only)",
    )

    explain = sub.add_parser(
        "explain",
        help="answer a GP-SSN query with the pruning funnel recorded "
        "and print the EXPLAIN ANALYZE report",
    )
    _add_query_args(explain)
    explain.add_argument(
        "--json", action="store_true",
        help="print the machine-readable explain document instead of "
        "the tree report",
    )

    calib = sub.add_parser(
        "calibrate", help="print selectivity diagnostics of a bundle"
    )
    calib.add_argument("--input", required=True)
    calib.add_argument("--samples", type=int, default=300)
    calib.add_argument("--seed", type=int, default=0)

    tune = sub.add_parser(
        "tune", help="suggest (gamma, theta, r) from the data distributions"
    )
    tune.add_argument("--input", required=True)
    tune.add_argument("--percentile", type=float, default=75.0)
    tune.add_argument("--seed", type=int, default=0)

    fig = sub.add_parser("figure", help="regenerate a paper figure/table")
    fig.add_argument("--name", choices=sorted(FIGURE_DRIVERS), required=True)
    fig.add_argument("--users", type=int, default=300)
    fig.add_argument("--pois", type=int, default=100)
    fig.add_argument("--road-vertices", type=int, default=300)
    fig.add_argument("--queries", type=int, default=3)
    fig.add_argument("--seed", type=int, default=7)

    mut = sub.add_parser(
        "mutate",
        help="synthesize a deterministic JSONL mutation stream for a "
        "bundle (the input to gpssn replay and POST /update)",
    )
    mut.add_argument("--input", required=True, help="bundle path (.json)")
    mut.add_argument(
        "--count", type=int, default=100, help="number of mutations"
    )
    mut.add_argument("--seed", type=int, default=0)
    mut.add_argument(
        "--output", required=True, help="mutation JSONL path"
    )

    rep = sub.add_parser(
        "replay",
        help="stream a mutation JSONL against standing queries with "
        "incremental index maintenance (the offline twin of the "
        "daemon's POST /subscribe + /update plane)",
    )
    rep.add_argument("--input", required=True, help="bundle path (.json)")
    rep.add_argument(
        "--queries", required=True,
        help="JSONL standing-query file (batch protocol schema)",
    )
    rep.add_argument(
        "--mutations", required=True, help="mutation JSONL (gpssn mutate)"
    )
    rep.add_argument(
        "--output", default=None,
        help="write the final JSONL outcomes here (default: stdout)",
    )
    rep.add_argument(
        "--batch-size", type=int, default=1, metavar="N",
        help="mutations applied per re-answer point (1 = per-mutation "
        "skip testing, the finest granularity)",
    )
    rep.add_argument(
        "--oracle-every", type=int, default=0, metavar="N",
        help="every N mutations, rebuild a processor from scratch on "
        "the mutated network and require byte-identical outcomes "
        "(0 disables the check)",
    )
    rep.add_argument(
        "--save-bundle", metavar="PATH", default=None,
        help="save the post-stream network as a bundle (for a cold "
        "gpssn batch diff)",
    )
    rep.add_argument("--max-groups", type=int, default=None,
                     help="default refinement cap for lines without one")
    rep.add_argument("--seed", type=int, default=7)

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    scale = ExperimentScale(
        road_vertices=args.road_vertices,
        num_pois=args.pois,
        num_users=args.users,
        num_keywords=args.keywords,
    )
    network = build_dataset(args.dataset, scale, seed=args.seed)
    save_network(args.output, network)
    print(f"wrote {args.dataset} bundle to {args.output}: {network}")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    network = _load_network(args.input)
    stats = dataset_stats(args.input, network)
    print(format_table(
        ["|V(G_s)|", "deg(G_s)", "|V(G_r)|", "deg(G_r)", "POIs", "d"],
        [[
            stats.social_users, round(stats.social_avg_degree, 2),
            stats.road_vertices, round(stats.road_avg_degree, 2),
            network.num_pois, network.num_keywords,
        ]],
        title=f"Statistics of {args.input}",
    ))
    return 0


def _recorder_from_args(
    args: argparse.Namespace, explaining: bool = False
) -> Recorder:
    """One recorder-construction path for ``query`` and ``explain``.

    ``explain`` always records spans + funnel; ``query`` records spans
    only when ``--trace`` asks for them, else stays at the zero-overhead
    default.
    """
    if explaining:
        return Recorder.explaining()
    if args.trace:
        return Recorder.traced()
    return Recorder()


def _execute_query(processor: GPSSNQueryProcessor, args: argparse.Namespace):
    """Dispatch to the right entry point; returns ``(answers, stats)``."""
    query = GPSSNQuery(
        query_user=args.user, tau=args.tau, gamma=args.gamma,
        theta=args.theta, radius=args.radius,
        metric=InterestMetric(args.metric),
    )
    if args.sampled is not None:
        answer, stats = processor.answer_sampled(
            query, num_samples=args.sampled, seed=args.seed
        )
        answers = [answer] if answer.found else []
    elif args.topk > 1:
        answers, stats = processor.answer_topk(
            query, args.topk, max_groups=args.max_groups
        )
    else:
        answer, stats = processor.answer(query, max_groups=args.max_groups)
        answers = [answer] if answer.found else []
    return answers, stats


def _emit_recorder_outputs(
    recorder: Recorder, args: argparse.Namespace
) -> None:
    """The ``--trace`` / ``--metrics-out`` side outputs both commands share."""
    if args.trace:
        count = write_trace_jsonl(recorder.tracer.roots, args.trace)
        print(phase_table(recorder.tracer.roots))
        print(f"wrote {count} spans to {args.trace}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            fp.write(prometheus_text(
                recorder.metrics.snapshot(), recorder.explain
            ))
        print(f"wrote metrics to {args.metrics_out}")


def _print_answers(answers) -> None:
    if not answers:
        print("no (S, R) pair satisfies the GP-SSN predicates")
    for rank, answer in enumerate(answers, start=1):
        print(
            f"#{rank}: S={sorted(answer.users)} R={sorted(answer.pois)} "
            f"maxdist={answer.max_distance:.4f}"
        )


def _processor_from_args(
    args: argparse.Namespace, recorder: Recorder
) -> GPSSNQueryProcessor:
    """Resolve ``--snapshot``/``--input`` into a ready processor."""
    _require_one_input(args)
    if args.snapshot:
        _, processor = _frozen_snapshot(args.snapshot).build_worker(recorder)
        return processor
    network = _load_network(args.input)
    return GPSSNQueryProcessor(network, seed=args.seed, recorder=recorder)


def cmd_freeze(args: argparse.Namespace) -> int:
    from .io.snapshot import freeze

    network = _load_network(args.input)
    meta = freeze(network, args.output, build_args={"seed": args.seed})
    import os

    size = os.path.getsize(args.output)
    counts = meta["counts"]
    print(
        f"froze {args.input} -> {args.output}: {size} bytes, "
        f"{counts['vertices']} vertices, {counts['pois']} POIs, "
        f"{counts['users']} users"
    )
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    recorder = _recorder_from_args(args)
    processor = _processor_from_args(args, recorder)
    answers, stats = _execute_query(processor, args)
    _print_answers(answers)
    print(format_stats_line(stats))
    _emit_recorder_outputs(recorder, args)
    return 0


def _load_batch_entries(
    path: str, default_max_groups: Optional[int]
) -> List[Tuple[GPSSNQuery, Optional[int]]]:
    """Parse a JSONL query file into executor entries (strict).

    The parse itself lives in :mod:`repro.service.protocol` — the same
    code path the ``gpssn serve`` daemon runs on ``POST /query`` bodies,
    so the two entry points accept exactly the same inputs.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise CLIError(EXIT_INPUT, f"cannot read queries {path}: {exc}")
    try:
        return parse_query_lines(lines, default_max_groups)
    except ProtocolError as exc:
        raise CLIError(EXIT_INPUT, exc.located(path))


def cmd_batch(args: argparse.Namespace) -> int:
    _require_one_input(args)
    entries = _load_batch_entries(args.queries, args.max_groups)
    recorder = _recorder_from_args(args)
    limits = ExecutionLimits(timeout_sec=args.timeout, retries=args.retries)
    if args.snapshot:
        executor = BatchQueryExecutor(
            None,
            workers=args.workers,
            backend=args.backend,
            limits=limits,
            recorder=recorder,
            snapshot=_frozen_snapshot(args.snapshot),
        )
    else:
        network = _load_network(args.input)
        executor = BatchQueryExecutor(
            network,
            workers=args.workers,
            backend=args.backend,
            limits=limits,
            build_args={"seed": args.seed},
            recorder=recorder,
        )
    with executor:
        outcomes = executor.run_entries(entries)
    lines = outcome_lines(outcomes, timing=args.timing)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    failed = sum(not o.ok for o in outcomes)
    summary = (
        f"batch: {len(outcomes)} queries, {len(outcomes) - failed} ok, "
        f"{failed} failed ({executor.backend} backend, "
        f"{executor.workers} workers)"
    )
    # Keep stdout pure JSONL when outcomes go there.
    print(summary, file=sys.stdout if args.output else sys.stderr)
    _emit_recorder_outputs(recorder, args)
    return EXIT_BATCH if failed else EXIT_OK


def cmd_serve(args: argparse.Namespace) -> int:
    # Imported here, not at module top: the daemon pulls in the stdlib
    # HTTP server machinery, which no other subcommand needs.
    from .service.server import ServerConfig, serve as run_server

    _require_one_input(args)
    snapshot = _frozen_snapshot(args.snapshot) if args.snapshot else None
    network = _load_network(args.input) if args.input else None
    try:
        config = ServerConfig(
            host=args.host,
            port=args.port,
            workers=args.workers,
            backend=args.backend,
            max_queue=args.max_queue,
            timeout_sec=args.timeout if args.timeout > 0 else None,
            default_max_groups=args.max_groups,
            access_log_path=args.access_log,
            slow_query_sec=args.slow_query,
            window_sec=args.window,
            explain=args.explain,
            phase_timing=not args.no_phase_timing,
            trace_sample_rate=args.trace_sample,
            profile_endpoint=args.profile,
        )
    except InvalidParameterError as exc:
        raise CLIError(EXIT_INPUT, str(exc))

    workers = 1 if config.backend == "serial" else config.workers

    def announce(host: str, port: int) -> None:
        print(
            f"gpssn serve: listening on http://{host}:{port} "
            f"({config.backend} backend, {workers} workers, "
            f"queue {config.max_queue}); warming workers ...",
            flush=True,
        )

    run_server(
        network,
        config,
        build_args=None if snapshot else {"seed": args.seed},
        ready_message=announce,
        snapshot=snapshot,
    )
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    import time as _time

    from .obs import SamplingProfiler

    recorder = Recorder.traced()
    processor = _processor_from_args(args, recorder)
    # One warm run outside the profiled window, so index builds and
    # cold caches do not drown the steady-state profile.
    _execute_query(processor, args)
    try:
        profiler = SamplingProfiler(
            interval_sec=args.interval_ms / 1000.0,
            tracers=(recorder.tracer,),
            timer=args.timer,
        )
    except ValueError as exc:
        raise CLIError(EXIT_INPUT, str(exc))
    runs = 0
    answers: list = []
    stats = None
    started = _time.perf_counter()
    with profiler:
        while (
            runs < max(args.repeat, 1)
            or _time.perf_counter() - started < args.min_seconds
        ):
            answers, stats = _execute_query(processor, args)
            runs += 1
    report = profiler.report
    _print_answers(answers)
    print(format_stats_line(stats))
    print(
        f"profiled {runs} run{'s' if runs != 1 else ''}: "
        f"{report.num_samples} samples over {report.duration_sec:.2f}s "
        f"at {args.interval_ms:g} ms ({report.timer} timer)"
    )
    phases = report.phase_rows()
    if phases:
        print(format_table(
            ["phase", "samples", "share"],
            [[name, count, f"{share:.1%}"]
             for name, count, share in phases],
            title="Per-phase CPU attribution",
        ))
    top = report.top_functions(10)
    if top:
        print(format_table(
            ["frame", "self", "total"],
            [[frame, self_n, total_n] for frame, self_n, total_n in top],
            title="Hottest frames (by self samples)",
        ))
    if args.out:
        count = report.write_collapsed(args.out)
        print(f"wrote {count} collapsed stacks to {args.out}")
    if args.flamegraph:
        with open(args.flamegraph, "w", encoding="utf-8") as fp:
            fp.write(report.flamegraph_html())
        print(f"wrote flamegraph to {args.flamegraph}")
    _emit_recorder_outputs(recorder, args)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    recorder = _recorder_from_args(args, explaining=True)
    processor = _processor_from_args(args, recorder)
    answers, stats = _execute_query(processor, args)
    if args.json:
        print(explain_to_json(recorder.explain, stats=stats))
    else:
        _print_answers(answers)
        print(explain_report(recorder.explain, stats=stats))
    _emit_recorder_outputs(recorder, args)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    scale = ExperimentScale(
        road_vertices=args.road_vertices,
        num_pois=args.pois,
        num_users=args.users,
    )
    driver = FIGURE_DRIVERS[args.name]
    if args.name == "table2":
        headers, rows = driver(scale, seed=args.seed)
    else:
        headers, rows = driver(scale, num_queries=args.queries, seed=args.seed)
    print(format_table(headers, rows, title=args.name))
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    network = _load_network(args.input)
    report = calibrate(network, num_samples=args.samples, seed=args.seed)
    headers, rows = calibration_rows(report)
    print(format_table(headers, rows, title=f"Calibration of {args.input}"))
    return 0


def cmd_tune(args: argparse.Namespace) -> int:
    network = _load_network(args.input)
    suggestion = suggest_parameters(
        network, percentile=args.percentile, seed=args.seed
    )
    print(format_table(
        ["parameter", "suggestion", "distribution quartiles (25/50/75)"],
        [
            ["gamma", suggestion.gamma, suggestion.interest_quartiles],
            ["theta", suggestion.theta, suggestion.matching_quartiles],
            ["r", suggestion.radius, suggestion.poi_distance_quartiles],
        ],
        title=f"Suggested parameters ({args.percentile}th percentile)",
    ))
    return 0


def cmd_mutate(args: argparse.Namespace) -> int:
    from .dynamic import synthesize_mutations

    network = _load_network(args.input)
    if args.count < 1:
        raise CLIError(EXIT_INPUT, f"--count must be >= 1, got {args.count}")
    try:
        log = synthesize_mutations(network, args.count, seed=args.seed)
    except InvalidParameterError as exc:
        raise CLIError(EXIT_INPUT, str(exc))
    log.dump(args.output)
    ops = sorted({m.op for m in log})
    print(
        f"wrote {len(log)} mutations to {args.output} "
        f"(seed {args.seed}, ops: {', '.join(ops)})"
    )
    return EXIT_OK


def _load_mutations(path: str):
    from .dynamic import MutationLog

    try:
        return MutationLog.load(path)
    except OSError as exc:
        raise CLIError(EXIT_INPUT, f"cannot read mutations {path}: {exc}")
    except InvalidParameterError as exc:
        raise CLIError(EXIT_INPUT, f"{path}: {exc}")


def cmd_replay(args: argparse.Namespace) -> int:
    """Stream mutations against standing queries, incrementally.

    With ``--oracle-every N`` the replay is self-checking: at every
    N-mutation boundary (and once at the end) a processor is rebuilt
    from scratch on the mutated network, the standing queries are
    re-answered cold, and the two outcome streams must be
    byte-identical — the dynamic layer's correctness contract.
    """
    from .dynamic import ContinuousQueryRegistry, DynamicIndexMaintainer

    if args.batch_size < 1:
        raise CLIError(
            EXIT_INPUT, f"--batch-size must be >= 1, got {args.batch_size}"
        )
    if args.oracle_every < 0:
        raise CLIError(
            EXIT_INPUT,
            f"--oracle-every must be >= 0, got {args.oracle_every}",
        )
    network = _load_network(args.input)
    entries = _load_batch_entries(args.queries, args.max_groups)
    log = _load_mutations(args.mutations)

    build_args = {"seed": args.seed}
    processor = GPSSNQueryProcessor(network, **build_args)
    registry = ContinuousQueryRegistry(DynamicIndexMaintainer(processor))
    registry.subscribe(entries)

    def oracle_check(applied: int) -> None:
        fresh = GPSSNQueryProcessor(network, **build_args)
        cold = ContinuousQueryRegistry(DynamicIndexMaintainer(fresh))
        cold.subscribe(entries)
        incremental, rebuilt = registry.outcome_lines(), cold.outcome_lines()
        if incremental != rebuilt:
            for inc, ora in zip(incremental, rebuilt):
                if inc != ora:
                    print(f"  incremental: {inc}", file=sys.stderr)
                    print(f"  rebuilt:     {ora}", file=sys.stderr)
            raise CLIError(
                1,
                f"oracle mismatch after {applied} mutations: incremental "
                "outcomes differ from a from-scratch rebuild",
            )

    mutations = list(log)
    applied = 0
    skipped = dirty = 0
    while applied < len(mutations):
        batch = mutations[applied:applied + args.batch_size]
        report = registry.apply_batch(batch)
        skipped += report["skipped"]
        dirty += report["dirty"]
        applied += len(batch)
        if args.oracle_every and (
            applied % args.oracle_every == 0 or applied == len(mutations)
        ):
            oracle_check(applied)

    lines = registry.outcome_lines()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
    else:
        for line in lines:
            print(line)
    if args.save_bundle:
        save_network(args.save_bundle, network)
    outcomes = registry.outcomes()
    failed = sum(not o.ok for o in outcomes)
    stats = registry.describe()
    summary = (
        f"replay: {applied} mutations over {len(outcomes)} standing "
        f"queries, {skipped} skips, {dirty} re-answers triggered, "
        f"{stats['maintainer']['compactions']} compactions, "
        f"{failed} failed"
        + (f"; oracle checks every {args.oracle_every} ops passed"
           if args.oracle_every else "")
    )
    print(summary, file=sys.stdout if args.output else sys.stderr)
    return EXIT_BATCH if failed else EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "generate": cmd_generate,
        "stats": cmd_stats,
        "freeze": cmd_freeze,
        "query": cmd_query,
        "batch": cmd_batch,
        "serve": cmd_serve,
        "profile": cmd_profile,
        "explain": cmd_explain,
        "figure": cmd_figure,
        "calibrate": cmd_calibrate,
        "tune": cmd_tune,
        "mutate": cmd_mutate,
        "replay": cmd_replay,
    }
    try:
        return handlers[args.command](args)
    except CLIError as exc:
        print(f"gpssn: error: {exc}", file=sys.stderr)
        return exc.code
    except GPSSNError as exc:
        print(f"gpssn: query error: {exc}", file=sys.stderr)
        return EXIT_QUERY


if __name__ == "__main__":
    sys.exit(main())
