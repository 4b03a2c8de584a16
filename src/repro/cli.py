"""Command-line interface for the LAER-MoE reproduction.

Provides quick access to the most common workflows without writing Python:

* ``repro models`` -- print the Table 2 model registry;
* ``repro systems`` -- print the registered training systems;
* ``repro scenarios`` -- print the registered routing scenarios;
* ``repro trace routing|record|export`` -- ``routing`` generates (and
  optionally saves) a synthetic routing trace and prints its summary
  statistics; ``record`` and ``export`` are observability (see
  :mod:`repro.telemetry`): re-run any repro command with the cross-process
  tracer armed, collecting span events from the coordinator and every
  worker process it spawns, then merge the per-process event files and
  export Chrome trace-event JSON (viewable in Perfetto or
  chrome://tracing) plus a per-phase time breakdown::

      repro trace record --dir .repro-trace -- fleet run \
        sweep-cluster-sizes --store ./study-store --workers 2
      repro trace export --dir .repro-trace --output trace.json

* ``repro plan`` -- run the load-balancing planner over a trace and print
  per-iteration balance (aggregated over all MoE layers) against the static
  EP layout;
* ``repro run`` (alias ``repro compare``) -- execute a declarative
  :class:`repro.api.ExperimentSpec`, either loaded from a JSON file
  (``--spec exp.json``) or assembled from the command-line flags, and print
  throughput, speedups and the time breakdown of the compared systems;
  ``--dump-spec`` writes the spec instead of running it;
* ``repro studies`` -- print the registered study definitions;
* ``repro study run|diff|report|gate`` -- the sweep workflow: expand a
  :class:`repro.study.StudySpec` (a registered name such as
  ``sweep-cluster-sizes``, or a JSON file) into its experiment grid, execute
  it in this process into a persistent :class:`repro.store.ResultStore`
  (cells already in the store are skipped, so re-running is a cheap
  no-op), then diff two stored runs metric-by-metric, render a markdown
  report, or gate CI on regressions against a stored baseline
  (``repro store ls`` lists the stored runs)::

      repro study run sweep-cluster-sizes --store ./study-store \
        --param sizes='[1,2,4]'
      repro store ls --store ./study-store
      repro study diff --store ./study-store RUN_A RUN_B
      repro study report --store ./study-store --study sweep-cluster-sizes
      repro study gate --store ./study-store --baseline baseline  # exit 1
                                                                  # on regression

* ``repro suite make|ls|characterize|report|search`` -- versioned scenario
  suites (see :mod:`repro.suite`): emit the curated default suite, list its
  members, characterize each member's workload (imbalance spectrum, churn,
  burstiness, drift velocity, hot concentration) with a coverage report, or
  run the adversarial search for scenarios maximizing a target system's
  regret vs the oracle -- winners graduate into the next suite version::

      repro suite make --output suites/default-v1.json
      repro suite characterize suites/default-v1.json
      repro suite search suites/default-v1.json --store ./suite-store \
        --target static_ep --budget 16 --graduate suites/default-v2.json

* ``repro fleet run|status|workers|watch`` -- multi-process sweep
  execution: the same grid, drained by N cooperating worker processes
  through a file-based work queue (lease files with heartbeats; crashed
  workers' cells are reclaimed) into one shared store (safe: the store's
  index is an append-only journal); ``watch`` is a live view of queue
  depth, per-worker heartbeat ages and the completed-cell rate::

      repro fleet run sweep-cluster-sizes --store ./study-store --workers 4
      repro fleet status  --store ./study-store
      repro fleet workers --store ./study-store
      repro fleet watch   --store ./study-store --interval 2

* ``repro serve`` -- the serving tier: a long-lived daemon answering
  ExperimentSpec/StudySpec submissions over HTTP (or a Unix socket) straight
  from the result cache -- the content-hashed run id is the memo key, so
  anything ever stored is a cache hit; misses run once on a resident
  executor, and identical concurrent submissions coalesce onto a single
  execution (see :mod:`repro.serve`); the unified metrics registry is
  scrapeable in Prometheus text format at ``GET /metrics``::

      repro serve --store ./study-store --port 8351
      repro serve --store ./study-store --unix-socket /tmp/repro.sock

* ``repro submit`` -- client for a running daemon: submit a spec (a JSON
  file, or assembled from the same flags ``repro run`` takes), query
  ``--status``, or ask for a graceful ``--shutdown``::

      repro submit --address 127.0.0.1:8351 --scenario bursty --iterations 8
      repro submit --address 127.0.0.1:8351 --spec exp.json --no-wait

* ``repro calib measure|fit|report|apply`` -- calibrate the analytic cost
  model against measured link/kernel/All-to-All timings (see
  :mod:`repro.calib`): ``measure`` runs the seeded microbenchmark schedule
  against a hidden ground-truth machine and writes observation CSVs (real
  measurements in the same CSV shape work too), ``fit`` recovers per-link
  bandwidth scales, latency intercepts, the FLOPs efficiency and the
  per-token byte overhead as a content-hashed
  :class:`repro.calib.CalibrationProfile`, ``report`` renders the
  goodness-of-fit report (per-term R², MAPE, worst-fit links), and
  ``apply`` embeds the profile into an ExperimentSpec so every downstream
  run simulates the calibrated machine::

      repro calib measure --output ./calib-obs --num-nodes 2
      repro calib fit --observations ./calib-obs --output profile.json \
        --min-r2 0.99
      repro calib report --observations ./calib-obs
      repro calib apply --profile profile.json --spec exp.json \
        --output exp_calibrated.json

* ``repro store ls|compact|rebuild`` -- store maintenance without Python
  one-liners: list stored runs, fold the append-only index journal into
  ``index.json``, or regenerate the index from the run files (the truth);
  ``ls --stats`` also reports the store's telemetry counters (index cache
  hits/misses, journal lines, auto-compactions) from the metrics registry.

Exit codes (uniform across commands): **0** success; **1** execution or
gate failure (a submitted run failed, ``study gate`` tripped, a fleet cell
failed); **2** usage/environment errors (bad flags or spec, missing store,
unreachable daemon, unwritable output path).

Workloads are scenarios: ``run``, ``plan`` and ``trace routing`` accept
``--scenario`` (any name from ``repro scenarios``) plus repeatable
``--param key=value`` scenario knobs, e.g.::

    repro compare --scenario bursty-churn --param period=20

Every simulation flows through :class:`repro.api.ExperimentRunner`, which
simulates the compared systems in this process, in lockstep, so a
spec file and the equivalent flags produce identical numbers.  The only way
to use several processes is the fleet: ``repro fleet run`` drains a study's
grid -- make the systems a ``systems`` axis to spread a comparison out.
(``python -m repro.cli`` works too; the ``repro`` console script is
installed by the package metadata.)
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import sys
import time
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    TypeVar,
    Union,
)

from repro.analysis.reporting import (
    format_phase_breakdown,
    format_run_diff,
    format_study_report,
    format_table,
    print_report,
)
from repro.api import (
    ClusterSpec,
    ExperimentResult,
    ExperimentRunner,
    ExperimentSpec,
    WorkloadSpec,
    run_planner_study,
)
from repro.calib import (
    MeasureConfig,
    ObservationSet,
    draw_machine,
    fit_calibration,
    run_microbenchmarks,
)
from repro.calib.profile import CalibrationProfile
from repro.calib.report import fit_report, fit_summary_line
from repro.chaos import (
    FAULT_POINTS,
    PLAN_DESCRIPTIONS,
    PLAN_NAMES,
    WORKER_CRASH_POINTS,
    CircuitBreaker,
    RetryPolicy,
)
from repro.cluster.topology import ClusterTopology
from repro.fleet import QUEUE_DIR_NAME, WorkQueue, launch_fleet
from repro.serve import (
    DEFAULT_HOST,
    DEFAULT_PORT,
    FallbackExecutor,
    FleetQueueExecutor,
    PoolExecutor,
    ReproServer,
    ServeClient,
    ServeUnavailable,
)
from repro.sim.systems import available_systems, system_descriptions
from repro.store import (
    AUTO_COMPACT_BYTES,
    AUTO_COMPACT_LINES,
    DIFF_METRICS,
    IndexEntry,
    ResultStore,
)
from repro.study import (
    StudyCellError,
    StudyRunner,
    StudySpec,
    StudyStoreError,
    make_study,
    study_descriptions,
)
from repro.telemetry.metrics import REGISTRY as METRICS_REGISTRY
from repro.telemetry.trace import (
    TRACE_DIR_ENV,
    TRACE_ID_ENV,
    TRACE_PARENT_ENV,
    Tracer,
    export_chrome_trace,
    export_env as trace_export_env,
    install as trace_install,
    phase_breakdown,
    read_events,
    span as trace_span,
    uninstall as trace_uninstall,
)
from repro.sim.iteration import DROP_POLICIES
from repro.suite import (
    SuiteCharacterization,
    SuiteSpec,
    adversarial_search,
    characterize_suite,
    default_suite,
    format_suite_report,
    graduate,
)
from repro.workloads.model_configs import get_model_config, list_model_configs
from repro.workloads.scenarios import (
    available_scenario_wrappers,
    available_scenarios,
    registered_scenario,
    registered_scenario_wrapper,
    scenario_descriptions,
)
from repro.workloads.trace_io import save_trace, summarize_trace

T = TypeVar("T")


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser.

    Every leaf command's parser carries its handler as the ``func``
    default (see :func:`_command`), and :func:`main` calls it.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="LAER-MoE reproduction command line")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "models", cmd_models,
             help="list the Table 2 model configurations")
    _command(sub, "systems", cmd_systems,
             help="list the registered training systems")
    scenarios = _command(sub, "scenarios", cmd_scenarios,
                         help="list the registered routing scenarios")
    scenarios.add_argument("--verbose", "-v", action="store_true",
                           help="also print each scenario's parameters with "
                                "types and defaults")

    trace = sub.add_parser(
        "trace",
        help="generate a synthetic routing trace, or record/export a "
             "cross-process telemetry trace")
    trsub = trace.add_subparsers(dest="trace_command", required=True)
    trace_routing = _command(
        trsub, "routing", cmd_trace_routing,
        help="generate a synthetic routing trace and print its summary "
             "statistics")
    _add_common_workload_args(trace_routing)
    trace_routing.add_argument("--iterations", type=int, default=20)
    trace_routing.add_argument("--output", type=str, default=None,
                               help="optional .npz path to save the trace to")
    trace_record = _command(
        trsub, "record", cmd_trace_record,
        help="run a repro command with the tracer armed, collecting span "
             "events from every process it spawns")
    trace_record.add_argument("--dir", dest="trace_dir", type=str,
                              default=".repro-trace", metavar="DIR",
                              help="trace event directory "
                                   "(default: .repro-trace)")
    trace_record.add_argument("rest", nargs=argparse.REMAINDER,
                              metavar="-- COMMAND ...",
                              help="the repro command line to trace, e.g. "
                                   "-- fleet run sweep-cluster-sizes ...")
    trace_export = _command(
        trsub, "export", cmd_trace_export,
        help="merge recorded span events into Chrome trace-event JSON "
             "plus a per-phase time breakdown")
    trace_export.add_argument("--dir", dest="trace_dir", type=str,
                              default=".repro-trace", metavar="DIR",
                              help="trace event directory "
                                   "(default: .repro-trace)")
    trace_export.add_argument("--output", type=str, default=None,
                              metavar="PATH",
                              help="Chrome trace JSON path "
                                   "(default: <dir>/trace.json)")

    plan = _command(sub, "plan", cmd_plan,
                    help="run the planner over a trace")
    _add_common_workload_args(plan)
    plan.add_argument("--iterations", type=int, default=6)

    run = _command(sub, "run", cmd_run, aliases=["compare"],
                   help="run a declarative experiment spec end to end")
    _add_common_workload_args(run)
    _add_simulation_args(run)
    run.add_argument("--name", type=str, default="experiment",
                     help="experiment name recorded in the spec/result")
    run.add_argument("--spec", type=str, default=None,
                     help="JSON experiment spec to run (overrides the "
                          "workload/system flags)")
    run.add_argument("--dump-spec", type=str, default=None, metavar="PATH",
                     help="write the experiment spec as JSON to PATH "
                          "('-' for stdout) and exit without running")
    run.add_argument("--output", type=str, default=None,
                     help="optional path to save the JSON experiment result")

    _command(sub, "studies", cmd_studies,
             help="list the registered study definitions")

    study = sub.add_parser(
        "study", help="run sweeps into a persistent result store")
    ssub = study.add_subparsers(dest="study_command", required=True)

    study_run = _command(
        ssub, "run", cmd_study_run,
        help="expand a study into its grid and execute it in this process "
             "(resumable)")
    study_run.add_argument("study",
                           help="registered study name (see 'repro studies') "
                                "or a StudySpec JSON file")
    _add_store_arg(study_run)
    study_run.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="study parameter override, repeatable "
                                "(e.g. --param sizes='[1,2,4]')")
    study_run.add_argument("--tag", action="append", default=[],
                           help="extra tag stored on every cell run, "
                                "repeatable")
    study_run.add_argument("--no-resume", action="store_true",
                           help="re-execute cells even when their run is "
                                "already in the store")
    study_run.add_argument("--dump-spec", type=str, default=None,
                           metavar="PATH",
                           help="write the expanded StudySpec as JSON to "
                                "PATH ('-' for stdout) and exit without "
                                "running")

    study_diff = _command(
        ssub, "diff", cmd_study_diff,
        help="per-system, per-metric deltas between two stored runs")
    study_diff.add_argument("run_a", help="base run id")
    study_diff.add_argument("run_b", help="other run id")
    _add_store_arg(study_diff)

    study_report = _command(
        ssub, "report", cmd_study_report,
        help="render the stored runs of a study as markdown")
    _add_store_arg(study_report)
    study_report.add_argument("--study", type=str, default=None,
                              help="restrict to runs of one study "
                                   "(tag 'study:<name>')")
    study_report.add_argument("--tag", type=str, default=None,
                              help="restrict to runs carrying a tag")
    study_report.add_argument("--baseline", type=str, default=None,
                              help="also report regressions against runs "
                                   "tagged with this baseline tag")
    study_report.add_argument("--output", type=str, default=None,
                              help="write the markdown report to a file "
                                   "instead of stdout")
    study_report.add_argument("--trace", type=str, default=None,
                              metavar="DIR",
                              help="telemetry trace directory (from 'repro "
                                   "trace record') whose per-phase time "
                                   "breakdown is appended as a section")

    study_gate = _command(
        ssub, "gate", cmd_study_gate,
        help="exit nonzero when stored runs regressed vs a baseline")
    _add_store_arg(study_gate)
    study_gate.add_argument("--baseline", type=str, required=True,
                            help="baseline tag the candidates are compared "
                                 "against (see 'repro study run --tag')")
    study_gate.add_argument("--study", type=str, default=None,
                            help="restrict the gate to runs of one study "
                                 "(tag 'study:<name>')")
    study_gate.add_argument("--metric", action="append", default=[],
                            help="metric to gate on, repeatable "
                                 "(default: throughput)")
    study_gate.add_argument("--threshold", type=float, default=0.05,
                            help="relative change beyond which a metric "
                                 "counts as regressed (default: 0.05)")

    suite = sub.add_parser(
        "suite", help="versioned scenario suites: characterize, report, "
                      "adversarial search")
    susub = suite.add_subparsers(dest="suite_command", required=True)

    suite_make = _command(susub, "make", cmd_suite_make,
                          help="emit the curated default suite as JSON")
    suite_make.add_argument("--output", type=str, default=None, metavar="PATH",
                            help="write the suite JSON to PATH instead of "
                                 "stdout")

    suite_ls = _command(susub, "ls", cmd_suite_ls,
                        help="list a suite's members")
    suite_ls.add_argument("suite", help="SuiteSpec JSON file")

    suite_char = _command(
        susub, "characterize", cmd_suite_characterize,
        help="stream every member and compute its workload metrics")
    suite_char.add_argument("suite", help="SuiteSpec JSON file")
    suite_char.add_argument("--num-nodes", type=int, default=1)
    suite_char.add_argument("--devices-per-node", type=int, default=8)
    suite_char.add_argument("--output", type=str, default=None, metavar="PATH",
                            help="write the characterization JSON to PATH "
                                 "(default: render the report to stdout)")

    suite_report = _command(
        susub, "report", cmd_suite_report,
        help="render a suite characterization as markdown")
    suite_report.add_argument("suite", help="SuiteSpec JSON file")
    suite_report.add_argument("--characterization", type=str, default=None,
                              metavar="PATH",
                              help="reuse a saved characterization JSON "
                                   "instead of recomputing")
    suite_report.add_argument("--num-nodes", type=int, default=1)
    suite_report.add_argument("--devices-per-node", type=int, default=8)
    suite_report.add_argument("--output", type=str, default=None,
                              metavar="PATH",
                              help="write the markdown report to a file "
                                   "instead of stdout")

    suite_search = _command(
        susub, "search", cmd_suite_search,
        help="adversarial search: find scenarios maximizing a system's "
             "regret vs the oracle")
    suite_search.add_argument("suite", help="SuiteSpec JSON file")
    _add_store_arg(suite_search)
    suite_search.add_argument("--target", type=str, default="static_ep",
                              choices=available_systems(),
                              help="system whose regret the search maximizes "
                                   "(default: static_ep)")
    suite_search.add_argument("--budget", type=int, default=16, metavar="N",
                              help="total candidate evaluations, members "
                                   "included (default: 16)")
    suite_search.add_argument("--seed", type=int, default=0,
                              help="search PRNG seed (same seed + suite + "
                                   "store contents => identical winner)")
    suite_search.add_argument("--num-nodes", type=int, default=1)
    suite_search.add_argument("--devices-per-node", type=int, default=8)
    suite_search.add_argument("--graduate", type=str, default=None,
                              metavar="PATH",
                              help="write the next suite version (winner "
                                   "admitted as a member) to PATH")
    suite_search.add_argument("--quiet", action="store_true",
                              help="suppress per-candidate progress lines")

    fleet = sub.add_parser(
        "fleet", help="multi-process sweep execution over a shared store")
    fsub = fleet.add_subparsers(dest="fleet_command", required=True)

    fleet_run = _command(
        fsub, "run", cmd_fleet_run,
        help="drain a study's grid with N worker processes")
    fleet_run.add_argument("study",
                           help="registered study name (see 'repro studies') "
                                "or a StudySpec JSON file")
    _add_store_arg(fleet_run)
    fleet_run.add_argument("--workers", type=int, default=2, metavar="N",
                           help="number of worker processes (default: 2)")
    fleet_run.add_argument("--param", action="append", default=[],
                           metavar="KEY=VALUE",
                           help="study parameter override, repeatable")
    fleet_run.add_argument("--tag", action="append", default=[],
                           help="extra tag stored on every cell run, "
                                "repeatable")
    fleet_run.add_argument("--no-resume", action="store_true",
                           help="re-execute cells even when their run is "
                                "already in the store")
    fleet_run.add_argument("--lease-timeout", type=float, default=60.0,
                           metavar="SECONDS",
                           help="heartbeat age after which a worker's cell "
                                "is reclaimed (default: 60)")
    fleet_run.add_argument("--queue", type=str, default=None, metavar="DIR",
                           help="work-queue directory (default: "
                                "<store>/queue/<study-key>)")
    fleet_run.add_argument("--quiet", action="store_true",
                           help="suppress the periodic progress lines")

    fleet_status = _command(
        fsub, "status", cmd_fleet_status,
        help="per-queue cell counts of a store's fleet queues")
    _add_store_arg(fleet_status, required=False)
    fleet_status.add_argument("--queue", type=str, default=None,
                              metavar="DIR",
                              help="inspect one queue directory instead of "
                                   "every queue under the store")

    fleet_workers = _command(
        fsub, "workers", cmd_fleet_workers,
        help="per-worker claim counts and lease heartbeats")
    _add_store_arg(fleet_workers, required=False)
    fleet_workers.add_argument("--queue", type=str, default=None,
                               metavar="DIR",
                               help="inspect one queue directory instead of "
                                    "every queue under the store")

    fleet_watch = _command(
        fsub, "watch", cmd_fleet_watch,
        help="live queue depth, per-worker heartbeat ages and "
             "completed-cell rate")
    _add_store_arg(fleet_watch, required=False)
    fleet_watch.add_argument("--queue", type=str, default=None, metavar="DIR",
                             help="watch one queue directory instead of "
                                  "every queue under the store")
    fleet_watch.add_argument("--interval", type=float, default=2.0,
                             metavar="SECONDS",
                             help="refresh interval (default: 2)")
    fleet_watch.add_argument("--once", action="store_true",
                             help="print a single snapshot and exit")
    fleet_watch.add_argument("--duration", type=float, default=None,
                             metavar="SECONDS",
                             help="stop watching after SECONDS even while "
                                  "the queues are still running")

    serve = _command(
        sub, "serve", cmd_serve,
        help="serve specs from the result cache (long-lived daemon)")
    _add_store_arg(serve)
    serve.add_argument("--host", type=str, default=DEFAULT_HOST,
                       help=f"TCP bind host (default: {DEFAULT_HOST})")
    serve.add_argument("--port", type=int, default=DEFAULT_PORT,
                       help=f"TCP bind port, 0 picks a free one "
                            f"(default: {DEFAULT_PORT})")
    serve.add_argument("--unix-socket", type=str, default=None, metavar="PATH",
                       help="serve on an AF_UNIX socket path instead of TCP")
    serve.add_argument("--executor", choices=("pool", "fleet"),
                       default="pool",
                       help="where cache misses execute: an in-process pool "
                            "or an attached fleet work queue drained by "
                            "external workers (default: pool)")
    serve.add_argument("--max-workers", type=int, default=1, metavar="N",
                       help="concurrent simulations of the pool executor "
                            "(default: 1)")
    serve.add_argument("--queue", type=str, default=None, metavar="DIR",
                       help="fleet executor's queue directory (default: "
                            "<store>/queue/serve)")
    serve.add_argument("--auto-compact-lines", type=int,
                       default=AUTO_COMPACT_LINES, metavar="N",
                       help="fold the store's index journal into index.json "
                            "once it holds N lines (0 disables; default: "
                            f"{AUTO_COMPACT_LINES})")
    serve.add_argument("--auto-compact-bytes", type=int,
                       default=AUTO_COMPACT_BYTES, metavar="N",
                       help="likewise, once the journal reaches N bytes "
                            f"(0 disables; default: {AUTO_COMPACT_BYTES})")
    serve.add_argument("--stuck-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="fleet executor only: seconds a queued cell may "
                            "sit with no outcome and no live worker lease "
                            "before it is declared stuck (default: wait "
                            "forever)")
    serve.add_argument("--no-fallback", action="store_true",
                       help="with --executor fleet and --stuck-timeout: fail "
                            "stuck submissions instead of degrading to an "
                            "in-process pool behind a circuit breaker")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")

    submit = _command(
        sub, "submit", cmd_submit,
        help="submit a spec to a running 'repro serve' daemon")
    submit.add_argument("--address", type=str,
                        default=f"{DEFAULT_HOST}:{DEFAULT_PORT}",
                        metavar="ADDR",
                        help='daemon address: "host:port", a bare port, or '
                             'a "unix:PATH" socket (default: '
                             f'{DEFAULT_HOST}:{DEFAULT_PORT})')
    submit.add_argument("--spec", type=str, default=None, metavar="PATH",
                        help="ExperimentSpec or StudySpec JSON file to "
                             "submit (overrides the workload/system flags)")
    submit.add_argument("--client", type=str, default=None,
                        help="client name; runs executed for us are tagged "
                             "client:<name>")
    submit.add_argument("--tag", action="append", default=[],
                        help="extra tag stored on runs this submission "
                             "causes, repeatable")
    submit.add_argument("--no-wait", action="store_true",
                        help="return immediately after scheduling a miss "
                             "instead of waiting for the result")
    submit.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="cap on how long to wait for a miss to execute")
    submit.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry an unreachable daemon N times with "
                             "exponential backoff before giving up "
                             "(default: 0, fail on first refusal)")
    submit.add_argument("--retry-deadline", type=float, default=None,
                        metavar="SECONDS",
                        help="overall deadline across retries; implies "
                             "--retries 1000000 when --retries is 0")
    submit.add_argument("--json", action="store_true",
                        help="print the raw JSON reply instead of a summary")
    submit.add_argument("--status", action="store_true",
                        help="print the daemon's /status and exit")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to drain and exit")
    _add_common_workload_args(submit)
    _add_simulation_args(submit)
    submit.add_argument("--name", type=str, default="experiment",
                        help="experiment name recorded in the spec")

    store_cmd = sub.add_parser(
        "store", help="result-store maintenance (ls/compact/rebuild/prune)")
    stsub = store_cmd.add_subparsers(dest="store_command", required=True)

    store_ls = _command(stsub, "ls", cmd_store_ls,
                        help="list the runs stored in a store")
    _add_store_arg(store_ls)
    store_ls.add_argument("--name", type=str, default=None,
                          help="filter by experiment name ('prefix*' allowed)")
    store_ls.add_argument("--system", type=str, default=None,
                          help="filter by system key")
    store_ls.add_argument("--scenario", type=str, default=None,
                          help="filter by routing scenario")
    store_ls.add_argument("--cluster-size", type=int, default=None,
                          help="filter by total device count")
    store_ls.add_argument("--tag", type=str, default=None,
                          help="filter by tag")
    store_ls.add_argument("--stats", action="store_true",
                          help="also print the store's telemetry counters "
                               "(index cache hits/misses, journal lines, "
                               "auto-compactions) from the metrics registry")

    store_compact = _command(
        stsub, "compact", cmd_store_compact,
        help="fold the append-only index journal into index.json")
    _add_store_arg(store_compact)

    store_rebuild = _command(
        stsub, "rebuild", cmd_store_rebuild,
        help="regenerate the index from the run files (the truth)")
    _add_store_arg(store_rebuild)

    store_prune = _command(
        stsub, "prune", cmd_store_prune,
        help="bounded eviction: delete old runs by age and/or count")
    _add_store_arg(store_prune)
    store_prune.add_argument("--older-than", type=float, default=None,
                             metavar="DAYS",
                             help="delete runs created more than DAYS ago")
    store_prune.add_argument("--max-runs", type=int, default=None,
                             metavar="N",
                             help="then keep at most N runs (oldest "
                                  "unprotected runs evicted first)")
    store_prune.add_argument("--protect-tag", action="append", default=None,
                             metavar="TAG",
                             help="never delete runs carrying TAG, "
                                  "repeatable (default: baseline)")
    store_prune.add_argument("--dry-run", action="store_true",
                             help="report what would be deleted, delete "
                                  "nothing")

    chaos = sub.add_parser(
        "chaos", help="deterministic fault-injection campaigns "
                      "(crash/torn-write/stall) with invariant checking")
    chsub = chaos.add_subparsers(dest="chaos_command", required=True)

    chaos_run = _command(
        chsub, "run", cmd_chaos_run,
        help="execute a fault plan against a scratch store and verify the "
             "crash-consistency invariants")
    chaos_run.add_argument("--plan", type=str, required=True,
                           choices=PLAN_NAMES,
                           help="which built-in fault campaign to run")
    chaos_run.add_argument("--store", type=str, default=None, metavar="DIR",
                           help="scratch store directory, wiped before the "
                                "run (default: .repro-chaos/<plan>)")
    chaos_run.add_argument("--seed", type=int, default=0,
                           help="plan seed; the same (plan, seed) replays "
                                "the identical fault campaign (default: 0)")
    chaos_run.add_argument("--quick", action="store_true",
                           help="shrink workloads for CI smoke runs")
    chaos_run.add_argument("--no-inject", action="store_true",
                           help="run the identical campaign with no faults "
                                "installed (the no-op acceptance check: the "
                                "store digest must match an injected run)")
    chaos_run.add_argument("--report", type=str, default=None, metavar="PATH",
                           help="also write the full JSON chaos report here")

    _command(chsub, "plans", cmd_chaos_plans,
             help="list the built-in chaos plans")
    _command(chsub, "points", cmd_chaos_points,
             help="list the named fault-injection points")

    calib = sub.add_parser(
        "calib", help="calibrate the analytic cost model against measured "
                      "(or synthetic) microbenchmark observations")
    casub = calib.add_subparsers(dest="calib_command", required=True)

    calib_measure = _command(
        casub, "measure", cmd_calib_measure,
        help="run the seeded microbenchmark schedule against a hidden "
             "ground-truth machine and write observation CSVs "
             "(comm/compute/all_to_all)")
    calib_measure.add_argument("--output", type=str, required=True,
                               metavar="DIR",
                               help="observation directory to write")
    calib_measure.add_argument("--model", type=str,
                               default="mixtral-8x7b-e8k2",
                               choices=list_model_configs(),
                               help="model fixing the All-to-All hidden size")
    calib_measure.add_argument("--num-nodes", type=int, default=2)
    calib_measure.add_argument("--devices-per-node", type=int, default=4)
    calib_measure.add_argument("--seed", type=int, default=0,
                               help="microbenchmark schedule seed")
    calib_measure.add_argument("--machine-seed", type=int, default=None,
                               help="seed of the hidden ground-truth machine "
                                    "draw (default: --seed)")
    calib_measure.add_argument("--noise", type=float, default=0.0,
                               metavar="REL",
                               help="relative Gaussian measurement noise "
                                    "(0 = exact observations)")
    calib_measure.add_argument("--tiny", action="store_true",
                               help="minimal schedule for CI smoke runs")

    calib_fit = _command(
        casub, "fit", cmd_calib_fit,
        help="fit bandwidth scales, latency intercepts, FLOPs efficiency "
             "and the per-token byte overhead to an observation directory")
    calib_fit.add_argument("--observations", type=str, required=True,
                           metavar="DIR")
    calib_fit.add_argument("--output", type=str, default=None,
                           metavar="PROFILE.json",
                           help="write the fitted CalibrationProfile here")
    calib_fit.add_argument("--robust", action="store_true",
                           help="Huber-weighted (outlier-robust) line fits "
                                "for the comm terms")
    calib_fit.add_argument("--min-r2", type=float, default=None,
                           metavar="R2",
                           help="exit 1 when any term's R² is below R2 "
                                "(the CI gate)")

    calib_report = _command(
        casub, "report", cmd_calib_report,
        help="render the goodness-of-fit report (per-term R², MAPE, "
             "residuals, worst-fit links)")
    calib_report.add_argument("--observations", type=str, required=True,
                              metavar="DIR")
    calib_report.add_argument("--robust", action="store_true")
    calib_report.add_argument("--output", type=str, default=None,
                              metavar="PATH",
                              help="write the markdown report here instead "
                                   "of printing it")

    calib_apply = _command(
        casub, "apply", cmd_calib_apply,
        help="embed a fitted profile into an ExperimentSpec so studies and "
             "the serve daemon run on the calibrated machine")
    calib_apply.add_argument("--profile", type=str, required=True,
                             metavar="PROFILE.json")
    calib_apply.add_argument("--spec", type=str, required=True,
                             metavar="SPEC.json")
    calib_apply.add_argument("--output", type=str, default=None,
                             metavar="OUT.json",
                             help="write the calibrated spec here (default: "
                                  "print it)")
    return parser


def _command(subparsers: Any, name: str,
             func: Callable[[argparse.Namespace], int],
             **kwargs: Any) -> argparse.ArgumentParser:
    """Add the leaf command ``name``, whose handler ``main`` calls."""
    parser = subparsers.add_parser(name, **kwargs)
    parser.set_defaults(func=func)
    return parser


def _add_store_arg(parser: argparse.ArgumentParser,
                   required: bool = True) -> None:
    parser.add_argument("--store", type=str, required=required,
                        help="result-store directory"
                        + ("" if required else " (or pass --queue)"))


def _add_simulation_args(parser: argparse.ArgumentParser) -> None:
    """Flags shared by the simulation commands (``run`` and ``submit``)."""
    parser.add_argument("--iterations", type=int, default=10)
    parser.add_argument("--warmup", type=int, default=2)
    parser.add_argument("--systems", nargs="+",
                        default=["megatron", "fsdp_ep", "flexmoe", "laer"],
                        choices=available_systems())
    parser.add_argument("--reference", type=str, default="megatron")
    parser.add_argument("--overflow-penalty", type=float, default=0.0,
                        metavar="FACTOR",
                        help="charge tokens routed beyond a device's memory "
                             "capacity at FACTOR times their expert compute "
                             "time (0 disables the overflow model)")
    parser.add_argument("--token-capacity", type=int, default=None,
                        metavar="TOKENS",
                        help="explicit per-device routed-token budget for "
                             "the overflow model (default: derived from "
                             "device memory)")
    parser.add_argument("--drop-policy", choices=DROP_POLICIES,
                        default="penalty",
                        help="how tokens beyond capacity are handled: "
                             "'penalty' (linear charge scaled by "
                             "--overflow-penalty), 'truncate' "
                             "(capacity-factor truncation) or 'recompute' "
                             "(one full extra expert pass); the non-default "
                             "policies activate the overflow model even "
                             "with --overflow-penalty 0")


def _add_common_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", type=str, default="mixtral-8x7b-e8k2",
                        choices=list_model_configs())
    parser.add_argument("--num-nodes", type=int, default=4)
    parser.add_argument("--devices-per-node", type=int, default=8)
    parser.add_argument("--tokens-per-device", type=int, default=16384)
    parser.add_argument("--skew", type=float, default=0.45)
    parser.add_argument("--layers", type=int, default=2)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--scenario", type=str, default="drifting",
                        choices=available_scenarios(),
                        help="routing scenario (see 'repro scenarios')")
    parser.add_argument("--param", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="scenario parameter override, repeatable "
                             "(e.g. --param period=20)")


def _scenario_params(pairs: Sequence[str]) -> Dict[str, object]:
    """Parse repeated ``--param key=value`` flags (values as JSON, else str)."""
    params: Dict[str, object] = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(
                f"invalid scenario parameter {pair!r}; expected KEY=VALUE")
        try:
            params[key] = json.loads(raw)
        except json.JSONDecodeError:
            params[key] = raw
    return params


def _experiment_spec(args: argparse.Namespace, warmup: int,
                     systems: Optional[Sequence[str]] = None,
                     reference: str = "megatron",
                     name: str = "experiment") -> ExperimentSpec:
    """Assemble an :class:`ExperimentSpec` from the common CLI flags."""
    return ExperimentSpec(
        name=name,
        cluster=ClusterSpec(num_nodes=args.num_nodes,
                            devices_per_node=args.devices_per_node),
        workload=WorkloadSpec(model=args.model,
                              tokens_per_device=args.tokens_per_device,
                              layers=args.layers,
                              iterations=args.iterations,
                              warmup=warmup,
                              skew=args.skew,
                              seed=args.seed,
                              scenario=args.scenario,
                              params=_scenario_params(args.param)),
        systems=tuple(systems) if systems else ("laer",),
        reference=reference,
        overflow_penalty=getattr(args, "overflow_penalty", 0.0),
        token_capacity=getattr(args, "token_capacity", None),
        drop_policy=getattr(args, "drop_policy", "penalty"),
    )


def _print_experiment(result: ExperimentResult) -> None:
    """Print the speedup and breakdown tables of one experiment result."""
    if result.reference_substituted:
        print(f"warning: reference system {result.requested_reference!r} is "
              f"not among the simulated systems; using {result.reference!r} "
              f"as the reference instead", file=sys.stderr)
    model = result.spec.workload.model
    print_report(
        result.format_speedups(title=f"End-to-end comparison on {model}"),
        result.format_breakdown(title="Time breakdown (percent of total)"))


# ----------------------------------------------------------------------
# Sub-command implementations
# ----------------------------------------------------------------------
def cmd_models(_: argparse.Namespace) -> int:
    rows = [get_model_config(name).summary() for name in list_model_configs()]
    print_report(format_table(rows, title="Table 2 model configurations"))
    return 0


def cmd_systems(_: argparse.Namespace) -> int:
    rows = [{"system": name, "description": description}
            for name, description in system_descriptions().items()]
    print_report(format_table(rows, title="Registered training systems"))
    return 0


def cmd_scenarios(args: argparse.Namespace) -> int:
    rows = [{"scenario": name, "description": description}
            for name, description in scenario_descriptions().items()]
    blocks = [format_table(rows, title="Registered routing scenarios")]
    if getattr(args, "verbose", False):
        for name in available_scenarios():
            details = registered_scenario(name).param_details()
            if details:
                blocks.append(format_table(
                    details, title=f"Parameters of scenario {name!r}"))
        for name in available_scenario_wrappers():
            details = registered_scenario_wrapper(name).param_details()
            if details:
                blocks.append(format_table(
                    details, title=f"Parameters of wrapper {name!r}"))
    print_report(*blocks)
    return 0


def _spec_or_error(args: argparse.Namespace, warmup: int,
                   systems: Optional[Sequence[str]] = None,
                   reference: str = "megatron",
                   name: str = "experiment") -> Optional[ExperimentSpec]:
    """Assemble a spec, reporting scenario/parameter problems as a CLI error."""
    try:
        spec = _experiment_spec(args, warmup=warmup, systems=systems,
                                reference=reference, name=name)
        _check_scenario_buildable(spec)
        return spec
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None


def _write_or_error(what: str, path: Union[str, Path],
                    write: Callable[[], T]) -> Optional[T]:
    """Run ``write`` and return its result (the path it wrote, say).

    An unwritable output path is an environment error: on ``OSError`` print
    ``error: cannot write <what> to <path>: <error>`` and return None, and
    the command exits 2.
    """
    try:
        return write()
    except OSError as error:
        print(f"error: cannot write {what} to {str(path)!r}: {error}",
              file=sys.stderr)
        return None


def _flag_error(flag: str, requirement: str) -> int:
    """Report an out-of-range numeric flag; returns the usage exit code 2."""
    print(f"error: {flag} must be {requirement}", file=sys.stderr)
    return 2


def _cluster_flags_ok(args: argparse.Namespace) -> bool:
    """Whether both cluster-shape flags are >= 1 (else print the error)."""
    for flag, value in (("--num-nodes", args.num_nodes),
                        ("--devices-per-node", args.devices_per_node)):
        if value < 1:
            _flag_error(flag, "at least 1")
            return False
    return True


def _check_scenario_buildable(spec: ExperimentSpec) -> None:
    """Build (but don't consume) the scenario source to validate param values.

    Spec construction rejects unknown scenario/parameter *names*; value
    errors (e.g. ``--param period=1``) only surface when the source is
    constructed, so do that eagerly -- sources are lazy, no frames are drawn.
    """
    spec.workload.make_source(spec.cluster.num_devices)


def cmd_trace_routing(args: argparse.Namespace) -> int:
    spec = _spec_or_error(args, warmup=0)
    if spec is None:
        return 2
    trace = spec.workload.make_trace(spec.cluster.num_devices)
    summary = summarize_trace(trace)
    print_report(format_table([summary.as_dict()],
                              title=f"Routing trace summary "
                                    f"({spec.workload.scenario})"))
    if args.output:
        path = _write_or_error("trace", args.output,
                               lambda: save_trace(trace, args.output))
        if path is None:
            return 2
        print(f"Trace saved to {path}")
    return 0


def cmd_trace_record(args: argparse.Namespace) -> int:
    """Re-enter ``main`` with the telemetry tracer armed around the command.

    The root span is exported to the environment before the command runs,
    so any fleet workers it spawns parent their spans into this trace and
    write their own event files next to the coordinator's.
    """
    rest = list(args.rest)
    if rest and rest[0] == "--":
        rest = rest[1:]
    if not rest:
        print("error: pass the repro command to trace, e.g. "
              "'repro trace record -- fleet run sweep-cluster-sizes ...'",
              file=sys.stderr)
        return 2
    if rest[0] == "trace":
        print("error: refusing to trace the trace command itself",
              file=sys.stderr)
        return 2
    trace_dir = Path(args.trace_dir)
    saved = {name: os.environ.get(name)
             for name in (TRACE_DIR_ENV, TRACE_ID_ENV, TRACE_PARENT_ENV)}
    tracer = trace_install(Tracer(trace_dir, scope="coordinator"))
    try:
        with trace_span(f"cli.{rest[0]}", argv=" ".join(rest)):
            trace_export_env()
            code = main(rest)
    finally:
        trace_uninstall()
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    try:
        (trace_dir / "metrics.json").write_text(
            METRICS_REGISTRY.snapshot_json(), encoding="utf-8")
    except OSError as error:
        print(f"warning: cannot write metrics snapshot: {error}",
              file=sys.stderr)
    events = read_events(trace_dir)
    spans = sum(1 for event in events if event.get("type") == "span")
    pids = {event.get("pid") for event in events}
    print(f"trace: {spans} span(s) from {len(pids)} process(es) in "
          f"{trace_dir} (trace id {tracer.trace_id})")
    print(f"view with: repro trace export --dir {trace_dir}")
    return code


def cmd_trace_export(args: argparse.Namespace) -> int:
    trace_dir = Path(args.trace_dir)
    if not trace_dir.is_dir():
        print(f"error: no trace directory at {args.trace_dir!r}",
              file=sys.stderr)
        return 2
    events = read_events(trace_dir)
    if not events:
        print(f"error: no trace events under {trace_dir}", file=sys.stderr)
        return 2
    output = Path(args.output) if args.output else trace_dir / "trace.json"
    if _write_or_error("Chrome trace", output,
                       lambda: export_chrome_trace(events, output)) is None:
        return 2
    spans = sum(1 for event in events if event.get("type") == "span")
    pids = {event.get("pid") for event in events}
    print(f"wrote {spans} Chrome trace event(s) from {len(pids)} "
          f"process(es) to {output}")
    rows = phase_breakdown(events)
    if rows:
        print_report(format_phase_breakdown(rows))
    return 0


def cmd_plan(args: argparse.Namespace) -> int:
    spec = _spec_or_error(args, warmup=0, name="plan")
    if spec is None:
        return 2
    rows = [{
        "iteration": stats.iteration,
        "laer_rel_max_tokens": round(stats.planned_rel_max_tokens, 3),
        "static_rel_max_tokens": round(stats.static_rel_max_tokens, 3),
        "laer_ms": round(stats.planned_ms, 1),
        "static_ms": round(stats.static_ms, 1),
    } for stats in run_planner_study(spec)]
    print_report(format_table(
        rows, title=f"Planner vs static EP, per iteration "
                    f"(aggregated over {spec.workload.layers} MoE layers)"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    if args.spec:
        try:
            spec = ExperimentSpec.load(args.spec)
            _check_scenario_buildable(spec)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot load spec {args.spec!r}: {error}",
                  file=sys.stderr)
            return 2
    else:
        spec = _spec_or_error(args, warmup=args.warmup, systems=args.systems,
                              reference=args.reference, name=args.name)
        if spec is None:
            return 2
    if args.dump_spec:
        return _dump_spec("spec", spec, args.dump_spec)
    result = ExperimentRunner().run(spec)
    _print_experiment(result)
    if args.output:
        path = _write_or_error("result", args.output,
                               lambda: result.save(args.output))
        if path is None:
            return 2
        print(f"Result saved to {path}")
    return 0


def _dump_spec(what: str, spec: Union[ExperimentSpec, StudySpec],
               path: str) -> int:
    """``--dump-spec PATH``: print the spec's JSON for ``-``, else save it."""
    if path == "-":
        print(spec.to_json())
        return 0
    saved = _write_or_error(what, path, lambda: spec.save(path))
    if saved is None:
        return 2
    print(f"{what.capitalize()} saved to {saved}")
    return 0


def cmd_studies(_: argparse.Namespace) -> int:
    rows = [{"study": name, "description": description}
            for name, description in study_descriptions().items()]
    print_report(format_table(rows, title="Registered study definitions"))
    return 0


def _load_study(args: argparse.Namespace) -> Optional[StudySpec]:
    """Resolve the study argument: registry name or JSON file path.

    Registered names win, so a stray file or directory in the working
    directory named like a study (e.g. a store created with
    ``--store sweep-cluster-sizes``) cannot shadow the registry.  A study
    that cannot be loaded prints ``error: cannot load study ...`` and
    returns None, and the command exits 2.
    """
    try:
        params = _scenario_params(args.param)
        if args.study.lower() not in study_descriptions() and (
                args.study.endswith(".json") or Path(args.study).is_file()):
            if params:
                raise ValueError("--param only applies to registered "
                                 "studies; edit the JSON spec instead")
            return StudySpec.load(args.study)
        return make_study(args.study, **params)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot load study {args.study!r}: {error}",
              file=sys.stderr)
        return None


def _entry_rows(entries: Sequence[IndexEntry]) -> List[Dict[str, Any]]:
    """One table row per (stored run, system) with the indexed metrics."""
    rows: List[Dict[str, Any]] = []
    for entry in entries:
        for system in entry.systems:
            metrics = entry.metrics.get(system, {})
            rows.append({
                "run_id": entry.run_id,
                "cell": entry.name,
                "scenario": entry.scenario,
                "gpus": entry.num_devices,
                "system": system,
                "tok_s": round(metrics.get("throughput", 0.0), 1),
                "speedup": round(metrics.get("speedup_vs_reference", 0.0), 3),
                "rel_max_tokens": round(
                    metrics.get("mean_relative_max_tokens", 0.0), 3),
            })
    return rows


def _print_cell_table(store: ResultStore, cells, title: str) -> None:
    """Per-cell outcome table shared by the study and fleet run commands."""
    by_run = {entry.run_id: entry for entry in store.entries()}
    rows = []
    for cell in cells:
        entry = by_run.get(cell.run_id)
        for row in _entry_rows([entry] if entry else []):
            rows.append({"cell": cell.cell_id, "status": cell.status,
                         **{k: v for k, v in row.items() if k != "cell"}})
    print_report(format_table(rows, title=title))


def cmd_study_run(args: argparse.Namespace) -> int:
    study = _load_study(args)
    if study is None:
        return 2
    if args.dump_spec:
        return _dump_spec("study spec", study, args.dump_spec)
    store = ResultStore(args.store)
    report = StudyRunner(store).run(study, tags=args.tag,
                                    resume=not args.no_resume)
    _print_cell_table(store, report.cells, f"Study {study.name!r}")
    print(report.summary())
    return 0


def _open_store(path: str) -> Optional[ResultStore]:
    """Open an existing store for the read-only commands (None + error if
    the directory does not exist, so typos don't read as empty stores)."""
    if not Path(path).is_dir():
        print(f"error: no result store at {path!r}", file=sys.stderr)
        return None
    return ResultStore(path)


def cmd_study_diff(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    try:
        diff = store.diff(args.run_a, args.run_b)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    print_report(format_run_diff(
        diff.as_rows(), title=f"{args.run_a} -> {args.run_b}"))
    if diff.systems_only_in_a:
        print(f"only in {args.run_a}: {', '.join(diff.systems_only_in_a)}")
    if diff.systems_only_in_b:
        print(f"only in {args.run_b}: {', '.join(diff.systems_only_in_b)}")
    return 0


def cmd_study_report(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    tags = [tag for tag in
            (f"study:{args.study}" if args.study else None, args.tag)
            if tag]
    entries = store.entries()
    for tag in tags:
        entries = [entry for entry in entries if tag in entry.tags]
    if not entries:
        tagged = f" tagged {' and '.join(repr(t) for t in tags)}" if tags else ""
        print(f"error: no stored runs{tagged} in {store.root}",
              file=sys.stderr)
        return 2
    sections: Dict[str, List[Dict[str, Any]]] = {}
    sizes = sorted({entry.num_devices for entry in entries})
    if len(sizes) >= 2:
        # The paper's scaling figure: mean speedup vs reference per system,
        # one row per cluster size covered by the report.
        systems = sorted({system for entry in entries
                          for system in entry.systems})
        series_rows: List[Dict[str, Any]] = []
        for size in sizes:
            row: Dict[str, Any] = {"gpus": size}
            for system in systems:
                values = [
                    entry.metrics[system]["speedup_vs_reference"]
                    for entry in entries
                    if entry.num_devices == size and system in entry.metrics
                    and "speedup_vs_reference" in entry.metrics[system]]
                row[system] = (round(sum(values) / len(values), 3)
                               if values else "")
            series_rows.append(row)
        sections["Speedup vs cluster size"] = series_rows
    scenarios = sorted({entry.scenario for entry in entries if entry.scenario})
    if len(scenarios) >= 2:
        # Scenario robustness: per-run regret vs the best system *in that
        # run* (so clusters of different sizes stay comparable), averaged
        # per scenario.  A system that wins one scenario but collapses on
        # another shows up as a wide min..max regret spread.
        regrets: Dict[str, Dict[str, List[float]]] = {}
        for entry in entries:
            if not entry.scenario:
                continue
            throughputs = {
                system: metrics["throughput"]
                for system, metrics in entry.metrics.items()
                if metrics.get("throughput")}
            if not throughputs:
                continue
            best = max(throughputs.values())
            for system, value in throughputs.items():
                regrets.setdefault(system, {}).setdefault(
                    entry.scenario, []).append(best / value - 1.0)
        robustness_rows: List[Dict[str, Any]] = []
        for system in sorted(regrets):
            by_scenario = {
                scenario: sum(values) / len(values)
                for scenario, values in regrets[system].items()}
            low = min(by_scenario.values())
            high = max(by_scenario.values())
            worst = max(by_scenario, key=lambda name: by_scenario[name])
            robustness_rows.append({
                "system": system,
                "scenarios": len(by_scenario),
                "min_regret": f"{low * 100:.1f}%",
                "max_regret": f"{high * 100:.1f}%",
                "spread": f"{(high - low) * 100:.1f}%",
                "worst_scenario": worst,
            })
        robustness_rows.sort(key=lambda row: float(row["spread"][:-1]))
        sections["Scenario robustness (regret vs per-run best)"] = (
            robustness_rows)
    if args.baseline:
        # Scope the regression scan to the runs this report covers, so one
        # study's report cannot pick up another study's baselines.
        covered = {entry.run_id for entry in entries}
        reports = [report for report in store.regressions(args.baseline)
                   if report.baseline_run in covered
                   or report.candidate_run in covered]
        regression_rows: List[Dict[str, Any]] = []
        for report in reports:
            for regressed in report.regressed_metrics:
                regression_rows.append({
                    "baseline_run": report.baseline_run,
                    "candidate_run": report.candidate_run,
                    **regressed.as_row(),
                })
        sections[f"Regressions vs {args.baseline!r}"] = (
            regression_rows or [{"status": "none detected"}])
    if getattr(args, "trace", None):
        trace_root = Path(args.trace)
        events = read_events(trace_root) if trace_root.is_dir() else []
        if not events:
            print(f"error: no trace events under {args.trace!r}",
                  file=sys.stderr)
            return 2
        sections["Phase breakdown (traced)"] = [
            {**row, "share": f"{row['share'] * 100:.1f}%"}
            for row in phase_breakdown(events)]
    title = args.study or f"runs in {store.root}"
    tagged = (" tagged " + " and ".join(f"`{t}`" for t in tags)) if tags else ""
    intro = f"{len(entries)} stored run(s){tagged}."
    text = format_study_report(title, _entry_rows(entries),
                               intro=intro, sections=sections)
    if args.output:
        if _write_or_error("report", args.output,
                           lambda: Path(args.output).write_text(text)) is None:
            return 2
        print(f"Report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_study_gate(args: argparse.Namespace) -> int:
    """The stored-baseline regression gate (exit 1 when thresholds trip)."""
    store = _open_store(args.store)
    if store is None:
        return 2
    metrics = tuple(args.metric) or ("throughput",)
    # A typo'd metric name would silently gate on nothing and pass.
    unknown = [metric for metric in metrics
               if metric not in DIFF_METRICS
               and not metric.startswith("breakdown.")]
    if unknown:
        print(f"error: unknown gate metric(s) {unknown}; known: "
              f"{list(DIFF_METRICS)} or any 'breakdown.<component>'",
              file=sys.stderr)
        return 2
    reports = store.regressions(args.baseline, metrics=metrics,
                                threshold=args.threshold)
    unscoped = len(reports)
    if args.study:
        covered = {entry.run_id
                   for entry in store.query(tag=f"study:{args.study}")}
        reports = [report for report in reports
                   if report.baseline_run in covered
                   or report.candidate_run in covered]
    if not reports:
        if unscoped:
            print(f"error: {unscoped} comparable run pair(s) exist for "
                  f"baseline tag {args.baseline!r}, but none belong to "
                  f"study {args.study!r}", file=sys.stderr)
        else:
            print(f"error: no baseline-tagged runs with re-runs to compare "
                  f"(baseline tag {args.baseline!r}) in {store.root}",
                  file=sys.stderr)
        return 2
    # 'breakdown.<component>' names are only known per run: a component
    # absent from every compared pair (a typo, or a model knob that was
    # off) would gate on nothing and vacuously pass.
    present = {delta.metric
               for report in reports
               for system in report.diff.systems
               for delta in system.metrics}
    absent = [metric for metric in metrics
              if metric.startswith("breakdown.") and metric not in present]
    if absent:
        print(f"error: gate metric(s) {absent} appear in none of the "
              f"{len(reports)} compared run pair(s); present breakdown "
              f"metrics: {sorted(m for m in present if m.startswith('breakdown.'))}",
              file=sys.stderr)
        return 2
    rows = []
    for report in reports:
        for regressed in report.regressed_metrics:
            rows.append({
                "baseline_run": report.baseline_run,
                "candidate_run": report.candidate_run,
                **regressed.as_row(),
            })
    compared = len(reports)
    if rows:
        print_report(format_run_diff(
            rows, title=f"Regressions vs {args.baseline!r} "
                        f"(threshold {args.threshold:g})"))
        print(f"gate: FAIL ({len(rows)} regressed metric(s) across "
              f"{compared} compared run pair(s))")
        return 1
    print(f"gate: OK ({compared} run pair(s) within {args.threshold:g} "
          f"on {', '.join(metrics)})")
    return 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    if args.workers < 1:
        return _flag_error("--workers", "at least 1")
    if args.lease_timeout <= 0:
        return _flag_error("--lease-timeout", "positive")
    study = _load_study(args)
    if study is None:
        return 2
    store = ResultStore(args.store)

    def progress(status) -> None:
        print(f"fleet: {status.done}/{status.total} done, "
              f"{status.leased} in flight, {status.pending} pending, "
              f"{status.failed} failed", file=sys.stderr)

    try:
        report = launch_fleet(
            study, store, workers=args.workers, tags=args.tag,
            resume=not args.no_resume, lease_timeout=args.lease_timeout,
            queue_root=args.queue,
            on_progress=None if args.quiet else progress)
    except (StudyCellError, StudyStoreError, RuntimeError) as error:
        report = getattr(error, "report", None)
        if report is not None:
            for failure in report.failures:
                print(f"failed cell {failure.cell_id!r} "
                      f"[{failure.kind}/{failure.worker or 'n/a'}]: "
                      f"{failure.error}", file=sys.stderr)
            print(report.summary(), file=sys.stderr)
        print(f"error: {error}", file=sys.stderr)
        return 1
    _print_cell_table(store, report.cells,
                      f"Fleet {study.name!r} ({len(report.workers)} workers)")
    print(report.summary())
    return 0


def _fleet_queues(args: argparse.Namespace) -> Optional[List[WorkQueue]]:
    """The queues a fleet inspection command covers (None on a bad path)."""
    if args.queue:
        root = Path(args.queue)
        if not root.is_dir():
            print(f"error: no fleet queue at {args.queue!r}", file=sys.stderr)
            return None
        return [WorkQueue(root)]
    if not args.store:
        print("error: pass --store (scan its queues) or --queue DIR",
              file=sys.stderr)
        return None
    store = _open_store(args.store)
    if store is None:
        return None
    queue_base = store.root / QUEUE_DIR_NAME
    if not queue_base.is_dir():
        return []
    return [WorkQueue(path) for path in sorted(queue_base.iterdir())
            if path.is_dir()]


def cmd_fleet_status(args: argparse.Namespace) -> int:
    queues = _fleet_queues(args)
    if queues is None:
        return 2
    rows = []
    for queue in queues:
        status = queue.status()
        rows.append({
            "queue": queue.root.name,
            "total": status.total,
            "pending": status.pending,
            "in_flight": status.leased,
            "done": status.done,
            "failed": status.failed,
            "state": ("empty" if status.total == 0
                      else "finished" if status.finished else "running"),
        })
    print_report(format_table(rows, title="Fleet queues"))
    return 0


def cmd_fleet_workers(args: argparse.Namespace) -> int:
    queues = _fleet_queues(args)
    if queues is None:
        return 2
    rows = []
    now = time.time()
    for queue in queues:
        status = queue.status()
        active = {lease.worker: lease for lease in status.leases}
        workers = sorted({*status.done_by_worker, *status.failed_by_worker,
                          *active})
        for worker in workers:
            lease = active.get(worker)
            rows.append({
                "queue": queue.root.name,
                "worker": worker,
                "done": status.done_by_worker.get(worker, 0),
                "failed": status.failed_by_worker.get(worker, 0),
                "in_flight": lease.key if lease else "",
                "heartbeat_age_s": (round(lease.age(now), 1)
                                    if lease else ""),
            })
    print_report(format_table(rows, title="Fleet workers"))
    return 0


def cmd_fleet_watch(args: argparse.Namespace) -> int:
    """Periodic fleet snapshot: queue depth, leases, completed-cell rate."""
    if args.interval < 0:
        return _flag_error("--interval", "non-negative")
    queues = _fleet_queues(args)
    if queues is None:
        return 2
    if not queues:
        print("no fleet queues to watch")
        return 0
    started = time.time()
    last_finished: Optional[int] = None
    last_time = started
    while True:
        now = time.time()
        total = pending = leased = done = failed = 0
        leases = []
        for queue in queues:
            status = queue.status()
            total += status.total
            pending += status.pending
            leased += status.leased
            done += status.done
            failed += status.failed
            leases.extend((queue.root.name, lease)
                          for lease in status.leases)
        if last_finished is None:
            rate = 0.0
        else:
            rate = (done + failed - last_finished) / max(now - last_time,
                                                         1e-9)
        last_finished, last_time = done + failed, now
        print(f"fleet watch: {done}/{total} done, {failed} failed, "
              f"{pending} pending, {leased} in flight, "
              f"{rate:.2f} cell(s)/s ({len(queues)} queue(s), "
              f"t+{now - started:.0f}s)", flush=True)
        for queue_name, lease in sorted(leases,
                                        key=lambda q: (q[0], q[1].worker)):
            print(f"  {queue_name}: {lease.worker} -> {lease.key} "
                  f"(heartbeat {lease.age(now):.1f}s ago)", flush=True)
        drained = total > 0 and pending == 0 and leased == 0
        if args.once:
            return 0
        if drained:
            print("fleet watch: all queues drained", flush=True)
            return 0
        if args.duration is not None and now - started >= args.duration:
            return 0
        time.sleep(args.interval)


# ----------------------------------------------------------------------
# Serving tier and store maintenance
# ----------------------------------------------------------------------
def cmd_serve(args: argparse.Namespace) -> int:
    """Run the serving daemon in the foreground until shutdown."""
    if args.max_workers < 1:
        return _flag_error("--max-workers", "at least 1")
    store = ResultStore(args.store,
                        auto_compact_lines=args.auto_compact_lines,
                        auto_compact_bytes=args.auto_compact_bytes)
    if args.executor == "fleet":
        queue_root = args.queue or store.root / QUEUE_DIR_NAME / "serve"
        executor = FleetQueueExecutor(store, WorkQueue(queue_root),
                                      stuck_timeout=args.stuck_timeout)
        if args.stuck_timeout is not None and not args.no_fallback:
            # Graceful degradation: when the queue has no live workers,
            # stuck submissions fall back to an in-process pool and a
            # circuit breaker short-circuits the queue until it recovers.
            executor = FallbackExecutor(
                executor, PoolExecutor(store, max_workers=args.max_workers),
                CircuitBreaker())
    else:
        executor = PoolExecutor(store, max_workers=args.max_workers)
    try:
        server = ReproServer(store, host=args.host, port=args.port,
                             unix_socket=args.unix_socket,
                             executor=executor, verbose=args.verbose)
    except OSError as error:
        print(f"error: cannot bind serve daemon: {error}", file=sys.stderr)
        return 2
    print(f"repro-serve listening on {server.url} "
          f"(store {store.root}, executor {args.executor})", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro-serve: draining...", file=sys.stderr)
    finally:
        server.close()
    print("repro-serve: drained and stopped")
    return 0


def _submit_spec_payload(args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """The ``--spec`` file (experiment or study, by shape) or flag-built spec."""
    if args.spec:
        try:
            payload = json.loads(Path(args.spec).read_text())
        except (OSError, ValueError) as error:
            print(f"error: cannot load spec {args.spec!r}: {error}",
                  file=sys.stderr)
            return None
        if not isinstance(payload, dict):
            print(f"error: {args.spec!r} is not a JSON object",
                  file=sys.stderr)
            return None
        return payload
    spec = _spec_or_error(args, warmup=args.warmup, systems=args.systems,
                          reference=args.reference, name=args.name)
    return None if spec is None else spec.to_dict()


def cmd_submit(args: argparse.Namespace) -> int:
    retry = None
    if args.retries > 0 or args.retry_deadline is not None:
        retries = args.retries if args.retries > 0 else 1_000_000
        retry = RetryPolicy(retries=retries, deadline_s=args.retry_deadline)
    client = ServeClient(args.address, client=args.client, retry=retry)
    try:
        if args.status:
            print(json.dumps(client.status(), indent=2))
            return 0
        if args.shutdown:
            reply = client.shutdown()
            print(f"daemon at {client.address}: "
                  f"{reply.get('status', reply)}")
            return 0
        payload = _submit_spec_payload(args)
        if payload is None:
            return 2
        reply = client.submit(payload, tags=args.tag, wait=not args.no_wait,
                              timeout=args.timeout)
    except ServeUnavailable as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    finally:
        client.close()
    if args.json:
        print(json.dumps(reply.raw, indent=2))
    elif reply.kind == "study":
        cache = reply.cache if isinstance(reply.cache, dict) else {}
        print(f"study {reply.raw.get('study', '?')!r}: {reply.status} "
              f"({len(reply.cells)} cells: {cache.get('hit', 0)} hit, "
              f"{cache.get('coalesced', 0)} coalesced, "
              f"{cache.get('miss', 0)} executed)")
        for cell in reply.cells:
            line = f"  {cell.get('cell_id')}: {cell.get('run_id')}"
            if cell.get("error"):
                line += f"  FAILED: {cell['error']}"
            print(line)
    else:
        print(f"{reply.status} cache={reply.cache} run={reply.run_id} "
              f"({reply.elapsed_s:.3f}s)")
        if reply.error:
            print(f"error: {reply.error}", file=sys.stderr)
        if reply.entry:
            print_report(format_table(
                _entry_rows([IndexEntry.from_dict(reply.entry)]),
                title=f"Run {reply.run_id}"))
    if reply.status == "failed":
        return 1
    return 0


def cmd_store_ls(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    entries = store.query(name=args.name, system=args.system,
                          scenario=args.scenario,
                          cluster_size=args.cluster_size, tag=args.tag)
    rows = [{
        "run_id": entry.run_id,
        "name": entry.name,
        "scenario": entry.scenario,
        "cluster": f"{entry.num_nodes}x{entry.devices_per_node}",
        "systems": "+".join(entry.systems),
        "tags": ",".join(entry.tags),
        "created": time.strftime("%Y-%m-%d %H:%M:%S",
                                 time.localtime(entry.created_at)),
    } for entry in entries]
    print_report(format_table(
        rows, title=f"Stored runs in {store.root} ({len(rows)})"))
    skipped = store.journal_skipped_lines()
    quarantined = store.quarantined()
    print(f"journal: {skipped} torn/skipped line(s); "
          f"quarantine: {len(quarantined)} run(s)"
          + (f" ({', '.join(quarantined)})" if quarantined else ""))
    if args.stats:
        # Process-wide counters from the unified metrics registry
        # (populated by the store operations this command just ran).
        value = METRICS_REGISTRY.value
        print(f"stats: index cache "
              f"{int(value('repro_store_index_cache_hits_total'))} hit(s) / "
              f"{int(value('repro_store_index_cache_misses_total'))} "
              f"miss(es); journal "
              f"{int(value('repro_store_journal_lines'))} line(s) "
              f"({int(value('repro_store_journal_torn_lines'))} torn), "
              f"{int(value('repro_store_journal_appends_total'))} append(s); "
              f"{int(value('repro_store_auto_compactions_total'))} "
              f"auto-compaction(s); "
              f"{int(value('repro_store_puts_total'))} put(s)")
    return 0


def cmd_store_compact(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    try:
        journal_bytes = store.journal_path.stat().st_size
    except OSError:
        journal_bytes = 0
    rows = store.compact_index()
    print(f"compacted {store.root}: {rows} run(s) in index.json, "
          f"journal folded ({journal_bytes} bytes -> 0)")
    return 0


def cmd_store_rebuild(args: argparse.Namespace) -> int:
    store = _open_store(args.store)
    if store is None:
        return 2
    rows = store.rebuild_index()
    print(f"rebuilt {store.root}: {rows} run(s) indexed from "
          f"{store.runs_dir}")
    quarantined = store.quarantined()
    if quarantined:
        print(f"quarantined {len(quarantined)} unreadable run file(s) "
              f"into {store.quarantine_dir}: {', '.join(quarantined)}")
    return 0


def cmd_store_prune(args: argparse.Namespace) -> int:
    if args.older_than is None and args.max_runs is None:
        print("error: pass --older-than and/or --max-runs",
              file=sys.stderr)
        return 2
    if args.older_than is not None and args.older_than < 0:
        return _flag_error("--older-than", "non-negative")
    if args.max_runs is not None and args.max_runs < 0:
        return _flag_error("--max-runs", "non-negative")
    store = _open_store(args.store)
    if store is None:
        return 2
    protect = tuple(args.protect_tag) if args.protect_tag else ("baseline",)
    if args.dry_run:
        doomed = store.prune(older_than_days=args.older_than,
                             max_runs=args.max_runs, protect_tags=protect,
                             dry_run=True)
        print(f"would delete {len(doomed)} run(s) from {store.root} "
              f"(protected tags: {', '.join(protect)})")
        for run_id in doomed:
            print(f"  {run_id}")
        return 0
    deleted = store.prune(older_than_days=args.older_than,
                          max_runs=args.max_runs, protect_tags=protect)
    print(f"pruned {len(deleted)} run(s) from {store.root}, "
          f"{len(store)} remain (protected tags: {', '.join(protect)})")
    for run_id in deleted:
        print(f"  {run_id}")
    return 0


# ----------------------------------------------------------------------
# Chaos commands
# ----------------------------------------------------------------------
def cmd_chaos_run(args: argparse.Namespace) -> int:
    from repro.chaos.plans import run_chaos
    store_root = Path(args.store) if args.store \
        else Path(".repro-chaos") / args.plan
    if store_root.exists():
        contents = list(store_root.iterdir())
        is_store = (store_root / "runs").exists() \
            or (store_root / "index.journal").exists()
        if contents and not is_store:
            print(f"error: {store_root} exists and does not look like a "
                  f"result store; refusing to wipe it", file=sys.stderr)
            return 2
        shutil.rmtree(store_root)
    report = run_chaos(args.plan, store_root, seed=args.seed,
                       quick=args.quick,
                       inject_faults=not args.no_inject, log=print)
    print(report.summary())
    if args.report:
        path = _write_or_error("chaos report", args.report,
                               lambda: report.save(args.report))
        if path is None:
            return 2
        print(f"chaos report written to {path}")
    return 0 if report.ok else 1


def cmd_chaos_plans(_: argparse.Namespace) -> int:
    rows = [{"plan": name, "description": description}
            for name, description in PLAN_DESCRIPTIONS.items()]
    print_report(format_table(rows, title="Built-in chaos plans"))
    return 0


def cmd_chaos_points(_: argparse.Namespace) -> int:
    rows = [{
        "point": point,
        "worker-reachable": "yes" if point in WORKER_CRASH_POINTS else "",
        "fires": description,
    } for point, description in sorted(FAULT_POINTS.items())]
    print_report(format_table(rows, title="Fault-injection points"))
    return 0


# ----------------------------------------------------------------------
# Calibration commands
# ----------------------------------------------------------------------
def _load_observations(path: str) -> Optional[ObservationSet]:
    try:
        return ObservationSet.load(path)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load observations from {path!r}: {error}",
              file=sys.stderr)
        return None


def cmd_calib_measure(args: argparse.Namespace) -> int:
    if not _cluster_flags_ok(args):
        return 2
    if args.noise < 0:
        return _flag_error("--noise", "non-negative")
    if args.num_nodes < 2 and args.devices_per_node < 2:
        print("error: a 1x1 cluster has no links to measure",
              file=sys.stderr)
        return 2
    config = (MeasureConfig.tiny(model=args.model) if args.tiny
              else MeasureConfig(model=args.model))
    if args.noise:
        config = dataclasses.replace(config, noise=args.noise)
    machine_seed = args.seed if args.machine_seed is None else args.machine_seed
    machine = draw_machine(machine_seed)
    topology = ClusterTopology(num_nodes=args.num_nodes,
                               devices_per_node=args.devices_per_node)
    observations = run_microbenchmarks(topology, machine,
                                       config=config, seed=args.seed)

    def save() -> Path:
        path = observations.save(args.output)
        # The hidden machine rides along so tests and CI can check recovery;
        # real measurement campaigns simply won't have this file.
        machine.save(path / "ground_truth.json")
        return path

    path = _write_or_error("observations", args.output, save)
    if path is None:
        return 2
    counts = observations.counts()
    print(f"Measured {counts['comm']} transfers, {counts['compute']} "
          f"kernels, {counts['all_to_all']} All-to-All exchanges "
          f"on a hidden {args.num_nodes}x{args.devices_per_node} machine "
          f"(machine seed {machine_seed}); observations in {path}")
    return 0


def _fit_observations(args: argparse.Namespace):
    observations = _load_observations(args.observations)
    if observations is None:
        return None
    try:
        return fit_calibration(observations, robust=args.robust)
    except ValueError as error:
        print(f"error: calibration fit failed: {error}", file=sys.stderr)
        return None


def cmd_calib_fit(args: argparse.Namespace) -> int:
    fit = _fit_observations(args)
    if fit is None:
        return 2
    print(fit_summary_line(fit))
    print(fit.profile.describe())
    if args.output:
        path = _write_or_error("profile", args.output,
                               lambda: fit.profile.save(args.output))
        if path is None:
            return 2
        print(f"Profile {fit.profile.profile_id} saved to {path}")
    if args.min_r2 is not None and not fit.r2_min >= args.min_r2:
        print(f"FIT GATE FAILED: r2_min {fit.r2_min:.4f} is not >= "
              f"{args.min_r2}",
              file=sys.stderr)
        return 1
    return 0


def cmd_calib_report(args: argparse.Namespace) -> int:
    fit = _fit_observations(args)
    if fit is None:
        return 2
    report = fit_report(fit, title=args.observations)
    if args.output:
        if _write_or_error(
                "report", args.output,
                lambda: Path(args.output).write_text(report + "\n")) is None:
            return 2
        print(f"Report written to {args.output}")
    else:
        print_report(report)
    return 0


def cmd_calib_apply(args: argparse.Namespace) -> int:
    try:
        profile = CalibrationProfile.load(args.profile)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load profile {args.profile!r}: {error}",
              file=sys.stderr)
        return 2
    try:
        spec = ExperimentSpec.load(args.spec)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot load spec {args.spec!r}: {error}",
              file=sys.stderr)
        return 2
    text = json.dumps(spec.with_calibration(profile).to_dict(), indent=2)
    if args.output:
        if _write_or_error(
                "calibrated spec", args.output,
                lambda: Path(args.output).write_text(text + "\n")) is None:
            return 2
        print(f"Calibrated spec ({profile.describe()}) "
              f"written to {args.output}")
    else:
        print(text)
    return 0


# ----------------------------------------------------------------------
# Suite commands
# ----------------------------------------------------------------------
def _load_suite(path: str) -> Optional[SuiteSpec]:
    try:
        return SuiteSpec.load(path)
    except (OSError, ValueError, KeyError, TypeError) as error:
        print(f"error: cannot load suite {path!r}: {error}", file=sys.stderr)
        return None


def cmd_suite_make(args: argparse.Namespace) -> int:
    suite = default_suite()
    if args.output:
        path = _write_or_error("suite", args.output,
                               lambda: suite.save(args.output))
        if path is None:
            return 2
        print(f"Suite {suite.suite_id} ({len(suite.members)} members) "
              f"saved to {path}")
    else:
        print(suite.to_json())
    return 0


def cmd_suite_ls(args: argparse.Namespace) -> int:
    suite = _load_suite(args.suite)
    if suite is None:
        return 2
    rows = [{
        "member": member.name,
        "scenario": member.scenario,
        "seed": member.seed,
        "skew": "" if member.skew is None else member.skew,
        "drift": "" if member.drift is None else member.drift,
        "params": json.dumps(member.params) if member.params else "",
        "description": member.description,
    } for member in suite.members]
    print_report(format_table(
        rows, title=f"Suite {suite.suite_id} ({len(rows)} members)"))
    return 0


def cmd_suite_characterize(args: argparse.Namespace) -> int:
    if not _cluster_flags_ok(args):
        return 2
    suite = _load_suite(args.suite)
    if suite is None:
        return 2
    num_devices = args.num_nodes * args.devices_per_node
    characterization = characterize_suite(suite, num_devices=num_devices)
    if args.output:
        path = _write_or_error("characterization", args.output,
                               lambda: characterization.save(args.output))
        if path is None:
            return 2
        print(f"Characterization of {suite.suite_id} "
              f"({len(characterization.profiles)} members on {num_devices} "
              f"devices) saved to {path}")
    else:
        print(format_suite_report(characterization))
    return 0


def cmd_suite_report(args: argparse.Namespace) -> int:
    if not _cluster_flags_ok(args):
        return 2
    suite = _load_suite(args.suite)
    if suite is None:
        return 2
    if args.characterization:
        try:
            characterization = SuiteCharacterization.load(args.characterization)
        except (OSError, ValueError, KeyError, TypeError) as error:
            print(f"error: cannot load characterization "
                  f"{args.characterization!r}: {error}", file=sys.stderr)
            return 2
        if characterization.suite_id != suite.suite_id:
            print(f"error: characterization {args.characterization!r} is for "
                  f"suite {characterization.suite_id}, not {suite.suite_id}",
                  file=sys.stderr)
            return 2
    else:
        characterization = characterize_suite(
            suite, num_devices=args.num_nodes * args.devices_per_node)
    text = format_suite_report(characterization)
    if args.output:
        if _write_or_error("report", args.output,
                           lambda: Path(args.output).write_text(text)) is None:
            return 2
        print(f"Report written to {args.output}")
    else:
        print(text)
    return 0


def cmd_suite_search(args: argparse.Namespace) -> int:
    if not _cluster_flags_ok(args):
        return 2
    if args.budget < 1:
        return _flag_error("--budget", "at least 1")
    suite = _load_suite(args.suite)
    if suite is None:
        return 2
    store = ResultStore(args.store)
    cluster = ClusterSpec(num_nodes=args.num_nodes,
                          devices_per_node=args.devices_per_node)
    progress = None if args.quiet else (
        lambda message: print(message, file=sys.stderr))
    result = adversarial_search(suite, args.target, store,
                                budget=args.budget, seed=args.seed,
                                cluster=cluster, progress=progress)
    print(result.summary())
    if args.graduate:
        if result.winner is None:
            print("error: search produced no winner to graduate",
                  file=sys.stderr)
            return 1
        graduated = graduate(suite, result)
        path = _write_or_error("graduated suite", args.graduate,
                               lambda: graduated.save(args.graduate))
        if path is None:
            return 2
        print(f"Graduated winner into {graduated.suite_id} "
              f"({len(graduated.members)} members) at {path}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
