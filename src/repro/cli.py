"""Command-line interface: run any paper experiment or ablation.

::

    python -m repro list
    python -m repro experiment table1
    python -m repro experiment fig3 --out fig3.txt
    python -m repro ablation kmeans_iterations
    python -m repro all --out-dir reports/
    python -m repro experiment table1 --journal run.jsonl
    python -m repro experiment table1 --profile-tasks --journal run.jsonl
    python -m repro experiment table1 --slo max_k=64,warn:max_wall_seconds=600
    python -m repro trace run.jsonl --gantt
    python -m repro trace run.jsonl --follow
    python -m repro trace run.jsonl --format chrome --out run.trace.json
    python -m repro whatif run.jsonl --set num_workers=8 --set combiner=off
    python -m repro analyze run.jsonl
    python -m repro diff baseline.jsonl run.jsonl --max-time-regression 0.1
    python -m repro dashboard runs/ --out-dir reports/
    python -m repro experiment table1 --journal run.jsonl --anomaly
    python -m repro anomalies run.jsonl --check

Every run is deterministic (the experiments carry their own seeds);
the printed report is the same paper-vs-measured text the benchmark
suite archives. Task profiling (``--profile-tasks``) and SLO rules
(``--slo``) only observe a run — results and canonical journals are
byte-identical with them on or off. ``--anomaly``
arms the in-flight detectors, which *do* journal their firings — but
from simulated quantities only, so those journals are byte-identical
across backends too, and ``repro anomalies --check`` re-derives every
firing exactly.

The component manifest (:mod:`repro.observability.components`) has two
consumers here: ``repro ablate`` runs its single-flip grid, and
``repro ablation NAME`` runs the design-choice sweeps that read their
value lists from it.

Exit codes: 0 success, 1 command failure, 2 usage, 3 SLO abort
(a ``--slo`` rule breached and the run checkpointed then stopped).
"""

from __future__ import annotations

import argparse
import os
import pathlib
import sys


from repro.core.config import CHECKPOINT_DIR_ENV, RESUME_ENV
from repro.evaluation.registry import ABLATIONS, DESCRIPTIONS, EXPERIMENTS
from repro.mapreduce.dataplane import DATA_PLANE_ENV, DATA_PLANE_KINDS
from repro.mapreduce.executors import (
    EXECUTOR_ENV,
    EXECUTOR_KINDS,
    MAX_JOB_RETRIES_ENV,
    NUM_WORKERS_ENV,
)
from repro.mapreduce.nodes import (
    HEARTBEAT_TIMEOUT_ENV,
    NODE_FAILURE_PROB_ENV,
    NODE_RECOVERY_PROB_ENV,
)
from repro.observability.anomaly import ANOMALY_ENV
from repro.observability.journal import JOURNAL_ENV
from repro.observability.profiling import PROFILE_TASKS_ENV
from repro.observability.slo import SLO_ENV

#: ``--slo`` rule breaches abort with this exit code, so operators and
#: CI can tell a clean SLO abort (resumable: the breached iteration's
#: checkpoint was written first) from a crash.
EXIT_SLO_BREACH = 3


def _emit(result, out: "str | None") -> None:
    print(result.text)
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(result.text + "\n")
        print(f"\n[written to {path}]", file=sys.stderr)


def _cmd_list(_args) -> int:
    print("experiments (python -m repro experiment <name>):")
    for name in EXPERIMENTS:
        print(f"  {name:<24}{DESCRIPTIONS[name]}")
    print()
    print("ablations (python -m repro ablation <name>):")
    for name in ABLATIONS:
        print(f"  {name:<24}{DESCRIPTIONS[name]}")
    return 0


def _cmd_experiment(args) -> int:
    result = EXPERIMENTS[args.name]()
    _emit(result, args.out)
    return 0


def _cmd_ablation(args) -> int:
    result = ABLATIONS[args.name]()
    _emit(result, args.out)
    return 0


def _cmd_all(args) -> int:
    out_dir = pathlib.Path(args.out_dir) if args.out_dir else None
    for name, fn in {**EXPERIMENTS, **ABLATIONS}.items():
        print(f"=== {name} " + "=" * max(0, 60 - len(name)))
        result = fn()
        print(result.text)
        print()
        if out_dir:
            out_dir.mkdir(parents=True, exist_ok=True)
            (out_dir / f"{name}.txt").write_text(result.text + "\n")
    return 0


def _cmd_report(args) -> int:
    from repro.evaluation.report import write_report

    path = write_report(
        args.out,
        names=args.only or None,
        progress=lambda name: print(f"running {name} ...", file=sys.stderr),
    )
    print(f"report written to {path}")
    return 0


def _cmd_dashboard(args) -> int:
    from repro.observability import RegistryError
    from repro.observability import write_report as write_dashboard

    try:
        written = write_dashboard(
            args.rundir,
            out_dir=args.out_dir,
            basename=args.basename,
            with_html=not args.no_html,
        )
    except RegistryError as exc:
        print(f"cannot build registry report: {exc}", file=sys.stderr)
        return 1
    for kind, path in sorted(written.items()):
        print(f"{kind}: {path}")
    return 0


def _load_replay(path: str):
    """Replay a journal file, or print a clear error and return None.

    Truncated final records (a run killed mid-write) are tolerated by
    the loader itself; what surfaces here is a missing/unreadable file
    or corruption elsewhere in the stream.
    """
    from repro.common.errors import JournalCorruptError
    from repro.observability import replay_journal

    try:
        return replay_journal(path)
    except (OSError, JournalCorruptError) as exc:
        print(f"cannot read journal: {exc}", file=sys.stderr)
        return None


def _write_out(text: str, out: "str | None") -> None:
    if out:
        path = pathlib.Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"\n[written to {path}]", file=sys.stderr)


def _cmd_trace(args) -> int:
    from repro.observability import render_trace

    if args.follow:
        from repro.observability.live import follow_journal

        def on_update(replay, records) -> None:
            iterations = len([s for s in replay.iterations() if s.complete])
            jobs = len(replay.successful_jobs())
            done = bool(replay.roots) and all(r.complete for r in replay.roots)
            print(
                f"[follow] {len(records)} records  iterations={iterations}  "
                f"jobs={jobs}  {'complete' if done else 'running'}",
                file=sys.stderr,
            )

        replay = follow_journal(
            args.journal_path, on_update, interval=args.interval
        )
        if replay is None:
            print(f"cannot read journal: {args.journal_path}", file=sys.stderr)
            return 1
    else:
        replay = _load_replay(args.journal_path)
        if replay is None:
            return 1
    if args.format == "chrome":
        from repro.observability import render_chrome_trace

        text = render_chrome_trace(replay)
    else:
        text = render_trace(replay, gantt=args.gantt, width=args.width)
    print(text)
    _write_out(text, args.out)
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.observability import analyze_replay, render_analysis

    replay = _load_replay(args.journal_path)
    if replay is None:
        return 1
    report = analyze_replay(replay)
    text = (
        json.dumps(report.as_dict(), indent=2)
        if args.json
        else render_analysis(report)
    )
    print(text)
    _write_out(text, args.out)
    if not report.heap_audit_consistent:
        print(
            "heap-model audit found decisions inconsistent with their "
            "recorded inputs",
            file=sys.stderr,
        )
        return 1
    if report.critical is not None and not report.critical.reconciled:
        print(
            "critical path does not reconcile with the journalled "
            "simulated makespan",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_anomalies(args) -> int:
    import json

    from repro.common.errors import JournalCorruptError
    from repro.observability import (
        AnomalyConfig,
        detect_anomalies,
        load_journal,
        recorded_anomaly_config,
        reconcile_anomalies,
        render_anomalies,
        render_reconciliation,
    )

    try:
        records = load_journal(args.journal_path)
    except (OSError, JournalCorruptError) as exc:
        print(f"cannot read journal: {exc}", file=sys.stderr)
        return 1

    if args.check:
        # Exact replay reconciliation: the journal's own recorded
        # config drives the detectors, and every live-emitted event
        # must re-derive bit-for-bit (seq, parent, attrs).
        outcome = reconcile_anomalies(records)
        if outcome.config is None:
            print(
                "journal carries no anomaly_config event; run with "
                "--anomaly to arm the detectors",
                file=sys.stderr,
            )
            return 1
        text = (
            json.dumps(outcome.as_dict(), indent=2)
            if args.json
            else render_reconciliation(outcome)
        )
        print(text)
        _write_out(text, args.out)
        return 0 if outcome.ok else 1

    # Post-hoc detection: works on any journal, detectors armed or not.
    config = recorded_anomaly_config(records) or AnomalyConfig()
    found = detect_anomalies(records, config)
    if args.json:
        text = json.dumps(
            {"config": config.as_dict(), "anomalies": found}, indent=2
        )
    else:
        text = render_anomalies(found, config)
    print(text)
    _write_out(text, args.out)
    return 0


def _cmd_whatif(args) -> int:
    import json

    from repro.observability import (
        ScenarioError,
        parse_scenario,
        render_whatif,
        whatif_replay,
    )

    try:
        scenario = parse_scenario(args.set or [])
    except ScenarioError as exc:
        print(f"bad --set: {exc}", file=sys.stderr)
        return 2
    replay = _load_replay(args.journal_path)
    if replay is None:
        return 1
    report = whatif_replay(replay, scenario)
    text = (
        json.dumps(report.as_dict(), indent=2)
        if args.json
        else render_whatif(report)
    )
    print(text)
    _write_out(text, args.out)
    return 0


def _cmd_diff(args) -> int:
    import json

    from repro.observability import DiffThresholds, diff_replays, render_diff

    baseline = _load_replay(args.baseline)
    candidate = _load_replay(args.candidate) if baseline is not None else None
    if baseline is None or candidate is None:
        return 2
    thresholds = DiffThresholds(
        max_time_regression=args.max_time_regression,
        max_counter_regression=args.max_counter_regression,
        allow_k_drift=args.allow_k_drift,
    )
    report = diff_replays(
        baseline,
        candidate,
        thresholds,
        baseline_path=args.baseline,
        candidate_path=args.candidate,
    )
    text = (
        json.dumps(report.as_dict(), indent=2)
        if args.json
        else render_diff(report)
    )
    print(text)
    _write_out(text, args.out)
    return 0 if report.ok else 1


def _cmd_ablate(args) -> int:
    import json

    from repro.observability.ablate import (
        AblationError,
        WorkloadSpec,
        load_importance,
        render_importance,
        run_ablation,
        verify_importance,
        write_importance,
    )
    from repro.observability.components import ComponentError, MANIFEST

    if args.list_components:
        for comp in MANIFEST:
            flips = ", ".join(comp.label(v) for v in comp.flips)
            kind = "engine" if comp.engine else "evaluation-only"
            print(
                f"{comp.name:<22}{comp.layer:<16}{kind:<17}"
                f"baseline={comp.label(comp.baseline)!s:<18}flips: {flips}"
            )
        return 0

    report_path = os.path.join(args.out_dir, f"{args.basename}.json")
    if args.check:
        try:
            report = load_importance(report_path)
        except (OSError, AblationError, ValueError) as exc:
            print(f"cannot load importance report: {exc}", file=sys.stderr)
            return 2
        problems = verify_importance(report)
        if problems:
            for problem in problems:
                print(f"FAIL {problem}")
            return 1
        print(
            f"{report_path}: every delta reconciles exactly with its "
            f"journal ({len(report['variants'])} variants)"
        )
        return 0

    spec = WorkloadSpec(n_points=args.points, data_seed=args.seed, seed=args.seed)
    journal_dir = args.journal_dir or os.path.join(args.out_dir, "ablate")
    try:
        report = run_ablation(
            spec, journal_dir=journal_dir, components=args.components or None
        )
    except ComponentError as exc:
        print(f"bad --components: {exc.args[0]}", file=sys.stderr)
        return 2
    written = write_importance(report, out_dir=args.out_dir, basename=args.basename)
    text = (
        json.dumps(report.as_dict(), indent=2, sort_keys=True)
        if args.json
        else render_importance(report)
    )
    print(text)
    for kind, path in sorted(written.items()):
        print(f"{kind}: {path}", file=sys.stderr)
    if args.bench_json:
        from repro.evaluation.benchjson import merge_bench_json

        merge_bench_json(
            args.bench_json,
            "ablation_importance",
            workload=report.spec.as_dict(),
            metrics={
                "baseline_simulated_seconds": report.baseline.makespan,
                "variants": len(report.variants),
                "delta_makespan_seconds": {
                    f"{v.component}={v.label}": v.delta_makespan
                    for v in report.variants
                },
                "reconciled": report.ok,
            },
        )
        print(f"bench json: {args.bench_json}", file=sys.stderr)
    return 0 if report.ok else 1


def _global_options() -> argparse.ArgumentParser:
    """The run-wide flags, accepted before *or* after the subcommand.

    (``--resume`` without a value must go after the subcommand, or use
    ``--resume=latest`` — a bare ``--resume`` in front would swallow the
    command name.) Defaults are suppressed so a flag given in front of
    the subcommand is not clobbered by the subparser's defaults.
    """
    parent = argparse.ArgumentParser(
        add_help=False, argument_default=argparse.SUPPRESS
    )
    parent.add_argument(
        "--executor",
        choices=EXECUTOR_KINDS,
        help="task-execution backend for every runtime in the run "
        "(default: $REPRO_EXECUTOR or serial); never changes results, "
        "only wall-clock time",
    )
    parent.add_argument(
        "--num-workers",
        type=int,
        metavar="N",
        help="worker count for the processes backend "
        "(default: $REPRO_NUM_WORKERS or one per CPU)",
    )
    parent.add_argument(
        "--data-plane",
        choices=DATA_PLANE_KINDS,
        help="how numpy splits reach tasks: pickled copies or zero-copy "
        "shared-memory segments (default: $REPRO_DATA_PLANE or pickled); "
        "never changes results, only wall-clock time",
    )
    parent.add_argument(
        "--checkpoint-dir",
        metavar="DIR",
        help="DFS directory where G-means drivers checkpoint after every "
        "iteration (default: $REPRO_CHECKPOINT_DIR or off)",
    )
    parent.add_argument(
        "--resume",
        nargs="?",
        const="latest",
        metavar="CHECKPOINT",
        help="resume G-means runs from a checkpoint file, or from the "
        "newest one when no value is given (default: $REPRO_RESUME)",
    )
    parent.add_argument(
        "--max-job-retries",
        type=int,
        metavar="N",
        help="re-submit a permanently failed job up to N times with "
        "exponential backoff (default: $REPRO_MAX_JOB_RETRIES or 0)",
    )
    parent.add_argument(
        "--node-failure-prob",
        type=float,
        metavar="P",
        help="per-job-attempt probability that each serving node dies "
        "(correlated replica loss, heartbeat detection, task "
        "re-scheduling onto survivors; default: $REPRO_NODE_FAILURE_PROB "
        "or off); never changes results, only capacity and time",
    )
    parent.add_argument(
        "--node-recovery-prob",
        type=float,
        metavar="P",
        help="per-job-attempt probability that each dead node rejoins "
        "empty (default: $REPRO_NODE_RECOVERY_PROB or 0)",
    )
    parent.add_argument(
        "--heartbeat-timeout",
        type=float,
        metavar="SECONDS",
        help="simulated seconds before a dead node's tasks are declared "
        "lost and re-scheduled (default: $REPRO_HEARTBEAT_TIMEOUT or 30)",
    )
    parent.add_argument(
        "--journal",
        metavar="PATH",
        help="append a structured JSON-lines run journal to PATH "
        "(spans, per-task timings, fault events; default: $REPRO_JOURNAL "
        "or off); inspect it with 'repro trace PATH'",
    )
    parent.add_argument(
        "--profile-tasks",
        action="store_true",
        help="measure real CPU time and tracemalloc peak per map/reduce "
        "task and stamp them onto journal task records (see "
        "'repro analyze'; default: $REPRO_PROFILE_TASKS or off)",
    )
    parent.add_argument(
        "--slo",
        metavar="RULES",
        help="comma-separated SLO rules evaluated live, e.g. "
        "'max_k=64,warn:max_wall_seconds=600'; rules: max_wall_seconds, "
        "max_simulated_seconds, max_k, max_heap_fraction, "
        "max_job_retries, on_anomaly=TYPE (breach on the first firing "
        "of that --anomaly detector). Default action aborts cleanly "
        f"after the iteration checkpoint with exit code {EXIT_SLO_BREACH}; "
        "the 'warn:' prefix only warns (default: $REPRO_SLO or none)",
    )
    parent.add_argument(
        "--anomaly",
        nargs="?",
        const="1",
        metavar="SPEC",
        help="arm the in-flight anomaly detectors (straggler_onset, "
        "skew_drift, heap_breach_predicted, cost_model_drift, "
        "fault_storm); bare flag uses default thresholds, or give a "
        "comma-separated knob spec like "
        "'straggler_ratio=2,storm_events=4'. Firings are journalled as "
        "typed 'anomaly' events derived from simulated quantities only "
        "(verify with 'repro anomalies JOURNAL --check'; a bare "
        "--anomaly must go after the subcommand, like --resume; "
        "default: $REPRO_ANOMALY or off)",
    )
    return parent


def build_parser() -> argparse.ArgumentParser:
    options = _global_options()
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Determining the k in k-means with MapReduce'"
        " (EDBT 2014): run any table/figure experiment or ablation.",
        parents=[options],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list",
        help="list available experiments and ablations",
        parents=[options],
    )

    p_exp = sub.add_parser(
        "experiment", help="run one paper table/figure", parents=[options]
    )
    p_exp.add_argument("name", choices=sorted(EXPERIMENTS))
    p_exp.add_argument("--out", help="also write the report to this file")

    p_abl = sub.add_parser(
        "ablation", help="run one design-choice ablation", parents=[options]
    )
    p_abl.add_argument("name", choices=sorted(ABLATIONS))
    p_abl.add_argument("--out", help="also write the report to this file")

    p_all = sub.add_parser(
        "all", help="run everything (several minutes)", parents=[options]
    )
    p_all.add_argument("--out-dir", help="directory for per-report files")

    p_report = sub.add_parser(
        "report",
        help="run experiments and write one markdown report",
        parents=[options],
    )
    p_report.add_argument(
        "--out", default="report.md", help="output markdown path"
    )
    p_report.add_argument(
        "--only",
        nargs="*",
        help="restrict to these experiment/ablation names",
    )

    p_dashboard = sub.add_parser(
        "dashboard",
        help="render the cross-run registry dashboard of a directory of "
        "journals",
        parents=[options],
    )
    p_dashboard.add_argument(
        "rundir", metavar="RUNDIR", help="directory of *.jsonl journals"
    )
    p_dashboard.add_argument(
        "--out-dir",
        default="reports",
        metavar="DIR",
        help="directory for the dashboard artifacts (default: reports)",
    )
    p_dashboard.add_argument(
        "--basename",
        default="dashboard",
        metavar="NAME",
        help="artifact basename (default: dashboard)",
    )
    p_dashboard.add_argument(
        "--no-html",
        action="store_true",
        default=False,
        help="skip the HTML rendering of the dashboard",
    )

    p_trace = sub.add_parser(
        "trace",
        help="render a recorded run journal (timeline, counters, gantts)",
        parents=[options],
    )
    p_trace.add_argument("journal_path", metavar="JOURNAL")
    p_trace.add_argument(
        "--gantt",
        action="store_true",
        default=False,
        help="also render per-job Gantt charts from the recorded tasks",
    )
    p_trace.add_argument(
        "--width",
        type=int,
        default=64,
        metavar="COLS",
        help="Gantt chart width in characters (default: 64)",
    )
    p_trace.add_argument(
        "--follow",
        action="store_true",
        default=False,
        help="tail a growing journal, re-rendering as records land; "
        "returns when the recorded run completes",
    )
    p_trace.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="poll interval for --follow (default: 1.0)",
    )
    p_trace.add_argument(
        "--format",
        choices=("text", "chrome"),
        default="text",
        help="output format: human-readable text (default) or Chrome "
        "trace-event JSON loadable in Perfetto / about:tracing",
    )
    p_trace.add_argument("--out", help="also write the report to this file")

    p_whatif = sub.add_parser(
        "whatif",
        help="predict a recorded run's makespan under a modified cluster "
        "config by re-scheduling its per-task durations",
        parents=[options],
    )
    p_whatif.add_argument("journal_path", metavar="JOURNAL")
    p_whatif.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="scenario knob, repeatable: nodes, num_workers, map_slots, "
        "reduce_slots, combiner (on/off), scheduler "
        "(recorded/lpt) — e.g. --set num_workers=8 --set combiner=off",
    )
    p_whatif.add_argument(
        "--json",
        action="store_true",
        default=False,
        help="emit the machine-readable prediction instead of text",
    )
    p_whatif.add_argument("--out", help="also write the report to this file")

    p_analyze = sub.add_parser(
        "analyze",
        help="profile a recorded journal: task skew/stragglers, "
        "heap-model audit, cost-model residuals",
        parents=[options],
    )
    p_analyze.add_argument("journal_path", metavar="JOURNAL")
    p_analyze.add_argument(
        "--json",
        action="store_true",
        default=False,
        help="emit the machine-readable report instead of text",
    )
    p_analyze.add_argument("--out", help="also write the report to this file")

    p_anomalies = sub.add_parser(
        "anomalies",
        help="re-run the anomaly detectors over a recorded journal; "
        "--check demands the live-emitted events re-derive exactly "
        "(exit 1 on any mismatch)",
        parents=[options],
    )
    p_anomalies.add_argument("journal_path", metavar="JOURNAL")
    p_anomalies.add_argument(
        "--check",
        action="store_true",
        default=False,
        help="reconcile against the journal's own anomaly events: every "
        "recorded firing must re-derive with identical sequence, parent "
        "and attributes (exit 1 on mismatch or when detectors were off)",
    )
    p_anomalies.add_argument(
        "--json",
        action="store_true",
        default=False,
        help="emit the machine-readable report instead of text",
    )
    p_anomalies.add_argument("--out", help="also write the report to this file")

    p_diff = sub.add_parser(
        "diff",
        help="compare two journals and fail on perf/result regressions "
        "(exit 1 when thresholds are exceeded)",
        parents=[options],
    )
    p_diff.add_argument("baseline", metavar="BASELINE")
    p_diff.add_argument("candidate", metavar="CANDIDATE")
    p_diff.add_argument(
        "--max-time-regression",
        type=float,
        default=0.10,
        metavar="FRAC",
        help="allowed fractional growth of simulated time (default: 0.10)",
    )
    p_diff.add_argument(
        "--max-counter-regression",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="allowed fractional growth of watched counters (default: 0.25)",
    )
    p_diff.add_argument(
        "--allow-k-drift",
        action="store_true",
        default=False,
        help="do not treat a diverging k-trajectory as a regression",
    )
    p_diff.add_argument(
        "--json",
        action="store_true",
        default=False,
        help="emit the machine-readable diff instead of text",
    )
    p_diff.add_argument("--out", help="also write the report to this file")

    p_ablate = sub.add_parser(
        "ablate",
        help="run every single-flip component variant through the "
        "deterministic harness and score per-component importance "
        "from the journals",
        parents=[options],
    )
    p_ablate.add_argument(
        "--points",
        type=int,
        default=3000,
        help="workload size in points (default: 3000)",
    )
    p_ablate.add_argument(
        "--seed", type=int, default=11, help="workload seed (default: 11)"
    )
    p_ablate.add_argument(
        "--components",
        action="append",
        metavar="NAME",
        help="ablate only this engine component, repeatable "
        "(default: all; see --list-components)",
    )
    p_ablate.add_argument(
        "--out-dir",
        default="reports",
        help="where the importance report lands (default: reports)",
    )
    p_ablate.add_argument(
        "--basename",
        default="ablation",
        help="report file stem (default: ablation)",
    )
    p_ablate.add_argument(
        "--journal-dir",
        help="where per-run journals land (default: <out-dir>/ablate)",
    )
    p_ablate.add_argument(
        "--check",
        action="store_true",
        default=False,
        help="verify the committed report reconciles exactly with its "
        "journals instead of re-running the grid (exit 1 on drift)",
    )
    p_ablate.add_argument(
        "--list-components",
        action="store_true",
        default=False,
        help="print the declarative component manifest and exit",
    )
    p_ablate.add_argument(
        "--json",
        action="store_true",
        default=False,
        help="emit the machine-readable report instead of markdown",
    )
    p_ablate.add_argument(
        "--bench-json",
        metavar="PATH",
        help="merge the importance summary into this BENCH_*.json",
    )

    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    # Experiments build their runtimes deep inside registry functions;
    # the env vars are how these run-wide choices reach all of them.
    # (Suppressed defaults: a flag is absent unless given somewhere.)
    env_bindings = (
        ("executor", EXECUTOR_ENV),
        ("num_workers", NUM_WORKERS_ENV),
        ("data_plane", DATA_PLANE_ENV),
        ("checkpoint_dir", CHECKPOINT_DIR_ENV),
        ("resume", RESUME_ENV),
        ("max_job_retries", MAX_JOB_RETRIES_ENV),
        ("node_failure_prob", NODE_FAILURE_PROB_ENV),
        ("node_recovery_prob", NODE_RECOVERY_PROB_ENV),
        ("heartbeat_timeout", HEARTBEAT_TIMEOUT_ENV),
        ("journal", JOURNAL_ENV),
        ("profile_tasks", PROFILE_TASKS_ENV),
        ("slo", SLO_ENV),
        ("anomaly", ANOMALY_ENV),
    )
    for attr, env_name in env_bindings:
        value = getattr(args, attr, None)
        if value is not None and value is not False:
            os.environ[env_name] = str(value)
    handlers = {
        "list": _cmd_list,
        "experiment": _cmd_experiment,
        "ablation": _cmd_ablation,
        "all": _cmd_all,
        "report": _cmd_report,
        "dashboard": _cmd_dashboard,
        "trace": _cmd_trace,
        "whatif": _cmd_whatif,
        "analyze": _cmd_analyze,
        "anomalies": _cmd_anomalies,
        "diff": _cmd_diff,
        "ablate": _cmd_ablate,
    }
    from repro.common.errors import SLOViolationError

    try:
        return handlers[args.command](args)
    except SLOViolationError as exc:
        print(f"[repro] {exc}", file=sys.stderr)
        return EXIT_SLO_BREACH


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
