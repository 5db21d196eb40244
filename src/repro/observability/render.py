"""Render a replayed journal for terminal consumption.

Three views, matching what the paper's evaluation section reasons
about: the run timeline (where the chain spent its simulated time,
with every retry, fault and checkpoint inline), the per-iteration
counter table (the per-round breakdown Tables 1–4 are built from), and
per-job Gantt charts (reusing :mod:`repro.mapreduce.trace` over the
recorded task times).
"""

from __future__ import annotations

from repro.mapreduce.counters import (
    FRAMEWORK_GROUP,
    MRCounter,
    USER_GROUP,
    UserCounter,
)
from repro.mapreduce.trace import build_schedule, render_gantt
from repro.observability.replay import RunReplay, SpanNode


def _fmt_seconds(value) -> str:
    return f"{float(value):.2f}s" if value is not None else "?"


def _job_line(job: SpanNode) -> str:
    status = job.get("status", "incomplete")
    parts = [f"job {job.name!r} attempt {job.get('attempt', '?')}: {status}"]
    if status == "ok":
        parts.append(_fmt_seconds(job.get("simulated_seconds")))
        timing = job.get("timing") or {}
        if timing:
            parts.append(
                "(map {map}, shuffle {shuffle}, reduce {reduce})".format(
                    map=_fmt_seconds(timing.get("map_seconds")),
                    shuffle=_fmt_seconds(timing.get("shuffle_seconds")),
                    reduce=_fmt_seconds(timing.get("reduce_seconds")),
                )
            )
        retries = job.get("retries", 0)
        if retries:
            parts.append(f"[survived {retries} retries]")
    elif job.get("error"):
        parts.append(f"({job.get('error')})")
    return " ".join(parts)


def render_timeline(replay: RunReplay) -> str:
    """Indented run → iteration → job timeline with inline events."""
    lines: list[str] = []

    def emit(node: SpanNode, depth: int) -> None:
        pad = "  " * depth
        if node.kind == "job":
            lines.append(pad + _job_line(node))
        elif node.kind == "phase":
            return  # phases are summarised on the job line
        else:
            label = f"{node.kind} {node.name!r}"
            seconds = node.get("simulated_seconds")
            if seconds is not None:
                label += f": {_fmt_seconds(seconds)}"
            if node.get("degraded"):
                label += " [degraded]"
            if not node.complete:
                label += " [interrupted]"
            lines.append(pad + label)
        for event in node.events:
            detail = " ".join(
                f"{key}={value}" for key, value in sorted(event.attrs.items())
                if key != "counters"
            )
            lines.append(f"{pad}  ! {event.name} {detail}".rstrip())
        for child in node.children:
            emit(child, depth + 1)

    for root in replay.roots:
        emit(root, 0)
    orphans = [event for event in replay.events if event.parent is None]
    for event in orphans:
        lines.append(f"! {event.name}")
    return "\n".join(lines) if lines else "(empty journal)"


#: Columns of the per-iteration counter table: header, (group, name).
_ITERATION_COUNTERS = (
    ("reads", (FRAMEWORK_GROUP, MRCounter.DATASET_READS)),
    ("cached", (FRAMEWORK_GROUP, MRCounter.CACHED_READS)),
    ("shuffle_B", (FRAMEWORK_GROUP, MRCounter.SHUFFLE_BYTES)),
    ("ad_tests", (USER_GROUP, UserCounter.AD_TESTS)),
    ("dist_comp", (USER_GROUP, UserCounter.DISTANCE_COMPUTATIONS)),
    ("retries", (FRAMEWORK_GROUP, MRCounter.JOB_RETRIES)),
    ("task_fail", (FRAMEWORK_GROUP, "TASK_FAILURES")),
    ("repl_reads", (FRAMEWORK_GROUP, MRCounter.REPLICA_READS)),
    ("blocks_lost", (FRAMEWORK_GROUP, MRCounter.BLOCKS_LOST)),
)


def render_iteration_table(replay: RunReplay) -> str:
    """One row per iteration: k trajectory, time, counter deltas."""
    iterations = replay.iterations()
    if not iterations:
        return "(no iterations recorded)"
    headers = ["iter", "k", "jobs", "seconds"] + [
        header for header, _key in _ITERATION_COUNTERS
    ] + ["degraded"]
    rows = []
    for span in iterations:
        counters = span.counters()
        k_before, k_after = span.get("k_before"), span.get("k_after")
        k_cell = f"{k_before}->{k_after}" if k_before is not None else "-"
        row = [
            str(span.get("iteration", span.name)),
            k_cell,
            str(len([j for j in span.find("job") if j.get("status") == "ok"])),
            f"{float(span.get('simulated_seconds') or 0.0):.2f}",
        ]
        for _header, (group, name) in _ITERATION_COUNTERS:
            row.append(str(counters.get(group, name)))
        row.append("yes" if span.get("degraded") else "")
        rows.append(row)
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in rows))
        for i in range(len(headers))
    ]
    def fmt(cells):
        return "  ".join(cell.rjust(width) for cell, width in zip(cells, widths))
    return "\n".join([fmt(headers)] + [fmt(row) for row in rows])


def render_job_gantts(replay: RunReplay, width: int = 64) -> str:
    """Per-job Gantt charts rebuilt from the recorded task times."""
    sections = []
    for job in replay.jobs():
        parts = [_job_line(job)]
        for phase in job.children:
            if phase.kind != "phase" or not phase.tasks:
                continue
            seconds = [0.0] * len(phase.tasks)
            for task in phase.tasks:
                seconds[task.index] = task.sim_seconds
            slots = int(phase.get("slots") or 1)
            parts.append(
                render_gantt(
                    build_schedule(seconds, slots),
                    width=width,
                    title=f"{phase.name} phase "
                    f"({len(seconds)} tasks over {slots} slots)",
                )
            )
        sections.append("\n".join(parts))
    return "\n\n".join(sections) if sections else "(no jobs recorded)"


def render_trace(
    replay: RunReplay,
    gantt: bool = False,
    width: int = 64,
) -> str:
    """The full ``repro trace`` report (timeline + table + options)."""
    sections = [
        "== run timeline " + "=" * 48,
        render_timeline(replay),
        "",
        "== per-iteration counters " + "=" * 38,
        render_iteration_table(replay),
    ]
    if gantt:
        sections += ["", "== job gantts " + "=" * 50, render_job_gantts(replay, width)]
    return "\n".join(sections)
