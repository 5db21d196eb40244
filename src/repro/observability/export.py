"""Chrome trace-event export of a replayed journal.

``repro trace --format chrome`` turns a journal into the JSON Object
Format of the Trace Event specification, loadable in Perfetto
(https://ui.perfetto.dev) or ``about:tracing``:

* spans become duration (``"ph": "X"``) events — the run, every
  iteration, every job attempt (failed attempts render with zero
  duration at the point their retry was charged) and every phase, each
  on its own track;
* per-task placements (rebuilt with the shared LPT hook) become
  duration events on one track per slot, so stragglers are visible as
  the longest bar in the wave;
* faults, retries, node lifecycle, checkpoints and SLO aborts become
  instant (``"ph": "i"``) events at the simulated time of the segment
  that charged them;
* per-iteration ``k`` and the cumulative simulated makespan become
  counter (``"ph": "C"``) tracks.

The timeline is *simulated* time: segments are placed where the
critical-path extractor puts them
(:func:`repro.observability.critical.critical_path`), so the last
event ends exactly at the journalled makespan. Timestamps are
microseconds (the unit the spec mandates); only canonical journal
fields are read, so the export is deterministic across backends.
"""

from __future__ import annotations

import json

from repro.mapreduce.costmodel import lpt_schedule
from repro.observability.critical import CriticalPath, critical_path
from repro.observability.replay import RunReplay, SpanNode

#: Synthetic process id — a journal records one driver process.
PID = 1

#: Track (thread) ids, top to bottom in the viewer.
TID_RUN = 0
TID_ITERATION = 1
TID_JOB = 2
TID_PHASE = 3
#: Per-slot task tracks start here: tid = TID_SLOT_BASE + slot.
TID_SLOT_BASE = 10

_TRACK_NAMES = {
    TID_RUN: "run",
    TID_ITERATION: "iterations",
    TID_JOB: "job attempts",
    TID_PHASE: "phases",
}


def _us(seconds: float) -> float:
    return seconds * 1e6


def _metadata(tid: int, name: str) -> dict:
    return {
        "ph": "M",
        "name": "thread_name",
        "pid": PID,
        "tid": tid,
        "args": {"name": name},
    }


def _duration(name: str, tid: int, start: float, dur: float, args: dict) -> dict:
    return {
        "ph": "X",
        "name": name,
        "cat": "sim",
        "pid": PID,
        "tid": tid,
        "ts": _us(start),
        "dur": _us(max(0.0, dur)),
        "args": args,
    }


def _instant(name: str, tid: int, start: float, args: dict) -> dict:
    return {
        "ph": "i",
        "name": name,
        "cat": "event",
        "pid": PID,
        "tid": tid,
        "ts": _us(start),
        "s": "t",
        "args": args,
    }


def _counter(name: str, start: float, values: dict) -> dict:
    return {
        "ph": "C",
        "name": name,
        "pid": PID,
        "tid": 0,
        "ts": _us(start),
        "args": values,
    }


def _phase_events(
    job_span: SpanNode, start: float, end: float
) -> "tuple[list[dict], set[int]]":
    """Phase + per-slot task events of one on-path job attempt."""
    timing = job_span.get("timing") or {}
    events: list[dict] = []
    slots_used: set[int] = set()
    cursor = start
    segments = [
        ("startup", float(timing.get("startup_seconds") or 0.0), None),
        ("map", float(timing.get("map_seconds") or 0.0), "map"),
        ("shuffle", float(timing.get("shuffle_seconds") or 0.0), None),
        ("reduce", float(timing.get("reduce_seconds") or 0.0), "reduce"),
    ]
    phase_spans = {
        child.name: child for child in job_span.children if child.kind == "phase"
    }
    for label, seconds, phase_name in segments:
        if seconds <= 0:
            continue
        events.append(
            _duration(
                f"{job_span.name}:{label}",
                TID_PHASE,
                cursor,
                seconds,
                {"job": job_span.name, "phase": label, "seconds": seconds},
            )
        )
        phase = phase_spans.get(phase_name) if phase_name else None
        if phase is not None and phase.tasks:
            sims = [task.sim_seconds for task in phase.tasks]
            slots = int(phase.get("slots") or 1)
            # Rebuild the wave with the shared LPT hook; when a smarter
            # scheduler beat plain LPT, stretch placements to fill the
            # recorded phase window so tasks never overhang it.
            placement = lpt_schedule(sims, slots)
            span_end = max(end_ for _, _, _, end_ in placement)
            scale = seconds / span_end if span_end > 0 else 0.0
            for index, slot, t_start, t_end in placement:
                slots_used.add(slot)
                task = phase.tasks[index]
                events.append(
                    _duration(
                        f"{phase_name}[{task.index}]",
                        TID_SLOT_BASE + slot,
                        cursor + t_start * scale,
                        (t_end - t_start) * scale,
                        {
                            "task_id": task.task_id,
                            "sim_seconds": task.sim_seconds,
                            "slot": slot,
                        },
                    )
                )
        cursor += seconds
    overhead = end - cursor
    if overhead > 1e-12:
        events.append(
            _duration(
                f"{job_span.name}:overhead",
                TID_PHASE,
                cursor,
                overhead,
                {"job": job_span.name, "phase": "overhead", "seconds": overhead},
            )
        )
    return events, slots_used


def chrome_trace(replay: RunReplay, path: "CriticalPath | None" = None) -> dict:
    """Build the Trace Event JSON object for ``replay``.

    ``path`` lets callers reuse an already-extracted critical path; by
    default one is computed (it provides the simulated placement of
    every on-path segment).
    """
    if path is None:
        path = critical_path(replay)
    events: list[dict] = []
    slots_used: set[int] = set()
    placed: dict[int, tuple[float, float]] = {}

    for restore in path.restores:
        events.append(
            _duration(
                f"checkpoint restore ({restore.name})",
                TID_JOB,
                restore.start,
                restore.seconds,
                {
                    "iteration": restore.iteration,
                    "jobs": restore.jobs,
                    "seconds": restore.seconds,
                },
            )
        )

    iteration_windows: dict[int, list[float]] = {}
    for on_path in path.jobs:
        span = replay.spans.get(on_path.span)
        if span is None:
            continue
        placed[span.id] = (on_path.start, on_path.end)
        events.append(
            _duration(
                span.name,
                TID_JOB,
                on_path.start,
                on_path.sim_seconds,
                {
                    "attempt": on_path.attempt,
                    "sim_seconds": on_path.sim_seconds,
                    "overhead_seconds": on_path.overhead_seconds,
                    "blame": on_path.blame,
                },
            )
        )
        phase_events, used = _phase_events(span, on_path.start, on_path.end)
        events.extend(phase_events)
        slots_used |= used
        parent = span.parent
        if parent is not None and parent.kind == "iteration":
            window = iteration_windows.setdefault(
                parent.id, [on_path.start, on_path.end]
            )
            window[0] = min(window[0], on_path.start)
            window[1] = max(window[1], on_path.end)

    # Failed/abandoned attempts: zero-duration bars where the winning
    # sibling started (their backoff is charged there).
    for attempt in path.off_path:
        span = replay.spans.get(attempt.span)
        if span is None:
            continue
        anchor = 0.0
        parent = span.parent
        if parent is not None and parent.id in iteration_windows:
            anchor = iteration_windows[parent.id][0]
        placed[span.id] = (anchor, anchor)
        events.append(
            _duration(
                f"{attempt.job} (failed attempt {attempt.attempt})",
                TID_JOB,
                anchor,
                0.0,
                {"status": attempt.status, "attempt": attempt.attempt},
            )
        )

    for iteration in replay.iterations():
        window = iteration_windows.get(iteration.id)
        if window is None:
            continue
        placed[iteration.id] = (window[0], window[1])
        events.append(
            _duration(
                iteration.name,
                TID_ITERATION,
                window[0],
                window[1] - window[0],
                {
                    "k_before": iteration.get("k_before"),
                    "k_after": iteration.get("k_after"),
                    "strategy": iteration.get("strategy"),
                    "degraded": iteration.get("degraded"),
                },
            )
        )
        k_after = iteration.get("k_after")
        if k_after is not None:
            events.append(_counter("k", window[1], {"k": k_after}))

    cumulative = 0.0
    for on_path in path.jobs:
        cumulative = on_path.end
        events.append(
            _counter(
                "simulated makespan (s)",
                cumulative,
                {"seconds": cumulative},
            )
        )

    for run in replay.runs():
        status = run.get("status")
        events.append(
            _duration(
                run.name,
                TID_RUN,
                0.0,
                path.total_seconds,
                {
                    "status": status,
                    "k": run.get("k"),
                    "simulated_seconds": run.get("simulated_seconds"),
                    "backend": run.get("backend"),
                },
            )
        )
        if status == "error":
            events.append(
                _instant(
                    f"aborted: {run.get('error')}",
                    TID_RUN,
                    path.total_seconds,
                    {"error": run.get("error"), "message": run.get("message")},
                )
            )
        placed.setdefault(run.id, (0.0, path.total_seconds))

    for event in replay.events:
        if event.name == "checkpoint_restore":
            continue  # already a duration bar at the head of the path
        anchor, tid = 0.0, TID_RUN
        parent = replay.spans.get(event.parent) if event.parent else None
        while parent is not None and parent.id not in placed:
            parent = parent.parent
        if parent is not None:
            anchor = placed[parent.id][0]
            tid = {
                "run": TID_RUN,
                "iteration": TID_ITERATION,
                "job": TID_JOB,
                "phase": TID_PHASE,
            }.get(parent.kind, TID_RUN)
        events.append(_instant(event.name, tid, anchor, dict(event.attrs)))

    metadata = [_metadata(tid, name) for tid, name in _TRACK_NAMES.items()]
    metadata.extend(
        _metadata(TID_SLOT_BASE + slot, f"slot {slot}")
        for slot in sorted(slots_used)
    )
    metadata.append(
        {
            "ph": "M",
            "name": "process_name",
            "pid": PID,
            "tid": 0,
            "args": {"name": "repro simulated run"},
        }
    )
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def render_chrome_trace(replay: RunReplay) -> str:
    """Serialize :func:`chrome_trace` to a JSON string."""
    return json.dumps(chrome_trace(replay), indent=None, sort_keys=False)


#: Phases of the Trace Event spec this exporter emits.
_VALID_PHASES = {"X", "i", "C", "M"}


def validate_trace(trace: dict) -> "list[str]":
    """Schema check for the emitted trace; returns a list of problems.

    An empty list means the trace satisfies the invariants the Trace
    Event JSON Object Format requires (and Perfetto relies on): a
    ``traceEvents`` array whose entries all carry ``ph``/``name``/
    ``pid``/``tid``, numeric non-negative ``ts`` where required,
    ``dur`` on duration events, ``s`` on instants and ``args`` dicts
    on counters/metadata.
    """
    problems: list[str] = []
    if not isinstance(trace, dict):
        return ["trace is not a JSON object"]
    trace_events = trace.get("traceEvents")
    if not isinstance(trace_events, list):
        return ["traceEvents is not an array"]
    for position, event in enumerate(trace_events):
        where = f"traceEvents[{position}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        phase = event.get("ph")
        if phase not in _VALID_PHASES:
            problems.append(f"{where}: unknown ph {phase!r}")
            continue
        if not isinstance(event.get("name"), str) or not event["name"]:
            problems.append(f"{where}: missing name")
        for key in ("pid", "tid"):
            if not isinstance(event.get(key), int):
                problems.append(f"{where}: missing integer {key}")
        if phase in ("X", "i", "C"):
            ts = event.get("ts")
            if not isinstance(ts, (int, float)) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
        if phase == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        if phase == "i" and event.get("s") not in ("t", "p", "g"):
            problems.append(f"{where}: instant missing scope")
        if phase in ("C", "M") and not isinstance(event.get("args"), dict):
            problems.append(f"{where}: missing args")
    return problems
