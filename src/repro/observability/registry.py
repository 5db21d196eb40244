"""Cross-run registry: a directory of journals as a queryable warehouse.

``repro dashboard RUNDIR`` scans a directory for journal files
(``*.jsonl``), reduces each to one :class:`RunEntry` — the
:class:`~repro.observability.diffing.RunSummary` the diff gate already
uses, plus the critical-path blame breakdown, wasted-compute
accounting and the SLO verdict — and renders a longitudinal dashboard:
k trajectories, makespan and wasted-compute trends, blame-over-time
and SLO/fault history. The machine-readable index (``index.json``) is
the metric source the ROADMAP's admission controller and self-driving
ablation engine will query; the markdown/HTML dashboard under
``reports/`` is the same data for humans.

Runs are ordered by filename, so a date- or sequence-prefixed naming
scheme (``2026-08-01-chaos.jsonl``) gives a chronological dashboard
for free.
"""

from __future__ import annotations

import html
import json
import os
from dataclasses import dataclass, field

from repro.observability.critical import BLAME_CATEGORIES, critical_path
from repro.observability.diffing import RunSummary, summarize_replay
from repro.observability.replay import RunReplay, replay_journal

#: Files considered journals when scanning a registry directory.
JOURNAL_SUFFIX = ".jsonl"

#: Index schema version, bumped on incompatible changes.
#: v2: run entries carry ``anomalies`` (per-type live detector firing
#: counts from the journal's ``anomaly`` events).
INDEX_SCHEMA_VERSION = 2


@dataclass
class RunEntry:
    """One journal, reduced to registry-queryable facts."""

    label: str
    path: str
    summary: RunSummary
    blame: "dict[str, float]" = field(default_factory=dict)
    reconciled: bool = True
    slo_abort: bool = False
    error: "str | None" = None
    wasted_attempts: int = 0
    wasted_seconds: float = 0.0
    anomalies: "dict[str, int]" = field(default_factory=dict)

    @property
    def makespan(self) -> float:
        return self.summary.simulated_seconds

    @property
    def k_path(self) -> str:
        """``5 -> 6 -> 7`` rendering of the recorded k trajectory."""
        ks: list[str] = []
        for before, after in self.summary.k_trajectory:
            if not ks:
                ks.append(str(before))
            ks.append(str(after))
        return " -> ".join(ks) if ks else "-"

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "path": self.path,
            "summary": self.summary.as_dict(),
            "blame": dict(self.blame),
            "reconciled": self.reconciled,
            "slo_abort": self.slo_abort,
            "error": self.error,
            "wasted_attempts": self.wasted_attempts,
            "wasted_seconds": self.wasted_seconds,
            "anomalies": dict(self.anomalies),
        }


class RegistryError(ValueError):
    """The registry directory cannot be scanned."""


def entry_from_replay(label: str, path: str, replay: RunReplay) -> RunEntry:
    """Reduce one replayed journal to a :class:`RunEntry`."""
    summary = summarize_replay(replay)
    cpath = critical_path(replay)
    slo_abort = False
    error = None
    for run in replay.runs():
        if run.get("status") == "error":
            error = str(run.get("error") or "error")
            if error == "SLOViolationError":
                slo_abort = True
    return RunEntry(
        label=label,
        path=path,
        summary=summary,
        blame=dict(cpath.blame),
        reconciled=cpath.reconciled,
        slo_abort=slo_abort,
        error=error,
        wasted_attempts=len(replay.failed_jobs()),
        wasted_seconds=replay.failed_attempt_seconds(),
        anomalies=replay.anomaly_counts(),
    )


def scan_registry(rundir: str) -> "list[RunEntry]":
    """Scan ``rundir`` for journals and reduce each to a RunEntry.

    Entries come back in filename order (the registry's notion of
    time). A directory with no journals is a :class:`RegistryError` —
    an empty dashboard is almost always a wrong path.
    """
    if not os.path.isdir(rundir):
        raise RegistryError(f"not a directory: {rundir}")
    names = sorted(
        name
        for name in os.listdir(rundir)
        if name.endswith(JOURNAL_SUFFIX)
    )
    if not names:
        raise RegistryError(f"no {JOURNAL_SUFFIX} journals under {rundir}")
    entries = []
    for name in names:
        path = os.path.join(rundir, name)
        label = name[: -len(JOURNAL_SUFFIX)]
        entries.append(entry_from_replay(label, path, replay_journal(path)))
    return entries


def registry_index(entries: "list[RunEntry]") -> dict:
    """The machine-readable ``index.json`` payload."""
    return {
        "schema_version": INDEX_SCHEMA_VERSION,
        "runs": [entry.as_dict() for entry in entries],
    }


# -- rendering -----------------------------------------------------------

_BAR_WIDTH = 28


def _bar(value: float, peak: float, width: int = _BAR_WIDTH) -> str:
    if peak <= 0:
        return ""
    return "#" * max(1 if value > 0 else 0, int(round(value / peak * width)))


def _ablation_section(ablation: "dict | None") -> "list[str]":
    """The "Ablations & tuning" dashboard lines (empty when no
    ablation report exists under ``reports/``)."""
    if not ablation:
        return []
    variants = ablation.get("variants", [])
    ranked = sorted(variants, key=lambda v: -abs(v.get("delta_makespan", 0.0)))
    lines = [
        "",
        "## Ablations & tuning",
        "",
        f"Latest importance report (`repro ablate`): "
        f"{len(variants)} single-flip variants, "
        f"{'fully reconciled' if ablation.get('ok') else '**NOT RECONCILED**'}.",
        "",
        "| rank | flip | Δ makespan (s) | Δ makespan | invariant |",
        "|---:|---|---:|---:|---|",
    ]
    for rank, v in enumerate(ranked, start=1):
        invariant = (
            ("ok" if v.get("invariant_ok") else "**VIOLATED**")
            if v.get("simulated_invariant")
            else "-"
        )
        lines.append(
            f"| {rank} | {v.get('component')}={v.get('label')} "
            f"| {v.get('delta_makespan', 0.0):+.3f} "
            f"| {v.get('delta_fraction', 0.0) * 100:+.1f}% "
            f"| {invariant} |"
        )
    return lines


def render_dashboard(
    entries: "list[RunEntry]",
    ablation: "dict | None" = None,
) -> str:
    """Longitudinal markdown dashboard over the registry's runs."""
    lines = [
        "# Run registry dashboard",
        "",
        f"{len(entries)} journal(s), ordered by filename.",
        "",
        "## Runs",
        "",
        "| run | makespan (s) | jobs ok/attempts | k found | k trajectory "
        "| reconciled | anomalies | verdict |",
        "|---|---:|---:|---:|---|---|---|---|",
    ]
    for entry in entries:
        summary = entry.summary
        verdict = "ok"
        if entry.slo_abort:
            verdict = "SLO abort"
        elif entry.error:
            verdict = f"error: {entry.error}"
        anomalies = (
            ", ".join(
                f"{kind} x{count}"
                for kind, count in sorted(entry.anomalies.items())
            )
            or "-"
        )
        lines.append(
            f"| {entry.label} | {entry.makespan:.2f} "
            f"| {summary.jobs}/{summary.job_attempts} "
            f"| {summary.k_found if summary.k_found is not None else '-'} "
            f"| {entry.k_path} "
            f"| {'yes' if entry.reconciled else 'NO'} "
            f"| {anomalies} "
            f"| {verdict} |"
        )

    peak = max((entry.makespan for entry in entries), default=0.0)
    lines += ["", "## Makespan trend", "", "```"]
    for entry in entries:
        lines.append(
            f"{entry.label:<28} {entry.makespan:10.2f}s "
            f"{_bar(entry.makespan, peak)}"
        )
    lines.append("```")

    peak_wasted = max((entry.wasted_seconds for entry in entries), default=0.0)
    lines += ["", "## Wasted compute (failed attempts)", "", "```"]
    for entry in entries:
        lines.append(
            f"{entry.label:<28} {entry.wasted_attempts:3d} attempts "
            f"{entry.wasted_seconds:10.2f}s "
            f"{_bar(entry.wasted_seconds, peak_wasted)}"
        )
    lines.append("```")

    lines += [
        "",
        "## Critical-path blame over time",
        "",
        "| run | " + " | ".join(BLAME_CATEGORIES) + " |",
        "|---|" + "---:|" * len(BLAME_CATEGORIES),
    ]
    for entry in entries:
        total = entry.makespan or 1.0
        cells = []
        for category in BLAME_CATEGORIES:
            seconds = entry.blame.get(category, 0.0)
            cells.append(
                f"{seconds:.1f}s ({seconds / total * 100:.0f}%)"
                if seconds
                else "-"
            )
        lines.append(f"| {entry.label} | " + " | ".join(cells) + " |")

    lines += ["", "## SLO & fault history", ""]
    any_history = False
    for entry in entries:
        events = entry.summary.fault_events
        bits = [f"{name} x{count}" for name, count in sorted(events.items())]
        if entry.slo_abort:
            bits.insert(0, "**SLO ABORT**")
        elif entry.error:
            bits.insert(0, f"**{entry.error}**")
        if bits:
            any_history = True
            lines.append(f"- `{entry.label}`: " + ", ".join(bits))
    if not any_history:
        lines.append("- no faults, aborts or SLO breaches recorded")
    lines += _ablation_section(ablation)
    lines.append("")
    return "\n".join(lines)


def render_dashboard_html(
    entries: "list[RunEntry]",
    ablation: "dict | None" = None,
) -> str:
    """Self-contained HTML wrapper around the markdown dashboard.

    Deliberately dependency-free: the markdown body is embedded
    verbatim in a ``<pre>`` (tables and code fences read fine
    monospaced), so the page needs no converter and no JS.
    """
    body = html.escape(render_dashboard(entries, ablation=ablation))
    return (
        "<!doctype html>\n"
        "<html><head><meta charset='utf-8'>"
        "<title>repro run registry</title>"
        "<style>body{font-family:monospace;margin:2rem;"
        "max-width:72rem}pre{white-space:pre-wrap}</style>"
        "</head><body><pre>\n"
        f"{body}\n"
        "</pre></body></html>\n"
    )


def write_report(
    rundir: str,
    out_dir: str = "reports",
    basename: str = "dashboard",
    with_html: bool = True,
) -> "dict[str, str]":
    """Scan ``rundir`` and write index + dashboard under ``out_dir``.

    Returns a mapping of artifact kind (``index`` / ``markdown`` /
    ``html``) to the written path. When ``out_dir`` holds the ablation
    engine's ``ablation.json`` (see ``repro ablate``), the dashboard
    gains an "Ablations & tuning" section rendering it; a missing or
    unreadable report simply leaves the section out.
    """
    entries = scan_registry(rundir)
    ablation = _load_optional_report(os.path.join(out_dir, "ablation.json"))
    os.makedirs(out_dir, exist_ok=True)
    written: dict[str, str] = {}
    index_path = os.path.join(out_dir, f"{basename}-index.json")
    with open(index_path, "w", encoding="utf-8") as handle:
        json.dump(registry_index(entries), handle, indent=2, sort_keys=True)
        handle.write("\n")
    written["index"] = index_path
    markdown_path = os.path.join(out_dir, f"{basename}.md")
    with open(markdown_path, "w", encoding="utf-8") as handle:
        handle.write(render_dashboard(entries, ablation=ablation))
    written["markdown"] = markdown_path
    if with_html:
        html_path = os.path.join(out_dir, f"{basename}.html")
        with open(html_path, "w", encoding="utf-8") as handle:
            handle.write(
                render_dashboard_html(entries, ablation=ablation)
            )
        written["html"] = html_path
    return written


def _load_optional_report(path: str) -> "dict | None":
    """Load an ablation report JSON if present and well-formed."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) else None
