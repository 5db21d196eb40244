"""Run registry: scanning, index, dashboard rendering, report files."""

import json
import os

import pytest

from repro.cli import main
from repro.observability.registry import (
    INDEX_SCHEMA_VERSION,
    RegistryError,
    registry_index,
    render_dashboard,
    render_dashboard_html,
    scan_registry,
    write_report,
)

from tests.observability.test_critical import chaotic_run
from tests.observability.test_export import aborted_run


def write_journal(path, replay):
    with open(path, "w", encoding="utf-8") as handle:
        for record in replay.records:
            handle.write(json.dumps(record) + "\n")


@pytest.fixture
def rundir(tmp_path):
    """Three heterogeneous journals: chaos, a repeat, and an SLO abort."""
    runs = tmp_path / "runs"
    runs.mkdir()
    write_journal(runs / "01-chaos.jsonl", chaotic_run())
    write_journal(runs / "02-chaos-again.jsonl", chaotic_run())
    write_journal(runs / "03-slo-abort.jsonl", aborted_run())
    (runs / "notes.txt").write_text("not a journal")
    return str(runs)


def test_scan_orders_by_filename_and_strips_suffix(rundir):
    entries = scan_registry(rundir)
    assert [e.label for e in entries] == [
        "01-chaos",
        "02-chaos-again",
        "03-slo-abort",
    ]
    assert all(e.path.endswith(".jsonl") for e in entries)


def test_entry_facts_from_chaotic_journal(rundir):
    entry = scan_registry(rundir)[0]
    assert entry.makespan == 25.0
    assert entry.reconciled
    assert entry.blame["checkpointing"] == 10.0
    assert entry.wasted_attempts == 1  # the failed first attempt
    assert entry.slo_abort is False and entry.error is None
    assert entry.k_path == "2 -> 2"


def test_entry_facts_from_slo_abort(rundir):
    entry = scan_registry(rundir)[-1]
    assert entry.slo_abort is True
    assert entry.error == "SLOViolationError"
    assert entry.makespan == 7.0


def test_registry_index_payload(rundir):
    index = registry_index(scan_registry(rundir))
    assert index["schema_version"] == INDEX_SCHEMA_VERSION
    assert len(index["runs"]) == 3
    # JSON-serializable end to end.
    payload = json.loads(json.dumps(index))
    assert payload["runs"][0]["label"] == "01-chaos"
    assert payload["runs"][0]["summary"]["simulated_seconds"] == 25.0


def test_dashboard_sections(rundir):
    text = render_dashboard(scan_registry(rundir))
    assert "# Run registry dashboard" in text
    assert "3 journal(s), ordered by filename." in text
    assert "## Makespan trend" in text
    assert "## Critical-path blame over time" in text
    assert "## SLO & fault history" in text
    assert "| 01-chaos | 25.00 " in text
    assert "SLO abort" in text  # the verdict column
    assert "**SLO ABORT**" in text  # the history section
    assert "#" * 5 in text  # trend bars render


def test_dashboard_html_is_self_contained(rundir):
    page = render_dashboard_html(scan_registry(rundir))
    assert page.startswith("<!doctype html>")
    assert "<pre>" in page
    assert "01-chaos" in page
    # Markdown pipes survive escaping inside the <pre> body.
    assert "| 01-chaos |" in page


def test_write_report_artifacts(rundir, tmp_path):
    out = str(tmp_path / "reports")
    written = write_report(rundir, out_dir=out, basename="dash")
    assert set(written) == {"index", "markdown", "html"}
    for path in written.values():
        assert os.path.exists(path)
    index = json.load(open(written["index"], encoding="utf-8"))
    assert index["schema_version"] == INDEX_SCHEMA_VERSION
    assert "# Run registry dashboard" in open(written["markdown"]).read()
    no_html = write_report(rundir, out_dir=out, basename="bare", with_html=False)
    assert set(no_html) == {"index", "markdown"}


def _ablation_fixture() -> dict:
    return {
        "ok": True,
        "variants": [
            {
                "component": "combiner",
                "label": "off",
                "delta_makespan": 0.5,
                "delta_fraction": 0.02,
                "simulated_invariant": False,
            },
            {
                "component": "executor",
                "label": "processes",
                "delta_makespan": 0.0,
                "delta_fraction": 0.0,
                "simulated_invariant": True,
                "invariant_ok": True,
            },
        ],
    }


def test_dashboard_without_reports_has_no_ablation_section(rundir):
    assert "## Ablations & tuning" not in render_dashboard(scan_registry(rundir))


def test_dashboard_renders_ablation_report(rundir):
    text = render_dashboard(scan_registry(rundir), ablation=_ablation_fixture())
    assert "## Ablations & tuning" in text
    assert "| 1 | combiner=off | +0.500 | +2.0% | - |" in text
    assert "| 2 | executor=processes | +0.000 | +0.0% | ok |" in text


def test_write_report_picks_up_reports_in_out_dir(rundir, tmp_path):
    out = tmp_path / "reports"
    out.mkdir()
    (out / "ablation.json").write_text(json.dumps(_ablation_fixture()))
    (out / "unparseable.json").write_text("{nope")
    written = write_report(rundir, out_dir=str(out))
    markdown = open(written["markdown"], encoding="utf-8").read()
    assert "## Ablations & tuning" in markdown
    assert "combiner=off" in markdown
    assert "## Ablations &amp; tuning" in open(written["html"]).read()


def test_write_report_tolerates_corrupt_reports(rundir, tmp_path):
    out = tmp_path / "reports"
    out.mkdir()
    for corrupt in ("{not json", json.dumps(["not", "a", "dict"])):
        (out / "ablation.json").write_text(corrupt)
        written = write_report(rundir, out_dir=str(out))
        markdown = open(written["markdown"], encoding="utf-8").read()
        assert "## Ablations & tuning" not in markdown


def test_dashboard_cli_writes_the_registry_artifacts(rundir, tmp_path, capsys):
    out = str(tmp_path / "reports")
    assert main(["dashboard", rundir, "--out-dir", out, "--no-html"]) == 0
    assert sorted(os.listdir(out)) == ["dashboard-index.json", "dashboard.md"]
    assert main(["dashboard", str(tmp_path / "missing"), "--out-dir", out]) == 1
    assert "cannot build registry report" in capsys.readouterr().err


def test_report_no_longer_takes_a_rundir(rundir):
    # The registry renders under `repro dashboard`; a RUNDIR given to
    # `repro report` must fail loudly, not run every experiment.
    with pytest.raises(SystemExit) as excinfo:
        main(["report", rundir])
    assert excinfo.value.code == 2


def test_scan_rejects_bad_directories(tmp_path):
    with pytest.raises(RegistryError, match="not a directory"):
        scan_registry(str(tmp_path / "missing"))
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(RegistryError, match="no .jsonl journals"):
        scan_registry(str(empty))
