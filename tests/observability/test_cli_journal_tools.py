"""The journal-facing CLI: ``repro trace / analyze / diff``."""

import json

import pytest

from repro.cli import main
from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.data.generator import generate_gaussian_mixture
from repro.evaluation.harness import build_world
from repro.observability.journal import FileJournalSink, Journal


def record_journal(path, seed=7) -> str:
    journal = Journal(FileJournalSink(str(path)))
    mixture = generate_gaussian_mixture(
        n_points=600, n_clusters=3, dimensions=2, rng=seed
    )
    world = build_world(
        mixture, nodes=2, target_splits=6, seed=seed, journal=journal
    )
    MRGMeans(world.runtime, MRGMeansConfig(seed=seed)).fit(world.dataset)
    journal.close()
    return str(path)


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    return record_journal(tmp_path_factory.mktemp("journals") / "run.jsonl")


def record_anomaly_journal(path, seed=7) -> str:
    """A run recorded with the in-flight detectors armed.

    The small fixture workload is perfectly even (every task in a phase
    simulates the same duration), so the statistical detectors cannot
    trip no matter how tight the thresholds.  Instead we force the
    reducer-side TestClusters strategy and drop ``heap_fraction`` to a
    sliver so the Figure-2 heap-breach predictor deterministically fires
    mid-run.
    """
    from repro.observability.anomaly import AnomalyWatchdog, parse_anomaly_spec
    from repro.observability.live import LiveRunState, TelemetrySink

    inner = FileJournalSink(str(path))
    sink = TelemetrySink(inner, LiveRunState())
    journal = Journal(sink)
    sink.anomaly = AnomalyWatchdog(
        journal,
        parse_anomaly_spec(
            "heap_fraction=0.0001,straggler_ratio=1.05,straggler_min_tasks=2"
        ),
    )
    mixture = generate_gaussian_mixture(
        n_points=600, n_clusters=3, dimensions=2, rng=seed
    )
    world = build_world(
        mixture, nodes=2, target_splits=6, seed=seed, journal=journal
    )
    MRGMeans(
        world.runtime, MRGMeansConfig(seed=seed, strategy="reducer")
    ).fit(world.dataset)
    journal.close()
    assert sink.anomaly.fired, "fixture must record at least one firing"
    return str(path)


@pytest.fixture(scope="module")
def anomaly_journal_path(tmp_path_factory):
    return record_anomaly_journal(
        tmp_path_factory.mktemp("journals") / "anomalies.jsonl"
    )


def test_trace_renders_recorded_run(journal_path, capsys):
    assert main(["trace", journal_path]) == 0
    out = capsys.readouterr().out
    assert "== run timeline" in out


def test_trace_follow_tails_until_run_completes(journal_path, capsys):
    # The recorded run is already complete, so the first poll renders it
    # and returns without waiting.
    assert main(["trace", journal_path, "--follow", "--interval", "0.01"]) == 0
    captured = capsys.readouterr()
    assert "[follow]" in captured.err
    assert "complete" in captured.err
    assert "== run timeline" in captured.out


def test_trace_missing_file_exits_one(capsys):
    assert main(["trace", "does/not/exist.jsonl"]) == 1
    assert "cannot read journal" in capsys.readouterr().err


def test_trace_tolerates_truncated_journal(journal_path, tmp_path, capsys):
    text = open(journal_path, encoding="utf-8").read()
    lines = text.splitlines()
    clipped = tmp_path / "clipped.jsonl"
    clipped.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:20])
    assert main(["trace", str(clipped)]) == 0
    assert "[interrupted]" in capsys.readouterr().out


def test_trace_corrupt_journal_exits_one_with_message(
    journal_path, tmp_path, capsys
):
    lines = open(journal_path, encoding="utf-8").read().splitlines()
    lines[3] = lines[3][:10]  # mangle a record mid-stream
    corrupt = tmp_path / "corrupt.jsonl"
    corrupt.write_text("\n".join(lines) + "\n")
    assert main(["trace", str(corrupt)]) == 1
    err = capsys.readouterr().err
    assert "cannot read journal" in err
    assert "corrupt journal record" in err


def test_analyze_reports_all_sections(journal_path, tmp_path, capsys):
    out_file = tmp_path / "analysis.txt"
    assert main(["analyze", journal_path, "--out", str(out_file)]) == 0
    out = capsys.readouterr().out
    assert "== task skew / stragglers" in out
    assert "== heap-model audit (Figure 2)" in out
    assert "== cost-model residuals" in out
    assert "all consistent" in out
    assert out_file.read_text().strip() in out


def test_analyze_json_output(journal_path, capsys):
    assert main(["analyze", journal_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["heap_audit_consistent"] is True
    assert data["heap_audit"]
    assert data["max_abs_relative_residual"] < 1e-9


def test_analyze_unreadable_journal_exits_one(capsys):
    assert main(["analyze", "nope.jsonl"]) == 1
    assert "cannot read journal" in capsys.readouterr().err


def test_analyze_json_schema_is_versioned(journal_path, capsys):
    from repro.observability import ANALYZE_SCHEMA_VERSION

    assert main(["analyze", journal_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["schema_version"] == ANALYZE_SCHEMA_VERSION
    assert data["anomalies"] == []  # recorded without --anomaly


def test_analyze_surfaces_recorded_anomalies(anomaly_journal_path, capsys):
    assert main(["analyze", anomaly_journal_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["anomalies"]
    assert all("anomaly" in attrs for attrs in data["anomalies"])
    assert main(["analyze", anomaly_journal_path]) == 0
    assert "== in-flight anomalies" in capsys.readouterr().out


def test_anomalies_lists_recorded_firings(anomaly_journal_path, capsys):
    assert main(["anomalies", anomaly_journal_path]) == 0
    out = capsys.readouterr().out
    assert "firing(s)" in out
    assert "thresholds:" in out


def test_anomalies_json_reports_config_and_firings(anomaly_journal_path, capsys):
    assert main(["anomalies", anomaly_journal_path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["config"]["straggler_ratio"] == 1.05
    assert data["anomalies"]


def test_anomalies_check_reconciles_live_run(anomaly_journal_path, capsys):
    assert main(["anomalies", anomaly_journal_path, "--check"]) == 0
    assert "reconciliation: OK" in capsys.readouterr().out
    assert main(["anomalies", anomaly_journal_path, "--check", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["expected_events"] == data["recorded_events"] > 0


def test_anomalies_check_fails_on_tampered_journal(
    anomaly_journal_path, tmp_path, capsys
):
    lines = open(anomaly_journal_path, encoding="utf-8").read().splitlines()
    kept, dropped = [], False
    for line in lines:
        if not dropped and '"name":"anomaly"' in line:
            dropped = True
            continue
        kept.append(line)
    assert dropped
    tampered = tmp_path / "tampered.jsonl"
    tampered.write_text("\n".join(kept) + "\n")
    assert main(["anomalies", str(tampered), "--check"]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_anomalies_check_requires_armed_run(journal_path, capsys):
    assert main(["anomalies", journal_path, "--check"]) == 1
    assert "no anomaly_config" in capsys.readouterr().err


def test_anomalies_post_hoc_detection_on_unarmed_journal(journal_path, capsys):
    # Without --check the detectors run post-hoc with defaults, so any
    # journal can be screened after the fact.
    assert main(["anomalies", journal_path]) == 0
    assert "firing(s)" in capsys.readouterr().out


def test_anomalies_missing_journal_exits_one(capsys):
    assert main(["anomalies", "nope.jsonl"]) == 1
    assert "cannot read journal" in capsys.readouterr().err


def test_diff_identical_runs_exits_zero(journal_path, tmp_path, capsys):
    candidate = record_journal(tmp_path / "again.jsonl")
    assert main(["diff", journal_path, candidate]) == 0
    assert "no regressions beyond thresholds" in capsys.readouterr().out


def diverged_copy(journal_path, target) -> str:
    """Copy of the journal whose run found a different k."""
    lines = []
    for line in open(journal_path, encoding="utf-8"):
        record = json.loads(line)
        if record["type"] == "span_end" and "k_found" in record.get(
            "attrs", {}
        ):
            record["attrs"]["k_found"] += 1
        lines.append(json.dumps(record))
    target.write_text("\n".join(lines) + "\n")
    return str(target)


def test_diff_detects_diverged_run_exits_one(journal_path, tmp_path, capsys):
    candidate = diverged_copy(journal_path, tmp_path / "other.jsonl")
    assert main(["diff", journal_path, candidate]) == 1
    out = capsys.readouterr().out
    assert "REGRESSION" in out
    assert "results diverged" in out


def test_diff_allow_k_drift_waives_the_gate(journal_path, tmp_path):
    candidate = diverged_copy(journal_path, tmp_path / "other.jsonl")
    assert main(["diff", journal_path, candidate, "--allow-k-drift"]) == 0


def test_diff_json_output(journal_path, tmp_path, capsys):
    candidate = record_journal(tmp_path / "again.jsonl")
    assert main(["diff", journal_path, candidate, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["ok"] is True
    assert data["entries"]


def test_diff_unreadable_journal_exits_two(journal_path, capsys):
    assert main(["diff", "nope.jsonl", journal_path]) == 2
    assert main(["diff", journal_path, "nope.jsonl"]) == 2


# -- repro ablate -------------------------------------------------------


def test_ablate_cli_list_components(capsys):
    assert main(["ablate", "--list-components"]) == 0
    out = capsys.readouterr().out
    assert "combiner" in out and "evaluation-only" in out


def test_ablate_cli_writes_report_and_check_verifies(tmp_path, capsys):
    out_dir = str(tmp_path / "reports")
    assert (
        main(
            [
                "ablate",
                "--points", "500",
                "--components", "combiner",
                "--out-dir", out_dir,
            ]
        )
        == 0
    )
    captured = capsys.readouterr()
    assert "# Ablation importance report" in captured.out
    report_path = f"{out_dir}/ablation.json"
    report = json.load(open(report_path, encoding="utf-8"))
    assert [v["component"] for v in report["variants"]] == ["combiner"]
    # Journals landed under <out-dir>/ablate by default.
    assert report["baseline"]["journal"].startswith(out_dir)

    assert main(["ablate", "--check", "--out-dir", out_dir]) == 0
    assert "reconciles exactly" in capsys.readouterr().out

    report["variants"][0]["delta_makespan"] += 1.0
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    assert main(["ablate", "--check", "--out-dir", out_dir]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_ablate_cli_unknown_component_exits_two(tmp_path, capsys):
    assert (
        main(
            [
                "ablate",
                "--components", "warp",
                "--out-dir", str(tmp_path),
            ]
        )
        == 2
    )
    assert "bad --components" in capsys.readouterr().err


def test_ablate_cli_check_without_report_exits_two(tmp_path, capsys):
    assert main(["ablate", "--check", "--out-dir", str(tmp_path)]) == 2
    assert "cannot load importance report" in capsys.readouterr().err


def test_tune_verb_is_gone():
    with pytest.raises(SystemExit) as excinfo:
        main(["tune"])
    assert excinfo.value.code == 2
