"""The ablation engine: scripted-delta scoring, a real grid, verify."""

import json

import pytest

from repro.observability.ablate import (
    WorkloadSpec,
    load_importance,
    metrics_from_replay,
    render_importance,
    run_ablation,
    score_variant,
    variant_slug,
    verify_importance,
    write_importance,
)
from repro.observability.components import component, engine_variants
from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.replay import replay_records


def scripted_run(
    makespan,
    shuffle_bytes,
    wasted_counter,
    heap_bytes,
    k_found=3,
    events=(),
    failed_attempt_seconds=None,
):
    """One hand-written journal with fully controlled metrics.

    The job's timing splits the makespan as startup 1.0 + map the rest,
    so the critical path reconciles exactly and the blame landing is
    predictable (startup / compute only).
    """
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans", dataset="d") as run:
        with journal.span(
            "iteration", "iteration-1", iteration=1, k_before=1
        ) as it:
            if failed_attempt_seconds is not None:
                with journal.span("job", "KMeans-1", attempt=1) as job:
                    job.set(
                        status="failed",
                        error="TaskPermanentlyFailedError",
                        simulated_seconds=failed_attempt_seconds,
                    )
            with journal.span(
                "job",
                "KMeans-1",
                attempt=1 if failed_attempt_seconds is None else 2,
            ) as job:
                with journal.span(
                    "phase",
                    "map",
                    tasks=1,
                    slots=1,
                    max_key_heap_bytes=heap_bytes,
                ):
                    journal.task("KMeans-1-m-00000", 0, makespan - 1.0, 0.0)
                for name in events:
                    journal.event(name, name="iter-0001")
                job.set(
                    status="ok",
                    simulated_seconds=makespan,
                    timing={
                        "startup_seconds": 1.0,
                        "map_seconds": makespan - 1.0,
                        "shuffle_seconds": 0.0,
                        "reduce_seconds": 0.0,
                    },
                    counters={
                        "framework": {
                            "SHUFFLE_BYTES": shuffle_bytes,
                            "WASTED_COMPUTE_SECONDS": wasted_counter,
                        }
                    },
                )
            it.set(k_after=k_found, simulated_seconds=makespan)
        run.set(status="ok", k_found=k_found, simulated_seconds=makespan)
    return replay_records(sink.records)


def test_scripted_pair_produces_known_signed_deltas():
    baseline = metrics_from_replay(scripted_run(25.0, 1000, 2.0, 500))
    flipped = metrics_from_replay(
        scripted_run(
            20.0, 1600, 3.5, 800, events=("checkpoint_write",) * 2
        )
    )
    assert baseline.reconciled and flipped.reconciled
    entry = score_variant(
        component("combiner"), False, "flip.jsonl", baseline, flipped
    )
    assert entry.delta_makespan == -5.0
    assert entry.delta_fraction == -0.2
    assert entry.delta_shuffle_bytes == 600
    assert entry.delta_wasted_seconds == 1.5
    assert entry.delta_heap_bytes == 300
    assert entry.events_delta == {"checkpoint_write": 2}
    assert entry.k_drift is False
    assert entry.invariant_ok  # runtime layer: no invariance claim
    # The blame shift is over the same categories and sums to the
    # makespan delta (both runs fully reconcile).
    assert sum(entry.blame_shift.values()) == pytest.approx(-5.0)


def test_failed_attempts_land_in_wasted_seconds():
    metrics = metrics_from_replay(
        scripted_run(25.0, 1000, 2.0, 500, failed_attempt_seconds=4.0)
    )
    assert metrics.wasted_seconds == 6.0  # 4.0 failed attempt + 2.0 counter
    assert metrics.jobs == 1 and metrics.job_attempts == 2
    # Failed attempts never count toward the reconciled makespan.
    assert metrics.makespan == 25.0


def test_infrastructure_flip_must_be_simulated_invariant():
    baseline = metrics_from_replay(scripted_run(25.0, 1000, 2.0, 500))
    same = metrics_from_replay(scripted_run(25.0, 1000, 2.0, 500))
    drifted = metrics_from_replay(scripted_run(25.0, 1001, 2.0, 500))
    executor = component("executor")
    assert score_variant(executor, "processes", "j", baseline, same).invariant_ok
    violated = score_variant(executor, "processes", "j", baseline, drifted)
    assert not violated.invariant_ok
    assert violated.delta_shuffle_bytes == 1


def test_k_drift_is_flagged():
    baseline = metrics_from_replay(scripted_run(25.0, 1000, 2.0, 500))
    drifted = metrics_from_replay(
        scripted_run(25.0, 1000, 2.0, 500, k_found=4)
    )
    entry = score_variant(
        component("test_strategy"), "reducer", "j", baseline, drifted
    )
    assert entry.k_drift


def test_workload_spec_round_trip_rejects_unknown_fields():
    spec = WorkloadSpec(n_points=123)
    assert WorkloadSpec.from_dict(spec.as_dict()) == spec
    with pytest.raises(ValueError, match="unknown"):
        WorkloadSpec.from_dict({"n_points": 1, "warp": 9})


def test_variant_slug_is_filename_safe():
    assert variant_slug(component("combiner"), False) == "combiner=False"
    assert "/" not in variant_slug(component("split_factor"), 0.5)


# -- one small real grid, shared across the remaining tests --------------


SPEC = WorkloadSpec(n_points=600)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    journal_dir = tmp_path_factory.mktemp("ablate-journals")
    report = run_ablation(SPEC, journal_dir=str(journal_dir))
    return report, str(journal_dir)


def test_grid_covers_every_engine_flip_and_reconciles(grid):
    report, _ = grid
    assert len(report.variants) == len(engine_variants())
    assert report.ok
    assert report.baseline.reconciled
    infra = [v for v in report.variants if v.simulated_invariant]
    assert infra and all(v.invariant_ok for v in infra)
    # Infrastructure flips change nothing simulated, by contract.
    assert all(v.delta_makespan == 0.0 for v in infra)


def test_grid_is_deterministic_for_the_same_seed(grid):
    report, _ = grid
    again = run_ablation(SPEC)  # in-memory journals, same seed
    ours = report.as_dict()
    theirs = again.as_dict()
    # Journal paths differ (tmp dir vs in-memory); everything simulated
    # must match exactly.
    for entry in (ours, theirs):
        entry["baseline"].pop("journal")
        for variant in entry["variants"]:
            variant.pop("journal")
    assert ours == theirs


def test_written_report_verifies_exactly(grid, tmp_path):
    report, _ = grid
    written = write_importance(report, out_dir=str(tmp_path))
    loaded = load_importance(written["json"])
    assert verify_importance(loaded) == []


def test_verify_catches_tampered_deltas(grid, tmp_path):
    report, _ = grid
    written = write_importance(report, out_dir=str(tmp_path))
    loaded = load_importance(written["json"])
    loaded["variants"][0]["delta_makespan"] += 0.5
    problems = verify_importance(loaded)
    assert problems and "delta_makespan" in problems[0]


def test_verify_reports_missing_journals(grid, tmp_path):
    report, _ = grid
    written = write_importance(report, out_dir=str(tmp_path))
    loaded = load_importance(written["json"])
    loaded["baseline"]["journal"] = str(tmp_path / "gone.jsonl")
    problems = verify_importance(loaded)
    assert problems and "missing" in problems[0]


def test_render_importance_sections(grid):
    report, _ = grid
    text = render_importance(report)
    assert "# Ablation importance report" in text
    assert "## Importance ranking (one flip per row)" in text
    assert "## Critical-path blame shift per flip" in text
    assert "## Infrastructure flips (determinism contract)" in text
    assert "invariant confirmed" in text


def test_report_json_is_loadable_and_versioned(grid, tmp_path):
    report, _ = grid
    written = write_importance(report, out_dir=str(tmp_path))
    raw = json.load(open(written["json"], encoding="utf-8"))
    assert raw["schema_version"] == 1
    assert raw["ranking"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 99}))
    with pytest.raises(ValueError, match="schema_version"):
        load_importance(str(bad))
