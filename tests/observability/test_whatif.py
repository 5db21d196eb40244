"""What-if re-scheduling: identity, knobs, parsing, rendering."""

import json

import pytest

from repro.observability.journal import InMemoryJournalSink, Journal
from repro.observability.replay import replay_records
from repro.observability.whatif import (
    Scenario,
    ScenarioError,
    parse_scenario,
    render_whatif,
    whatif_replay,
)


def recorded_run(
    map_seconds=3.0,
    reduce_sims=(1.0, 1.0),
    restore=0.0,
    combiner_optional=True,
):
    """One successful job with hand-checkable LPT numbers.

    Map: tasks [2, 2, 1, 1] on 2 slots (LPT makespan 3.0); reduce:
    capacity-following (len(tasks) == slots == 2); combiner counters
    record a 10x growth if switched off; recorded on 4 nodes.
    """
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        if restore:
            journal.event(
                "checkpoint_restore",
                name="iter-0001",
                iteration=1,
                jobs=1,
                simulated_seconds=restore,
                counters={},
            )
        with journal.span("iteration", "iteration-1", iteration=1) as it:
            with journal.span(
                "job",
                "KMeans-1",
                attempt=1,
                combiner_optional=combiner_optional,
            ) as job:
                with journal.span("phase", "map", tasks=4, slots=2):
                    for i, sim in enumerate([2.0, 2.0, 1.0, 1.0]):
                        journal.task(f"KMeans-1-m-{i:05d}", i, sim, 0.0)
                with journal.span(
                    "phase", "reduce", tasks=len(reduce_sims), slots=2
                ):
                    for i, sim in enumerate(reduce_sims):
                        journal.task(f"KMeans-1-r-{i:05d}", i, sim, 0.0)
                reduce_seconds = max(reduce_sims)
                sim_total = 5.0 + map_seconds + 1.0 + reduce_seconds
                job.set(
                    status="ok",
                    simulated_seconds=sim_total,
                    nodes=4,
                    timing={
                        "startup_seconds": 5.0,
                        "map_seconds": map_seconds,
                        "shuffle_seconds": 1.0,
                        "reduce_seconds": reduce_seconds,
                    },
                    counters={
                        "framework": {
                            "COMBINE_INPUT_RECORDS": 100,
                            "COMBINE_OUTPUT_RECORDS": 10,
                        }
                    },
                )
            it.set(simulated_seconds=sim_total)
        run.set(status="ok", simulated_seconds=sim_total + restore)
    return replay_records(sink.records)


def test_empty_scenario_is_the_identity():
    replay = recorded_run()
    report = whatif_replay(replay, Scenario())
    assert report.recorded_total == replay.total_simulated_seconds()
    assert report.predicted_total == report.recorded_total
    assert report.delta_seconds == 0.0
    for job in report.jobs:
        assert job.predicted == job.recorded


def test_fewer_slots_stretch_the_phases():
    # num_workers=1: map LPT([2,2,1,1], 1) = 6; capacity-following
    # reduce re-bins to one 1.0s task. 5 + 6 + 1 + 1 = 13.
    report = whatif_replay(recorded_run(), Scenario(num_workers=1))
    assert report.predicted_total == pytest.approx(13.0)
    assert report.delta_seconds > 0


def test_more_nodes_scale_slots_and_shuffle():
    # nodes 4 -> 8 doubles slots (map makespan 3 -> 2), halves the
    # per-node shuffle fabric time (1 -> 0.5), and the reduce wave
    # follows capacity (still 1.0). 5 + 2 + 0.5 + 1 = 8.5.
    report = whatif_replay(recorded_run(), Scenario(nodes=8))
    assert report.predicted_total == pytest.approx(8.5)
    phases = report.phase_totals()
    assert phases["map"] == (pytest.approx(3.0), pytest.approx(2.0))
    assert phases["shuffle"] == (pytest.approx(1.0), pytest.approx(0.5))


def test_combiner_off_grows_shuffle_by_recorded_ratio():
    # COMBINE_INPUT/OUTPUT = 100/10: shuffle grows 10x; the recorded
    # reduce tasks are pure startup (1.0s), so reduce is unchanged.
    report = whatif_replay(recorded_run(), Scenario(combiner=False))
    phases = report.phase_totals()
    assert phases["shuffle"] == (pytest.approx(1.0), pytest.approx(10.0))
    assert phases["reduce"] == (pytest.approx(1.0), pytest.approx(1.0))
    assert report.predicted_total == pytest.approx(5.0 + 3.0 + 10.0 + 1.0)


def test_combiner_off_scales_reduce_work_above_startup():
    # Reduce tasks of 2.0s carry 1.0s of work above the 1.0s task
    # startup; 10x record growth makes each 1 + 1*10 = 11s.
    report = whatif_replay(
        recorded_run(reduce_sims=(2.0, 2.0)), Scenario(combiner=False)
    )
    phases = report.phase_totals()
    assert phases["reduce"] == (pytest.approx(2.0), pytest.approx(11.0))


def test_combiner_off_skips_jobs_whose_combiner_is_load_bearing():
    # A job journalled without combiner_optional (e.g. one whose
    # combiner changes RNG consumption) keeps its recorded shuffle:
    # a real re-run would keep its combiner too.
    report = whatif_replay(
        recorded_run(combiner_optional=False), Scenario(combiner=False)
    )
    phases = report.phase_totals()
    assert phases["shuffle"] == (pytest.approx(1.0), pytest.approx(1.0))
    assert report.predicted_total == pytest.approx(report.recorded_total)


def test_scheduler_lpt_drops_the_calibration():
    # Recorded map took 4.0s where plain LPT packs it in 3.0s: the
    # calibrated model keeps 4.0 (untouched phase), pure LPT says 3.0.
    replay = recorded_run(map_seconds=4.0)
    keep = whatif_replay(replay, Scenario())
    assert keep.phase_totals()["map"] == (pytest.approx(4.0), pytest.approx(4.0))
    lpt = whatif_replay(replay, Scenario(scheduler="lpt"))
    assert lpt.phase_totals()["map"] == (pytest.approx(4.0), pytest.approx(3.0))


def test_restored_baselines_ride_both_totals():
    report = whatif_replay(recorded_run(restore=7.5), Scenario(num_workers=1))
    assert report.restore_seconds == 7.5
    assert report.recorded_total == pytest.approx(7.5 + 10.0)
    assert report.predicted_total == pytest.approx(7.5 + 13.0)
    assert "restored baselines contribute 7.50s" in render_whatif(report)


def test_jobs_without_timing_ride_both_totals():
    """A successful job recorded without a per-phase timing dict has
    nothing to re-schedule, but its seconds still belong to the
    makespan: carried as-recorded on both sides (like restores) and
    surfaced in the report, never silently dropped."""
    sink = InMemoryJournalSink()
    journal = Journal(sink)
    with journal.span("run", "gmeans") as run:
        with journal.span("iteration", "iteration-1", iteration=1) as it:
            with journal.span("job", "Init-1", attempt=1) as job:
                job.set(status="ok", simulated_seconds=7.5, counters={})
            with journal.span("job", "KMeans-1", attempt=1) as job:
                with journal.span("phase", "map", tasks=2, slots=2):
                    journal.task("KMeans-1-m-00000", 0, 2.0, 0.0)
                    journal.task("KMeans-1-m-00001", 1, 2.0, 0.0)
                job.set(
                    status="ok",
                    simulated_seconds=3.0,
                    timing={"startup_seconds": 1.0, "map_seconds": 2.0},
                    counters={},
                )
            it.set(simulated_seconds=10.5)
        run.set(status="ok", simulated_seconds=10.5)
    replay = replay_records(sink.records)
    report = whatif_replay(replay, Scenario(num_workers=1))
    assert report.as_recorded_jobs == 1
    assert report.as_recorded_seconds == 7.5
    # The recorded makespan agrees with the journalled makespan even
    # though one job could not be re-scheduled.
    assert report.recorded_total == replay.total_simulated_seconds()
    # Only the timed job moves: map LPT([2,2], 1) = 4 vs recorded 2.
    assert report.predicted_total == pytest.approx(7.5 + 1.0 + 4.0)
    assert len(report.jobs) == 1
    payload = report.as_dict()
    assert payload["as_recorded_jobs"] == 1
    assert payload["as_recorded_seconds"] == 7.5
    text = render_whatif(report)
    assert "1 job(s) recorded without timing carried as-recorded" in text


def test_parse_scenario_roundtrip():
    scenario = parse_scenario(
        ["num_workers=8", "combiner=off", "scheduler=lpt"]
    )
    assert scenario.num_workers == 8
    assert scenario.combiner is False
    assert scenario.scheduler == "lpt"
    assert not scenario.empty
    assert "num_workers=8" in scenario.describe()
    assert parse_scenario([]).empty


@pytest.mark.parametrize(
    "bad",
    [
        "num_workers",  # no '='
        "warp_drive=9",  # unknown key
        "num_workers=many",  # not an int
        "combiner=maybe",  # not on/off
        "scheduler=fifo",  # unknown scheduler
        "nodes=0",  # below 1
        "split_factor=0",  # not a knob: re-splitting changes the jobs
    ],
)
def test_parse_scenario_rejects(bad):
    with pytest.raises(ScenarioError):
        parse_scenario([bad])


def test_report_is_json_ready_and_renders():
    report = whatif_replay(recorded_run(), Scenario(nodes=2))
    payload = json.loads(json.dumps(report.as_dict()))
    assert payload["scenario"]["nodes"] == 2
    assert payload["predicted_total"] > payload["recorded_total"]
    text = render_whatif(report)
    assert "scenario: nodes=2" in text
    assert "predicted makespan" in text
    assert "most-moved jobs" in text


def test_cli_rejects_split_factor_and_lists_the_knobs(tmp_path, capsys):
    """Re-splitting changes the mapper votes and so the jobs that run,
    which re-scheduling the recorded jobs cannot predict: the knob is
    gone, and asking for it is a usage error naming the valid ones."""
    from repro.cli import main

    path = tmp_path / "run.jsonl"
    path.write_text(
        "".join(json.dumps(record) + "\n" for record in recorded_run().records)
    )
    assert main(["whatif", str(path), "--set", "split_factor=2"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario key 'split_factor'" in err
    assert "nodes, num_workers, map_slots, reduce_slots, combiner, scheduler" in err
