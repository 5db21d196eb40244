"""The experiment CLI."""

import pytest

from repro.cli import ABLATIONS, DESCRIPTIONS, EXPERIMENTS, build_parser, main


def test_every_entry_has_a_description():
    for name in list(EXPERIMENTS) + list(ABLATIONS):
        assert name in DESCRIPTIONS


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in EXPERIMENTS:
        assert name in out
    for name in ABLATIONS:
        assert name in out


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "table99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_experiment_command_runs_and_writes(tmp_path, capsys, monkeypatch):
    # Patch in a tiny experiment so the CLI test stays fast.
    from repro.evaluation.experiments import ExperimentResult

    monkeypatch.setitem(
        EXPERIMENTS, "table1", lambda: ExperimentResult(name="t", text="TINY")
    )
    out_file = tmp_path / "report.txt"
    assert main(["experiment", "table1", "--out", str(out_file)]) == 0
    assert "TINY" in capsys.readouterr().out
    assert out_file.read_text() == "TINY\n"


def test_ablation_command_runs(capsys, monkeypatch):
    from repro.evaluation.experiments import ExperimentResult

    monkeypatch.setitem(
        ABLATIONS, "vote_rules", lambda: ExperimentResult(name="a", text="ABL")
    )
    assert main(["ablation", "vote_rules"]) == 0
    assert "ABL" in capsys.readouterr().out


def test_all_command_writes_directory(tmp_path, capsys, monkeypatch):
    from repro.evaluation.experiments import ExperimentResult

    tiny = lambda: ExperimentResult(name="x", text="X")
    for name in list(EXPERIMENTS):
        monkeypatch.setitem(EXPERIMENTS, name, tiny)
    for name in list(ABLATIONS):
        monkeypatch.setitem(ABLATIONS, name, tiny)
    assert main(["all", "--out-dir", str(tmp_path)]) == 0
    written = {p.name for p in tmp_path.iterdir()}
    assert "table1.txt" in written
    assert "vote_rules.txt" in written


def test_fault_tolerance_flags_set_environment(monkeypatch):
    from repro.core.config import CHECKPOINT_DIR_ENV, RESUME_ENV
    from repro.mapreduce.executors import MAX_JOB_RETRIES_ENV

    # setenv-then-delenv registers teardown that *removes* each var, so
    # the values main() writes cannot leak into later tests.
    for name in (CHECKPOINT_DIR_ENV, RESUME_ENV, MAX_JOB_RETRIES_ENV):
        monkeypatch.setenv(name, "scratch")
        monkeypatch.delenv(name)
    assert (
        main(
            [
                "--checkpoint-dir",
                "ck/gmeans",
                "list",
                "--resume",
                "--max-job-retries",
                "2",
            ]
        )
        == 0
    )
    import os

    assert os.environ[CHECKPOINT_DIR_ENV] == "ck/gmeans"
    assert os.environ[RESUME_ENV] == "latest"  # bare flag means newest
    assert os.environ[MAX_JOB_RETRIES_ENV] == "2"


def test_resume_accepts_explicit_checkpoint_after_command():
    args = build_parser().parse_args(["list", "--resume", "ck/iter-00007"])
    assert args.resume == "ck/iter-00007"
    # Flags in front of the subcommand survive the subparser pass.
    args = build_parser().parse_args(["--executor", "processes", "list"])
    assert args.executor == "processes"
    # The removed threads backend is a usage error, not a silent no-op.
    with pytest.raises(SystemExit) as excinfo:
        build_parser().parse_args(["--executor", "threads", "list"])
    assert excinfo.value.code == 2
