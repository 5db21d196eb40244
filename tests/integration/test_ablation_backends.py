"""The ablation engine rides the determinism contract.

An importance report contains only simulated, replay-accounted fields,
so the same seeded grid must serialize byte-identically no matter which
executor backend actually ran the tasks — the engine's infrastructure
rows *assert* the contract per flip; these tests assert it for the
report artifact as a whole.
"""

import json

from repro.observability.ablate import (
    WorkloadSpec,
    run_ablation,
    write_importance,
)

BACKENDS = ("serial", "processes")

SPEC = WorkloadSpec(n_points=500)


def grid_bytes(tmp_path, backend, monkeypatch) -> bytes:
    monkeypatch.setenv("REPRO_EXECUTOR", backend)
    report = run_ablation(SPEC, components=["combiner", "split_factor"])
    out_dir = tmp_path / backend
    written = write_importance(report, out_dir=str(out_dir))
    return open(written["json"], "rb").read()


def test_ablation_report_byte_identical_across_backends(
    tmp_path, monkeypatch
):
    reference = grid_bytes(tmp_path, "serial", monkeypatch)
    assert json.loads(reference)["ok"]
    for backend in BACKENDS[1:]:
        assert grid_bytes(tmp_path, backend, monkeypatch) == reference, backend


def test_full_grid_infrastructure_rows_confirm_invariance():
    """The committed-report shape of the contract: every infrastructure
    flip in a full grid reports invariant_ok with all-zero deltas."""
    report = run_ablation(SPEC)
    infra = [v for v in report.variants if v.simulated_invariant]
    assert {v.component for v in infra} == {"executor", "data_plane"}
    for v in infra:
        assert v.invariant_ok, v.component
        assert v.delta_makespan == 0.0
        assert v.delta_shuffle_bytes == 0
        assert v.delta_wasted_seconds == 0.0
        assert v.events_delta == {}
