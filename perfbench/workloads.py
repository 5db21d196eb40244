"""The benchmark's workloads: what each one runs, and its inputs.

Each workload is a fixed Gaussian mixture (its ``structure_seed``) that
``--seed`` presents through a seeded isometry: a random rotation plus a
translation of every point. The algorithm sees different coordinates
for every seed, yet G-means is invariant under isometries, so k, the
iteration count and the simulated cost stay the same across seeds up to
floating-point rounding. A seed that redrew the mixture itself would
move k from 16 to 91 on ``reducer-shuffle``, and fit time with it, so
the run-to-run spread would measure the data instead of the system.

The program receives only the generated points; the ground truth stays
here for the output checks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace

import numpy as np

from repro.core.config import MRGMeansConfig
from repro.data.generator import GaussianMixture, paper_family_dataset
from repro.evaluation.harness import World, build_world
from repro.observability.journal import Journal

DEFAULT_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_points: int
    true_k: int
    splits: int
    nodes: int
    structure_seed: int
    #: ``"processes"`` runs on nproc workers over the shared data plane;
    #: ``None`` is the default backend as shipped (no executor set).
    executor: "str | None"
    journalled: bool
    #: k_found and iterations at ``DEFAULT_SEED`` and full size.
    expected_k: int
    expected_iterations: int
    #: Lowest acceptable purity of the found clustering against the
    #: true labels (each found cluster counts its majority label).
    min_purity: float
    #: Seconds of one untraced fit on a 2-CPU box in the default
    #: environment; sets how many fits fill ``--seconds``.
    nominal_fit_s: float

    def scaled(self, n_points: int, splits: int) -> "Workload":
        """A smaller copy for smoke tests. Tiny clusters cost the fit its
        purity, so the floor only rejects garbage; there are no expected
        values to check."""
        return replace(
            self, n_points=n_points, splits=splits, expected_k=0,
            expected_iterations=0, min_purity=0.5,
        )

    @property
    def full_size(self) -> bool:
        return self.expected_k > 0

    @property
    def workers(self) -> int:
        return nproc() if self.executor == "processes" else 1


WORKLOADS = (
    Workload(
        name="table1-parallel",
        why="Table-1 fit (240k x 10-d, 16 clusters) on nproc worker processes "
        "over shared memory: distance kernel and AD test dominate, few large tasks",
        n_points=240_000, true_k=16, splits=16, nodes=4, structure_seed=3,
        executor="processes", journalled=False,
        expected_k=34, expected_iterations=12, min_purity=0.9, nominal_fit_s=6.0,
    ),
    Workload(
        name="reducer-shuffle",
        why="20k points, 32 clusters, 64 splits on one node: auto switches to "
        "reducer-side tests, so shuffle, byte accounting, merging and IPC dominate",
        n_points=20_000, true_k=32, splits=64, nodes=1, structure_seed=2,
        executor="processes", journalled=False,
        expected_k=54, expected_iterations=10, min_purity=0.8, nominal_fit_s=2.5,
    ),
    Workload(
        name="journalled-serial",
        why="60k points, 8 clusters on the default backend, one BLAS thread, with the file "
        "journal, anomaly watchdog and task profiling armed: the only workload where the journal works",
        n_points=60_000, true_k=8, splits=16, nodes=4, structure_seed=11,
        executor=None, journalled=True,
        expected_k=21, expected_iterations=9, min_purity=0.9, nominal_fit_s=1.0,
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Inputs:
    points: np.ndarray
    labels: np.ndarray  # ground truth, never shown to the program
    centers: np.ndarray


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """The workload's mixture seen through the isometry ``seed`` draws."""
    mixture = paper_family_dataset(
        n_clusters=workload.true_k,
        n_points=workload.n_points,
        rng=workload.structure_seed,
    )
    rng = np.random.default_rng(seed)
    dims = mixture.dimensions
    q, r = np.linalg.qr(rng.standard_normal((dims, dims)))
    q *= np.sign(np.diag(r))
    shift = rng.uniform(-50.0, 50.0, size=dims)
    points = mixture.points @ q
    points += shift
    return Inputs(
        points=points,
        labels=mixture.labels,
        centers=mixture.centers @ q + shift,
    )


def gmeans_config(workload: Workload) -> MRGMeansConfig:
    return MRGMeansConfig(seed=workload.structure_seed)


def build(workload: Workload, points: np.ndarray, journal_path: "str | None") -> World:
    """A fresh world for one fit: DFS ingest, runtime and executor wiring.

    The journalled workload builds its journal the way a user gets one,
    through ``Journal.from_env`` with a fresh ``REPRO_JOURNAL`` path.
    """
    program_input = GaussianMixture(
        points=points,
        labels=np.empty(0, dtype=np.int64),
        centers=np.empty((0, points.shape[1])),
        cluster_std=float("nan"),
    )
    backend = {}
    if workload.executor is not None:
        backend = dict(
            executor=workload.executor,
            num_workers=workload.workers,
            data_plane="shared",
        )
    journal = None
    if workload.journalled:
        journal = Journal.from_env(
            {"REPRO_JOURNAL": journal_path, "REPRO_ANOMALY": "on"}
        )
    return build_world(
        program_input,
        nodes=workload.nodes,
        target_splits=workload.splits,
        seed=workload.structure_seed,
        journal=journal,
        profile_tasks=True if workload.journalled else None,
        **backend,
    )


def serial_twin(workload: Workload) -> Workload:
    """The same inputs and data plane on the serial backend."""
    return replace(workload, executor="serial")


def purity(points: np.ndarray, labels: np.ndarray, centers: np.ndarray) -> float:
    """Share of points whose found cluster's majority true label is theirs.

    Works in row chunks so the check adds little to the peak memory the
    run reports.
    """
    table = np.zeros((centers.shape[0], int(labels.max()) + 1), dtype=np.int64)
    center_sq = np.sum(centers * centers, axis=1)
    for start in range(0, points.shape[0], 8192):
        block = points[start:start + 8192]
        found = np.argmin(center_sq - 2.0 * block @ centers.T, axis=1)
        np.add.at(table, (found, labels[start:start + 8192]), 1)
    return float(table.max(axis=1).sum() / points.shape[0])
