"""Ablations of the paper's design choices.

Section 3 of the paper makes several implementation decisions with
brief justifications; each function here isolates one of them and
measures its effect on the same data:

* ``kmeans_iterations`` — "we found experimentally that only two
  k-means iterations are sufficient";
* the hybrid mapper/reducer test strategy and its switching rule;
* the mapper-vote combination rule (unspecified in the paper);
* the membership anchor (paper-literal "previous" vs this
  implementation's "centroid" default);
* weight-balanced partitioning under skew (the paper's future work);
* initial-center selection (serial random vs k-means++ vs the cited
  MapReduce k-means|| of Bahmani et al.);
* Spark-style input caching (the paper's future work).

The single-knob G-means sweeps (k-means passes, test strategy, vote
rule, input caching, normality test) are one loop over a
:class:`_Sweep` spec each: the knob's values and where each value
lands come from the component manifest shared with ``repro ablate``,
so a knob's variants are declared exactly once. The other ablations
vary the workload itself and keep their own bodies.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.clustering.external import adjusted_rand_index
from repro.clustering.metrics import assign_nearest, average_distance
from repro.core.config import MRGMeansConfig
from repro.core.gmeans_mr import MRGMeans
from repro.core.kmeans_mr import MRKMeans
from repro.core.test_clusters import make_test_clusters_job
from repro.data.generator import generate_gaussian_mixture, paper_family_dataset
from repro.evaluation.experiments import EXPERIMENT_ALPHA, ExperimentResult
from repro.evaluation.harness import BENCH_COST, build_world
from repro.evaluation.tables import render_table
from repro.mapreduce.partitioners import (
    make_weight_balanced_partitioner,
    reduce_load_imbalance,
)
from repro.observability.components import component, component_values


def _quality(points: np.ndarray, centers: np.ndarray) -> tuple[float, float]:
    """(average distance, worst cluster RMS radius)."""
    labels, sq = assign_nearest(points, centers)
    worst = 0.0
    for c in range(centers.shape[0]):
        member = sq[labels == c]
        if member.size:
            worst = max(worst, float(np.sqrt(member.mean())))
    return float(np.sqrt(sq).mean()), worst


def _fit_metrics(world, result, k_real: int) -> dict:
    """Every row metric a G-means sweep can report, for one fit."""
    labels, sq = assign_nearest(world.points, result.centers)
    return {
        "k_found": result.k_found,
        "ratio": result.k_found / k_real,
        "avg_distance": float(np.sqrt(sq).mean()),
        "ari": adjusted_rand_index(world.mixture.labels, labels),
        "time_seconds": result.simulated_seconds,
        "dataset_reads": result.totals.dataset_reads,
        "disk_reads": result.totals.dataset_reads,
        "cached_reads": result.totals.cached_reads,
        "iterations": result.iterations,
        "used": "+".join(
            sorted({h.strategy for h in result.history if h.strategy != "none"})
        ),
    }


@dataclass(frozen=True)
class _Sweep:
    """One single-knob G-means sweep over a manifest component.

    Rows are keyed by the component's target field, then ``metrics``
    (keys of :func:`_fit_metrics`); ``headers`` label those columns.
    ``config`` pins more :class:`MRGMeansConfig` fields and ``cost``
    overrides ``BENCH_COST`` fields; ``title`` may use ``{k_real}``.
    """

    name: str
    component: str
    dataset_prefix: str
    metrics: "tuple[str, ...]"
    headers: "tuple[str, ...]"
    title: str
    config: "dict[str, object]" = field(default_factory=dict)
    cost: "dict[str, float]" = field(default_factory=dict)

    def run(self, k_real: int, n_points: int, seed: int, values=None):
        """Fit G-means once per component value on one dataset.

        A value lands where the component's ``target`` says:
        ``gmeans.*`` sets an :class:`MRGMeansConfig` field,
        ``driver.*`` passes an :class:`MRGMeans` keyword argument.
        """
        comp = component(self.component)
        mixture = paper_family_dataset(k_real, n_points, rng=seed)
        cost = replace(BENCH_COST, **self.cost) if self.cost else None
        rows = []
        for value in values or comp.values:
            world = build_world(
                mixture, nodes=4, target_splits=16, seed=seed,
                dataset_name=f"{self.dataset_prefix}{value}", cost=cost,
            )
            config = {"seed": seed, "alpha": EXPERIMENT_ALPHA, **self.config}
            driver = {}
            (config if comp.namespace == "gmeans" else driver)[comp.field] = value
            result = MRGMeans(
                world.runtime, MRGMeansConfig(**config), **driver
            ).fit(world.dataset)
            metrics = _fit_metrics(world, result, k_real)
            rows.append(
                {comp.field: value, **{key: metrics[key] for key in self.metrics}}
            )
        text = render_table(
            list(self.headers),
            [list(row.values()) for row in rows],
            title=self.title.format(k_real=k_real),
        )
        return ExperimentResult(name=f"ablation_{self.name}", rows=rows, text=text)


def ablation_kmeans_iterations(
    iterations_list: "list[int] | None" = None,
    k_real: int = 16,
    n_points: int = 30_000,
    seed: int = 13,
) -> ExperimentResult:
    """How many k-means refinement passes per G-means round?

    The paper settles on two; this sweeps 1..4 and reports the
    quality/cost trade-off.
    """
    return _Sweep(
        "kmeans_iterations", "kmeans_iterations", "km",
        metrics=("k_found", "avg_distance", "time_seconds", "dataset_reads"),
        headers=("k-means passes/round", "k_found", "avg distance",
                 "time (sim s)", "reads"),
        title="Ablation — k-means passes per G-means iteration"
        " (k_real={k_real}, paper uses 2)",
    ).run(k_real, n_points, seed, iterations_list)


def ablation_test_strategy(
    k_real: int = 16,
    n_points: int = 30_000,
    seed: int = 17,
) -> ExperimentResult:
    """Mapper-side vs reducer-side vs auto (the hybrid rule)."""
    return _Sweep(
        "test_strategy", "test_strategy", "strat-",
        metrics=("used", "k_found", "avg_distance", "time_seconds"),
        headers=("configured", "strategies used", "k_found", "avg distance",
                 "time (sim s)"),
        title="Ablation — normality-test strategy (TestFewClusters vs"
        " TestClusters)",
    ).run(k_real, n_points, seed)


def ablation_vote_rules(
    k_real: int = 16,
    n_points: int = 30_000,
    seed: int = 19,
) -> ExperimentResult:
    """How mapper votes combine into a verdict (unspecified in paper)."""
    return _Sweep(
        "vote_rules", "vote_rule", "vote-",
        metrics=("k_found", "ratio", "avg_distance", "iterations"),
        headers=("vote rule", "k_found", "ratio", "avg distance",
                 "iterations"),
        title="Ablation — mapper-vote combination (more eager rejection"
        " splits more)",
        config={"strategy": "mapper"},
    ).run(k_real, n_points, seed)


def ablation_cache_input(
    k_real: int = 16,
    n_points: int = 30_000,
    seed: int = 31,
) -> ExperimentResult:
    """Spark-style in-memory input between chained jobs.

    The disk term is scaled to the dataset size (the paper's full
    scans cost minutes; see examples/cluster_capacity_planning.py).
    """
    return _Sweep(
        "cache_input", "cache_input", "cache-",
        metrics=("k_found", "disk_reads", "cached_reads", "time_seconds"),
        headers=("cache input", "k_found", "disk reads", "cached reads",
                 "time (sim s)"),
        title="Ablation — Spark-style dataset caching between chained jobs",
        cost={"disk_read_mbps": 0.1},
    ).run(k_real, n_points, seed)


def ablation_normality_tests(
    k_real: int = 16,
    n_points: int = 30_000,
    seed: int = 37,
) -> ExperimentResult:
    """Anderson-Darling vs the cheaper alternatives.

    Hamerly & Elkan chose Anderson-Darling for its power against the
    alternatives that matter here (a cluster hiding two modes); this
    ablation swaps in Jarque-Bera (moments) and Lilliefors (KS) and
    measures how the discovered clustering changes.
    """
    return _Sweep(
        "normality_tests", "normality_test", "norm-",
        metrics=("k_found", "ratio", "avg_distance", "ari", "iterations"),
        headers=("test", "k_found", "ratio", "avg distance", "ARI vs truth",
                 "iterations"),
        title="Ablation — normality test powering the split decision",
    ).run(k_real, n_points, seed)


def ablation_anchor_modes(
    k_real: int = 64,
    n_points: int = 40_000,
    seed: int = 6,
) -> ExperimentResult:
    """Membership anchor: paper-literal previous centers vs children
    centroid (this implementation's default)."""
    seeds = list(range(seed, seed + 8))
    variants = [
        (
            "centroid (default)" if anchor == "centroid" else "paper-literal",
            anchor,
            anchor == "centroid",
        )
        for anchor in component_values("anchor")
    ]
    # A healthy sigma=2 cluster in R^10 has RMS radius 2*sqrt(10) ~ 6.3;
    # a "coverage hole" is a found cluster half again wider than that —
    # a frozen multi-cluster aggregate.
    hole_radius = 1.5 * 2.0 * np.sqrt(10)
    rows = []
    for label, anchor, recenter in variants:
        holes = 0
        distances = []
        ratios = []
        for s in seeds:
            mixture = paper_family_dataset(k_real, n_points, rng=s)
            world = build_world(
                mixture, nodes=4, target_splits=16, seed=s,
                dataset_name=f"anchor-{label}-{s}",
            )
            cfg = MRGMeansConfig(
                seed=s,
                alpha=EXPERIMENT_ALPHA,
                anchor=anchor,
                recenter_on_accept=recenter,
            )
            result = MRGMeans(world.runtime, cfg).fit(world.dataset)
            avg, worst = _quality(world.points, result.centers)
            holes += worst > hole_radius
            distances.append(avg)
            ratios.append(result.k_found / k_real)
        rows.append(
            {
                "variant": label,
                "anchor": anchor,
                "recenter_on_accept": recenter,
                "seeds": len(seeds),
                "coverage_holes": holes,
                "mean_avg_distance": float(np.mean(distances)),
                "mean_ratio": float(np.mean(ratios)),
            }
        )
    text = render_table(
        ["variant", "runs", "coverage holes", "mean avg distance", "mean k ratio"],
        [
            [r["variant"], r["seeds"], r["coverage_holes"],
             r["mean_avg_distance"], r["mean_ratio"]]
            for r in rows
        ],
        title="Ablation — test membership anchor across seeds (a coverage"
        " hole = a frozen multi-cluster aggregate)",
    )
    return ExperimentResult(name="ablation_anchor_modes", rows=rows, text=text)


def ablation_balanced_partitioning(
    n_points: int = 60_000,
    seed: int = 23,
) -> ExperimentResult:
    """Skew: hash vs weight-balanced partitioning of TestClusters.

    A mixture with Zipf-ish cluster sizes sends one giant cluster's
    projections to a single hash-chosen reducer; balancing by known
    cluster sizes spreads the rest of the keys away from it.
    """
    weights = np.array([0.55, 0.15, 0.08, 0.06, 0.05, 0.04, 0.03, 0.04])
    mixture = generate_gaussian_mixture(
        n_points, 8, 5, rng=seed, weights=weights, center_low=0, center_high=200
    )
    # Make reduce-side work dominate task startup so load imbalance is
    # visible in the phase time (the paper's concern is exactly this
    # regime: heavy reducers serialising the phase).
    skew_cost = replace(
        BENCH_COST, seconds_per_ad_point=1e-5, task_startup_seconds=0.0
    )
    world = build_world(
        mixture, nodes=2, target_splits=16, seed=seed, dataset_name="skewed",
        cost=skew_cost,
    )
    labels, _ = assign_nearest(mixture.points, mixture.centers)
    sizes = {c: int((labels == c).sum()) for c in range(8)}
    pairs = {
        c: np.vstack(
            [mixture.centers[c] + 0.5, mixture.centers[c] - 0.5]
        )
        for c in range(8)
    }
    num_reduce = 4
    rows = []
    for mode in component_values("partitioner"):
        partitioner = (
            make_weight_balanced_partitioner(sizes, num_reduce)
            if mode == "balanced"
            else None
        )
        job = make_test_clusters_job(
            mixture.centers, pairs, EXPERIMENT_ALPHA, num_reduce,
            name=f"TestClusters-{mode}", partitioner=partitioner,
        )
        result = world.runtime.run(job, world.dataset)
        rows.append(
            {
                "partitioner": mode,
                "reduce_imbalance": reduce_load_imbalance(result),
                "reduce_seconds": result.timing.reduce_seconds,
            }
        )
    text = render_table(
        ["partitioner", "reduce load imbalance (max/mean)", "reduce phase (sim s)"],
        [[r["partitioner"], r["reduce_imbalance"], r["reduce_seconds"]] for r in rows],
        title="Ablation — skewed cluster sizes, hash vs weight-balanced"
        " partitioning (the paper's future work)",
    )
    return ExperimentResult(
        name="ablation_balanced_partitioning", rows=rows, text=text
    )


def ablation_init_methods(
    k: int = 16,
    n_points: int = 30_000,
    seed: int = 29,
) -> ExperimentResult:
    """Initial centers: serial random (the paper's PickInitialCenters)
    vs serial k-means++ vs MapReduce k-means|| (both cited as drop-in
    replacements)."""
    mixture = generate_gaussian_mixture(
        n_points, k, 10, rng=seed, center_low=0, center_high=150
    )
    rows = []
    for method in component_values("init_method"):
        world = build_world(
            mixture, nodes=4, target_splits=16, seed=seed,
            dataset_name=f"init-{method}",
        )
        result = MRKMeans(
            world.runtime, k=k, init=method, max_iterations=10, seed=seed
        ).fit(world.dataset)
        labels, _ = assign_nearest(result.centers, mixture.centers)
        covered = len(set(labels.tolist()))
        rows.append(
            {
                "init": method,
                "avg_distance": average_distance(world.points, result.centers),
                "true_clusters_covered": covered,
                "iterations": result.iterations,
                "time_seconds": result.simulated_seconds,
            }
        )
    text = render_table(
        ["init", "avg distance", "true clusters covered", "k-means iterations",
         "time (sim s)"],
        [
            [r["init"], r["avg_distance"], r["true_clusters_covered"],
             r["iterations"], r["time_seconds"]]
            for r in rows
        ],
        title=f"Ablation — initial-center selection for k-means (k={k})",
    )
    return ExperimentResult(name="ablation_init_methods", rows=rows, text=text)


def ablation_cluster_shapes(
    k_real: int = 6,
    n_points: int = 24_000,
    seed: int = 41,
) -> ExperimentResult:
    """How MR G-means behaves when clusters are not spherical Gaussians.

    Compact shapes are forgiving: anisotropic ellipsoids project to
    Gaussians along every axis, and even uniform balls project to a
    bell-shaped marginal that the per-mapper votes accept (the serial
    full-sample test is stricter — see the data-families tests). The
    killer is *background noise*: a uniform field is never Gaussian at
    any scale, so k explodes — cleanly, though: real clusters stay
    pure and the merge post-processing recovers them.
    """
    from repro.clustering.external import purity as _purity
    from repro.data.families import (
        anisotropic_mixture,
        noisy_mixture,
        uniform_ball_mixture,
    )

    datasets = {
        "gaussian (paper)": generate_gaussian_mixture(
            n_points, k_real, 4, rng=seed, center_low=0, center_high=150
        ),
        "anisotropic (cond 8)": anisotropic_mixture(
            n_points, k_real, 4, condition_number=8.0, rng=seed,
            center_low=0, center_high=600,
        ),
        "uniform balls": uniform_ball_mixture(
            n_points, k_real, 4, radius=3.0, rng=seed,
            center_low=0, center_high=150,
        ),
        "gaussian + 5% noise": noisy_mixture(
            n_points, k_real, 4, noise_fraction=0.05, rng=seed,
            center_low=0, center_high=150,
        ),
    }
    rows = []
    for label, mixture in datasets.items():
        world = build_world(
            mixture, nodes=4, target_splits=16, seed=seed,
            dataset_name=f"shape-{label}",
        )
        cfg = MRGMeansConfig(seed=seed, alpha=EXPERIMENT_ALPHA)
        result = MRGMeans(world.runtime, cfg).fit(world.dataset)
        labels, _ = assign_nearest(world.points, result.centers)
        clustered = mixture.labels >= 0
        rows.append(
            {
                "dataset": label,
                "k_found": result.k_found,
                "ratio": result.k_found / k_real,
                "ari": adjusted_rand_index(
                    mixture.labels[clustered], labels[clustered]
                ),
                "purity": _purity(
                    mixture.labels[clustered], labels[clustered]
                ),
            }
        )
    text = render_table(
        ["dataset", "k_found", "ratio", "ARI vs truth", "purity"],
        [
            [r["dataset"], r["k_found"], r["ratio"], r["ari"], r["purity"]]
            for r in rows
        ],
        title=f"Ablation — cluster shape robustness (k_real={k_real})",
    )
    return ExperimentResult(name="ablation_cluster_shapes", rows=rows, text=text)


def ablation_algorithms(
    k_real: int = 16,
    n_points: int = 30_000,
    seed: int = 43,
) -> ExperimentResult:
    """Head to head: MR G-means vs MR X-means vs fixed-k baselines.

    The paper's related work reports that G-means "seems to outperform
    X-means"; with both ported to the same substrate the comparison is
    direct: discovered k, clustering accuracy against the generating
    labels, and total simulated cost.
    """
    from repro.core.xmeans_mr import MRXMeans

    mixture = paper_family_dataset(k_real, n_points, rng=seed)
    rows = []

    def record(label, k_found, centers, totals):
        labels, _ = assign_nearest(mixture.points, centers)
        rows.append(
            {
                "algorithm": label,
                "k_found": k_found,
                "ari": adjusted_rand_index(mixture.labels, labels),
                "avg_distance": average_distance(mixture.points, centers),
                "time_seconds": totals.simulated_seconds,
                "dataset_reads": totals.dataset_reads,
            }
        )

    world = build_world(
        mixture, nodes=4, target_splits=16, seed=seed, dataset_name="alg-g"
    )
    g = MRGMeans(
        world.runtime, MRGMeansConfig(seed=seed, alpha=EXPERIMENT_ALPHA)
    ).fit(world.dataset)
    record("MR G-means", g.k_found, g.centers, g.totals)

    world = build_world(
        mixture, nodes=4, target_splits=16, seed=seed, dataset_name="alg-x"
    )
    x = MRXMeans(world.runtime, seed=seed).fit(world.dataset)
    record("MR X-means", x.k_found, x.centers, x.totals)

    world = build_world(
        mixture, nodes=4, target_splits=16, seed=seed, dataset_name="alg-k"
    )
    baseline = MRKMeans(
        world.runtime, k=k_real, init="kmeans++", max_iterations=10, seed=seed
    ).fit(world.dataset)
    record(
        "MR k-means (true k, ++ init)",
        baseline.k,
        baseline.centers,
        baseline.totals,
    )

    text = render_table(
        ["algorithm", "k_found", "ARI vs truth", "avg distance",
         "time (sim s)", "reads"],
        [
            [r["algorithm"], r["k_found"], r["ari"], r["avg_distance"],
             r["time_seconds"], r["dataset_reads"]]
            for r in rows
        ],
        title=f"Ablation — algorithms head to head (k_real={k_real};"
        " k-means is given the true k)",
    )
    return ExperimentResult(name="ablation_algorithms", rows=rows, text=text)
