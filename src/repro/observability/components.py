"""The declarative component manifest: every tunable knob in one place.

The ablation engine (:mod:`repro.observability.ablate`) and the
design-choice ablations (:mod:`repro.evaluation.ablations`) both need
the same answer to "what are the knobs, what is each one's baseline,
and what do you flip it to?". This module is that single answer: a
:class:`Component` per knob, collected in :data:`MANIFEST`.
Registering a new knob here makes it ablatable (``repro ablate``) and
sweepable (the evaluation ablations pull their value lists and targets
from here) with no further wiring.

Each component names a dotted ``target`` telling the harness where the
value lands:

``gmeans.<field>``
    an :class:`~repro.core.config.MRGMeansConfig` field;
``driver.<field>``
    an :class:`~repro.core.gmeans_mr.MRGMeans` constructor argument
    (e.g. ``cache_input``);
``kmeans.<field>``
    an :class:`~repro.core.kmeans_mr.MRKMeans` constructor argument;
``runtime.<field>``
    a :class:`~repro.mapreduce.runtime.MapReduceRuntime` constructor
    argument (e.g. ``locality``);
``faults.<field>``
    a :class:`~repro.mapreduce.faults.FaultModel` field;
``config.<field>``
    a :class:`~repro.mapreduce.executors.RuntimeConfig` field;
``workload.<field>``
    a property of the generated workload itself (e.g. ``split_factor``
    scales the DFS split count).

Components in the ``infrastructure`` layer are *simulated-invariant*:
flipping them may change wall-clock behaviour but must not move a
single simulated metric — the ablation engine asserts exactly that,
turning the determinism contract into a measured row of the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Manifest layers, from "changes the algorithm's answers" down to
#: "changes only how the same work is executed".
LAYERS = ("algorithm", "runtime", "infrastructure")


class ComponentError(KeyError):
    """An unknown component name was requested."""


@dataclass(frozen=True)
class Component:
    """One declaratively-registered knob.

    ``baseline`` is the engine's reference value; ``flips`` are the
    single-flip variants ``repro ablate`` runs against it. ``sweep`` is
    the full ordered value list the evaluation ablations iterate
    (defaults to ``(baseline,) + flips``).
    """

    name: str
    description: str
    layer: str
    target: str
    baseline: object
    flips: "tuple[object, ...]" = ()
    sweep: "tuple[object, ...] | None" = None
    #: Engine components are run by ``repro ablate``; evaluation-only
    #: components merely contribute their sweep to
    #: :mod:`repro.evaluation.ablations`.
    engine: bool = True
    #: Human-readable rendering of a flipped value (e.g. the
    #: checkpointing component flips a directory name but reads "on").
    flip_labels: "dict[object, str]" = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.layer not in LAYERS:
            raise ValueError(
                f"component {self.name!r}: layer must be one of {LAYERS}, "
                f"got {self.layer!r}"
            )
        if "." not in self.target:
            raise ValueError(
                f"component {self.name!r}: target must be dotted "
                f"(namespace.field), got {self.target!r}"
            )
        if self.baseline in self.flips:
            raise ValueError(
                f"component {self.name!r}: baseline {self.baseline!r} "
                "must not appear in flips"
            )
        if self.engine and not self.flips:
            raise ValueError(
                f"component {self.name!r}: an engine component needs at "
                "least one flip"
            )

    @property
    def namespace(self) -> str:
        return self.target.split(".", 1)[0]

    @property
    def field(self) -> str:
        return self.target.split(".", 1)[1]

    @property
    def simulated_invariant(self) -> bool:
        """Infrastructure flips must not move any simulated metric."""
        return self.layer == "infrastructure"

    @property
    def values(self) -> "tuple[object, ...]":
        """Full ordered value list (baseline included)."""
        if self.sweep is not None:
            return self.sweep
        return (self.baseline,) + self.flips

    def label(self, value: object) -> str:
        """Render one flipped value for reports."""
        if value in self.flip_labels:
            return self.flip_labels[value]
        if isinstance(value, bool):
            return "on" if value else "off"
        return str(value)


#: Every registered knob, in report order. The engine components cover
#: the knob surface named by the ROADMAP's self-driving-ablation item;
#: the evaluation-only components carry the design-choice sweeps of
#: :mod:`repro.evaluation.ablations` so no flip list is written twice.
MANIFEST: "tuple[Component, ...]" = (
    # -- engine components: runtime & infrastructure knobs ---------------
    Component(
        name="combiner",
        description="mapper-side pre-aggregation before the shuffle",
        layer="runtime",
        target="gmeans.use_combiner",
        baseline=True,
        flips=(False,),
    ),
    Component(
        name="test_strategy",
        description="hybrid mapper/reducer normality testing (auto) vs "
        "always reducer-side TestClusters",
        layer="algorithm",
        target="gmeans.strategy",
        baseline="auto",
        flips=("reducer",),
        sweep=("mapper", "reducer", "auto"),
        flip_labels={"reducer": "always-TestClusters"},
    ),
    Component(
        name="locality",
        description="schedule map tasks onto nodes holding their split",
        layer="runtime",
        target="runtime.locality",
        baseline=False,
        flips=(True,),
    ),
    Component(
        name="speculative_execution",
        description="race slow tasks against speculative clones",
        layer="runtime",
        target="faults.speculative_execution",
        baseline=False,
        flips=(True,),
    ),
    Component(
        name="checkpointing",
        description="per-iteration checkpoint writes (cadence: off vs "
        "every iteration)",
        layer="runtime",
        target="gmeans.checkpoint_dir",
        baseline="",
        flips=("checkpoints",),
        flip_labels={"checkpoints": "every-iteration", "": "off"},
    ),
    Component(
        name="split_factor",
        description="DFS split granularity relative to the workload's "
        "target split count",
        layer="runtime",
        target="workload.split_factor",
        baseline=1.0,
        flips=(0.5, 2.0),
    ),
    Component(
        name="executor",
        description="task-execution backend (wall-clock only)",
        layer="infrastructure",
        target="config.executor",
        baseline="serial",
        flips=("processes",),
    ),
    Component(
        name="data_plane",
        description="pickled copies vs zero-copy shared memory "
        "(wall-clock only)",
        layer="infrastructure",
        target="config.data_plane",
        baseline="pickled",
        flips=("shared",),
    ),
    # -- evaluation-only components: design-choice sweeps ----------------
    Component(
        name="kmeans_iterations",
        description="k-means refinement passes per G-means round "
        "(paper: 2)",
        layer="algorithm",
        target="gmeans.kmeans_iterations",
        baseline=2,
        flips=(1, 3, 4),
        sweep=(1, 2, 3, 4),
        engine=False,
    ),
    Component(
        name="vote_rule",
        description="how mapper votes combine into a split verdict",
        layer="algorithm",
        target="gmeans.vote_rule",
        baseline="weighted_majority",
        flips=("any_reject", "all_reject"),
        engine=False,
    ),
    Component(
        name="anchor",
        description="test membership anchor: paper-literal previous "
        "centers vs children centroid",
        layer="algorithm",
        target="gmeans.anchor",
        baseline="centroid",
        flips=("previous",),
        sweep=("previous", "centroid"),
        engine=False,
    ),
    Component(
        name="partitioner",
        description="hash vs weight-balanced reduce partitioning",
        layer="runtime",
        target="gmeans.balanced_partitioning",
        baseline="hash",
        flips=("balanced",),
        engine=False,
    ),
    Component(
        name="init_method",
        description="initial-center selection for k-means",
        layer="algorithm",
        target="kmeans.init",
        baseline="random",
        flips=("kmeans++", "kmeans||"),
        engine=False,
    ),
    Component(
        name="cache_input",
        description="Spark-style in-memory input between chained jobs",
        layer="runtime",
        target="driver.cache_input",
        baseline=False,
        flips=(True,),
        engine=False,
    ),
    Component(
        name="normality_test",
        description="statistical test powering the split decision",
        layer="algorithm",
        target="gmeans.normality_test",
        baseline="anderson",
        flips=("jarque_bera", "lilliefors"),
        engine=False,
    ),
)

_BY_NAME = {comp.name: comp for comp in MANIFEST}
if len(_BY_NAME) != len(MANIFEST):  # pragma: no cover - import-time guard
    raise ValueError("duplicate component names in MANIFEST")


def component(name: str) -> Component:
    """Look up one component by name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise ComponentError(
            f"unknown component {name!r}; known: {known}"
        ) from None


def component_values(name: str) -> "tuple[object, ...]":
    """The full ordered value list of one component (baseline included).

    This is what the evaluation ablations iterate, so their tables and
    the engine's flips can never drift apart.
    """
    return component(name).values


def engine_components() -> "tuple[Component, ...]":
    """The components ``repro ablate`` runs, in manifest order."""
    return tuple(comp for comp in MANIFEST if comp.engine)


def engine_variants(
    names: "list[str] | None" = None,
) -> "list[tuple[Component, object]]":
    """Every single-flip (component, value) pair the engine runs.

    ``names`` restricts to a subset of engine components (unknown or
    non-engine names raise :class:`ComponentError`).
    """
    if names is None:
        selected = engine_components()
    else:
        selected = []
        for name in names:
            comp = component(name)
            if not comp.engine:
                raise ComponentError(
                    f"component {name!r} is evaluation-only, not runnable "
                    "by the ablation engine"
                )
            selected.append(comp)
    return [(comp, value) for comp in selected for value in comp.flips]
