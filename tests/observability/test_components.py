"""The declarative component manifest: the single source of flip lists."""

import inspect

import pytest

from repro.observability.components import (
    LAYERS,
    MANIFEST,
    Component,
    ComponentError,
    component,
    component_values,
    engine_components,
    engine_variants,
)


def test_manifest_names_are_unique_and_layers_valid():
    names = [comp.name for comp in MANIFEST]
    assert len(names) == len(set(names))
    assert all(comp.layer in LAYERS for comp in MANIFEST)


def test_lookup_and_unknown_name():
    assert component("combiner").target == "gmeans.use_combiner"
    with pytest.raises(ComponentError, match="unknown component"):
        component("warp-drive")


def test_values_default_to_baseline_plus_flips():
    vote = component("vote_rule")
    assert vote.values == ("weighted_majority", "any_reject", "all_reject")
    assert component_values("vote_rule") == vote.values


def test_sweep_overrides_value_order():
    # The evaluation ablations iterate the sweep, which may order the
    # baseline away from the front (paper-literal variants first).
    assert component_values("anchor") == ("previous", "centroid")
    assert component_values("test_strategy") == ("mapper", "reducer", "auto")
    assert component_values("kmeans_iterations") == (1, 2, 3, 4)


def test_target_splits_into_namespace_and_field():
    comp = component("split_factor")
    assert comp.namespace == "workload"
    assert comp.field == "split_factor"


def test_every_target_names_a_real_field_of_its_namespace():
    """Each namespace the components module documents maps to one
    class; a target must name one of its fields or constructor
    arguments, or the harness applying it has nothing to set."""
    from repro.core.config import MRGMeansConfig
    from repro.core.gmeans_mr import MRGMeans
    from repro.core.kmeans_mr import MRKMeans
    from repro.mapreduce.executors import RuntimeConfig
    from repro.mapreduce.faults import FaultModel
    from repro.mapreduce.hdfs import InMemoryDFS
    from repro.mapreduce.runtime import MapReduceRuntime
    from repro.observability.ablate import WorkloadSpec

    owners = {
        "gmeans": MRGMeansConfig,
        "driver": MRGMeans,
        "kmeans": MRKMeans,
        "runtime": MapReduceRuntime,
        "faults": FaultModel,
        "config": RuntimeConfig,
        "dfs": InMemoryDFS,
        "workload": WorkloadSpec,
    }
    for comp in MANIFEST:
        assert comp.namespace in owners, comp.target
        fields = inspect.signature(owners[comp.namespace]).parameters
        assert comp.field in fields, comp.target


def test_infrastructure_components_are_simulated_invariant():
    by_layer = {
        comp.name: comp.simulated_invariant for comp in engine_components()
    }
    assert by_layer["executor"] and by_layer["data_plane"]
    assert not by_layer["combiner"]


def test_labels_render_booleans_and_overrides():
    assert component("locality").label(True) == "on"
    assert component("combiner").label(False) == "off"
    assert component("checkpointing").label("checkpoints") == "every-iteration"
    assert component("test_strategy").label("reducer") == "always-TestClusters"


def test_engine_variants_cover_every_engine_flip():
    variants = engine_variants()
    assert [(c.name, v) for c, v in variants][:2] == [
        ("combiner", False),
        ("test_strategy", "reducer"),
    ]
    expected = sum(len(c.flips) for c in engine_components())
    assert len(variants) == expected


def test_engine_variants_subset_and_rejections():
    subset = engine_variants(["split_factor"])
    assert [(c.name, v) for c, v in subset] == [
        ("split_factor", 0.5),
        ("split_factor", 2.0),
    ]
    with pytest.raises(ComponentError, match="evaluation-only"):
        engine_variants(["vote_rule"])
    with pytest.raises(ComponentError, match="unknown"):
        engine_variants(["nope"])


def test_component_validation():
    with pytest.raises(ValueError, match="layer"):
        Component("x", "d", "cosmic", "a.b", baseline=1, flips=(2,))
    with pytest.raises(ValueError, match="dotted"):
        Component("x", "d", "runtime", "nodot", baseline=1, flips=(2,))
    with pytest.raises(ValueError, match="must not appear in flips"):
        Component("x", "d", "runtime", "a.b", baseline=1, flips=(1, 2))
    with pytest.raises(ValueError, match="at least one flip"):
        Component("x", "d", "runtime", "a.b", baseline=1)
