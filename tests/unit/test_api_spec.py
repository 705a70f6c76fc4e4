"""Unit tests for the serializable scenario-spec layer (`repro.api.spec`).

Covers the ISSUE's acceptance criteria: property-style round-trips
(spec -> dict -> JSON -> spec, equal and materializing to an identical
Scenario) including NodeFailure lists, noisy profiles and heterogeneous
node classes, plus validation errors that name the offending field.
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import (
    AppSpec,
    ConstantProfileSpec,
    JobTraceSpec,
    NoisyProfileSpec,
    ScenarioSpec,
    SpecValidationError,
    TopologySpec,
    available_scenarios,
    scenario_spec,
)
from repro.cluster import NodeClass
from repro.errors import ConfigurationError
from repro.experiments import paper_scenario, scaled_paper_scenario, smoke_scenario
from repro.experiments.scenario import NodeFailure, Scenario

REPO_ROOT = Path(__file__).resolve().parents[2]


def assert_scenarios_identical(a: Scenario, b: Scenario) -> None:
    """Field-by-field equality, with profiles compared behaviorally."""
    assert a.num_nodes == b.num_nodes
    assert a.node_processors == b.node_processors
    assert a.node_mhz == b.node_mhz
    assert a.node_memory_mb == b.node_memory_mb
    assert a.node_classes == b.node_classes
    assert a.job_specs == b.job_specs
    assert a.controller == b.controller
    assert a.costs == b.costs
    assert a.noise == b.noise
    assert a.horizon == b.horizon
    assert a.seed == b.seed
    assert a.failures == b.failures
    assert len(a.apps) == len(b.apps)
    for wa, wb in zip(a.apps, b.apps):
        assert wa.spec == wb.spec
        for t in (0.0, 299.0, 601.0, 5_000.0, 42_000.0):
            assert wa.profile.rate(t) == wb.profile.rate(t)


class TestRoundTrip:
    @pytest.mark.parametrize("name", available_scenarios())
    def test_dict_json_toml_round_trip(self, name):
        spec = scenario_spec(name)
        from_json = ScenarioSpec.from_json(json.dumps(spec.to_dict()))
        assert from_json == spec
        from_toml = ScenarioSpec.from_toml(spec.to_toml())
        assert from_toml == spec

    @pytest.mark.parametrize("name", available_scenarios())
    def test_round_trip_materializes_identically(self, name):
        spec = scenario_spec(name)
        rebuilt = ScenarioSpec.from_json(spec.to_json())
        assert_scenarios_identical(spec.materialize(), rebuilt.materialize())

    def test_save_and_load_both_formats(self, tmp_path):
        spec = scenario_spec("failure-recovery")
        for suffix in (".json", ".toml"):
            path = spec.save(tmp_path / f"spec{suffix}")
            assert ScenarioSpec.load(path) == spec

    def test_unsupported_extension_rejected(self, tmp_path):
        spec = scenario_spec("smoke")
        with pytest.raises(SpecValidationError, match=r"\.yaml"):
            spec.save(tmp_path / "spec.yaml")


class TestBuilderParity:
    """Registry specs materialize to the imperative builders' scenarios."""

    def test_smoke_matches_smoke_scenario(self):
        assert_scenarios_identical(
            scenario_spec("smoke", seed=7).materialize(), smoke_scenario(seed=7)
        )

    def test_paper_matches_paper_scenario(self):
        assert_scenarios_identical(
            scenario_spec("paper", seed=42).materialize(), paper_scenario(seed=42)
        )

    def test_scaled_paper_matches_consolidation(self):
        a = scenario_spec("consolidation", seed=5, scale=0.2).materialize()
        b = scaled_paper_scenario(scale=0.2, seed=5)
        # Names differ (the registry names the comparison bed); all
        # physics-relevant fields must agree.
        assert_scenarios_identical(a, b)


class TestHeterogeneousTopology:
    def test_classes_round_trip_and_materialize(self):
        spec = scenario_spec("heterogeneous-cluster")
        rebuilt = ScenarioSpec.from_toml(spec.to_toml())
        assert rebuilt.topology.classes == spec.topology.classes
        scenario = rebuilt.materialize()
        assert scenario.num_nodes == 6
        cluster = scenario.build_cluster()
        assert cluster.node("modern-000").processors == 4
        assert cluster.node("legacy-002").processors == 2
        assert cluster.node("legacy-000").memory_mb == 2400.0

    def test_classes_and_num_nodes_exclusive_in_from_dict(self):
        data = scenario_spec("heterogeneous-cluster").to_dict()
        data["topology"]["num_nodes"] = 6
        with pytest.raises(SpecValidationError, match="mutually exclusive"):
            ScenarioSpec.from_dict(data)

    def test_classes_and_num_nodes_are_exclusive(self):
        with pytest.raises(SpecValidationError, match="mutually exclusive"):
            TopologySpec(
                num_nodes=3,
                classes=(
                    NodeClass(
                        name="a", count=3, processors=4,
                        mhz_per_processor=3000.0, memory_mb=4000.0,
                    ),
                ),
            )

    def test_scenario_rejects_inconsistent_node_classes(self):
        base = smoke_scenario()
        with pytest.raises(ConfigurationError, match="num_nodes"):
            dataclasses.replace(
                base,
                node_classes=(
                    NodeClass(
                        name="a", count=2, processors=4,
                        mhz_per_processor=3000.0, memory_mb=4000.0,
                    ),
                ),
            )

    def test_bad_class_field_names_path(self):
        data = scenario_spec("heterogeneous-cluster").to_dict()
        data["topology"]["classes"][1]["count"] = 0
        with pytest.raises(SpecValidationError, match=r"topology\.classes\[1\]"):
            ScenarioSpec.from_dict(data)


class TestFailuresAndProfiles:
    def test_failures_round_trip_with_and_without_restore(self):
        spec = scenario_spec("failure-recovery")
        assert spec.failures[0].restore_at == 26_000.0
        assert spec.failures[1].restore_at is None
        for rebuilt in (
            ScenarioSpec.from_json(spec.to_json()),
            ScenarioSpec.from_toml(spec.to_toml()),
        ):
            assert rebuilt.failures == spec.failures

    def test_noisy_profile_round_trip_is_sample_identical(self):
        spec = scenario_spec("paper")
        profile_spec = spec.apps[0].profile
        assert isinstance(profile_spec, NoisyProfileSpec)
        rebuilt = ScenarioSpec.from_toml(spec.to_toml()).apps[0].profile
        assert rebuilt == profile_spec
        a, b = profile_spec.build(), rebuilt.build()
        for t in (0.0, 300.0, 600.0, 1234.5, 69_999.0):
            assert a.rate(t) == b.rate(t)

    def test_differentiated_templates_round_trip(self):
        spec = scenario_spec("service-differentiation")
        rebuilt = ScenarioSpec.from_toml(spec.to_toml())
        assert rebuilt.jobs.templates == spec.jobs.templates
        classes = {job.job_class for job in rebuilt.materialize().job_specs}
        assert classes == {"gold", "silver"}


class TestValidationErrors:
    """Failures name the offending field by its dotted path."""

    def test_missing_required_field(self):
        with pytest.raises(SpecValidationError, match=r"scenario\.name"):
            ScenarioSpec.from_dict({"seed": 1, "horizon": 10.0,
                                    "topology": {"num_nodes": 1}})

    def test_unknown_top_level_field(self):
        data = scenario_spec("smoke").to_dict()
        data["bogus"] = 1
        with pytest.raises(SpecValidationError, match="bogus"):
            ScenarioSpec.from_dict(data)

    def test_stale_controller_field_rejected_by_name(self):
        # Removed controller knobs must fail loudly, never be ignored.
        data = scenario_spec("smoke").to_dict()
        data["controller"]["warm_start"] = True
        with pytest.raises(
            SpecValidationError, match=r"scenario\.controller: unknown field.*warm_start"
        ):
            ScenarioSpec.from_dict(data)

    def test_wrong_type_names_field(self):
        data = scenario_spec("smoke").to_dict()
        data["topology"]["num_nodes"] = "four"
        with pytest.raises(SpecValidationError, match=r"topology\.num_nodes"):
            ScenarioSpec.from_dict(data)

    def test_nested_config_error_names_path(self):
        data = scenario_spec("smoke").to_dict()
        data["controller"]["solver"]["change_penalty_mhz"] = -1.0
        with pytest.raises(
            SpecValidationError, match=r"controller\.solver.*change_penalty_mhz"
        ):
            ScenarioSpec.from_dict(data)

    def test_app_error_names_indexed_path(self):
        data = scenario_spec("smoke").to_dict()
        data["apps"][0]["rt_goal"] = -1.0
        with pytest.raises(SpecValidationError, match=r"apps\[0\]"):
            ScenarioSpec.from_dict(data)

    def test_unknown_profile_kind(self):
        data = scenario_spec("smoke").to_dict()
        data["apps"][0]["profile"] = {"kind": "sawtooth"}
        with pytest.raises(SpecValidationError, match="sawtooth"):
            ScenarioSpec.from_dict(data)

    def test_unknown_schema_rejected(self):
        data = scenario_spec("smoke").to_dict()
        data["schema"] = "repro.scenario/v99"
        with pytest.raises(SpecValidationError, match="v99"):
            ScenarioSpec.from_dict(data)

    def test_uniform_trace_requires_template(self):
        with pytest.raises(SpecValidationError, match=r"jobs\.template"):
            JobTraceSpec(kind="uniform", count=3)

    def test_empty_apps_rejected_by_field_name(self):
        data = scenario_spec("smoke").to_dict()
        del data["apps"]
        with pytest.raises(SpecValidationError, match="apps"):
            ScenarioSpec.from_dict(data)

    def test_kind_irrelevant_fields_rejected(self):
        """to_dict serializes kind-relevant fields only, so other fields
        must stay at their defaults for the round-trip to be lossless."""
        with pytest.raises(SpecValidationError, match=r"jobs\.start"):
            JobTraceSpec(kind="paper", count=5, start=123.0)
        with pytest.raises(SpecValidationError, match=r"jobs\.stream"):
            JobTraceSpec(kind="none", stream="custom")


class TestOverrides:
    def test_nested_override(self):
        spec = scenario_spec("smoke").with_overrides(
            {"controller.control_cycle": 120.0, "horizon": 600.0}
        )
        assert spec.controller.control_cycle == 120.0
        assert spec.horizon == 600.0

    def test_list_index_override(self):
        spec = scenario_spec("smoke").with_overrides({"apps.0.rt_goal": 0.8})
        assert spec.apps[0].rt_goal == 0.8

    def test_unknown_override_path_fails_by_name(self):
        with pytest.raises(SpecValidationError, match="controler"):
            scenario_spec("smoke").with_overrides({"controler.control_cycle": 1.0})


class TestCheckedInSpecFiles:
    """examples/specs/ stays loadable and in sync with the registry."""

    def test_smoke_json_matches_registry(self):
        spec = ScenarioSpec.load(REPO_ROOT / "examples/specs/smoke.json")
        assert spec == scenario_spec("smoke")

    def test_heterogeneous_toml_matches_registry(self):
        spec = ScenarioSpec.load(
            REPO_ROOT / "examples/specs/heterogeneous-cluster.toml"
        )
        assert spec == scenario_spec("heterogeneous-cluster")

    def test_multi_app_differentiation_json_matches_registry(self):
        spec = ScenarioSpec.load(
            REPO_ROOT / "examples/specs/multi-app-differentiation.json"
        )
        assert spec == scenario_spec("multi-app-differentiation")

    def test_diurnal_toml_matches_registry(self):
        spec = ScenarioSpec.load(REPO_ROOT / "examples/specs/diurnal.toml")
        assert spec == scenario_spec("diurnal")

    def test_chaos_soak_toml_matches_registry(self):
        spec = ScenarioSpec.load(REPO_ROOT / "examples/specs/chaos-soak.toml")
        assert spec == scenario_spec("chaos-soak")
        assert spec.faults is not None


class TestNewScenarioShapes:
    """The replication material scenarios expose the advertised structure."""

    def test_multi_app_has_two_apps_with_distinct_rt_goals(self):
        spec = scenario_spec("multi-app-differentiation")
        assert [app.app_id for app in spec.apps] == ["web-premium", "web-budget"]
        premium, budget = spec.apps
        assert premium.rt_goal < budget.rt_goal
        assert spec.jobs.kind == "paper"  # batch jobs still compete

    def test_diurnal_profile_swings_over_the_day(self):
        spec = scenario_spec("diurnal")
        assert spec.horizon == 86_400.0
        profile = spec.apps[0].profile.build()
        trough = profile.rate(0.0)
        peak = profile.rate(43_200.0)
        assert peak > trough > 0.0


class TestAppSpecValidation:
    def test_invalid_app_fails_eagerly(self):
        with pytest.raises(ConfigurationError, match="rt_goal"):
            AppSpec(
                app_id="web", rt_goal=0.0, mean_service_cycles=100.0,
                request_cap_mhz=1000.0, instance_memory_mb=100.0,
                profile=ConstantProfileSpec(10.0),
            )


class TestNetworkBlock:
    def test_network_round_trips_dict_json_toml(self, tmp_path):
        spec = scenario_spec("edge-cloud-continuum")
        assert spec.network is not None
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        assert ScenarioSpec.from_json(spec.to_json()) == spec
        path = tmp_path / "edge.toml"
        spec.save(path)
        assert ScenarioSpec.load(path) == spec

    def test_network_materializes_into_scenario(self):
        scenario = scenario_spec("edge-cloud-continuum").materialize()
        assert scenario.network is not None
        assert scenario.network.zones == ("edge", "metro", "cloud")
        assert scenario.node_zone_map()["edge-000"] == "edge"

    def test_network_requires_class_based_topology(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["topology"] = {"num_nodes": 4, "processors": 2,
                            "mhz_per_processor": 2000.0, "memory_mb": 2000.0}
        with pytest.raises(SpecValidationError, match="class-based topology"):
            ScenarioSpec.from_dict(data)

    def test_undeclared_class_zone_rejected_with_path(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["topology"]["classes"][0]["zone"] = "orbit"
        with pytest.raises(
            SpecValidationError, match=r"topology\.classes\[0\].*orbit"
        ):
            ScenarioSpec.from_dict(data)

    def test_unknown_network_field_rejected_by_name(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["network"]["jitter"] = 1.0
        with pytest.raises(SpecValidationError, match="jitter"):
            ScenarioSpec.from_dict(data)

    def test_invalid_matrix_names_network_path(self):
        data = scenario_spec("edge-cloud-continuum").to_dict()
        data["network"]["rtt_ms"][0][1] = -5.0
        with pytest.raises(SpecValidationError, match="network"):
            ScenarioSpec.from_dict(data)

    def test_no_network_block_omitted_from_dict(self):
        data = scenario_spec("smoke").to_dict()
        assert "network" not in data
        assert scenario_spec("smoke").network is None
