"""Tests of the benchmark's own checks, determinism comparison and tracing.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
for path in (HERE.parent.parent / "src", HERE.parent):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import measure  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from repro.api import FaultPlanSpec, ZoneOutageSpec, scenario_spec  # noqa: E402
from repro.cluster.placement import PlacementEntry  # noqa: E402
from repro.experiments.runner import ExperimentRunner  # noqa: E402
from repro.types import WorkloadKind  # noqa: E402


@pytest.fixture(scope="module")
def smoke():
    return scenario_spec("smoke", seed=3)


def test_repeated_runs_of_a_seed_are_identical(smoke):
    first = measure.run_once(smoke)
    second = measure.run_once(smoke)
    assert first.ok and second.ok, first.errors + second.errors
    assert first.cycles == measure.expected_cycles(smoke)
    assert len(first.decide_s) == first.cycles
    assert measure.fingerprint_differences([first, second]) == []


def test_fingerprint_differences_name_the_seed_and_field(smoke):
    a = measure.run_once(smoke)
    b = dataclasses.replace(
        a, fingerprint={**a.fingerprint, "disruptive_actions": -1.0}
    )
    other_seed = dataclasses.replace(b, scenario_seed=a.scenario_seed + 1)
    diffs = measure.fingerprint_differences([a, b, other_seed])
    assert len(diffs) == 1
    assert f"seed {a.scenario_seed}: disruptive_actions" in diffs[0]


def test_checks_flag_overcommit_and_cycle_count(smoke):
    record = measure.run_once(smoke)
    result = ExperimentRunner(smoke.materialize()).run()
    assert measure.check(result, record) == []
    result.final_placement.add(
        PlacementEntry("intruder", "node000", 1.0, 1e9, WorkloadKind.LONG_RUNNING)
    )
    wrong = dataclasses.replace(record, expected_cycles=record.expected_cycles + 1)
    errors = measure.check(result, wrong)
    assert any(e.startswith("final placement") for e in errors)
    assert any(e.startswith("cycles") for e in errors)


def test_a_crashed_run_is_reported_as_failed_cycles(smoke):
    # An outage of an undeclared zone fails at materialize time.
    broken = dataclasses.replace(
        smoke,
        faults=FaultPlanSpec(
            zone_outages=(ZoneOutageSpec(zones=("nowhere",), mtbf=1e3, mttr=1e2),)
        ),
    )
    record = measure.run_once(broken)
    assert not record.ok
    assert "SpecValidationError" in record.errors[0]
    assert record.failed_cycles == record.expected_cycles


def test_traced_run_matches_untraced_and_restores_the_program(smoke):
    from repro.core.controller import UtilityDrivenController
    from repro.experiments import runner

    decide = UtilityDrivenController.decide
    simulator = runner.Simulator
    untraced = measure.run_once(smoke)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        traced = measure.run_once(smoke, tracer)
    assert UtilityDrivenController.decide is decide
    assert runner.Simulator is simulator
    assert traced.ok, traced.errors
    assert measure.fingerprint_differences([untraced, traced]) == []
    calls = tracer.calls
    for name in (
        "sim.engine.run",
        "runner.cycle",
        "resilient.decide",
        "controller.decide",
        "controller.arbiter",
        "controller.equalize",
        "controller.solver",
        "controller.planner",
        "jobmodel.snapshot",
        "recorder.record",
    ):
        assert calls[name] > 0, name
    assert calls["runner.cycle"] == traced.cycles
    # Self times partition the root spans' duration.
    roots = [s for s in tracer.spans if s[4] == tracing.ROOT]
    assert sum(tracer.self_s.values()) == pytest.approx(
        sum(end - start for _, _, start, end, *_ in roots), rel=1e-9
    )


def test_tail_percentile_leaves_ten_samples_beyond():
    for n, expected in ((100, 90.0), (999, 90.0), (1000, 99.0), (10_000, 99.9)):
        p = bench.tail_percentile(n)
        assert p == expected
        assert n - bench._rank(p, n) >= bench.TAIL_BEYOND
    with pytest.raises(ValueError):
        bench.tail_percentile(99)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workloads_are_built_from_the_seed(name):
    specs = [workloads.BUILDERS[name](s) for s in workloads.scenario_seeds(name, 5)]
    again = [workloads.BUILDERS[name](s) for s in workloads.scenario_seeds(name, 5)]
    assert [s.to_dict() for s in specs] == [s.to_dict() for s in again]
    assert len({s.seed for s in specs}) == workloads.SEEDS_PER_ROUND[name]
    assert not set(workloads.scenario_seeds(name, 5)) & set(
        workloads.scenario_seeds(name, 6)
    )
