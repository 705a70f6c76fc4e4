"""Live-job runner vs the frozen all-jobs runner: identical outputs.

The production :class:`~repro.experiments.runner.ExperimentRunner` walks
only the live (submitted, not yet completed or stopped) jobs each control
cycle.  :class:`~tests.property.reference_runner.ReferenceRunner` keeps
the old passes that walk every trace job.  Both must produce the same
recorder series values, action-log counts and per-job outcomes, bit for
bit: the live index only skips jobs every pass used to filter out.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import available_scenarios, scenario_spec
from repro.baselines.registry import get_policy
from repro.cluster import ActionCosts
from repro.config import ControllerConfig, NoiseConfig
from repro.experiments.runner import ExperimentRunner
from repro.experiments.scenario import Scenario, paper_tx_app

from ..conftest import make_job_spec
from .reference_runner import ReferenceRunner

#: Ten control cycles: arrivals, completions and churn on every scenario.
HORIZON = 6000.0

#: Series measuring host wall-clock time, which differ between any runs.
_WALL_TIME_SERIES = ("stage_ms:", "shard_ms:", "exact_ms")


def _outputs(result):
    rec = result.recorder
    series = {
        name: (rec.series(name).times.tolist(), rec.series(name).values.tolist())
        for name in rec.series_names()
        if not name.startswith(_WALL_TIME_SERIES)
    }
    jobs = [
        (
            job.job_id,
            job.phase,
            job.remaining_work,
            job.stats.started_at,
            job.stats.completed_at,
            job.stats.suspensions,
            job.stats.migrations,
            job.stats.work_lost,
        )
        for job in result.jobs
    ]
    return series, rec.counters, dataclasses.asdict(result.action_log), jobs


def assert_same_run(scenario, policy_factory=None):
    live = ExperimentRunner(scenario, policy_factory).run()
    reference = ReferenceRunner(scenario, policy_factory).run()
    live_series, live_counters, live_log, live_jobs = _outputs(live)
    ref_series, ref_counters, ref_log, ref_jobs = _outputs(reference)
    assert live_series.keys() == ref_series.keys()
    for name, (times, values) in ref_series.items():
        assert live_series[name][0] == times, name
        # NaN-aware exact equality (e.g. tx_utility with no apps).
        assert np.array_equal(live_series[name][1], values, equal_nan=True), name
    assert live_counters == ref_counters
    assert live_log == ref_log
    assert live_jobs == ref_jobs
    assert live.cycles == reference.cycles


@pytest.mark.parametrize("name", available_scenarios())
def test_every_registered_scenario(name):
    spec = scenario_spec(name).with_overrides({"horizon": HORIZON})
    assert_same_run(spec.materialize())


def test_fcfs_baseline():
    spec = scenario_spec("smoke").with_overrides({"horizon": HORIZON})
    assert_same_run(spec.materialize(), get_policy("fcfs"))


def test_sharded_control_plane():
    spec = scenario_spec("smoke").with_overrides(
        {"horizon": HORIZON, "controller.shards": 4}
    )
    assert_same_run(spec.materialize())


#: Submit times deliberately out of spec order, with ties (two at 0, three
#: at 600, two at 300) and one arrival between control cycles.
_UNSORTED_SUBMITS = (1800.0, 0.0, 600.0, 600.0, 300.0, 2400.0, 0.0, 900.0,
                     300.0, 1200.0, 3000.0, 600.0, 50.0, 4000.0)


def unsorted_scenario() -> Scenario:
    """A small, contended cluster whose job specs are not sorted by submit
    time: jobs queue for memory, get suspended and resumed, and all finish
    by the horizon."""
    specs = tuple(
        make_job_spec(
            job_id=f"j{i:02d}",
            submit=submit,
            work=9_000_000.0 * (1 + i % 4),
            goal=6000.0 + 1000.0 * (i % 3),
        )
        for i, submit in enumerate(_UNSORTED_SUBMITS)
    )
    return Scenario(
        name="unsorted-trace",
        num_nodes=3,
        node_processors=4,
        node_mhz=3000.0,
        node_memory_mb=4000.0,
        apps=(paper_tx_app(sessions=40.0, noise_rel_std=0.0, max_instances=3),),
        job_specs=specs,
        controller=ControllerConfig(),
        costs=ActionCosts(),
        noise=NoiseConfig(0.0, 0.0, 0.0),
        horizon=20_000.0,
        seed=3,
    )


def test_specs_out_of_submit_order_with_ties():
    scenario = unsorted_scenario()
    submits = [spec.submit_time for spec in scenario.job_specs]
    assert submits != sorted(submits)
    assert len(set(submits)) < len(submits)
    assert_same_run(scenario)
