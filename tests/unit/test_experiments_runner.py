"""Unit tests for the experiment runner's action enactment.

Drives the runner's internal ``_apply`` machinery with hand-built
actions to cover every enactment path -- including migration, which the
paper scenario exercises only rarely -- and the cost model semantics
(start delays, checkpoint losses, resume delays, migration pauses).
"""

import dataclasses
import math

import pytest

from repro.cluster import (
    ActionCosts,
    AdjustCpu,
    MigrateVm,
    ResumeVm,
    StartVm,
    StopVm,
    SuspendVm,
)
from repro.cluster.placement import PlacementEntry
from repro.cluster.vm import VmState
from repro.core.actions_planner import plan_actions
from repro.errors import PlacementError
from repro.experiments.runner import ExperimentRunner, default_policy_factory
from repro.experiments.scenario import Scenario, paper_tx_app
from repro.perf.jobmodel import snapshot_jobs
from repro.config import ControllerConfig, NoiseConfig
from repro.types import WorkloadKind
from repro.workloads import JobPhase

from ..conftest import make_job_spec


def tiny_scenario(**cost_overrides) -> Scenario:
    costs = ActionCosts(**cost_overrides) if cost_overrides else ActionCosts(
        start_delay=10.0, suspend_checkpoint_loss=30.0,
        resume_delay=60.0, migrate_pause=20.0,
    )
    return Scenario(
        name="runner-unit",
        num_nodes=2,
        node_processors=4,
        node_mhz=3000.0,
        node_memory_mb=4000.0,
        apps=(paper_tx_app(sessions=10.0, noise_rel_std=0.0, max_instances=2),),
        job_specs=(make_job_spec(job_id="j0", work=30_000_000.0, goal=40_000.0),),
        controller=ControllerConfig(),
        costs=costs,
        noise=NoiseConfig(0.0, 0.0, 0.0),
        horizon=10_000.0,
        seed=1,
    )


@pytest.fixture
def runner():
    return ExperimentRunner(tiny_scenario())


def job(runner, job_id="j0"):
    return runner._jobs[job_id]


class TestJobActions:
    def test_start_applies_rate_after_delay(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        assert job(runner).phase is JobPhase.RUNNING
        assert job(runner).rate == 0.0  # still booting
        runner._sim.run(until=10.0)
        assert job(runner).rate == 3000.0

    def test_suspend_charges_checkpoint_loss(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=1000.0)
        job(runner).advance_to(1000.0)
        before = job(runner).remaining_work
        runner._apply(SuspendVm("vm-j0"), t=1000.0)
        # 30 s of progress at 3000 MHz returned to the remaining work.
        assert job(runner).remaining_work == pytest.approx(before + 90_000.0)
        assert job(runner).phase is JobPhase.SUSPENDED

    def test_resume_restores_rate_after_delay(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=100.0)
        runner._apply(SuspendVm("vm-j0"), t=100.0)
        runner._apply(ResumeVm("vm-j0", "node001", 2000.0), t=200.0)
        assert job(runner).node_id == "node001"
        assert job(runner).rate == 0.0
        runner._sim.run(until=260.0)  # resume_delay = 60 s
        assert job(runner).rate == 2000.0

    def test_migrate_pauses_then_continues(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=1000.0)
        runner._apply(MigrateVm("vm-j0", "node000", "node001", 2500.0), t=1000.0)
        assert job(runner).node_id == "node001"
        assert job(runner).rate == 0.0  # stop-and-copy pause
        runner._sim.run(until=1020.0)  # migrate_pause = 20 s
        assert job(runner).rate == 2500.0
        assert job(runner).stats.migrations == 1

    def test_adjust_during_pause_retargets_pending_rate(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        # Before the 10 s start delay elapses, the next decision trims the
        # share; the new rate must apply at the original un-pause time.
        runner._apply(AdjustCpu("vm-j0", 1200.0), t=5.0)
        runner._sim.run(until=10.0)
        assert job(runner).rate == 1200.0

    def test_adjust_running_job(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=50.0)
        runner._apply(AdjustCpu("vm-j0", 700.0), t=50.0)
        assert job(runner).rate == 700.0

    def test_stop_cancels_job(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=50.0)
        runner._apply(StopVm("vm-j0"), t=50.0)
        assert job(runner).phase is JobPhase.CANCELLED


class TestInstanceActions:
    def test_start_adjust_stop_instance(self, runner):
        runner._apply(StartVm("tx:webapp@node000", "node000", 4000.0), t=0.0)
        app = runner._apps["webapp"]
        assert app.instance_nodes == ["node000"]
        assert app.total_allocation == 4000.0
        runner._apply(AdjustCpu("tx:webapp@node000", 2500.0), t=1.0)
        assert app.total_allocation == 2500.0
        runner._apply(StartVm("tx:webapp@node001", "node001", 1000.0), t=2.0)
        runner._apply(StopVm("tx:webapp@node000"), t=3.0)
        assert app.instance_nodes == ["node001"]

    def test_malformed_instance_id_rejected(self, runner):
        from repro.errors import SimulationError

        with pytest.raises(SimulationError):
            runner._parse_instance("not-an-instance")


class TestCompletionMachinery:
    def test_completion_fires_at_predicted_time(self):
        scenario = tiny_scenario(start_delay=0.0)
        runner = ExperimentRunner(scenario)
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=0.0)
        runner._schedule_completion(runner._jobs["j0"], 0.0)
        runner._sim.run(until=10_001.0)
        # 30e6 MHz·s at 3000 MHz = 10 000 s.
        assert runner._jobs["j0"].phase is JobPhase.COMPLETED
        assert runner._jobs["j0"].stats.completed_at == pytest.approx(10_000.0)

    def test_zero_cost_actions_supported(self):
        scenario = tiny_scenario(
            start_delay=0.0, suspend_checkpoint_loss=0.0,
            resume_delay=0.0, migrate_pause=0.0,
        )
        runner = ExperimentRunner(scenario)
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=1.0)
        assert runner._jobs["j0"].rate == 3000.0


def one_job_scenario(work: float, horizon: float) -> Scenario:
    """One job, zero start delay and 6000 s control cycles: the job runs
    at its 3000 MHz cap from t=0, so it completes at ``work / 3000``."""
    return dataclasses.replace(
        tiny_scenario(start_delay=0.0),
        controller=ControllerConfig(control_cycle=6000.0),
        job_specs=(make_job_spec(job_id="j0", work=work, goal=40_000.0),),
        horizon=horizon,
    )


class TestCompletionWindow:
    """Completion events are scheduled only up to the next control cycle."""

    def run_recorded(self, scenario):
        policies = []

        def factory(scenario):
            policies.append(RecordingPolicy(scenario))
            return policies[0]

        runner = ExperimentRunner(scenario, factory)
        result = runner.run()
        return runner, result, [(t, [j.job_id for j in jobs]) for t, jobs, _ in policies[0].calls]

    def test_completion_at_the_next_cycle_fires_before_it(self):
        # 18e6 MHz·s at 3000 MHz: predicted exactly at the 6000 s cycle.
        runner, result, calls = self.run_recorded(one_job_scenario(18e6, 8000.0))
        assert result.jobs[0].stats.completed_at == 6000.0
        assert calls == [(0.0, ["j0"]), (6000.0, [])]

    def test_completion_after_the_last_cycle_fires_by_the_horizon(self):
        # The 6000 s cycle is the last (12000 > horizon): no window, so the
        # 10000 s prediction is scheduled and fires before the horizon.
        runner, result, calls = self.run_recorded(one_job_scenario(30e6, 11_000.0))
        assert calls == [(0.0, ["j0"]), (6000.0, ["j0"])]
        assert result.jobs[0].stats.completed_at == 10_000.0
        assert runner._next_cycle == math.inf

    def test_prediction_past_the_next_cycle_is_not_scheduled(self, runner):
        runner._apply(StartVm("vm-j0", "node000", 3000.0), t=0.0)
        runner._sim.run(until=10.0)  # the rate applies after the start delay
        runner._next_cycle = 600.0
        runner._schedule_completion(runner._jobs["j0"], 10.0)
        assert "j0" not in runner._completion_events
        runner._next_cycle = 10_010.0  # 30e6 MHz·s at 3000 MHz from t=10
        runner._schedule_completion(runner._jobs["j0"], 10.0)
        assert runner._completion_events["j0"].time == 10_010.0


def staggered_scenario() -> Scenario:
    """Jobs listed out of submit-time order, with tied submit times; the
    short ones complete within the horizon."""
    submits = (1200.0, 0.0, 600.0, 600.0, 0.0, 3000.0)
    specs = tuple(
        make_job_spec(job_id=f"j{i}", submit=submit, work=3_000_000.0 * (1 + i % 3))
        for i, submit in enumerate(submits)
    )
    return dataclasses.replace(tiny_scenario(), job_specs=specs, horizon=6000.0)


class RecordingPolicy:
    """Default-policy proxy that records the ``jobs`` each decide() gets,
    next to every job the trace holds at that instant."""

    def __init__(self, scenario):
        self.inner = default_policy_factory(scenario)
        self.all_jobs = ()
        self.calls = []

    def observe_app(self, app_id, **kwargs):
        self.inner.observe_app(app_id, **kwargs)

    def decide(self, t, **kwargs):
        expected = [
            job for job in self.all_jobs if job.spec.submit_time <= t and job.is_incomplete
        ]
        self.calls.append((t, list(kwargs["jobs"]), expected))
        return self.inner.decide(t, **kwargs)


class TestLiveJobIndex:
    def test_policy_sees_submitted_incomplete_jobs_in_spec_order(self):
        policies = []

        def factory(scenario):
            policies.append(RecordingPolicy(scenario))
            return policies[0]

        runner = ExperimentRunner(staggered_scenario(), factory)
        policy = policies[0]
        policy.all_jobs = list(runner._jobs.values())  # spec order
        result = runner.run()
        assert policy.calls
        for t, jobs, expected in policy.calls:
            assert [j.job_id for j in jobs] == [j.job_id for j in expected], t
            assert all(a is b for a, b in zip(jobs, expected))
        # The run exercised both filters: future jobs and completed ones.
        assert any(len(exp) < len(policy.all_jobs) for _, _, exp in policy.calls)
        completed = [j for j in result.jobs if j.phase is JobPhase.COMPLETED]
        assert completed
        last_t, last_jobs, _ = policy.calls[-1]
        assert not {j.job_id for j in completed if j.stats.completed_at <= last_t} & {
            j.job_id for j in last_jobs
        }

    def test_completed_series_tracks_completion_counter(self):
        result = ExperimentRunner(staggered_scenario()).run()
        rec = result.recorder
        series = rec.series("jobs_completed_series")
        for t, value in zip(series.times, series.values):
            done = sum(
                1
                for j in result.jobs
                if j.stats.completed_at is not None and j.stats.completed_at <= t
            )
            assert value == done, t
        completed = sum(1 for j in result.jobs if j.phase is JobPhase.COMPLETED)
        assert completed > 0
        assert rec.counter("jobs_completed") == completed
        assert series.values[-1] == rec.counter("jobs_completed")

    def test_stopped_job_leaves_the_population(self):
        runner = ExperimentRunner(staggered_scenario())
        result = runner.run()
        t = result.scenario.horizon
        live = [j for j in result.jobs if j.is_incomplete]
        assert live
        runner._apply(StopVm(live[0].vm.vm_id), t=t)
        # A row left behind would be a terminal job in the live table,
        # which the population gather rejects.
        population = snapshot_jobs(runner._live, t)
        assert population.job_ids == tuple(j.job_id for j in live[1:])

    def test_terminal_job_vm_cannot_be_placed_again(self):
        runner = ExperimentRunner(staggered_scenario())
        result = runner.run()
        done = next(j for j in result.jobs if j.phase is JobPhase.COMPLETED)
        live = next(j for j in result.jobs if j.is_incomplete)
        runner._apply(StopVm(live.vm.vm_id), t=result.scenario.horizon)
        assert live.phase is JobPhase.CANCELLED
        assert live not in runner._live  # stopped jobs leave the index
        assert live.job_id not in runner._live.job_ids
        if live.vm.vm_id in runner._placement:
            # A policy's stop also drops the VM from its next placement.
            runner._placement.remove(live.vm.vm_id)
        vm_states = runner._vm_states()
        for job in (done, live):
            assert vm_states[job.vm.vm_id] is VmState.STOPPED
            desired = runner._placement.copy()
            desired.add(
                PlacementEntry(
                    vm_id=job.vm.vm_id,
                    node_id="node000",
                    cpu_mhz=1000.0,
                    memory_mb=job.spec.memory_mb,
                    kind=WorkloadKind.LONG_RUNNING,
                )
            )
            with pytest.raises(PlacementError):
                plan_actions(runner._placement, desired, vm_states)
