"""A reused controller decides exactly like a fresh one, bit for bit.

``decide()`` is a function of its inputs and the smoothed demand
estimates built by ``observe_app``: nothing else carries over from one
control cycle to the next.  These tests guard against hidden cross-cycle
state creeping back in.  They drive one controller across randomized
multi-cycle traces with arrivals, progress, completions and a mid-trace
node failure, and before every cycle build a fresh controller that
replays the same ``observe_app`` history; both must return identical
decisions on every cycle.
"""

import numpy as np
import pytest

from repro.cluster.node import NodeSpec
from repro.cluster.placement import Placement
from repro.cluster.vm import VmState
from repro.core import UtilityDrivenController
from repro.workloads.jobs import Job, JobSpec
from repro.workloads.transactional import TransactionalAppSpec

CYCLE = 600.0


def _make_nodes(n):
    return [
        NodeSpec(
            node_id=f"n{i:02d}",
            processors=2,
            mhz_per_processor=2000.0,
            memory_mb=6000.0,
        )
        for i in range(n)
    ]


def _make_jobs(rng, n_jobs, horizon):
    jobs = []
    for i in range(n_jobs):
        jobs.append(
            Job(
                JobSpec(
                    job_id=f"j{i:03d}",
                    submit_time=float(rng.uniform(0.0, horizon * 0.6)),
                    total_work=float(rng.uniform(1e6, 2e7)),
                    speed_cap_mhz=float(rng.choice([1500.0, 2500.0, 3500.0])),
                    memory_mb=float(rng.choice([800.0, 1500.0])),
                    completion_goal=float(rng.uniform(3600.0, 40000.0)),
                    importance=float(rng.choice([1.0, 1.0, 2.0])),
                )
            )
        )
    return jobs


def _assert_decisions_identical(a, b, cycle):
    assert dict(a.solution.job_rates) == dict(b.solution.job_rates), cycle
    assert dict(a.solution.app_allocations) == dict(b.solution.app_allocations), cycle
    entries_a = {e.vm_id: e for e in a.placement}
    entries_b = {e.vm_id: e for e in b.placement}
    assert entries_a == entries_b, cycle
    assert list(a.actions) == list(b.actions), cycle
    da, db = a.diagnostics, b.diagnostics
    assert da.tx_target == db.tx_target and da.lr_target == db.lr_target, cycle
    assert da.tx_utility_predicted == db.tx_utility_predicted, cycle
    assert da.lr_utility_mean == db.lr_utility_mean, cycle
    assert da.lr_utility_level == db.lr_utility_level, cycle
    assert np.array_equal(a.hypothetical.rates, b.hypothetical.rates), cycle


def _apply_decision(decision, jobs_by_vm, t):
    """Enact a decision instantly (no virtualization delays).

    A simplified runner: rates apply immediately, suspends lose nothing.
    Both controllers see the world evolved by the *same* (reused) decision,
    so any divergence between them is the control plane's fault, not the
    harness's.
    """
    from repro.cluster.actions import (
        AdjustCpu,
        MigrateVm,
        ResumeVm,
        StartVm,
        StopVm,
        SuspendVm,
    )

    for action in decision.actions:
        job = jobs_by_vm.get(action.vm_id)
        if job is None:
            continue  # web instance actions: no job state to evolve
        if isinstance(action, StartVm):
            job.start(t, action.node_id, action.cpu_mhz)
        elif isinstance(action, ResumeVm):
            job.start(t, action.node_id, action.cpu_mhz)
        elif isinstance(action, MigrateVm):
            job.migrate(t, action.dst_node_id, action.cpu_mhz)
        elif isinstance(action, SuspendVm):
            job.suspend(t)
        elif isinstance(action, StopVm):
            job.cancel(t)
        elif isinstance(action, AdjustCpu):
            job.set_rate(t, action.cpu_mhz)


def _make_app(max_instances, **overrides):
    params = dict(
        app_id="web",
        rt_goal=0.5,
        mean_service_cycles=250.0,
        request_cap_mhz=2000.0,
        instance_memory_mb=500.0,
        min_instances=1,
        max_instances=max_instances,
        model_kind="closed",
        think_time=0.25,
    )
    params.update(overrides)
    return TransactionalAppSpec(**params)


def _fresh(app_spec, history):
    """A new controller that has seen exactly ``history``'s observations."""
    controller = UtilityDrivenController([app_spec])
    for load, service_cycles in history:
        controller.observe_app("web", load=load, service_cycles=service_cycles)
    return controller


@pytest.mark.parametrize("seed", [3, 17, 91])
def test_reused_matches_fresh_across_failure_trace(seed):
    rng = np.random.default_rng(seed)
    n_nodes = int(rng.integers(4, 9))
    n_cycles = 12
    fail_cycle = int(rng.integers(4, 8))
    horizon = n_cycles * CYCLE

    nodes = _make_nodes(n_nodes)
    app_spec = _make_app(n_nodes)
    reused = UtilityDrivenController([app_spec])
    history = []

    jobs = _make_jobs(rng, int(rng.integers(15, 40)), horizon)
    jobs_by_vm = {j.vm.vm_id: j for j in jobs}
    placement = Placement()
    active = list(nodes)
    app_nodes = {"web": frozenset()}
    saw_suspended_after_failure = False

    for k in range(n_cycles):
        t = k * CYCLE
        # Progress running jobs and complete the finished ones.
        for job in jobs:
            if job.phase.name == "RUNNING":
                job.advance_to(t)
                if job.remaining_work <= 0.0:
                    job.complete(t)
                    if job.vm.vm_id in placement:
                        placement.remove(job.vm.vm_id)

        if k == fail_cycle:
            dead = active.pop(0)
            for entry in list(placement.entries_on(dead.node_id)):
                job = jobs_by_vm.get(entry.vm_id)
                if job is not None and job.phase.name == "RUNNING":
                    job.suspend(t)
                    saw_suspended_after_failure = True
                placement.remove(entry.vm_id)
            app_nodes = {
                "web": frozenset(
                    n for n in app_nodes["web"] if n != dead.node_id
                )
            }

        load = float(rng.uniform(20.0, 160.0))
        cycles_obs = float(rng.uniform(200.0, 300.0))
        reused.observe_app("web", load=load, service_cycles=cycles_obs)
        history.append((load, cycles_obs))
        fresh = _fresh(app_spec, history)

        vm_states = {j.vm.vm_id: j.vm.state for j in jobs}
        for node in app_nodes["web"]:
            vm_states[f"tx:web@{node}"] = VmState.RUNNING

        kwargs = dict(
            nodes=active,
            jobs=jobs,
            current_placement=placement,
            vm_states=vm_states,
            app_nodes=app_nodes,
        )
        decision_r = reused.decide(t, **kwargs)
        decision_f = fresh.decide(t, **kwargs)
        _assert_decisions_identical(decision_r, decision_f, cycle=k)

        _apply_decision(decision_r, jobs_by_vm, t)
        placement = decision_r.placement.copy()
        app_nodes = {
            "web": frozenset(
                e.node_id for e in placement if e.vm_id.startswith("tx:web@")
            )
        }

    # The failure must hit running work, or the trace never exercises
    # the eviction path the differential is meant to cover.
    assert saw_suspended_after_failure


def test_foreign_decide_between_cycles_leaves_no_state():
    """A decide() on unrelated inputs between cycles changes nothing."""
    rng = np.random.default_rng(5)
    nodes = _make_nodes(5)
    app_spec = _make_app(
        5, rt_goal=0.4, mean_service_cycles=300.0, request_cap_mhz=2500.0,
        instance_memory_mb=400.0, think_time=0.2,
    )
    reused = UtilityDrivenController([app_spec])
    history = []
    jobs = _make_jobs(rng, 20, 6 * CYCLE)
    jobs_by_vm = {j.vm.vm_id: j for j in jobs}
    foreign_jobs = _make_jobs(np.random.default_rng(99), 8, 6 * CYCLE)
    placement = Placement()
    for k in range(6):
        t = k * CYCLE
        for job in jobs:
            if job.phase.name == "RUNNING":
                job.advance_to(t)
        if k == 3:
            # An unrelated cycle: other nodes, other jobs, nothing placed.
            reused.decide(
                t,
                nodes=_make_nodes(2),
                jobs=foreign_jobs,
                current_placement=Placement(),
                vm_states={j.vm.vm_id: j.vm.state for j in foreign_jobs},
                app_nodes={"web": frozenset()},
            )
        load = float(rng.uniform(30.0, 120.0))
        reused.observe_app("web", load=load)
        history.append((load, None))
        kwargs = dict(
            nodes=nodes,
            jobs=jobs,
            current_placement=placement,
            vm_states={j.vm.vm_id: j.vm.state for j in jobs},
            app_nodes={"web": frozenset()},
        )
        decision_r = reused.decide(t, **kwargs)
        decision_f = _fresh(app_spec, history).decide(t, **kwargs)
        _assert_decisions_identical(decision_r, decision_f, cycle=k)
        _apply_decision(decision_r, jobs_by_vm, t)
        placement = decision_r.placement.copy()
