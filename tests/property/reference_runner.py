"""Frozen copy of the experiment runner's all-jobs per-cycle passes.

This module preserves, verbatim, the bodies of
:class:`~repro.experiments.runner.ExperimentRunner`'s per-cycle passes as
they stood before the runner kept a live-job index: every control cycle
walks *every* trace job -- completed and not-yet-submitted ones included
-- to integrate progress, hand the policy its ``jobs`` as a plain list,
re-predict completions, build ``vm_states``, snapshot the population
(with the frozen per-job loop of :mod:`.reference_jobmodel`) and count
phases.  :meth:`ReferenceRunner._schedule_completion` is the body from
before completion events were windowed to the next control cycle: it
schedules every finite prediction.  :class:`ReferenceRunner` overrides
exactly those passes, so it never admits a job into the live index and
runs the old code end to end.  The differential test checks the
production runner against it for identical outputs.  Do NOT edit these
bodies when changing the production runner -- they are the reference the
contract is stated against.
"""

from __future__ import annotations

import math

from repro.cluster.vm import VmState
from repro.core.controller import ControlDecision
from repro.core.hypothetical import (
    longrunning_max_utility_demand,
    mean_hypothetical_utility,
)
from repro.experiments.runner import ExperimentRunner
from repro.sim import ORDER_COMPLETION
from repro.types import Seconds
from repro.workloads.jobs import Job, JobPhase

from .reference_jobmodel import snapshot_jobs


class ReferenceRunner(ExperimentRunner):
    """:class:`ExperimentRunner` with the all-jobs per-cycle passes."""

    def _control_cycle(self, t: Seconds) -> None:
        self._advance_running_jobs(t)
        self._feed_observations(t)
        decision = self._policy.decide(
            t,
            nodes=self._cluster.active_nodes(),
            jobs=list(self._jobs.values()),
            current_placement=self._placement,
            vm_states=self._vm_states(),
            app_nodes=self._app_nodes(),
        )
        decision.placement.validate(self._cluster)
        for action in decision.actions:
            self._apply(action, t)
        self._action_log.count(list(decision.actions))
        self._placement = decision.placement.copy()
        self._reschedule_completions(t)
        self._record(t, decision)
        self._cycles += 1

    def _advance_running_jobs(self, t: Seconds) -> None:
        for job in self._jobs.values():
            if job.phase is JobPhase.RUNNING:
                job.advance_to(t)

    def _reschedule_completions(self, t: Seconds) -> None:
        for job_id in sorted(self._jobs):
            job = self._jobs[job_id]
            if job.phase is JobPhase.RUNNING and job.job_id not in self._rate_events:
                self._schedule_completion(job, t)

    def _schedule_completion(self, job: Job, t: Seconds) -> None:
        event = self._completion_events.pop(job.job_id, None)
        if event is not None and not event.fired:
            event.cancel()
        when = job.predicted_completion(t)
        if math.isinf(when):
            return
        self._completion_events[job.job_id] = self._sim.at(
            max(when, t),
            lambda t2, job_id=job.job_id: self._complete(job_id, t2),
            order=ORDER_COMPLETION,
            tag=f"complete:{job.job_id}",
        )

    def _vm_states(self) -> dict[str, VmState]:
        states: dict[str, VmState] = {}
        for job in self._jobs.values():
            states[job.vm.vm_id] = job.vm.state
        for app_id in sorted(self._apps):
            for node_id in self._apps[app_id].instance_nodes:
                states[f"tx:{app_id}@{node_id}"] = VmState.RUNNING
        return states

    def _record(self, t: Seconds, decision: ControlDecision) -> None:
        rec = self._recorder
        noise = self.scenario.noise
        solution = decision.solution

        population = snapshot_jobs(self._jobs.values(), t)
        satisfied_lr = solution.satisfied_lr_demand
        rec.record("lr_allocation", t, satisfied_lr)
        rec.record("lr_demand", t, longrunning_max_utility_demand(population))
        rec.record(
            "lr_utility", t, mean_hypothetical_utility(population, satisfied_lr)
        )
        rec.record("lr_utility_target", t, decision.hypothetical.mean_utility)

        tx_alloc_total = 0.0
        tx_demand_total = 0.0
        tx_utils: list[float] = []
        net_rts: list[float] = []
        in_zone_fracs: list[float] = []
        latency_attained = 0
        for app_id in sorted(self._apps):
            app = self._apps[app_id]
            true_load = app.arrival_rate(t)
            model = app.spec.build_perf_model(true_load)
            alloc = app.total_allocation
            rt = model.response_time(alloc) * self._lognoise(noise.response_time_rel_std)
            utility = self._tx_utilities[app_id].of_response_time(rt)
            tx_alloc_total += alloc
            tx_demand_total += model.max_utility_demand(
                self.scenario.controller.rt_tolerance
            )
            tx_utils.append(utility)
            rec.record(f"tx_rt:{app_id}", t, rt)
            rec.record(f"tx_utility:{app_id}", t, utility)
            rec.record(f"tx_allocation:{app_id}", t, alloc)
            if self._network_ctx is not None:
                # ``tx_rt`` stays queueing-only by contract; the network
                # leg is a *new* series, composed into ``rt_total``.
                net_rt = self._network_ctx.expected_rtt_s(app.instance_nodes)
                net_rts.append(net_rt)
                in_zone_fracs.append(
                    self._network_ctx.in_zone_fraction(app.instance_nodes)
                )
                if rt + net_rt <= app.spec.rt_goal:
                    latency_attained += 1
                rec.record(f"rt_network:{app_id}", t, net_rt)
                rec.record(f"rt_total:{app_id}", t, rt + net_rt)
        rec.record("tx_allocation", t, tx_alloc_total)
        rec.record("tx_demand", t, tx_demand_total)
        rec.record("tx_utility", t, min(tx_utils) if tx_utils else math.nan)
        if self._network_ctx is not None and net_rts:
            rec.record("rt_network_mean", t, sum(net_rts) / len(net_rts))
            rec.record(
                "in_zone_fraction", t, sum(in_zone_fracs) / len(in_zone_fracs)
            )
            rec.record(
                "latency_sla_attainment", t, latency_attained / len(net_rts)
            )

        diag = decision.diagnostics
        rec.record("tx_target", t, diag.tx_target)
        rec.record("lr_target", t, diag.lr_target)
        rec.record("tx_demand_est", t, diag.tx_demand)
        rec.record("lr_demand_est", t, diag.lr_demand)
        rec.record("tx_utility_predicted", t, diag.tx_utility_predicted)
        rec.record("utility_gap", t, abs(rec.series("tx_utility").value_at(t)
                                         - rec.series("lr_utility").value_at(t)))
        rec.record("arbiter_iterations", t, diag.arbiter_iterations)
        rec.record("changes", t, solution.changes)

        # Control-plane telemetry (policies without the utility-driven
        # control plane -- the baselines -- simply record nothing here).
        # Naming contract: repro.sim.recorder module docstring.
        telemetry = getattr(diag, "telemetry", None)
        if telemetry is not None:
            for stage, ms in telemetry.stage_ms.items():
                rec.record(f"stage_ms:{stage}", t, ms)
            rec.record("eq_evals", t, telemetry.eq_evals)
            rec.record("eq_cache_hits", t, telemetry.eq_cache_hits)
            rec.bump("eq_evals_total", telemetry.eq_evals)
            rec.bump("eq_cache_hits_total", telemetry.eq_cache_hits)

        # Background exact-oracle telemetry (the ``exact_oracle``
        # controller knob; naming contract: repro.sim.recorder module
        # docstring).  Both fields are NaN on cycles the oracle skipped
        # or is disabled for, so the series only carry real samples.
        gap = getattr(diag, "optimality_gap", math.nan)
        if not math.isnan(gap):
            rec.record("optimality_gap", t, gap)
        exact_ms = getattr(diag, "exact_ms", math.nan)
        if not math.isnan(exact_ms):
            rec.record("exact_ms", t, exact_ms)

        # Sharded control plane: per-shard decide times and cross-shard
        # balance (ShardedDiagnostics only; the monolithic controller
        # records nothing here).
        shard_telemetry = getattr(diag, "shard_telemetry", ())
        if shard_telemetry:
            rec.record("shard_imbalance", t, diag.shard_imbalance)
            for st in shard_telemetry:
                rec.record(
                    f"shard_ms:{st.shard}",
                    t,
                    st.telemetry.stage_ms.get("total", math.nan),
                )

        # Graceful degradation and fault telemetry (naming contract:
        # repro.sim.recorder module docstring).  ``brownout_fraction`` is
        # recorded every cycle (0.0 while no brownout is active) so its
        # time average is well-defined for every run.
        rec.record(
            "brownout_fraction", t, self._cluster.brownout_capacity_fraction
        )
        if getattr(diag, "degraded", False):
            rec.bump("degraded_cycles")
            rec.bump(f"fallback:{getattr(diag, 'fallback_reason', '') or 'unknown'}")
        if getattr(diag, "deadline_overrun", False):
            rec.bump("decide_overruns")
        pool_failures = getattr(diag, "pool_failures", 0)
        if pool_failures:
            rec.bump("fallback:shard-pool", pool_failures)

        counts = {phase: 0 for phase in JobPhase}
        for job in self._jobs.values():
            if job.spec.submit_time <= t:
                counts[job.phase] += 1
        rec.record("jobs_running", t, counts[JobPhase.RUNNING])
        rec.record("jobs_suspended", t, counts[JobPhase.SUSPENDED])
        rec.record("jobs_pending", t, counts[JobPhase.PENDING])
        rec.record("jobs_completed_series", t, counts[JobPhase.COMPLETED])
