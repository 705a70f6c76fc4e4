"""One scenario run as the benchmark measures it, and its correctness checks.

A run goes through the public API only: ``ScenarioSpec.materialize()``
and ``ExperimentRunner(scenario, policy_factory).run()``.  The policy
factory hands the runner the default policy behind :class:`TimedPolicy`,
a proxy that times each ``decide()`` call from outside.
"""

from __future__ import annotations

import math
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional

from repro.api import ScenarioSpec
from repro.errors import ReproError
from repro.experiments.runner import (
    ExperimentResult,
    ExperimentRunner,
    default_policy_factory,
)
from repro.workloads.jobs import JobPhase

from tracing import Tracer


class TimedPolicy:
    """Placement-policy proxy recording the wall time of every decide()."""

    def __init__(self, inner: object, samples: list[float]) -> None:
        self.inner = inner
        self.samples = samples

    def observe_app(self, app_id, *, load, service_cycles=None) -> None:
        self.inner.observe_app(app_id, load=load, service_cycles=service_cycles)

    def decide(self, t, **kwargs):
        start = perf_counter()
        decision = self.inner.decide(t, **kwargs)
        self.samples.append(perf_counter() - start)
        return decision

    def close(self) -> None:
        close = getattr(self.inner, "close", None)
        if close is not None:
            close()

    def __getattr__(self, name: str):
        # Forwards control_state/invalidate to the real policy, so the
        # runner's resilient wrapper can still force it cold.
        if name == "inner":
            raise AttributeError(name)
        return getattr(self.inner, name)


@dataclass
class RunRecord:
    """What one scenario run produced, as the benchmark reports it."""

    scenario_seed: int
    horizon: float
    expected_cycles: int
    setup_s: float = math.nan
    run_s: float = math.nan
    decide_s: list[float] = field(default_factory=list)
    cycles: int = 0
    degraded_cycles: int = 0
    #: Deterministic outputs compared across repeats of the same seed.
    fingerprint: dict[str, float] = field(default_factory=dict)
    #: Per-run telemetry the trace report reads (recorder counters).
    telemetry: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.errors

    @property
    def failed_cycles(self) -> int:
        """Cycles counted as failed operations: all of them when a check
        failed, otherwise the cycles the resilient wrapper fell back on."""
        return self.expected_cycles if self.errors else self.degraded_cycles


def expected_cycles(spec: ScenarioSpec) -> int:
    """Control cycles the runner fires: t = 0, c, 2c, ... up to the horizon."""
    cycle = spec.controller.control_cycle
    return math.floor(spec.horizon / cycle + 1e-9) + 1


def run_once(spec: ScenarioSpec, tracer: Optional[Tracer] = None) -> RunRecord:
    """Set up and run ``spec`` once, then check the outputs."""
    record = RunRecord(
        scenario_seed=spec.seed,
        horizon=spec.horizon,
        expected_cycles=expected_cycles(spec),
    )

    def factory(scenario):
        return TimedPolicy(default_policy_factory(scenario), record.decide_s)

    try:
        if tracer is None:
            start = perf_counter()
            scenario = spec.materialize()
            runner = ExperimentRunner(scenario, factory)
            ready = perf_counter()
            result = runner.run()
            done = perf_counter()
        else:
            tracer.begin_run()
            start = perf_counter()
            scenario = tracer.call("setup.materialize", spec.materialize)
            runner = tracer.call("setup.runner", ExperimentRunner, scenario, factory)
            ready = perf_counter()
            result = tracer.call("experiments.runner.run", runner.run)
            done = perf_counter()
    except Exception as exc:  # noqa: BLE001 - a crashed run is reported, not fatal
        record.errors.append(
            f"run raised {type(exc).__name__}: {exc}\n{traceback.format_exc()}"
        )
        return record
    record.setup_s = ready - start
    record.run_s = done - ready
    _summarize(record, result)
    record.errors.extend(check(result, record))
    return record


def _summarize(record: RunRecord, result: ExperimentResult) -> None:
    summary = result.summary_metrics()
    rec = result.recorder
    log = result.action_log
    record.cycles = result.cycles
    record.degraded_cycles = int(rec.counter("degraded_cycles"))
    arbiter_iterations = (
        float(rec.series("arbiter_iterations").values.sum())
        if rec.has_series("arbiter_iterations")
        else 0.0
    )
    record.fingerprint = {
        "min_utility": summary["min_utility"],
        "disruptive_actions": float(log.disruptive_total),
        "degraded_cycles": float(record.degraded_cycles),
        "cycles": float(result.cycles),
        "jobs_completed": summary["jobs_completed"],
        "node_failures": float(rec.counter("node_failures")),
        "arbiter_iterations": arbiter_iterations,
        "eq_evals": float(rec.counter("eq_evals_total")),
        "eq_cache_hits": float(rec.counter("eq_cache_hits_total")),
        "cold_cycles": float(rec.counter("cold_cycles")),
        "starts": float(log.starts),
        "stops": float(log.stops),
        "suspensions": float(log.suspensions),
        "resumptions": float(log.resumptions),
        "migrations": float(log.migrations),
        "adjustments": float(log.adjustments),
    }

    def stage_s(stage: str) -> float:
        name = f"stage_ms:{stage}"
        return float(rec.series(name).values.sum()) / 1e3 if rec.has_series(name) else 0.0

    record.telemetry = {
        **{
            f"stage_{stage}_s": stage_s(stage)
            for stage in (
                "demand", "arbiter", "equalize", "requests", "solver", "planner"
            )
        },
        "shard_imbalance": (
            float(rec.series("shard_imbalance").values.mean())
            if rec.has_series("shard_imbalance")
            else 0.0
        ),
    }


def check(result: ExperimentResult, record: RunRecord) -> list[str]:
    """The run's correctness checks; returns one message per failure."""
    errors: list[str] = []
    horizon = result.scenario.horizon

    # Job conservation: every job submitted by the horizon is accounted for.
    counts = {phase: 0 for phase in JobPhase}
    submitted = 0
    for job in result.jobs:
        if job.spec.submit_time <= horizon:
            submitted += 1
            counts[job.phase] += 1
    accounted = (
        counts[JobPhase.COMPLETED]
        + counts[JobPhase.RUNNING]
        + counts[JobPhase.SUSPENDED]
        + counts[JobPhase.PENDING]
    )
    if accounted != submitted:
        errors.append(
            f"job conservation: {submitted} submitted != {accounted} "
            f"completed+running+suspended+pending "
            f"({counts[JobPhase.CANCELLED]} cancelled)"
        )

    # No overcommit: the final placement fits the cluster as the last
    # control cycle saw it, with node failures up to the horizon applied
    # (the runner evicts their entries the moment a node fails).
    last_cycle = (record.expected_cycles - 1) * result.scenario.controller.control_cycle
    try:
        result.final_placement.validate(_cluster_at(result, last_cycle))
    except ReproError as exc:
        errors.append(f"final placement: {exc}")

    min_utility = result.summary_metrics()["min_utility"]
    if not (math.isfinite(min_utility) and 0.0 <= min_utility <= 1.0):
        errors.append(f"min_utility {min_utility!r} is not a finite value in [0, 1]")

    if result.cycles != record.expected_cycles:
        errors.append(
            f"cycles: ran {result.cycles}, horizon and control cycle imply "
            f"{record.expected_cycles}"
        )
    return errors


def _cluster_at(result: ExperimentResult, brownouts_until: float):
    """The scenario's cluster with its failure schedule replayed.

    Failures and restores are applied up to the horizon, brownouts up to
    ``brownouts_until``, in the order the runner schedules them.
    """
    scenario = result.scenario
    cluster = scenario.build_cluster()
    events = []
    for failure in scenario.failures:
        events.append((failure.at, len(events), cluster.fail_node, (failure.node_id,)))
        if failure.restore_at is not None:
            events.append(
                (failure.restore_at, len(events), cluster.restore_node, (failure.node_id,))
            )
    for brownout in scenario.brownouts:
        if brownout.at <= brownouts_until:
            events.append(
                (
                    brownout.at,
                    len(events),
                    cluster.set_brownout,
                    (brownout.node_id, brownout.fraction),
                )
            )
        if brownout.restore_at is not None and brownout.restore_at <= brownouts_until:
            events.append(
                (brownout.restore_at, len(events), cluster.clear_brownout, (brownout.node_id,))
            )
    for at, _, apply, args in sorted(events, key=lambda e: (e[0], e[1])):
        if at <= scenario.horizon:
            apply(*args)
    return cluster


def fingerprint_differences(records: list[RunRecord]) -> list[str]:
    """Deterministic fields that differ between runs of the same seed."""
    first: dict[int, RunRecord] = {}
    diffs: list[str] = []
    for record in records:
        if not record.fingerprint:
            continue
        reference = first.setdefault(record.scenario_seed, record)
        if reference is record:
            continue
        for key, value in record.fingerprint.items():
            expected = reference.fingerprint.get(key)
            if not _same(value, expected):
                diffs.append(
                    f"seed {record.scenario_seed}: {key} {value!r} != {expected!r}"
                )
    return diffs


def _same(a: Optional[float], b: Optional[float]) -> bool:
    if a is None or b is None:
        return a is b
    return a == b or (math.isnan(a) and math.isnan(b))
