"""Sharded control plane under the full experiment runner.

The headline property: a node failure inside one shard shrinks that
shard only -- shard assignments are sticky, so no other shard's nodes
or jobs move -- and the run as a whole recovers (every cycle of the
horizon runs, jobs keep completing, per-shard telemetry keeps flowing).
"""

import math

import pytest

from repro.config import ControllerConfig
from repro.experiments.runner import default_policy_factory, run_scenario
from repro.experiments.scenario import NodeFailure, smoke_scenario

CYCLE = 300.0


def _sharded_smoke(shards, **controller_overrides):
    scenario = smoke_scenario()
    controller = ControllerConfig(
        control_cycle=CYCLE, shards=shards, **controller_overrides
    )
    return scenario.with_controller(controller)


class TestShardLocalInvalidation:
    """A node failure changes its own shard only, and the run recovers."""

    def test_failure_invalidates_only_the_owning_shard(self):
        # smoke_scenario's homogeneous cluster names nodes node000..node003;
        # the round-robin planner maps node000/node002 -> shard 0 and
        # node001/node003 -> shard 1.  Failing node000 mid-run must shrink
        # shard 0 only: assignments are sticky, nothing is reshuffled.
        scenario = _sharded_smoke(2).with_failures(
            [NodeFailure(at=1450.0, node_id="node000")]
        )
        policies = []

        def factory(s):
            policy = default_policy_factory(s)
            policies.append(policy)
            return policy

        result = run_scenario(scenario, factory)
        (controller,) = policies

        assert result.recorder.counter("node_failures") == 1.0
        assert controller.node_shard("node000") == 0
        shard_nodes = [
            [n.node_id for n in nodes] for nodes in controller.last_shard_nodes
        ]
        assert shard_nodes == [["node002"], ["node001", "node003"]]

    def test_run_recovers_after_the_failure(self):
        scenario = _sharded_smoke(2).with_failures(
            [NodeFailure(at=1450.0, node_id="node000")]
        )
        result = run_scenario(scenario)
        rec = result.recorder

        # The run completed every cycle of the horizon (one at t=0, one
        # per cycle boundary after).
        assert result.cycles == int(scenario.horizon / CYCLE) + 1
        assert rec.counter("node_failures") == 1.0
        # Both shards kept deciding after the failure cycle.
        for shard in (0, 1):
            series = rec.series(f"shard_ms:{shard}")
            assert any(t > 1500.0 for t in series.times)
        # The simulation still made progress end to end.
        outcomes = result.job_outcomes()
        assert outcomes["completed"] > 0

    def test_shard_series_recorded(self):
        result = run_scenario(_sharded_smoke(2))
        rec = result.recorder
        names = rec.series_names()
        assert "shard_imbalance" in names
        assert "shard_ms:0" in names and "shard_ms:1" in names
        for shard in (0, 1):
            series = rec.series(f"shard_ms:{shard}")
            assert len(series) == result.cycles
            assert all(v >= 0.0 or math.isnan(v) for v in series.values)

    def test_monolithic_run_records_no_shard_series(self):
        result = run_scenario(smoke_scenario())
        names = result.recorder.series_names()
        assert not [n for n in names if n.startswith("shard_")]
        assert "shard_imbalance" not in names


class TestShardedRunEquivalence:
    def test_sharded_run_matches_monolithic_outcomes_roughly(self):
        """Sharding changes placement details, not viability.

        Not a bit-identity claim (shards solve independently); the run
        must still deliver comparable throughput on the smoke scenario.
        """
        mono = run_scenario(smoke_scenario())
        sharded = run_scenario(_sharded_smoke(2))
        assert sharded.cycles == mono.cycles
        mono_done = mono.job_outcomes()["completed"]
        sharded_done = sharded.job_outcomes()["completed"]
        assert sharded_done >= 0.5 * mono_done
        # Utility telemetry stays in a sane band.
        summary = sharded.summary_metrics()
        assert 0.0 <= summary["lr_utility"] <= 1.0
