"""The benchmark's workloads, built from a seed through the public spec API.

Each workload is a :class:`repro.api.ScenarioSpec` derived from a
registered scenario shape with :func:`dataclasses.replace`, so it keeps
tracking the registered shapes' constants.  A workload run covers
``SEEDS_PER_ROUND[name]`` consecutive scenario seeds; the benchmark seed
picks where that block starts, so the same ``--seed`` always gives the
same inputs.
"""

from __future__ import annotations

import dataclasses

from repro.api import JobTraceSpec, ScenarioSpec, TopologySpec, scenario_spec

#: Scenario seeds per round.  Utility and churn are deterministic per
#: scenario seed but vary between seeds; averaging over a round keeps
#: their spread across benchmark seeds small.
SEEDS_PER_ROUND = {"paper": 24, "fleet": 2, "chaos-edge": 16}


def scenario_seeds(workload: str, seed: int) -> list[int]:
    """The consecutive scenario seeds one round of ``workload`` runs."""
    k = SEEDS_PER_ROUND[workload]
    return [seed * k + i for i in range(k)]


def _scale_sessions(app, factor: float, max_instances: int):
    """``app`` with its web load scaled by ``factor``."""
    profile = app.profile
    base = profile.base  # NoisyProfileSpec wrapping a constant intensity
    base = dataclasses.replace(base, value=base.value * factor)
    return dataclasses.replace(
        app,
        profile=dataclasses.replace(profile, base=base),
        max_instances=max_instances,
    )


def paper(seed: int) -> ScenarioSpec:
    """The registered ``paper`` scenario: 25 nodes, 800 jobs, 70 ks."""
    return scenario_spec("paper", seed=seed)


def fleet(seed: int) -> ScenarioSpec:
    """1000 paper nodes, ~6000 jobs at t=0 plus 40x paper arrivals, 4 shards."""
    base = scenario_spec("paper", seed=seed)
    scale = 40
    nodes = 1000
    horizon = 18_000.0
    mean_interarrival = base.jobs.mean_interarrival / scale
    initial = 6000
    # Enough arrivals to last past the horizon.
    arrivals = int(horizon / mean_interarrival * 1.1)
    return dataclasses.replace(
        base,
        name="fleet",
        horizon=horizon,
        topology=dataclasses.replace(base.topology, num_nodes=nodes),
        apps=(_scale_sessions(base.apps[0], scale, nodes),),
        jobs=dataclasses.replace(
            base.jobs,
            count=initial + arrivals,
            initial_jobs=initial,
            mean_interarrival=mean_interarrival,
            rate_drop_time=2 * horizon,
        ),
        controller=dataclasses.replace(base.controller, shards=4, shard_workers=1),
    )


def chaos_edge(seed: int) -> ScenarioSpec:
    """The edge-cloud continuum x10 with two web apps and every fault model.

    The crash, brownout and flap processes are ``chaos-soak``'s; the zone
    outage is ``cross-zone-failover``'s outage of the ``edge`` zone.
    """
    edge = scenario_spec("edge-cloud-continuum", seed=seed)
    multi = scenario_spec("multi-app-differentiation", seed=seed)
    paper_spec = scenario_spec("paper", seed=seed)
    soak = scenario_spec("chaos-soak", seed=seed).faults
    failover = scenario_spec("cross-zone-failover", seed=seed).faults
    scale = 10
    classes = tuple(
        dataclasses.replace(cls, count=cls.count * scale)
        for cls in edge.topology.classes
    )
    topology = TopologySpec(classes=classes)
    total_nodes = topology.total_nodes
    # Batch load at the paper's intensity per MHz of capacity; web load at
    # three quarters of it, split between the premium (0.5x rt goal) and
    # budget (2.5x) apps in the multi-app-differentiation proportions.
    # The cluster stays overloaded, so the arbiter bisects every cycle,
    # but the premium app's utility stays off the floor, where it swings
    # most from seed to seed.
    ratio = topology.cpu_capacity / paper_spec.topology.cpu_capacity
    sessions = 0.75 * paper_spec.apps[0].profile.base.value * ratio
    shares = [app.profile.base.value for app in multi.apps]
    apps = tuple(
        _scale_sessions(app, sessions / sum(shares), total_nodes)
        for app in multi.apps
    )
    horizon = edge.horizon
    mean_interarrival = paper_spec.jobs.mean_interarrival / ratio
    return dataclasses.replace(
        edge,
        name="chaos-edge",
        topology=topology,
        apps=apps,
        jobs=JobTraceSpec(
            kind="paper",
            count=int(horizon / mean_interarrival),
            mean_interarrival=mean_interarrival,
            rate_drop_time=edge.jobs.rate_drop_time,
        ),
        faults=dataclasses.replace(soak, zone_outages=failover.zone_outages),
    )


BUILDERS = {"paper": paper, "fleet": fleet, "chaos-edge": chaos_edge}
WORKLOADS = tuple(BUILDERS)
