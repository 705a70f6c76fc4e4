"""Experiment scenarios.

A :class:`Scenario` is a fully materialized experiment description:
cluster topology, transactional applications with their intensity
profiles, the job-submission trace, controller configuration, action
costs, measurement noise, horizon and seed.  Builders construct the
paper's evaluation scenario (:func:`paper_scenario`) and scaled-down
variants for tests and ablations.

Paper parameters reproduced by :func:`paper_scenario`:

* 25 nodes x 4 processors (3000 MHz each -> 300 GHz cluster), memory
  sized so only three jobs fit per node;
* 800 identical jobs, each capped at one processor, submitted with
  exponential inter-arrival times of mean 260 s; the submission rate is
  halved near the end of the run;
* a constant transactional workload (closed session population) whose
  max-utility demand is about 70% of cluster capacity;
* placement recomputed every 600 s; horizon 70 000 s (the span of the
  paper's Figures 1-2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

from ..cluster.actions import ActionCosts
from ..cluster.cluster import Cluster
from ..cluster.topology import (
    NodeClass,
    cluster_from_classes,
    homogeneous_cluster,
    zone_map_from_classes,
)
from ..config import ControllerConfig, NoiseConfig
from ..errors import ConfigurationError
from ..netmodel.topology import ZoneTopology
from ..sim.rng import RngRegistry
from ..types import Seconds
from ..workloads.jobs import JobSpec
from ..workloads.profiles import ConstantProfile, IntensityProfile, NoisyProfile
from ..workloads.tracegen import JobTemplate, paper_job_trace
from ..workloads.transactional import TransactionalAppSpec


@dataclass(frozen=True)
class NodeFailure:
    """A scheduled node outage (failure injection experiments)."""

    at: Seconds
    node_id: str
    restore_at: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("failure time must be non-negative")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ConfigurationError("restore_at must come after the failure")


@dataclass(frozen=True)
class NodeBrownout:
    """A scheduled capacity brownout: the node keeps running but serves
    only ``fraction`` of its nominal CPU speed until ``restore_at``."""

    at: Seconds
    node_id: str
    fraction: float
    restore_at: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if self.at < 0:
            raise ConfigurationError("brownout time must be non-negative")
        if not 0 < self.fraction < 1:
            raise ConfigurationError("brownout fraction must be in (0, 1)")
        if self.restore_at is not None and self.restore_at <= self.at:
            raise ConfigurationError("restore_at must come after the brownout")


@dataclass(frozen=True)
class AppWorkload:
    """One managed transactional application plus its load profile."""

    spec: TransactionalAppSpec
    profile: IntensityProfile


@dataclass(frozen=True)
class Scenario:
    """A complete, reproducible experiment description."""

    name: str
    num_nodes: int
    node_processors: int
    node_mhz: float
    node_memory_mb: float
    apps: tuple[AppWorkload, ...]
    job_specs: tuple[JobSpec, ...]
    controller: ControllerConfig
    costs: ActionCosts
    noise: NoiseConfig
    horizon: Seconds
    seed: int
    failures: tuple[NodeFailure, ...] = field(default_factory=tuple)
    #: Optional heterogeneous topology: when non-empty the cluster is
    #: built from these classes instead of ``num_nodes`` identical nodes
    #: (the ``node_*`` fields then describe the first class, for
    #: homogeneous-only consumers such as the paper-shape validator).
    node_classes: tuple[NodeClass, ...] = field(default_factory=tuple)
    #: Scheduled capacity brownouts (typically compiled from a
    #: :class:`repro.faults.FaultPlanSpec` by ``ScenarioSpec.materialize``).
    brownouts: tuple[NodeBrownout, ...] = field(default_factory=tuple)
    #: Optional network model (the spec's ``[network]`` block): zone RTTs
    #: and user populations.  ``None`` means the scenario is latency-blind
    #: and behaves exactly as before the network subsystem existed.
    network: Optional[ZoneTopology] = None

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ConfigurationError("num_nodes must be >= 1")
        if self.horizon <= 0:
            raise ConfigurationError("horizon must be positive")
        id_counts = Counter(spec.job_id for spec in self.job_specs)
        if len(id_counts) != len(self.job_specs):
            # The runner keys its job state by id: a duplicate would
            # silently merge two jobs and break job conservation.
            duplicates = sorted(i for i, n in id_counts.items() if n > 1)
            raise ConfigurationError(
                f"duplicate job ids in job_specs: {', '.join(duplicates)}"
            )
        if self.node_classes:
            total = sum(cls.count for cls in self.node_classes)
            if total != self.num_nodes:
                raise ConfigurationError(
                    f"node_classes count {total} != num_nodes {self.num_nodes}"
                )
        if self.network is not None:
            if not self.node_classes:
                raise ConfigurationError(
                    "a network topology requires a cluster built from node "
                    "classes (zones)"
                )
            for cls in self.node_classes:
                zone = cls.zone or cls.name
                if zone not in self.network.zones:
                    raise ConfigurationError(
                        f"node class {cls.name!r} is in zone {zone!r}, which "
                        f"the network topology does not declare "
                        f"(declared: {', '.join(self.network.zones)})"
                    )

    def build_cluster(self) -> Cluster:
        """Materialize the cluster topology."""
        if self.node_classes:
            return cluster_from_classes(self.node_classes)
        return homogeneous_cluster(
            self.num_nodes,
            processors=self.node_processors,
            mhz_per_processor=self.node_mhz,
            memory_mb=self.node_memory_mb,
        )

    @property
    def cluster_capacity(self) -> float:
        """Aggregate CPU capacity (MHz), correct for both topology forms.

        Consumers must use this instead of multiplying the ``node_*``
        fields, which describe only the first class of a heterogeneous
        cluster.
        """
        if self.node_classes:
            return sum(cls.cpu_capacity for cls in self.node_classes)
        return self.num_nodes * self.node_processors * self.node_mhz

    def node_zone_map(self) -> dict[str, str]:
        """Node-id -> zone map of the topology (empty when homogeneous)."""
        if not self.node_classes:
            return {}
        return zone_map_from_classes(self.node_classes)

    def with_controller(self, controller: ControllerConfig) -> "Scenario":
        """Copy of the scenario with a different controller configuration."""
        return replace(self, controller=controller)

    def with_failures(self, failures: Sequence[NodeFailure]) -> "Scenario":
        """Copy of the scenario with scheduled node outages."""
        return replace(self, failures=tuple(failures))

    def with_brownouts(self, brownouts: Sequence[NodeBrownout]) -> "Scenario":
        """Copy of the scenario with scheduled capacity brownouts."""
        return replace(self, brownouts=tuple(brownouts))


#: Transactional parameters tuned so the app's utility plateau is 0.75
#: (matching Figure 1's uncontended level) and its max-utility demand is
#: ~210 GHz on the 300 GHz cluster (matching Figure 2's demand band).
PAPER_SESSIONS = 210.0
PAPER_THINK_TIME = 0.2
PAPER_SERVICE_CYCLES = 300.0
PAPER_RT_GOAL = 0.4


def paper_tx_app(
    sessions: float = PAPER_SESSIONS,
    noise_rel_std: float = 0.04,
    seed: int = 104729,
    max_instances: int = 25,
) -> AppWorkload:
    """The paper's constant transactional workload.

    A closed population of ``sessions`` clients with small think time; the
    session count is modulated by low-amplitude lognormal noise per
    control-cycle window, producing the wiggle visible in the paper's
    transactional demand curve.
    """
    spec = TransactionalAppSpec(
        app_id="webapp",
        rt_goal=PAPER_RT_GOAL,
        mean_service_cycles=PAPER_SERVICE_CYCLES,
        request_cap_mhz=3000.0,
        instance_memory_mb=400.0,
        min_instances=1,
        max_instances=max_instances,
        model_kind="closed",
        think_time=PAPER_THINK_TIME,
    )
    base: IntensityProfile = ConstantProfile(sessions)
    profile: IntensityProfile = (
        NoisyProfile(base, rel_std=noise_rel_std, interval=600.0, seed=seed)
        if noise_rel_std > 0
        else base
    )
    return AppWorkload(spec=spec, profile=profile)


def paper_scenario(
    seed: int = 42,
    num_nodes: int = 25,
    horizon: Seconds = 70_000.0,
    job_count: int = 800,
    mean_interarrival: Seconds = 260.0,
    rate_drop_time: Seconds = 60_000.0,
    controller: Optional[ControllerConfig] = None,
    tx_noise_rel_std: float = 0.04,
    measurement_noise: Optional[NoiseConfig] = None,
) -> Scenario:
    """The paper's evaluation scenario (Figures 1 and 2)."""
    rngs = RngRegistry(seed)
    jobs = paper_job_trace(
        rngs.stream("job-arrivals"),
        count=job_count,
        mean_interarrival=mean_interarrival,
        rate_drop_time=rate_drop_time,
    )
    return Scenario(
        name="paper-fig1-fig2",
        num_nodes=num_nodes,
        node_processors=4,
        node_mhz=3000.0,
        node_memory_mb=4000.0,
        apps=(paper_tx_app(noise_rel_std=tx_noise_rel_std, max_instances=num_nodes),),
        job_specs=tuple(jobs),
        controller=controller or ControllerConfig(),
        costs=ActionCosts(),
        noise=measurement_noise or NoiseConfig(),
        horizon=horizon,
        seed=seed,
    )


def scaled_paper_scenario(
    scale: float = 0.2,
    seed: int = 42,
    controller: Optional[ControllerConfig] = None,
) -> Scenario:
    """A proportionally scaled paper scenario for tests and ablations.

    Nodes, session population and job arrival rate shrink together so the
    contention dynamics (ramp, crossover, equalization, recovery) are
    preserved at a fraction of the simulation cost.  The horizon is kept
    at the paper's 70 000 s because job durations do not scale.
    """
    if not 0 < scale <= 1:
        raise ConfigurationError("scale must be in (0, 1]")
    num_nodes = max(int(round(25 * scale)), 2)
    node_ratio = num_nodes / 25.0
    rngs = RngRegistry(seed)
    jobs = paper_job_trace(
        rngs.stream("job-arrivals"),
        count=max(int(round(800 * node_ratio)), 10),
        mean_interarrival=260.0 / node_ratio,
        rate_drop_time=60_000.0,
    )
    return Scenario(
        name=f"paper-scaled-{scale:g}",
        num_nodes=num_nodes,
        node_processors=4,
        node_mhz=3000.0,
        node_memory_mb=4000.0,
        apps=(
            paper_tx_app(
                sessions=PAPER_SESSIONS * node_ratio, max_instances=num_nodes
            ),
        ),
        job_specs=tuple(jobs),
        controller=controller or ControllerConfig(),
        costs=ActionCosts(),
        noise=NoiseConfig(),
        horizon=70_000.0,
        seed=seed,
    )


def smoke_scenario(seed: int = 7) -> Scenario:
    """A minutes-long toy scenario used by fast integration tests."""
    rngs = RngRegistry(seed)
    template = JobTemplate(
        total_work=1_200.0 * 3000.0,  # 20 minutes at one processor
        speed_cap_mhz=3000.0,
        memory_mb=1200.0,
        goal_factor=4.0,
    )
    jobs = paper_job_trace(
        rngs.stream("job-arrivals"),
        count=20,
        mean_interarrival=300.0,
        rate_drop_time=4_000.0,
        template=template,
        initial_jobs=2,
    )
    return Scenario(
        name="smoke",
        num_nodes=4,
        node_processors=4,
        node_mhz=3000.0,
        node_memory_mb=4000.0,
        apps=(paper_tx_app(sessions=40.0, noise_rel_std=0.0, max_instances=4),),
        job_specs=tuple(jobs),
        controller=ControllerConfig(control_cycle=300.0),
        costs=ActionCosts(),
        noise=NoiseConfig(0.0, 0.0, 0.0),
        horizon=6_000.0,
        seed=seed,
    )
