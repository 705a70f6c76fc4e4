"""Exact placement backend on or-tools CP-SAT.

Same one-cycle decision as :mod:`repro.core.milp_solver`, formulated for
the CP-SAT solver (``ortools.sat.python.cp_model``) instead of HiGHS
branch-and-bound.  CP-SAT is integer-only, so every MHz quantity is
scaled to micro-MHz (``_RATE_SCALE``) and every MB footprint to milli-MB
(``_MEM_SCALE``); rounding directions are chosen so an integral solution
is always float-feasible (capacities round down) while every
greedy-reachable solution stays inside the scaled feasible set
(demand-side envelopes round up).  The quantization loss is bounded by
one scale unit (1e-6 MHz) per variable -- far below the differential
harness's comparison epsilon.

The variable blocks (``x``/``r``/``y``/``w``) and every constraint group
mirror ``milp_solver._build_model`` one-for-one, including the change
budget, eviction/migration caps, completion-window protection and the
work-conserving long-running envelope, so the backend honours the exact
churn semantics of the greedy and MILP backends and plugs into the same
differential harness.  Two additions CP-SAT makes cheap:

* **Symmetry breaking** -- nodes that are mutually interchangeable
  (identical CPU/memory, no incumbent VM or instance, not named by any
  latency preference) are ordered by non-increasing memory load, which
  collapses the factorially many node-permuted optima into one
  representative without excluding any objective value.
* **Warm starts** -- ``AddHint`` seeds the search from the incumbent
  placement (running jobs at their current nodes, web instances where
  they already are) with instance grants guessed from the previous
  decision's transactional share of capacity; the controller threads
  the fraction in through :meth:`CpSatPlacementSolver.warm_start`
  (``None`` on its first cycle).

The solved values are laid back out as the flat MILP vector and
translated by :func:`repro.core.milp_solver.extract_solution`, so both
exact backends share one extraction (and its residual-clipping guards).

Select the backend with ``SolverConfig(backend="cpsat")``.  or-tools is
an *optional* dependency: importing this module is always safe, but
constructing the solver without ``ortools`` installed raises
:class:`~repro.errors.ConfigurationError`.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..cluster.node import NodeSpec
from ..cluster.placement import Placement
from ..config import SolverConfig
from ..errors import ConfigurationError, ModelError
from ..types import Mhz
from .job_scheduler import AppRequest, JobRequest, order_by_urgency, split_runnable
from .milp_solver import _incumbent_vector, _Model, extract_solution
from .placement_solver import PlacementSolution

try:  # pragma: no cover - exercised only where or-tools is installed
    from ortools.sat.python import cp_model
except ImportError:  # pragma: no cover
    cp_model = None

#: MHz -> micro-MHz: fine enough that rounding loss (<= 1e-6 MHz per
#: variable) stays far below the differential harness's epsilon.
_RATE_SCALE = 1_000_000
#: MB -> milli-MB.
_MEM_SCALE = 1_000
#: Hard wall-clock cap per solve; small instances finish in
#: milliseconds, and the background oracle must never stall a run.
_TIME_LIMIT_S = 30.0


def _down(value: float, scale: int) -> int:
    """Scale a capacity-side quantity, rounding toward feasibility."""
    return max(0, math.floor(value * scale))


def _up(value: float, scale: int) -> int:
    """Scale a demand-side envelope, rounding toward inclusiveness."""
    return max(0, math.ceil(value * scale))


class CpSatPlacementSolver:
    """Optimal one-cycle placement via or-tools CP-SAT.

    Drop-in alternative to the greedy and MILP backends: same ``solve``
    signature, same :class:`PlacementSolution` output, selected through
    ``SolverConfig(backend="cpsat")``.  Raises
    :class:`~repro.errors.ConfigurationError` at construction when
    or-tools is not installed, which keeps the backend registrable (and
    the rest of the package importable) without the dependency.
    """

    def __init__(self, config: SolverConfig | None = None) -> None:
        if cp_model is None:
            raise ConfigurationError(
                "solver backend 'cpsat' requires or-tools "
                "(pip install ortools); it is an optional dependency"
            )
        self.config = config or SolverConfig()
        self._tx_fraction: Optional[float] = None

    # ------------------------------------------------------------------
    def warm_start(self, tx_fraction: Optional[float]) -> None:
        """Record the previous cycle's transactional capacity share.

        Used to hint the web-instance grant variables (``w``) on the
        next solve; ``None`` clears the hint contribution.
        """
        self._tx_fraction = tx_fraction

    # ------------------------------------------------------------------
    def solve(
        self,
        nodes: Sequence[NodeSpec],
        apps: Sequence[AppRequest],
        jobs: Sequence[JobRequest],
        lr_target: Optional[Mhz] = None,
    ) -> PlacementSolution:
        """Compute an optimal feasible placement for one cycle.

        Semantics mirror :meth:`MilpPlacementSolver.solve`: ``nodes``
        are the active nodes, requests pointing elsewhere are displaced,
        and ``lr_target`` enables the work-conserving boost envelope.
        """
        node_list = sorted(nodes, key=lambda n: n.node_id)
        solution = PlacementSolution(
            placement=Placement(), job_rates={}, app_allocations={}
        )
        apps = sorted(apps, key=lambda a: a.app_id)
        if not node_list:
            runnable, deferred = split_runnable(
                order_by_urgency(jobs), self.config.min_job_rate
            )
            solution.deferred_jobs = [r.job_id for r in deferred]
            solution.unplaced_jobs = [r.job_id for r in runnable]
            for app in apps:
                solution.app_allocations[app.app_id] = 0.0
            return solution

        active = {n.node_id for n in node_list}
        running = sorted(
            (r for r in jobs if r.current_node in active),
            key=lambda r: r.job_id,
        )
        waiting = order_by_urgency(
            [r for r in jobs if r.current_node not in active]
        )
        runnable, deferred = split_runnable(waiting, self.config.min_job_rate)
        solution.deferred_jobs = [r.job_id for r in deferred]

        participants = running + runnable
        if not participants and not apps:
            return solution

        layout = _layout(node_list, apps, running, runnable, lr_target)
        values = self._solve(layout)
        extract_solution(solution, layout, values)
        return solution

    # ------------------------------------------------------------------
    def _solve(self, layout: _Model) -> np.ndarray:
        """Build the CP model, run CP-SAT, return the flat value vector."""
        config = self.config
        nodes, apps, jobs = layout.nodes, layout.apps, layout.jobs
        running = layout.running
        num_jobs, num_apps, num_nodes = len(jobs), len(apps), len(nodes)
        cpu_int = [_down(n.cpu_capacity, _RATE_SCALE) for n in nodes]
        mem_int = [_down(n.memory_mb, _MEM_SCALE) for n in nodes]
        cap_int = [
            [min(_down(layout.rate_caps[j], _RATE_SCALE), cpu_int[n])
             for n in range(num_nodes)]
            for j in range(num_jobs)
        ]
        node_index = {n.node_id: i for i, n in enumerate(nodes)}

        model = cp_model.CpModel()
        x = [
            [model.NewBoolVar(f"x_{j}_{n}") for n in range(num_nodes)]
            for j in range(num_jobs)
        ]
        r = [
            [model.NewIntVar(0, cap_int[j][n], f"r_{j}_{n}")
             for n in range(num_nodes)]
            for j in range(num_jobs)
        ]
        y = [
            [model.NewBoolVar(f"y_{a}_{n}") for n in range(num_nodes)]
            for a in range(num_apps)
        ]
        w = [
            [model.NewIntVar(0, cpu_int[n], f"w_{a}_{n}")
             for n in range(num_nodes)]
            for a in range(num_apps)
        ]

        # Single placement; completion-window-protected running jobs
        # must stay placed somewhere (they may still migrate).
        for j in range(num_jobs):
            placed = sum(x[j])
            protected = (
                j < len(running)
                and jobs[j].min_remaining_time <= config.protect_completion
            )
            if protected:
                model.Add(placed == 1)
            else:
                model.Add(placed <= 1)
        # Churn caps shared with the greedy backends.
        if running:
            model.Add(
                sum(sum(x[j]) for j in range(len(running)))
                >= len(running) - int(config.max_evictions)
            )
            away = [
                x[j][n]
                for j in range(len(running))
                for n in range(num_nodes)
                if n != node_index[jobs[j].current_node]
            ]
            if away:
                model.Add(sum(away) <= int(config.max_migrations))
        # Grant only where placed (cap_int already folds in min(u_j, C_n)).
        for j in range(num_jobs):
            for n in range(num_nodes):
                if cap_int[j][n] > 0:
                    model.Add(r[j][n] <= cap_int[j][n] * x[j][n])
        # Admission floor for waiting jobs.
        floor_int = _down(config.min_job_rate, _RATE_SCALE)
        if floor_int > 0:
            for j in range(len(running), num_jobs):
                model.Add(sum(r[j]) >= floor_int * sum(x[j]))
        # Node CPU and memory.
        for n in range(num_nodes):
            model.Add(
                sum(r[j][n] for j in range(num_jobs))
                + sum(w[a][n] for a in range(num_apps))
                <= cpu_int[n]
            )
            model.Add(
                sum(_up(jobs[j].memory_mb, _MEM_SCALE) * x[j][n]
                    for j in range(num_jobs))
                + sum(_up(apps[a].instance_memory_mb, _MEM_SCALE) * y[a][n]
                      for a in range(num_apps))
                <= mem_int[n]
            )
        # Instance bounds, per-instance grant links, per-app targets.
        for a, app in enumerate(apps):
            current = sorted(app.current_nodes & set(node_index))
            count_lo = min(app.min_instances, len(current))
            count_hi = max(app.max_instances, len(current))
            model.Add(sum(y[a]) >= count_lo)
            model.Add(sum(y[a]) <= count_hi)
            if not config.stop_idle_instances:
                for node_id in current:
                    model.Add(y[a][node_index[node_id]] == 1)
            for n in range(num_nodes):
                model.Add(w[a][n] <= cpu_int[n] * y[a][n])
            model.Add(sum(w[a]) <= _up(app.target_allocation, _RATE_SCALE))
        # Aggregate long-running envelope (work-conserving boost).
        if layout.lr_envelope is not None and num_jobs:
            model.Add(
                sum(r[j][n] for j in range(num_jobs) for n in range(num_nodes))
                <= _up(layout.lr_envelope, _RATE_SCALE)
            )

        # Change accounting against the incumbent, as in the MILP: each
        # admitted waiting job, suspended/migrated running job, instance
        # start and instance stop is one change.
        change_terms = []
        constant = 0
        for j, request in enumerate(jobs):
            if j < len(running):
                change_terms.append(-x[j][node_index[request.current_node]])
                constant += 1
            else:
                change_terms.extend(x[j])
        for a, app in enumerate(apps):
            for node_id in app.current_nodes:
                n = node_index.get(node_id)
                if n is None:
                    continue
                change_terms.append(-y[a][n])
                constant += 1
            for n, node in enumerate(nodes):
                if node.node_id not in app.current_nodes:
                    change_terms.append(y[a][n])
        if config.change_budget is not None and change_terms:
            model.Add(
                sum(change_terms) <= int(config.change_budget) - constant
            )

        # Symmetry breaking: interchangeable nodes (same hardware, no
        # incumbent VM/instance, not latency-preferred) are ordered by
        # non-increasing memory load.  Any node permutation within such
        # a class preserves the objective, so the ordering keeps exactly
        # one representative per orbit without excluding any value.
        anchored = {req.current_node for req in running}
        for app in apps:
            anchored |= set(app.current_nodes)
            anchored |= {node_id for node_id, _ in app.preferred_nodes}
        classes: dict[tuple[float, float], list[int]] = {}
        for n, node in enumerate(nodes):
            if node.node_id in anchored:
                continue
            key = (float(node.cpu_capacity), float(node.memory_mb))
            classes.setdefault(key, []).append(n)
        for members in classes.values():
            loads = [
                sum(_up(jobs[j].memory_mb, _MEM_SCALE) * x[j][n]
                    for j in range(num_jobs))
                + sum(_up(apps[a].instance_memory_mb, _MEM_SCALE) * y[a][n]
                      for a in range(num_apps))
                for n in members
            ]
            for prev, nxt in zip(loads, loads[1:]):
                model.Add(prev >= nxt)

        # Objective: maximize satisfied demand minus the change penalty.
        penalty = _up(config.change_penalty_mhz, _RATE_SCALE)
        objective = (
            sum(r[j][n] for j in range(num_jobs) for n in range(num_nodes))
            + sum(w[a][n] for a in range(num_apps) for n in range(num_nodes))
        )
        if penalty > 0 and change_terms:
            objective -= penalty * (sum(change_terms) + constant)
        model.Maximize(objective)

        # Warm start from the incumbent + previous-cycle tx share.
        hint = _incumbent_vector(layout, self._tx_fraction)
        for j in range(num_jobs):
            for n in range(num_nodes):
                model.AddHint(x[j][n], int(hint[j * num_nodes + n] > 0.5))
        for a in range(num_apps):
            for n in range(num_nodes):
                flat = a * num_nodes + n
                model.AddHint(y[a][n], int(hint[layout.y_off + flat] > 0.5))
                model.AddHint(
                    w[a][n],
                    min(_down(hint[layout.w_off + flat], _RATE_SCALE),
                        cpu_int[n]),
                )

        solver = cp_model.CpSolver()
        solver.parameters.max_time_in_seconds = _TIME_LIMIT_S
        # Single-threaded search keeps runs bit-reproducible (the
        # repo-wide seed-determinism contract).
        solver.parameters.num_search_workers = 1
        solver.parameters.random_seed = 0
        status = solver.Solve(model)
        if status not in (cp_model.OPTIMAL, cp_model.FEASIBLE):
            raise ModelError(
                f"placement CP-SAT failed on {num_nodes} nodes x "
                f"{num_jobs} jobs ({num_apps} apps): "
                f"status={solver.StatusName(status)}"
            )

        values = np.zeros(layout.w_off + layout.num_y)
        for j in range(num_jobs):
            for n in range(num_nodes):
                flat = j * num_nodes + n
                values[flat] = float(solver.Value(x[j][n]))
                values[layout.num_x + flat] = (
                    solver.Value(r[j][n]) / _RATE_SCALE
                )
        for a in range(num_apps):
            for n in range(num_nodes):
                flat = a * num_nodes + n
                values[layout.y_off + flat] = float(solver.Value(y[a][n]))
                values[layout.w_off + flat] = (
                    solver.Value(w[a][n]) / _RATE_SCALE
                )
        return values


def _layout(
    nodes: list[NodeSpec],
    apps: list[AppRequest],
    running: list[JobRequest],
    runnable: list[JobRequest],
    lr_target: Optional[Mhz],
) -> _Model:
    """Variable-layout carrier shared with the MILP extraction.

    Fills the :class:`repro.core.milp_solver._Model` fields that
    :func:`extract_solution` and :func:`_incumbent_vector` read (the
    scipy-specific objective/constraint slots stay unset).
    """
    jobs = running + runnable
    num_nodes = len(nodes)
    per_job_targets = np.asarray(
        [min(r.target_rate, r.speed_cap) for r in jobs], dtype=float
    )
    layout = _Model()
    layout.nodes = nodes
    layout.apps = apps
    layout.jobs = jobs
    layout.running = running
    if lr_target is None:
        layout.rate_caps = per_job_targets
        layout.lr_envelope = None
    else:
        layout.rate_caps = np.asarray([r.speed_cap for r in jobs], dtype=float)
        layout.lr_envelope = max(float(lr_target), float(per_job_targets.sum()))
    layout.num_x = len(jobs) * num_nodes
    layout.num_y = len(apps) * num_nodes
    layout.y_off = 2 * layout.num_x
    layout.w_off = layout.y_off + layout.num_y
    return layout
