"""Workload utility curves: utility as a function of aggregate allocation.

The arbiter (:mod:`repro.core.arbiter`) trades CPU between the two
workload types by comparing these curves.  Each curve is non-decreasing in
the allocation and saturates at the workload's *max-utility demand* --
"the CPU demand that would make each workload achieve its maximum
utility" (paper Figure 2).

* :class:`TransactionalCurve` -- one web application through its
  performance model and response-time utility.
* :class:`TransactionalAggregateCurve` -- several web applications treated
  as one workload: the aggregate allocation is divided so that the apps'
  utilities are equalized (the same fairness principle the paper applies
  within the long-running workload), and the common level is the
  aggregate's utility.
* :class:`LongRunningCurve` -- the job population through hypothetical
  utility equalization.
"""

from __future__ import annotations

import math
from typing import Literal, Protocol, Sequence

from ..errors import ConfigurationError
from ..perf.jobmodel import JobPopulation
from ..perf.queueing import TransactionalPerfModel
from ..types import Mhz, WorkloadKind
from ..utility.base import LinearUtility
from ..utility.transactional import TransactionalUtility
from .hypothetical import HypotheticalAllocation, HypotheticalEqualizer

#: Which scalar of the hypothetical allocation the arbiter compares:
#: the population mean (what Figure 1 plots) or the equalized level.
LongRunningMetric = Literal["mean", "level"]

#: Bisection depth of :meth:`LongRunningCurve.utility`.  Arbiters
#: compare utilities against a 1e-4 tolerance, so driving the
#: equalization to float exactness (~55 effective iterations) buys
#: nothing: 30 iterations bound the level error by ~1e-8 -- four orders
#: of magnitude below that resolution.  The bisection arbiter searches the
#: curve's level view and evaluates :meth:`LongRunningCurve.utility` only
#: once, at its accepted split.  The equalization that produces per-job
#: target rates (:meth:`LongRunningCurve.equalize`) always runs float-exact.
_CURVE_EVAL_ITERS = 30

#: Bisection cap when inverting a non-linear transactional utility shape;
#: the allocation bracket reaches float resolution well before it.
_INVERSE_ITERS = 64


class UtilityCurve(Protocol):
    """Monotone utility-versus-allocation curve of one workload."""

    @property
    def kind(self) -> WorkloadKind:
        """The workload type this curve describes."""
        ...

    @property
    def max_utility_demand(self) -> Mhz:
        """Allocation at which the curve saturates."""
        ...

    def utility(self, allocation: Mhz) -> float:
        """Predicted utility at the given aggregate allocation."""
        ...


class TransactionalCurve:
    """Utility curve of a single web application."""

    def __init__(
        self,
        model: TransactionalPerfModel,
        utility_fn: TransactionalUtility,
        rt_tolerance: float = 0.05,
    ) -> None:
        self._model = model
        self._utility = utility_fn
        self._demand = model.max_utility_demand(rt_tolerance)

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.TRANSACTIONAL

    @property
    def max_utility_demand(self) -> Mhz:
        return self._demand

    @property
    def model(self) -> TransactionalPerfModel:
        """The underlying performance model (exposed for diagnostics)."""
        return self._model

    def utility(self, allocation: Mhz) -> float:
        return self._utility.of_allocation(self._model, allocation)

    def allocation_for_utility(self, target: float) -> Mhz:
        """Smallest allocation reaching ``target`` utility (capped at demand).

        The linear shape inverts in closed form through the response-time
        model.  Any other shape is only known to be non-decreasing, so it
        is inverted by bisection on the allocation over ``[0, demand]``.
        """
        if isinstance(self._utility.shape, LinearUtility):
            return min(
                self._utility.allocation_for_utility(self._model, target), self._demand
            )
        lo, hi = 0.0, self._demand
        if self.utility(hi) < target:
            return hi  # unreachable below the plateau: capped at demand
        if self.utility(lo) >= target:
            return lo
        # Invariant: utility(lo) < target <= utility(hi).  Once the
        # midpoint lands on an endpoint the bracket is at float resolution.
        for _ in range(_INVERSE_ITERS):
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            if self.utility(mid) >= target:
                hi = mid
            else:
                lo = mid
        return hi

    def max_utility(self) -> float:
        """The plateau utility value."""
        return self._utility.max_utility(self._model)


class TransactionalAggregateCurve:
    """Several web applications arbitrated as one transactional workload.

    Given an aggregate allocation, the member applications' utilities are
    equalized by bisection on the common utility level (each app's
    required allocation at a level comes from inverting its response-time
    model).  Apps whose plateau lies below the common level are capped at
    their max-utility demand.
    """

    def __init__(self, curves: Sequence[TransactionalCurve]) -> None:
        if not curves:
            raise ConfigurationError("aggregate needs at least one app curve")
        self._curves = list(curves)
        self._demand = sum(c.max_utility_demand for c in self._curves)

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.TRANSACTIONAL

    @property
    def max_utility_demand(self) -> Mhz:
        return self._demand

    @property
    def members(self) -> list[TransactionalCurve]:
        """The member app curves, in construction order."""
        return list(self._curves)

    def allocation_for_utility(self, level: float) -> Mhz:
        """Aggregate allocation that brings every app to ``level``.

        Each app gets the smallest allocation reaching ``min(level, its
        plateau)``, capped at its max-utility demand, so the sum is
        non-decreasing in ``level`` and saturates at the aggregate demand
        once ``level`` passes the highest plateau.  :meth:`split` inverts
        it for a given allocation.
        """
        return sum(self._shares_at(level))

    def _shares_at(self, level: float) -> list[Mhz]:
        return [
            min(c.allocation_for_utility(min(level, c.max_utility())), c.max_utility_demand)
            for c in self._curves
        ]

    def split(self, allocation: Mhz) -> list[Mhz]:
        """Divide ``allocation`` among the apps, equalizing their utilities.

        The shares never sum past ``allocation``.  When even the lowest
        searched level needs more (open-model apps below their offered
        load), the floor-level shares are scaled down to fit, as the
        hypothetical equalizer does in its starved regime.
        """
        if allocation < 0:
            raise ConfigurationError("allocation must be non-negative")
        if len(self._curves) == 1:
            return [min(allocation, self._demand)]
        if allocation >= self._demand:
            return [c.max_utility_demand for c in self._curves]

        consumed = self.allocation_for_utility
        hi = max(c.max_utility() for c in self._curves)
        lo = hi - 1.0
        for _ in range(60):  # expand until feasible
            if consumed(lo) <= allocation:
                break
            lo = hi - 2 * (hi - lo)
        else:
            floor = self._shares_at(lo)
            scale = allocation / sum(floor)
            return [share * scale for share in floor]
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if consumed(mid) > allocation:
                hi = mid
            else:
                lo = mid
        return self._shares_at(lo)

    def utility(self, allocation: Mhz) -> float:
        shares = self.split(allocation)
        return min(
            c.utility(share) for c, share in zip(self._curves, shares)
        ) if len(self._curves) > 1 else self._curves[0].utility(shares[0])


class LongRunningCurve:
    """Utility curve of the long-running workload via hypothetical utility.

    Two views of one population snapshot, both backed by a single
    :class:`HypotheticalEqualizer` (its allocation-independent setup and
    consumed-curve memo are shared by every evaluation of the cycle):

    * the **allocation view** -- :meth:`utility` runs a coarse
      (``_CURVE_EVAL_ITERS``) equalization at an allocation, and
      :meth:`equalize` a float-exact one; the controller calls the latter
      exactly once per cycle for the per-job target rates;
    * the **level view** -- :attr:`bracket`, :meth:`consumed` and
      :meth:`metric_at_level` describe the workload at a common utility
      level ``u`` directly, with no inner search.  The bisection arbiter
      searches on ``u`` through this view.
    """

    def __init__(self, population: JobPopulation, metric: LongRunningMetric = "mean") -> None:
        if metric not in ("mean", "level"):
            raise ConfigurationError(f"unknown long-running metric {metric!r}")
        self._population = population
        self._metric = metric
        self._demand = float(population.total_cap) if len(population) else 0.0
        self._equalizer = HypotheticalEqualizer(population)

    @property
    def kind(self) -> WorkloadKind:
        return WorkloadKind.LONG_RUNNING

    @property
    def max_utility_demand(self) -> Mhz:
        return self._demand

    @property
    def population(self) -> JobPopulation:
        """The underlying job-population snapshot."""
        return self._population

    @property
    def equalizer(self) -> HypotheticalEqualizer:
        """The shared equalization context (evaluation statistics)."""
        return self._equalizer

    @property
    def bracket(self) -> tuple[float, float]:
        """The level range ``(u_lo0, u_hi0)`` every equalization searches.

        At ``u_lo0`` the population is starved (allocations below
        ``consumed(u_lo0)`` all map to this level); at ``u_hi0`` every job
        runs at its cap.
        """
        return self._equalizer.bracket

    def consumed(self, level: float) -> Mhz:
        """CPU the population consumes at the common level ``level``."""
        return self._equalizer.consumed(level)

    def metric_at_level(self, level: float) -> float:
        """The arbitrated metric with the population at ``level``.

        ``level`` itself for the ``"level"`` metric; for ``"mean"`` the
        importance-weighted mean of ``min(level, u_max_j)``.  Equal to
        :meth:`utility` at any allocation that equalizes to ``level``.
        """
        return self._equalizer.level_metric(level, self._metric)

    def equalize(self, allocation: Mhz) -> "HypotheticalAllocation":
        """Float-exact equalization at ``allocation``."""
        return self._equalizer.equalize(allocation)

    def utility(self, allocation: Mhz) -> float:
        if len(self._population) == 0:
            return 1.0
        return self._equalizer.metric_at(
            allocation, self._metric, bisect_iters=_CURVE_EVAL_ITERS
        )

    def max_utility(self) -> float:
        """The plateau: every job at its speed cap."""
        if len(self._population) == 0:
            return 1.0
        return self.utility(self._demand + 1.0)


def effective_capacity(total_capacity: Mhz, efficiency: float = 1.0) -> Mhz:
    """Capacity the arbiter may hand out.

    ``efficiency`` (0, 1] discounts for placement fragmentation -- the
    divisible-CPU arbitration slightly overestimates what an integral
    placement can deliver; a discount below 1 makes the arbiter's promises
    conservatively realizable.
    """
    if not 0 < efficiency <= 1:
        raise ConfigurationError("efficiency must be in (0, 1]")
    if total_capacity < 0 or math.isinf(total_capacity):
        raise ConfigurationError("total_capacity must be finite and non-negative")
    return total_capacity * efficiency
