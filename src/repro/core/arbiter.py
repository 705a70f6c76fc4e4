"""Cross-workload CPU arbitration.

Given the utility curves of the transactional and long-running workloads
and the cluster's (effective) capacity, the arbiter chooses the CPU split
that maximizes the *minimum* utility -- which, when both workloads are
CPU-constrained, means **equalizing** their utilities, and otherwise means
capping each at its max-utility demand and handing the surplus to the
other.  This is the decision the paper describes as "continuously stealing
resources [from] the more satisfied applications to later be given to the
less satisfied applications".

Two interchangeable implementations with the same fixed point:

* :class:`StealingArbiter` -- the paper's prose, literally: move a quantum
  of CPU from the more satisfied workload to the less satisfied one,
  shrinking the quantum when the imbalance flips sign.
* :class:`BisectionArbiter` -- exploits monotonicity of both curves to
  bisect once, on the common utility level; used as the default (fast
  path).

The ABL-ARB ablation bench compares their costs and verifies fixed-point
agreement.

Probe cost
----------
A split is a root of one monotone function of the long-running level
``u``, so :class:`BisectionArbiter` runs a single bisection.  Each probe
costs one consumed-curve evaluation of the job population plus one
inversion of the transactional curve -- no probe runs an equalization of
its own.  Because the probes start from the equalizer's bracket, they
walk the same dyadic tree as the controller's float-exact equalization,
whose first iterations are then served by the equalizer's memo.
``ArbiterResult.iterations`` counts two evaluations per probe (one per
workload), like the stealing loop's two utility evaluations per step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

from ..errors import ConfigurationError
from ..types import Mhz
from .demand import (
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
    UtilityCurve,
)


@dataclass(frozen=True)
class ArbiterResult:
    """The arbiter's split decision and its predicted consequences.

    Attributes
    ----------
    tx_allocation / lr_allocation:
        CPU granted to the transactional / long-running workload (MHz).
        Their sum can be below capacity when both demands are satisfied.
    tx_utility / lr_utility:
        Predicted utilities at those allocations.
    iterations:
        Curve evaluations spent (the ablation's cost metric).
    equalized:
        True when both workloads were CPU-constrained and their utilities
        were driven together; False when at least one demand was satisfied
        outright.
    """

    tx_allocation: Mhz
    lr_allocation: Mhz
    tx_utility: float
    lr_utility: float
    iterations: int
    equalized: bool

    @property
    def utility_gap(self) -> float:
        """|U_tx − U_lr|; small when equalization succeeded."""
        return abs(self.tx_utility - self.lr_utility)


class Arbiter(Protocol):
    """CPU-split decision procedure between the two workload types."""

    def split(
        self, capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
    ) -> ArbiterResult:
        """Choose allocations with ``tx + lr <= capacity``."""
        ...


def _saturated_split(
    capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
) -> ArbiterResult | None:
    """Handle the no-contention cases; ``None`` when real arbitration is needed."""
    tx_demand = tx_curve.max_utility_demand
    lr_demand = lr_curve.max_utility_demand
    if tx_demand + lr_demand <= capacity:
        # Everyone gets what they can use; surplus stays idle.
        return ArbiterResult(
            tx_allocation=tx_demand,
            lr_allocation=lr_demand,
            tx_utility=tx_curve.utility(tx_demand),
            lr_utility=lr_curve.utility(lr_demand),
            iterations=2,
            equalized=False,
        )
    return None


class BisectionArbiter:
    """Equalizes workload utilities by bisection on the long-running level.

    At a common level ``u`` the long-running workload consumes
    ``consumed(u)`` and its arbitrated metric is ``m(u)``; the
    transactional workload needs ``allocation_for_utility(m(u))`` to match
    it.  The sum of the two is non-decreasing in ``u``, so the
    equal-utility split sits at the highest ``u`` where::

        G(u) = tx.allocation_for_utility(m(u)) + lr.consumed(u) - capacity <= 0

    and one bisection over the equalizer's bracket ``(u_lo0, u_hi0)``
    finds it.  The search stops once ``m`` is pinned to within
    ``utility_tolerance``; the transactional workload then gets
    ``allocation_for_utility(m(u_lo))`` and the long-running workload the
    rest.  Two boundary regimes skip the search: the long-running
    workload starved at the bracket floor (``G(u_lo0) > 0``; the
    transactional workload is matched to the floor utility) and the
    long-running workload at its plateau (``G(u_hi0) <= 0``; the
    transactional workload takes what the jobs cannot use).  The
    allocation is clamped to ``[capacity − lr_demand, tx_demand]``:
    granting a workload more than its max-utility demand cannot raise
    its utility, so splits outside the interval are dominated.
    """

    def __init__(self, utility_tolerance: float = 1e-4, max_iterations: int = 80) -> None:
        if utility_tolerance <= 0:
            raise ConfigurationError("utility_tolerance must be positive")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.utility_tolerance = utility_tolerance
        self.max_iterations = max_iterations

    def split(
        self,
        capacity: Mhz,
        tx_curve: TransactionalCurve | TransactionalAggregateCurve,
        lr_curve: LongRunningCurve,
    ) -> ArbiterResult:
        if capacity < 0:
            raise ConfigurationError("capacity must be non-negative")
        saturated = _saturated_split(capacity, tx_curve, lr_curve)
        if saturated is not None:
            return saturated

        lo = max(0.0, capacity - lr_curve.max_utility_demand)
        hi = min(capacity, tx_curve.max_utility_demand)
        if lo >= hi:
            a, evals = hi, 0  # no room to trade
        else:
            a, evals = self._level_search(capacity, tx_curve, lr_curve)
            a = min(max(a, lo), hi)
        return ArbiterResult(
            tx_allocation=a,
            lr_allocation=capacity - a,
            tx_utility=tx_curve.utility(a),
            lr_utility=lr_curve.utility(capacity - a),
            iterations=evals,
            equalized=True,
        )

    def _level_search(
        self,
        capacity: Mhz,
        tx_curve: TransactionalCurve | TransactionalAggregateCurve,
        lr_curve: LongRunningCurve,
    ) -> tuple[Mhz, int]:
        """The unclamped transactional allocation and the evaluations spent."""
        metric = lr_curve.metric_at_level
        tx_need = tx_curve.allocation_for_utility
        consumed = lr_curve.consumed
        evals = 0

        def probe(u: float) -> tuple[float, Mhz, bool]:
            """``m(u)``, the tx allocation matching it, and ``G(u) > 0``."""
            nonlocal evals
            evals += 2
            m = metric(u)
            tx_a = tx_need(m)
            return m, tx_a, tx_a + consumed(u) > capacity

        u_lo, u_hi = lr_curve.bracket
        m_lo, a, over = probe(u_lo)
        if over:
            return a, evals  # LR starved: tx matched to the floor utility
        m_hi, _, over = probe(u_hi)
        if not over:
            return capacity - consumed(u_hi), evals  # LR at its plateau
        # Invariant: G(u_lo) <= 0 < G(u_hi), and a matches m(u_lo).
        for _ in range(self.max_iterations):
            if m_hi - m_lo <= self.utility_tolerance:
                break
            u_mid = 0.5 * (u_lo + u_hi)
            if u_mid == u_lo or u_mid == u_hi:
                break
            m_mid, a_mid, over = probe(u_mid)
            if over:
                u_hi, m_hi = u_mid, m_mid
            else:
                u_lo, m_lo, a = u_mid, m_mid, a_mid
        return a, evals


class StealingArbiter:
    """The paper's iterative stealing loop.

    Starting from a split proportional to the two demands, each iteration
    moves ``quantum`` MHz from the more satisfied workload to the less
    satisfied one; when the imbalance changes sign the quantum halves.
    Terminates when the utilities are within tolerance, the quantum is
    exhausted, or the iteration cap is hit.
    """

    def __init__(
        self,
        initial_quantum_fraction: float = 0.1,
        utility_tolerance: float = 1e-3,
        max_iterations: int = 400,
    ) -> None:
        if not 0 < initial_quantum_fraction <= 0.5:
            raise ConfigurationError("initial_quantum_fraction must be in (0, 0.5]")
        if utility_tolerance <= 0:
            raise ConfigurationError("utility_tolerance must be positive")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
        self.initial_quantum_fraction = initial_quantum_fraction
        self.utility_tolerance = utility_tolerance
        self.max_iterations = max_iterations

    def split(
        self, capacity: Mhz, tx_curve: UtilityCurve, lr_curve: UtilityCurve
    ) -> ArbiterResult:
        if capacity < 0:
            raise ConfigurationError("capacity must be non-negative")
        saturated = _saturated_split(capacity, tx_curve, lr_curve)
        if saturated is not None:
            return saturated

        lo = max(0.0, capacity - lr_curve.max_utility_demand)
        hi = min(capacity, tx_curve.max_utility_demand)
        tx_demand = tx_curve.max_utility_demand
        lr_demand = lr_curve.max_utility_demand
        a = min(max(capacity * tx_demand / (tx_demand + lr_demand), lo), hi)

        quantum = capacity * self.initial_quantum_fraction
        min_quantum = capacity * 1e-9
        evals = 0
        last_sign = 0
        for _ in range(self.max_iterations):
            tx_u = tx_curve.utility(a)
            lr_u = lr_curve.utility(capacity - a)
            evals += 2
            diff = tx_u - lr_u
            if abs(diff) <= self.utility_tolerance:
                break
            sign = 1 if diff > 0 else -1
            if last_sign and sign != last_sign:
                quantum *= 0.5
                if quantum < min_quantum:
                    break
            last_sign = sign
            # The more satisfied workload donates a quantum to the other.
            a = min(max(a - sign * quantum, lo), hi)
            if a in (lo, hi) and quantum >= (hi - lo):
                quantum *= 0.5

        tx_u = tx_curve.utility(a)
        lr_u = lr_curve.utility(capacity - a)
        return ArbiterResult(
            tx_allocation=a,
            lr_allocation=capacity - a,
            tx_utility=tx_u,
            lr_utility=lr_u,
            iterations=evals,
            equalized=True,
        )


def make_arbiter(name: str, **kwargs: float) -> Arbiter:
    """Factory used by configuration: ``"bisection"`` or ``"stealing"``."""
    if name == "bisection":
        return BisectionArbiter(**kwargs)  # type: ignore[arg-type]
    if name == "stealing":
        return StealingArbiter(**kwargs)  # type: ignore[arg-type]
    raise ConfigurationError(f"unknown arbiter {name!r}")
