"""Frozen copy of the split-space bisection arbiter.

This module preserves, verbatim apart from the class name,
:class:`~repro.core.arbiter.BisectionArbiter` as it stood before the
arbiter was collapsed into a single bisection on the common utility
level: it bisects on the CPU split, and every probe evaluates both
utility curves (the long-running one through a coarse
hypothetical-utility equalization).  The randomized differential test
checks the production arbiter against it within tolerance.  Do NOT edit
the algorithm here when changing the production arbiter -- it is the
reference the contract is stated against.
"""

from __future__ import annotations

from repro.core.arbiter import ArbiterResult
from repro.core.demand import UtilityCurve
from repro.errors import ConfigurationError
from repro.types import Mhz


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


class ReferenceBisectionArbiter:
    """Equalizes workload utilities by bisection on the transactional share.

    ``g(a) = U_tx(a) − U_lr(capacity − a)`` is non-decreasing in ``a``
    (both curves are non-decreasing in their own allocation), so the
    equal-utility split is a root of ``g`` and bisection converges
    unconditionally.  The search interval is pre-clamped to
    ``[capacity − lr_demand, tx_demand]``: allocating a workload more than
    its max-utility demand cannot raise its utility, so splits outside the
    interval are dominated.
    """

    def __init__(self, utility_tolerance: float = 1e-4, max_iterations: int = 80) -> None:
        if utility_tolerance <= 0:
            raise ConfigurationError("utility_tolerance must be positive")
        if max_iterations < 1:
            raise ConfigurationError("max_iterations must be >= 1")
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
        evals = 0

        def gap(a: Mhz) -> float:
            nonlocal evals
            evals += 2
            return tx_curve.utility(a) - lr_curve.utility(capacity - a)

        # Boundary-dominant cases: one workload stays ahead even at its
        # least favourable split inside the clamped interval.
        if gap(hi) <= 0:
            a = hi
        elif gap(lo) >= 0:
            a = lo
        else:
            g_mid = 1.0
            a_lo, a_hi = lo, hi
            for _ in range(self.max_iterations):
                a = 0.5 * (a_lo + a_hi)
                g_mid = gap(a)
                if abs(g_mid) <= self.utility_tolerance:
                    break
                if g_mid > 0:
                    a_hi = a
                else:
                    a_lo = a
            else:
                a = 0.5 * (a_lo + a_hi)

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
