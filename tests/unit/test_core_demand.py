"""Unit tests for workload utility curves."""

import pytest

from repro.core import (
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
    effective_capacity,
)
from repro.errors import ConfigurationError
from repro.perf import ClosedTransactionalModel, OpenTransactionalModel
from repro.types import WorkloadKind
from repro.utility import (
    PiecewiseLinearUtility,
    SigmoidUtility,
    StepUtility,
    TransactionalUtility,
)

from ..conftest import make_population


def tx_curve(clients=210.0, goal=0.4) -> TransactionalCurve:
    model = ClosedTransactionalModel(clients, 0.2, 300.0, 3000.0)
    return TransactionalCurve(model, TransactionalUtility(goal))


class TestTransactionalCurve:
    def test_kind_and_demand(self):
        curve = tx_curve()
        assert curve.kind is WorkloadKind.TRANSACTIONAL
        assert curve.max_utility_demand == pytest.approx(
            curve.model.max_utility_demand(0.05)
        )

    def test_monotone_nondecreasing(self):
        curve = tx_curve()
        utilities = [curve.utility(a) for a in (50_000.0, 100_000.0, 200_000.0, 400_000.0)]
        assert utilities == sorted(utilities)

    def test_plateau_beyond_demand(self):
        curve = tx_curve()
        at_demand = curve.utility(curve.max_utility_demand)
        assert curve.utility(curve.max_utility_demand * 2) == pytest.approx(
            at_demand, abs=0.05
        )

    def test_allocation_for_utility_capped_at_demand(self):
        curve = tx_curve()
        assert curve.allocation_for_utility(10.0) == curve.max_utility_demand

    @pytest.mark.parametrize(
        "shape",
        [
            SigmoidUtility(midpoint=0.3, steepness=8.0),
            StepUtility(threshold=0.2),
            PiecewiseLinearUtility([(-1.0, -1.0), (0.0, 0.2), (0.5, 0.9)]),
        ],
        ids=["sigmoid", "step", "piecewise"],
    )
    @pytest.mark.parametrize("kind", ["closed", "open"])
    def test_allocation_for_utility_inverts_nonlinear_shapes(self, shape, kind):
        if kind == "closed":
            model = ClosedTransactionalModel(210.0, 0.2, 300.0, 3000.0)
        else:
            model = OpenTransactionalModel(60.0, 300.0, 3000.0)
        curve = TransactionalCurve(model, TransactionalUtility(0.4, shape))
        bottom = curve.utility(0.0)
        top = curve.utility(curve.max_utility_demand)
        for frac in (0.1, 0.5, 0.9, 1.0):
            target = bottom + frac * (top - bottom)
            alloc = curve.allocation_for_utility(target)
            assert 0.0 <= alloc <= curve.max_utility_demand
            assert curve.utility(alloc) >= target
            # Smallest such allocation: a hair less misses the target.
            if alloc > 0.0:
                assert curve.utility(alloc * (1 - 1e-9)) < target
        assert curve.allocation_for_utility(top + 1.0) == curve.max_utility_demand


class TestAggregateCurve:
    def test_single_member_passthrough(self):
        member = tx_curve()
        agg = TransactionalAggregateCurve([member])
        assert agg.utility(100_000.0) == pytest.approx(member.utility(100_000.0))
        assert agg.max_utility_demand == member.max_utility_demand

    def test_split_conserves_allocation(self):
        members = [tx_curve(210.0), tx_curve(100.0, goal=0.6)]
        agg = TransactionalAggregateCurve(members)
        shares = agg.split(150_000.0)
        assert sum(shares) == pytest.approx(150_000.0, rel=1e-3)

    def test_split_equalizes_utilities(self):
        members = [tx_curve(210.0), tx_curve(100.0, goal=0.6)]
        agg = TransactionalAggregateCurve(members)
        shares = agg.split(150_000.0)
        u0 = members[0].utility(shares[0])
        u1 = members[1].utility(shares[1])
        assert u0 == pytest.approx(u1, abs=0.02)

    def test_saturated_split_gives_demands(self):
        members = [tx_curve(50.0), tx_curve(30.0)]
        agg = TransactionalAggregateCurve(members)
        shares = agg.split(10 * agg.max_utility_demand)
        assert shares == [m.max_utility_demand for m in members]

    def test_allocation_for_utility_inverts_split(self):
        members = [tx_curve(210.0), tx_curve(100.0, goal=0.6)]
        agg = TransactionalAggregateCurve(members)
        level = 0.3
        shares = agg.split(agg.allocation_for_utility(level))
        for member, share in zip(members, shares):
            assert member.utility(share) == pytest.approx(level, abs=1e-6)

    @pytest.mark.parametrize(
        "loads",
        [(10.0, 20.0), (30.0, 60.0)],
        ids=["light", "heavy"],
    )
    @pytest.mark.parametrize("mix", ["open", "closed", "mixed"])
    def test_split_never_overcommits(self, loads, mix):
        """Shares fit the allocation, including below the summed offered
        load of open-model apps (3000 + 6000 MHz for the heavy mix)."""
        models = []
        for i, load in enumerate(loads):
            if mix == "open" or (mix == "mixed" and i == 0):
                models.append(OpenTransactionalModel(load / 3.0, 300.0, 3000.0))
            else:
                models.append(ClosedTransactionalModel(load, 0.2, 300.0, 3000.0))
        agg = TransactionalAggregateCurve(
            [TransactionalCurve(m, TransactionalUtility(0.4)) for m in models]
        )
        for allocation in (0.0, 1.0, 1000.0, 2999.0, 5000.0, 9000.0,
                           0.5 * agg.max_utility_demand, agg.max_utility_demand):
            shares = agg.split(allocation)
            assert all(share >= 0.0 for share in shares)
            assert sum(shares) <= allocation * (1 + 1e-12)

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ConfigurationError):
            TransactionalAggregateCurve([])


class TestLongRunningCurve:
    def test_demand_is_population_cap(self):
        pop = make_population(0.0, [1e6] * 3)
        curve = LongRunningCurve(pop)
        assert curve.max_utility_demand == 9000.0
        assert curve.kind is WorkloadKind.LONG_RUNNING

    def test_mean_and_level_metrics_differ_when_jobs_capped(self):
        pop = make_population(
            0.0,
            remaining=[2_900_000.0, 1_000_000.0],
            goals_abs=[1000.0, 4000.0],
            goal_lengths=[1000.0, 4000.0],
        )
        mean_curve = LongRunningCurve(pop, "mean")
        level_curve = LongRunningCurve(pop, "level")
        a = 4000.0
        assert mean_curve.utility(a) < level_curve.utility(a)

    def test_empty_population_is_satisfied(self):
        pop = make_population(0.0, [])
        curve = LongRunningCurve(pop)
        assert curve.utility(0.0) == 1.0
        assert curve.max_utility_demand == 0.0

    def test_unknown_metric_rejected(self):
        pop = make_population(0.0, [1e6])
        with pytest.raises(ConfigurationError):
            LongRunningCurve(pop, "median")  # type: ignore[arg-type]

    def test_max_utility_plateau(self):
        pop = make_population(0.0, [3_000_000.0] * 2)
        curve = LongRunningCurve(pop)
        assert curve.max_utility() == pytest.approx(0.75)


class TestEffectiveCapacity:
    def test_discount(self):
        assert effective_capacity(1000.0, 0.9) == 900.0

    def test_invalid_efficiency_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_capacity(1000.0, 0.0)
        with pytest.raises(ConfigurationError):
            effective_capacity(1000.0, 1.5)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            effective_capacity(-1.0)
