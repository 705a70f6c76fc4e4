"""Differential test: the level-space arbiter against the split-space one.

:class:`~repro.core.arbiter.BisectionArbiter` finds the equal-utility
split with one bisection on the long-running utility level; the frozen
:mod:`reference_arbiter` bisects on the CPU split itself.  Both stop at
``utility_tolerance``, so the new arbiter's max-min utility must match
the reference's to within two tolerances -- on single-app and aggregate
transactional workloads (closed and open models), under both
long-running metrics, and in the starved, contended and surplus regimes
-- while respecting capacity and both max-utility demands.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BisectionArbiter,
    LongRunningCurve,
    TransactionalAggregateCurve,
    TransactionalCurve,
)
from repro.perf import ClosedTransactionalModel, OpenTransactionalModel
from repro.perf.jobmodel import JobPopulation
from repro.utility import TransactionalUtility

from .reference_arbiter import ReferenceBisectionArbiter

REGIMES = ("contended", "starved", "surplus")


@st.composite
def app_curves(draw):
    goal = draw(st.floats(min_value=0.15, max_value=2.0))
    if draw(st.booleans()):
        clients = draw(st.floats(min_value=5.0, max_value=500.0))
        model = ClosedTransactionalModel(clients, 0.2, 300.0, 3000.0)
    else:
        rate = draw(st.floats(min_value=1.0, max_value=200.0))
        model = OpenTransactionalModel(rate, 300.0, 3000.0)
    return TransactionalCurve(model, TransactionalUtility(goal))


@st.composite
def tx_workloads(draw):
    members = draw(st.lists(app_curves(), min_size=1, max_size=3))
    if len(members) == 1:
        return members[0]
    return TransactionalAggregateCurve(members)


@st.composite
def lr_workloads(draw):
    n = draw(st.integers(min_value=1, max_value=40))

    def column(lo, hi):
        return np.asarray(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    remaining = column(1e5, 1e8)
    goal_lengths = column(1e3, 1e5)
    # Goal slack factors below 1 make some jobs late at full speed.
    slack = column(0.1, 2.0)
    pop = JobPopulation(
        time=0.0,
        job_ids=tuple(f"j{i}" for i in range(n)),
        remaining=remaining,
        caps=np.full(n, 3000.0),
        goals_abs=goal_lengths * slack,
        goal_lengths=goal_lengths,
        importance=column(0.5, 3.0),
    )
    return LongRunningCurve(pop, draw(st.sampled_from(("mean", "level"))))


@st.composite
def arbitration_problems(draw):
    tx = draw(tx_workloads())
    lr = draw(lr_workloads())
    regime = draw(st.sampled_from(REGIMES))
    frac = draw(st.floats(min_value=0.01, max_value=0.99))
    if regime == "starved":
        # Below what the jobs consume at the bottom of the level bracket.
        capacity = frac * lr.consumed(lr.bracket[0])
    elif regime == "surplus":
        # Every job can run at its cap; tx gets a slice of its demand.
        capacity = lr.max_utility_demand + frac * tx.max_utility_demand
    else:
        capacity = frac * (tx.max_utility_demand + lr.max_utility_demand)
    return capacity, tx, lr


@given(arbitration_problems())
@settings(max_examples=100, deadline=None)
def test_level_arbiter_matches_reference(problem):
    capacity, tx, lr = problem
    arbiter = BisectionArbiter()
    new = arbiter.split(capacity, tx, lr)
    ref = ReferenceBisectionArbiter().split(capacity, tx, lr)

    assert new.tx_allocation >= 0.0
    assert new.lr_allocation >= 0.0
    assert new.tx_allocation + new.lr_allocation <= capacity * (1 + 1e-9)
    assert new.tx_allocation <= tx.max_utility_demand * (1 + 1e-9)
    assert new.lr_allocation <= lr.max_utility_demand * (1 + 1e-9)
    slack = 2 * arbiter.utility_tolerance
    assert min(new.tx_utility, new.lr_utility) >= (
        min(ref.tx_utility, ref.lr_utility) - slack
    )
