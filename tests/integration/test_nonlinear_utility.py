"""A non-linear transactional utility shape end to end.

The bisection arbiter inverts the transactional curve at every probe, so
a shape without a closed-form inverse must still arbitrate cleanly: no
cycle may fall back to the last-known-good placement.
"""

import dataclasses

import pytest

from repro.core import UtilityDrivenController
from repro.experiments import run_scenario, scaled_paper_scenario
from repro.utility import SigmoidUtility


@pytest.fixture(scope="module")
def sigmoid_result():
    scenario = dataclasses.replace(
        scaled_paper_scenario(scale=0.2, seed=42), horizon=20_000.0
    )

    def factory(s):
        return UtilityDrivenController(
            [w.spec for w in s.apps],
            s.controller,
            tx_utility_shape=SigmoidUtility(
                midpoint=0.3, steepness=8.0, lo=-1.0, hi=1.0
            ),
        )

    return run_scenario(scenario, factory)


def test_sigmoid_run_never_degrades(sigmoid_result):
    assert sigmoid_result.summary_metrics()["degraded_cycles"] == 0


def test_sigmoid_run_is_contended(sigmoid_result):
    """The run actually arbitrates: most cycles bisect (a saturated
    split spends exactly two evaluations)."""
    iterations = sigmoid_result.recorder.series("arbiter_iterations").values
    assert (iterations > 2).mean() > 0.5
