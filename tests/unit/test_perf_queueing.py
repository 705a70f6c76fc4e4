"""Unit tests for the queueing performance models."""

import math

import pytest

from repro.errors import ConfigurationError, ModelError
from repro.perf import (
    ClosedTransactionalModel,
    OpenTransactionalModel,
    erlang_b,
    erlang_c,
)


class TestErlangFormulas:
    def test_erlang_b_known_values(self):
        # Classical tabulated values.
        assert erlang_b(1.0, 1.0) == pytest.approx(0.5)
        assert erlang_b(2.0, 1.0) == pytest.approx(0.2)
        assert erlang_b(5.0, 3.0) == pytest.approx(0.110054, rel=1e-4)

    def test_erlang_b_zero_load(self):
        assert erlang_b(3.0, 0.0) == 0.0

    def test_erlang_b_monotone_in_servers(self):
        values = [erlang_b(m, 10.0) for m in (5.0, 10.0, 20.0, 40.0)]
        assert values == sorted(values, reverse=True)

    def test_erlang_b_continuous_interpolates(self):
        # Continuous m must lie between the neighbouring integer values.
        lo, mid, hi = erlang_b(3.0, 2.0), erlang_b(3.5, 2.0), erlang_b(4.0, 2.0)
        assert hi < mid < lo

    def test_erlang_b_extreme_overload_saturates(self):
        assert erlang_b(2.0, 1e6) == pytest.approx(1.0, abs=1e-3)

    def test_erlang_b_invalid_inputs(self):
        with pytest.raises(ModelError):
            erlang_b(0.0, 1.0)
        with pytest.raises(ModelError):
            erlang_b(1.0, -1.0)

    def test_erlang_c_mm1_equals_utilization(self):
        assert erlang_c(1.0, 0.3) == pytest.approx(0.3)
        assert erlang_c(1.0, 0.9) == pytest.approx(0.9)

    def test_erlang_c_known_value(self):
        assert erlang_c(2.0, 1.0) == pytest.approx(1.0 / 3.0)

    def test_erlang_c_requires_stability(self):
        with pytest.raises(ModelError):
            erlang_c(2.0, 2.0)


class TestOpenModel:
    def make(self, lam=10.0) -> OpenTransactionalModel:
        return OpenTransactionalModel(
            arrival_rate=lam, mean_service_cycles=300.0, request_cap_mhz=3000.0
        )

    def test_mm1_response_time_closed_form(self):
        # One server (allocation = cap): RT = 1/(mu - lambda).
        model = self.make(lam=5.0)
        mu = 10.0  # 3000/300
        assert model.response_time(3000.0) == pytest.approx(1.0 / (mu - 5.0))

    def test_rt_floor_at_zero_load(self):
        model = OpenTransactionalModel(0.0, 300.0, 3000.0)
        assert model.response_time(1.0) == pytest.approx(0.1)

    def test_unstable_allocation_gives_infinite_rt(self):
        model = self.make(lam=10.0)  # offered load 3000 MHz
        assert math.isinf(model.response_time(3000.0))
        assert math.isinf(model.response_time(100.0))

    def test_allocation_an_ulp_above_offered_load_is_saturated(self):
        # 1 req/s x 100 MHz·s: m·mu − lambda rounds to zero one ulp above
        # the offered load, which must read as saturation, not a crash.
        model = OpenTransactionalModel(1.0, 100.0, 2400.0)
        assert math.isinf(model.response_time(math.nextafter(100.0, math.inf)))

    def test_rt_strictly_decreasing_in_allocation(self):
        model = self.make()
        rts = [model.response_time(a) for a in (3500.0, 5000.0, 8000.0, 20_000.0)]
        assert all(a > b for a, b in zip(rts, rts[1:]))

    def test_inversion_round_trip(self):
        model = self.make()
        target = 0.25
        alloc = model.allocation_for_rt(target)
        assert model.response_time(alloc) == pytest.approx(target, rel=1e-6)

    def test_inversion_below_floor_rejected(self):
        with pytest.raises(ModelError):
            self.make().allocation_for_rt(0.05)

    def test_max_utility_demand_reaches_plateau(self):
        model = self.make()
        demand = model.max_utility_demand(rt_tolerance=0.05)
        assert model.response_time(demand) == pytest.approx(0.105, rel=1e-6)
        assert demand > model.offered_load_mhz

    def test_utilization(self):
        model = self.make()
        assert model.utilization(6000.0) == pytest.approx(0.5)
        assert model.utilization(0.0) == 1.0


class TestClosedModel:
    def make(self, clients=210.0) -> ClosedTransactionalModel:
        return ClosedTransactionalModel(
            num_clients=clients, think_time=0.2,
            mean_service_cycles=300.0, request_cap_mhz=3000.0,
        )

    def test_knee_formula(self):
        model = self.make()
        # s*N/(Z+R0) = 300*210/0.3
        assert model.saturation_demand == pytest.approx(210_000.0)

    def test_rt_floor_above_knee(self):
        model = self.make()
        assert model.response_time(250_000.0) == pytest.approx(0.1)

    def test_congested_interactive_law(self):
        model = self.make()
        # RT = s*N/A - Z
        assert model.response_time(105_000.0) == pytest.approx(0.4)

    def test_rt_bounded_at_any_positive_allocation(self):
        model = self.make()
        assert math.isfinite(model.response_time(1.0))
        assert math.isinf(model.response_time(0.0))

    def test_throughput_work_conserving_when_congested(self):
        model = self.make()
        # X = A / s in the congested regime.
        assert model.throughput(105_000.0) == pytest.approx(105_000.0 / 300.0)

    def test_throughput_saturates_at_population_limit(self):
        model = self.make()
        assert model.throughput(1e9) == pytest.approx(210.0 / 0.3)

    def test_concurrency_littles_law(self):
        model = self.make()
        allocation = 105_000.0
        n = model.concurrency(allocation)
        assert n == pytest.approx(model.throughput(allocation) * 0.4)

    def test_inversion_round_trip(self):
        model = self.make()
        alloc = model.allocation_for_rt(0.3)
        assert model.response_time(alloc) == pytest.approx(0.3)

    def test_zero_clients_demand_nothing(self):
        model = self.make(clients=0.0)
        assert model.max_utility_demand() == 0.0
        assert model.throughput(1000.0) == 0.0

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ClosedTransactionalModel(-1.0, 0.2, 300.0, 3000.0)
        with pytest.raises(ConfigurationError):
            ClosedTransactionalModel(10.0, 0.2, 0.0, 3000.0)
