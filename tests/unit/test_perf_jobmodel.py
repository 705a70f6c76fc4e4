"""Unit tests for job-population snapshots."""

import math

import numpy as np
import pytest

from repro.errors import LifecycleError, ModelError
from repro.perf import LiveJobTable, predicted_completions, snapshot_jobs

from ..conftest import make_job, make_population


class TestSnapshot:
    def test_includes_only_submitted_incomplete(self):
        pending = make_job(job_id="pending", submit=0.0)
        future = make_job(job_id="future", submit=100.0)
        done = make_job(job_id="done", submit=0.0, work=3000.0)
        done.start(0.0, "n0", 3000.0)
        done.advance_to(1.0)
        done.complete(1.0)

        pop = snapshot_jobs([pending, future, done], t=50.0)
        assert pop.job_ids == ("pending",)

    def test_projects_progress_to_snapshot_time(self):
        job = make_job(work=3_000_000.0)
        job.start(0.0, "n0", 1000.0)
        pop = snapshot_jobs([job], t=500.0)
        assert pop.remaining[0] == pytest.approx(2_500_000.0)
        # the job object itself is untouched
        assert job.remaining_work == 3_000_000.0

    def test_snapshot_before_last_update_rejected(self):
        job = make_job()
        job.start(0.0, "n0", 100.0)
        job.advance_to(100.0)
        with pytest.raises(ModelError):
            snapshot_jobs([job], t=50.0)

    def test_total_cap(self):
        pop = make_population(0.0, [1e6, 1e6], caps=[3000.0, 1500.0])
        assert pop.total_cap == 4500.0

    def test_empty_population(self):
        pop = snapshot_jobs([], 0.0)
        assert len(pop) == 0
        assert pop.total_cap == 0.0


class TestLiveJobTable:
    def runner_table(self, *jobs):
        table = LiveJobTable()
        for rank, job in enumerate(jobs):
            table.admit(job, rank)
        return table

    def test_rows_follow_rank_not_admission_order(self):
        jobs = [make_job(job_id=f"j{i}") for i in range(3)]
        table = LiveJobTable()
        for rank in (2, 0, 1):
            table.admit(jobs[rank], rank)
        assert list(table) == jobs
        assert table.job_ids == ("j0", "j1", "j2")
        assert table.population(0.0).job_ids == ("j0", "j1", "j2")

    def test_discard_drops_the_row(self):
        jobs = [make_job(job_id=f"j{i}", cap=1000.0 * (i + 1)) for i in range(3)]
        table = self.runner_table(*jobs)
        table.population(0.0)  # columns cached before the drop
        table.discard("j1")
        table.discard("j1")  # no row: a no-op
        assert list(table) == [jobs[0], jobs[2]]
        assert jobs[1] not in table
        pop = table.population(0.0)
        assert pop.job_ids == ("j0", "j2")
        assert pop.caps.tolist() == [1000.0, 3000.0]

    def test_admitting_twice_is_rejected(self):
        job = make_job(job_id="j0")
        table = self.runner_table(job)
        with pytest.raises(LifecycleError):
            table.admit(job, 1)
        with pytest.raises(LifecycleError):
            table.admit(make_job(job_id="j1"), 0)

    def test_snapshots_are_read_only(self):
        jobs = [make_job(job_id="j0"), make_job(job_id="j1")]
        filtered = LiveJobTable.from_jobs(jobs, 0.0)
        taken = self.runner_table(*jobs).take([1])
        for table in (filtered, taken):
            with pytest.raises(LifecycleError):
                table.admit(make_job(job_id="j2"), 2)
            with pytest.raises(LifecycleError):
                table.discard("j0")
        pop = taken.population(0.0)
        assert pop.job_ids == ("j1",)
        assert not pop.caps.flags.writeable

    def test_from_jobs_returns_a_table_as_is(self):
        table = self.runner_table(make_job())
        assert LiveJobTable.from_jobs(table, 0.0) is table

    @pytest.mark.parametrize("ending", ["cancel", "complete"])
    def test_terminal_row_raises(self, ending):
        job = make_job(work=3000.0)
        table = self.runner_table(make_job(job_id="other"), job)
        job.start(0.0, "n0", 3000.0)
        job.advance_to(1.0)
        getattr(job, ending)(1.0)  # terminal, but its row was not dropped
        with pytest.raises(LifecycleError):
            table.population(1.0)
        with pytest.raises(LifecycleError):
            table.take([1]).population(1.0)
        with pytest.raises(LifecycleError):
            snapshot_jobs(table, 1.0)

    def test_non_live_vm_state_raises(self):
        job = make_job()
        job.vm.stop()  # inconsistent: a non-terminal job with a stopped VM
        with pytest.raises(LifecycleError):
            self.runner_table(job).population(0.0)
        with pytest.raises(LifecycleError):
            snapshot_jobs([job], 0.0)

    def test_snapshot_before_last_update_raises(self):
        job = make_job()
        job.start(0.0, "n0", 100.0)
        job.advance_to(100.0)
        table = self.runner_table(make_job(job_id="other"), job)
        with pytest.raises(ModelError, match="j0"):
            table.population(50.0)
        with pytest.raises(ModelError, match="j0"):
            table.take([1]).population(50.0)
        assert table.population(100.0).remaining.tolist() == [3_000_000.0, 2_990_000.0]


class TestRequiredRates:
    def test_required_rate_formula(self):
        # one job: R=2e6 at t=0, goal at 4000, goal length 4000
        pop = make_population(0.0, [2_000_000.0])
        # utility 0.5 -> completion at 2000 -> rate 1000
        rates = pop.required_rates(0.5)
        assert rates[0] == pytest.approx(1000.0)

    def test_unachievable_utility_gives_inf(self):
        pop = make_population(0.0, [2_000_000.0])
        # utility 1.0 -> completion now -> impossible
        assert math.isinf(pop.required_rates(1.0)[0])

    def test_completed_job_needs_zero(self):
        pop = make_population(0.0, [0.0])
        assert pop.required_rates(0.5)[0] == 0.0

    def test_rates_increase_with_utility(self):
        pop = make_population(0.0, [2_000_000.0])
        r1 = pop.required_rates(0.2)[0]
        r2 = pop.required_rates(0.6)[0]
        assert r2 > r1


class TestMaxAchievableUtility:
    def test_formula(self):
        # R/c = 1000 s, goal at 4000 -> u_max = 3000/4000
        pop = make_population(0.0, [3_000_000.0])
        assert pop.max_achievable_utility()[0] == pytest.approx(0.75)

    def test_negative_when_goal_unreachable(self):
        pop = make_population(0.0, [3_000_000.0], goals_abs=[500.0])
        assert pop.max_achievable_utility()[0] < 0


class TestPredictedCompletions:
    def test_basic_and_infinite(self):
        pop = make_population(100.0, [1_000_000.0, 1_000_000.0])
        out = predicted_completions(pop, [1000.0, 0.0])
        assert out[0] == pytest.approx(1100.0)
        assert math.isinf(out[1])

    def test_shape_mismatch_rejected(self):
        pop = make_population(0.0, [1.0])
        with pytest.raises(ModelError):
            predicted_completions(pop, [1.0, 2.0])
