"""Live-job table populations vs the frozen per-job snapshot loop.

:class:`~repro.perf.jobmodel.LiveJobTable` fills each job's invariant
columns once and projects remaining work to the snapshot time with array
math.  :func:`~tests.property.reference_jobmodel.snapshot_jobs` keeps the
old loop that built every column per job per call.  Over mixed job sets
-- unsubmitted, pending, running, suspended, completed and cancelled
jobs, advanced to different instants -- every table path must give a
population byte-identical to the frozen loop: the filtered table of a
plain sequence, a runner-style table filled by ``admit``/``discard`` in
any admission order, and ``take`` of any rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perf.jobmodel import LiveJobTable, snapshot_jobs
from repro.workloads.jobs import Job, JobSpec

from .reference_jobmodel import snapshot_jobs as reference_snapshot

#: Snapshot instant; every job's history happens at or before it.
T = 5000.0

_KINDS = ("unsubmitted", "pending", "running", "suspended", "completed", "cancelled")

#: One job: (kind, submit, work, cap, goal, importance, rate fraction,
#: first advance offset, second advance offset).
job_params = st.tuples(
    st.sampled_from(_KINDS),
    st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    st.floats(min_value=1e3, max_value=3e7, allow_nan=False),
    st.floats(min_value=100.0, max_value=4000.0, allow_nan=False),
    st.floats(min_value=1.0, max_value=1e5, allow_nan=False),
    st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=1500.0, allow_nan=False),
)


def build_job(i, params) -> Job:
    kind, submit, work, cap, goal, importance, frac, dt1, dt2 = params
    if kind == "unsubmitted":
        submit = T + 1.0 + submit
    job = Job(
        JobSpec(
            job_id=f"j{i:03d}",
            submit_time=submit,
            total_work=work,
            speed_cap_mhz=cap,
            memory_mb=512.0,
            completion_goal=goal,
            importance=importance,
        )
    )
    if kind in ("unsubmitted", "pending"):
        return job
    if kind == "completed":
        job.start(submit, "n0", cap)
        job.advance_to(submit + work / cap + 1.0)
        job.complete(job.last_update)
        return job
    job.start(submit, "n0", frac * cap)
    if dt1:
        job.advance_to(submit + dt1)
    if kind == "suspended":
        job.suspend(job.last_update, work_lost=frac * dt2)
    elif kind == "cancelled":
        job.cancel(job.last_update + dt2)
    elif dt2:
        job.set_rate(job.last_update + dt2, (1.0 - frac) * cap)
    return job


def assert_identical(population, expected):
    assert population.time == expected.time
    assert population.job_ids == expected.job_ids
    for name in ("remaining", "caps", "goals_abs", "goal_lengths", "importance"):
        got = getattr(population, name)
        want = getattr(expected, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name


job_sets = st.lists(job_params, min_size=0, max_size=25).map(
    lambda params: [build_job(i, p) for i, p in enumerate(params)]
)


@settings(max_examples=150, deadline=None)
@given(jobs=job_sets)
def test_filtered_table_matches_frozen_snapshot(jobs):
    expected = reference_snapshot(jobs, T)
    assert_identical(LiveJobTable.from_jobs(jobs, T).population(T), expected)
    assert_identical(snapshot_jobs(jobs, T), expected)
    assert_identical(snapshot_jobs(iter(jobs), T), expected)


@settings(max_examples=150, deadline=None)
@given(jobs=job_sets, data=st.data())
def test_runner_table_matches_frozen_snapshot(jobs, data):
    # The runner admits every submitted job -- in submit-time order, which
    # need not be spec order -- and drops it on completion or stop.
    submitted = [rank for rank, job in enumerate(jobs) if job.spec.submit_time <= T]
    order = data.draw(st.permutations(submitted))
    table = LiveJobTable()
    for rank in order:
        table.admit(jobs[rank], rank)
    for job in jobs:
        if not job.is_incomplete:
            table.discard(job.job_id)
    assert [job.job_id for job in table] == list(table.job_ids)
    assert_identical(table.population(T), reference_snapshot(jobs, T))
    assert_identical(snapshot_jobs(table, T), reference_snapshot(jobs, T))


@settings(max_examples=150, deadline=None)
@given(jobs=job_sets, data=st.data())
def test_take_matches_snapshot_of_sub_list(jobs, data):
    table = LiveJobTable.from_jobs(jobs, T)
    rows = data.draw(
        st.lists(st.integers(min_value=0, max_value=max(len(table) - 1, 0)))
        if len(table)
        else st.just([])
    )
    sub = table.take(rows)
    assert list(sub) == [table[row] for row in rows]
    assert_identical(sub.population(T), reference_snapshot(list(sub), T))
    # ``take`` accepts an index array as well as a list.
    assert_identical(
        table.take(np.asarray(rows, dtype=np.intp)).population(T),
        reference_snapshot(list(sub), T),
    )
