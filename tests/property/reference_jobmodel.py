"""Frozen copy of the per-job population snapshot loop.

This module preserves, verbatim, :func:`repro.perf.jobmodel.snapshot_jobs`
as it stood before populations were gathered from a
:class:`~repro.perf.jobmodel.LiveJobTable`: one Python loop over the jobs
that filters the submitted, incomplete ones and builds every column.  The
table differential tests and the reference runner check the table path
against it for byte-identical populations.  Do NOT edit this body when
changing the production snapshot -- it is the reference the contract is
stated against.
"""

from __future__ import annotations

from typing import Iterable, Optional

import numpy as np

from repro.errors import ModelError
from repro.perf.jobmodel import JobPopulation
from repro.types import Seconds
from repro.workloads.jobs import Job


def snapshot_jobs(
    jobs: Iterable[Job], t: Seconds, *, included: Optional[list[Job]] = None
) -> JobPopulation:
    """Build a :class:`JobPopulation` of the *incomplete, submitted* jobs.

    Jobs are advanced conceptually to ``t`` (progress since their last
    update is accounted for without mutating them).  Completed, cancelled
    and not-yet-submitted jobs are excluded.

    When ``included`` is given, the :class:`Job` objects that made it
    into the snapshot are appended to it, in snapshot (column) order --
    callers that need the jobs alongside the columns (the controller's
    request builder) then avoid a second filtered pass keyed by id.
    """
    ids: list[str] = []
    remaining: list[float] = []
    caps: list[float] = []
    goals_abs: list[float] = []
    goal_lengths: list[float] = []
    importance: list[float] = []
    # Bound the append methods once: this loop visits every job every
    # control cycle and is the controller's main O(population) pass.
    add_id = ids.append
    add_rem = remaining.append
    add_cap = caps.append
    add_goal = goals_abs.append
    add_len = goal_lengths.append
    add_imp = importance.append
    add_job = included.append if included is not None else None
    for job in jobs:
        spec = job.spec
        if spec.submit_time > t or not job.is_incomplete:
            continue
        # Private-field reads (the public properties are trivial
        # accessors): this loop touches every job every control cycle
        # and the attribute-protocol overhead is measurable at scale.
        last_update = job._last_update
        if t < last_update:
            raise ModelError(
                f"job {job.job_id}: snapshot time {t} precedes last update "
                f"{last_update}"
            )
        rem = max(job._remaining - job._rate * (t - last_update), 0.0)
        if add_job is not None:
            add_job(job)
        add_id(spec.job_id)
        add_rem(rem)
        add_cap(spec.speed_cap_mhz)
        add_goal(spec.absolute_goal)
        add_len(spec.completion_goal)
        add_imp(spec.importance)
    return JobPopulation(
        time=t,
        job_ids=tuple(ids),
        remaining=np.asarray(remaining, dtype=float),
        caps=np.asarray(caps, dtype=float),
        goals_abs=np.asarray(goals_abs, dtype=float),
        goal_lengths=np.asarray(goal_lengths, dtype=float),
        importance=np.asarray(importance, dtype=float),
    )
