"""Vectorized job-population snapshots and completion predictions.

The controller's hot path (hypothetical-utility equalization, Section 2 of
the paper) operates on the whole incomplete-job population every control
cycle.  To keep that O(n) with numpy instead of a Python loop per job,
this module extracts the population state into a column-oriented
:class:`JobPopulation` snapshot, taken from a :class:`LiveJobTable` that
holds the jobs' invariant columns across cycles.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..cluster.vm import VmState
from ..errors import LifecycleError, ModelError
from ..types import Seconds
from ..workloads.jobs import Job


@dataclass(frozen=True)
class JobPopulation:
    """Column-oriented snapshot of the incomplete jobs at one instant.

    Attributes
    ----------
    time:
        Snapshot time; all columns are consistent as of this instant.
    job_ids:
        Job identifiers (parallel to all arrays).
    remaining:
        Remaining work per job, MHz·s.
    caps:
        Per-job speed caps, MHz.
    goals_abs:
        Absolute SLA deadlines (submit + goal), seconds.
    goal_lengths:
        SLA goal lengths (relative goals), seconds.
    importance:
        Utility aggregation weights.
    """

    time: Seconds
    job_ids: tuple[str, ...]
    remaining: np.ndarray
    caps: np.ndarray
    goals_abs: np.ndarray
    goal_lengths: np.ndarray
    importance: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.job_ids)
        for name in ("remaining", "caps", "goals_abs", "goal_lengths", "importance"):
            arr = getattr(self, name)
            if arr.shape != (n,):
                raise ModelError(f"JobPopulation.{name} has shape {arr.shape}, want ({n},)")
        if n:
            if np.any(self.remaining < 0):
                raise ModelError("negative remaining work in population snapshot")
            if np.any(self.caps <= 0):
                raise ModelError("non-positive speed cap in population snapshot")
            if np.any(self.goal_lengths <= 0):
                raise ModelError("non-positive goal length in population snapshot")

    def __len__(self) -> int:
        return len(self.job_ids)

    @property
    def total_cap(self) -> float:
        """Sum of speed caps: the population's max-utility CPU demand."""
        return float(self.caps.sum())

    def max_achievable_utility(self) -> np.ndarray:
        """Per-job utility ceiling: run at the cap from now on.

        ``u_max_j = (G_j − t − R_j/c_j) / T_j`` -- 1 for a job that could
        finish instantly, 0 for one that exactly meets its goal at full
        speed, negative when the goal is already unreachable.
        """
        if len(self) == 0:
            return np.empty(0, dtype=float)
        best_completion = self.time + self.remaining / self.caps
        return (self.goals_abs - best_completion) / self.goal_lengths

    def required_rates(self, utility: float) -> np.ndarray:
        """Per-job CPU rate needed to achieve ``utility``, MHz.

        ``x_j(u) = R_j / (G_j − u·T_j − t)``; ``inf`` where the implied
        completion time is already in the past (no finite rate suffices),
        0 where the job has no work left.
        """
        if len(self) == 0:
            return np.empty(0, dtype=float)
        slack = self.goals_abs - utility * self.goal_lengths - self.time
        with np.errstate(divide="ignore"):
            rates = np.where(slack > 0, self.remaining / np.maximum(slack, 1e-300), np.inf)
        return np.where(self.remaining <= 0, 0.0, rates)


#: Per-job reads the population gather makes (private fields: the public
#: properties are trivial accessors, and these run for every live job
#: every control cycle).
_REMAINING = attrgetter("_remaining")
_RATE = attrgetter("_rate")
_LAST_UPDATE = attrgetter("_last_update")
_VM_STATE = attrgetter("vm._state")


class LiveJobTable(Sequence[Job]):
    """Row-aligned table of live jobs and their invariant columns.

    A ``Sequence[Job]`` without item assignment whose rows also carry
    each job's invariant columns -- id, speed cap, absolute goal, goal length and
    importance -- filled once when the row is added.  :meth:`population`
    then gathers only the mutable progress state (remaining work, rate,
    last update) and projects it to the snapshot time with array math.

    The experiment runner owns one table: :meth:`admit` adds a job when it
    is submitted and :meth:`discard` drops it when it completes or is
    stopped.  Rows stay sorted by the rank given at admission (the job's
    spec position), so the column order -- and every float sum over it --
    is independent of the admission order.  Tables built by
    :meth:`from_jobs` and :meth:`take` are read-only snapshots.
    """

    __slots__ = ("_jobs", "_ids", "_caps", "_goals_abs", "_goal_lengths",
                 "_importance", "_ranks", "_rank_of", "_arrays")

    def __init__(self) -> None:
        self._jobs: list[Job] = []
        self._ids: list[str] = []
        self._caps: list[float] = []
        self._goals_abs: list[float] = []
        self._goal_lengths: list[float] = []
        self._importance: list[float] = []
        # Sorted row ranks and the rank of every row's job id; ``None``
        # marks a read-only snapshot.
        self._ranks: Optional[list[int]] = []
        self._rank_of: Optional[dict[str, int]] = {}
        self._arrays: Optional[tuple[np.ndarray, ...]] = None

    @classmethod
    def from_jobs(cls, jobs: Iterable[Job], t: Seconds) -> "LiveJobTable":
        """Read-only table of the *submitted, incomplete* jobs at ``t``.

        Completed, cancelled and not-yet-submitted jobs are filtered out;
        the rest keep their input order.  A :class:`LiveJobTable` is
        returned as is (the runner's table holds only live jobs).
        """
        if isinstance(jobs, LiveJobTable):
            return jobs
        table = cls._snapshot()
        add_job = table._jobs.append
        add_id = table._ids.append
        add_cap = table._caps.append
        add_goal = table._goals_abs.append
        add_len = table._goal_lengths.append
        add_imp = table._importance.append
        for job in jobs:
            spec = job.spec
            if spec.submit_time > t or not job.is_incomplete:
                continue
            add_job(job)
            add_id(spec.job_id)
            add_cap(spec.speed_cap_mhz)
            add_goal(spec.absolute_goal)
            add_len(spec.completion_goal)
            add_imp(spec.importance)
        return table

    @classmethod
    def _snapshot(cls) -> "LiveJobTable":
        table = cls()
        table._ranks = table._rank_of = None
        return table

    # ------------------------------------------------------------------
    # Sequence protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._jobs)

    def __getitem__(self, index):
        return self._jobs[index]

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    @property
    def job_ids(self) -> tuple[str, ...]:
        """Job ids, row-aligned with the jobs."""
        return self._columns()[0]

    # ------------------------------------------------------------------
    # Membership (the runner's table only)
    # ------------------------------------------------------------------
    def admit(self, job: Job, rank: int) -> None:
        """Add ``job`` as the row of ``rank`` (its spec position)."""
        ranks = self._writable_ranks()
        job_id = job.spec.job_id
        if job_id in self._rank_of:
            raise LifecycleError(f"job {job_id}: already in the live table")
        row = bisect_left(ranks, rank)
        if row < len(ranks) and ranks[row] == rank:
            raise LifecycleError(f"job {job_id}: rank {rank} already taken")
        spec = job.spec
        ranks.insert(row, rank)
        self._rank_of[job_id] = rank
        self._jobs.insert(row, job)
        self._ids.insert(row, job_id)
        self._caps.insert(row, spec.speed_cap_mhz)
        self._goals_abs.insert(row, spec.absolute_goal)
        self._goal_lengths.insert(row, spec.completion_goal)
        self._importance.insert(row, spec.importance)
        self._arrays = None

    def discard(self, job_id: str) -> None:
        """Drop ``job_id``'s row, if it has one."""
        ranks = self._writable_ranks()
        rank = self._rank_of.pop(job_id, None)
        if rank is None:
            return
        row = bisect_left(ranks, rank)
        del ranks[row]
        del self._jobs[row]
        del self._ids[row]
        del self._caps[row]
        del self._goals_abs[row]
        del self._goal_lengths[row]
        del self._importance[row]
        self._arrays = None

    def _writable_ranks(self) -> list[int]:
        if self._ranks is None:
            raise LifecycleError("a LiveJobTable snapshot is read-only")
        return self._ranks

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def _columns(self) -> tuple:
        """``(ids, caps, goals_abs, goal_lengths, importance)``, built once
        per membership change; the arrays are read-only."""
        if self._arrays is None:
            arrays = tuple(
                np.array(column, dtype=float)
                for column in (
                    self._caps, self._goals_abs, self._goal_lengths, self._importance
                )
            )
            for array in arrays:
                array.flags.writeable = False
            self._arrays = (tuple(self._ids), *arrays)
        return self._arrays

    def take(self, rows: Sequence[int]) -> "LiveJobTable":
        """Read-only table of ``rows``, in the given order."""
        ids, *arrays = self._columns()
        jobs = self._jobs
        sub = self._snapshot()
        sub._jobs = [jobs[row] for row in rows]
        sub._ids = [ids[row] for row in rows]
        index = np.asarray(rows, dtype=np.intp)
        taken = tuple(array[index] for array in arrays)
        for array in taken:
            array.flags.writeable = False
        sub._arrays = (tuple(sub._ids), *taken)
        return sub

    def population(self, t: Seconds) -> JobPopulation:
        """Column snapshot of the table's jobs, projected to ``t``.

        Remaining work is ``max(R − rate·(t − last_update), 0)`` per row,
        without mutating the jobs.  Raises :class:`LifecycleError` when a
        row's VM is not live (a terminal job's VM is always stopped) and
        :class:`ModelError` when ``t`` precedes a row's last update.
        """
        jobs = self._jobs
        ids, caps, goals_abs, goal_lengths, importance = self._columns()
        n = len(jobs)
        # STOPPED is the one non-live state; ``in`` compares by identity
        # in C, where a set lookup would call ``Enum.__hash__`` per row.
        if VmState.STOPPED in map(_VM_STATE, jobs):
            job = next(job for job in jobs if job.vm.state is VmState.STOPPED)
            raise LifecycleError(
                f"job {job.job_id}: VM state {job.vm.state} in the live table"
            )
        last_update = np.fromiter(map(_LAST_UPDATE, jobs), dtype=float, count=n)
        early = t < last_update
        if early.any():
            row = int(np.argmax(early))
            raise ModelError(
                f"job {ids[row]}: snapshot time {t} precedes last update "
                f"{float(last_update[row])}"
            )
        remaining = np.fromiter(map(_REMAINING, jobs), dtype=float, count=n)
        rate = np.fromiter(map(_RATE, jobs), dtype=float, count=n)
        return JobPopulation(
            time=t,
            job_ids=ids,
            remaining=np.maximum(remaining - rate * (t - last_update), 0.0),
            caps=caps,
            goals_abs=goals_abs,
            goal_lengths=goal_lengths,
            importance=importance,
        )


def snapshot_jobs(jobs: Iterable[Job], t: Seconds) -> JobPopulation:
    """Build a :class:`JobPopulation` of the *incomplete, submitted* jobs.

    Jobs are advanced conceptually to ``t`` (progress since their last
    update is accounted for without mutating them).  Completed, cancelled
    and not-yet-submitted jobs are excluded.  A :class:`LiveJobTable` is
    snapshotted directly; any other iterable is filtered into one first.
    """
    return LiveJobTable.from_jobs(jobs, t).population(t)


def predicted_completions(population: JobPopulation, rates: Sequence[float]) -> np.ndarray:
    """Completion times if each job sustained ``rates`` forever (inf at 0)."""
    rates_arr = np.asarray(rates, dtype=float)
    if rates_arr.shape != population.remaining.shape:
        raise ModelError("rates shape does not match population")
    with np.errstate(divide="ignore", invalid="ignore"):
        durations = np.where(
            population.remaining <= 0,
            0.0,
            np.where(rates_arr > 0, population.remaining / np.maximum(rates_arr, 1e-300), np.inf),
        )
    return population.time + durations
