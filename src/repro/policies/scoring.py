"""Candidate-window search shared by the window-optimizing policies.

The window-optimizing policies (Lowest-Window, Carbon-Time, the
price-aware pair) all evaluate the same shape of search (paper
Section 4.2.1-4.2.2): for each job, an arithmetic grid of candidate
start minutes inside the waiting window, scored by a window integral
over the carbon (or price) forecast, then one selection rule.
:class:`WindowPolicy` owns that search for both decision paths -- one
job through :meth:`~WindowPolicy.decide`, a whole workload through
:meth:`~WindowPolicy.decide_many` -- and a subclass writes its
selection rule once, against the :class:`CandidateBatch` interface.

A batch flattens many jobs' grids into one ragged array, so a whole
workload's decisions cost a handful of numpy passes instead of tens of
thousands of small allocations.  A :class:`SingleJobBatch` presents one
job's grid through the same interface: ``expand`` is the identity and
the segment reductions are the whole-array ``min``/``max``/first index,
so the one-job path runs the scalar search's float operations
unchanged.

Bit-exactness contract: both paths perform the same float operations
element for element.  Candidate grids match
:meth:`~repro.policies.base.SchedulingContext.candidate_starts`, batch
scores gather from :meth:`~repro.carbon.forecast.Forecaster.window_view`
(the same ``cum[s + d] - cum[s]`` as ``window_carbon_many``), and
per-job min/max/first-index reductions are exact regardless of
evaluation order, so batched and one-job decisions agree bit for bit --
``tests/simulator/test_fast_path.py`` holds this with a hypothesis
property against a naive oracle.
"""

from __future__ import annotations

from abc import abstractmethod
from collections.abc import Sequence
from dataclasses import dataclass
from typing import cast

import numpy as np

from repro.carbon.forecast import Forecaster
from repro.policies.base import Decision, Policy, SchedulingContext
from repro.workload.job import Job, JobQueue

__all__ = [
    "CandidateBatch",
    "SingleJobBatch",
    "WindowPolicy",
    "candidate_batch",
    "first_near_minimum",
    "group_jobs_by_queue",
]

#: Sentinel for "no candidate selected yet" in first-index reductions.
_NO_INDEX = np.iinfo(np.int64).max


@dataclass(frozen=True)
class CandidateBatch:
    """The flattened candidate grids of one job group.

    Jobs whose window collapses to the arrival alone (``latest <=
    arrival``, the scalar path's size-1 case) are split out via
    ``single``; the remaining jobs' candidates are concatenated into
    ``starts`` with per-job ``offsets``/``counts`` bookkeeping.
    """

    #: Boolean mask over the group: True where the arrival is the only
    #: candidate and the decision is ``Decision(arrival)``.
    single: np.ndarray
    #: Indices (into the group) of the jobs with a real candidate grid.
    index: np.ndarray
    #: Arrival minutes of the ``index`` jobs.
    arrivals: np.ndarray
    #: Flat candidate start minutes of all ``index`` jobs, job-major.
    starts: np.ndarray
    #: Start position of each job's slice inside ``starts``; each job's
    #: first candidate is its arrival.
    offsets: np.ndarray
    #: Candidates per job; ``starts[offsets[j]:offsets[j] + counts[j]]``.
    counts: np.ndarray
    #: Flat job index per candidate (``np.repeat(arange(n), counts)``),
    #: computed once so every broadcast is a gather, not a fresh repeat.
    positions: np.ndarray
    #: Minutes each candidate window spans (the length estimate).
    hold: int

    def expand(self, per_job: np.ndarray) -> np.ndarray:
        """Broadcast one value per job across its candidate slice.

        A gather through the precomputed ``positions`` -- value-identical
        to ``np.repeat(per_job, self.counts)`` (same elements, no float
        arithmetic) at a fraction of the cost per call.
        """
        return per_job[self.positions]

    def segment_min(self, values: np.ndarray) -> np.ndarray:
        """Per-job minimum over the flat candidate scores (exact)."""
        return np.minimum.reduceat(values, self.offsets)

    def segment_max(self, values: np.ndarray) -> np.ndarray:
        """Per-job maximum over the flat candidate scores (exact)."""
        return np.maximum.reduceat(values, self.offsets)

    def segment_first_where(self, mask: np.ndarray) -> np.ndarray:
        """Flat position of each job's first True candidate.

        Mirrors the scalar ``np.flatnonzero(condition)[0]`` selection;
        every job must have at least one True (the selection rules
        guarantee it -- the minimizing candidate always satisfies its
        own tolerance band).
        """
        intra = np.arange(mask.size, dtype=np.int64) - self.offsets[self.positions]
        candidates = np.where(mask, intra, _NO_INDEX)
        first = np.minimum.reduceat(candidates, self.offsets)
        return self.offsets + first


class SingleJobBatch:
    """One job's candidate grid behind the :class:`CandidateBatch` interface.

    Per-job values are scalars: ``offsets`` is 0, ``expand`` is the
    identity, and the segment reductions reduce the whole array, so a
    selection rule performs exactly the scalar search's float
    operations.
    """

    __slots__ = ("arrivals", "starts", "hold")

    offsets = 0

    def __init__(self, arrival: int, starts: np.ndarray, hold: int):
        self.arrivals = arrival
        self.starts = starts
        self.hold = hold

    def expand(self, per_job):
        """Identity: one job's value already applies to every candidate."""
        return per_job

    def segment_min(self, values: np.ndarray):
        """The minimum score."""
        return values.min()

    def segment_max(self, values: np.ndarray):
        """The maximum score."""
        return values.max()

    def segment_first_where(self, mask: np.ndarray) -> int:
        """Position of the first True candidate."""
        return int(np.flatnonzero(mask)[0])


def candidate_batch(
    arrivals: np.ndarray,
    max_wait: int,
    hold: int,
    horizon: int,
    granularity: int,
) -> CandidateBatch:
    """Build every job's candidate grid in one pass.

    Replicates ``SchedulingContext.candidate_starts`` exactly: candidates
    are ``arange(arrival, latest + 1, granularity)`` with ``latest``
    appended when the grid does not land on it, where ``latest =
    min(arrival + max_wait, horizon - hold)``; jobs with ``latest <=
    arrival`` keep the arrival as their only candidate (``single``).
    """
    arrivals = np.asarray(arrivals, dtype=np.int64)
    latest = np.minimum(arrivals + max_wait, horizon - hold)
    single = latest <= arrivals
    index = np.flatnonzero(~single)
    grid_arrivals = arrivals[index]
    grid_latest = latest[index]
    steps = (grid_latest - grid_arrivals) // granularity
    on_grid_last = grid_arrivals + steps * granularity
    extra = on_grid_last != grid_latest
    counts = steps + 1 + extra
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    total = int(counts.sum()) if counts.size else 0
    positions = np.repeat(np.arange(counts.size, dtype=np.int64), counts)
    intra = np.arange(total, dtype=np.int64) - offsets[positions]
    starts = grid_arrivals[positions] + intra * granularity
    # The appended off-grid last candidate, where one exists.
    last_positions = offsets + counts - 1
    starts[last_positions[extra]] = grid_latest[extra]
    return CandidateBatch(
        single=single,
        index=index,
        arrivals=grid_arrivals,
        starts=starts,
        offsets=offsets,
        counts=counts,
        positions=positions,
        hold=hold,
    )


def first_near_minimum(batch: CandidateBatch | SingleJobBatch, scores: np.ndarray):
    """Each job's first candidate scoring within float noise of its minimum.

    The rule Lowest-Window, Price-Aware and Carbon-Price share: the
    first score ``<= min + 1e-9 * max(1, max|score|)``.  Window
    integrals carry prefix-sum rounding, and a near-equal later start
    only costs waiting time, so near-ties break toward the earliest
    start.  The tolerance scales with the largest *magnitude* because
    price series can be negative.
    """
    tolerance = 1e-9 * np.maximum(1.0, batch.segment_max(np.abs(scores)))
    within = scores <= batch.expand(batch.segment_min(scores) + tolerance)
    return batch.segment_first_where(within)


def group_jobs_by_queue(
    jobs: Sequence[Job], ctx: SchedulingContext
) -> list[tuple[JobQueue, list[int]]]:
    """Group job positions by their resolved queue, first-seen order.

    Queue resolution matches ``SchedulingContext.queue_of``; grouping is
    what lets a batch share one (estimate, max-wait) candidate geometry
    and one window-sums view per queue.
    """
    groups: dict[str, tuple[JobQueue, list[int]]] = {}
    for position, job in enumerate(jobs):
        queue = ctx.queue_of(job)
        entry = groups.get(queue.name)
        if entry is None:
            groups[queue.name] = (queue, [position])
        else:
            entry[1].append(position)
    return list(groups.values())


class WindowPolicy(Policy):
    """Start each job at the candidate its selection rule picks.

    Owns the search both decision paths share: queue lookup, length
    estimate (the queue average Ĵ stands in for the unknown length),
    candidate grid, and the window integrals of every score source.  A
    subclass supplies its score sources (:meth:`score_sources`) and,
    where :func:`first_near_minimum` over the first source is not its
    rule, its own :meth:`select_candidates`.
    """

    carbon_aware = True
    performance_aware = False
    length_knowledge = "average"

    @abstractmethod
    def score_sources(self, ctx: SchedulingContext) -> tuple[Forecaster, ...]:
        """The forecasters whose window integrals score a candidate."""

    def select_candidates(
        self, batch: CandidateBatch | SingleJobBatch, windows: list[np.ndarray]
    ):
        """Position of each job's chosen candidate in ``batch.starts``.

        ``windows`` holds one window-integral series per score source,
        aligned with ``batch.starts``.  Written once against the
        :class:`CandidateBatch` interface, the rule serves a
        :class:`SingleJobBatch` (one position) and a flat batch (one
        position per job) alike.
        """
        return first_near_minimum(batch, windows[0])

    def decide(self, job: Job, ctx: SchedulingContext) -> Decision:
        queue = ctx.queue_of(job)
        estimate = max(1, int(round(ctx.length_estimate(queue))))
        candidates = ctx.candidate_starts(job.arrival, queue.max_wait, estimate)
        if candidates.size == 1:
            return Decision(start_time=int(candidates[0]))
        windows = [
            source.window_carbon_many(job.arrival, candidates, estimate)
            for source in self.score_sources(ctx)
        ]
        best = self.select_candidates(SingleJobBatch(job.arrival, candidates, estimate), windows)
        return Decision(start_time=int(candidates[best]))

    def decide_many(self, jobs: Sequence[Job], ctx: SchedulingContext) -> list[Decision]:
        """Batched :meth:`decide`: one candidate batch per queue.

        Scores gather from each source's query-time-independent
        :meth:`~repro.carbon.forecast.Forecaster.window_view`; when a
        source has none (a forecaster that degrades with lead time), the
        whole call falls back to per-job :meth:`decide`.
        """
        decisions: list[Decision | None] = [None] * len(jobs)
        for queue, positions in group_jobs_by_queue(jobs, ctx):
            estimate = max(1, int(round(ctx.length_estimate(queue))))
            arrivals = np.fromiter(
                (jobs[i].arrival for i in positions), np.int64, count=len(positions)
            )
            batch = candidate_batch(
                arrivals, queue.max_wait, estimate, ctx.carbon_horizon, ctx.granularity
            )
            chosen = arrivals.copy()
            if batch.index.size:
                views = [source.window_view(estimate) for source in self.score_sources(ctx)]
                if any(view is None for view in views):
                    return super().decide_many(jobs, ctx)
                windows = [view[batch.starts] for view in views]
                chosen[batch.index] = batch.starts[self.select_candidates(batch, windows)]
            for slot, position in enumerate(positions):
                decisions[position] = Decision(start_time=int(chosen[slot]))
        return cast(list[Decision], decisions)
