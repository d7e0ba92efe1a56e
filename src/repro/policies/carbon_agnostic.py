"""Carbon-agnostic baseline policies (paper Table 1, citing Ambati et al.).

* **NoWait** runs every job the moment it arrives -- the carbon- and
  cost-agnostic baseline all normalized results are measured against.
* **AllWait-Threshold** is the cost-aware baseline: a job waits for a
  reserved instance to free up, falling back to on-demand only once its
  queue's maximum waiting time expires.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.policies.base import Decision, Policy, SchedulingContext
from repro.workload.job import Job

__all__ = ["NoWait", "AllWaitThreshold"]


class NoWait(Policy):
    """Run jobs as they arrive (FCFS onto reserved-if-free, else on-demand)."""

    name = "NoWait"
    carbon_aware = False
    performance_aware = False
    length_knowledge = "none"

    def decide(self, job: Job, ctx: SchedulingContext) -> Decision:
        return Decision(start_time=job.arrival)

    def decide_many(
        self, jobs: Sequence[Job], ctx: SchedulingContext
    ) -> list[Decision]:
        return [Decision(start_time=job.arrival) for job in jobs]


class AllWaitThreshold(Policy):
    """Wait for reserved capacity up to the queue's W, then go on-demand.

    Implemented via the engine's work-conserving reserved pickup: the job
    is queued with a fallback start at ``arrival + W``; any reserved
    instance freeing up earlier starts it immediately.
    """

    name = "AllWait-Threshold"
    carbon_aware = False
    performance_aware = False
    length_knowledge = "none"

    def decide(self, job: Job, ctx: SchedulingContext) -> Decision:
        queue = ctx.queue_of(job)
        start = job.arrival + queue.max_wait
        # Never plan past the end of carbon data (clip by the queue bound,
        # the only length knowledge this policy has).
        start = min(start, max(job.arrival, ctx.carbon_horizon - queue.max_length))
        start = max(start, job.arrival)
        return Decision(start_time=start, reserved_pickup=True)
