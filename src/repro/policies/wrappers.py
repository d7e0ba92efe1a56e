"""Cost-aware meta-policies (paper Sections 4.2.3-4.2.4).

These wrap a *timing* policy (typically Carbon-Time or Lowest-Window) and
add purchase-option awareness:

* **RES-First** -- work-conserving use of pre-paid reserved capacity: run
  immediately if a reserved instance is idle; otherwise wait for the
  inner policy's carbon-aware start, grabbing any reserved instance that
  frees up in the meantime, and fall back to on-demand at the planned
  start.
* **Spot-First** -- run short jobs on discounted spot capacity at the
  inner policy's carbon-aware start; evicted jobs lose their progress and
  restart on on-demand.
* **Spot-RES** -- the combined policy: short jobs follow Spot-First, long
  jobs follow RES-First.

The wrappers only *mark* decisions (``reserved_pickup`` / ``use_spot``);
the simulator's resource manager enforces the semantics, because reserved
availability is runtime state no arrival-time decision can know.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.errors import SchedulingError
from repro.policies.base import Decision, Policy, SchedulingContext
from repro.units import hours
from repro.workload.job import Job

__all__ = ["ResFirst", "SpotFirst", "SpotRes"]


class _Wrapper(Policy):
    """Shared plumbing for meta-policies around a timing policy.

    Subclasses implement :meth:`_wrap`, the pure per-job rewrapping of
    the inner decision; ``decide`` and ``decide_many`` both route through
    it so the scalar and batched paths cannot drift apart.
    """

    def __init__(self, inner: Policy):
        if inner is None:
            raise SchedulingError("wrapper needs an inner timing policy")
        self.inner = inner
        self.carbon_aware = inner.carbon_aware
        self.performance_aware = inner.performance_aware
        self.requires_job_length = inner.requires_job_length
        self.length_knowledge = inner.length_knowledge
        self.stateless = inner.stateless

    def _inner_decision(self, job: Job, ctx: SchedulingContext) -> Decision:
        return self.inner.decide(job, ctx)

    def _wrap(self, job: Job, decision: Decision, ctx: SchedulingContext) -> Decision:
        raise NotImplementedError  # pragma: no cover - subclasses override

    def decide(self, job: Job, ctx: SchedulingContext) -> Decision:
        return self._wrap(job, self._inner_decision(job, ctx), ctx)

    def decide_many(
        self, jobs: Sequence[Job], ctx: SchedulingContext
    ) -> list[Decision]:
        inner = self.inner.decide_many(jobs, ctx)
        return [
            self._wrap(job, decision, ctx)
            for job, decision in zip(jobs, inner, strict=True)
        ]


class ResFirst(_Wrapper):
    """Work-conserving reserved-first scheduling around a timing policy."""

    def __init__(self, inner: Policy):
        super().__init__(inner)
        self.name = f"RES-First-{inner.name}"

    def _wrap(self, job: Job, decision: Decision, ctx: SchedulingContext) -> Decision:
        if decision.segments is not None and len(decision.segments) > 1:
            raise SchedulingError(
                f"{self.name} wraps uninterruptible timing policies only; "
                f"{self.inner.name} produced a multi-segment plan"
            )
        return Decision(
            start_time=decision.start_time,
            segments=None,
            use_spot=False,
            reserved_pickup=True,
        )


class SpotFirst(_Wrapper):
    """Run short jobs on spot capacity at the carbon-aware start time.

    ``spot_max_length`` is the largest *queue bound* routed to spot (the
    paper's J^max, default 2 h: the short queue).  Longer jobs follow the
    inner policy on on-demand.
    """

    def __init__(self, inner: Policy, spot_max_length: int | None = None):
        super().__init__(inner)
        self.spot_max_length = spot_max_length if spot_max_length is not None else hours(2)
        if self.spot_max_length <= 0:
            raise SchedulingError("spot_max_length must be positive")
        self.name = f"Spot-First-{inner.name}"

    def _eligible(self, job: Job, ctx: SchedulingContext) -> bool:
        return ctx.queue_of(job).max_length <= self.spot_max_length

    def _wrap(self, job: Job, decision: Decision, ctx: SchedulingContext) -> Decision:
        if not self._eligible(job, ctx):
            return decision
        # Suspend-resume inner plans are preserved: each segment runs on
        # spot (paper's Spot-First-Ecovisor configuration).
        return Decision(
            start_time=decision.start_time,
            segments=decision.segments,
            use_spot=True,
            reserved_pickup=False,
        )


class SpotRes(SpotFirst):
    """Short jobs on spot, long jobs work-conserving on reserved."""

    def __init__(self, inner: Policy, spot_max_length: int | None = None):
        super().__init__(inner, spot_max_length=spot_max_length)
        self.name = f"Spot-RES-{inner.name}"

    def _wrap(self, job: Job, decision: Decision, ctx: SchedulingContext) -> Decision:
        if self._eligible(job, ctx):
            return Decision(
                start_time=decision.start_time,
                segments=decision.segments,
                use_spot=True,
                reserved_pickup=False,
            )
        if decision.segments is not None and len(decision.segments) > 1:
            raise SchedulingError(
                f"{self.name}: long jobs follow RES-First, which wraps "
                f"uninterruptible timing policies only"
            )
        return Decision(
            start_time=decision.start_time, use_spot=False, reserved_pickup=True
        )
