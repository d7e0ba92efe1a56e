"""Carbon-Time policy (paper Section 4.2.2): carbon savings per delay.

Purely carbon-aware policies chase any reduction in footprint, no matter
how long the job must wait for it.  Carbon-Time instead maximizes the
**Carbon Savings per Completion Time** of the delayed start::

    CST(ts) = (C(t) - C(ts)) / (ts + J - t)

where ``C(t)`` is the footprint of starting immediately.  The numerator
is the saving from waiting; the denominator is the resulting completion
time, so a long wait must buy proportionally more carbon.  As with
Lowest-Window, the queue average Ĵ stands in for the unknown length.
Starting immediately yields CST = 0; if no candidate beats that, the job
runs now.
"""

from __future__ import annotations

import numpy as np

from repro.carbon.forecast import Forecaster
from repro.policies.base import SchedulingContext
from repro.policies.scoring import CandidateBatch, SingleJobBatch, WindowPolicy

__all__ = ["CarbonTime"]


class CarbonTime(WindowPolicy):
    """Maximize carbon saving per unit of completion time."""

    name = "Carbon-Time"
    performance_aware = True

    def score_sources(self, ctx: SchedulingContext) -> tuple[Forecaster, ...]:
        return (ctx.forecaster,)

    def select_candidates(
        self, batch: CandidateBatch | SingleJobBatch, windows: list[np.ndarray]
    ):
        (footprints,) = windows
        # Each job's first candidate is its arrival, so the immediate
        # footprint sits at the slice offsets.
        immediate = footprints[batch.offsets]
        savings = batch.expand(immediate) - footprints
        completion = batch.starts + batch.hold - batch.expand(batch.arrivals)
        cst = savings / completion
        # Savings below float noise are no savings: run now rather than
        # chase prefix-sum rounding artifacts; ties break earliest.  The
        # arrival's completion time is exactly the hold.
        tolerance = 1e-9 * np.maximum(1.0, immediate)
        threshold = batch.segment_max(cst) - tolerance / batch.hold
        best = batch.segment_first_where(cst >= batch.expand(threshold))
        return np.where(savings[best] <= tolerance, batch.offsets, best)
