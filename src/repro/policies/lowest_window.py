"""Lowest Carbon Window policy (paper Section 4.2.1).

Choose the start time ``t_start`` in ``[t, t + W)`` minimizing the job's
total forecast carbon over ``[t_start, t_start + J]``.  The true length
``J`` is unknown, so the queue-wide historical average Ĵ stands in for
it -- the paper's key "coarse length knowledge" assumption.

The candidate search and its near-tie rule (break toward the earliest
start) are :class:`~repro.policies.scoring.WindowPolicy`'s.
"""

from __future__ import annotations

from repro.carbon.forecast import Forecaster
from repro.policies.base import SchedulingContext
from repro.policies.scoring import WindowPolicy

__all__ = ["LowestWindow"]


class LowestWindow(WindowPolicy):
    """Start where the estimated-length carbon integral is smallest."""

    name = "Lowest-Window"

    def score_sources(self, ctx: SchedulingContext) -> tuple[Forecaster, ...]:
        return (ctx.forecaster,)
