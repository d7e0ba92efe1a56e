"""Electricity-price-aware scheduling (paper Section 7 / Fig. 20).

The paper's discussion notes that private-cloud operators face the same
trade-off through *dynamic energy pricing*: a carbon-aware schedule is
only sometimes a cost-aware one (ERCOT's price/CI correlation is ~0.16).
These policies make that concrete:

* :class:`PriceAware` is Lowest-Window against the **price** series --
  what a purely cost-driven operator runs.
* :class:`WeightedCarbonPrice` minimizes a weighted blend of normalized
  window carbon and window energy cost, tracing the carbon/cost frontier
  the discussion describes; ``weight=1`` degrades to Lowest-Window,
  ``weight=0`` to PriceAware.

Both consume a price series through :class:`SchedulingContext`'s
``price_forecaster`` -- a :class:`PerfectForecaster` over an
:class:`ElectricityPriceTrace` works directly, since prices (unlike CI)
are typically published day-ahead.
"""

from __future__ import annotations

import numpy as np

from repro.carbon.forecast import Forecaster
from repro.errors import SchedulingError
from repro.policies.base import SchedulingContext
from repro.policies.scoring import (
    CandidateBatch,
    SingleJobBatch,
    WindowPolicy,
    first_near_minimum,
)

__all__ = ["PriceAware", "WeightedCarbonPrice"]


def _price_forecaster(ctx: SchedulingContext) -> Forecaster:
    forecaster = getattr(ctx, "price_forecaster", None)
    if forecaster is None:
        raise SchedulingError(
            "price-aware policies need ctx.price_forecaster (a Forecaster "
            "over an ElectricityPriceTrace)"
        )
    return forecaster


def _normalized(series: np.ndarray, batch: CandidateBatch | SingleJobBatch) -> np.ndarray:
    """``series`` over the magnitude of each job's immediate-start value.

    A near-zero anchor leaves the series as is; division by 1.0 is exact.
    """
    anchor = np.abs(series[batch.offsets])
    divisor = np.where(anchor > 1e-12, anchor, 1.0)
    return series / batch.expand(divisor)


class PriceAware(WindowPolicy):
    """Start where the estimated-length *energy cost* integral is smallest."""

    name = "Price-Aware"
    carbon_aware = False

    def score_sources(self, ctx: SchedulingContext) -> tuple[Forecaster, ...]:
        return (_price_forecaster(ctx),)


class WeightedCarbonPrice(WindowPolicy):
    """Minimize ``w * carbon + (1 - w) * energy_cost`` over the window.

    Both objectives are normalized by their value at the immediate start
    so the weight is unitless; ``carbon_weight`` in [0, 1].
    """

    def __init__(self, carbon_weight: float = 0.5):
        if not 0.0 <= carbon_weight <= 1.0:
            raise SchedulingError("carbon_weight must lie in [0, 1]")
        self.carbon_weight = carbon_weight
        self.name = f"Carbon-Price({carbon_weight:.2f})"

    def score_sources(self, ctx: SchedulingContext) -> tuple[Forecaster, ...]:
        return (ctx.forecaster, _price_forecaster(ctx))

    def select_candidates(
        self, batch: CandidateBatch | SingleJobBatch, windows: list[np.ndarray]
    ):
        window_carbon_g, window_cost = windows
        blended = self.carbon_weight * _normalized(window_carbon_g, batch) + (
            1.0 - self.carbon_weight
        ) * _normalized(window_cost, batch)
        return first_near_minimum(batch, blended)
