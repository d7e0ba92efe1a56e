"""Merged-accounting validation for federated results.

Each region's engine already runs the single-cluster invariant checks of
:func:`repro.simulator.validation.verify_result` on its own schedule;
what was previously unchecked is the *merge*: a routing bug could count
a job twice, drop a region's accounting, or report placements that do
not match the executed schedules, and every per-region check would still
pass.  :func:`verify_federated_result` closes that gap.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.federation.simulation import FederatedResult

__all__ = ["verify_federated_result", "assert_valid_federated"]


def verify_federated_result(
    result: "FederatedResult", tolerance: float = 1e-6
) -> list[str]:
    """Every merged-accounting violation in ``result`` (empty when valid).

    Checks, on top of the per-region engine validation:

    * federation totals (carbon, cost, jobs) equal the sum over regions;
    * totals are finite and non-negative;
    * the placement map covers exactly the executed jobs -- each
      non-empty region's placement count equals its record count, empty
      placements name no result, and placements sum to the job total;
    * the migrated count is sane (non-negative, at most the off-home
      placements).
    """
    problems: list[str] = []
    region_carbon = sum(r.total_carbon_kg for r in result.per_region.values())
    region_cost = sum(r.total_cost for r in result.per_region.values())
    region_jobs = sum(r.total_jobs for r in result.per_region.values())
    for label, total, summed in (
        ("carbon", result.total_carbon_kg, region_carbon),
        ("cost", result.total_cost, region_cost),
    ):
        if not math.isfinite(total) or total < 0:
            problems.append(f"federation {label} total {total!r} is not a "
                            "finite non-negative number")
        elif abs(total - summed) > tolerance:
            problems.append(
                f"federation {label} total {total:.9g} != region sum {summed:.9g}"
            )
    if result.total_jobs != region_jobs:
        problems.append(
            f"federation job total {result.total_jobs} != region sum {region_jobs}"
        )

    for name, count in result.placements.items():
        if count < 0:
            problems.append(f"region {name}: negative placement count {count}")
        executed = result.per_region.get(name)
        if count > 0 and executed is None:
            problems.append(f"region {name}: {count} placements but no result")
        if executed is not None and count != executed.total_jobs:
            problems.append(
                f"region {name}: {count} placements != "
                f"{executed.total_jobs} executed records"
            )
    for name in result.per_region:
        if name not in result.placements:
            problems.append(f"region {name}: result present but unplaced")
    placed = sum(result.placements.values())
    if placed != result.total_jobs:
        problems.append(
            f"placements sum {placed} != federation job total {result.total_jobs}"
        )

    off_home = sum(
        count for name, count in result.placements.items() if name != result.home
    )
    if result.migrated_jobs < 0:
        problems.append(f"negative migrated count {result.migrated_jobs}")
    elif result.migrated_jobs != off_home:
        problems.append(
            f"migrated count {result.migrated_jobs} != off-home placements {off_home}"
        )
    return problems


def assert_valid_federated(result: "FederatedResult", tolerance: float = 1e-6) -> None:
    """Raise :class:`SimulationError` on any merged-accounting violation."""
    problems = verify_federated_result(result, tolerance=tolerance)
    if problems:
        raise SimulationError(
            "federated result failed validation:\n  - " + "\n  - ".join(problems)
        )
