"""Digest entry points and pool-boundary roots for the simcheck passes.

The certification pass (SIM102) and the cache salt both start from the
*digest-relevant entry points*: the functions whose behavior determines
what a cached :class:`~repro.simulator.results.SimulationResult` holds
for a given spec digest.  Patterns are matched with :func:`fnmatch`
against project qualnames, written suffix-style (``*.Engine.run``) so
they bind to both the real ``repro`` package and fixture mini-packages
in tests.

When you add a new policy, engine backend, or fault family whose
``decide``/``run``-style hook is reached *only* dynamically (no static
call or import path from the existing entry points), register its
pattern here via :func:`register_entry_pattern` -- see
``docs/linting.md`` ("Registering new digest entry points").
"""

from __future__ import annotations

from fnmatch import fnmatch

__all__ = [
    "DIGEST_ENTRY_PATTERNS",
    "POOL_BOUNDARY_ROOTS",
    "matches_any",
    "register_entry_pattern",
]

#: Qualname patterns of the digest-relevant entry points.
DIGEST_ENTRY_PATTERNS: list[str] = [
    # The optimized and reference engines.
    "*.Engine.run",
    "*.run_reference",
    # Simulation assembly (freezing/thawing, fault wiring, validation).
    "*.run_simulation",
    "*.SimulationSpec.run",
    "*.SimulationSpec.digest",
    # Every policy decision hook, including future registry entries.
    "*.decide",
    # Batched decision hooks, reached dynamically from
    # Engine._precompute_decisions; their scoring helpers must stay
    # inside the certified set.
    "*.decide_many",
    # WindowPolicy's per-policy hooks (score sources and selection
    # rule), reached dynamically from WindowPolicy.decide/decide_many.
    "*.score_sources",
    "*.select_candidates",
    # Fault application: folded into spec digests via FaultPlan.digest.
    "*.faults.apply.*",
    # Federated and scaling specs: first-class run_many citizens, so
    # their run/digest paths (and the selector hook, reached dynamically
    # through the selector registry) determine cached payloads too.
    "*.run_federated_simulation",
    "*.run_reference_federated",
    "*.FederatedSpec.run",
    "*.FederatedSpec.digest",
    "*.select",
    "*.ScalingSpec.run",
    "*.ScalingSpec.digest",
    "*.plan_carbon_scaling",
    "*.fixed_allocation_plan",
]

#: Types that cross the ``run_many`` process-pool boundary, with whether
#: their dataclass closure must be frozen.  Specs are cache keys and
#: in-batch dedup keys, so they must be immutable; results only need to
#: pickle.
POOL_BOUNDARY_ROOTS: list[tuple[str, bool]] = [
    ("*.SimulationSpec", True),
    ("*.SimulationResult", False),
    ("*.FederatedSpec", True),
    ("*.FederatedResult", False),
    ("*.ScalingSpec", True),
    ("*.ScalingResult", False),
]


def register_entry_pattern(pattern: str) -> None:
    """Add a digest entry-point pattern (idempotent).

    Extends both SIM102 certification and the certified-reachable-set
    cache salt in this process.  Library code should call this at import
    time of the module that introduces the new entry point.
    """
    if pattern not in DIGEST_ENTRY_PATTERNS:
        DIGEST_ENTRY_PATTERNS.append(pattern)


def matches_any(qualname: str, patterns: list[str]) -> bool:
    """Whether a qualname matches one of the fnmatch patterns."""
    return any(fnmatch(qualname, pattern) for pattern in patterns)
