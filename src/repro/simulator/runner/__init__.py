"""Parallel, cached batch execution of simulations.

The runner turns the experiment layer's ``run_simulation`` loops into
declarative sweeps: build :class:`SimulationSpec` values (frozen,
hashable, picklable descriptions of single runs), submit the whole grid
to :func:`run_many`, and let the runner deduplicate, consult the
content-addressed :class:`ResultCache`, and dispatch the rest to one
of the two :data:`BACKENDS` (``serial`` in-process, or a ``pool`` of
worker processes).  :class:`Campaign` persists a sweep to a journaled
directory so it can be resumed after any interruption
(``python -m repro.simulator.runner resume <dir>``).  See
``docs/performance.md`` for the architecture and cache-keying details
and ``docs/sweeps.md`` for backends and campaigns.
"""

from __future__ import annotations

from repro.simulator.runner.backends import (
    BACKENDS,
    AttemptOutcome,
    BackendContext,
    PoolBackend,
    SerialBackend,
    SweepBackend,
)
from repro.simulator.runner.cache import (
    ResultCache,
    code_version_salt,
    default_cache,
    reset_default_cache,
)
from repro.simulator.runner.campaign import Campaign, CampaignReport
from repro.simulator.runner.execute import (
    RunStats,
    SpecFailure,
    WorkerCrash,
    execution_count,
    resolve_backend_name,
    resolve_jobs,
    resolve_retries,
    resolve_timeout,
    run_many,
)
from repro.simulator.runner.spec import FrozenSeries, FrozenWorkload, SimulationSpec

__all__ = [
    "SimulationSpec",
    "FrozenWorkload",
    "FrozenSeries",
    "run_many",
    "RunStats",
    "SpecFailure",
    "WorkerCrash",
    "resolve_jobs",
    "resolve_retries",
    "resolve_timeout",
    "resolve_backend_name",
    "execution_count",
    "ResultCache",
    "code_version_salt",
    "default_cache",
    "reset_default_cache",
    "BACKENDS",
    "SweepBackend",
    "SerialBackend",
    "PoolBackend",
    "AttemptOutcome",
    "BackendContext",
    "Campaign",
    "CampaignReport",
]
